//! `vids-perf` — the repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! vids-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run (the driver's contract)
//! vids-perf compare [--runs N] [--seconds S] [--workload NAME] [--trace 0|1]   two interleaved sets of runs
//! vids-perf selftest                                                 negative self-test
//! vids-perf golden | benchmark-json                                  regenerate golden.txt / BENCHMARK.json
//! ```

mod child;
mod compare;
mod gen;
mod host;
mod live;
mod manifest;
mod metrics;
mod replay;
mod run;
mod setup;
mod stats;
mod sys;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// `--key value` pairs after the optional mode word.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(words: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = words.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or(format!("expected --option, found {key:?}"))?;
            let value = it.next().ok_or(format!("{key} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.text(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        Ok(self.number::<u8>(key, 0)? != 0)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.text("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or(format!(
            "unknown workload {name:?}; one of {}",
            Workload::ALL.map(Workload::name).join(", ")
        ))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.text(key)
            .map(PathBuf::from)
            .ok_or(format!("--{key} is required"))
    }
}

fn real_main() -> Result<ExitCode, String> {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match words.first() {
        Some(w) if !w.starts_with("--") => (w.as_str(), &words[1..]),
        _ => ("run", &words[..]),
    };
    let args = Args::parse(rest)?;
    match mode {
        "run" => {
            let run_args = run::RunArgs {
                workload: args.workload()?,
                seed: args.number("seed", gen::DEFAULT_SEED)?,
                seconds: args.number("seconds", metrics::RUN_SECONDS)?,
                trace: args.flag("trace")?,
                tamper: args.flag("tamper-manifest")?,
            };
            let outcome = run::run(&run_args)?;
            for line in &outcome.detail {
                println!("{line}");
            }
            for (name, value, unit) in &outcome.metrics {
                println!("metric {name} = {value} {unit}");
            }
            println!(
                "ops_attempted {}  ops_failed {}",
                outcome.attempted, outcome.failed
            );
            for p in &outcome.problems {
                println!("FAILED: {p}");
            }
            println!("{}", outcome.result_json());
            Ok(if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "child-replay" => {
            let spec = replay::PassSpec {
                count_allocs: args.flag("count-allocs")?,
                shards: args.number("shards", 1)?,
                threads: args.number("threads", 1)?,
                telemetry: args.flag("telemetry")?,
            };
            let report = replay::child_main(args.workload()?, &args.path("capture")?, spec)?;
            print!("{}", report.to_text());
            Ok(ExitCode::SUCCESS)
        }
        "child-live" => {
            let report = live::child_main(&args.path("capture")?, &args.path("manifest")?)?;
            print!("{}", report.to_text());
            Ok(ExitCode::SUCCESS)
        }
        "child-trace" => {
            let spans = args.text("spans").map(PathBuf::from);
            let job = if args.flag("isolated")? {
                trace::TraceJob::Isolated {
                    spans_out: &args.path("spans")?,
                }
            } else {
                trace::TraceJob::Pass {
                    shards: args.number("shards", 1)?,
                    spans_out: spans.as_deref(),
                }
            };
            let report = trace::child_main(args.workload()?, &args.path("capture")?, job)?;
            print!("{}", report.to_text());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let workloads = match args.text("workload") {
                Some(_) => vec![args.workload()?],
                None => Workload::ALL.to_vec(),
            };
            let ok = compare::compare(
                &workloads,
                args.number("runs", 5)?,
                args.number("seconds", metrics::RUN_SECONDS)?,
                args.number("seed", gen::DEFAULT_SEED)?,
                args.flag("trace")?,
            )?;
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "selftest" => {
            let ok = compare::negative_selftest()?;
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "golden" => {
            run::print_golden()?;
            Ok(ExitCode::SUCCESS)
        }
        "benchmark-json" => {
            print!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown mode {other:?}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vids-perf: {e}");
            ExitCode::from(2)
        }
    }
}
