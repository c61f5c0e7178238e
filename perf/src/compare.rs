//! `compare`: does the benchmark agree with itself? Two interleaved sets
//! of runs of the current tree, judged the way the driver judges them.
//! `selftest`: does the correctness check notice a wrong manifest?

use std::process::{Command, Stdio};

use crate::gen::Workload;
use crate::{metrics, stats};

/// One run as the driver would start it; returns `(exit ok, result line)`.
/// What a failing run printed passes through to standard error.
fn driver_run(extra: &[&str]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("").to_owned();
    if !out.status.success() {
        eprint!("{text}");
    }
    Ok((out.status.success(), last))
}

/// The value of metric `name` in a result line this program printed.
pub fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The clock metrics of the traced run, with the bound the issue wanted
/// for them as end-to-end metrics. `compare --trace 1` judges them against
/// it; that they do not hold it on a shared host is why they are per-layer.
const CLOCKS: [(&str, bool, f64); 5] = [
    ("replay.cpu_us_per_dgram", true, 0.10),
    ("replay.pps", false, 0.10),
    ("live.detect_p50_ms", true, 0.10),
    ("live.detect_p90_ms", true, 0.10),
    ("live.cpu_ms_per_s", true, 0.10),
];

pub fn compare(
    workloads: &[Workload],
    runs: usize,
    seconds: u32,
    seed: u64,
    trace: bool,
) -> Result<bool, String> {
    if runs < 2 {
        return Err("compare needs --runs of at least 2".into());
    }
    let table: Vec<(&str, bool, f64)> = if trace {
        CLOCKS.to_vec()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(name, _, lower)| (*name, *lower, metrics::bound(name)))
            .collect()
    };
    let mut all_ok = true;
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for &w in workloads {
        // sets[set][metric] = one value per run
        let mut sets = vec![vec![Vec::new(); table.len()]; 2];
        for i in 0..runs {
            for (set, values) in sets.iter_mut().enumerate() {
                let run_seed = (seed + (2 * i + set) as u64).to_string();
                let (ok, line) = driver_run(&[
                    "--workload",
                    w.name(),
                    "--seed",
                    &run_seed,
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])?;
                if !ok {
                    return Err(format!("{} seed {run_seed}: run failed: {line}", w.name()));
                }
                for (slot, (name, _, _)) in values.iter_mut().zip(&table) {
                    let v = metric_value(&line, name)
                        .ok_or(format!("{}: no {name} in {line:?}", w.name()))?;
                    slot.push(v);
                }
                eprintln!(
                    "compare: {} set {} run {} done",
                    w.name(),
                    ["A", "B"][set],
                    i + 1
                );
            }
        }
        for (m, (name, lower, bound)) in table.iter().enumerate() {
            if sets[0][m].iter().chain(&sets[1][m]).all(|&v| v == 0.0) {
                continue; // a layer this workload's path does not cross
            }
            let bound = *bound;
            let (a, b) = (stats::median(&sets[0][m]), stats::median(&sets[1][m]));
            let worse = if *lower { (b - a) / a } else { (a - b) / a };
            let (sa, sb) = (stats::iqr_share(&sets[0][m]), stats::iqr_share(&sets[1][m]));
            // The driver exempts setup_s from the spread rule only.
            let spread_ok = *name == "setup_s" || (sa <= bound && sb <= bound);
            let ok = worse.abs() <= bound && spread_ok;
            all_ok &= ok;
            println!(
                "| {} | {name} | {a:.4} | {b:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                w.name(),
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if ok { "pass" } else { "FAIL" },
            );
        }
    }
    Ok(all_ok)
}

/// A run whose manifest lost one expected alert must fail its check.
pub fn negative_selftest() -> Result<bool, String> {
    let (ok, line) = driver_run(&[
        "--workload",
        Workload::InviteFlood.name(),
        "--seconds",
        "3",
        "--tamper-manifest",
        "1",
    ])?;
    let flagged = !ok && line.contains("\"correct\": false");
    println!(
        "negative self-test (one expected alert dropped from the manifest): {}",
        if flagged {
            "the check failed as intended"
        } else {
            "THE CHECK DID NOT NOTICE"
        }
    );
    println!("  result line: {line}");
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_metric_out_of_a_result_line() {
        let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 2.5031, "unit": "s"}, "cpu_us_per_dgram": {"value": 1.25, "unit": "us"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(2.5031));
        assert_eq!(metric_value(line, "cpu_us_per_dgram"), Some(1.25));
        assert_eq!(metric_value(line, "peak_rss_mib"), None);
    }
}
