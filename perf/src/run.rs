//! One run of one workload under the driver's contract: set up, measure,
//! check, print every metric, end with the one-line JSON result.

use std::path::PathBuf;
use std::time::Instant;

use crate::child::Report;
use crate::gen::{Shape, Workload, DEFAULT_SEED};
use crate::manifest::{diff_alerts, Manifest};
use crate::replay::{run_pass, PassSpec};
use crate::setup::{prepare, Prepared};
use crate::trace::TraceJob;
use crate::{host, live, metrics, stats, trace};

/// Set-ups per run; `setup_s` is their median. A set-up that takes a
/// fraction of a second (the live plan) is repeated until two seconds have
/// been spent.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
/// Untraced timed passes of a traced run: at least, and at most.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 12;
/// Traced passes of a traced run; the fastest one speaks for the layers.
const TRACE_PASSES: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    /// Negative self-test: drop one expected alert (or, where none is
    /// expected, demand one) before checking.
    pub tamper: bool,
}

/// What a run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable detail, printed before the result line.
    pub detail: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line the driver reads.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// What a run accumulates: the verdict on every pass, the metric values
/// and the detail lines.
struct Ledger {
    manifest: Manifest,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    values: Vec<(&'static str, f64)>,
    detail: Vec<String>,
}

impl Ledger {
    /// Judges one pass (or live session) against the manifest: every
    /// datagram offered must be processed — read and not dropped by the
    /// monitor afterwards — and the alert multiset must be the expected one
    /// (so every live probe has its alert and no benign call has one).
    fn pass(&mut self, what: &str, report: &Report) {
        let offered = self.manifest.datagrams;
        let dropped = report.nums.get("datagrams_dropped").copied().unwrap_or(0.0);
        let processed = (report.get("datagrams") - dropped).max(0.0) as u64;
        let (missing, unexpected) = diff_alerts(&self.manifest.alerts, &report.alerts);
        let lost = offered.abs_diff(processed);
        self.attempted += offered + self.manifest.expected_alerts();
        self.failed += lost + missing + unexpected;
        if lost != 0 {
            self.problems.push(format!(
                "{what}: {processed} datagrams processed, {offered} offered"
            ));
        }
        if missing + unexpected != 0 {
            self.problems.push(format!(
                "{what}: {missing} expected alerts missing, {unexpected} alerts not in the manifest"
            ));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn note(&mut self, line: String) {
        self.detail.push(line);
    }
}

/// Makes the manifest wrong on purpose, for the negative self-test.
fn tamper(manifest: &mut Manifest) {
    match manifest.alerts.first_entry() {
        Some(mut first) => {
            *first.get_mut() -= 1;
            if *first.get() == 0 {
                first.remove();
            }
        }
        None => {
            let never = "ATTACK|never-raised|none|-".to_owned();
            manifest.alerts.insert(never, 1);
        }
    }
}

/// A `golden.txt` line: workload, datagrams, capture bytes, capture hash.
fn golden_line(m: &Manifest) -> String {
    format!(
        "{} {} {} {:016x}",
        m.workload, m.datagrams, m.capture_bytes, m.capture_fnv
    )
}

/// The committed capture hashes of the default seed, `golden.txt`: the
/// generator must emit the same bytes on every commit.
fn check_golden(m: &Manifest, shape: &Shape) -> Result<(), String> {
    let full = Shape::full(shape.workload);
    if m.seed != DEFAULT_SEED || shape.calls != full.calls {
        return Ok(());
    }
    let want = golden_line(m);
    if include_str!("../golden.txt").lines().any(|l| l == want) {
        Ok(())
    } else {
        Err(format!(
            "generator drifted: default-seed capture is `{want}`, golden.txt says otherwise"
        ))
    }
}

/// Prints what `golden.txt` should hold, for a deliberate generator change.
pub fn print_golden() -> Result<(), String> {
    for w in Workload::ALL {
        let p = prepare(&Shape::full(w), DEFAULT_SEED, &work_dir())
            .map_err(|e| format!("set-up: {e}"))?;
        println!("{}", golden_line(&p.manifest));
        let _ = std::fs::remove_file(&p.capture);
    }
    Ok(())
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let dir = work_dir();
    let shape = Shape::full(args.workload).with_live_seconds(args.seconds.max(3));
    let jiffies0 = host::cpu_jiffies();
    let speed0 = host::speed_index_ms();

    // Set-up, several times over; the last one's files are the run's.
    let mut setup_times: Vec<f64> = Vec::new();
    let prepared = loop {
        let p = prepare(&shape, args.seed, &dir).map_err(|e| format!("set-up: {e}"))?;
        setup_times.push(p.setup_s);
        let n = setup_times.len();
        let enough = n >= MIN_SETUPS && (setup_times.iter().sum::<f64>() >= 2.0 || n >= MAX_SETUPS);
        if args.trace || enough {
            break p;
        }
    };
    check_golden(&prepared.manifest, &shape)?;
    let m = &prepared.manifest;
    let mut run = Ledger {
        manifest: m.clone(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        values: Vec::new(),
        detail: vec![format!(
            "workload {}  seed {}  seconds {}  datagrams {} (sip {}, rtp {}, malformed {})  \
             capture {} B fnv {:016x}  expected alerts {}",
            m.workload,
            m.seed,
            args.seconds,
            m.datagrams,
            m.sip,
            m.rtp,
            m.malformed,
            m.capture_bytes,
            m.capture_fnv,
            m.expected_alerts(),
        )],
    };
    if args.tamper {
        tamper(&mut run.manifest);
    }
    for (k, v) in host::fingerprint() {
        run.note(format!("host {k}: {v}"));
    }

    if args.trace {
        traced(args, &prepared, &mut run)?;
    } else {
        run.metric("setup_s", stats::median(&setup_times));
        run.note(format!("setup_s samples {setup_times:?}"));
        if args.workload.is_live() {
            live_end_to_end(&prepared, &mut run)?;
        } else {
            replay_end_to_end(args.workload, &prepared, &mut run)?;
        }
    }
    let speed1 = host::speed_index_ms();
    let steal = host::steal_share(jiffies0, host::cpu_jiffies());
    run.note(format!(
        "host speed_index before/after {speed0:.3}/{speed1:.3} ms  steal_share {steal:.4}"
    ));
    if args.trace {
        run.metric("host.speed_index", (speed0 + speed1) / 2.0);
        run.metric("host.steal_share", steal);
    }
    // The capture is large and regenerated by every run.
    let _ = std::fs::remove_file(&prepared.capture);

    // Order the metrics as BENCHMARK.json lists them; all must be there.
    let table: Vec<(&'static str, &'static str)> = if args.trace {
        metrics::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut ordered = Vec::new();
    for (name, unit) in table {
        let value = run
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("internal: metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        ordered.push((name, value, unit));
    }
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        problems: run.problems,
        metrics: ordered,
        detail: run.detail,
    })
}

/// The three end-to-end figures every workload shares, from a report that
/// counted allocations over `kdgrams` thousand datagrams.
fn cost_metrics(run: &mut Ledger, counted: &Report, kdgrams: f64, peak_rss_kib: f64) {
    run.metric("allocs_per_kdgram", counted.get("allocs") / kdgrams);
    run.metric(
        "alloc_kib_per_kdgram",
        counted.get("alloc_bytes") / 1024.0 / kdgrams,
    );
    run.metric("peak_rss_mib", peak_rss_kib / 1024.0);
}

/// Two count passes: the exact allocation counts, which must agree, and
/// the peak resident set.
fn replay_end_to_end(w: Workload, prepared: &Prepared, run: &mut Ledger) -> Result<(), String> {
    let first = run_pass(w, &prepared.capture, PassSpec::COUNTED)?;
    run.pass("count pass 1", &first);
    let second = run_pass(w, &prepared.capture, PassSpec::COUNTED)?;
    run.pass("count pass 2", &second);
    for key in ["allocs", "alloc_bytes"] {
        if first.get(key) != second.get(key) {
            run.problems.push(format!(
                "count passes disagree on {key}: {} then {}",
                first.get(key),
                second.get(key)
            ));
        }
    }
    let peak_rss_kib = first.get("peak_rss_kib").max(second.get("peak_rss_kib"));
    let kdgrams = prepared.manifest.datagrams as f64 / 1e3;
    cost_metrics(run, &first, kdgrams, peak_rss_kib);
    run.note(format!(
        "count passes: {} allocations, {} bytes, twice; peak calls {}; pass cpu {:.0} and {:.0} ms",
        first.get("allocs"),
        first.get("alloc_bytes"),
        first.get("peak_calls"),
        first.get("cpu_ns") / 1e6,
        second.get("cpu_ns") / 1e6,
    ));
    Ok(())
}

/// Live sessions tried before a run gives up on a quiet one.
const LIVE_ATTEMPTS: usize = 3;

/// Runs the live session, judges it and describes it. A session in which
/// the kernel dropped datagrams before the monitor's socket read them
/// (sent ≠ received: a vCPU stalled for longer than the receive buffer
/// lasts) is void, not failed — the monitor was never offered them — and
/// is repeated. What the monitor itself drops after reading counts as
/// failed, and so does a third lossy session in a row.
fn live_session(prepared: &Prepared, run: &mut Ledger) -> Result<Report, String> {
    let mut attempt = 1;
    let s = loop {
        let s = live::run_session(&prepared.capture, &prepared.manifest_path)?;
        let lost = s.get("datagrams_sent") - s.get("datagrams");
        if lost == 0.0 || attempt == LIVE_ATTEMPTS {
            break s;
        }
        run.note(format!(
            "live: session {attempt} void: the kernel dropped {lost} of {} datagrams before the \
             monitor read them",
            s.get("datagrams_sent")
        ));
        attempt += 1;
    };
    run.pass("live session", &s);
    run.note(format!(
        "live: sent {}  received {}  dropped {}  batches {}  window {:.2} s, {} datagrams, \
         monitor cpu {:.1} ms, peak calls {}",
        s.get("datagrams_sent"),
        s.get("datagrams"),
        s.get("datagrams_dropped"),
        s.get("batches"),
        s.get("wall_ns") / 1e9,
        s.get("window_dgrams"),
        s.get("cpu_ns") / 1e6,
        s.get("peak_calls"),
    ));
    for (what, list, high) in [
        ("probe detection delay", "detect_ms", 90.0),
        ("generator lateness", "late_ms", 99.0),
    ] {
        let v = s.list(list);
        if !v.is_empty() {
            run.note(format!(
                "live: {what}: {} samples  p50 {:.3} ms  p{high} {:.3} ms  max {:.3} ms",
                v.len(),
                stats::percentile(v, 50.0),
                stats::percentile(v, high),
                stats::percentile(v, 100.0),
            ));
        }
    }
    Ok(s)
}

fn live_end_to_end(prepared: &Prepared, run: &mut Ledger) -> Result<(), String> {
    let s = live_session(prepared, run)?;
    let kdgrams = s.get("datagrams_sent") / 1e3;
    cost_metrics(run, &s, kdgrams, s.get("peak_rss_kib"));
    Ok(())
}

/// The traced run: untraced reference passes, traced passes, the guards,
/// and — for the live workload — the live session's own layers.
fn traced(args: &RunArgs, prepared: &Prepared, run: &mut Ledger) -> Result<(), String> {
    let w = args.workload;
    let capture = &prepared.capture;
    let offered = prepared.manifest.datagrams as f64;

    // Untraced timed passes for about a third of the run, each a fresh
    // process; their lower quartile is the replay's clock figure.
    let started = Instant::now();
    let (mut cpu_ns, mut wall_ns) = (Vec::new(), Vec::new());
    while cpu_ns.len() < MAX_PASSES {
        let r = run_pass(w, capture, PassSpec::TIMED)?;
        let n = cpu_ns.len() + 1;
        run.pass(&format!("untraced pass {n}"), &r);
        cpu_ns.push(r.get("cpu_ns"));
        wall_ns.push(r.get("wall_ns"));
        if n >= MIN_PASSES && started.elapsed().as_secs_f64() * 3.0 > args.seconds as f64 {
            break;
        }
    }
    let untraced = stats::lower_quartile(&wall_ns);
    run.metric("replay.pps", offered / (untraced / 1e9));
    run.metric(
        "replay.cpu_us_per_dgram",
        stats::lower_quartile(&cpu_ns) / 1e3 / offered,
    );
    let ms = |v: &[f64]| -> Vec<String> { v.iter().map(|x| format!("{:.1}", x / 1e6)).collect() };
    let [q1, q2, q3] = stats::quartiles(&wall_ns);
    run.note(format!("untraced pass cpu ms  {}", ms(&cpu_ns).join(" ")));
    run.note(format!(
        "untraced pass wall ms {}  (lower-quartile pass {:.1}, quartiles {:.1} {:.1} {:.1})",
        ms(&wall_ns).join(" "),
        untraced / 1e6,
        q1 / 1e6,
        q2 / 1e6,
        q3 / 1e6,
    ));

    // The fastest traced pass speaks for the layers: neighbours only ever
    // add time, and the untraced side is a low quantile too.
    let spans_path = work_dir().join(format!("trace-{}.jsonl", w.name()));
    let scratch_path = work_dir().join("trace-scratch.jsonl");
    let mut best: Option<Report> = None;
    for i in 0..TRACE_PASSES {
        let job = TraceJob::Pass {
            shards: 1,
            spans_out: Some(&scratch_path),
        };
        let r = trace::run_traced(w, capture, job)?;
        run.pass(&format!("traced pass {}", i + 1), &r);
        if best
            .as_ref()
            .is_none_or(|b| r.get("pass_ns") < b.get("pass_ns"))
        {
            std::fs::rename(&scratch_path, &spans_path)
                .map_err(|e| format!("{}: {e}", spans_path.display()))?;
            best = Some(r);
        }
    }
    let _ = std::fs::remove_file(&scratch_path);
    let best = best.expect("at least one traced pass");
    let isolated_path = work_dir().join(format!("trace-{}-isolated.jsonl", w.name()));
    let isolated = trace::run_traced(
        w,
        capture,
        TraceJob::Isolated {
            spans_out: &isolated_path,
        },
    )?;
    for (name, _, _) in metrics::PER_LAYER {
        if let Some(v) = best.nums.get(name).or(isolated.nums.get(name)) {
            run.metric(name, *v);
        }
    }
    let coverage = best.get("layer_sum_ns") / untraced;
    run.metric("trace.coverage", coverage);
    run.metric("trace.overhead_share", best.get("pass_ns") / untraced - 1.0);
    run.note(format!(
        "trace: untraced lower-quartile pass {:.1} ms  traced pass {:.1} ms  layer sum {:.1} ms  \
         loop glue {:.1} ms  coverage {:.3}{}  {} spans in {}, {} in {}",
        untraced / 1e6,
        best.get("pass_ns") / 1e6,
        best.get("layer_sum_ns") / 1e6,
        best.get("glue_ns") / 1e6,
        coverage,
        if (0.85..=1.15).contains(&coverage) {
            ""
        } else {
            "  OUTSIDE 0.85-1.15"
        },
        best.get("spans"),
        spans_path.display(),
        isolated.get("spans"),
        isolated_path.display(),
    ));

    // Guards: paths no end-to-end workload drives yet.
    let four_shards = TraceJob::Pass {
        shards: 4,
        spans_out: None,
    };
    let four = trace::run_traced(w, capture, four_shards)?;
    run.pass("traced pass, 4 shards", &four);
    run.metric(
        "core.pool_4s_ns_per_dgram",
        four.get("core.pool_ns_per_dgram"),
    );
    let parallel = PassSpec {
        shards: 2,
        threads: 2,
        ..PassSpec::TIMED
    };
    let par2 = run_pass(w, capture, parallel)?;
    run.pass("parallel replay", &par2);
    run.metric(
        "ingest.replay_par2_ns_per_dgram",
        par2.get("wall_ns") / offered,
    );
    let with_telemetry = PassSpec {
        telemetry: true,
        ..PassSpec::TIMED
    };
    let telemetry = run_pass(w, capture, with_telemetry)?;
    run.pass("replay with telemetry", &telemetry);
    run.metric(
        "telemetry.on_ns_per_dgram",
        (telemetry.get("wall_ns") - untraced) / offered,
    );

    // The socket path exists only in the live workload; elsewhere its
    // layers did no work and read 0.
    if w.is_live() {
        let s = live_session(prepared, run)?;
        let detect = s.list("detect_ms");
        if detect.is_empty() {
            return Err("live session timed no probe".into());
        }
        let sent = s.get("datagrams_sent");
        let lost = sent - s.get("datagrams") + s.get("datagrams_dropped");
        run.metric("live.detect_p50_ms", stats::percentile(detect, 50.0));
        run.metric("live.detect_p90_ms", stats::percentile(detect, 90.0));
        run.metric(
            "live.cpu_ms_per_s",
            s.get("cpu_ns") / 1e6 / (s.get("wall_ns") / 1e9),
        );
        run.metric(
            "ingest.serve_batch_fill",
            s.get("datagrams") / s.get("batches").max(1.0),
        );
        run.metric("ingest.serve_lost_share", lost / sent);
        run.metric(
            "gen.late_p99_ms",
            stats::percentile(s.list("late_ms"), 99.0),
        );
    } else {
        for name in [
            "live.detect_p50_ms",
            "live.detect_p90_ms",
            "live.cpu_ms_per_s",
            "ingest.serve_batch_fill",
            "ingest.serve_lost_share",
            "gen.late_p99_ms",
        ] {
            run.metric(name, 0.0);
        }
    }
    Ok(())
}
