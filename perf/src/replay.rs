//! Replay passes. Every pass is a child process: the engine's interner
//! (`vids_efsm::intern`) is process-global and never frees, so a second
//! replay in one process would see hits where the first saw misses and
//! measure a different program.

use std::path::Path;
use std::time::Instant;

use vids_core::{CollectSink, CostModel, VidsPool};
use vids_ingest::{replay_pcap, replay_pcap_parallel};

use crate::child::{self, Report};
use crate::gen::Workload;
use crate::manifest::alert_set;
use crate::setup::{engine_config, FLUSH_PACKETS};
use crate::sys;

/// How a replay child is asked to run.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    /// Count heap allocations during the replay call.
    pub count_allocs: bool,
    pub shards: usize,
    /// Classifier threads; above 1 uses `replay_pcap_parallel`.
    pub threads: usize,
    pub telemetry: bool,
}

impl PassSpec {
    pub const TIMED: PassSpec = PassSpec {
        count_allocs: false,
        shards: 1,
        threads: 1,
        telemetry: false,
    };
    pub const COUNTED: PassSpec = PassSpec {
        count_allocs: true,
        ..PassSpec::TIMED
    };
}

/// Runs one pass in a fresh process and returns what it measured.
pub fn run_pass(workload: Workload, capture: &Path, spec: PassSpec) -> Result<Report, String> {
    child::spawn(&[
        "child-replay",
        "--workload",
        workload.name(),
        "--capture",
        &capture.display().to_string(),
        "--count-allocs",
        if spec.count_allocs { "1" } else { "0" },
        "--shards",
        &spec.shards.to_string(),
        "--threads",
        &spec.threads.to_string(),
        "--telemetry",
        if spec.telemetry { "1" } else { "0" },
    ])
}

/// The child side: load the capture, build a fresh pool, time exactly one
/// replay call, report.
pub fn child_main(workload: Workload, capture: &Path, spec: PassSpec) -> Result<Report, String> {
    let bytes = std::fs::read(capture).map_err(|e| format!("{}: {e}", capture.display()))?;
    let mut pool = VidsPool::with_cost(engine_config(workload, spec.shards), CostModel::free());
    let registry = spec.telemetry.then(|| pool.enable_telemetry(64));
    let mut sink = CollectSink::new();

    sys::count_allocs(spec.count_allocs);
    let (allocs0, bytes0) = sys::alloc_counts();
    let cpu0 = sys::process_cpu_ns();
    let wall0 = Instant::now();
    let result = if spec.threads > 1 {
        replay_pcap_parallel(
            bytes,
            &mut pool,
            FLUSH_PACKETS,
            spec.threads,
            registry.as_deref(),
            None,
            &mut sink,
        )
    } else {
        replay_pcap(
            bytes,
            &mut pool,
            FLUSH_PACKETS,
            registry.as_deref(),
            None,
            &mut sink,
        )
    };
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let (allocs1, bytes1) = sys::alloc_counts();
    sys::count_allocs(false);

    let replayed = result.map_err(|e| format!("replay failed: {e}"))?;
    let mut report = Report::default();
    report.set("datagrams", replayed.datagrams);
    report.set("demux_unknown", replayed.demux_unknown);
    report.set("batches", replayed.batches);
    report.set("wall_ns", wall_ns);
    report.set("cpu_ns", cpu_ns);
    report.set("allocs", allocs1 - allocs0);
    report.set("alloc_bytes", bytes1 - bytes0);
    report.set("peak_calls", pool.factbase_stats().peak_concurrent);
    report.set("peak_rss_kib", sys::peak_rss_kib());
    report.alerts = alert_set(sink.alerts());
    Ok(report)
}
