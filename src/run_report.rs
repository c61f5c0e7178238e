//! Shared end-of-run reporting for the wire pipelines.
//!
//! `vids serve` and `vids replay` finish the same way: a drain summary,
//! a throughput figure, the engine counters, the alert report and an
//! optional telemetry snapshot. This module renders all of that in one
//! place so the two commands cannot drift apart, and adds the flight
//! recorder's summary for runs started with `--record DIR`.

use std::fmt::Write;
use std::path::PathBuf;

use vids_core::alert::Alert;
use vids_core::engine::VidsCounters;
use vids_core::pool::VidsPool;
use vids_core::report::AlertReport;
use vids_core::sink::AlertSink;
use vids_core::telemetry::{Counter, Snapshot};
use vids_core::tenant::TenantId;
use vids_efsm::intern::{self, InternStats};
use vids_ingest::replay::ReplayReport;
use vids_ingest::server::ServeReport;
use vids_netsim::time::SimTime;
use vids_record::RecorderStats;

/// Which pipeline produced the run — decides the summary's phrasing
/// (a drained live socket vs. a replayed capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    Serve,
    Replay,
}

/// The common shape of a finished ingest run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub kind: RunKind,
    pub datagrams: u64,
    pub demux_unknown: u64,
    /// Plain-IPv6 datagrams the v4-only engine dropped at classify time.
    pub datagrams_ipv6: u64,
    /// Kernel-reported receive drops; only the live path has them.
    pub dropped: Option<u64>,
    pub batches: u64,
    /// Capture-clock span of the run.
    pub span: SimTime,
    /// Wall-clock seconds spent, when throughput is meaningful.
    pub wall_secs: Option<f64>,
    /// How full the process-wide symbol table is at the end of the run:
    /// symbols are never freed, and a full table sheds new calls.
    pub symbols: InternStats,
}

impl RunSummary {
    pub fn from_serve(report: &ServeReport) -> Self {
        RunSummary {
            kind: RunKind::Serve,
            datagrams: report.datagrams_rx,
            demux_unknown: report.demux_unknown,
            datagrams_ipv6: report.datagrams_ipv6,
            dropped: Some(report.datagrams_dropped),
            batches: report.batches,
            span: report.ended_at,
            wall_secs: None,
            symbols: intern::stats(),
        }
    }

    pub fn from_replay(report: &ReplayReport, wall_secs: f64) -> Self {
        RunSummary {
            kind: RunKind::Replay,
            datagrams: report.datagrams,
            demux_unknown: report.demux_unknown,
            datagrams_ipv6: report.datagrams_ipv6,
            dropped: None,
            batches: report.batches,
            span: report.last_at,
            wall_secs: Some(wall_secs),
            symbols: intern::stats(),
        }
    }

    /// The drain line, a throughput line when wall time was measured, and
    /// the symbol table's fill level.
    pub fn render(&self) -> String {
        // The engine is IPv4-only; v6 traffic is dropped at classify time
        // but must never vanish silently, so the drain line calls it out
        // whenever any arrived.
        let ipv6 = if self.datagrams_ipv6 > 0 {
            format!(", {} ipv6", self.datagrams_ipv6)
        } else {
            String::new()
        };
        let mut out = match self.kind {
            RunKind::Serve => format!(
                "drained: {} datagrams ({} unknown{ipv6}, {} dropped) in {} batches over {:.1} s",
                self.datagrams,
                self.demux_unknown,
                self.dropped.unwrap_or(0),
                self.batches,
                self.span.as_secs_f64()
            ),
            RunKind::Replay => format!(
                "replayed {} datagrams ({} unknown{ipv6}) in {} batches; capture spans {:.3} s",
                self.datagrams,
                self.demux_unknown,
                self.batches,
                self.span.as_secs_f64()
            ),
        };
        if let Some(wall) = self.wall_secs {
            if wall > 0.0 {
                out.push_str(&format!(
                    "\nthroughput: {:.0} pps over {wall:.3} s of wall clock",
                    self.datagrams as f64 / wall
                ));
            }
        }
        out.push_str(&format!(
            "\nsymbols {} of {} ({:.1} MiB)",
            self.symbols.symbols,
            self.symbols.capacity,
            self.symbols.text_bytes as f64 / (1024.0 * 1024.0)
        ));
        out
    }
}

/// The engine-counter line both commands print.
pub fn counters_line(counters: &VidsCounters) -> String {
    format!("counters: {counters:?}")
}

/// Counts every alert against the tenant whose traffic raised it on its
/// way to `sink`: the pool hands each merged alert over with its tenant
/// and keeps none, so a run that reports per tenant counts as they pass.
pub struct TenantTally<S> {
    /// Alerts per tenant id; tenants past the end raised none.
    pub counts: Vec<u64>,
    /// Where the alerts go.
    pub sink: S,
}

impl<S: AlertSink> AlertSink for TenantTally<S> {
    fn accept(&mut self, alert: Alert) {
        self.accept_from(0, alert);
    }

    fn accept_from(&mut self, tenant: TenantId, alert: Alert) {
        let at = tenant as usize;
        if self.counts.len() <= at {
            self.counts.resize(at + 1, 0);
        }
        self.counts[at] += 1;
        self.sink.accept_from(tenant, alert);
    }
}

/// One line per tenant of a tenant-mapped pool — its alerts (`alerts`,
/// as a [`TenantTally`] counted them), traffic and tracked calls — and
/// nothing for a pool without a tenant map.
pub fn tenant_lines(pool: &VidsPool, alerts: &[u64]) -> String {
    let Some(tenants) = pool.tenants() else {
        return String::new();
    };
    let mut out = String::new();
    for (id, tenant) in tenants.iter().enumerate() {
        let alerts = alerts.get(id).copied().unwrap_or(0);
        let id = id as TenantId;
        let counters = pool.tenant_counters(id);
        let _ = writeln!(
            out,
            "tenant {id} ({}): {alerts} alert(s), {} sip, {} rtp, {} tracked call(s)",
            tenant.name,
            counters.sip_packets,
            counters.rtp_packets,
            pool.tenant_monitored_calls(id),
        );
    }
    out
}

/// `vids top`'s pool line. Batch, packet and sweep counts are the pool
/// slab's own; malformed, ignored and quota drops are recorded by the shard
/// engines, so they come from the merged view.
pub fn pool_line(snap: &Snapshot) -> String {
    let merged = snap.merged();
    format!(
        "pool:  {} batches, {} packets, {} sweeps, {} malformed, {} ignored, {} ipv6, {} quota drops",
        snap.pool.counter(Counter::BatchesIngested),
        snap.pool.counter(Counter::PacketsIngested),
        snap.pool.counter(Counter::TimerSweeps),
        merged.counter(Counter::Malformed),
        merged.counter(Counter::Ignored),
        snap.pool.counter(Counter::DatagramsIpv6),
        merged.counter(Counter::CallQuotaDrops),
    )
}

/// The per-kind alert report (empty string when no alerts fired).
pub fn alert_report(alerts: &[Alert]) -> String {
    AlertReport::from_alerts(alerts).to_string()
}

/// The flight recorder's end-of-run summary: ring occupancy, dump count
/// and one line per dump written.
pub fn recorder_summary(stats: &RecorderStats, written: &[PathBuf], io_errors: u64) -> String {
    let mut out = format!(
        "recorder: {} datagrams ringed ({} overwritten, {} oversize), {} B live, {} dump(s)",
        stats.rings.recorded,
        stats.rings.overwritten,
        stats.rings.oversize,
        stats.rings.bytes_live,
        stats.dumps_written
    );
    if io_errors > 0 {
        out.push_str(&format!(", {io_errors} dump write error(s)"));
    }
    for path in written {
        out.push_str(&format!("\n  wrote {}", path.display()));
    }
    out
}

/// Writes a telemetry series to `path` — CSV when the name says so,
/// JSON lines otherwise.
pub fn write_telemetry(path: &str, series: &[Snapshot]) -> Result<(), String> {
    let mut out = String::new();
    if path.ends_with(".csv") {
        out.push_str(&Snapshot::csv_header());
        out.push('\n');
        for snap in series {
            out.push_str(&snap.to_csv_row());
            out.push('\n');
        }
    } else {
        for snap in series {
            out.push_str(&snap.to_jsonl());
            out.push('\n');
        }
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYMBOLS: InternStats = InternStats {
        symbols: 1_200,
        capacity: 4_194_304,
        text_bytes: 3 * 512 * 1024,
    };

    #[test]
    fn serve_summary_keeps_the_historical_wording() {
        let s = RunSummary {
            kind: RunKind::Serve,
            datagrams: 30,
            demux_unknown: 1,
            datagrams_ipv6: 0,
            dropped: Some(2),
            batches: 4,
            span: SimTime::from_millis(2_500),
            wall_secs: None,
            symbols: SYMBOLS,
        };
        assert_eq!(
            s.render(),
            "drained: 30 datagrams (1 unknown, 2 dropped) in 4 batches over 2.5 s\n\
             symbols 1200 of 4194304 (1.5 MiB)"
        );
    }

    #[test]
    fn ipv6_drops_surface_in_the_drain_line() {
        let s = RunSummary {
            kind: RunKind::Serve,
            datagrams: 30,
            demux_unknown: 1,
            datagrams_ipv6: 5,
            dropped: Some(2),
            batches: 4,
            span: SimTime::from_millis(2_500),
            wall_secs: None,
            symbols: SYMBOLS,
        };
        assert_eq!(
            s.render().lines().next(),
            Some("drained: 30 datagrams (1 unknown, 5 ipv6, 2 dropped) in 4 batches over 2.5 s")
        );
        let r = RunSummary {
            kind: RunKind::Replay,
            dropped: None,
            ..s
        };
        assert!(r
            .render()
            .starts_with("replayed 30 datagrams (1 unknown, 5 ipv6) in 4 batches"));
    }

    #[test]
    fn replay_summary_appends_throughput_when_wall_time_is_real() {
        let s = RunSummary {
            kind: RunKind::Replay,
            datagrams: 1000,
            demux_unknown: 0,
            datagrams_ipv6: 0,
            dropped: None,
            batches: 8,
            span: SimTime::from_millis(1_500),
            wall_secs: Some(0.5),
            symbols: SYMBOLS,
        };
        let text = s.render();
        assert!(text.starts_with(
            "replayed 1000 datagrams (0 unknown) in 8 batches; capture spans 1.500 s"
        ));
        assert!(text.contains("throughput: 2000 pps over 0.500 s"));
        assert!(text.ends_with("\nsymbols 1200 of 4194304 (1.5 MiB)"));
        // Zero wall time suppresses the division.
        let degenerate = RunSummary {
            wall_secs: Some(0.0),
            ..s
        };
        assert!(!degenerate.render().contains("throughput"));
    }

    #[test]
    fn pool_line_reads_shard_counters_from_the_merged_view() {
        let registry = vids_core::telemetry::Registry::new(2);
        registry.shard(1).add(Counter::CallQuotaDrops, 2);
        registry.shard(0).inc(Counter::Malformed);
        registry.pool().inc(Counter::BatchesIngested);
        let line = pool_line(&registry.snapshot(0));
        assert!(line.starts_with("pool:  1 batches, 0 packets, 0 sweeps, 1 malformed"));
        assert!(line.ends_with(", 2 quota drops"), "{line}");
    }

    #[test]
    fn recorder_summary_lists_dumps_and_errors() {
        let stats = RecorderStats {
            rings: vids_record::RingStats {
                recorded: 100,
                overwritten: 3,
                oversize: 0,
                bytes_live: 4096,
                slots_live: 97,
            },
            dumps_written: 2,
        };
        let written = vec![PathBuf::from("/tmp/000000-invite-flood.vdump")];
        let text = recorder_summary(&stats, &written, 1);
        assert!(text.contains("100 datagrams ringed (3 overwritten, 0 oversize)"));
        assert!(text.contains("2 dump(s), 1 dump write error(s)"));
        assert!(text.contains("wrote /tmp/000000-invite-flood.vdump"));
    }
}
