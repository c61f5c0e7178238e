//! The placement matrix: one corpus through every way vids can be deployed,
//! each run reduced to one canonical [`Output`].
//!
//! In the paper a call's SIP and RTP machines share one fact-base entry, so
//! a verdict is a function of the call's traffic. The engine, shard, node
//! or tenant group that holds the entry, the thread that classified the
//! datagram and the path it came in by must not change it. [`Shape`] lists
//! the deployments; [`run`] feeds a trace through one of them in fixed
//! batches, each clocked at its first datagram, and ends with the replay's
//! final sweep `replay_grace` past the last datagram; [`check`] runs a
//! list of placements against its first entry.
//!
//! Outputs are compared byte for byte — the rendered alert sequence with
//! each alert's tenant, the counters, the calls still monitored and
//! `Snapshot::deterministic()` — except for this list:
//!
//! * **Telemetry.** With telemetry on, alerts carry their transition trace:
//!   against a run without it, traces are cleared. A trace is what the
//!   engine's bounded transition ring still holds, and an engine that
//!   holds fewer calls holds more of each, so two traced runs compare the
//!   tail their traces share. A plain `Vids` has no pool slab, so its
//!   snapshot is not compared.
//! * **Wire counts.** Only a wire shape has datagrams to count, so the
//!   pool slab's datagram, demux-miss and IPv6 counts are not compared;
//!   [`replay_checked`] checks the first two against the trace instead.
//! * **Rebalance.** `set_nodes` moves keys without moving state, and the
//!   rebuilt media index points at whichever engine kept a coordinate, so
//!   a rebalanced run differs from one that never rebalanced. It is
//!   compared with the same node path at one shard per node: which calls
//!   move depends on the nodes alone.
//! * **Batches are input, not placement.** A pool sweeps timers once per
//!   batch and a plain engine once per 100 ms of packets, so a plain `Vids`
//!   matches pools fed one datagram per batch, and on traffic with no timer
//!   due mid-batch (the curated and fuzzed traces) any batching; it replays
//!   the forced sweeps of [`schedule`]'s random batches.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::ops::Range;
use std::path::PathBuf;

use vids_cluster::{Cluster, ClusterAlert};
use vids_core::classify::{classify, demux, WireClass};
use vids_core::pool::PreRouted;
use vids_core::tenant::{TenantId, TenantMap};
use vids_core::{Alert, AlertSink, Config, CostModel, Vids, VidsCounters, VidsPool};
use vids_ingest::pcap::{PcapWriter, LINKTYPE_RAW};
use vids_ingest::record_tap::RecordTap;
use vids_ingest::replay::replay_pcap_parallel;
use vids_netsim::packet::{Address, Packet};
use vids_netsim::time::SimTime;
use vids_record::{replay_vdump, RecordedPacket, Recorder, RecorderStats, Vdump};
use vids_telemetry::{Counter, SlabSnapshot};

use crate::rng::XorShift64;

/// README's `tenants.conf`: the two parties of most calls sit under
/// different tenants' prefixes.
pub const README_TENANTS: &str = "tenant acme 10.1.0.0/16 invite_flood_n=5 max_calls=10000\n\
                                  tenant contoso 10.2.0.0/16 bye_dos_t_ms=500";

/// A map that gives the proxy its own tenant and nests a /24 inside a /8,
/// so a proxied call's legs and its media land in three tenants.
pub const PROXY_TENANTS: &str = "tenant lab 10.1.0.0/24 bye_dos_t_ms=500\n\
                                 tenant edge 10.3.0.0/16\n\
                                 tenant wide 10.0.0.0/8 invite_flood_n=5";

/// One way to deploy the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A plain `Vids`, one datagram at a time.
    Plain,
    /// `VidsPool::process_batch`.
    Pool { shards: usize },
    /// A `with_pipeline` session, one `submit` per batch, read quiesced
    /// halfway through.
    Pipeline { shards: usize },
    /// The trace rendered to pcap through `replay_pcap_parallel`.
    Replay { shards: usize, threads: usize },
    /// Replay with the flight recorder dumping every alert, at one and at
    /// `threads` classifier threads: both must leave the same recorder
    /// layout and dump bytes, and every dump must replay identically.
    Recorded { shards: usize, threads: usize },
    /// The `Cluster` shim over `nodes` node groups of `shards`.
    Cluster { shards: usize, nodes: usize },
    /// `process_batch` starting at `path[0]` nodes, rebalanced to
    /// `path[1]` and `path[2]` at the first and second third of the trace.
    Rebalance { shards: usize, path: [usize; 3] },
}

/// One cell of the matrix: a shape, a tenant map in `tenants.conf` syntax
/// (`None` is one tenant) and whether telemetry is on (ring of 64).
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub shape: Shape,
    pub tenants: Option<&'static str>,
    pub telemetry: bool,
}

impl Placement {
    pub fn tenants(mut self, tenants: &'static str) -> Self {
        self.tenants = Some(tenants);
        self
    }

    pub fn telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

fn at(shape: Shape) -> Placement {
    Placement {
        shape,
        tenants: None,
        telemetry: false,
    }
}

pub fn plain() -> Placement {
    at(Shape::Plain)
}

pub fn pool(shards: usize) -> Placement {
    at(Shape::Pool { shards })
}

pub fn pipeline(shards: usize) -> Placement {
    at(Shape::Pipeline { shards })
}

pub fn replay(shards: usize, threads: usize) -> Placement {
    at(Shape::Replay { shards, threads })
}

pub fn recorded(shards: usize, threads: usize) -> Placement {
    at(Shape::Recorded { shards, threads })
}

pub fn cluster(shards: usize, nodes: usize) -> Placement {
    at(Shape::Cluster { shards, nodes })
}

pub fn rebalance(shards: usize, path: [usize; 3]) -> Placement {
    at(Shape::Rebalance { shards, path })
}

/// What the flight recorder left behind: its stats, its window and every
/// dump written, as (file name, bytes), in writing order.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    pub stats: RecorderStats,
    pub window: Vec<RecordedPacket>,
    pub dumps: Vec<(String, Vec<u8>)>,
}

/// The canonical output of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Every alert, in sink order, with the tenant that raised it.
    pub alerts: Vec<(TenantId, Alert)>,
    pub counters: VidsCounters,
    /// Calls still monitored after the final sweep.
    pub calls: usize,
    /// The cost model's CPU charge, which every entry point makes alike.
    pub cpu_busy: SimTime,
    /// Whether alerts carry transition traces.
    pub traced: bool,
    /// `Snapshot::deterministic()`, for pools with telemetry on.
    pub telemetry: Option<SlabSnapshot>,
    /// For [`Shape::Recorded`].
    pub recording: Option<Recording>,
}

impl Output {
    pub fn has(&self, label: &str) -> bool {
        self.alerts.iter().any(|(_, a)| a.label == label)
    }

    /// Panics unless an alert with each of `labels` was raised.
    pub fn covers(&self, labels: &[&str]) {
        for label in labels {
            assert!(self.has(label), "no {label}: {:?}", self.alerts);
        }
    }

    /// The alerts without their tenants.
    pub fn untagged(&self) -> Vec<Alert> {
        self.alerts.iter().map(|(_, a)| a.clone()).collect()
    }
}

/// The sink of every run: alerts with their tenants.
#[derive(Default)]
struct Log(Vec<(TenantId, Alert)>);

impl AlertSink for Log {
    fn accept(&mut self, alert: Alert) {
        self.0.push((0, alert));
    }

    fn accept_from(&mut self, tenant: TenantId, alert: Alert) {
        self.0.push((tenant, alert));
    }
}

fn config(shards: usize) -> Config {
    Config::builder().shards(shards).build().unwrap()
}

fn tenant_map(p: &Placement, shards: usize) -> TenantMap {
    match p.tenants {
        Some(text) => TenantMap::parse(text, config(shards)).expect("valid tenant map"),
        None => TenantMap::single(config(shards)),
    }
}

/// The pool a placement runs on, before any traffic.
fn new_pool(p: &Placement, shards: usize) -> VidsPool {
    let mut pool = match p.tenants {
        Some(_) => VidsPool::with_tenants(tenant_map(p, shards), CostModel::default()),
        None => VidsPool::with_cost(config(shards), CostModel::default()),
    };
    if p.telemetry {
        pool.enable_telemetry(64);
    }
    pool
}

fn pool_output(pool: &VidsPool, log: Log, end: SimTime, traced: bool) -> Output {
    assert_eq!(pool.alerts_merged(), log.0.len() as u64, "merged != sunk");
    Output {
        alerts: log.0,
        counters: pool.counters(),
        calls: pool.monitored_calls(),
        cpu_busy: pool.cpu_busy(),
        traced,
        telemetry: pool.telemetry_snapshot(end).map(|s| s.deterministic()),
        recording: None,
    }
}

/// When every run ends: the replay's final sweep, `replay_grace` past the
/// last datagram.
fn end_of(trace: &[(Packet, SimTime)]) -> SimTime {
    trace.last().map_or(SimTime::ZERO, |(_, at)| *at) + Config::default().replay_grace
}

fn packets(chunk: &[(Packet, SimTime)]) -> Vec<Packet> {
    chunk.iter().map(|(p, _)| p.clone()).collect()
}

/// The batches `run` cuts a trace of `len` datagrams into, each with
/// whether a forced sweep follows it. A non-zero `batch` is that many
/// datagrams and no forced sweep. Zero draws sizes 1–32 from a fixed seed
/// and forces a sweep after one batch in five, at the batch's last time: a
/// schedule the plain engine replays too (the other shapes take only
/// non-zero sizes).
pub fn schedule(len: usize, batch: usize) -> Vec<(Range<usize>, bool)> {
    let mut rng = XorShift64::new(0x9E37_79B9_7F4A_7C15);
    let (mut out, mut start) = (Vec::new(), 0);
    while start < len {
        let end = len.min(start + if batch > 0 { batch } else { 1 + rng.below(32) });
        out.push((start..end, batch == 0 && rng.chance(5)));
        start = end;
    }
    out
}

/// Runs `trace` through one placement, `batch` datagrams per batch (see
/// [`schedule`] for zero).
pub fn run(trace: &[(Packet, SimTime)], batch: usize, p: &Placement) -> Output {
    let end = end_of(trace);
    let mut log = Log::default();
    let mut pool = match p.shape {
        Shape::Plain => {
            assert!(p.tenants.is_none(), "a plain engine has no tenants");
            let mut vids = Vids::with_cost(Config::default(), CostModel::default());
            if p.telemetry {
                vids.enable_telemetry(64);
            }
            for (range, sweep) in schedule(trace.len(), batch) {
                for (packet, at) in &trace[range.clone()] {
                    vids.process(packet, *at, &mut log);
                }
                if sweep {
                    vids.tick(trace[range.end - 1].1, &mut log);
                }
            }
            vids.tick(end, &mut log);
            return Output {
                alerts: log.0,
                counters: vids.counters(),
                calls: vids.monitored_calls(),
                cpu_busy: vids.cpu_busy(),
                traced: p.telemetry,
                telemetry: None,
                recording: None,
            };
        }
        Shape::Pool { shards } | Shape::Rebalance { shards, .. } => {
            let mut pool = new_pool(p, shards);
            let batches = schedule(trace.len(), batch);
            for (i, (range, sweep)) in batches.iter().enumerate() {
                if let Shape::Rebalance { path, .. } = p.shape {
                    for step in (0..3).filter(|step| i == batches.len() * step / 3) {
                        pool.set_nodes(path[step]);
                    }
                }
                let chunk = &trace[range.clone()];
                pool.process_batch(&packets(chunk), chunk[0].1, &mut log);
                if *sweep {
                    pool.tick(chunk[chunk.len() - 1].1, &mut log);
                }
            }
            pool
        }
        Shape::Pipeline { shards } => {
            let mut pool = new_pool(p, shards);
            let halfway = trace.len() / batch / 2;
            pool.with_pipeline(|session| {
                for (i, chunk) in trace.chunks(batch).enumerate() {
                    let routed = chunk
                        .iter()
                        .map(|(packet, at)| PreRouted::new(classify(packet), *at));
                    session.submit(&mut routed.collect(), chunk[0].1, &mut log);
                    if i == halfway {
                        // Reading the pool quiesced mid-session, as a dump
                        // does, must not disturb the epochs that follow.
                        session.flush(&mut log);
                        assert_eq!(session.in_flight(), 0);
                        session.pool();
                    }
                }
                session.flush(&mut log);
            });
            pool
        }
        Shape::Replay { shards, threads } => {
            let mut pool = new_pool(p, shards);
            let cap = pcap(trace, false, LINKTYPE_RAW);
            replay_checked(trace, cap, &mut pool, (batch, threads), None, &mut log);
            return pool_output(&pool, log, end, p.telemetry);
        }
        Shape::Recorded { shards, threads } => {
            let (out, seq) = record(trace, batch, p, shards, 1);
            let (_, par) = record(trace, batch, p, shards, threads);
            assert!(seq == par, "the thread count changed the recording");
            for (name, bytes) in &seq.dumps {
                let dump = Vdump::parse(bytes).expect("dump parses");
                assert_eq!(bytes, &dump.encode(), "{name} does not re-encode");
                let verdict = replay_vdump(&dump);
                assert!(verdict.identical(), "{name}: {verdict:?}");
            }
            let mut out = out;
            out.recording = Some(seq);
            return out;
        }
        Shape::Cluster { shards, nodes } => {
            let mut cluster =
                Cluster::with_cost(tenant_map(p, shards), nodes, CostModel::default());
            if p.telemetry {
                cluster.enable_telemetry(64);
            }
            for chunk in trace.chunks(batch) {
                cluster.process_packets(&packets(chunk), chunk[0].1, &mut log);
            }
            cluster.tick(end, &mut log);
            let tagged = |a: &ClusterAlert| (a.tenant, a.alert.clone());
            let kept: Vec<_> = cluster.alerts().iter().map(tagged).collect();
            assert_eq!(kept, log.0, "the shim's log differs from its sink");
            return pool_output(cluster.pool(), log, end, p.telemetry);
        }
    };
    pool.tick(end, &mut log);
    pool_output(&pool, log, end, p.telemetry)
}

/// Renders a trace to classic pcap bytes in either byte order and link
/// type.
pub fn pcap(trace: &[(Packet, SimTime)], swapped: bool, linktype: u32) -> Vec<u8> {
    let socket = |a: Address| SocketAddrV4::new(Ipv4Addr::from(a.ip), a.port);
    let mut w = PcapWriter::with_format(swapped, linktype);
    for (p, at) in trace {
        w.push_udp(*at, socket(p.src), socket(p.dst), p.payload.as_bytes());
    }
    w.into_bytes()
}

/// Replays `capture`, the rendering of `trace`, and checks the report: every
/// datagram decoded, each of the trace's payloads the demux calls unknown
/// counted, the capture clock ending at the trace's last time.
pub fn replay_checked<S: AlertSink + ?Sized>(
    trace: &[(Packet, SimTime)],
    capture: Vec<u8>,
    pool: &mut VidsPool,
    (batch, threads): (usize, usize),
    tap: Option<&mut RecordTap<'_>>,
    sink: &mut S,
) {
    let report = replay_pcap_parallel(capture, pool, batch, threads, None, tap, sink);
    let report = report.expect("replay");
    let unknown = |(p, _): &&(Packet, SimTime)| {
        demux(p.src.port, p.dst.port, p.payload.as_bytes()) == WireClass::Unknown
    };
    assert_eq!(report.datagrams as usize, trace.len());
    assert_eq!(
        report.demux_unknown as usize,
        trace.iter().filter(unknown).count(),
        "datagrams unknown to the demux"
    );
    assert_eq!(Some(report.last_at), trace.last().map(|(_, at)| *at));
}

/// A recorded replay dumping into a fresh directory.
fn record(
    trace: &[(Packet, SimTime)],
    batch: usize,
    p: &Placement,
    shards: usize,
    threads: usize,
) -> (Output, Recording) {
    let thread = std::thread::current().id();
    let dir = std::env::temp_dir().join(format!("vids-matrix-{}-{thread:?}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut pool = new_pool(p, shards);
    let rec = Recorder::with_defaults(1);
    let mut tap = RecordTap::new(&rec, Some(&dir));
    let mut log = Log::default();
    let cap = pcap(trace, false, LINKTYPE_RAW);
    replay_checked(
        trace,
        cap,
        &mut pool,
        (batch, threads),
        Some(&mut tap),
        &mut log,
    );
    let name = |path: &PathBuf| path.file_name().unwrap().to_string_lossy().into_owned();
    let dump = |path: &PathBuf| (name(path), std::fs::read(path).unwrap());
    let dumps = tap.written.iter().map(dump).collect();
    std::fs::remove_dir_all(&dir).ok();
    let recording = Recording {
        stats: rec.stats(),
        window: rec.window(),
        dumps,
    };
    (
        pool_output(&pool, log, end_of(trace), p.telemetry),
        recording,
    )
}

/// Compares `got` with `want` under the exceptions in the module docs;
/// `Err` says what differs.
pub fn compare(want: &Output, got: &Output) -> Result<(), String> {
    let (mut a, mut b) = (want.alerts.clone(), got.alerts.clone());
    let traced = want.traced && got.traced;
    for ((_, x), (_, y)) in a.iter_mut().zip(b.iter_mut()) {
        let shared = x.trace.len().min(y.trace.len());
        let keep = if traced { shared } else { 0 };
        x.trace.drain(..x.trace.len() - keep);
        y.trace.drain(..y.trace.len() - keep);
    }
    if let Some(at) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        let (x, y, n, m) = (a.get(at), b.get(at), a.len(), b.len());
        return Err(format!(
            "alert #{at} of {n} vs {m}:\n  want {x:?}\n  got  {y:?}"
        ));
    }
    let snapshots = want.telemetry.is_some() && got.telemetry.is_some();
    let canonical = |o: &Output| {
        let telemetry = o.telemetry.clone().filter(|_| snapshots).map(|mut s| {
            for c in [
                Counter::DatagramsRx,
                Counter::DemuxUnknown,
                Counter::DatagramsIpv6,
            ] {
                s.counters[c as usize] = 0;
            }
            s
        });
        (o.counters, o.calls, o.cpu_busy, telemetry)
    };
    let (want, got) = (canonical(want), canonical(got));
    if want != got {
        return Err(format!(
            "counters, calls, CPU, telemetry:\n  want {want:?}\n  got  {got:?}"
        ));
    }
    Ok(())
}

/// Runs every placement over `trace` at `batch` datagrams per batch and
/// requires each to match the first, except a rebalance, which must match
/// its own node path at one shard per node. Returns the first placement's
/// output.
pub fn check(trace: &[(Packet, SimTime)], batch: usize, placements: &[Placement]) -> Output {
    let first = placements[0];
    let reference = run(trace, batch, &first);
    let mut failures = Vec::new();
    for p in &placements[1..] {
        let own;
        let (want, against) = match p.shape {
            Shape::Rebalance { path, .. } => {
                let mut one = *p;
                one.shape = Shape::Rebalance { shards: 1, path };
                own = run(trace, batch, &one);
                (&own, one)
            }
            _ => (&reference, first),
        };
        if let Err(e) = compare(want, &run(trace, batch, p)) {
            failures.push(format!("{p:?} (batch {batch}) vs {against:?}: {e}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    reference
}

/// The full matrix for one tenant setting, reference first: the pool at
/// {1, 2, 3, 4, 5, 8} shards with telemetry and once without, the
/// pipeline, parallel replay, the recorder, the shim at three node layouts
/// and two rebalance paths.
pub fn matrix(tenants: Option<&'static str>) -> Vec<Placement> {
    let mut out: Vec<_> = [1, 2, 3, 4, 5, 8]
        .map(|shards| pool(shards).telemetry())
        .into();
    out.extend([pool(4), pipeline(3).telemetry()]);
    out.extend([replay(4, 1), replay(4, 2), recorded(2, 2).telemetry()]);
    out.extend([cluster(2, 3).telemetry(), cluster(1, 5), cluster(4, 2)]);
    out.extend([rebalance(2, [2, 3, 2]), rebalance(4, [3, 5, 1])]);
    out.iter_mut().for_each(|p| p.tenants = tenants);
    out
}
