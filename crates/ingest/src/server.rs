//! The serve pipeline: receiver threads feeding the pipelined engine.
//!
//! Thread and ownership layout (one arrow = one crossbeam channel):
//!
//! ```text
//!  socket 0 ── receiver thread 0 ──┐                  ┌── recycled Vecs
//!  socket 1 ── receiver thread 1 ──┤  Vec<PreRouted>  │
//!      ⋮              ⋮            ├──────────────────▼──► coordinator ──► shard
//!  socket N ── receiver thread N ──┘    (batches)         (caller's        workers
//!                                                          thread)        (epoch
//!                                                                          rings)
//! ```
//!
//! Receiver threads own their socket and scratch buffers, drain them with
//! batched reads ([`UdpSource::poll_batch`]), classify each datagram in
//! place and — the receiver-side routing step — compute its shard-routing
//! hashes ([`vids_core::pool::PreRouted::new`]) before batching. The
//! coordinator therefore never touches payload bytes: it runs only the
//! residual sequential pass (cost charge, clamp, media index) and
//! publishes each batch as an epoch on the pool's per-shard rings
//! ([`vids_core::pool::VidsPool::with_pipeline`]), where the session's shard
//! workers drain it concurrently with the next batch's arrival. Alerts
//! still reach the sink in the engine's deterministic merge order,
//! epoch by epoch. Batch `Vec`s cycle back to the receivers through a
//! recycle channel; steady state allocates nothing per datagram.
//!
//! This is the only receiver/coordinator loop in the crate: it is generic
//! over a small private engine trait ([`ServeEngine`]), and
//! [`crate::cluster_serve`] plugs a `Cluster` gateway into the same
//! threads, channels, flush policy and counters — there the engine fans
//! out across nodes itself and nothing is ever in flight.
//!
//! Shutdown: set the stop flag (the CLI wires SIGINT to
//! [`stop_flag_on_sigint`]). Receivers flush their partial batch and
//! exit; the coordinator drains every in-flight batch and epoch, runs one
//! final timer tick, and returns.
//!
//! An optional [`ServeRecorder`] taps the pipeline for the flight
//! recorder: receivers mirror each datagram into their own recorder lane
//! ([`vids_record::LaneRecorder`] — per-lane locks, no cross-receiver
//! contention) and the coordinator dumps the captured window at tick
//! boundaries for any alerts raised since the previous tick. With
//! [`dump_flag_on_sigusr1`] wired into [`ServeOptions::snapshot_flag`],
//! `SIGUSR1` requests an on-demand `.vdump` of the live rings.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel;
use vids_core::classify::Classified;
use vids_core::config::Config;
use vids_core::pool::{PipelineIngress, PreRouted, VidsPool};
use vids_core::sink::AlertSink;
use vids_core::telemetry::{Counter, Gauge, Registry, ShardSlab};
use vids_netsim::time::SimTime;
use vids_record::LaneRecorder;

use crate::batch::Batcher;
use crate::datagram::Datagram;
use crate::demux::{classify_datagram, WireClass};
use crate::record_tap::{recorded_class, ServeRecorder};
use crate::source::IngestError;
use crate::udp::{PoolMode, UdpPool, UdpSource};

/// How often an idle receiver refreshes its kernel-backlog reading.
const BACKLOG_EVERY: u32 = 64;

/// Tuning for one serve session, lifted from [`Config`]'s ingestion
/// knobs plus wall-clock cadences the engine does not care about.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Receiver thread / socket count.
    pub receivers: usize,
    /// Flush a receiver's batch at this many events.
    pub flush_packets: usize,
    /// Flush a receiver's batch once its oldest event is this old.
    pub flush_interval: Duration,
    /// Upper bound on one blocking socket read (bounds shutdown latency).
    pub read_timeout: Duration,
    /// How often the coordinator runs the engine's timer sweep while
    /// traffic is quiet.
    pub tick_interval: Duration,
    /// When set, a true value requests one on-demand snapshot dump of the
    /// recorder rings (then resets). Wire [`dump_flag_on_sigusr1`] here to
    /// trigger it with `kill -USR1`; ignored when no recorder is attached.
    pub snapshot_flag: Option<&'static AtomicBool>,
}

impl ServeOptions {
    /// Derives serve tuning from the engine config: `shards` receiver
    /// threads, the config's batch flush knobs, and cadences derived
    /// from the flush interval.
    pub fn from_config(config: &Config) -> Self {
        let flush = Duration::from_nanos(config.batch_flush_interval.as_nanos());
        ServeOptions {
            receivers: config.shards,
            flush_packets: config.batch_flush_packets,
            flush_interval: flush,
            read_timeout: flush.max(Duration::from_millis(1)),
            tick_interval: Duration::from_millis(100),
            snapshot_flag: None,
        }
    }
}

/// What a serve session did, reported after shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeReport {
    /// Datagrams received and classified.
    pub datagrams_rx: u64,
    /// Datagrams lost because a batch could not reach the coordinator.
    pub datagrams_dropped: u64,
    /// Datagrams that demultiplexed to [`WireClass::Unknown`].
    pub demux_unknown: u64,
    /// Plain-IPv6 datagrams dropped because the engine models IPv4 only.
    pub datagrams_ipv6: u64,
    /// Batches handed to the engine.
    pub batches: u64,
    /// The wall-clock time of the final tick, on the session's epoch.
    pub ended_at: SimTime,
}

/// Shared ingest-side counters, updated by receivers, read by the
/// coordinator (and mirrored into telemetry when enabled).
#[derive(Default)]
struct IngestStats {
    rx: AtomicU64,
    dropped: AtomicU64,
    unknown: AtomicU64,
    ipv6: AtomicU64,
    backlog: Vec<AtomicU64>,
}

/// What the one receiver/coordinator loop needs from the engine behind
/// it: how a receiver turns a classified datagram into the engine's event,
/// and how the coordinator feeds, ticks and observes it. Implemented for a
/// pipeline session over one pool (here) and for a
/// [`vids_cluster::Cluster`] gateway ([`crate::cluster_serve`]).
pub(crate) trait ServeEngine {
    /// The unit receivers batch and the coordinator submits.
    type Event: Send;

    /// Receiver side: stamps one classified datagram.
    fn event(classified: Classified, d: &Datagram<'_>) -> Self::Event;
    /// The event's receive time (the first one is the batch clock).
    fn at(event: &Self::Event) -> SimTime;
    /// Ingests one batch, draining `events`.
    fn submit<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<Self::Event>,
        now: SimTime,
        sink: &mut S,
    );
    /// Runs the timer sweep; afterwards nothing is in flight.
    fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S);
    /// Batches submitted but not yet merged.
    fn in_flight(&self) -> u64;
    /// Where the socket-side counters are mirrored, when telemetry is on.
    fn slab(&self) -> Option<&ShardSlab>;
    /// Quiesces the engine and lends the single pool the flight recorder
    /// dumps from; `None` for an engine the recorder does not cover.
    fn quiesced_pool<S: AlertSink + ?Sized>(&mut self, sink: &mut S) -> Option<&VidsPool>;
}

/// A pipeline session over one pool, plus the registry slab the caller of
/// [`serve_on`] asked the socket-side counters to be mirrored into.
struct Piped<'a, 'pool, 'sh> {
    ingress: &'a mut PipelineIngress<'pool, 'sh>,
    slab: Option<&'a ShardSlab>,
}

impl ServeEngine for Piped<'_, '_, '_> {
    type Event = PreRouted;

    fn event(classified: Classified, d: &Datagram<'_>) -> PreRouted {
        // The receiver-side routing step: the shard hashes are computed
        // here, off the coordinator.
        PreRouted::new(classified, d.at)
    }

    fn at(event: &PreRouted) -> SimTime {
        event.at
    }

    fn submit<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<PreRouted>,
        now: SimTime,
        sink: &mut S,
    ) {
        self.ingress.submit(events, now, sink);
    }

    fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        self.ingress.tick(now, sink);
    }

    fn in_flight(&self) -> u64 {
        self.ingress.in_flight()
    }

    fn slab(&self) -> Option<&ShardSlab> {
        self.slab
    }

    fn quiesced_pool<S: AlertSink + ?Sized>(&mut self, sink: &mut S) -> Option<&VidsPool> {
        self.ingress.flush(sink);
        Some(self.ingress.pool())
    }
}

/// Binds `opts.receivers` sockets to `listen` and runs the serve loop
/// until `stop` becomes true. Blocks the calling thread; alerts stream
/// into `sink` in deterministic merge order.
pub fn serve<S: AlertSink + ?Sized>(
    pool: &mut VidsPool,
    listen: std::net::SocketAddr,
    opts: &ServeOptions,
    telemetry: Option<&Registry>,
    stop: &AtomicBool,
    recorder: Option<&mut ServeRecorder<'_>>,
    sink: &mut S,
) -> Result<ServeReport, IngestError> {
    let udp = UdpPool::bind(listen, opts.receivers)?;
    serve_on(pool, udp, opts, telemetry, stop, recorder, sink)
}

/// [`serve`] over an already-bound socket pool — the entry point for
/// tests that need the resolved port before traffic starts.
pub fn serve_on<S: AlertSink + ?Sized>(
    pool: &mut VidsPool,
    udp: UdpPool,
    opts: &ServeOptions,
    telemetry: Option<&Registry>,
    stop: &AtomicBool,
    recorder: Option<&mut ServeRecorder<'_>>,
    sink: &mut S,
) -> Result<ServeReport, IngestError> {
    let slab = telemetry.map(Registry::pool);
    Ok(pool.with_pipeline(|ingress| {
        serve_engine(
            &mut Piped { ingress, slab },
            udp,
            opts,
            stop,
            recorder,
            sink,
        )
    }))
}

/// The one serve loop: a receiver thread per socket batching `E::Event`s
/// over a channel, the calling thread as coordinator driving `engine`.
pub(crate) fn serve_engine<E: ServeEngine, S: AlertSink + ?Sized>(
    engine: &mut E,
    udp: UdpPool,
    opts: &ServeOptions,
    stop: &AtomicBool,
    recorder: Option<&mut ServeRecorder<'_>>,
    sink: &mut S,
) -> ServeReport {
    let mode = udp.mode();
    let epoch = Instant::now();
    let sources = udp.into_sources(epoch, opts.read_timeout);
    debug_assert!(mode != PoolMode::Single || sources.len() == 1);

    let stats = IngestStats {
        backlog: (0..sources.len()).map(|_| AtomicU64::new(0)).collect(),
        ..Default::default()
    };
    let (batch_tx, batch_rx) = channel::unbounded::<Vec<E::Event>>();
    let (recycle_tx, recycle_rx) = channel::unbounded::<Vec<E::Event>>();
    // The vendored channel's receiver is single-consumer; the recycle
    // side is shared across receiver threads through a mutex (one lock
    // per batch flush, not per datagram).
    let recycle_rx = std::sync::Mutex::new(recycle_rx);

    // Split the recorder: receivers record into their own lane through
    // the shared reference, the coordinator additionally knows the dump
    // directory; written paths and write failures are folded back after
    // the scope ends.
    let lane_rec: Option<&LaneRecorder> = recorder.as_ref().map(|r| r.recorder);
    let dump_dir: Option<&Path> = recorder.as_ref().and_then(|r| r.dump_dir);
    let mut dump_log = DumpLog::default();

    let report = std::thread::scope(|scope| {
        for (i, source) in sources.into_iter().enumerate() {
            let tx = batch_tx.clone();
            let recycle = &recycle_rx;
            let stats = &stats;
            let opts = *opts;
            scope.spawn(move || {
                receiver_loop::<E>(source, i, tx, recycle, stats, &opts, stop, lane_rec)
            });
        }
        // The receivers hold the only senders now; `Disconnected` on the
        // batch channel therefore means every receiver has flushed and
        // exited.
        drop(batch_tx);

        coordinator_loop(
            engine,
            &batch_rx,
            &recycle_tx,
            &stats,
            opts,
            epoch,
            lane_rec.map(|rec| (rec, dump_dir)),
            &mut dump_log,
            sink,
        )
    });
    if let Some(r) = recorder {
        r.written.extend(dump_log.written);
        r.io_errors += dump_log.io_errors;
    }
    report
}

/// Dump outcomes the coordinator accumulates during a session.
#[derive(Default)]
struct DumpLog {
    written: Vec<PathBuf>,
    io_errors: u64,
}

#[allow(clippy::too_many_arguments)]
fn receiver_loop<E: ServeEngine>(
    mut source: UdpSource,
    index: usize,
    tx: channel::Sender<Vec<E::Event>>,
    recycle: &std::sync::Mutex<channel::Receiver<Vec<E::Event>>>,
    stats: &IngestStats,
    opts: &ServeOptions,
    stop: &AtomicBool,
    recorder: Option<&LaneRecorder>,
) {
    let mut batcher = Batcher::new(opts.flush_packets, opts.flush_interval.as_nanos() as u64);
    let mut polls: u32 = 0;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        polls = polls.wrapping_add(1);
        if polls.is_multiple_of(BACKLOG_EVERY) {
            if let Some(b) = source.backlog_bytes() {
                stats.backlog[index].store(b, Ordering::Relaxed);
            }
        }
        let mut due = false;
        let polled = source.poll_batch(&mut |d| {
            // The receiver-side hot path: demux + classify + the engine's
            // event stamp, all allocation-free for media traffic, then one
            // push into the preallocated batch.
            let (class, classified) = classify_datagram(&d);
            if let Some(rec) = recorder {
                rec.record(index, d.at, d.src, d.dst, recorded_class(class), d.payload);
            }
            stats.rx.fetch_add(1, Ordering::Relaxed);
            if class == WireClass::Unknown {
                stats.unknown.fetch_add(1, Ordering::Relaxed);
            } else if class == WireClass::Ipv6 {
                stats.ipv6.fetch_add(1, Ordering::Relaxed);
            }
            due |= batcher.push(E::event(classified, &d));
        });
        match polled {
            Ok(0) => due = batcher.overdue(Instant::now()),
            Ok(_) => {}
            // A socket error on one receiver retires that receiver; the
            // rest of the pool keeps serving.
            Err(_) => break,
        }
        if due {
            flush(&mut batcher, &tx, recycle, stats);
        }
    }
    if !batcher.is_empty() {
        flush(&mut batcher, &tx, recycle, stats);
    }
    stats.backlog[index].store(0, Ordering::Relaxed);
}

fn flush<T>(
    batcher: &mut Batcher<T>,
    tx: &channel::Sender<Vec<T>>,
    recycle: &std::sync::Mutex<channel::Receiver<Vec<T>>>,
    stats: &IngestStats,
) {
    let spare = recycle
        .lock()
        .map(|rx| rx.try_recv().unwrap_or_default())
        .unwrap_or_default();
    let batch = batcher.take(spare);
    let len = batch.len() as u64;
    if tx.send(batch).is_err() {
        stats.dropped.fetch_add(len, Ordering::Relaxed);
    }
}

#[allow(clippy::too_many_arguments)]
fn coordinator_loop<E: ServeEngine, S: AlertSink + ?Sized>(
    engine: &mut E,
    batch_rx: &channel::Receiver<Vec<E::Event>>,
    recycle_tx: &channel::Sender<Vec<E::Event>>,
    stats: &IngestStats,
    opts: &ServeOptions,
    epoch: Instant,
    recorder: Option<(&LaneRecorder, Option<&Path>)>,
    dump_log: &mut DumpLog,
    sink: &mut S,
) -> ServeReport {
    let mut batches = 0u64;
    let mut published = ServeReport::default();
    let mut last_tick = Instant::now();
    // Alerts already considered for dumping (index into `pool.alerts()`).
    let mut alerts_dumped = 0usize;
    loop {
        match batch_rx.recv_timeout(opts.tick_interval) {
            Ok(mut events) => {
                // The batch clock is the batch's first receive time (not
                // the current wall clock): the engine clamps events up to
                // the clock, and a later clock would flatten the
                // intra-batch timing the window machines count on.
                let now = events.first().map(E::at).unwrap_or_else(|| wall(epoch));
                engine.submit(&mut events, now, sink);
                if let Some((rec, _)) = recorder {
                    rec.mark_batch();
                }
                batches += 1;
                let _ = recycle_tx.send(events);
            }
            Err(channel::RecvTimeoutError::Timeout) => {}
            Err(channel::RecvTimeoutError::Disconnected) => break,
        }
        let now = Instant::now();
        if now.duration_since(last_tick) >= opts.tick_interval {
            last_tick = now;
            // The tick leaves the engine quiescent — the only point where
            // dumps can read shard state without racing the workers.
            engine.tick(wall(epoch), sink);
            dump_new_alerts(engine, recorder, &mut alerts_dumped, dump_log, sink);
        }
        if let Some(flag) = opts.snapshot_flag {
            // Swap-and-clear even with no recorder, so a stale request
            // does not fire the first dump of a later session.
            if flag.swap(false, Ordering::Relaxed) {
                if let Some((rec, Some(dir))) = recorder {
                    if let Some(pool) = engine.quiesced_pool(sink) {
                        match rec.dump_snapshot(pool, dir, wall(epoch)) {
                            Ok(Some(path)) => dump_log.written.push(path),
                            Ok(None) => {} // dump cap reached
                            Err(_) => dump_log.io_errors += 1,
                        }
                    }
                }
            }
        }
        publish(
            stats,
            engine.slab(),
            batches,
            &mut published,
            engine.in_flight(),
        );
    }
    // All receivers flushed and exited; every batch has been submitted.
    // One final tick drains what is in flight and fires any pending timers.
    let ended_at = wall(epoch);
    engine.tick(ended_at, sink);
    dump_new_alerts(engine, recorder, &mut alerts_dumped, dump_log, sink);
    publish(stats, engine.slab(), batches, &mut published, 0);
    ServeReport {
        ended_at,
        ..published
    }
}

/// Dumps the window for any alerts raised since the last quiesce point.
/// Called right after a tick, so quiescing again is free. A failed dump
/// write is counted, not fatal.
fn dump_new_alerts<E: ServeEngine, S: AlertSink + ?Sized>(
    engine: &mut E,
    recorder: Option<(&LaneRecorder, Option<&Path>)>,
    alerts_dumped: &mut usize,
    dump_log: &mut DumpLog,
    sink: &mut S,
) {
    let Some((rec, dir)) = recorder else { return };
    let Some(pool) = engine.quiesced_pool(sink) else {
        return;
    };
    let alerts = pool.alerts();
    if alerts.len() <= *alerts_dumped {
        return;
    }
    if let Some(dir) = dir {
        for a in &alerts[*alerts_dumped..] {
            rec.note_alert(a);
        }
        match rec.dump_pending(pool, dir) {
            Ok(paths) => dump_log.written.extend(paths),
            Err(_) => dump_log.io_errors += 1,
        }
    }
    *alerts_dumped = alerts.len();
}

fn wall(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// Mirrors the ingest-side counters into the engine's telemetry slab as
/// deltas, so its `datagrams_rx` / `demux_unknown` / `datagrams_dropped`
/// counters and the `socket_backlog` gauge stay current.
fn publish(
    stats: &IngestStats,
    slab: Option<&ShardSlab>,
    batches: u64,
    published: &mut ServeReport,
    in_flight: u64,
) {
    let now = ServeReport {
        datagrams_rx: stats.rx.load(Ordering::Relaxed),
        datagrams_dropped: stats.dropped.load(Ordering::Relaxed),
        demux_unknown: stats.unknown.load(Ordering::Relaxed),
        datagrams_ipv6: stats.ipv6.load(Ordering::Relaxed),
        batches,
        ended_at: published.ended_at,
    };
    if let Some(slab) = slab {
        slab.add(
            Counter::DatagramsRx,
            now.datagrams_rx - published.datagrams_rx,
        );
        slab.add(
            Counter::DatagramsDropped,
            now.datagrams_dropped - published.datagrams_dropped,
        );
        slab.add(
            Counter::DemuxUnknown,
            now.demux_unknown - published.demux_unknown,
        );
        slab.add(
            Counter::DatagramsIpv6,
            now.datagrams_ipv6 - published.datagrams_ipv6,
        );
        let backlog: u64 = stats
            .backlog
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        slab.set_gauge(Gauge::SocketBacklog, backlog);
        slab.set_gauge(Gauge::PipelineDepth, in_flight);
    }
    *published = now;
}

/// `SIGINT` is 2 on every Unix.
const SIGINT: Option<i32> = if cfg!(unix) { Some(2) } else { None };

/// `SIGUSR1` is not portable: 10 on Linux, 30 on macOS and the BSDs (where
/// 10 is `SIGBUS`), and left un-wired where this crate does not know it.
const SIGUSR1: Option<i32> = if cfg!(any(target_os = "linux", target_os = "android")) {
    Some(10)
} else if cfg!(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
)) {
    Some(30)
} else {
    None
};

/// Installs a handler for `sig` that sets `flag`; a no-op for a signal the
/// target does not have. Safe to call more than once; the last flag
/// registered for a signal wins.
fn flag_on_signal(sig: Option<i32>, flag: &'static AtomicBool) {
    #[cfg(unix)]
    if let Some(sig) = sig {
        use std::sync::atomic::AtomicPtr;

        /// The flag each signal number raises, written before its handler
        /// is installed.
        static FLAGS: [AtomicPtr<AtomicBool>; 32] =
            [const { AtomicPtr::new(std::ptr::null_mut()) }; 32];

        extern "C" fn raise(sig: i32) {
            let flag = FLAGS[sig as usize].load(Ordering::Acquire);
            // SAFETY: the only non-null pointers ever stored come from
            // `&'static AtomicBool`s.
            if let Some(flag) = unsafe { flag.as_ref() } {
                flag.store(true, Ordering::Relaxed);
            }
        }
        extern "C" {
            fn signal(sig: i32, handler: extern "C" fn(i32)) -> usize;
        }
        FLAGS[sig as usize].store(std::ptr::from_ref(flag).cast_mut(), Ordering::Release);
        // SAFETY: the handler only loads and stores atomics, which is
        // async-signal-safe, and is installed after its table entry is
        // set.
        unsafe {
            signal(sig, raise);
        }
    }
    #[cfg(not(unix))]
    let _ = (sig, flag);
}

/// Installs a SIGINT handler that sets a process-wide stop flag, and
/// returns the flag. Safe to call more than once. On non-Unix targets
/// the flag is returned un-wired (Ctrl-C terminates the process).
pub fn stop_flag_on_sigint() -> &'static AtomicBool {
    static STOP: AtomicBool = AtomicBool::new(false);
    flag_on_signal(SIGINT, &STOP);
    &STOP
}

/// Installs a SIGUSR1 handler that sets a process-wide snapshot-request
/// flag, and returns the flag; wire it into
/// [`ServeOptions::snapshot_flag`] so `kill -USR1 $(pidof vids)` dumps
/// the live recorder rings as a `.vdump`. Safe to call more than once.
/// On targets whose `SIGUSR1` number this crate does not know the flag is
/// returned un-wired.
pub fn dump_flag_on_sigusr1() -> &'static AtomicBool {
    static DUMP: AtomicBool = AtomicBool::new(false);
    flag_on_signal(SIGUSR1, &DUMP);
    &DUMP
}
