//! The serve pipeline: receiver threads feeding the pipelined engine.
//!
//! Thread and ownership layout (one arrow = one bounded `std` channel):
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
//! epoch by epoch.
//!
//! Batches follow the traffic (`batch::flush_rule`): a receiver
//! hands its batch over as soon as a poll finds the socket drained, or
//! when the batch reaches `flush_packets` events. A trickle therefore
//! travels one datagram per batch and a burst in batches as large as the
//! burst. The hand-off holds at most 64 batches; while it
//! is full a receiver's batch keeps growing, and a full batch that still
//! finds no room is shed and counted in `datagrams_dropped`. After each
//! submit the coordinator merges every epoch the workers have already
//! finished ([`PipelineIngress::harvest_ready`]), so an alert waits for
//! its own epoch, not for a tick or a full ring. Batch `Vec`s cycle back to
//! the receivers through a recycle channel; steady state allocates nothing
//! per datagram.
//!
//! This is the only receiver/coordinator loop in the crate. A
//! tenant-mapped pool ([`VidsPool::with_tenants`], `vids serve --tenants`)
//! runs through it unchanged: tenants are engine groups of the one pool,
//! chosen on the coordinator, so the epoch ring and the flight recorder
//! cover them too.
//!
//! Shutdown: set the stop flag (the CLI wires SIGINT to
//! [`stop_flag_on_sigint`]). Receivers hand over their partial batch,
//! waiting for room if they must, and exit; the coordinator drains every
//! in-flight batch and epoch, runs one final timer tick, and returns.
//!
//! An optional [`RecordTap`] taps the pipeline for the flight recorder:
//! receivers mirror each datagram into their own lane of the shared
//! [`vids_record::Recorder`] (one uncontended per-lane lock per datagram)
//! and the coordinator dumps the captured window at tick boundaries for
//! any alerts raised since the previous tick. With
//! [`dump_flag_on_sigusr1`] wired into [`ServeOptions::snapshot_flag`],
//! `SIGUSR1` requests an on-demand `.vdump` of the live rings.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vids_core::config::Config;
use vids_core::pool::{PipelineIngress, PreRouted, VidsPool};
use vids_core::sink::AlertSink;
use vids_core::telemetry::{Counter, Gauge, Registry, ShardSlab};
use vids_netsim::time::SimTime;
use vids_record::Recorder;

use crate::batch::{flush_rule, Batcher, Flush};
use crate::demux::{classify_datagram, WireClass};
use crate::record_tap::{recorded_class, teed, RecordTap};
use crate::source::IngestError;
use crate::udp::{PoolMode, UdpPool, UdpSource};

/// How often an idle receiver refreshes its kernel-backlog reading.
const BACKLOG_EVERY: u32 = 64;

/// Batches the receiver → coordinator hand-off holds before receivers
/// start growing their batches and, once full, shedding them.
const HANDOFF_BATCHES: usize = 64;

/// The batch size a receiver hands over at while its socket stays busy,
/// and sheds at while the hand-off is full; an offline replay's too.
pub const FLUSH_PACKETS: usize = 256;
/// The longest one receiver read blocks: a batch's wait on a quiet socket.
pub const READ_TIMEOUT: Duration = Duration::from_millis(10);

/// Tuning for one serve session: the receiver count a pool's shards set,
/// plus wall-clock cadences the engine does not care about.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Receiver thread / socket count.
    pub receivers: usize,
    /// A receiver's batch is due at this many events even if its socket
    /// has not drained, and is shed at this size if the hand-off is full.
    pub flush_packets: usize,
    /// Upper bound on one blocking socket read. It bounds shutdown latency
    /// and how long a batch can wait after a poll that filled every slot.
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
    /// Serve tuning for a pool built on `config`: `shards` receivers,
    /// [`FLUSH_PACKETS`] and [`READ_TIMEOUT`].
    pub fn from_config(config: &Config) -> Self {
        ServeOptions {
            receivers: config.shards,
            flush_packets: FLUSH_PACKETS,
            read_timeout: READ_TIMEOUT,
            tick_interval: Duration::from_millis(100),
            snapshot_flag: None,
        }
    }
}

/// What a serve session did, reported after shutdown: the pool slab's
/// counts across the call, so a pool that serves twice reports each
/// session on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeReport {
    /// Datagrams received and classified.
    pub datagrams_rx: u64,
    /// Datagrams shed because their batch found the hand-off to the
    /// coordinator full, or the coordinator gone.
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

/// Runs the serve loop over an already-bound socket pool until `stop`
/// becomes true. Blocks the calling thread; alerts stream into `sink` in
/// deterministic merge order. The one serve loop: a receiver thread per
/// socket batching [`PreRouted`] events over a channel, the calling
/// thread as coordinator driving the pool's pipeline session. Receivers
/// count datagrams, demux misses, IPv6 drops, shed datagrams and their
/// socket backlog straight into the pool slab of [`VidsPool::registry`].
///
/// `telemetry` is redundant: receivers count into the pool's own
/// registry whether it is given or not. It is kept only for existing
/// callers (ROADMAP item 12 deletes it).
pub fn serve_on<S: AlertSink + ?Sized>(
    pool: &mut VidsPool,
    udp: UdpPool,
    opts: &ServeOptions,
    _telemetry: Option<&Registry>,
    stop: &AtomicBool,
    tap: Option<&mut RecordTap<'_>>,
    sink: &mut S,
) -> Result<ServeReport, IngestError> {
    let registry = Arc::clone(pool.registry());
    let slab = registry.pool();
    let before = slab.counts();
    let mode = udp.mode();
    let epoch = Instant::now();
    let sources = udp.into_sources(epoch, opts.read_timeout);
    debug_assert!(mode != PoolMode::Single || sources.len() == 1);
    // Both channels are bounded, so neither allocates per message. Every
    // recycled `Vec` is one a receiver handed over, so the recycle channel
    // fills only if the receivers stop taking buffers back; the coordinator
    // then frees the surplus instead of waiting.
    let (batch_tx, batch_rx) = mpsc::sync_channel::<Vec<PreRouted>>(HANDOFF_BATCHES);
    let (recycle_tx, recycle_rx) = mpsc::sync_channel::<Vec<PreRouted>>(HANDOFF_BATCHES);
    // A `Receiver` has one owner; the receiver threads share the recycle
    // side through a mutex (one lock per hand-off, not per datagram).
    let recycle_rx = Mutex::new(recycle_rx);

    // Receivers record into their own lane through the shared reference;
    // the coordinator keeps the tap for batch marks and dumps.
    let recorder: Option<&Recorder> = tap.as_deref().map(|t| t.recorder);

    let ended_at = pool.with_pipeline(|ingress| {
        std::thread::scope(|scope| {
            for (i, source) in sources.into_iter().enumerate() {
                let tx = batch_tx.clone();
                let recycle = &recycle_rx;
                let opts = *opts;
                scope.spawn(move || {
                    receiver_loop(source, i, tx, recycle, slab, &opts, stop, recorder)
                });
            }
            // The receivers hold the only senders now; `Disconnected` on the
            // batch channel therefore means every receiver has handed over its
            // last batch and exited.
            drop(batch_tx);

            coordinator_loop(ingress, &batch_rx, &recycle_tx, opts, epoch, tap, sink)
        })
    });
    let count = |c: Counter| slab.get(c) - before[c as usize];
    Ok(ServeReport {
        datagrams_rx: count(Counter::DatagramsRx),
        datagrams_dropped: count(Counter::DatagramsDropped),
        demux_unknown: count(Counter::DemuxUnknown),
        datagrams_ipv6: count(Counter::DatagramsIpv6),
        batches: count(Counter::BatchesIngested),
        ended_at,
    })
}

#[allow(clippy::too_many_arguments)]
fn receiver_loop(
    mut source: UdpSource,
    index: usize,
    tx: SyncSender<Vec<PreRouted>>,
    recycle: &Mutex<Receiver<Vec<PreRouted>>>,
    slab: &ShardSlab,
    opts: &ServeOptions,
    stop: &AtomicBool,
    recorder: Option<&Recorder>,
) {
    let mut batcher = Batcher::default();
    let slots = source.poll_slots();
    let mut polls: u32 = 0;
    // This receiver's share of the pool's socket-backlog gauge.
    let mut backlog = 0;
    while !stop.load(Ordering::Relaxed) {
        polls = polls.wrapping_add(1);
        if polls.is_multiple_of(BACKLOG_EVERY) {
            if let Some(b) = source.backlog_bytes() {
                slab.shift_gauge(Gauge::SocketBacklog, backlog, b);
                backlog = b;
            }
        }
        let polled = source.poll_batch(&mut |d| {
            // The receiver-side hot path: demux + classify + the shard
            // hashes (the receiver-side routing step, off the coordinator),
            // all allocation-free for media traffic, then one push into the
            // recycled batch.
            let (class, classified) = classify_datagram(&d);
            if let Some(rec) = recorder {
                rec.record(index, d.at, d.src, d.dst, recorded_class(class), d.payload);
            }
            slab.inc(Counter::DatagramsRx);
            if class == WireClass::Unknown {
                slab.inc(Counter::DemuxUnknown);
            } else if class == WireClass::Ipv6 {
                slab.inc(Counter::DatagramsIpv6);
            }
            batcher.push(PreRouted::new(classified, d.at));
        });
        // A socket error on one receiver retires that receiver; the rest
        // of the pool keeps serving.
        let Ok(polled) = polled else { break };
        let mut room = true;
        loop {
            match flush_rule(polled, slots, batcher.len(), opts.flush_packets, room) {
                Flush::Keep => break,
                Flush::Hand => {
                    let batch = batcher.take(|| recycled(recycle));
                    match tx.try_send(batch) {
                        Ok(()) => break,
                        // Ask the rule again, now knowing there is no room.
                        Err(TrySendError::Full(batch)) => {
                            batcher.restore(batch);
                            room = false;
                        }
                        Err(TrySendError::Disconnected(batch)) => {
                            slab.add(Counter::DatagramsDropped, batch.len() as u64);
                            break;
                        }
                    }
                }
                Flush::Shed => {
                    slab.add(Counter::DatagramsDropped, batcher.shed() as u64);
                    break;
                }
            }
        }
    }
    // The last batch waits for room: the coordinator drains until every
    // receiver has gone, so nothing is shed on the way out.
    if !batcher.is_empty() {
        let batch = batcher.take(|| recycled(recycle));
        let len = batch.len() as u64;
        if tx.send(batch).is_err() {
            slab.add(Counter::DatagramsDropped, len);
        }
    }
    slab.shift_gauge(Gauge::SocketBacklog, backlog, 0);
}

/// A batch buffer the coordinator has sent back, if one is waiting.
fn recycled<T>(recycle: &Mutex<Receiver<Vec<T>>>) -> Option<Vec<T>> {
    recycle
        .lock()
        .expect("the recycle lock is held only around try_recv, which does not panic")
        .try_recv()
        .ok()
}

/// Submits batches and ticks until every receiver has gone; returns the
/// time of the final tick.
fn coordinator_loop<S: AlertSink + ?Sized>(
    ingress: &mut PipelineIngress<'_, '_>,
    batch_rx: &Receiver<Vec<PreRouted>>,
    recycle_tx: &SyncSender<Vec<PreRouted>>,
    opts: &ServeOptions,
    epoch: Instant,
    mut tap: Option<&mut RecordTap<'_>>,
    sink: &mut S,
) -> SimTime {
    let mut last_tick = Instant::now();
    loop {
        match batch_rx.recv_timeout(opts.tick_interval) {
            Ok(mut events) => {
                // The batch clock is the batch's first receive time (not
                // the current wall clock): the engine clamps events up to
                // the clock, and a later clock would flatten the
                // intra-batch timing the window machines count on.
                let now = events.first().map_or_else(|| wall(epoch), |e| e.at);
                ingress.submit(&mut events, now, &mut teed(&mut tap, sink));
                // Whatever the workers have finished by now is merged at
                // once, so an alert waits for its own epoch only.
                ingress.harvest_ready(&mut teed(&mut tap, sink));
                if let Some(t) = &tap {
                    t.recorder.mark_batch();
                }
                let _ = recycle_tx.try_send(events);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = Instant::now();
        if now.duration_since(last_tick) >= opts.tick_interval {
            last_tick = now;
            // The tick leaves the engine quiescent — the only point where
            // dumps can read shard state without racing the workers.
            ingress.tick(wall(epoch), &mut teed(&mut tap, sink));
            if let Some(t) = tap.as_deref_mut() {
                t.dump_new(ingress.pool());
            }
        }
        if let Some(flag) = opts.snapshot_flag {
            // Swap-and-clear even with no recorder, so a stale request
            // does not fire the first dump of a later session.
            if flag.swap(false, Ordering::Relaxed)
                && tap.as_ref().is_some_and(|t| t.dump_dir.is_some())
            {
                ingress.flush(&mut teed(&mut tap, sink));
                if let Some(t) = tap.as_deref_mut() {
                    t.snapshot(ingress.pool(), wall(epoch));
                }
            }
        }
    }
    // All receivers flushed and exited; every batch has been submitted.
    // One final tick drains what is in flight and fires any pending timers.
    let ended_at = wall(epoch);
    ingress.tick(ended_at, &mut teed(&mut tap, sink));
    if let Some(t) = tap {
        t.dump_new(ingress.pool());
    }
    ended_at
}

fn wall(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
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
