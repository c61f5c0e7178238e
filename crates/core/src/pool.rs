//! [`VidsPool`]: the scale-out analysis engine.
//!
//! The paper's engine (§5) is strictly per-call: every packet belongs to one
//! call group (SIP by Call-ID, RTP by the media coordinates the SIP machine
//! published) and each group's machines are independent of every other
//! group's. That independence is exactly a sharding invariant, so the pool
//! hash-partitions the fact base across `Config::shards` private [`Vids`]
//! engines:
//!
//! * **SIP call traffic** is pinned to `hash(Call-ID) % shards`.
//! * **RTP** is routed through a pool-owned media-coordinate → shard index
//!   that mirrors the per-shard `FactBase::media_lookup` table, so a call's
//!   media always lands on the shard holding its SIP machine — the δ-sync
//!   channels never cross a shard boundary.
//! * **Per-destination flood machines** (INVITE flood, DRDoS reflection) are
//!   pinned by `hash(dst_ip)`, and **registration machines** by
//!   `hash(address-of-record)`.
//!
//! Ingestion is batch-oriented, and every entry point is the same pass over
//! one private routing core (`route_pass`): at most one idle-timer sweep
//! per batch (the single engine re-checks the interval on every packet),
//! then — per datagram, in packet order, the only globally ordered step —
//! the cost charge, the monotonic clock clamp, and `route_one`, which pins
//! each protocol-role part to its shard. Shard output is merged on a
//! deterministic key — `(packet index, phase, sweep scope, emission seq)` —
//! so the alert sequence is byte-identical whatever the shard count,
//! including a 1-shard pool vs. a plain [`Vids`].
//!
//! Synchronous calls ([`VidsPool::process_batch`],
//! [`VidsPool::process_wire_batch`], the federated trio) ingest each routed
//! part in place on the calling thread; a pool spawns no thread at
//! construction. The one threaded runtime is the **epoch ring** of a
//! [`VidsPool::with_pipeline`] session: receiver threads pre-compute each
//! datagram's routing hashes ([`route_hint`], carried by [`PreRouted`]),
//! [`PipelineIngress::submit`] runs the same core but *queues* the routed
//! parts, and publishes each batch as an *epoch* into per-shard bounded
//! rings drained by one scoped worker per shard — the coordinator overlaps
//! routing batch `k+1` with the shards draining batch `k`. Alerts merge in
//! epoch order on the same key, so the output is byte-identical to calling
//! [`VidsPool::process_wire_batch`] with the same batches. The ring's
//! decisions live in the [`lane`] seam, which the `vids-harness` model
//! checker drives through every interleaving; see DESIGN.md §7a.

use std::any::Any;
use std::cell::UnsafeCell;
use std::cmp::Ordering;
use std::collections::{HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use vids_efsm::{sym, Event, Sym};
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;
use vids_scan::fxhash::FxHashMap;
use vids_telemetry::{Counter, Gauge, HistId, Registry, Snapshot};

use crate::alert::{Alert, AlertKind};
use crate::classify::{classify, Classified};
use crate::config::Config;
use crate::cost::{CostModel, CpuAccount};
use crate::engine::{Vids, VidsCounters, SWEEP_INTERVAL_MS};
use crate::factbase::FactBaseStats;
use crate::monitor::Monitor;
use crate::sink::AlertSink;

/// Merge key: (packet index, phase, sweep scope, per-sink emission seq).
///
/// Phases order the parts of one packet the way the single engine would have
/// emitted them: 0 = batch-start sweep (before any packet), 1 = the
/// destination-pinned INVITE-flood part, 2 = the call/register/media part,
/// 3 = the deferred DRDoS reflection count for an unassociated response.
/// The scope is only populated for sweep alerts (phase 0), where different
/// calls' alerts share one key prefix and the single engine sweeps calls in
/// sorted-Call-ID order. It is an interned symbol, not a `String`: tagging
/// an alert never allocates, and the merge compares 4-byte ids' *text*
/// (interner ids depend on arrival order, which varies with shard count).
type MergeKey = (usize, u8, Sym, u32);

/// One shard-pinned routed part, stamped with packet index and clamped time.
type Routed = (usize, u64, Part);

/// FNV-1a: a fixed, platform-independent hash so call→shard placement is
/// deterministic (std's `RandomState` would randomize it per process).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Shard placement for a pre-computed key hash. `hash % 1 == 0`, so this
/// agrees with `VidsPool::shard_of`'s single-shard short-circuit too.
#[inline]
fn shard_from_hash(hash: u64, shards: usize) -> usize {
    if shards == 1 {
        0
    } else {
        (hash % shards as u64) as usize
    }
}

/// A sink that tags every alert with the merge key of the part being drained.
struct TaggedSink<'a> {
    out: &'a mut Vec<FedAlert>,
    idx: usize,
    phase: u8,
    /// Sweep mode: scope alerts by their Call-ID so the merge reproduces the
    /// single engine's sorted sweep order across shards.
    scope_from_call: bool,
    seq: u32,
}

impl<'a> TaggedSink<'a> {
    fn packet(out: &'a mut Vec<FedAlert>, idx: usize, phase: u8) -> Self {
        TaggedSink {
            out,
            idx,
            phase,
            scope_from_call: false,
            seq: 0,
        }
    }

    fn sweep(out: &'a mut Vec<FedAlert>) -> Self {
        TaggedSink {
            out,
            idx: 0,
            phase: 0,
            scope_from_call: true,
            seq: 0,
        }
    }
}

impl AlertSink for TaggedSink<'_> {
    fn accept(&mut self, alert: Alert) {
        let scope = if self.scope_from_call {
            // The Call-ID names a monitored call, so it is already interned
            // and `lookup` never allocates (nor grows the interner).
            alert
                .call_id
                .as_deref()
                .and_then(Sym::lookup)
                .unwrap_or(sym::EMPTY)
        } else {
            sym::EMPTY
        };
        let key = (self.idx, self.phase, scope, self.seq);
        self.out.push(FedAlert { key, alert });
        self.seq += 1;
    }
}

/// One classified datagram plus its receive timestamp, produced by the
/// wire-ingestion layer and consumed by [`VidsPool::process_wire_batch`].
/// The receive timestamp plays the role `Packet::sent_at` plays on the
/// in-process path: it feeds the monotonic per-packet clock that drives
/// the timer sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    /// What the classifier made of the datagram.
    pub classified: Classified,
    /// When the datagram was received.
    pub at: SimTime,
}

/// The shard-routing hashes of one classified datagram, pre-computed on a
/// receiver thread so the pipeline coordinator's sequential pass does no
/// hashing. Pure FNV-1a over the same key bytes `route_one` would hash, so
/// `hash % shards` lands on exactly the shard `shard_of` would pick for any
/// shard count. Constructed only by [`route_hint`], keeping the two in
/// lock-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteHint {
    /// Hash of the call-pinned key: the address-of-record for REGISTER, the
    /// Call-ID for other SIP, the media-coordinate fallback for RTP.
    call: u64,
    /// Hash of the destination IP, for the per-destination flood machines.
    /// Zero (unused) for everything but non-REGISTER SIP.
    flood: u64,
}

/// One classified datagram with its receiver-side routing hashes, the unit
/// of work receivers hand to a [`PipelineIngress`] session.
#[derive(Debug, Clone, PartialEq)]
pub struct PreRouted {
    /// What the classifier made of the datagram.
    pub classified: Classified,
    /// When the datagram was received.
    pub at: SimTime,
    hint: RouteHint,
}

impl PreRouted {
    /// Stamps a classified datagram with its routing hashes. Allocation-free
    /// once the classifier has interned the datagram's symbols.
    pub fn new(classified: Classified, at: SimTime) -> Self {
        let hint = route_hint(&classified);
        PreRouted {
            classified,
            at,
            hint,
        }
    }
}

/// Computes the shard-routing hashes for one classified datagram — the
/// receiver-side half of routing. Everything that needs *global* state
/// (media-index probes and inserts, the monotonic clamp, the malformed
/// dedup) stays on the coordinator; the hint carries only pure per-packet
/// hashes.
pub fn route_hint(c: &Classified) -> RouteHint {
    match c {
        Classified::Sip {
            call_id,
            event,
            dst_ip,
            ..
        } => {
            if event.name == sym::SIP_REGISTER {
                let aor = event.str_arg("aor").unwrap_or("");
                RouteHint {
                    call: fnv1a(aor.as_bytes()),
                    flood: 0,
                }
            } else {
                RouteHint {
                    call: fnv1a(call_id.as_str().as_bytes()),
                    flood: fnv1a(&dst_ip.to_le_bytes()),
                }
            }
        }
        // Used only when no call negotiated these coordinates, which the
        // coordinator decides at its media-index probe.
        Classified::Rtp { event } => RouteHint {
            call: media_hash(event),
            flood: 0,
        },
        Classified::Malformed { .. } | Classified::Ignored => RouteHint::default(),
    }
}

/// The media-coordinate fallback hash: where RTP that no call negotiated is
/// routed, so any shard count flags the same packet as unassociated exactly
/// once.
fn media_hash(event: &Event) -> u64 {
    let ip = event.sym_arg(sym::DST_IP).unwrap_or_default();
    let port = event.uint_arg(sym::DST_PORT).unwrap_or(0);
    let mut h = fnv1a(ip.as_str().as_bytes());
    for byte in port.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl RouteHint {
    /// The call-pinned key hash: address-of-record for REGISTER, Call-ID
    /// for other SIP, the media-coordinate fallback for RTP. A cluster
    /// gateway uses the same hash the pool shards by to pick the owning
    /// *node* (rendezvous over this value), so moving between one pool and
    /// a federation never re-keys anything.
    pub fn call_hash(&self) -> u64 {
        self.call
    }

    /// The destination-IP hash feeding the per-destination flood machines;
    /// zero (unused) for everything but non-REGISTER SIP.
    pub fn flood_hash(&self) -> u64 {
        self.flood
    }
}

/// The pool's key hash (FNV-1a), public for layers that must agree with
/// shard/node placement — e.g. a cluster gateway hashing a DRDoS miss's
/// destination IP exactly as [`route_hint`] would have.
pub fn key_hash(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// Which protocol-role parts of one classified datagram a federation
/// member ingests. A single SIP INVITE has a call-pinned part (the per-call
/// machine) and a destination-pinned part (the INVITE-flood machine); a
/// cluster gateway may place those on different nodes, sending the same
/// event to both with complementary masks. The union of masks across nodes
/// is exactly one full ingest, so a federation reproduces the single
/// pool's work with nothing counted twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartMask {
    /// Ingest the call/register/media part (also malformed/ignored
    /// accounting — the gateway routes those to exactly one node).
    pub call: bool,
    /// Ingest the destination-pinned INVITE-flood part.
    pub flood: bool,
}

impl PartMask {
    /// Both parts — what every non-federated path does.
    pub const ALL: PartMask = PartMask {
        call: true,
        flood: true,
    };
}

/// One classified datagram as a federation member receives it from the
/// gateway: pre-clamped time, *global* packet index, and the part mask.
#[derive(Debug, Clone, PartialEq)]
pub struct FedEvent {
    /// What the classifier made of the datagram.
    pub classified: Classified,
    /// The packet clock, already clamped monotonic by the gateway across
    /// the global batch order — so every node's view of packet time agrees
    /// with the single pool's sequential routing pass.
    pub t_ms: u64,
    /// The datagram's index in the gateway's global batch. Merge keys are
    /// built on this, which is what makes alerts from different nodes
    /// interleave exactly as one pool would have emitted them.
    pub idx: usize,
    /// Which parts of the event this pool owns.
    pub mask: PartMask,
}

/// A key-tagged alert: what every shard drain produces, and what a
/// federated batch exports. The key is the pool's deterministic merge key —
/// built on the *global* packet index on the federated path — so sorting
/// with [`FedAlert::merge_order`] yields the single engine's byte-identical
/// alert sequence whether the alerts came from the shards of one pool or
/// from every node of a cluster.
#[derive(Debug, Clone)]
pub struct FedAlert {
    key: MergeKey,
    /// The alert itself.
    pub alert: Alert,
}

impl FedAlert {
    /// The deterministic merge order — `(packet idx, phase, scope text,
    /// emission seq)`. The scope symbol must be compared by its string —
    /// see [`MergeKey`].
    pub fn merge_order(a: &FedAlert, b: &FedAlert) -> Ordering {
        let (ai, ap, a_scope, a_seq) = &a.key;
        let (bi, bp, b_scope, b_seq) = &b.key;
        (ai, ap, a_scope.as_str(), a_seq).cmp(&(bi, bp, b_scope.as_str(), b_seq))
    }
}

/// An unassociated SIP response detected on the call-owning shard, to be
/// counted on whichever shard — or, in a federation, whichever member —
/// owns the destination IP: the deferred DRDoS phase. Inside one pool the
/// misses of a batch are applied after the drain in packet order; a cluster
/// gateway sorts all nodes' misses by `idx` and feeds each to
/// [`VidsPool::apply_federated_misses`] on the owning node.
#[derive(Debug, Clone, Copy)]
pub struct FedMiss {
    /// Global packet index of the response.
    pub idx: usize,
    /// Its clamped packet time.
    pub t_ms: u64,
    /// Destination IP the miss counts against; hash with [`key_hash`] over
    /// `dst_ip.to_le_bytes()` to pick the owning node.
    pub dst_ip: u32,
    src_ip: Sym,
}

/// What one federation member produced for one global batch.
#[derive(Debug, Default)]
pub struct FedOutput {
    /// Key-tagged alerts, unsorted; the gateway merges across nodes.
    pub alerts: Vec<FedAlert>,
    /// DRDoS misses for the gateway to route to their destination owners.
    pub misses: Vec<FedMiss>,
}

/// One classified datagram as the routing core takes it, whichever entry
/// point it came through.
struct CoreEvent {
    /// What the merge keys are built on: the position in the batch, or the
    /// gateway's global index.
    idx: usize,
    classified: Classified,
    /// Receive time, to be clamped monotonic.
    at_ms: u64,
    /// Receiver-computed routing hashes, when a receiver computed them.
    hint: Option<RouteHint>,
    mask: PartMask,
}

impl CoreEvent {
    /// Every part of the datagram at position `idx` of a self-contained
    /// batch — what each non-federated entry point feeds the core.
    fn whole(idx: usize, classified: Classified, at: SimTime, hint: Option<RouteHint>) -> Self {
        CoreEvent {
            idx,
            classified,
            at_ms: at.as_millis(),
            hint,
            mask: PartMask::ALL,
        }
    }
}

/// Who keeps the batch-level books around a pass of the routing core.
#[derive(Clone, Copy)]
enum Books {
    /// This pool: batch telemetry and the sweep count are recorded here.
    Pool,
    /// A cluster gateway, which records them exactly once per *global*
    /// batch so the merged cluster snapshot equals the single pool's.
    Gateway,
}

/// One shard-pinned part of a routed packet.
enum Part {
    Register(Event),
    /// The Fig. 4 window counter reads no argument of the INVITE, so its
    /// part is the destination alone (the time rides beside every part).
    InviteFlood {
        dst_ip: u32,
    },
    Call {
        call_id: Sym,
        event: Event,
        is_initial_invite: bool,
        is_request: bool,
        dst_ip: u32,
    },
    Rtp(Event),
}

/// The sharded analysis engine. Construct with a [`Config`] whose `shards`
/// field (see [`Config::builder`]) says how many independent [`Vids`]
/// engines to partition monitored calls across, then feed traffic in
/// batches via [`VidsPool::process_batch`] — or packet-at-a-time through
/// the [`Monitor`] trait, which behaves identically to a plain `Vids`.
pub struct VidsPool {
    shards: Vec<Vids>,
    /// Read-mostly mirror of every shard's media index: negotiated media
    /// coordinates → owning shard. Written only during sequential routing;
    /// probed per RTP packet, so the key is an interned symbol and the probe
    /// never allocates. Not maintained for single-shard pools, which route
    /// everything to shard 0 without hashing.
    media_to_shard: FxHashMap<(Sym, u64), usize>,
    config: Config,
    cost: CostModel,
    cpu: CpuAccount,
    alerts: Vec<Alert>,
    /// Dedup for pool-level (shardless) alerts, i.e. malformed traffic:
    /// `(reason, protocol)`, both static, so asking costs no allocation.
    dedup: HashSet<(&'static str, &'static str)>,
    /// Counters for traffic that never reaches a shard.
    extra: VidsCounters,
    last_sweep_ms: u64,
    /// Monotonic clamp over packet timestamps: EFSM networks require
    /// non-decreasing time, so a late-stamped packet is processed at the
    /// batch high-water mark, exactly as a single engine would see it.
    last_packet_ms: u64,
    /// Telemetry registry when enabled: one slab per shard (wired into the
    /// shard engines) plus a pool-level slab for batch/merge metrics.
    telemetry: Option<Arc<Registry>>,
    /// Reusable per-shard routing queues, filled only by a pipeline
    /// session. Their capacity shuttles between here and the ring slots (a
    /// publish swaps `Vec`s), so steady-state routing allocates nothing.
    queues: Vec<Vec<Routed>>,
    /// Reusable merge buffer of key-tagged alerts for the current batch.
    scratch_tagged: Vec<FedAlert>,
    /// Reusable buffer of deferred DRDoS response misses.
    scratch_misses: Vec<FedMiss>,
}

impl VidsPool {
    /// Creates a pool with `config.shards` shards and the default cost model.
    pub fn new(config: Config) -> Self {
        VidsPool::with_cost(config, CostModel::default())
    }

    /// Creates a pool with an explicit cost model. The pool charges the
    /// per-packet CPU cost once, centrally, at routing time; shard-internal
    /// accounting stays zero. Spawns no thread: the only threads a pool
    /// ever runs are the scoped workers of a [`VidsPool::with_pipeline`]
    /// session.
    pub fn with_cost(config: Config, cost: CostModel) -> Self {
        let n = config.shards.max(1);
        VidsPool {
            shards: (0..n).map(|_| Vids::with_cost(config, cost)).collect(),
            media_to_shard: FxHashMap::default(),
            config,
            cost,
            cpu: CpuAccount::new(),
            alerts: Vec::new(),
            dedup: HashSet::new(),
            extra: VidsCounters::default(),
            last_sweep_ms: 0,
            last_packet_ms: 0,
            telemetry: None,
            queues: (0..n).map(|_| Vec::new()).collect(),
            scratch_tagged: Vec::new(),
            scratch_misses: Vec::new(),
        }
    }

    /// Enables telemetry: allocates a [`Registry`] with one slab per shard
    /// plus a pool slab, attaches each shard engine to its slab (with a
    /// transition ring of `ring_capacity` records per shard), and returns
    /// the registry. Call before feeding traffic; recording from then on is
    /// allocation-free.
    pub fn enable_telemetry(&mut self, ring_capacity: usize) -> Arc<Registry> {
        let registry = Arc::new(Registry::new(self.shards.len()));
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.attach_telemetry(registry.shard_slab(i), ring_capacity);
        }
        self.telemetry = Some(Arc::clone(&registry));
        registry
    }

    /// A snapshot of the pool's registry at monitor time `now`, when
    /// telemetry is enabled. Refreshes the per-shard gauges (live calls,
    /// fact-base memory) and the pool slab's routing-index memory gauge
    /// before copying.
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<Snapshot> {
        let registry = self.telemetry.as_ref()?;
        for shard in &self.shards {
            shard.refresh_telemetry_gauges();
        }
        let index_bytes: usize = self
            .media_to_shard
            .keys()
            .map(|(ip, _)| ip.as_str().len() + std::mem::size_of::<((Sym, u64), usize)>())
            .sum();
        registry
            .pool()
            .set_gauge(Gauge::MemoryBytes, index_bytes as u64);
        Some(registry.snapshot(now.as_millis()))
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's engine, for introspection.
    pub fn shard(&self, index: usize) -> &Vids {
        &self.shards[index]
    }

    /// Freezes the EFSM state of one monitored call, whichever shard owns
    /// it. See [`Vids::call_snapshot`].
    pub fn call_snapshot(&self, call_id: &str) -> Option<crate::snapshot::CallSnapshot> {
        self.shards.iter().find_map(|s| s.call_snapshot(call_id))
    }

    /// Every alert raised so far, in deterministic merge order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Aggregate traffic counters across all shards.
    pub fn counters(&self) -> VidsCounters {
        let mut total = self.extra;
        for shard in &self.shards {
            total += shard.counters();
        }
        total
    }

    /// Calls currently monitored, summed across shards.
    pub fn monitored_calls(&self) -> usize {
        self.shards.iter().map(Vids::monitored_calls).sum()
    }

    /// Aggregate fact-base lifetime statistics. `peak_concurrent` is the sum
    /// of per-shard peaks — an upper bound on the true pool-wide peak, since
    /// the shards need not have peaked simultaneously.
    pub fn factbase_stats(&self) -> FactBaseStats {
        let mut total = FactBaseStats::default();
        for shard in &self.shards {
            let s = shard.factbase_stats();
            total.calls_created += s.calls_created;
            total.calls_evicted += s.calls_evicted;
            total.peak_concurrent += s.peak_concurrent;
        }
        total
    }

    /// Fact-base memory footprint summed across shards, plus the pool's own
    /// media routing index.
    pub fn memory_bytes(&self) -> usize {
        let shard_bytes: usize = self.shards.iter().map(Vids::memory_bytes).sum();
        shard_bytes + crate::factbase::index_bytes(&self.media_to_shard)
    }

    /// CPU busy time accumulated by the central cost account.
    pub fn cpu_busy(&self) -> SimTime {
        self.cpu.busy()
    }

    /// CPU overhead fraction over an elapsed monitoring interval (§7.3).
    pub fn cpu_overhead(&self, elapsed: SimTime) -> f64 {
        self.cpu.overhead_fraction(elapsed)
    }

    /// Which shard currently owns the given media coordinates, if any call
    /// negotiated them. Exposed for tests of cross-shard RTP routing.
    pub fn media_shard(&self, ip: &str, port: u64) -> Option<usize> {
        let ip = Sym::lookup(ip)?;
        self.media_to_shard.get(&(ip, port)).copied()
    }

    /// Processes a batch of packets, pushing alerts into `sink` (they are
    /// also appended to the persistent log readable via
    /// [`VidsPool::alerts`]). Classifies each packet, then takes exactly
    /// the wire path: [`CostModel::cpu_for`] and
    /// [`CostModel::cpu_for_classified`] charge the same, so the two calls
    /// differ only in who ran the classifier.
    pub fn process_batch<S: AlertSink + ?Sized>(
        &mut self,
        packets: &[Packet],
        now: SimTime,
        sink: &mut S,
    ) {
        let events = packets
            .iter()
            .enumerate()
            .map(|(idx, p)| CoreEvent::whole(idx, classify(p), p.sent_at, None));
        self.ingest_inline(events, now, sink);
    }

    /// Processes a batch of wire-classified datagrams, pushing alerts into
    /// `sink`. This is the live-ingestion twin of [`VidsPool::process_batch`]:
    /// the receiver threads already classified each datagram straight off
    /// the socket buffer ([`crate::classify::classify_wire`]). The events
    /// are drained out of `events`, leaving its capacity to be recycled by
    /// the caller.
    ///
    /// Given the same traffic, alerts and counters are byte-identical to
    /// the in-process path — the replay differential tests enforce it.
    pub fn process_wire_batch<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<WireEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        let events = events
            .drain(..)
            .enumerate()
            .map(|(idx, ev)| CoreEvent::whole(idx, ev.classified, ev.at, None));
        self.ingest_inline(events, now, sink);
    }

    /// Every self-contained synchronous batch: one in-place pass of the
    /// routing core, the deferred DRDoS counts, the merge.
    fn ingest_inline<S: AlertSink + ?Sized>(
        &mut self,
        events: impl ExactSizeIterator<Item = CoreEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        let mut tagged = std::mem::take(&mut self.scratch_tagged);
        let mut misses = std::mem::take(&mut self.scratch_misses);
        self.route_pass(
            events,
            now.as_millis(),
            Books::Pool,
            None,
            &mut tagged,
            &mut misses,
        );
        // Deferred DRDoS reflection counting. The call-owning shard only
        // *detects* the miss; the count belongs to the destination's shard.
        // In-place ingestion found the misses in packet order, and they are
        // delivered with their original packet times.
        self.apply_misses(&misses, &mut tagged);
        misses.clear();
        self.scratch_misses = misses;
        self.merge_into(&mut tagged, sink);
        self.scratch_tagged = tagged;
    }

    /// Processes this member's share of one *global* batch in a cluster
    /// federation. The cluster gateway splits each classified datagram
    /// into its protocol-role parts, routes each part to the owning node
    /// ([`PartMask`]), pre-clamps timestamps across the global batch order,
    /// and calls this on every node with the same `now` — empty shares
    /// included, so the sweep-interval clock stays in lock-step and sweeps
    /// fire on every node at the same instant, exactly as one pool's
    /// single sweep would have covered all calls.
    ///
    /// Differences from [`VidsPool::process_wire_batch`], all of them the
    /// gateway's job instead:
    ///
    /// * batch-level telemetry (`BatchesIngested`, `PacketsIngested`,
    ///   `BatchSize`, `TimerSweeps`, merge timing) is *not* recorded here —
    ///   the gateway records it exactly once per global batch, so the
    ///   merged cluster snapshot equals the single pool's;
    /// * alerts are returned key-tagged ([`FedAlert`]) instead of sunk and
    ///   logged — the gateway merges across nodes with
    ///   [`FedAlert::merge_order`] and keeps the cluster-wide log;
    /// * DRDoS misses are exported ([`FedMiss`]) instead of self-applied —
    ///   the destination-owning pool may be another node.
    pub fn process_federated_batch(
        &mut self,
        events: &mut Vec<FedEvent>,
        now: SimTime,
    ) -> FedOutput {
        let mut out = FedOutput::default();
        let events = events.drain(..).map(|ev| CoreEvent {
            idx: ev.idx,
            classified: ev.classified,
            at_ms: ev.t_ms,
            hint: None,
            mask: ev.mask,
        });
        self.route_pass(
            events,
            now.as_millis(),
            Books::Gateway,
            None,
            &mut out.alerts,
            &mut out.misses,
        );
        out
    }

    /// Applies DRDoS misses this pool's destinations own — the federated
    /// spelling of the deferred counting phase of the synchronous batch
    /// calls. The gateway must pass misses in ascending global `idx`
    /// order, merged across every node that exported some.
    pub fn apply_federated_misses(&mut self, misses: &[FedMiss]) -> Vec<FedAlert> {
        let mut tagged = Vec::new();
        self.apply_misses(misses, &mut tagged);
        tagged
    }

    /// The federated spelling of [`VidsPool::tick`]: advances idle timers
    /// and evicts finished calls, returning key-tagged alerts for the
    /// gateway's cluster-wide merge instead of sinking and logging them.
    /// The gateway calls this on every node with the same `now` and counts
    /// the sweep once.
    pub fn federated_tick(&mut self, now: SimTime) -> Vec<FedAlert> {
        let mut tagged = Vec::new();
        if now.as_millis() >= SWEEP_INTERVAL_MS {
            self.sweep(now.as_millis(), Books::Gateway, &mut tagged);
        }
        tagged
    }

    /// Advances idle timers and evicts finished calls on every shard,
    /// pushing timer-driven alerts into `sink` in deterministic order.
    pub fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        let mut tagged = std::mem::take(&mut self.scratch_tagged);
        // Mirror Vids::tick's interval gate from time zero.
        if now.as_millis() >= SWEEP_INTERVAL_MS {
            self.sweep(now.as_millis(), Books::Pool, &mut tagged);
        }
        self.merge_into(&mut tagged, sink);
        self.scratch_tagged = tagged;
    }

    /// Whether any call on any shard currently has these media coordinates
    /// negotiated. A cluster gateway uses this to expire entries of its
    /// node-level media routing index, exactly as the pool expires its own
    /// shard-level index after each sweep.
    pub fn media_negotiated(&self, ip: &str, port: u64) -> bool {
        let Some(ip) = Sym::lookup(ip) else {
            return false;
        };
        self.shards
            .iter()
            .any(|s| s.factbase().media_lookup(ip, port).is_some())
    }

    /// Whether a batch clocked at `now_ms` opens with an idle-timer sweep.
    fn sweep_due(&self, now_ms: u64) -> bool {
        now_ms.saturating_sub(self.last_sweep_ms) >= SWEEP_INTERVAL_MS
    }

    /// The one routing core behind every entry point. Phases, in order:
    ///
    /// 0. batch telemetry, and at most one idle-timer sweep per batch (the
    ///    single engine re-checks the interval on every packet; the pool
    ///    amortizes that to one pass here, keyed ahead of every packet);
    /// 1. per datagram, in packet order — the only globally ordered step —
    ///    the cost-model charge and the monotonic clock clamp;
    /// 2. [`VidsPool::route_one`]: one routed part per protocol role, each
    ///    ingested in place (`queues` is `None`: every synchronous call,
    ///    filling `tagged` and `misses`) or queued for its shard's ring
    ///    lane (`Some`: a pipeline session, whose workers fill the slots'
    ///    own buffers instead).
    ///
    /// What happens to `tagged` and `misses` afterwards — apply and merge,
    /// export to a gateway, or park until the epoch is harvested — is the
    /// caller's, as is quiescing a pipeline before a due sweep.
    fn route_pass(
        &mut self,
        events: impl ExactSizeIterator<Item = CoreEvent>,
        now_ms: u64,
        books: Books,
        mut queues: Option<&mut [Vec<Routed>]>,
        tagged: &mut Vec<FedAlert>,
        misses: &mut Vec<FedMiss>,
    ) {
        if let (Books::Pool, Some(reg)) = (books, &self.telemetry) {
            let len = events.len() as u64;
            reg.pool().inc(Counter::BatchesIngested);
            reg.pool().add(Counter::PacketsIngested, len);
            reg.pool().record(HistId::BatchSize, len);
        }
        if self.sweep_due(now_ms) {
            self.sweep(now_ms, books, tagged);
        }
        for ev in events {
            // The cost model charges by what the datagram claimed to be,
            // and with the call part only: a SIP INVITE a gateway split
            // across two nodes costs the federation what it costs one pool.
            if ev.mask.call {
                self.cpu
                    .charge(self.cost.cpu_for_classified(&ev.classified));
            }
            // A no-op on times a gateway already clamped across the global
            // batch order (they are ≥ `now_ms` and ≥ every earlier one).
            let t = now_ms.max(ev.at_ms).max(self.last_packet_ms);
            self.last_packet_ms = t;
            self.route_one(ev, t, queues.as_deref_mut(), tagged, misses);
        }
    }

    /// Phase 2 of the core: assigns one routed part per protocol role,
    /// publishes media coordinates to the routing index, and consumes
    /// malformed/ignored traffic (it has no call, destination or media key
    /// to shard by).
    ///
    /// Each part goes onto its shard's queue when the caller has queues (a
    /// pipeline session: the engines belong to the ring workers while
    /// epochs are in flight) and straight into the shard engine otherwise.
    /// Per-shard event order is identical either way — routing is the
    /// sequential packet-order pass — and the merge keys make the final
    /// alert order independent of the choice.
    ///
    /// `ev.hint` carries the FNV-1a key hashes pre-computed on a receiver
    /// thread ([`route_hint`]); without one the hashes are computed here,
    /// lazily. Both spellings place every part on the same shard.
    /// `ev.mask` selects which protocol-role parts to ingest — always
    /// [`PartMask::ALL`] except on the federated path, where the gateway
    /// may have placed a packet's call and flood parts on different nodes.
    fn route_one(
        &mut self,
        ev: CoreEvent,
        t: u64,
        mut queues: Option<&mut [Vec<Routed>]>,
        tagged: &mut Vec<FedAlert>,
        misses: &mut Vec<FedMiss>,
    ) {
        let n = self.shards.len();
        let CoreEvent {
            idx, hint, mask, ..
        } = ev;
        let mut place = |shards: &mut [Vids], shard: usize, part: Part| match &mut queues {
            Some(queues) => queues[shard].push((idx, t, part)),
            None => ingest_part(&mut shards[shard], idx, t, part, tagged, misses),
        };
        match ev.classified {
            Classified::Sip {
                call_id,
                event,
                is_initial_invite,
                is_request,
                dst_ip,
            } => {
                if event.name == sym::SIP_REGISTER {
                    if !mask.call {
                        return;
                    }
                    let shard = match hint {
                        Some(h) => shard_from_hash(h.call, n),
                        None => {
                            let aor = event.str_arg("aor").unwrap_or("");
                            self.shard_of(aor.as_bytes())
                        }
                    };
                    place(&mut self.shards, shard, Part::Register(event));
                    return;
                }
                if mask.flood && event.name == sym::SIP_INVITE {
                    let flood_shard = match hint {
                        Some(h) => shard_from_hash(h.flood, n),
                        None => self.shard_of(&dst_ip.to_le_bytes()),
                    };
                    place(&mut self.shards, flood_shard, Part::InviteFlood { dst_ip });
                }
                if !mask.call {
                    return;
                }
                let shard = match hint {
                    Some(h) => shard_from_hash(h.call, n),
                    None => self.shard_of(call_id.as_str().as_bytes()),
                };
                if n > 1 && event.bool_arg("has_sdp") {
                    if let (Some(ip), Some(port)) =
                        (event.sym_arg(sym::SDP_IP), event.uint_arg(sym::SDP_PORT))
                    {
                        self.media_to_shard.insert((ip, port), shard);
                    }
                }
                let part = Part::Call {
                    call_id,
                    event,
                    is_initial_invite,
                    is_request,
                    dst_ip,
                };
                place(&mut self.shards, shard, part);
            }
            Classified::Rtp { event } if mask.call => {
                let shard = if n == 1 {
                    0
                } else {
                    let ip = event.sym_arg(sym::DST_IP).unwrap_or_default();
                    let port = event.uint_arg(sym::DST_PORT).unwrap_or(0);
                    self.media_to_shard
                        .get(&(ip, port))
                        .copied()
                        .unwrap_or_else(|| {
                            // No call negotiated these coordinates: route by
                            // their hash so any shard count flags the same
                            // packet as unassociated exactly once.
                            let hash = hint.map_or_else(|| media_hash(&event), |h| h.call);
                            shard_from_hash(hash, n)
                        })
                };
                place(&mut self.shards, shard, Part::Rtp(event));
            }
            Classified::Malformed { protocol, reason } if mask.call => {
                self.extra.malformed += 1;
                if let Some(reg) = &self.telemetry {
                    reg.pool().inc(Counter::Malformed);
                }
                self.pool_raise(tagged, idx, t, protocol, reason);
            }
            Classified::Ignored if mask.call => {
                self.extra.ignored += 1;
                if let Some(reg) = &self.telemetry {
                    reg.pool().inc(Counter::Ignored);
                }
            }
            // Parts this pool does not own (federated mask excludes them).
            Classified::Rtp { .. } | Classified::Malformed { .. } | Classified::Ignored => {}
        }
    }

    /// The deferred DRDoS phase: counts each unassociated response on the
    /// shard owning its destination IP. `misses` must be in packet order —
    /// the flood networks need non-decreasing time.
    fn apply_misses(&mut self, misses: &[FedMiss], tagged: &mut Vec<FedAlert>) {
        for miss in misses {
            let shard = self.shard_of(&miss.dst_ip.to_le_bytes());
            count_miss(&mut self.shards[shard], miss, tagged);
        }
    }

    /// The merge, and the epilogue of every path that emits: sorts the
    /// batch's (or epoch's) key-tagged alerts, appends them to the log and
    /// hands them to `sink`, leaving `tagged` empty. The key makes this
    /// order independent of shard count and thread scheduling.
    fn merge_into<S: AlertSink + ?Sized>(&mut self, tagged: &mut Vec<FedAlert>, sink: &mut S) {
        let merge_started = self.telemetry.as_ref().map(|_| Instant::now());
        tagged.sort_unstable_by(FedAlert::merge_order);
        for fed in tagged.drain(..) {
            self.alerts.push(fed.alert.clone());
            sink.accept(fed.alert);
        }
        if let (Some(reg), Some(started)) = (&self.telemetry, merge_started) {
            let nanos = started.elapsed().as_nanos() as u64;
            reg.pool().add(Counter::MergeNanos, nanos);
            reg.pool().record(HistId::MergeNanos, nanos);
        }
    }

    fn shard_of(&self, bytes: &[u8]) -> usize {
        if self.shards.len() == 1 {
            return 0; // don't hash what can only land on shard 0
        }
        shard_from_hash(fnv1a(bytes), self.shards.len())
    }

    /// Pool-level alert for malformed traffic, with the single engine's
    /// dedup semantics for call-less alerts (scope = detail text). A repeat
    /// — the cheapest thing an attacker can send — returns before anything
    /// is formatted or allocated.
    fn pool_raise(
        &mut self,
        tagged: &mut Vec<FedAlert>,
        idx: usize,
        t: u64,
        protocol: &'static str,
        reason: &'static str,
    ) {
        if !self.dedup.insert((reason, protocol)) {
            return;
        }
        if let Some(reg) = &self.telemetry {
            reg.pool().inc(Counter::AlertsDeviation);
        }
        let alert = Alert {
            time_ms: t,
            kind: AlertKind::Deviation,
            label: format!("malformed-{}", protocol.to_ascii_lowercase()),
            call_id: None,
            machine: "classifier".to_owned(),
            detail: reason.to_owned(),
            trace: Vec::new(),
        };
        let key = (idx, 2, sym::EMPTY, 0);
        tagged.push(FedAlert { key, alert });
    }

    /// One idle-timer sweep of every shard at `now_ms`, on the calling
    /// thread (sweeps are interval-gated and O(expiring) on the shards'
    /// time wheels); a pipeline session quiesces its ring first. Alerts are
    /// tagged ahead of every packet of the batch and scoped by Call-ID.
    fn sweep(&mut self, now_ms: u64, books: Books, tagged: &mut Vec<FedAlert>) {
        self.last_sweep_ms = now_ms;
        // Counted once, on the pool slab: per-shard force_maintain does not
        // count, so the total is the same whatever the shard count.
        if let (Books::Pool, Some(reg)) = (books, &self.telemetry) {
            reg.pool().inc(Counter::TimerSweeps);
        }
        for shard in &mut self.shards {
            let mut sink = TaggedSink::sweep(tagged);
            shard.force_maintain(now_ms, &mut sink);
        }
        // Drop routing entries for media the shards just evicted, keeping
        // the pool index in lock-step with the per-shard media indexes.
        // Single-shard pools never populate the index, so there is nothing
        // to keep in step.
        if self.shards.len() > 1 {
            let shards = &self.shards;
            self.media_to_shard.retain(|(ip, port), shard| {
                shards[*shard].factbase().media_lookup(*ip, *port).is_some()
            });
        }
    }

    /// Runs `f` with a pipelined ingest session: one dedicated worker
    /// thread per shard, fed through per-shard bounded epoch rings. Inside
    /// the closure, [`PipelineIngress::submit`] publishes pre-routed
    /// batches without waiting for the shards to drain them — the
    /// coordinator's sequential routing pass for batch `k+1` overlaps the
    /// shard drains of batch `k`, up to [`EPOCH_RING_DEPTH`] batches deep.
    ///
    /// Output is byte-identical to feeding the same batches through
    /// [`VidsPool::process_wire_batch`]: alerts merge per epoch on the same
    /// deterministic key, cross-shard DRDoS misses apply in packet order,
    /// and sweeps run on the same batch-clock rule. Workers are joined when
    /// the closure returns (or unwinds); anything left unflushed is merged
    /// into the pool's alert log on the way out.
    pub fn with_pipeline<R>(&mut self, f: impl FnOnce(&mut PipelineIngress<'_, '_>) -> R) -> R {
        let n = self.shards.len();
        let shared = PipelineShared {
            lanes: (0..n).map(|_| Lane::new()).collect(),
            engines: AtomicUsize::new(self.shards.as_mut_ptr() as usize),
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            panic_epoch: AtomicU64::new(u64::MAX),
        };
        thread::scope(|scope| {
            // Workers exit once `stop` is set and every published epoch is
            // processed. The guard sets it and joins them even when `f`
            // unwinds, so no session thread outlives this call.
            let mut session = SessionGuard {
                shared: &shared,
                workers: Vec::with_capacity(n),
            };
            for i in 0..n {
                let shared = &shared;
                let worker = thread::Builder::new()
                    .name(format!("vids-pipe-{i}"))
                    .spawn_scoped(scope, move || pipeline_worker(shared, i))
                    .expect("spawn pipeline worker");
                session.workers.push(worker);
            }
            let mut ingress = PipelineIngress {
                pool: self,
                shared: &shared,
                next_epoch: 0,
                harvested: 0,
                coord: VecDeque::new(),
                spare: Vec::new(),
                refresh_engines: false,
            };
            let result = f(&mut ingress);
            // Merge whatever the caller left in flight so the engines and
            // the pool's alert log end consistent. Drivers flush (tick)
            // before returning, so their sink missed nothing.
            ingress.flush(&mut crate::sink::NullSink);
            result
        })
    }
}

/// Delivers one routed part to its shard engine, tagging every alert with
/// its merge key. Shared by the in-place routing pass and the ring workers'
/// queue drain; per-shard order is the same under both because routing is
/// the sequential packet-order pass.
fn ingest_part(
    vids: &mut Vids,
    idx: usize,
    t: u64,
    part: Part,
    alerts: &mut Vec<FedAlert>,
    misses: &mut Vec<FedMiss>,
) {
    match part {
        Part::Register(event) => {
            let mut sink = TaggedSink::packet(alerts, idx, 2);
            vids.ingest_register(event, t, &mut sink);
        }
        Part::InviteFlood { dst_ip } => {
            let mut sink = TaggedSink::packet(alerts, idx, 1);
            vids.ingest_invite_flood(dst_ip, t, &mut sink);
        }
        Part::Call {
            call_id,
            event,
            is_initial_invite,
            is_request,
            dst_ip,
        } => {
            let mut sink = TaggedSink::packet(alerts, idx, 2);
            if let Some(miss) =
                vids.ingest_call_event(call_id, event, is_initial_invite, is_request, t, &mut sink)
            {
                misses.push(FedMiss {
                    idx,
                    t_ms: t,
                    dst_ip,
                    src_ip: miss.src_ip,
                });
            }
        }
        Part::Rtp(event) => {
            let mut sink = TaggedSink::packet(alerts, idx, 2);
            vids.ingest_rtp(event, t, &mut sink);
        }
    }
}

/// Counts one unassociated response on the engine owning its destination:
/// the deferred DRDoS phase (merge phase 3) for one miss.
fn count_miss(engine: &mut Vids, miss: &FedMiss, tagged: &mut Vec<FedAlert>) {
    let mut sink = TaggedSink::packet(tagged, miss.idx, 3);
    engine.ingest_response_flood(miss.dst_ip, miss.src_ip, miss.t_ms, &mut sink);
}

/// The epoch ring's decisions as pure functions of the lane counters, split
/// out so the `vids-harness` exhaustive interleaving checker exercises
/// *these* definitions, not a transcription that could drift from the code:
/// the ring worker and the coordinator's `submit`/harvest call them
/// verbatim. Hidden: this is a verification seam, not API.
///
/// A lane carries three monotone epoch counts — `tail` (published),
/// `drained` (queue consumed, miss list frozen) and `applied` (finished) —
/// and slot `epoch % depth` has a single owner at every instant: the
/// coordinator until `tail` passes `epoch` and again once `applied` has, the
/// lane's worker in between, with the slot's miss list read-shared by every
/// worker from `drained` until the harvest.
#[doc(hidden)]
pub mod lane {
    /// What a waiting thread does after looking at the counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Step {
        /// The awaited condition holds: proceed.
        Go,
        /// The session is being torn down: stop waiting and leave.
        Quit,
        /// Neither yet: back off and look again.
        Wait,
    }

    /// The ring slot an epoch lives in.
    #[inline]
    pub fn slot(epoch: u64, depth: u64) -> usize {
        (epoch % depth) as usize
    }

    /// The coordinator may publish epoch `next` iff fewer than `depth`
    /// epochs are unharvested — the slot's previous tenant, epoch
    /// `next - depth`, has been harvested and is the coordinator's again.
    #[inline]
    pub fn may_publish(next: u64, harvested: u64, depth: u64) -> bool {
        next - harvested < depth
    }

    /// A worker waiting for `epoch`: it may drain iff `tail > epoch`. A
    /// poisoned session winds down at once; `stop` is honored only while
    /// nothing is published, so a published epoch is always completed and
    /// the coordinator can flush deterministically before shutting down.
    #[inline]
    pub fn worker_observe(poisoned: bool, tail: u64, stop: bool, epoch: u64) -> Step {
        if poisoned {
            Step::Quit
        } else if tail > epoch {
            Step::Go
        } else if stop {
            Step::Quit
        } else {
            Step::Wait
        }
    }

    /// A worker at the cross-lane barrier of `epoch`, looking at one peer:
    /// the peer's miss list is frozen and readable iff its `drained >
    /// epoch`. `torn_down` — a peer died, or the coordinator abandoned the
    /// session mid-epoch — means the peer may never get there.
    #[inline]
    pub fn barrier_observe(peer_drained: u64, epoch: u64, torn_down: bool) -> Step {
        if peer_drained > epoch {
            Step::Go
        } else if torn_down {
            Step::Quit
        } else {
            Step::Wait
        }
    }

    /// The coordinator waiting to harvest `epoch`, looking at one lane: the
    /// slot is the coordinator's again iff the lane's `applied > epoch`.
    #[inline]
    pub fn harvest_observe(applied: u64, epoch: u64, poisoned: bool) -> Step {
        if applied > epoch {
            Step::Go
        } else if poisoned {
            Step::Quit
        } else {
            Step::Wait
        }
    }
}

use lane::Step;

/// How many epochs (published batches) a pipeline lane can hold before the
/// coordinator must wait for the shard workers. Power of two; deep enough
/// to ride out one slow shard, shallow enough that a stalled worker
/// backpressures receivers instead of buffering unbounded work.
const EPOCH_RING_DEPTH: u64 = 4;

/// Spins before a waiting thread sleep-polls, covering the epoch-to-epoch
/// handoff without a syscall round-trip.
const SPIN_LIMIT: u32 = 64;

/// Backoff for the pipeline's wait loops: spin briefly, then sleep-poll.
/// Nobody unparks anybody — a bounded timed park cannot miss a wakeup, and
/// the added worst-case latency is invisible next to a batch of traffic.
const PIPELINE_PARK: Duration = Duration::from_micros(100);

#[inline]
fn pipeline_backoff(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        thread::park_timeout(PIPELINE_PARK);
    }
}

/// One epoch's routed work and outputs for one shard lane.
#[derive(Default)]
struct EpochSlot {
    /// Routed parts for this shard, in packet order. Written by the
    /// coordinator, drained (emptied) by the lane's worker.
    queue: Vec<Routed>,
    /// Key-tagged alerts the drain produced; collected at harvest.
    tagged: Vec<FedAlert>,
    /// Cross-shard DRDoS misses this shard *detected*; frozen after the
    /// drain so every worker can read every lane's list, cleared at
    /// harvest.
    misses: Vec<FedMiss>,
}

/// One shard's bounded epoch ring; see [`lane`] for the counters' meaning
/// and the slot-ownership rule they encode.
struct Lane {
    slots: [UnsafeCell<EpochSlot>; EPOCH_RING_DEPTH as usize],
    /// Epochs published to this lane's worker.
    tail: AtomicU64,
    /// Epochs whose queue this worker has fully drained (misses frozen).
    drained: AtomicU64,
    /// Epochs fully finished (drain + cross-shard miss application).
    applied: AtomicU64,
}

impl Lane {
    fn new() -> Self {
        Lane {
            slots: std::array::from_fn(|_| UnsafeCell::new(EpochSlot::default())),
            tail: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            applied: AtomicU64::new(0),
        }
    }
}

// SAFETY: slot ownership follows the lane counters as documented on
// `lane`; every handoff is a Release store observed by an Acquire load.
unsafe impl Send for Lane {}
unsafe impl Sync for Lane {}

/// State shared between a pipeline session's coordinator and its workers.
struct PipelineShared {
    lanes: Vec<Lane>,
    /// Base pointer to the shard engines (`*mut Vids` as `usize`). The
    /// coordinator re-derives and re-publishes it after any quiesced
    /// direct use of `VidsPool::shards` (sweeps, snapshots), so a worker
    /// always dereferences a freshly derived pointer.
    engines: AtomicUsize,
    /// Session shutdown; workers exit once no published epoch is pending.
    stop: AtomicBool,
    /// A worker panicked; everyone winds down and the coordinator rethrows.
    poisoned: AtomicBool,
    /// First captured panic payload, rethrown on the coordinator.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Fault injection: worker 0 panics when it reaches this epoch (see
    /// [`PipelineIngress::inject_worker_panic`]).
    panic_epoch: AtomicU64,
}

/// Ends a session on drop: sets `stop` and joins the workers, so they are
/// gone when [`VidsPool::with_pipeline`] returns — also when the
/// coordinator unwinds.
struct SessionGuard<'scope, 'sh> {
    shared: &'sh PipelineShared,
    workers: Vec<thread::ScopedJoinHandle<'scope, ()>>,
}

impl Drop for SessionGuard<'_, '_> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Release);
        for worker in self.workers.drain(..) {
            // A worker catches its own panics and parks the payload for
            // the coordinator; never double-panic out of drop.
            let _ = worker.join();
        }
    }
}

/// One pipeline worker: drain own lane's epoch, barrier with peers, apply
/// this shard's share of the cross-shard misses, publish completion —
/// epoch by epoch until shutdown.
fn pipeline_worker(shared: &PipelineShared, index: usize) {
    let lane = &shared.lanes[index];
    let n = shared.lanes.len();
    let mut scratch: Vec<FedMiss> = Vec::new();
    let mut epoch = 0u64;
    loop {
        let mut spins = 0u32;
        loop {
            let poisoned = shared.poisoned.load(Acquire);
            let tail = lane.tail.load(Acquire);
            match lane::worker_observe(poisoned, tail, shared.stop.load(Acquire), epoch) {
                Step::Go => break,
                Step::Quit => return,
                Step::Wait => pipeline_backoff(&mut spins),
            }
        }
        let slot = lane::slot(epoch, EPOCH_RING_DEPTH);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if index == 0 && shared.panic_epoch.load(Relaxed) == epoch {
                panic!("injected pipeline worker panic");
            }
            // SAFETY: observing `tail > epoch` (Acquire) transferred this
            // slot to the worker; the `applied` store below hands it back.
            let data = unsafe { &mut *lane.slots[slot].get() };
            // SAFETY: engine `index` is touched by this worker only, and
            // by the coordinator only while the pipeline is quiesced; the
            // pointer is (re-)derived by the coordinator and published
            // before the epochs that use it.
            let engine = unsafe { &mut *(shared.engines.load(Acquire) as *mut Vids).add(index) };
            for (idx, t, part) in data.queue.drain(..) {
                ingest_part(engine, idx, t, part, &mut data.tagged, &mut data.misses);
            }
            lane.drained.store(epoch + 1, Release);
            // Barrier: wait for every lane to finish draining this epoch.
            // From each peer's `drained` store to the coordinator's
            // harvest, the epoch's miss lists are frozen and readable by
            // all.
            for peer in &shared.lanes {
                let mut spins = 0u32;
                loop {
                    let drained = peer.drained.load(Acquire);
                    let torn_down = shared.poisoned.load(Acquire) || shared.stop.load(Acquire);
                    match lane::barrier_observe(drained, epoch, torn_down) {
                        Step::Go => break,
                        // Neither happens on the normal flush-then-stop
                        // path.
                        Step::Quit => panic!("pipeline torn down during epoch barrier"),
                        Step::Wait => pipeline_backoff(&mut spins),
                    }
                }
            }
            // The deferred DRDoS phase, shard-local: this destination
            // shard's share of the counts, in packet order. Sorting the
            // global miss list by idx and filtering to one shard (the
            // synchronous path) yields the same per-engine sequence as
            // filtering then sorting here.
            scratch.clear();
            for (j, peer) in shared.lanes.iter().enumerate() {
                let misses: &[FedMiss] = if j == index {
                    &data.misses
                } else {
                    // SAFETY: frozen read-only window, see the barrier
                    // comment above.
                    unsafe { &(*peer.slots[slot].get()).misses }
                };
                for m in misses {
                    if shard_from_hash(fnv1a(&m.dst_ip.to_le_bytes()), n) == index {
                        scratch.push(*m);
                    }
                }
            }
            scratch.sort_unstable_by_key(|m| m.idx);
            for m in &scratch {
                count_miss(engine, m, &mut data.tagged);
            }
        }));
        match outcome {
            Ok(()) => {
                lane.applied.store(epoch + 1, Release);
                epoch += 1;
            }
            Err(payload) => {
                let mut first = shared.panic.lock().expect("panic slot never poisoned");
                if first.is_none() {
                    *first = Some(payload);
                }
                drop(first);
                shared.poisoned.store(true, Release);
                return;
            }
        }
    }
}

/// A live pipelined-ingest session over a [`VidsPool`], handed to the
/// closure of [`VidsPool::with_pipeline`]. Exclusively borrows the pool:
/// while the session lives, all traffic flows through [`submit`] and all
/// timer work through [`tick`].
///
/// [`submit`]: PipelineIngress::submit
/// [`tick`]: PipelineIngress::tick
pub struct PipelineIngress<'pool, 'sh> {
    pool: &'pool mut VidsPool,
    shared: &'sh PipelineShared,
    /// Epochs published so far.
    next_epoch: u64,
    /// Epochs harvested (merged and emitted) so far.
    harvested: u64,
    /// Coordinator-side tagged alerts (sweeps, malformed) per published
    /// but unharvested epoch; front = oldest.
    coord: VecDeque<Vec<FedAlert>>,
    /// Recycled coordinator alert buffers.
    spare: Vec<Vec<FedAlert>>,
    /// `pool.shards` was used directly while quiesced; re-derive the
    /// engines pointer before publishing the next epoch.
    refresh_engines: bool,
}

impl PipelineIngress<'_, '_> {
    /// Epochs published but not yet merged.
    pub fn in_flight(&self) -> u64 {
        self.next_epoch - self.harvested
    }

    /// Rethrows a worker panic on the coordinator. The session is torn
    /// down by the unwind: the session guard stops and joins the workers.
    fn rethrow(&self) -> ! {
        let payload = self.shared.panic.lock().ok().and_then(|mut p| p.take());
        match payload {
            Some(payload) => panic::resume_unwind(payload),
            None => panic!("pipeline worker previously panicked"),
        }
    }

    /// Publishes one batch of pre-routed events as an epoch: runs the
    /// routing core with the receiver-computed hashes, queueing each part
    /// for its shard's lane, and hands the queues to the workers; returns
    /// without waiting for the drains unless the rings are full. Same
    /// batch-clock semantics as [`VidsPool::process_wire_batch`]: `now`
    /// should be the batch's first receive timestamp.
    pub fn submit<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<PreRouted>,
        now: SimTime,
        sink: &mut S,
    ) {
        if self.shared.poisoned.load(Acquire) {
            self.rethrow();
        }
        let now_ms = now.as_millis();
        // A sweep reads and mutates every shard, so the ring quiesces
        // before the core runs one — they are interval-gated, so this
        // barrier is rare by construction.
        if self.pool.sweep_due(now_ms) {
            self.flush(sink);
            self.refresh_engines = true;
        }

        // The coordinator's own alerts for this epoch: sweep, malformed.
        let mut coord_tagged = self.spare.pop().unwrap_or_default();
        let mut queues = std::mem::take(&mut self.pool.queues);
        let mut misses = std::mem::take(&mut self.pool.scratch_misses);
        let routed = events
            .drain(..)
            .enumerate()
            .map(|(idx, ev)| CoreEvent::whole(idx, ev.classified, ev.at, Some(ev.hint)));
        self.pool.route_pass(
            routed,
            now_ms,
            Books::Pool,
            Some(&mut queues),
            &mut coord_tagged,
            &mut misses,
        );
        debug_assert!(misses.is_empty(), "queued routing produces no misses");
        self.pool.scratch_misses = misses;

        if self.refresh_engines {
            debug_assert_eq!(
                self.next_epoch, self.harvested,
                "refresh requires quiescence"
            );
            self.shared
                .engines
                .store(self.pool.shards.as_mut_ptr() as usize, Release);
            self.refresh_engines = false;
        }

        // Backpressure: when the rings are full, merge the oldest epoch
        // (blocking on its workers) before publishing this one.
        while !lane::may_publish(self.next_epoch, self.harvested, EPOCH_RING_DEPTH) {
            if let Some(reg) = &self.pool.telemetry {
                reg.pool().inc(Counter::PipelineStalls);
            }
            self.harvest_one(sink);
        }

        // Publish epoch `next_epoch` to every lane — uniformly, including
        // empty queues, so the lane counters advance in lock-step and the
        // workers' cross-lane barrier lines up.
        let e = self.next_epoch;
        let slot = lane::slot(e, EPOCH_RING_DEPTH);
        for (lane, queue) in self.shared.lanes.iter().zip(queues.iter_mut()) {
            // SAFETY: `may_publish` held above, so epoch `e -
            // EPOCH_RING_DEPTH` is harvested and the coordinator owns this
            // slot; the Release store below hands it to the worker, after
            // the slot is written.
            let data = unsafe { &mut *lane.slots[slot].get() };
            debug_assert!(data.queue.is_empty());
            std::mem::swap(&mut data.queue, queue);
            lane.tail.store(e + 1, Release);
        }
        self.pool.queues = queues;
        self.coord.push_back(coord_tagged);
        self.next_epoch = e + 1;
        if let Some(reg) = &self.pool.telemetry {
            reg.pool().set_gauge(Gauge::PipelineDepth, self.in_flight());
        }
    }

    /// Merges the oldest in-flight epoch: waits for every worker to finish
    /// it, gathers the tagged alerts from all lanes plus the coordinator's
    /// own, and emits them through the pool's merge — exactly the merge of
    /// the synchronous paths, per epoch.
    fn harvest_one<S: AlertSink + ?Sized>(&mut self, sink: &mut S) {
        debug_assert!(self.harvested < self.next_epoch);
        let e = self.harvested;
        for lane in &self.shared.lanes {
            let mut spins = 0u32;
            loop {
                let applied = lane.applied.load(Acquire);
                match lane::harvest_observe(applied, e, self.shared.poisoned.load(Acquire)) {
                    Step::Go => break,
                    Step::Quit => self.rethrow(),
                    Step::Wait => pipeline_backoff(&mut spins),
                }
            }
        }
        let mut tagged = self.coord.pop_front().unwrap_or_default();
        let slot = lane::slot(e, EPOCH_RING_DEPTH);
        for lane in &self.shared.lanes {
            // SAFETY: every lane's `applied` passed `e` (Acquire above),
            // handing the epoch's slots back to the coordinator.
            let data = unsafe { &mut *lane.slots[slot].get() };
            debug_assert!(data.queue.is_empty());
            tagged.append(&mut data.tagged);
            data.misses.clear();
        }
        self.pool.merge_into(&mut tagged, sink);
        self.spare.push(tagged);
        self.harvested = e + 1;
    }

    /// Merges every in-flight epoch, emitting alerts into `sink`. On
    /// return the pipeline is quiescent: workers are idle and every alert
    /// submitted so far has been emitted.
    pub fn flush<S: AlertSink + ?Sized>(&mut self, sink: &mut S) {
        if self.shared.poisoned.load(Acquire) {
            self.rethrow();
        }
        while self.harvested < self.next_epoch {
            self.harvest_one(sink);
        }
        if let Some(reg) = &self.pool.telemetry {
            reg.pool().set_gauge(Gauge::PipelineDepth, 0);
        }
    }

    /// Flushes, then advances idle timers on every shard — the session's
    /// version of [`VidsPool::tick`], with identical output.
    pub fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        self.flush(sink);
        self.pool.tick(now, sink);
        self.refresh_engines = true;
    }

    /// Read access to the underlying pool while quiescent (for snapshots
    /// and forensic dumps). Call [`flush`] or [`tick`] first; panics if
    /// epochs are still in flight, because the workers would be mutating
    /// the shards being read.
    ///
    /// [`flush`]: PipelineIngress::flush
    /// [`tick`]: PipelineIngress::tick
    pub fn pool(&mut self) -> &VidsPool {
        assert_eq!(
            self.next_epoch, self.harvested,
            "flush the pipeline before inspecting the pool"
        );
        self.refresh_engines = true;
        &*self.pool
    }

    /// Fault injection for tests of the panic contract: makes pipeline
    /// worker 0 panic when it reaches the next epoch to be published.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self) {
        self.shared.panic_epoch.store(self.next_epoch, Relaxed);
    }
}

impl Monitor for VidsPool {
    fn process(&mut self, packet: &Packet, now: SimTime, sink: &mut dyn AlertSink) {
        self.process_batch(std::slice::from_ref(packet), now, sink);
    }

    fn tick(&mut self, now: SimTime, sink: &mut dyn AlertSink) {
        self.tick(now, sink);
    }

    fn alerts(&self) -> &[Alert] {
        VidsPool::alerts(self)
    }

    fn counters(&self) -> VidsCounters {
        VidsPool::counters(self)
    }

    fn memory_bytes(&self) -> usize {
        VidsPool::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, NullSink};
    use vids_netsim::packet::{Address, Payload};
    use vids_sdp::{Codec, SessionDescription};
    use vids_sip::message::Request;
    use vids_sip::{Method, SipUri, StatusCode};

    const CALLER: Address = Address::new(10, 1, 0, 10, 5060);
    const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

    fn pkt(src: Address, dst: Address, payload: Payload) -> Packet {
        Packet {
            src,
            dst,
            payload,
            id: 0,
            sent_at: SimTime::ZERO,
        }
    }

    fn invite(call_id: &str) -> Request {
        let sdp = SessionDescription::audio_offer("alice", "10.1.0.10", 20_000, &[Codec::G729]);
        Request::invite(
            &SipUri::new("alice", "a.example.com"),
            &SipUri::new("bob", "b.example.com"),
            call_id,
        )
        .with_body(vids_sdp::MIME_TYPE, sdp.to_string())
    }

    /// A small trace exercising floods, unknown calls and junk.
    fn mixed_trace() -> Vec<(Packet, SimTime)> {
        let mut trace = Vec::new();
        for i in 0..12u64 {
            let inv = invite(&format!("mix-{i}"));
            trace.push((
                pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
                SimTime::from_millis(i * 5),
            ));
        }
        let ghost = invite("ghost");
        let bye = Request::in_dialog(Method::Bye, &ghost, 2, Some("tt"));
        trace.push((
            pkt(CALLER, CALLEE, Payload::Sip(bye.to_string())),
            SimTime::from_millis(70),
        ));
        let ok = ghost.response(StatusCode::OK);
        for i in 0..12u64 {
            trace.push((
                pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())),
                SimTime::from_millis(80 + i),
            ));
        }
        trace.push((
            pkt(CALLER, CALLEE, Payload::Sip("garbage".to_owned())),
            SimTime::from_millis(95),
        ));
        trace
    }

    fn shards(n: usize) -> Config {
        Config::builder().shards(n).build().unwrap()
    }

    /// What the ingest layer does to a datagram, applied to a simulated
    /// packet: classify the raw payload bytes off the "wire".
    fn wire_events(packets: &[Packet]) -> Vec<WireEvent> {
        use crate::classify::{classify_wire, WireProto};
        packets
            .iter()
            .map(|p| WireEvent {
                classified: match &p.payload {
                    Payload::Sip(text) => {
                        classify_wire(WireProto::Sip, text.as_bytes(), p.src, p.dst)
                    }
                    Payload::Rtp(bytes) => classify_wire(WireProto::Rtp, bytes, p.src, p.dst),
                    Payload::Raw(_) => Classified::Ignored,
                },
                at: p.sent_at,
            })
            .collect()
    }

    #[test]
    fn wire_batch_matches_packet_batch() {
        let packets: Vec<Packet> = mixed_trace()
            .into_iter()
            .map(|(mut p, at)| {
                p.sent_at = at;
                p
            })
            .collect();

        let mut by_packet = VidsPool::new(shards(4));
        let mut packet_sink = CollectSink::new();
        by_packet.process_batch(&packets, SimTime::ZERO, &mut packet_sink);
        by_packet.tick(SimTime::from_secs(30), &mut packet_sink);

        let mut events = wire_events(&packets);
        let mut by_wire = VidsPool::new(shards(4));
        let mut wire_sink = CollectSink::new();
        by_wire.process_wire_batch(&mut events, SimTime::ZERO, &mut wire_sink);
        by_wire.tick(SimTime::from_secs(30), &mut wire_sink);

        assert!(!packet_sink.is_empty(), "trace should raise alerts");
        assert_eq!(packet_sink.alerts(), wire_sink.alerts());
        assert_eq!(by_packet.counters(), by_wire.counters());
        assert_eq!(by_packet.cpu_busy(), by_wire.cpu_busy());
        assert!(events.is_empty(), "wire batch drains the caller's buffer");
    }

    #[test]
    fn pool_matches_plain_vids_packet_for_packet() {
        let mut plain = Vids::new(Config::default());
        let mut pool = VidsPool::new(shards(4));
        let mut plain_sink = CollectSink::new();
        let mut pool_sink = CollectSink::new();
        for (packet, at) in mixed_trace() {
            plain.process(&packet, at, &mut plain_sink);
            Monitor::process(&mut pool, &packet, at, &mut pool_sink);
        }
        plain.tick(SimTime::from_secs(30), &mut plain_sink);
        pool.tick(SimTime::from_secs(30), &mut pool_sink);
        assert!(!plain_sink.is_empty(), "trace should raise alerts");
        assert_eq!(plain_sink.alerts(), pool_sink.alerts());
        assert_eq!(plain.alerts(), pool.alerts());
        assert_eq!(plain.counters(), pool.counters());
    }

    #[test]
    fn shard_count_does_not_change_batched_output() {
        let trace = mixed_trace();
        let packets: Vec<Packet> = trace
            .iter()
            .map(|(p, at)| {
                let mut p = p.clone();
                p.sent_at = *at;
                p
            })
            .collect();
        let mut reference: Option<Vec<Alert>> = None;
        for n in [1usize, 4, 8] {
            let mut pool = VidsPool::new(shards(n));
            let mut sink = CollectSink::new();
            pool.process_batch(&packets, SimTime::ZERO, &mut sink);
            pool.tick(SimTime::from_secs(30), &mut sink);
            let out = sink.into_alerts();
            match &reference {
                None => reference = Some(out),
                Some(expected) => assert_eq!(expected, &out, "{n} shards diverged"),
            }
        }
        assert!(!reference.unwrap().is_empty());
    }

    #[test]
    fn rtp_routes_to_the_call_owning_shard() {
        let mut pool = VidsPool::new(shards(8));
        let inv = invite("routed-1");
        let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
        let ok = inv
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids_sdp::MIME_TYPE, answer.to_string());
        let batch = [
            pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
            pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())),
        ];
        pool.process_batch(&batch, SimTime::ZERO, &mut NullSink);

        // Both endpoints' negotiated coordinates point at the shard that owns
        // the call, whatever hash(ip:port) alone would have said.
        let call_shard = pool
            .media_shard("10.2.0.10", 30_000)
            .expect("answer SDP indexed");
        assert_eq!(pool.media_shard("10.1.0.10", 20_000), Some(call_shard));
        assert_eq!(pool.shard(call_shard).monitored_calls(), 1);

        // RTP to those coordinates reaches the call's RTP machine...
        let media = vids_rtp::packet::RtpPacket::new(18, 100, 800, 7).with_payload(vec![0; 10]);
        let rtp = pkt(
            CALLER.with_port(20_000),
            CALLEE.with_port(30_000),
            Payload::Rtp(media.to_bytes()),
        );
        pool.process_batch(&[rtp], SimTime::from_millis(10), &mut NullSink);
        assert_eq!(pool.counters().unassociated_rtp, 0);
        assert_eq!(pool.counters().rtp_packets, 1);

        // ...while RTP to unknown coordinates is flagged, once.
        let stray = pkt(
            CALLER.with_port(20_000),
            Address::new(10, 9, 9, 9, 40_000),
            Payload::Rtp(media.to_bytes()),
        );
        let mut stray_sink = CollectSink::new();
        pool.process_batch(&[stray], SimTime::from_millis(20), &mut stray_sink);
        let alerts = stray_sink.into_alerts();
        assert_eq!(pool.counters().unassociated_rtp, 1);
        assert!(alerts.iter().any(|a| a.label == "unassociated-rtp"));
    }

    #[test]
    fn builder_shards_size_the_pool() {
        let pool = VidsPool::new(shards(6));
        assert_eq!(pool.shards(), 6);
        assert_eq!(pool.monitored_calls(), 0);
        assert!(Config::builder().shards(0).build().is_err());
    }

    /// A wire trace with calls, negotiated media, in-call and stray RTP, a
    /// REGISTER, floods, ghosts and junk — timestamps crossing several
    /// sweep intervals so multi-batch runs exercise the batch-clock sweep
    /// rule.
    fn pipeline_trace() -> Vec<WireEvent> {
        use vids_sip::headers::{CSeq as SipCSeq, Header, NameAddr, Via};

        let mut packets: Vec<Packet> = mixed_trace()
            .into_iter()
            .map(|(mut p, at)| {
                p.sent_at = at;
                p
            })
            .collect();
        let mut push = |src, dst, payload, ms| {
            let mut p = pkt(src, dst, payload);
            p.sent_at = SimTime::from_millis(ms);
            packets.push(p);
        };

        // A REGISTER, pinned by address-of-record.
        let aor = SipUri::new("roamer", "b.example.com");
        let mut reg = vids_sip::Request::new(Method::Register, SipUri::host_only("b.example.com"));
        reg.headers.push(Header::Via(Via::udp(
            "10.1.0.10".to_owned(),
            5060,
            "z9hG4bK-r1",
        )));
        reg.headers
            .push(Header::From(NameAddr::new(aor.clone()).with_tag("rt")));
        reg.headers.push(Header::To(NameAddr::new(aor)));
        reg.headers.push(Header::CallId("reg-roamer".to_owned()));
        reg.headers
            .push(Header::CSeq(SipCSeq::new(1, Method::Register)));
        reg.headers.push(Header::Contact(NameAddr::new(SipUri::new(
            "roamer",
            "10.1.0.10",
        ))));
        reg.headers.push(Header::Expires(3600));
        reg.headers.push(Header::ContentLength(0));
        push(CALLER, CALLEE, Payload::Sip(reg.to_string()), 98);

        // A full call with negotiated media and in-call RTP.
        let inv = invite("pipe-media");
        let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
        let ok = inv
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids_sdp::MIME_TYPE, answer.to_string());
        let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
        push(CALLER, CALLEE, Payload::Sip(inv.to_string()), 100);
        push(CALLEE, CALLER, Payload::Sip(ok.to_string()), 120);
        push(CALLER, CALLEE, Payload::Sip(ack.to_string()), 140);
        let media = vids_rtp::packet::RtpPacket::new(18, 100, 800, 7).with_payload(vec![0; 10]);
        for i in 0..4u64 {
            push(
                CALLER.with_port(20_000),
                CALLEE.with_port(30_000),
                Payload::Rtp(media.to_bytes()),
                160 + i * 20,
            );
        }
        // Stray RTP: routed by the media-coordinate fallback hash.
        push(
            CALLER.with_port(20_000),
            Address::new(10, 9, 9, 9, 40_000),
            Payload::Rtp(media.to_bytes()),
            250,
        );

        // A later ghost-response wave (unassociated responses = deferred
        // cross-shard DRDoS misses) after more sweep windows elapsed.
        let ghost = invite("pipe-ghost");
        let ghost_ok = ghost.response(StatusCode::OK);
        for i in 0..12u64 {
            push(CALLEE, CALLER, Payload::Sip(ghost_ok.to_string()), 480 + i);
        }

        wire_events(&packets)
    }

    /// Feeds `events` through `process_wire_batch` in fixed-size chunks,
    /// clocked by each batch's first timestamp, then ticks.
    fn run_wire_batches(pool: &mut VidsPool, events: &[WireEvent], chunk: usize) -> Vec<Alert> {
        let mut sink = CollectSink::new();
        for chunk_events in events.chunks(chunk) {
            let mut batch: Vec<WireEvent> = chunk_events.to_vec();
            let now = chunk_events.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
            pool.process_wire_batch(&mut batch, now, &mut sink);
        }
        pool.tick(SimTime::from_secs(30), &mut sink);
        sink.into_alerts()
    }

    /// The same batches through a pipelined session.
    fn run_pipeline_batches(pool: &mut VidsPool, events: &[WireEvent], chunk: usize) -> Vec<Alert> {
        let mut sink = CollectSink::new();
        pool.with_pipeline(|p| {
            let mut batch: Vec<PreRouted> = Vec::new();
            for chunk_events in events.chunks(chunk) {
                batch.extend(
                    chunk_events
                        .iter()
                        .map(|e| PreRouted::new(e.classified.clone(), e.at)),
                );
                let now = chunk_events.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
                p.submit(&mut batch, now, &mut sink);
            }
            p.tick(SimTime::from_secs(30), &mut sink);
        });
        sink.into_alerts()
    }

    #[test]
    fn pipeline_matches_wire_batches_across_shard_counts() {
        let events = pipeline_trace();
        // Chunk 3 pushes well past EPOCH_RING_DEPTH epochs (backpressure
        // path); chunk 64 covers few-epoch sessions.
        for n in [1usize, 4, 8] {
            for chunk in [3usize, 7, 64] {
                let mut by_wire = VidsPool::new(shards(n));
                let wire = run_wire_batches(&mut by_wire, &events, chunk);
                let mut by_pipe = VidsPool::new(shards(n));
                let pipe = run_pipeline_batches(&mut by_pipe, &events, chunk);
                assert!(!wire.is_empty(), "trace should raise alerts");
                assert_eq!(wire, pipe, "{n} shards, chunk {chunk} diverged");
                assert_eq!(by_wire.alerts(), by_pipe.alerts());
                assert_eq!(by_wire.counters(), by_pipe.counters());
                assert_eq!(by_wire.cpu_busy(), by_pipe.cpu_busy());
                assert_eq!(by_wire.monitored_calls(), by_pipe.monitored_calls());
            }
        }
    }

    #[test]
    fn route_hint_hashes_agree_with_shard_of() {
        let events = pipeline_trace();
        let pool = VidsPool::new(shards(8));
        let mut sip = 0usize;
        for ev in &events {
            let hint = route_hint(&ev.classified);
            match &ev.classified {
                Classified::Sip {
                    call_id,
                    event,
                    dst_ip,
                    ..
                } => {
                    sip += 1;
                    if event.name == sym::SIP_REGISTER {
                        let aor = event.str_arg("aor").unwrap_or("");
                        assert_eq!(shard_from_hash(hint.call, 8), pool.shard_of(aor.as_bytes()));
                    } else {
                        assert_eq!(
                            shard_from_hash(hint.call, 8),
                            pool.shard_of(call_id.as_str().as_bytes())
                        );
                        assert_eq!(
                            shard_from_hash(hint.flood, 8),
                            pool.shard_of(&dst_ip.to_le_bytes())
                        );
                    }
                }
                // One spelling only: `route_hint` and `route_one` share
                // `media_hash`.
                Classified::Rtp { .. } => {}
                _ => assert_eq!(hint, RouteHint::default()),
            }
        }
        assert!(sip > 0, "trace must cover SIP");
    }

    #[test]
    fn pipeline_survives_quiesced_inspection() {
        let events = pipeline_trace();
        let split = 10usize;

        let mut reference = VidsPool::new(shards(4));
        let mut ref_sink = CollectSink::new();
        for part in [&events[..split], &events[split..]] {
            let mut batch: Vec<WireEvent> = part.to_vec();
            let now = part.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
            reference.process_wire_batch(&mut batch, now, &mut ref_sink);
        }
        reference.tick(SimTime::from_secs(30), &mut ref_sink);

        let mut pool = VidsPool::new(shards(4));
        let mut sink = CollectSink::new();
        pool.with_pipeline(|p| {
            let mut batch: Vec<PreRouted> = events[..split]
                .iter()
                .map(|e| PreRouted::new(e.classified.clone(), e.at))
                .collect();
            p.submit(&mut batch, events[0].at, &mut sink);
            p.flush(&mut sink);
            // Mid-session, quiesced: reading the pool (as the serve tier
            // does for forensic dumps) must not disturb the epochs that
            // follow.
            assert!(p.pool().monitored_calls() > 0);
            assert_eq!(p.in_flight(), 0);
            batch.extend(
                events[split..]
                    .iter()
                    .map(|e| PreRouted::new(e.classified.clone(), e.at)),
            );
            p.submit(&mut batch, events[split].at, &mut sink);
            p.tick(SimTime::from_secs(30), &mut sink);
        });

        assert_eq!(ref_sink.alerts(), sink.alerts());
        assert_eq!(reference.counters(), pool.counters());
    }

    #[test]
    fn pipeline_worker_panic_propagates_and_joins() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let events = pipeline_trace();
        let mut pool = VidsPool::new(shards(4));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.with_pipeline(|p| {
                p.inject_worker_panic();
                let mut batch: Vec<PreRouted> = events
                    .iter()
                    .map(|e| PreRouted::new(e.classified.clone(), e.at))
                    .collect();
                p.submit(&mut batch, SimTime::ZERO, &mut NullSink);
                p.flush(&mut NullSink);
            });
        }));
        std::panic::set_hook(prev);
        assert!(outcome.is_err(), "worker panic must surface on the caller");
        // The session joined its workers on the way out; the pool is still
        // usable and droppable.
        pool.process_batch(&[], SimTime::ZERO, &mut NullSink);
        drop(pool);
    }
}
