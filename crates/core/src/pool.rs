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
//! * **Malformed and ignored datagrams** carry no key and go to the key-0
//!   engine, whose alert dedup then covers them all.
//!
//! A cluster node is a group of shards: [`VidsPool::set_nodes`] makes the
//! engines `nodes` groups of `Config::shards`, and one placement rule sends
//! a key hash to group [`rendezvous`]`(hash, nodes)`, engine
//! `hash % shards` inside it.
//!
//! A tenant is one more engine group: [`VidsPool::with_tenants`] splits
//! every node group into one group per tenant, each engine under its
//! tenant's [`Config`], and a datagram's keys are placed inside the tenant
//! of its address pair ([`TenantMap::tenant_of`]).
//!
//! Ingestion is batch-oriented, and every entry point is the same pass over
//! one private routing core (`open_batch`, `route_events`): at most one
//! idle-timer sweep per batch (the single engine re-checks the interval on
//! every packet), then — per datagram, in packet order, the only globally
//! ordered step — the cost charge, the monotonic clock clamp, and
//! `route_one`, which pins each protocol-role part to its shard. An SDP
//! that claims a coordinate routed to another engine waits, and the pass
//! stops at the coordinate's next RTP until `settle` has read which claims
//! a call took. Shard output is merged on a deterministic key — `(packet
//! index, phase, sweep scope, emission seq)` — so the alert sequence is
//! byte-identical whatever the shard count, including a 1-shard pool vs. a
//! plain [`Vids`].
//!
//! Synchronous calls ([`VidsPool::process_batch`],
//! [`VidsPool::process_wire_batch`]) ingest each routed part in place on
//! the calling thread; a pool spawns no thread at construction. The one
//! threaded runtime is the **epoch ring** of a
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
use std::collections::VecDeque;
use std::iter::Peekable;
use std::net::Ipv4Addr;
use std::num::NonZeroU32;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use vids_efsm::{sym, Arg, Event, Sym};
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;
use vids_scan::fxhash::FxHashMap;
use vids_telemetry::{Counter, Gauge, HistId, Registry, Snapshot};

use crate::alert::Alert;
use crate::classify::{classify, Classified};
use crate::config::Config;
use crate::cost::{CostModel, CpuAccount};
use crate::engine::{Vids, VidsCounters, SWEEP_INTERVAL_MS};
use crate::factbase::FactBaseStats;
use crate::machines::{MediaKey, RtpArgs, SipArgs};
use crate::sink::AlertSink;
use crate::tenant::{TenantId, TenantMap};

/// One shard-pinned routed part, stamped with packet index and clamped time.
type Routed = (usize, u64, Part);

/// Names a waiting claim on a media coordinate ([`VidsPool::settle`]).
type ClaimId = NonZeroU32;

// Sizes are facts: a pipeline epoch queues one of these per datagram and
// shard, and the queues' growth is most of what a live session requests.
const _: () = assert!(std::mem::size_of::<Routed>() <= 176);

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

/// Where a key hash lives: the one placement rule. The engines are `nodes`
/// groups of `tenants` groups of `shards`; a tenant's hash goes to node
/// group `rendezvous(hash, nodes)`, the tenant's group inside it, and
/// engine `hash % shards` inside that — node-then-shard placement in one
/// pass. Neither level hashes what can only land on index 0. Node groups
/// are outermost, so a rebalance truncates or extends the engine list.
#[derive(Debug, Clone, Copy)]
struct Placement {
    nodes: usize,
    tenants: usize,
    shards: usize,
}

impl Placement {
    #[inline]
    fn engine(self, tenant: usize, hash: u64) -> usize {
        let shard = if self.shards == 1 {
            0
        } else {
            (hash % self.shards as u64) as usize
        };
        (rendezvous(hash, self.nodes) * self.tenants + tenant) * self.shards + shard
    }

    /// The tenant whose group `engine` belongs to. A one-tenant layout
    /// divides nothing: this runs once per routed part.
    #[inline]
    fn tenant(self, engine: usize) -> TenantId {
        if self.tenants == 1 {
            return 0;
        }
        ((engine / self.shards) % self.tenants) as TenantId
    }
}

/// Rendezvous (highest-random-weight) node choice for a key hash: the node
/// whose mixed score is highest. Changing the node count moves only the
/// keys whose argmax changes — about `1/n` of them — so in-flight calls on
/// unmoved keys keep their state and verdicts across a rebalance.
pub fn rendezvous(key: u64, nodes: usize) -> usize {
    if nodes <= 1 {
        return 0;
    }
    let mut best = 0usize;
    let mut best_score = mix(key, 0);
    for node in 1..nodes {
        let score = mix(key, node);
        if score > best_score {
            best = node;
            best_score = score;
        }
    }
    best
}

/// SplitMix64 finalizer over `key ⊕ node-salt`: well-mixed, platform-fixed.
fn mix(key: u64, node: usize) -> u64 {
    let mut h = key ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h
}

/// A sink that tags every alert with the merge key of the part being
/// drained and the tenant of the engine draining it.
struct TaggedSink<'a> {
    out: &'a mut Vec<TaggedAlert>,
    idx: usize,
    phase: u8,
    /// Sweep mode: scope alerts by their Call-ID so the merge reproduces the
    /// single engine's sorted sweep order across shards.
    scope_from_call: bool,
    seq: u32,
    tenant: TenantId,
}

impl<'a> TaggedSink<'a> {
    fn packet(out: &'a mut Vec<TaggedAlert>, idx: usize, phase: u8, tenant: TenantId) -> Self {
        TaggedSink {
            out,
            idx,
            phase,
            scope_from_call: false,
            seq: 0,
            tenant,
        }
    }

    fn sweep(out: &'a mut Vec<TaggedAlert>) -> Self {
        TaggedSink {
            out,
            idx: 0,
            phase: 0,
            scope_from_call: true,
            seq: 0,
            tenant: 0,
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
        self.out.push(TaggedAlert {
            idx: self.idx,
            phase: self.phase,
            scope,
            seq: self.seq,
            tenant: self.tenant,
            alert,
        });
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

// Sizes are facts: receivers batch one of these per datagram, and the
// pipeline queues what it carries once per shard hop.
const _: () = assert!(std::mem::size_of::<PreRouted>() <= 184);

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
/// (media-index probes and inserts, the monotonic clamp) stays on the
/// coordinator; the hint carries only pure per-packet hashes.
pub fn route_hint(c: &Classified) -> RouteHint {
    match c {
        Classified::Sip {
            call_id,
            event,
            dst_ip,
            ..
        } => {
            if event.name == sym::SIP_REGISTER {
                RouteHint {
                    call: fnv1a(aor(event).as_bytes()),
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

/// The address-of-record a REGISTER is routed by (`""` when it has none).
fn aor(event: &Event) -> &'static str {
    event.get(SipArgs::get().aor).unwrap_or(sym::EMPTY).as_str()
}

/// The media-coordinate fallback hash: where RTP that no call negotiated is
/// routed, and where every `unassociated-rtp` for the coordinate is raised,
/// so any placement flags it exactly once. FNV-1a over the address's four
/// bytes and the port's two.
fn media_hash(event: &Event) -> u64 {
    media_key_hash(RtpArgs::get().dst(event))
}

fn media_key_hash(MediaKey { ip, port }: MediaKey) -> u64 {
    let [a, b, c, d] = ip.octets();
    let [lo, hi] = port.to_le_bytes();
    fnv1a(&[a, b, c, d, lo, hi])
}

impl RouteHint {
    /// The call-pinned key hash: address-of-record for REGISTER, Call-ID
    /// for other SIP, the media-coordinate fallback for RTP. Placement
    /// feeds it to [`rendezvous`] for the node group, so a test can pick a
    /// key that keeps its node across a rebalance.
    pub fn call_hash(&self) -> u64 {
        self.call
    }
}

/// A key-tagged alert: what every engine drain produces. Sorting by
/// [`TaggedAlert::merge_order`] yields the single engine's byte-identical
/// alert sequence whatever engine raised each alert.
///
/// The merge key is (packet index, phase, sweep scope, per-sink emission
/// seq). Phases order the parts of one packet the way the single engine
/// would have emitted them: 0 = batch-start sweep (before any packet), 1 =
/// the destination-pinned INVITE-flood part, 2 = the call/register/media
/// (or malformed) part, 3 = the deferred DRDoS reflection count for an
/// unassociated response. The scope is only populated for sweep alerts
/// (phase 0), where different calls' alerts share one key prefix and the
/// single engine sweeps calls in sorted-Call-ID order. It is an interned
/// symbol, not a `String`: tagging an alert never allocates, and the merge
/// compares 4-byte ids' *text* (interner ids depend on arrival order, which
/// varies with shard count).
#[derive(Debug, Clone)]
struct TaggedAlert {
    idx: usize,
    phase: u8,
    scope: Sym,
    seq: u32,
    /// The tenant whose engine raised the alert: carried, never compared.
    tenant: TenantId,
    alert: Alert,
}

// Sizes are facts: an entry is an alert plus 24 bytes of key, the tenant
// riding in the key's padding.
const _: () = assert!(std::mem::size_of::<TaggedAlert>() <= 152);

impl TaggedAlert {
    /// The deterministic merge order — `(packet idx, phase, scope text,
    /// emission seq)`. The scope symbol must be compared by its string.
    fn merge_order(a: &TaggedAlert, b: &TaggedAlert) -> Ordering {
        (a.idx, a.phase, a.scope.as_str(), a.seq).cmp(&(b.idx, b.phase, b.scope.as_str(), b.seq))
    }
}

/// A miss detected on the engine a datagram was routed to, to be counted on
/// the engine its key's hash picks inside the datagram's tenant: the
/// deferred phase. The misses of a batch are applied after the drain, in
/// packet order.
#[derive(Debug, Clone, Copy)]
struct DeferredMiss {
    /// Packet index of the datagram.
    idx: usize,
    /// Its clamped packet time.
    t_ms: u64,
    /// The tenant of the datagram, whose engines count it.
    tenant: TenantId,
    what: Missed,
}

#[derive(Debug, Clone, Copy)]
enum Missed {
    /// An unassociated SIP response, counted against its destination's
    /// DRDoS reflection machine.
    Response {
        dst_ip: u32,
        src_ip: Option<Ipv4Addr>,
    },
    /// RTP the media index routed to an engine that has no call for its
    /// coordinates: no call took the SDP that set the route. The
    /// coordinate's dedup home is its hash engine, where RTP that no route
    /// names goes.
    Media(MediaKey),
}

// Sizes are facts: the tenant fits the padding of the other fields.
const _: () = assert!(std::mem::size_of::<DeferredMiss>() <= 32);

impl DeferredMiss {
    /// The engine that counts the miss.
    fn home(&self, placement: Placement) -> usize {
        let hash = match self.what {
            Missed::Response { dst_ip, .. } => fnv1a(&dst_ip.to_le_bytes()),
            Missed::Media(media) => media_key_hash(media),
        };
        placement.engine(self.tenant as usize, hash)
    }
}

/// One classified datagram as the routing core takes it, whichever entry
/// point it came through.
struct CoreEvent {
    /// Position in the batch: what the merge keys are built on.
    idx: usize,
    classified: Classified,
    /// Receive time, to be clamped monotonic.
    at_ms: u64,
    /// Receiver-computed routing hashes, when a receiver computed them.
    hint: Option<RouteHint>,
}

impl CoreEvent {
    /// The datagram at position `idx` of a batch.
    fn new(idx: usize, classified: Classified, at: SimTime, hint: Option<RouteHint>) -> Self {
        CoreEvent {
            idx,
            classified,
            at_ms: at.as_millis(),
            hint,
        }
    }
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
        /// The id of the claim its SDP makes on a coordinate routed to
        /// another engine, for the engine to report if its call took it.
        claim: Option<ClaimId>,
    },
    /// RTP, with the tenant of its address pair when the media index routed
    /// it: a miss there goes back as a deferred miss to the coordinate's
    /// hash engine, so one dedup set sees every `unassociated-rtp` for the
    /// coordinate.
    Rtp {
        event: Event,
        routed: Option<TenantId>,
    },
    /// Malformed and ignored traffic has no key; it goes to the key-0
    /// engine, whose dedup set then sees every malformed alert.
    Malformed {
        protocol: &'static str,
        reason: &'static str,
    },
    Ignored,
}

/// The sharded analysis engine. Construct with a [`Config`] whose `shards`
/// field (see [`Config::builder`]) says how many independent [`Vids`]
/// engines to partition monitored calls across, then feed traffic in
/// batches via [`VidsPool::process_batch`]; a batch of one packet behaves
/// identically to a plain `Vids`.
pub struct VidsPool {
    /// Every engine, node group by node group: `placement.nodes` groups of
    /// `placement.tenants` groups of `placement.shards`.
    shards: Vec<Vids>,
    placement: Placement,
    /// The tenant table of a pool built by [`VidsPool::with_tenants`].
    tenants: Option<TenantMap>,
    /// Read-mostly mirror of every shard's media index: negotiated media
    /// coordinates → owning shard. Written only during sequential routing;
    /// probed per RTP packet, so the key is a six-byte value and the probe
    /// never allocates. Not maintained for single-shard pools, which route
    /// everything to shard 0 without hashing.
    media_to_shard: FxHashMap<MediaKey, usize>,
    /// Waiting claims by coordinate, in routing order: (id, claimant
    /// engine). See [`VidsPool::settle`].
    claims: FxHashMap<MediaKey, Vec<(ClaimId, usize)>>,
    /// The ids of the waiting claims whose call took the SDP.
    taken: Vec<ClaimId>,
    next_claim: ClaimId,
    config: Config,
    cost: CostModel,
    cpu: CpuAccount,
    last_sweep_ms: u64,
    /// Monotonic clamp over packet timestamps: EFSM networks require
    /// non-decreasing time, so a late-stamped packet is processed at the
    /// batch high-water mark, exactly as a single engine would see it.
    last_packet_ms: u64,
    /// The one store of the pool's counts: one slab per engine (each
    /// engine counts into its own) plus a pool-level slab for batch, merge
    /// and ingest counts. Allocated when the pool is built.
    registry: Arc<Registry>,
    /// Whether [`VidsPool::enable_telemetry`] turned on what costs more
    /// than a count: the engines' transition rings, the merge clock and
    /// the histograms.
    traced: bool,
    /// Reusable per-shard routing queues, filled only by a pipeline
    /// session. Their capacity shuttles between here and the ring slots (a
    /// publish swaps `Vec`s), so steady-state routing allocates nothing.
    queues: Vec<Vec<Routed>>,
    /// Reusable merge buffer of key-tagged alerts for the current batch.
    scratch_tagged: Vec<TaggedAlert>,
    /// Reusable buffer of deferred DRDoS response misses.
    scratch_misses: Vec<DeferredMiss>,
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
        VidsPool::build(config, None, cost)
    }

    /// Creates a pool with one group of `Config::shards` engines per
    /// tenant, each under its tenant's [`Config`] (thresholds, timers, the
    /// `max_tracked_calls` quota); call tables are never shared. The
    /// default tenant's configuration is the pool's [`VidsPool::config`].
    pub fn with_tenants(tenants: TenantMap, cost: CostModel) -> Self {
        VidsPool::build(tenants.get(0).config, Some(tenants), cost)
    }

    fn build(config: Config, tenants: Option<TenantMap>, cost: CostModel) -> Self {
        let placement = Placement {
            nodes: 1,
            tenants: tenants.as_ref().map_or(1, TenantMap::len),
            shards: config.shards.max(1),
        };
        let n = placement.tenants * placement.shards;
        let mut pool = VidsPool {
            shards: Vec::new(),
            placement,
            tenants,
            media_to_shard: FxHashMap::default(),
            claims: FxHashMap::default(),
            taken: Vec::new(),
            next_claim: ClaimId::MIN,
            config,
            cost,
            cpu: CpuAccount::new(),
            last_sweep_ms: 0,
            last_packet_ms: 0,
            registry: Arc::new(Registry::new(n)),
            traced: false,
            queues: (0..n).map(|_| Vec::new()).collect(),
            scratch_tagged: Vec::new(),
            scratch_misses: Vec::new(),
        };
        pool.shards = (0..n).map(|i| pool.new_engine(i)).collect();
        pool
    }

    /// A fresh engine for slot `engine`, under its tenant's configuration.
    fn new_engine(&self, engine: usize) -> Vids {
        let config = match &self.tenants {
            Some(map) => map.get(self.placement.tenant(engine)).config,
            None => self.config,
        };
        Vids::counting_into(config, self.cost, self.registry.shard_slab(engine))
    }

    /// Enables telemetry: a transition ring of `ring_capacity` records per
    /// shard, the merge clock and the batch-size and merge-time
    /// histograms. Returns the pool's [`Registry`], whose slabs hold every
    /// count with telemetry off too. Call before feeding traffic;
    /// recording from then on is allocation-free.
    pub fn enable_telemetry(&mut self, ring_capacity: usize) -> Arc<Registry> {
        for shard in &mut self.shards {
            shard.enable_ring(ring_capacity);
        }
        self.traced = true;
        Arc::clone(&self.registry)
    }

    /// The registry every count of this pool lives in: the engines' shard
    /// slabs and the pool slab, which the ingest tier counts into too.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Makes the pool's engines `nodes` groups of `config.shards` per
    /// tenant — one group per cluster node — under the one placement rule:
    /// a key goes to group [`rendezvous`]`(hash, nodes)`. Routing-only:
    /// keys whose group is unchanged (about `(n-1)/n` of them when growing
    /// by one) keep their engine, state and in-flight verdicts. Keys that
    /// move leave their call state behind — those calls restart, as if the
    /// moved traffic had first appeared now. Growing keeps the surviving
    /// engines and their telemetry slabs, and new engines get fresh ones;
    /// shrinking drops the removed groups' engines, state and counts.
    ///
    /// The media routing index is rebuilt from the surviving engines' own
    /// fact-base media indexes, so media announced in SDP but accepted by
    /// no call's machine routes by hash until it is announced again.
    pub fn set_nodes(&mut self, nodes: usize) {
        let nodes = nodes.max(1);
        if nodes == self.placement.nodes {
            return;
        }
        self.settle();
        self.placement.nodes = nodes;
        let engines = nodes * self.placement.tenants * self.placement.shards;
        let ring = self.telemetry_ring();
        self.shards.truncate(engines);
        self.registry = Arc::new(self.registry.resized(engines));
        while self.shards.len() < engines {
            let mut engine = self.new_engine(self.shards.len());
            if self.traced {
                engine.enable_ring(ring);
            }
            self.shards.push(engine);
        }
        self.queues.resize_with(engines, Vec::new);
        self.media_to_shard.clear();
        if engines > 1 {
            for (i, engine) in self.shards.iter().enumerate() {
                for media in engine.factbase().media_keys() {
                    self.media_to_shard.insert(media, i);
                }
            }
        }
    }

    /// The tenant table, for a pool built by [`VidsPool::with_tenants`].
    pub fn tenants(&self) -> Option<&TenantMap> {
        self.tenants.as_ref()
    }

    /// The tenant whose group engine `engine` (an index for
    /// [`VidsPool::shard`]) belongs to.
    pub fn engine_tenant(&self, engine: usize) -> TenantId {
        self.placement.tenant(engine)
    }

    /// Traffic counters of one tenant's engines.
    pub fn tenant_counters(&self, tenant: TenantId) -> VidsCounters {
        VidsCounters::sum(self.tenant_engines(tenant).map(Vids::slab))
    }

    /// Calls one tenant's engines currently monitor.
    pub fn tenant_monitored_calls(&self, tenant: TenantId) -> usize {
        self.tenant_engines(tenant).map(Vids::monitored_calls).sum()
    }

    fn tenant_engines(&self, tenant: TenantId) -> impl Iterator<Item = &Vids> + Clone {
        let placement = self.placement;
        self.shards
            .iter()
            .enumerate()
            .filter(move |(i, _)| placement.tenant(*i) == tenant)
            .map(|(_, shard)| shard)
    }

    /// The per-shard transition-ring capacity telemetry was enabled with;
    /// 0 when telemetry is off.
    pub fn telemetry_ring(&self) -> usize {
        self.shards[0].telemetry_ring()
    }

    /// A snapshot of the pool's registry at monitor time `now`, when
    /// telemetry is enabled. Refreshes the per-shard gauges (live calls,
    /// fact-base memory) and the pool slab's routing memory gauge before
    /// copying; the pool gauge plus the shard gauges is
    /// [`VidsPool::memory_bytes`].
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<Snapshot> {
        if !self.traced {
            return None;
        }
        for shard in &self.shards {
            shard.refresh_telemetry_gauges();
        }
        self.registry
            .pool()
            .set_gauge(Gauge::MemoryBytes, self.routing_bytes() as u64);
        Some(self.registry.snapshot(now.as_millis()))
    }

    /// Bytes of the pool's own routing state: the media routing index and
    /// the waiting claims (their coordinates, their claimant lists and the
    /// ids of the claims taken).
    fn routing_bytes(&self) -> usize {
        use crate::factbase::index_bytes;
        let claimants: usize = self.claims.values().map(Vec::len).sum();
        index_bytes(&self.media_to_shard)
            + index_bytes(&self.claims)
            + claimants * size_of::<(ClaimId, usize)>()
            + self.taken.len() * size_of::<ClaimId>()
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of shard engines, across every node group.
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

    /// How many alerts the pool has merged and handed to a sink so far.
    /// The alerts themselves went to the sinks: a caller that wants them
    /// again keeps them there ([`crate::sink::CollectSink`]), and a
    /// tenant-mapped pool hands each one over with its tenant
    /// ([`AlertSink::accept_from`]).
    pub fn alerts_merged(&self) -> u64 {
        self.registry.pool().get(Counter::AlertsMerged)
    }

    /// Aggregate traffic counters across all shards.
    pub fn counters(&self) -> VidsCounters {
        VidsCounters::sum(self.shards.iter().map(Vids::slab))
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
    /// routing state: the media routing index and the waiting claims.
    pub fn memory_bytes(&self) -> usize {
        let shard_bytes: usize = self.shards.iter().map(Vids::memory_bytes).sum();
        shard_bytes + self.routing_bytes()
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
    pub fn media_shard(&self, ip: Ipv4Addr, port: u16) -> Option<usize> {
        self.media_to_shard.get(&MediaKey { ip, port }).copied()
    }

    /// Processes a batch of packets, pushing alerts into `sink`.
    /// Classifies each packet, then takes exactly the wire path.
    pub fn process_batch<S: AlertSink + ?Sized>(
        &mut self,
        packets: &[Packet],
        now: SimTime,
        sink: &mut S,
    ) {
        let events = packets
            .iter()
            .enumerate()
            .map(|(idx, p)| CoreEvent::new(idx, classify(p), p.sent_at, None));
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
            .map(|(idx, ev)| CoreEvent::new(idx, ev.classified, ev.at, None));
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
        let now_ms = now.as_millis();
        self.open_batch(events.len(), now_ms, &mut tagged);
        let mut events = events.peekable();
        // A pause to settle ends a pipeline epoch, whose misses are counted
        // there: so are they here, or transition rings would differ.
        while self.route_events(&mut events, now_ms, None, &mut tagged, &mut misses) {
            self.apply_misses(&misses, &mut tagged);
            misses.clear();
            self.settle();
        }
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

    /// Advances idle timers and evicts finished calls on every shard,
    /// pushing timer-driven alerts into `sink` in deterministic order.
    pub fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        let mut tagged = std::mem::take(&mut self.scratch_tagged);
        // Mirror Vids::tick's interval gate from time zero.
        if now.as_millis() >= SWEEP_INTERVAL_MS {
            self.sweep(now.as_millis(), &mut tagged);
        }
        self.merge_into(&mut tagged, sink);
        self.scratch_tagged = tagged;
    }

    /// Whether a batch clocked at `now_ms` opens with an idle-timer sweep.
    fn sweep_due(&self, now_ms: u64) -> bool {
        now_ms.saturating_sub(self.last_sweep_ms) >= SWEEP_INTERVAL_MS
    }

    /// The one routing core behind every entry point, opened once per
    /// batch and then driven by [`VidsPool::route_events`]. Phases, in
    /// order:
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
    /// or park until the epoch is harvested — is the caller's, as is
    /// quiescing a pipeline before a due sweep.
    fn open_batch(&mut self, len: usize, now_ms: u64, tagged: &mut Vec<TaggedAlert>) {
        let slab = self.registry.pool();
        slab.inc(Counter::BatchesIngested);
        slab.add(Counter::PacketsIngested, len as u64);
        if self.traced {
            slab.record(HistId::BatchSize, len as u64);
        }
        if self.sweep_due(now_ms) {
            self.sweep(now_ms, tagged);
        }
    }

    /// Phases 1 and 2 for the batch's next datagrams. Returns `true` when
    /// it pauses ahead of RTP to a coordinate with waiting claims, for the
    /// caller to quiesce and [`settle`](VidsPool::settle) before calling
    /// again; `false` once `events` is exhausted.
    fn route_events(
        &mut self,
        events: &mut Peekable<impl Iterator<Item = CoreEvent>>,
        now_ms: u64,
        mut queues: Option<&mut [Vec<Routed>]>,
        tagged: &mut Vec<TaggedAlert>,
        misses: &mut Vec<DeferredMiss>,
    ) -> bool {
        while let Some(ev) = events.next_if(|ev| !self.must_settle(ev)) {
            // The cost model charges by what the datagram claimed to be.
            self.cpu
                .charge(self.cost.cpu_for_classified(&ev.classified));
            // A no-op on times a caller already clamped across a larger
            // batch order (they are ≥ `now_ms` and ≥ every earlier one).
            let t = now_ms.max(ev.at_ms).max(self.last_packet_ms);
            self.last_packet_ms = t;
            self.route_one(ev, t, queues.as_deref_mut(), tagged, misses);
        }
        events.peek().is_some()
    }

    /// Whether `ev` is RTP to a coordinate with waiting claims.
    fn must_settle(&self, ev: &CoreEvent) -> bool {
        let media = |event| RtpArgs::get().dst(event);
        let waits = |event| !self.claims.is_empty() && self.claims.contains_key(&media(event));
        matches!(&ev.classified, Classified::Rtp { event } if waits(event))
    }

    /// Settles every waiting claim — an SDP naming a coordinate routed to
    /// another engine, or one already claimed. Only the claimant's engine
    /// knows whether its call took the SDP, so this runs before the
    /// coordinate's next RTP is routed and at every sweep, with every
    /// claim ingested and reported (a pipeline session quiesces first).
    /// The route moves to the engine of the last claim a call took, and
    /// every other engine releases the coordinate; when no call took any,
    /// nothing moves, as in one engine.
    fn settle(&mut self) {
        if self.claims.is_empty() {
            return;
        }
        self.taken.sort_unstable();
        for (media, claims) in self.claims.drain() {
            let took = |&&(id, _): &&(ClaimId, usize)| self.taken.binary_search(&id).is_ok();
            let Some(&(_, winner)) = claims.iter().rev().find(took) else {
                continue;
            };
            let holder = self.media_to_shard.insert(media, winner);
            for engine in holder.into_iter().chain(claims.iter().map(|c| c.1)) {
                if engine != winner {
                    self.shards[engine].release_media(media);
                }
            }
        }
        self.taken.clear();
    }

    /// Phase 2 of the core: assigns one routed part per protocol role and
    /// publishes media coordinates to the routing index.
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
    /// lazily. Both spellings place every part on the same shard. The
    /// tenant is chosen here, from the event's own addresses, and only
    /// when the pool has more than one.
    fn route_one(
        &mut self,
        ev: CoreEvent,
        t: u64,
        mut queues: Option<&mut [Vec<Routed>]>,
        tagged: &mut Vec<TaggedAlert>,
        misses: &mut Vec<DeferredMiss>,
    ) {
        let n = self.shards.len();
        let placement = self.placement;
        let CoreEvent { idx, hint, .. } = ev;
        // Returns the id of a waiting claim the engine's call took.
        let mut place = |shards: &mut [Vids], shard: usize, part: Part| match &mut queues {
            Some(queues) => {
                queues[shard].push((idx, t, part));
                None
            }
            None => {
                let tenant = placement.tenant(shard);
                ingest_part(&mut shards[shard], tenant, idx, t, part, tagged, misses)
            }
        };
        match ev.classified {
            Classified::Sip {
                call_id,
                event,
                is_initial_invite,
                is_request,
                dst_ip,
            } => {
                let args = SipArgs::get();
                let tenant = self.tenant_of(&event, args.src_ip, args.dst_ip);
                if event.name == sym::SIP_REGISTER {
                    let shard = match hint {
                        Some(h) => placement.engine(tenant, h.call),
                        None => self.shard_of(tenant, aor(&event).as_bytes()),
                    };
                    place(&mut self.shards, shard, Part::Register(event));
                    return;
                }
                if event.name == sym::SIP_INVITE {
                    let flood_shard = match hint {
                        Some(h) => placement.engine(tenant, h.flood),
                        None => self.shard_of(tenant, &dst_ip.to_le_bytes()),
                    };
                    place(&mut self.shards, flood_shard, Part::InviteFlood { dst_ip });
                }
                let shard = match hint {
                    Some(h) => placement.engine(tenant, h.call),
                    None => self.shard_of(tenant, call_id.as_str().as_bytes()),
                };
                // Port 0 names no stream.
                let sdp = SipArgs::get().sdp_media(&event);
                let claim = sdp
                    .filter(|media| n > 1 && media.port != 0)
                    .and_then(|media| self.file_claim(media, shard));
                let part = Part::Call {
                    call_id,
                    event,
                    is_initial_invite,
                    is_request,
                    dst_ip,
                    claim,
                };
                if let Some(id) = place(&mut self.shards, shard, part) {
                    self.taken.push(id);
                }
            }
            Classified::Rtp { event } => {
                let args = RtpArgs::get();
                let (shard, routed) = if n == 1 {
                    (0, None)
                } else if let Some(&owner) = self.media_to_shard.get(&args.dst(&event)) {
                    // Media follows the call that claimed it; a miss there
                    // finds its hash engine in the deferred phase.
                    let tenant = self.tenant_of(&event, args.src_ip, args.dst_ip);
                    (owner, Some(tenant as TenantId))
                } else {
                    // No call claimed these coordinates: route by their
                    // hash so any shard count flags the same packet as
                    // unassociated exactly once.
                    let tenant = self.tenant_of(&event, args.src_ip, args.dst_ip);
                    let hash = hint.map_or_else(|| media_hash(&event), |h| h.call);
                    (placement.engine(tenant, hash), None)
                };
                place(&mut self.shards, shard, Part::Rtp { event, routed });
            }
            // No address, so the default tenant's key-0 engine.
            Classified::Malformed { protocol, reason } => {
                let part = Part::Malformed { protocol, reason };
                place(&mut self.shards, placement.engine(0, 0), part);
            }
            Classified::Ignored => {
                place(&mut self.shards, placement.engine(0, 0), Part::Ignored);
            }
        }
    }

    /// Routes a fresh coordinate to the claimant, `shard`, at once: if its
    /// call does not take the SDP, the media misses there and is raised on
    /// its hash engine, as with no route. Otherwise files a waiting claim
    /// and returns its id.
    fn file_claim(&mut self, media: MediaKey, shard: usize) -> Option<ClaimId> {
        let waiting = self.claims.contains_key(&media);
        if !waiting && *self.media_to_shard.entry(media).or_insert(shard) == shard {
            return None;
        }
        let id = self.next_claim;
        // Ids wrap; they only tell apart the claims of one settle window.
        self.next_claim = id.checked_add(1).unwrap_or(ClaimId::MIN);
        self.claims.entry(media).or_default().push((id, shard));
        Some(id)
    }

    /// The tenant of the datagram `event` stands for: the pair rule over
    /// its `src` and `dst` arguments, or 0 in a one-tenant pool.
    fn tenant_of(&self, event: &Event, src: Arg<Ipv4Addr>, dst: Arg<Ipv4Addr>) -> usize {
        match &self.tenants {
            Some(map) if self.placement.tenants > 1 => {
                let ip = |arg| event.get(arg).map_or(0, u32::from);
                map.tenant_of(ip(src), ip(dst)) as usize
            }
            _ => 0,
        }
    }

    /// The deferred phase: counts each miss on its home engine. `misses`
    /// must be in packet order — the flood networks need non-decreasing
    /// time.
    fn apply_misses(&mut self, misses: &[DeferredMiss], tagged: &mut Vec<TaggedAlert>) {
        for miss in misses {
            let shard = if self.shards.len() == 1 {
                0 // don't hash what can only land on engine 0
            } else {
                miss.home(self.placement)
            };
            count_miss(&mut self.shards[shard], miss, tagged);
        }
    }

    /// The merge, and the epilogue of every path that emits: sorts the
    /// batch's (or epoch's) key-tagged alerts and hands each to `sink` with
    /// its tenant, leaving `tagged` empty. The key makes this order
    /// independent of shard count and thread scheduling.
    fn merge_into<S: AlertSink + ?Sized>(&mut self, tagged: &mut Vec<TaggedAlert>, sink: &mut S) {
        let merge_started = self.traced.then(Instant::now);
        tagged.sort_unstable_by(TaggedAlert::merge_order);
        // Their count, not a copy (the sink is the record); one writer.
        let pool = self.registry.pool();
        pool.add_owned(Counter::AlertsMerged, tagged.len() as u64);
        for entry in tagged.drain(..) {
            sink.accept_from(entry.tenant, entry.alert);
        }
        if let Some(started) = merge_started {
            let nanos = started.elapsed().as_nanos() as u64;
            self.registry.pool().add(Counter::MergeNanos, nanos);
            self.registry.pool().record(HistId::MergeNanos, nanos);
        }
    }

    fn shard_of(&self, tenant: usize, bytes: &[u8]) -> usize {
        if self.shards.len() == 1 {
            return 0; // don't hash what can only land on shard 0
        }
        self.placement.engine(tenant, fnv1a(bytes))
    }

    /// One idle-timer sweep of every shard at `now_ms`, on the calling
    /// thread (sweeps are interval-gated and O(expiring) on the shards'
    /// time wheels); a pipeline session quiesces its ring first. Alerts are
    /// tagged ahead of every packet of the batch and scoped by Call-ID.
    fn sweep(&mut self, now_ms: u64, tagged: &mut Vec<TaggedAlert>) {
        self.last_sweep_ms = now_ms;
        self.settle();
        // Counted once, on the pool slab: per-shard force_maintain does not
        // count, so the total is the same whatever the shard count.
        self.registry.pool().inc(Counter::TimerSweeps);
        // One sink across the engines: a Call-ID that a rebalance left on
        // two engines still gets distinct keys, in engine order.
        let mut sink = TaggedSink::sweep(tagged);
        for (i, shard) in self.shards.iter_mut().enumerate() {
            sink.tenant = self.placement.tenant(i);
            shard.force_maintain(now_ms, &mut sink);
        }
        // Drop routing entries for media the shards just evicted, keeping
        // the pool index in lock-step with the per-shard media indexes.
        // Single-shard pools never populate the index, so there is nothing
        // to keep in step.
        if self.shards.len() > 1 {
            let shards = &self.shards;
            self.media_to_shard.retain(|media, shard| {
                shards[*shard]
                    .factbase()
                    .media_lookup(media.ip, media.port)
                    .is_some()
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
    /// deterministic key, cross-shard misses apply in packet order, sweeps
    /// run on the same batch-clock rule, and a batch that must settle media
    /// claims splits into epochs where the synchronous pass pauses to
    /// settle them. Workers are joined when
    /// the closure returns (or unwinds). The closure must end with a
    /// [`PipelineIngress::flush`] or [`PipelineIngress::tick`] into its
    /// sink: the pool keeps no alert, so one still in flight on return
    /// would be lost (debug builds assert there is none).
    pub fn with_pipeline<R>(&mut self, f: impl FnOnce(&mut PipelineIngress<'_, '_>) -> R) -> R {
        let n = self.shards.len();
        let shared = PipelineShared {
            lanes: (0..n).map(|_| Lane::new()).collect(),
            placement: self.placement,
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
            // Quiesce the engines. Drivers flush (tick) into their own sink
            // before returning, so this merges no alert.
            let merged = ingress.pool.alerts_merged();
            ingress.flush(&mut crate::sink::NullSink);
            debug_assert_eq!(
                ingress.pool.alerts_merged(),
                merged,
                "a pipeline session ended with alerts in flight"
            );
            result
        })
    }
}

/// Delivers one routed part to its shard engine, tagging every alert with
/// its merge key, and returns the id of a waiting claim the engine's call
/// took. Shared by the in-place routing pass and the ring workers' queue
/// drain; per-shard order is the same under both because routing is the
/// sequential packet-order pass.
fn ingest_part(
    vids: &mut Vids,
    tenant: TenantId,
    idx: usize,
    t: u64,
    part: Part,
    alerts: &mut Vec<TaggedAlert>,
    misses: &mut Vec<DeferredMiss>,
) -> Option<ClaimId> {
    match part {
        Part::Register(event) => {
            let mut sink = TaggedSink::packet(alerts, idx, 2, tenant);
            vids.ingest_register(event, t, &mut sink);
        }
        Part::InviteFlood { dst_ip } => {
            let mut sink = TaggedSink::packet(alerts, idx, 1, tenant);
            vids.ingest_invite_flood(dst_ip, t, &mut sink);
        }
        Part::Call {
            call_id,
            event,
            is_initial_invite,
            is_request,
            dst_ip,
            claim,
        } => {
            let mut sink = TaggedSink::packet(alerts, idx, 2, tenant);
            let (miss, claimed) =
                vids.ingest_call_event(call_id, event, is_initial_invite, is_request, t, &mut sink);
            if let Some(miss) = miss {
                misses.push(DeferredMiss {
                    idx,
                    t_ms: t,
                    tenant,
                    what: Missed::Response {
                        dst_ip,
                        src_ip: miss.src_ip,
                    },
                });
            }
            return claim.filter(|_| claimed);
        }
        Part::Rtp { event, routed } => {
            let mut sink = TaggedSink::packet(alerts, idx, 2, tenant);
            if let Some(media) = vids.ingest_rtp(event, t, &mut sink) {
                match routed {
                    None => vids.raise_unassociated_rtp(media, t, &mut sink),
                    Some(tenant) => misses.push(DeferredMiss {
                        idx,
                        t_ms: t,
                        tenant,
                        what: Missed::Media(media),
                    }),
                }
            }
        }
        Part::Malformed { protocol, reason } => {
            let mut sink = TaggedSink::packet(alerts, idx, 2, tenant);
            vids.ingest_malformed(protocol, reason, t, &mut sink);
        }
        Part::Ignored => vids.ingest_ignored(),
    }
    None
}

/// Counts one miss on its home engine: the deferred phase (merge phase 3).
fn count_miss(engine: &mut Vids, miss: &DeferredMiss, tagged: &mut Vec<TaggedAlert>) {
    let mut sink = TaggedSink::packet(tagged, miss.idx, 3, miss.tenant);
    match miss.what {
        Missed::Response { dst_ip, src_ip } => {
            engine.ingest_response_flood(dst_ip, src_ip, miss.t_ms, &mut sink)
        }
        Missed::Media(media) => engine.raise_unassociated_rtp(media, miss.t_ms, &mut sink),
    }
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
/// handoff without a syscall round-trip. A worker whose previous epoch
/// arrived only after it parked skips the spin.
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
    tagged: Vec<TaggedAlert>,
    /// Cross-shard DRDoS misses this shard *detected*; frozen after the
    /// drain so every worker can read every lane's list, cleared at
    /// harvest.
    misses: Vec<DeferredMiss>,
    /// The waiting claims this shard's calls took; collected at harvest.
    taken: Vec<ClaimId>,
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
    /// Where each deferred miss is counted.
    placement: Placement,
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
    let mut scratch: Vec<DeferredMiss> = Vec::new();
    let mut epoch = 0u64;
    // Whether the previous epoch came only after the worker parked. The
    // spin covers back-to-back epochs; when epochs are further apart (a
    // live trickle submits one per datagram) it would be paid per epoch
    // for nothing, so the next wait parks at once.
    let mut idle = false;
    loop {
        let mut spins = if idle { SPIN_LIMIT } else { 0 };
        let mut parked = false;
        loop {
            let poisoned = shared.poisoned.load(Acquire);
            let tail = lane.tail.load(Acquire);
            match lane::worker_observe(poisoned, tail, shared.stop.load(Acquire), epoch) {
                Step::Go => break,
                Step::Quit => return,
                Step::Wait => {
                    parked |= spins >= SPIN_LIMIT;
                    pipeline_backoff(&mut spins);
                }
            }
        }
        idle = parked;
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
            let tenant = shared.placement.tenant(index);
            for (idx, t, part) in data.queue.drain(..) {
                let (tagged, misses) = (&mut data.tagged, &mut data.misses);
                if let Some(id) = ingest_part(engine, tenant, idx, t, part, tagged, misses) {
                    data.taken.push(id);
                }
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
                let misses: &[DeferredMiss] = if j == index {
                    &data.misses
                } else {
                    // SAFETY: frozen read-only window, see the barrier
                    // comment above.
                    unsafe { &(*peer.slots[slot].get()).misses }
                };
                for m in misses {
                    if m.home(shared.placement) == index {
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
    /// Coordinator-side tagged alerts (sweeps) per published
    /// but unharvested epoch; front = oldest.
    coord: VecDeque<Vec<TaggedAlert>>,
    /// Recycled coordinator alert buffers.
    spare: Vec<Vec<TaggedAlert>>,
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

        // The coordinator's own alerts for this epoch: the sweep's.
        let mut coord_tagged = self.spare.pop().unwrap_or_default();
        let routed = events
            .drain(..)
            .enumerate()
            .map(|(idx, ev)| CoreEvent::new(idx, ev.classified, ev.at, Some(ev.hint)));
        self.pool
            .open_batch(routed.len(), now_ms, &mut coord_tagged);
        let mut routed = routed.peekable();
        loop {
            let mut queues = std::mem::take(&mut self.pool.queues);
            let mut misses = std::mem::take(&mut self.pool.scratch_misses);
            let paused = self.pool.route_events(
                &mut routed,
                now_ms,
                Some(&mut queues),
                &mut coord_tagged,
                &mut misses,
            );
            debug_assert!(misses.is_empty(), "queued routing produces no misses");
            self.pool.scratch_misses = misses;
            self.publish(queues, coord_tagged, sink);
            if !paused {
                break;
            }
            // Only the claimants' engines know which claims their calls
            // took: quiesce, settle, and route the rest of the batch as a
            // new epoch. The merge key leads with the packet index, so the
            // epoch boundary does not reorder alerts.
            self.flush(sink);
            self.pool.settle();
            self.refresh_engines = true;
            coord_tagged = self.spare.pop().unwrap_or_default();
        }
    }

    /// Publishes one epoch: the routed `queues` to every lane, and the
    /// coordinator's own alerts for it.
    fn publish<S: AlertSink + ?Sized>(
        &mut self,
        mut queues: Vec<Vec<Routed>>,
        coord_tagged: Vec<TaggedAlert>,
        sink: &mut S,
    ) {
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
            self.pool.registry.pool().inc(Counter::PipelineStalls);
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
        self.pool
            .registry
            .pool()
            .set_gauge(Gauge::PipelineDepth, self.in_flight());
    }

    /// Merges the oldest in-flight epoch: waits for every worker to finish
    /// it, gathers the tagged alerts from all lanes plus the coordinator's
    /// own, and emits them through the pool's merge — exactly the merge of
    /// the synchronous paths, per epoch.
    fn harvest_one<S: AlertSink + ?Sized>(&mut self, sink: &mut S) {
        debug_assert!(self.harvested < self.next_epoch);
        let e = self.harvested;
        let mut spins = 0u32;
        while !self.finished(e) {
            pipeline_backoff(&mut spins);
        }
        let mut tagged = self.coord.pop_front().unwrap_or_default();
        let slot = lane::slot(e, EPOCH_RING_DEPTH);
        for lane in &self.shared.lanes {
            // SAFETY: every lane's `applied` passed `e` (Acquire above),
            // handing the epoch's slots back to the coordinator.
            let data = unsafe { &mut *lane.slots[slot].get() };
            debug_assert!(data.queue.is_empty());
            tagged.append(&mut data.tagged);
            self.pool.taken.append(&mut data.taken);
            data.misses.clear();
        }
        self.pool.merge_into(&mut tagged, sink);
        self.spare.push(tagged);
        self.harvested = e + 1;
        self.pool
            .registry
            .pool()
            .set_gauge(Gauge::PipelineDepth, self.in_flight());
    }

    /// Whether every lane's worker has finished `epoch`, so the coordinator
    /// may harvest it; rethrows a worker panic.
    fn finished(&self, epoch: u64) -> bool {
        for lane in &self.shared.lanes {
            let applied = lane.applied.load(Acquire);
            match lane::harvest_observe(applied, epoch, self.shared.poisoned.load(Acquire)) {
                Step::Go => {}
                Step::Quit => self.rethrow(),
                Step::Wait => return false,
            }
        }
        true
    }

    /// Merges every in-flight epoch the workers have already finished,
    /// oldest first, and returns without waiting for the rest. A live
    /// driver calls it after each [`submit`] so an alert reaches the sink
    /// as soon as its epoch is done rather than at the next flush or when
    /// the ring fills. Emits exactly what [`flush`] would, in the same
    /// order, only earlier.
    ///
    /// [`submit`]: PipelineIngress::submit
    /// [`flush`]: PipelineIngress::flush
    pub fn harvest_ready<S: AlertSink + ?Sized>(&mut self, sink: &mut S) {
        while self.harvested < self.next_epoch && self.finished(self.harvested) {
            self.harvest_one(sink);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use vids_netsim::packet::{Address, Payload};
    use vids_sdp::{Codec, SessionDescription};
    use vids_sip::message::Request;
    use vids_sip::{SipUri, StatusCode};

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

    fn shards(n: usize) -> Config {
        Config::builder().shards(n).build().unwrap()
    }

    #[test]
    fn memory_gauges_add_up_to_memory_bytes() {
        for n in [1usize, 4] {
            let mut pool = VidsPool::new(shards(n));
            pool.enable_telemetry(16);
            let mut batch = Vec::new();
            for i in 0..8u16 {
                let inv = invite(&format!("gauge-{i}"));
                let answer = SessionDescription::audio_offer(
                    "bob",
                    "10.2.0.10",
                    30_000 + 2 * i,
                    &[Codec::G729],
                );
                let ok = inv
                    .response(StatusCode::OK)
                    .with_to_tag("tt")
                    .with_body(vids_sdp::MIME_TYPE, answer.to_string());
                batch.push(pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())));
                batch.push(pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())));
            }
            pool.process_batch(&batch, SimTime::ZERO, &mut NullSink);
            let snap = pool.telemetry_snapshot(SimTime::ZERO).unwrap();
            let routing = snap.pool.gauge(Gauge::MemoryBytes);
            let shards: u64 = snap
                .shards
                .iter()
                .map(|s| s.gauge(Gauge::MemoryBytes))
                .sum();
            assert_eq!(routing + shards, pool.memory_bytes() as u64, "{n} shards");
            assert_eq!(
                routing > 0,
                n > 1,
                "only a sharded pool keeps a routing index"
            );
        }
        // Two calls on different engines whose SDPs name one coordinate:
        // the second call's claim waits until a sweep or the coordinate's
        // next RTP, and its bytes count meanwhile.
        let mut pool = VidsPool::new(shards(4));
        pool.enable_telemetry(16);
        let engine = |id: &String| pool.shard_of(0, id.as_bytes());
        let ids: Vec<String> = (0..8).map(|i| format!("claim-{i}")).collect();
        let other = ids.iter().find(|id| engine(id) != engine(&ids[0])).unwrap();
        let batch =
            [&ids[0], other].map(|id| pkt(CALLER, CALLEE, Payload::Sip(invite(id).to_string())));
        pool.process_batch(&batch, SimTime::ZERO, &mut NullSink);
        assert_eq!(pool.claims.len(), 1, "no claim waits");
        let snap = pool.telemetry_snapshot(SimTime::ZERO).unwrap();
        let routing = snap.pool.gauge(Gauge::MemoryBytes);
        let engines: u64 = snap
            .shards
            .iter()
            .map(|s| s.gauge(Gauge::MemoryBytes))
            .sum();
        assert_eq!(routing + engines, pool.memory_bytes() as u64);
        let index = crate::factbase::index_bytes(&pool.media_to_shard) as u64;
        assert!(routing > index, "the waiting claim is not counted");
    }

    #[test]
    fn builder_shards_size_the_pool() {
        let pool = VidsPool::new(shards(6));
        assert_eq!(pool.shards(), 6);
        assert_eq!(pool.monitored_calls(), 0);
        assert!(Config::builder().shards(0).build().is_err());
    }

    /// One datagram of each kind the router keys differently: an INVITE
    /// (call and flood keys), a response, a REGISTER (address-of-record
    /// key), RTP (media key) and junk (no key).
    fn one_of_each() -> Vec<Classified> {
        let inv = invite("hint-1");
        let register = "REGISTER sip:b.example.com SIP/2.0\r\n\
            Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK-r1\r\n\
            From: <sip:roamer@b.example.com>;tag=rt\r\n\
            To: <sip:roamer@b.example.com>\r\n\
            Call-ID: reg-roamer\r\n\
            CSeq: 1 REGISTER\r\n\
            Contact: <sip:roamer@10.1.0.10>\r\n\
            Content-Length: 0\r\n\r\n";
        let rtp = vids_rtp::packet::RtpPacket::new(18, 100, 800, 7).with_payload(vec![0; 10]);
        let media = (CALLER.with_port(20_000), CALLEE.with_port(30_000));
        let packets = [
            pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
            pkt(
                CALLEE,
                CALLER,
                Payload::Sip(inv.response(StatusCode::OK).to_string()),
            ),
            pkt(CALLER, CALLEE, Payload::Sip(register.to_owned())),
            pkt(media.0, media.1, Payload::Rtp(rtp.to_bytes())),
            pkt(CALLER, CALLEE, Payload::Sip("garbage".to_owned())),
        ];
        packets.iter().map(classify).collect()
    }

    #[test]
    fn route_hint_hashes_agree_with_shard_of() {
        let pool = VidsPool::new(shards(8));
        let place = |hash| pool.placement.engine(0, hash);
        let mut sip = 0usize;
        for classified in one_of_each() {
            let hint = route_hint(&classified);
            match &classified {
                Classified::Sip {
                    call_id,
                    event,
                    dst_ip,
                    ..
                } => {
                    sip += 1;
                    if event.name == sym::SIP_REGISTER {
                        assert_eq!(place(hint.call), pool.shard_of(0, aor(event).as_bytes()));
                    } else {
                        assert_eq!(
                            place(hint.call),
                            pool.shard_of(0, call_id.as_str().as_bytes())
                        );
                        assert_eq!(place(hint.flood), pool.shard_of(0, &dst_ip.to_le_bytes()));
                    }
                }
                // One spelling only: `route_hint` and `route_one` share
                // `media_hash`.
                Classified::Rtp { .. } => {}
                _ => assert_eq!(hint, RouteHint::default()),
            }
        }
        assert_eq!(sip, 3, "an INVITE, a response and a REGISTER");
    }

    #[test]
    fn rendezvous_is_stable_and_moves_few_keys() {
        // Growing 3 → 4 nodes must only move keys onto the new node.
        let mut moved = 0;
        for key in 0..10_000u64 {
            let before = rendezvous(key, 3);
            let after = rendezvous(key, 4);
            if before != after {
                assert_eq!(after, 3, "key {key} moved to an old node");
                moved += 1;
            }
        }
        // Expect about 1/4 of keys on the new node.
        assert!((1_500..3_500).contains(&moved), "moved {moved} of 10000");
        // Single node is always 0 and never hashes.
        assert_eq!(rendezvous(u64::MAX, 1), 0);
    }

    #[test]
    fn rendezvous_spreads_keys_evenly() {
        let mut counts = [0usize; 5];
        for key in 0..10_000u64 {
            counts[rendezvous(key, 5)] += 1;
        }
        for (node, &n) in counts.iter().enumerate() {
            assert!(
                (1_600..=2_400).contains(&n),
                "node {node} owns {n} of 10000"
            );
        }
    }

    #[test]
    fn pipeline_worker_panic_propagates_and_joins() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let events = one_of_each();
        let mut pool = VidsPool::new(shards(4));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.with_pipeline(|p| {
                p.inject_worker_panic();
                let routed = events.into_iter().map(|c| PreRouted::new(c, SimTime::ZERO));
                let mut batch: Vec<PreRouted> = routed.collect();
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
