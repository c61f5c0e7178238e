//! The cluster gateway: deterministic federation of [`VidsPool`] nodes.
//!
//! A [`Cluster`] scales the paper's engine past one pool the same way the
//! pool scaled it past one engine — by exploiting the per-call (and
//! per-destination, per-AOR) independence of the protocol state machines.
//! The gateway classifies nothing itself; it takes already-classified
//! events, splits each into its protocol-role parts, and routes every part
//! to the node that owns its key under **rendezvous hashing** of the same
//! FNV-1a key hash the pool shards by ([`vids_core::route_hint`]). Each
//! node runs one [`VidsPool`] per tenant and ingests only the parts it
//! owns ([`vids_core::PartMask`]); the union across nodes is exactly one
//! pool's work.
//!
//! Determinism is the design constraint, inherited from the pool layer:
//!
//! * **Timestamps** are clamped monotonic by the gateway across the global
//!   batch order, so every node sees the same packet clock a single pool's
//!   sequential routing pass would have assigned.
//! * **Sweeps** fire in lock-step: every node pool receives every batch
//!   (its share may be empty) with the same batch clock, so the
//!   once-per-batch idle-timer sweep triggers on all of them at the same
//!   instants.
//! * **Alerts** come back key-tagged on the *global* packet index
//!   ([`FedAlert`]) and are merged with the pool's own deterministic
//!   order; the sequence is byte-identical whatever the node count,
//!   including one node vs. a plain pool.
//! * **DRDoS misses** detected on a call-owning node are forwarded to the
//!   destination-owning node in global packet order, generalizing the
//!   pool's deferred cross-shard counting phase.
//! * **Batch-level telemetry** is recorded exactly once, on the gateway's
//!   own slab, so the merged cluster snapshot equals the single pool's.

use std::sync::Arc;

use vids_core::classify::classify;
use vids_core::machines::{RtpArgs, SipArgs};
use vids_core::pool::{key_hash, route_hint, FedAlert, FedEvent, FedMiss, PartMask, VidsPool};
use vids_core::{Alert, AlertSink, Classified, CostModel, VidsCounters};
use vids_efsm::{sym, Sym};
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;
use vids_scan::fxhash::FxHashMap;
use vids_telemetry::{Counter, HistId, ShardSlab, SlabSnapshot, Snapshot};

use crate::tenant::{TenantId, TenantMap};

// The pool's sweep cadence, mirrored by the gateway's once-per-batch
// telemetry accounting.
use vids_core::engine::SWEEP_INTERVAL_MS;

/// One classified datagram entering the cluster: what the classifier made
/// of it, when it arrived, and the source IP the tenant mapping keys on.
#[derive(Debug, Clone)]
pub struct ClusterEvent {
    /// The classifier's verdict.
    pub classified: Classified,
    /// Receive (or capture) timestamp.
    pub at: SimTime,
    /// IPv4 source, network byte order packed — selects the tenant.
    pub src_ip: u32,
}

impl ClusterEvent {
    /// Classifies one in-process packet, stamping its send time and source.
    pub fn from_packet(packet: &Packet) -> Self {
        ClusterEvent {
            classified: classify(packet),
            at: packet.sent_at,
            src_ip: packet.src.ip,
        }
    }
}

/// An alert with the tenant whose traffic raised it. The `Alert` itself is
/// untouched (its wire encoding in forensic dumps must stay stable);
/// tenancy is carried alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterAlert {
    /// The tenant the offending traffic belonged to.
    pub tenant: TenantId,
    /// The alert, exactly as a single pool would have raised it.
    pub alert: Alert,
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

/// One tenant's slice of the federation: a pool per node plus the
/// gateway-level media routing index for that tenant's calls.
struct Member {
    pools: Vec<VidsPool>,
    /// Negotiated media coordinates → owning node; the node-level twin of
    /// the pool's shard-level `media_to_shard` index. Expired after sweeps
    /// against the owning pool's fact base.
    media_to_node: FxHashMap<(Sym, u64), usize>,
}

/// A federation of `nodes` in-process [`VidsPool`]s per tenant behind a
/// deterministic routing gateway. See the module docs for the invariants.
pub struct Cluster {
    tenants: TenantMap,
    members: Vec<Member>,
    nodes: usize,
    cost: CostModel,
    /// Cluster-wide alert log in deterministic merge order, tenant-tagged.
    alerts: Vec<ClusterAlert>,
    /// Gateway's batch clock: mirrors each pool's sweep gate so the
    /// `TimerSweeps` counter is recorded exactly once per global sweep.
    last_sweep_ms: u64,
    /// Monotonic clamp over the global packet order, pre-applied before
    /// scattering so node-local clocks agree with a single pool's.
    last_packet_ms: u64,
    /// Batch-level telemetry slab (the single pool's pool-slab share of
    /// `BatchesIngested`/`PacketsIngested`/`BatchSize`/`TimerSweeps`).
    telemetry: Option<Arc<ShardSlab>>,
    telemetry_ring: usize,
    /// Reusable per-(tenant, node) scatter buffers, tenant-major.
    shares: Vec<Vec<FedEvent>>,
    /// Reusable per-tenant merge buffer.
    scratch_alerts: Vec<FedAlert>,
    /// Reusable per-tenant miss buffer.
    scratch_misses: Vec<FedMiss>,
}

impl Cluster {
    /// A cluster of `nodes` nodes under `tenants`, default cost model.
    pub fn new(tenants: TenantMap, nodes: usize) -> Self {
        Cluster::with_cost(tenants, nodes, CostModel::default())
    }

    /// A cluster with an explicit per-packet cost model (tests use
    /// [`CostModel::free`] to match wall-clock-free pool runs).
    pub fn with_cost(tenants: TenantMap, nodes: usize, cost: CostModel) -> Self {
        let nodes = nodes.max(1);
        let members = tenants
            .iter()
            .map(|t| Member {
                pools: (0..nodes)
                    .map(|_| VidsPool::with_cost(t.config, cost))
                    .collect(),
                media_to_node: FxHashMap::default(),
            })
            .collect();
        Cluster {
            tenants,
            members,
            nodes,
            cost,
            alerts: Vec::new(),
            last_sweep_ms: 0,
            last_packet_ms: 0,
            telemetry: None,
            telemetry_ring: 0,
            shares: Vec::new(),
            scratch_alerts: Vec::new(),
            scratch_misses: Vec::new(),
        }
    }

    /// Enables telemetry on every member pool plus the gateway's own
    /// batch-level slab. [`Cluster::telemetry_snapshot`] then merges them
    /// into one cluster-wide [`Snapshot`].
    pub fn enable_telemetry(&mut self, ring_capacity: usize) {
        for member in &mut self.members {
            for pool in &mut member.pools {
                pool.enable_telemetry(ring_capacity);
            }
        }
        self.telemetry = Some(Arc::new(ShardSlab::new()));
        self.telemetry_ring = ring_capacity;
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The gateway's own batch-level telemetry slab, once
    /// [`Cluster::enable_telemetry`] has run. Ingest frontends mirror
    /// their socket-side counters (datagrams received, dropped, demux
    /// verdicts) here so the merged cluster snapshot carries them, exactly
    /// as the single-pool serve path mirrors into the pool slab.
    pub fn telemetry_slab(&self) -> Option<&ShardSlab> {
        self.telemetry.as_deref()
    }

    /// The tenant table.
    pub fn tenants(&self) -> &TenantMap {
        &self.tenants
    }

    /// One tenant's pool on one node, for introspection.
    pub fn pool(&self, tenant: TenantId, node: usize) -> &VidsPool {
        &self.members[tenant as usize].pools[node]
    }

    /// Every alert raised so far, in deterministic merge order,
    /// tenant-tagged.
    pub fn alerts(&self) -> &[ClusterAlert] {
        &self.alerts
    }

    /// Aggregate traffic counters for one tenant, across its nodes.
    pub fn tenant_counters(&self, tenant: TenantId) -> VidsCounters {
        let mut total = VidsCounters::default();
        for pool in &self.members[tenant as usize].pools {
            total += pool.counters();
        }
        total
    }

    /// Aggregate traffic counters across every tenant and node.
    pub fn counters(&self) -> VidsCounters {
        let mut total = VidsCounters::default();
        for t in 0..self.members.len() {
            total += self.tenant_counters(t as TenantId);
        }
        total
    }

    /// Calls currently monitored, summed over tenants and nodes.
    pub fn monitored_calls(&self) -> usize {
        self.members
            .iter()
            .flat_map(|m| m.pools.iter())
            .map(VidsPool::monitored_calls)
            .sum()
    }

    /// Calls currently monitored for one tenant.
    pub fn tenant_monitored_calls(&self, tenant: TenantId) -> usize {
        self.members[tenant as usize]
            .pools
            .iter()
            .map(VidsPool::monitored_calls)
            .sum()
    }

    /// Rebalances to `nodes` nodes. Routing-only: keys whose rendezvous
    /// choice is unchanged (about `(n-1)/n` of them when growing by one)
    /// keep their node, state and in-flight verdicts. Keys that move leave
    /// their call state behind — those calls are effectively restarted,
    /// exactly as if the moved traffic had first appeared now. Shrinking
    /// drops the removed nodes' state outright.
    pub fn set_nodes(&mut self, nodes: usize) {
        let nodes = nodes.max(1);
        if nodes == self.nodes {
            return;
        }
        for (member, tenant) in self.members.iter_mut().zip(self.tenants.iter()) {
            while member.pools.len() > nodes {
                member.pools.pop();
            }
            while member.pools.len() < nodes {
                let mut pool = VidsPool::with_cost(tenant.config, self.cost);
                if self.telemetry.is_some() {
                    pool.enable_telemetry(self.telemetry_ring);
                }
                member.pools.push(pool);
            }
            // Index entries pointing at removed nodes are gone with their
            // state; entries for surviving nodes stay valid — the call
            // state they point at did not move.
            member.media_to_node.retain(|_, node| *node < nodes);
        }
        self.nodes = nodes;
    }

    /// Classifies and processes a batch of in-process packets — the
    /// cluster twin of [`VidsPool::process_batch`].
    pub fn process_packets<S: AlertSink + ?Sized>(
        &mut self,
        packets: &[Packet],
        now: SimTime,
        sink: &mut S,
    ) {
        // Classify straight into the share buffers — no intermediate
        // event vector, so the gateway adds one `Classified` copy over
        // the direct pool path, not two.
        self.run_batch(
            packets.len(),
            packets.iter().map(ClusterEvent::from_packet),
            now,
            sink,
        );
    }

    /// Processes one global batch of classified events: tenant mapping,
    /// part splitting, rendezvous routing, federated ingest on every node,
    /// cross-node miss forwarding, and the deterministic cluster-wide
    /// merge. Alerts go to `sink` and the tenant-tagged log.
    pub fn process_batch<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<ClusterEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        let len = events.len();
        self.run_batch(len, events.drain(..), now, sink);
    }

    fn run_batch<S: AlertSink + ?Sized>(
        &mut self,
        batch_len: usize,
        events: impl Iterator<Item = ClusterEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        let now_ms = now.as_millis();

        // Batch-level telemetry, recorded exactly once for the global
        // batch (member pools skip it on the federated path).
        if let Some(slab) = &self.telemetry {
            slab.inc(Counter::BatchesIngested);
            slab.add(Counter::PacketsIngested, batch_len as u64);
            slab.record(HistId::BatchSize, batch_len as u64);
        }
        let sweeping = now_ms.saturating_sub(self.last_sweep_ms) >= SWEEP_INTERVAL_MS;
        if sweeping {
            self.last_sweep_ms = now_ms;
            if let Some(slab) = &self.telemetry {
                slab.inc(Counter::TimerSweeps);
            }
        }

        // Scatter: one sequential pass in global packet order — the
        // cluster's analogue of the pool's routing pass. Applies the
        // monotonic clamp, maintains the per-tenant media index, splits
        // SIP into call/flood parts and picks owning nodes by rendezvous.
        let tenants = self.members.len();
        let single = self.nodes == 1;
        let mut shares = std::mem::take(&mut self.shares);
        shares.resize_with(tenants * self.nodes, Vec::new);
        if single && tenants == 1 {
            // One tenant, one node: every event lands in share 0 with the
            // full mask, so the scatter collapses to a clamp + media-index
            // pass fused into one `extend` — each `Classified` is written
            // into the share buffer once, exactly like the pool's own
            // classify pass, instead of bouncing through the match below.
            let mut last = self.last_packet_ms;
            let member = &mut self.members[0];
            shares[0].extend(events.enumerate().map(|(idx, ev)| {
                let t_ms = now_ms.max(ev.at.as_millis()).max(last);
                last = t_ms;
                if let Classified::Sip { event, .. } = &ev.classified {
                    if let Some(media) = SipArgs::get().sdp_media(event) {
                        member.media_to_node.insert(media, 0);
                    }
                }
                FedEvent {
                    classified: ev.classified,
                    t_ms,
                    idx,
                    mask: PartMask::ALL,
                }
            }));
            self.last_packet_ms = last;
            self.ingest_and_merge(&mut shares, now, sink);
            self.shares = shares;
            if sweeping {
                self.expire_media_routes();
            }
            return;
        }
        for (idx, ev) in events.enumerate() {
            let t_ms = now_ms.max(ev.at.as_millis()).max(self.last_packet_ms);
            self.last_packet_ms = t_ms;
            let tenant = self.tenants.tenant_of(ev.src_ip) as usize;
            let member = &mut self.members[tenant];
            if single {
                // One node owns every key: skip the routing hashes — the
                // gateway is a tenant-demuxing pass-through. The media
                // index is still maintained (entries point at node 0, and
                // call state never migrates) so a later `set_nodes` keeps
                // routing established calls' media to their owner.
                if let Classified::Sip { event, .. } = &ev.classified {
                    if let Some(media) = SipArgs::get().sdp_media(event) {
                        member.media_to_node.insert(media, 0);
                    }
                }
                shares[tenant].push(FedEvent {
                    classified: ev.classified,
                    t_ms,
                    idx,
                    mask: PartMask::ALL,
                });
                continue;
            }
            let hint = route_hint(&ev.classified);
            let lane = |node: usize| tenant * self.nodes + node;
            match &ev.classified {
                Classified::Sip { event, .. } => {
                    if event.name == sym::SIP_REGISTER {
                        shares[lane(rendezvous(hint.call_hash(), self.nodes))].push(FedEvent {
                            classified: ev.classified,
                            t_ms,
                            idx,
                            mask: PartMask {
                                call: true,
                                flood: false,
                            },
                        });
                        continue;
                    }
                    let call_node = rendezvous(hint.call_hash(), self.nodes);
                    if let Some(media) = SipArgs::get().sdp_media(event) {
                        member.media_to_node.insert(media, call_node);
                    }
                    let flood_node = (event.name == sym::SIP_INVITE)
                        .then(|| rendezvous(hint.flood_hash(), self.nodes));
                    match flood_node {
                        Some(f) if f != call_node => {
                            // The destination-pinned part lives on another
                            // node: send the event to both with
                            // complementary masks.
                            shares[lane(f)].push(FedEvent {
                                classified: ev.classified.clone(),
                                t_ms,
                                idx,
                                mask: PartMask {
                                    call: false,
                                    flood: true,
                                },
                            });
                            shares[lane(call_node)].push(FedEvent {
                                classified: ev.classified,
                                t_ms,
                                idx,
                                mask: PartMask {
                                    call: true,
                                    flood: false,
                                },
                            });
                        }
                        _ => shares[lane(call_node)].push(FedEvent {
                            classified: ev.classified,
                            t_ms,
                            idx,
                            mask: PartMask::ALL,
                        }),
                    }
                }
                Classified::Rtp { event } => {
                    // Media follows the call: negotiated coordinates route
                    // to the owning node, the rest by coordinate hash so
                    // any node count flags the same packet as unassociated
                    // exactly once.
                    let node = member
                        .media_to_node
                        .get(&RtpArgs::get().dst(event))
                        .copied()
                        .unwrap_or_else(|| rendezvous(hint.call_hash(), self.nodes));
                    shares[lane(node)].push(FedEvent {
                        classified: ev.classified,
                        t_ms,
                        idx,
                        mask: PartMask {
                            call: true,
                            flood: false,
                        },
                    });
                }
                Classified::Malformed { .. } | Classified::Ignored => {
                    // No call, destination or media key: pinned to the
                    // key-0 node so the malformed dedup set lives (and
                    // deduplicates) in exactly one place.
                    shares[lane(rendezvous(0, self.nodes))].push(FedEvent {
                        classified: ev.classified,
                        t_ms,
                        idx,
                        mask: PartMask {
                            call: true,
                            flood: false,
                        },
                    });
                }
            }
        }

        self.ingest_and_merge(&mut shares, now, sink);
        self.shares = shares;

        // A sweep may have evicted finished calls: expire their media
        // routes, as the pool does for its shard-level index.
        if sweeping {
            self.expire_media_routes();
        }
    }

    /// Ingest + merge, one tenant at a time (tenants are hard-isolated:
    /// separate pools, separate logs, ordered output by tenant id).
    /// Every pool sees every batch — empty shares included — so the
    /// sweep clock stays in lock-step across nodes.
    fn ingest_and_merge<S: AlertSink + ?Sized>(
        &mut self,
        shares: &mut [Vec<FedEvent>],
        now: SimTime,
        sink: &mut S,
    ) {
        let tenants = self.members.len();
        for tenant in 0..tenants {
            let mut tagged = std::mem::take(&mut self.scratch_alerts);
            let mut misses = std::mem::take(&mut self.scratch_misses);
            for node in 0..self.nodes {
                let share = &mut shares[tenant * self.nodes + node];
                let mut out = self.members[tenant].pools[node].process_federated_batch(share, now);
                tagged.append(&mut out.alerts);
                misses.append(&mut out.misses);
            }
            // Cross-node DRDoS forwarding, in global packet order — the
            // federation-wide spelling of the pool's deferred phase 4.
            misses.sort_unstable_by_key(|m| m.idx);
            for node in 0..self.nodes {
                let share: Vec<FedMiss> = misses
                    .iter()
                    .filter(|m| rendezvous(key_hash(&m.dst_ip.to_le_bytes()), self.nodes) == node)
                    .copied()
                    .collect();
                if !share.is_empty() {
                    tagged.extend(self.members[tenant].pools[node].apply_federated_misses(&share));
                }
            }
            misses.clear();
            self.scratch_misses = misses;
            self.emit(tenant as TenantId, &mut tagged, sink);
        }
    }

    /// Advances idle timers and evicts finished calls on every node —
    /// the cluster twin of [`VidsPool::tick`].
    pub fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        let now_ms = now.as_millis();
        if now_ms < SWEEP_INTERVAL_MS {
            return;
        }
        self.last_sweep_ms = now_ms;
        if let Some(slab) = &self.telemetry {
            slab.inc(Counter::TimerSweeps);
        }
        for tenant in 0..self.members.len() {
            let mut tagged = std::mem::take(&mut self.scratch_alerts);
            for node in 0..self.nodes {
                tagged.extend(self.members[tenant].pools[node].federated_tick(now));
            }
            self.emit(tenant as TenantId, &mut tagged, sink);
        }
        self.expire_media_routes();
    }

    /// Sorts one tenant's key-tagged alerts into the deterministic merge
    /// order, then logs and sinks them.
    fn emit<S: AlertSink + ?Sized>(
        &mut self,
        tenant: TenantId,
        tagged: &mut Vec<FedAlert>,
        sink: &mut S,
    ) {
        // Stable sort: equal keys (possible only for scope-less sweep
        // alerts) keep node order, which is itself deterministic.
        tagged.sort_by(FedAlert::merge_order);
        for fed in tagged.drain(..) {
            sink.accept(fed.alert.clone());
            self.alerts.push(ClusterAlert {
                tenant,
                alert: fed.alert,
            });
        }
        self.scratch_alerts = std::mem::take(tagged);
    }

    /// Drops media routes whose calls no longer exist on their owning node.
    fn expire_media_routes(&mut self) {
        for member in &mut self.members {
            let pools = &member.pools;
            member
                .media_to_node
                .retain(|(ip, port), node| pools[*node].media_negotiated(ip.as_str(), *port));
        }
    }

    /// A cluster-wide telemetry snapshot: every node pool's shard slabs
    /// concatenated (tenant-major, node-minor), with the pool-level slabs
    /// of all nodes plus the gateway's batch slab merged into one. Its
    /// [`Snapshot::deterministic`] view equals the single pool's for the
    /// same traffic, whatever the node count.
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<Snapshot> {
        let gateway = self.telemetry.as_ref()?;
        let mut shards: Vec<SlabSnapshot> = Vec::new();
        let mut pool_slab = gateway.snapshot();
        for member in &self.members {
            for pool in &member.pools {
                let snap = pool.telemetry_snapshot(now)?;
                shards.extend(snap.shards);
                pool_slab.merge(&snap.pool);
            }
        }
        Some(Snapshot {
            time_ms: now.as_millis(),
            shards,
            pool: pool_slab,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
