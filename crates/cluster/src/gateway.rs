//! The cluster front: a tenant demux over one [`VidsPool`] per tenant.
//!
//! A [`Cluster`] scales the paper's engine past one pool the same way the
//! pool scaled it past one engine — by exploiting the per-call (and
//! per-destination, per-AOR) independence of the protocol state machines.
//! A node is a group of pool shards ([`VidsPool::set_nodes`]): the pool
//! places every protocol-role part of a datagram on the engine owning its
//! key, node group by rendezvous hashing and shard by the same FNV-1a key
//! hash, and merges the engines' key-tagged alerts. The cluster classifies
//! and routes nothing itself; it maps each event's source to a tenant and
//! hands each tenant's share of a batch to that tenant's pool.
//!
//! Determinism is the design constraint, inherited from the pool layer:
//!
//! * **Timestamps** are clamped monotonic across the global batch order
//!   before the split, so every tenant pool sees the packet clock one
//!   sequential pass would have assigned (the pool's own clamp is then a
//!   no-op).
//! * **Sweeps** fire in lock-step: every tenant pool receives every batch
//!   (its share may be empty) with the batch's `now`.
//! * **Alerts** reach the sink tenant by tenant within each batch, each
//!   tenant's in its pool's merge order; the sequence is byte-identical
//!   whatever the node count, including one node vs. a plain pool.

use vids_core::classify::classify;
use vids_core::pool::{VidsPool, WireEvent};
use vids_core::{Alert, AlertSink, Classified, CostModel, VidsCounters};
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;
use vids_telemetry::{Registry, ShardSlab, SlabSnapshot, Snapshot};

use crate::tenant::{TenantId, TenantMap};

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

/// Tags a tenant pool's alerts on their way to the caller's sink and the
/// cluster log.
struct TenantSink<'a, S: ?Sized> {
    tenant: TenantId,
    log: &'a mut Vec<ClusterAlert>,
    sink: &'a mut S,
}

impl<S: AlertSink + ?Sized> AlertSink for TenantSink<'_, S> {
    fn accept(&mut self, alert: Alert) {
        self.sink.accept(alert.clone());
        self.log.push(ClusterAlert {
            tenant: self.tenant,
            alert,
        });
    }
}

/// One [`VidsPool`] per tenant, each of `nodes` node groups, behind a
/// tenant demux. See the module docs for the invariants.
pub struct Cluster {
    tenants: TenantMap,
    /// One pool per tenant, by tenant id.
    pools: Vec<VidsPool>,
    /// Cluster-wide alert log in deterministic merge order, tenant-tagged.
    alerts: Vec<ClusterAlert>,
    /// Monotonic clamp over the global packet order, applied before the
    /// split so every tenant pool's clock agrees with one sequential pass.
    last_packet_ms: u64,
    /// Reusable per-tenant batch buffers.
    batches: Vec<Vec<WireEvent>>,
}

impl Cluster {
    /// A cluster of `nodes` nodes under `tenants`, default cost model.
    pub fn new(tenants: TenantMap, nodes: usize) -> Self {
        Cluster::with_cost(tenants, nodes, CostModel::default())
    }

    /// A cluster with an explicit per-packet cost model (tests use
    /// [`CostModel::free`] to match wall-clock-free pool runs).
    pub fn with_cost(tenants: TenantMap, nodes: usize, cost: CostModel) -> Self {
        let pools = tenants
            .iter()
            .map(|t| {
                let mut pool = VidsPool::with_cost(t.config, cost);
                pool.set_nodes(nodes);
                pool
            })
            .collect();
        Cluster {
            batches: (0..tenants.len()).map(|_| Vec::new()).collect(),
            tenants,
            pools,
            alerts: Vec::new(),
            last_packet_ms: 0,
        }
    }

    /// Enables telemetry on every tenant pool. [`Cluster::telemetry_snapshot`]
    /// then merges them into one cluster-wide [`Snapshot`].
    pub fn enable_telemetry(&mut self, ring_capacity: usize) {
        for pool in &mut self.pools {
            pool.enable_telemetry(ring_capacity);
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.pools[0].nodes()
    }

    /// The default tenant's pool slab, once [`Cluster::enable_telemetry`]
    /// has run. Ingest frontends mirror their socket-side counters
    /// (datagrams received, dropped, demux verdicts) here so the merged
    /// cluster snapshot carries them, exactly as the single-pool serve path
    /// mirrors into the pool slab.
    pub fn telemetry_slab(&self) -> Option<&ShardSlab> {
        self.pools[0].telemetry().map(Registry::pool)
    }

    /// The tenant table.
    pub fn tenants(&self) -> &TenantMap {
        &self.tenants
    }

    /// One tenant's pool, for introspection.
    pub fn pool(&self, tenant: TenantId) -> &VidsPool {
        &self.pools[tenant as usize]
    }

    /// Every alert raised so far, in deterministic merge order,
    /// tenant-tagged.
    pub fn alerts(&self) -> &[ClusterAlert] {
        &self.alerts
    }

    /// Aggregate traffic counters for one tenant, across its nodes.
    pub fn tenant_counters(&self, tenant: TenantId) -> VidsCounters {
        self.pool(tenant).counters()
    }

    /// Aggregate traffic counters across every tenant and node.
    pub fn counters(&self) -> VidsCounters {
        let mut total = VidsCounters::default();
        for pool in &self.pools {
            total += pool.counters();
        }
        total
    }

    /// Calls currently monitored, summed over tenants and nodes.
    pub fn monitored_calls(&self) -> usize {
        self.pools.iter().map(VidsPool::monitored_calls).sum()
    }

    /// Calls currently monitored for one tenant.
    pub fn tenant_monitored_calls(&self, tenant: TenantId) -> usize {
        self.pool(tenant).monitored_calls()
    }

    /// Rebalances every tenant pool to `nodes` nodes; see
    /// [`VidsPool::set_nodes`].
    pub fn set_nodes(&mut self, nodes: usize) {
        for pool in &mut self.pools {
            pool.set_nodes(nodes);
        }
    }

    /// Classifies and processes a batch of in-process packets — the
    /// cluster twin of [`VidsPool::process_batch`].
    pub fn process_packets<S: AlertSink + ?Sized>(
        &mut self,
        packets: &[Packet],
        now: SimTime,
        sink: &mut S,
    ) {
        self.run_batch(packets.iter().map(ClusterEvent::from_packet), now, sink);
    }

    /// Processes one global batch of classified events: the monotonic
    /// clamp, the tenant split, and one pool batch per tenant. Alerts go to
    /// `sink` and the tenant-tagged log.
    pub fn process_batch<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<ClusterEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        self.run_batch(events.drain(..), now, sink);
    }

    fn run_batch<S: AlertSink + ?Sized>(
        &mut self,
        events: impl Iterator<Item = ClusterEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        let now_ms = now.as_millis();
        for ev in events {
            let t_ms = now_ms.max(ev.at.as_millis()).max(self.last_packet_ms);
            self.last_packet_ms = t_ms;
            let tenant = self.tenants.tenant_of(ev.src_ip) as usize;
            self.batches[tenant].push(WireEvent {
                classified: ev.classified,
                at: SimTime::from_millis(t_ms),
            });
        }
        for (tenant, (pool, batch)) in self.pools.iter_mut().zip(&mut self.batches).enumerate() {
            let mut sink = TenantSink {
                tenant: tenant as TenantId,
                log: &mut self.alerts,
                sink: &mut *sink,
            };
            pool.process_wire_batch(batch, now, &mut sink);
        }
    }

    /// Advances idle timers and evicts finished calls in every tenant
    /// pool — the cluster twin of [`VidsPool::tick`].
    pub fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        for (tenant, pool) in self.pools.iter_mut().enumerate() {
            let mut sink = TenantSink {
                tenant: tenant as TenantId,
                log: &mut self.alerts,
                sink: &mut *sink,
            };
            pool.tick(now, &mut sink);
        }
    }

    /// A cluster-wide telemetry snapshot: every tenant pool's shard slabs
    /// concatenated (tenant-major, node-minor), with their pool slabs
    /// merged into one. With one tenant its [`Snapshot::deterministic`]
    /// view equals the single pool's for the same traffic, whatever the
    /// node count; each further tenant pool counts the batch-level books
    /// (batches, batch sizes, sweeps) of every global batch once more.
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<Snapshot> {
        let mut shards: Vec<SlabSnapshot> = Vec::new();
        let mut pool_slab = SlabSnapshot::zeroed();
        for pool in &self.pools {
            let snap = pool.telemetry_snapshot(now)?;
            shards.extend(snap.shards);
            pool_slab.merge(&snap.pool);
        }
        Some(Snapshot {
            time_ms: now.as_millis(),
            shards,
            pool: pool_slab,
        })
    }
}
