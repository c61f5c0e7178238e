//! The cluster front: a thin shim over one tenant-mapped [`VidsPool`].
//!
//! A tenant is an engine group of the pool ([`VidsPool::with_tenants`]),
//! and so is a node ([`VidsPool::set_nodes`]): the pool picks each
//! datagram's tenant from its address pair, places every protocol-role
//! part on the engine owning its key inside that tenant's group, and
//! merges the engines' key-tagged alerts in one order. The cluster only
//! adapts [`ClusterEvent`] batches to the pool and keeps a tenant-tagged
//! alert log, teed off the stream the pool hands the caller's sink.

use vids_core::pool::{VidsPool, WireEvent};
use vids_core::tenant::{TenantId, TenantMap};
use vids_core::{Alert, AlertSink, Classified, CostModel, Tee, VidsCounters};
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;
use vids_telemetry::Snapshot;

/// One classified datagram entering the cluster: what the classifier made
/// of it, when it arrived, and its IPv4 source.
#[derive(Debug, Clone)]
pub struct ClusterEvent {
    /// The classifier's verdict.
    pub classified: Classified,
    /// Receive (or capture) timestamp.
    pub at: SimTime,
    /// IPv4 source, network byte order packed. Informational: the tenant
    /// comes from the addresses inside `classified`.
    pub src_ip: u32,
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

/// The cluster's alert log: every alert the pool merged, with the tenant
/// it handed over beside it.
#[derive(Default)]
struct TenantLog(Vec<ClusterAlert>);

impl AlertSink for TenantLog {
    fn accept(&mut self, alert: Alert) {
        self.accept_from(0, alert);
    }

    fn accept_from(&mut self, tenant: TenantId, alert: Alert) {
        self.0.push(ClusterAlert { tenant, alert });
    }
}

/// One tenant-mapped [`VidsPool`] of `nodes` node groups.
pub struct Cluster {
    pool: VidsPool,
    /// Cluster-wide alert log in the pool's merge order, tenant-tagged.
    alerts: TenantLog,
    /// Reusable batch buffer.
    batch: Vec<WireEvent>,
}

impl Cluster {
    /// A cluster with an explicit per-packet cost model (tests use
    /// [`CostModel::free`] to match wall-clock-free pool runs).
    pub fn with_cost(tenants: TenantMap, nodes: usize, cost: CostModel) -> Self {
        let mut pool = VidsPool::with_tenants(tenants, cost);
        pool.set_nodes(nodes);
        Cluster {
            pool,
            alerts: TenantLog::default(),
            batch: Vec::new(),
        }
    }

    /// Enables telemetry on the pool.
    pub fn enable_telemetry(&mut self, ring_capacity: usize) {
        self.pool.enable_telemetry(ring_capacity);
    }

    /// The pool behind the cluster.
    pub fn pool(&self) -> &VidsPool {
        &self.pool
    }

    /// Every alert raised so far, in deterministic merge order,
    /// tenant-tagged.
    pub fn alerts(&self) -> &[ClusterAlert] {
        &self.alerts.0
    }

    /// Aggregate traffic counters for one tenant, across its nodes.
    pub fn tenant_counters(&self, tenant: TenantId) -> VidsCounters {
        self.pool.tenant_counters(tenant)
    }

    /// Aggregate traffic counters across every tenant and node.
    pub fn counters(&self) -> VidsCounters {
        self.pool.counters()
    }

    /// Calls currently monitored, summed over tenants and nodes.
    pub fn monitored_calls(&self) -> usize {
        self.pool.monitored_calls()
    }

    /// Calls currently monitored for one tenant.
    pub fn tenant_monitored_calls(&self, tenant: TenantId) -> usize {
        self.pool.tenant_monitored_calls(tenant)
    }

    /// Rebalances the pool to `nodes` nodes; see [`VidsPool::set_nodes`].
    pub fn set_nodes(&mut self, nodes: usize) {
        self.pool.set_nodes(nodes);
    }

    /// Classifies and processes a batch of in-process packets — the
    /// cluster twin of [`VidsPool::process_batch`].
    pub fn process_packets<S: AlertSink + ?Sized>(
        &mut self,
        packets: &[Packet],
        now: SimTime,
        sink: &mut S,
    ) {
        let mut sink = Tee {
            copy: Some(&mut self.alerts),
            sink,
        };
        self.pool.process_batch(packets, now, &mut sink);
    }

    /// Processes one batch of classified events through the pool. Alerts
    /// go to `sink` and the tenant-tagged log.
    pub fn process_batch<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<ClusterEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        self.batch.extend(events.drain(..).map(|ev| WireEvent {
            classified: ev.classified,
            at: ev.at,
        }));
        let mut sink = Tee {
            copy: Some(&mut self.alerts),
            sink,
        };
        self.pool
            .process_wire_batch(&mut self.batch, now, &mut sink);
    }

    /// Advances idle timers and evicts finished calls — the cluster twin
    /// of [`VidsPool::tick`].
    pub fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        let mut sink = Tee {
            copy: Some(&mut self.alerts),
            sink,
        };
        self.pool.tick(now, &mut sink);
    }

    /// The pool's telemetry snapshot, once telemetry is enabled.
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<Snapshot> {
        self.pool.telemetry_snapshot(now)
    }
}
