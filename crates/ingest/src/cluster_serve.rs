//! The federated serve pipeline: the one receiver/coordinator loop of
//! [`crate::server`] driving a [`Cluster`] gateway instead of a single
//! pool's pipeline session.
//!
//! Each datagram is classified into a [`ClusterEvent`] carrying its IPv4
//! source (the tenant-mapping key), and the coordinator drives
//! [`Cluster::process_batch`], which scatters every batch across the
//! per-tenant, per-node pools and merges the alerts back
//! deterministically. Differences from the single-pool path, on purpose:
//!
//! * No shard-worker pipeline inside the coordinator: the cluster gateway
//!   is itself the fan-out layer, and each node pool runs its batch
//!   inline. (Per-node OS threads are a deployment concern the in-process
//!   federation deliberately models without.)
//! * No flight recorder: forensic dumps stay a single-pool feature;
//!   record a tenant's traffic by serving it through `vids serve
//!   --record` undistributed.
//! * Plain-IPv6 datagrams have no IPv4 source to map, so they fall to the
//!   default tenant's drop accounting (they are dropped either way — the
//!   engine models IPv4 only).

use std::sync::atomic::AtomicBool;

use vids_cluster::{Cluster, ClusterEvent};
use vids_core::classify::Classified;
use vids_core::pool::VidsPool;
use vids_core::sink::AlertSink;
use vids_core::telemetry::ShardSlab;
use vids_netsim::time::SimTime;

use crate::datagram::Datagram;
use crate::server::{serve_engine, ServeEngine, ServeOptions, ServeReport};
use crate::source::IngestError;
use crate::udp::UdpPool;

impl ServeEngine for Cluster {
    type Event = ClusterEvent;

    fn event(classified: Classified, d: &Datagram<'_>) -> ClusterEvent {
        // The IPv4 source selects the tenant; plain v6 has none and falls
        // to the default tenant (the datagram is a drop anyway).
        let src_ip = d.engine_addrs().map(|(src, _)| src.ip).unwrap_or(0);
        ClusterEvent {
            classified,
            at: d.at,
            src_ip,
        }
    }

    fn at(event: &ClusterEvent) -> SimTime {
        event.at
    }

    fn submit<S: AlertSink + ?Sized>(
        &mut self,
        events: &mut Vec<ClusterEvent>,
        now: SimTime,
        sink: &mut S,
    ) {
        self.process_batch(events, now, sink);
    }

    fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        Cluster::tick(self, now, sink);
    }

    fn in_flight(&self) -> u64 {
        0 // every node pool ingests its share inline
    }

    fn slab(&self) -> Option<&ShardSlab> {
        self.telemetry_slab()
    }

    fn quiesced_pool<S: AlertSink + ?Sized>(&mut self, _sink: &mut S) -> Option<&VidsPool> {
        None // a federation has no single pool for the recorder to dump
    }
}

/// Binds the receiver loops to `cluster` and serves until `stop` is set.
/// The cluster's own telemetry slab (when enabled) receives the
/// socket-side counters, so [`Cluster::telemetry_snapshot`] reports them
/// exactly as the single-pool serve path does.
pub fn serve_cluster_on<S: AlertSink + ?Sized>(
    cluster: &mut Cluster,
    udp: UdpPool,
    opts: &ServeOptions,
    stop: &AtomicBool,
    sink: &mut S,
) -> Result<ServeReport, IngestError> {
    Ok(serve_engine(cluster, udp, opts, stop, None, sink))
}
