//! # vids-cluster — the multi-tenant cluster shim
//!
//! Tenants and nodes are engine groups of one
//! [`VidsPool`](vids_core::VidsPool) now
//! ([`VidsPool::with_tenants`](vids_core::VidsPool::with_tenants),
//! [`VidsPool::set_nodes`](vids_core::VidsPool::set_nodes); DESIGN.md §7j).
//! What is left here is a thin [`Cluster`] over one such pool, which adapts
//! [`ClusterEvent`] batches and keeps a tenant-tagged alert log, and the
//! re-export of [`TenantMap`] from `vids-core`.
//!
//! ```
//! use vids_cluster::{Cluster, ClusterEvent, TenantMap};
//! use vids_core::{CollectSink, Config, CostModel};
//! use vids_netsim::time::SimTime;
//!
//! let tenants = TenantMap::parse(
//!     "tenant acme 10.1.0.0/16 invite_flood_n=5 max_calls=10000",
//!     Config::default(),
//! )
//! .unwrap();
//! let mut cluster = Cluster::with_cost(tenants, 4, CostModel::free());
//! let mut sink = CollectSink::default();
//! let mut batch: Vec<ClusterEvent> = Vec::new(); // classify datagrams in
//! cluster.process_batch(&mut batch, SimTime::from_millis(10), &mut sink);
//! assert_eq!(cluster.alerts().len(), 0);
//! ```

mod gateway;

pub use gateway::{Cluster, ClusterAlert, ClusterEvent};
pub use vids_core::tenant::{Tenant, TenantId, TenantMap};
