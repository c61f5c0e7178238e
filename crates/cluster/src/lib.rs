//! # vids-cluster — multi-tenant federation of analysis pools
//!
//! Spreads the interacting-protocol-state-machine IDS over N in-process
//! nodes of a [`VidsPool`](vids_core::VidsPool), with per-tenant
//! namespaces layered on top.
//!
//! The load-bearing property is the same one the pool layer proved at
//! shard granularity: the paper's detectors decompose over independent
//! keys (call-id, destination IP, AOR, media coordinates), so a datagram
//! can be split into its protocol-role parts and each part analyzed
//! wherever its key lives — **as long as routing is a pure function of
//! the bytes and merge order is a pure function of arrival order**. A
//! node is a group of pool shards: the pool places each key on node group
//! [`rendezvous`](vids_core::pool::rendezvous)`(hash, nodes)` and merges
//! the engines' key-tagged alerts back into the single pool's
//! byte-identical sequence; `tests/cluster_determinism.rs` pins
//! `cluster(n) == pool` for every node count.
//!
//! Tenancy is the second axis: a [`TenantMap`] assigns each source prefix
//! to a tenant with its own detection thresholds
//! ([`Config`](vids_core::Config)) and call-table quota, and each tenant
//! gets its own pool — one tenant's flood can neither trip another's
//! (lower) thresholds nor evict another's call state.
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
pub mod tenant;

pub use gateway::{Cluster, ClusterAlert, ClusterEvent};
pub use tenant::{Tenant, TenantId, TenantMap};
