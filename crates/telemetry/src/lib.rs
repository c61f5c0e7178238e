//! # vids-telemetry — lock-free observability for the analysis engine
//!
//! The paper evaluates vids operationally — call-setup delay, RTP QoS
//! impact, CPU and memory overhead (§7) — and a production deployment needs
//! exactly those signals live, not post-mortem. This crate is the
//! observability layer threaded through the engine, the sharded pool and
//! the CLI:
//!
//! * [`metrics`] — the fixed metric inventory: [`metrics::Counter`],
//!   [`metrics::Gauge`] and [`metrics::HistId`] name every slot at compile
//!   time, so recording is an array index, never a hash lookup.
//! * [`slab::ShardSlab`] — one cache-friendly block of relaxed atomics per
//!   shard, allocated once when its engine or pool is built: the one store
//!   of every count, telemetry on or off. The record path is wait-free and
//!   allocation-free, preserving the engine's warm-packet allocation budget
//!   (see `tests/alloc_budget.rs` in the workspace root).
//! * [`hist::AtomicHistogram`] — log₂-bucketed histograms recorded with one
//!   `fetch_add`; [`hist::LinearHistogram`] is the fixed-width evaluation
//!   histogram the netsim statistics re-export.
//! * [`ring::TransitionRing`] — a fixed-capacity ring of recent EFSM
//!   transitions, dumped into alerts so every detection carries the last
//!   transitions of the offending call for forensics.
//! * [`registry::Registry`] — the per-process handle: one slab per shard
//!   plus a pool-level slab, merged deterministically at snapshot time.
//! * [`snapshot::Snapshot`] — point-in-time export, serialized by hand as
//!   JSON-lines or CSV (no serialization dependency on the hot path).
//!
//! ```
//! use vids_telemetry::metrics::Counter;
//! use vids_telemetry::registry::Registry;
//!
//! let reg = Registry::new(4); // 4 shards + 1 pool slab
//! reg.shard(0).inc(Counter::RtpPackets);
//! reg.shard(3).inc(Counter::RtpPackets);
//! let snap = reg.snapshot(1_000);
//! assert_eq!(snap.merged().counter(Counter::RtpPackets), 2);
//! ```

pub mod hist;
pub mod metrics;
pub mod registry;
pub mod ring;
pub mod slab;
pub mod snapshot;

pub use hist::{
    bucket_lower_bound, bucket_of, AtomicHistogram, HistSnapshot, LinearHistogram, LOG2_BUCKETS,
};
pub use metrics::{Counter, Gauge, HistId};
pub use registry::Registry;
pub use ring::{TransitionRecord, TransitionRing};
pub use slab::ShardSlab;
pub use snapshot::{SlabSnapshot, Snapshot};
