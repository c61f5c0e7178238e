//! # vids — VoIP Intrusion Detection Through Interacting Protocol State Machines
//!
//! A full reproduction of Sengar, Wijesekera, Wang & Jajodia's DSN 2006
//! paper: a specification-based VoIP IDS built from **communicating
//! extended finite state machines** for SIP and RTP, evaluated on a
//! simulated twin-enterprise testbed.
//!
//! The workspace splits into layers, re-exported here:
//!
//! * [`sip`], [`sdp`], [`rtp`] — the protocol substrates (parsers, message
//!   models, RFC 3261 transactions, the RFC 3550 jitter estimator).
//! * [`efsm`] — the paper's formal model (§4): EFSMs with predicates and
//!   update actions, composed into networks with FIFO δ channels where
//!   synchronization events outrank data events.
//! * [`netsim`] — a deterministic discrete-event network simulator standing
//!   in for the paper's OPNET testbed (Fig. 7 topology builder included).
//! * [`agents`] — simulated SIP phones and proxies that generate the §7.1
//!   workload and collect the Figs. 8–10 measurements.
//! * [`attacks`] — injectors for every §3 threat.
//! * [`core`] — **vids itself**: classifier, fact base, protocol machines,
//!   attack patterns, analysis engine, inline tap, and the sharded pool,
//!   whose engine groups are its nodes and tenants (DESIGN.md §7j).
//! * [`cluster`] — a thin `Cluster` shim over one tenant-mapped pool,
//!   kept for the benchmark's sake; new code uses the pool directly.
//! * [`ingest`] — the live wire tier: UDP receiver pools, classic pcap
//!   reading, SIP/RTP demultiplexing, the `vids serve` / `vids replay`
//!   pipelines.
//! * [`telemetry`] — runtime observability: per-shard atomic counters,
//!   gauges and log-bucketed histograms merged into deterministic
//!   snapshots, plus the per-call transition rings behind alert traces.
//! * [`record`] — the flight recorder: always-on per-shard datagram
//!   rings, alert-triggered `.vdump` forensic dumps, deterministic
//!   dump replay and a drop-one-packet minimizer (DESIGN.md §7h).
//! * [`run_report`] — shared end-of-run reporting for the `vids serve`
//!   and `vids replay` pipelines.
//! * [`scenario`] — a one-call harness wiring all of the above: build the
//!   enterprise testbed with or without vids inline, run workloads, launch
//!   attacks, read back alerts and QoS measurements.
//!
//! ## Quickstart
//!
//! ```
//! use vids::scenario::{Testbed, TestbedConfig};
//! use vids::netsim::time::SimTime;
//!
//! // Two UAs per site, vids inline, one scripted call.
//! let mut config = TestbedConfig::small(42);
//! config.workload.horizon = SimTime::from_secs(30);
//! let mut tb = Testbed::build(&config);
//! tb.run_until(SimTime::from_secs(40));
//! assert!(tb.vids_alerts().is_empty(), "clean traffic raises no alarms");
//! ```

pub use vids_agents as agents;
pub use vids_attacks as attacks;
pub use vids_cluster as cluster;
pub use vids_core as core;
pub use vids_efsm as efsm;
pub use vids_ingest as ingest;
pub use vids_netsim as netsim;
pub use vids_record as record;
pub use vids_rtp as rtp;
pub use vids_scan as scan;
pub use vids_sdp as sdp;
pub use vids_sip as sip;
pub use vids_telemetry as telemetry;

pub mod run_report;
pub mod scenario;
