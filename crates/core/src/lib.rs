//! # vids-core — VoIP intrusion detection through interacting protocol state machines
//!
//! The paper's contribution (Sengar, Wijesekera, Wang, Jajodia — DSN 2006):
//! an online, specification-based VoIP IDS that tracks every monitored call
//! with a pair of **communicating extended finite state machines** — one for
//! SIP signaling, one for the RTP media session — synchronized through FIFO
//! δ-message channels and shared per-call global variables.
//!
//! Architecture (paper Fig. 3), module by module:
//!
//! * [`classify`] — the *Packet Classifier / Event Distributor*: groups
//!   packets per call (SIP by Call-ID, RTP by the media coordinates the SIP
//!   machine published) and converts them to EFSM events.
//! * [`factbase`] — the *Call State Fact Base*: one EFSM network per
//!   ongoing call plus per-destination flood machines; evicts calls whose
//!   machines all reached final states; accounts per-call memory (§7.3).
//! * [`machines`] — the protocol state machines of Figs. 2, 4, 5, 6 and
//!   the *Attack Scenario* annotations (attack states).
//! * [`engine`] — the *Analysis Engine*: [`engine::Vids::process`] feeds
//!   each packet through the machinery and returns the raised [`Alert`]s.
//! * [`cost`] — the per-packet processing-delay model calibrated to §7's
//!   measurements (+100 ms call setup, +1.5 ms RTP, 3.6 % CPU).
//! * [`tap`] — [`tap::VidsTap`]: mounts the IDS inline on a
//!   [`vids_netsim::node::TapNode`] between edge router and hub (Fig. 1).
//! * [`sink`] — push-based alert delivery ([`sink::AlertSink`]); the engine
//!   raises alerts into a sink instead of allocating a `Vec` per packet.
//! * [`pool`] — [`pool::VidsPool`]: the scale-out engine; hash-partitions
//!   monitored calls across independent shards and ingests packets in
//!   batches with parallel shard execution.
//! * [`tenant`] — [`tenant::TenantMap`]: address prefixes → per-tenant
//!   configurations; a tenant-mapped pool gives each tenant its own engine
//!   group.
//!
//! Observability comes from the `vids-telemetry` crate (re-exported here as
//! [`telemetry`]), whose slabs are the one store of every count: an engine
//! counts into its own from construction, a pool into its registry
//! ([`pool::VidsPool::registry`]). [`engine::Vids::enable_telemetry`] /
//! [`pool::VidsPool::enable_telemetry`] add what costs more than a count
//! (transition rings; on a pool, the merge clock and the histograms) and
//! let you read back merged snapshots of per-shard counters,
//! gauges and histograms; alerts then also carry the recent EFSM
//! transitions of their call (the `trace` field).
//!
//! ```
//! use vids_core::prelude::*;
//! use vids_netsim::packet::{Address, Packet, Payload};
//! use vids_netsim::time::SimTime;
//!
//! let mut vids = Vids::new(Config::default());
//! let invite = "INVITE sip:bob@b.example.com SIP/2.0\r\n\
//!               Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK1\r\n\
//!               From: <sip:alice@a.example.com>;tag=1\r\n\
//!               To: <sip:bob@b.example.com>\r\n\
//!               Call-ID: quickstart-1\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n";
//! let pkt = Packet {
//!     src: Address::new(10, 1, 0, 10, 5060),
//!     dst: Address::new(10, 2, 0, 10, 5060),
//!     payload: Payload::Sip(invite.to_owned()),
//!     id: 0,
//!     sent_at: SimTime::ZERO,
//! };
//! let mut alerts = CollectSink::new();
//! vids.process(&pkt, SimTime::ZERO, &mut alerts);
//! assert!(alerts.is_empty(), "a clean INVITE raises nothing");
//! assert_eq!(vids.monitored_calls(), 1);
//! ```

pub mod alert;
pub mod classify;
pub mod config;
pub mod cost;
pub mod engine;
pub mod factbase;
pub mod machines;
pub mod pool;
pub mod report;
pub mod sink;
pub mod snapshot;
pub mod tap;
pub mod tenant;

pub use vids_telemetry as telemetry;

/// The one-stop import for driving the IDS:
/// `use vids_core::prelude::*;`.
pub mod prelude {
    pub use crate::alert::{Alert, AlertKind, Detail};
    pub use crate::classify::{classify_wire, Classified, WireProto};
    pub use crate::config::{Config, ConfigBuilder, ConfigError};
    pub use crate::engine::{Vids, VidsCounters};
    pub use crate::pool::{route_hint, PipelineIngress, PreRouted, RouteHint, VidsPool, WireEvent};
    pub use crate::sink::{AlertSink, CollectSink, NullSink};
    pub use crate::tap::VidsTap;
}

pub use alert::{Alert, AlertKind, Detail};
pub use classify::{classify_wire, Classified, WireProto};
pub use config::{Config, ConfigBuilder, ConfigError};
pub use cost::CostModel;
pub use engine::{Vids, VidsCounters};
pub use pool::{route_hint, PipelineIngress, PreRouted, RouteHint, VidsPool, WireEvent};
pub use report::AlertReport;
pub use sink::{AlertSink, CollectSink, FnSink, NullSink, Tee};
pub use snapshot::{CallSnapshot, MachineSnapshot};
pub use tap::VidsTap;
pub use tenant::{Tenant, TenantId, TenantMap};
