//! # vids-ingest — live wire ingestion for the VoIP IDS
//!
//! The paper's monitor observes real traffic at the enterprise
//! perimeter. This crate is that observation tier: it turns UDP
//! datagrams — from live sockets or classic pcap captures — into the
//! classified wire events the engine's `process_wire_batch` consumes,
//! with no per-datagram allocation and no payload copies.
//!
//! * [`datagram`] — [`Datagram`], the borrowed wire-level view.
//! * [`source`] — the [`WireSource`] trait and [`PcapSource`].
//! * [`udp`] — live capture: [`udp::UdpPool`] (SO_REUSEPORT receiver
//!   sharding with a portable fallback) and [`udp::UdpSource`].
//! * [`pcap`] — hand-rolled classic libpcap reader/writer, both byte
//!   orders, Ethernet and raw-IPv4 link types.
//! * [`demux`] — port + heuristic SIP vs RTP/RTCP demultiplexing.
//! * [`batch`] — per-receiver batch accumulation with size and age
//!   flush thresholds.
//! * [`server`] — the `vids serve` pipeline: receiver threads classify
//!   and shard-route datagrams, the coordinator drives the engine's
//!   epoch-ring pipeline, with graceful shutdown and on-demand
//!   `SIGUSR1` ring snapshots.
//! * [`cluster_serve`] — the federated variant: the same loop driving a
//!   `vids-cluster` gateway (`vids serve --nodes N --tenants FILE`).
//! * [`replay`] — `vids replay`: run a capture through the identical
//!   pipeline at full speed, deterministically; `replay_pcap_parallel`
//!   classifies on N threads and re-sequences batches so the output
//!   stays byte-identical to the single-thread run.

pub mod batch;
pub mod cluster_serve;
pub mod datagram;
pub mod demux;
pub mod pcap;
pub mod record_tap;
pub mod replay;
pub mod server;
pub mod source;
pub mod udp;

/// The one-stop import for ingestion:
/// `use vids_ingest::prelude::*;`.
pub mod prelude {
    pub use crate::batch::Batcher;
    pub use crate::datagram::Datagram;
    pub use crate::demux::{classify_datagram, demux, WireClass, SIP_PORT};
    pub use crate::pcap::{PcapError, PcapReader, PcapRecord, PcapWriter};
    pub use crate::record_tap::{recorded_class, RecordTap, ServeRecorder};
    pub use crate::replay::{replay, replay_pcap, replay_pcap_parallel, ReplayReport};
    pub use crate::server::{serve, serve_on, ServeOptions, ServeReport};
    pub use crate::source::{IngestError, PcapSource, Polled, WireSource};
    pub use crate::udp::{PoolMode, UdpPool, UdpSource};
}

pub use batch::Batcher;
pub use cluster_serve::serve_cluster_on;
pub use datagram::Datagram;
pub use demux::{classify_datagram, demux, WireClass, SIP_PORT};
pub use pcap::{PcapError, PcapReader, PcapRecord, PcapWriter};
pub use record_tap::{recorded_class, RecordTap, ServeRecorder};
pub use replay::{replay, replay_pcap, replay_pcap_parallel, ReplayReport};
pub use server::{
    dump_flag_on_sigusr1, serve, serve_on, stop_flag_on_sigint, ServeOptions, ServeReport,
};
pub use source::{IngestError, PcapSource, Polled, WireSource};
pub use udp::{PoolMode, UdpPool, UdpSource};
