//! # vids-ingest — live wire ingestion for the VoIP IDS
//!
//! The paper's monitor observes real traffic at the enterprise
//! perimeter. This crate is that observation tier: it turns UDP
//! datagrams — from live sockets or classic pcap captures — into the
//! classified wire events the engine's `process_wire_batch` consumes,
//! with no per-datagram allocation and no payload copies.
//!
//! * [`datagram`] — [`Datagram`], the borrowed wire-level view.
//! * [`source`] — the [`WireSource`] trait the live sockets implement.
//! * [`udp`] — live capture: [`udp::UdpPool`] (SO_REUSEPORT receiver
//!   sharding with a portable fallback) and [`udp::UdpSource`].
//! * [`pcap`] — hand-rolled classic libpcap reader/writer, both byte
//!   orders, Ethernet and raw-IPv4 link types.
//! * [`demux`] — the engine's one classifier (port + heuristic SIP vs
//!   RTP/RTCP demultiplexing, then SIP or RTP parsing) applied to a
//!   datagram's socket addresses.
//! * [`batch`] — per-receiver batch accumulation and the flush rule: a
//!   batch is handed over when the socket drains or it reaches the batch
//!   size, grows while the hand-off is full, and is shed (counted) when
//!   it is full and still finds no room.
//! * [`server`] — the `vids serve` pipeline: receiver threads classify
//!   and shard-route datagrams into a bounded hand-off, the coordinator
//!   drives the engine's epoch-ring pipeline and merges each finished
//!   epoch right after the next submit, with graceful shutdown and
//!   on-demand `SIGUSR1` ring snapshots. A tenant-mapped pool (`vids
//!   serve --tenants FILE`) takes the same path: tenants are engine
//!   groups of the one pool.
//! * [`record_tap`] — [`RecordTap`], the one flight-recorder tap both
//!   ingest paths take.
//! * [`replay`] — `vids replay`: run a capture through the identical
//!   pipeline at full speed, deterministically; one loop classifies
//!   inline at one thread, or on N threads with batches re-sequenced so
//!   the output stays byte-identical to the single-thread run.

pub mod batch;
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
    pub use crate::record_tap::{recorded_class, RecordTap};
    pub use crate::replay::{replay_pcap, replay_pcap_parallel, ReplayReport};
    pub use crate::server::{serve_on, ServeOptions, ServeReport};
    pub use crate::source::{IngestError, Polled, WireSource};
    pub use crate::udp::{PoolMode, UdpPool, UdpSource};
}

pub use batch::Batcher;
pub use datagram::Datagram;
pub use demux::{classify_datagram, demux, WireClass, SIP_PORT};
pub use pcap::{PcapError, PcapReader, PcapRecord, PcapWriter};
pub use record_tap::{recorded_class, RecordTap};
pub use replay::{replay_pcap, replay_pcap_parallel, ReplayReport};
pub use server::{
    dump_flag_on_sigusr1, serve_on, stop_flag_on_sigint, ServeOptions, ServeReport, FLUSH_PACKETS,
    READ_TIMEOUT,
};
pub use source::{IngestError, Polled, WireSource};
pub use udp::{PoolMode, UdpPool, UdpSource};
