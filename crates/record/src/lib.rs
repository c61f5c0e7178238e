//! # vids-record — the flight recorder
//!
//! Always-on forensic capture for the VoIP IDS (DESIGN.md §7h). The
//! paper's engine raises an alert and hands the administrator a label
//! and a trace; this crate preserves the *evidence*: the raw datagram
//! window that led to the alert, the batch boundaries the engine saw it
//! through, and the triggering call's machine/variable state — packaged
//! so the whole incident re-executes deterministically on another
//! machine.
//!
//! * [`ring`] — per-lane bounded [`ring::DatagramRing`]s: raw wire bytes
//!   in a preallocated circular arena, overwriting oldest-first,
//!   allocation-free on the hot path.
//! * [`recorder`] — the [`recorder::Recorder`]: one ring per ingest lane
//!   behind its own lock, shared by reference across receiver threads;
//!   batch marking, alert-triggered dumps and operator-requested
//!   snapshots.
//! * [`vdump`] — the self-describing, CRC-checked `.vdump` format
//!   ([`vdump::Vdump`]), hand-rolled framing in the pcap-reader style.
//! * [`replay`] — [`replay::replay_vdump`]: re-runs a captured window
//!   through a fresh engine with the captured batch clocks and demands
//!   the original alert byte-for-byte.
//! * [`minimize`] — [`minimize::minimize`]: greedy drop-one-packet
//!   shrinking that preserves the alert, for turning multi-hundred-packet
//!   captures into committable regression artifacts.
//!
//! ```
//! use vids_record::{Recorder, RecordedClass};
//! use vids_netsim::time::SimTime;
//!
//! let recorder = Recorder::with_defaults(1);
//! recorder.record(
//!     0,
//!     SimTime::from_millis(1),
//!     std::net::SocketAddr::from(([10, 1, 0, 10], 5060)),
//!     std::net::SocketAddr::from(([10, 2, 0, 10], 5060)),
//!     RecordedClass::Sip,
//!     b"INVITE sip:bob@b SIP/2.0\r\n\r\n",
//! );
//! assert_eq!(recorder.stats().rings.recorded, 1);
//! ```

pub mod crc;
pub mod minimize;
pub mod recorder;
pub mod replay;
pub mod ring;
pub mod vdump;

pub use minimize::{minimize, MinimizeReport};
pub use recorder::{Recorder, RecorderStats};
pub use replay::{
    classify_recorded, loose_matcher, replay_vdump, replay_with_match, MatchCapture, ReplayOutcome,
    ReplayVerdict,
};
pub use ring::{DatagramRing, RecordedClass, RingStats, SlotMeta};
pub use vdump::{encode_alert, DumpCounters, RecordedPacket, Vdump, VdumpError, VdumpReadError};
