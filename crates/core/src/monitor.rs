//! The [`Monitor`] trait: one interface over every deployment shape of the
//! analysis engine — a single-threaded [`crate::engine::Vids`], a sharded
//! [`crate::pool::VidsPool`], or the inline [`crate::tap::VidsTap`].
//!
//! Harness code (the scenario runner, benches, examples) programs against
//! this trait so the same driver can exercise any engine; swapping a
//! 1-shard `Vids` for an 8-shard pool is a constructor change only.

use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;

use crate::engine::VidsCounters;
use crate::sink::AlertSink;

/// A packet-fed intrusion monitor.
pub trait Monitor {
    /// Feeds one packet observed at monitor time `now`, pushing any alerts
    /// it raises into `sink` — the record of them: a monitor keeps no
    /// copy.
    fn process(&mut self, packet: &Packet, now: SimTime, sink: &mut dyn AlertSink);

    /// Advances timers and evicts finished calls; call at the end of a run
    /// (or periodically when no traffic flows) to flush timer-driven
    /// detections.
    fn tick(&mut self, now: SimTime, sink: &mut dyn AlertSink);

    /// Aggregate traffic counters (summed across shards for pools).
    fn counters(&self) -> VidsCounters;

    /// Current fact-base memory footprint in bytes (summed across shards).
    fn memory_bytes(&self) -> usize;
}
