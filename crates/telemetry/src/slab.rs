//! Per-shard metric slab: one fixed block of relaxed atomics.
//!
//! A slab is allocated once, when the engine or pool that counts into it
//! is built, and then only ever touched with `Relaxed` atomic ops through
//! `&self` — shards record without locks, without allocation, and without
//! false ordering constraints. Cross-slot consistency is not needed:
//! snapshots are statistical, and the determinism guarantee is about
//! *merged totals* over a quiesced pool, not about mid-flight reads.
//!
//! A slot several threads write (a pool slab's receiver counts) takes
//! [`ShardSlab::add`], one `fetch_add`. A slot with one writer at a time
//! (an engine's counts: its ring worker, or the coordinator while the ring
//! is quiesced, handed over by the ring's Release/Acquire) takes
//! [`ShardSlab::add_owned`], a relaxed load and a store.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::AtomicHistogram;
use crate::metrics::{Counter, Gauge, HistId};
use crate::snapshot::SlabSnapshot;

/// One shard's metric storage. All methods take `&self`.
#[derive(Debug)]
pub struct ShardSlab {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hists: [AtomicHistogram; HistId::COUNT],
}

impl Default for ShardSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardSlab {
    pub fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.counters[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Increment a counter by `n` (no-op when `n == 0`).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if n > 0 {
            self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` to a counter only the caller writes (no-op when `n == 0`):
    /// a relaxed load and a store, no read-modify-write. A second
    /// concurrent writer would lose counts, so a slot that several threads
    /// write takes [`ShardSlab::add`].
    #[inline]
    pub fn add_owned(&self, c: Counter, n: u64) {
        if n > 0 {
            let slot = &self.counters[c as usize];
            slot.store(slot.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Every counter, in slot order: a reading to take differences from.
    pub fn counts(&self) -> [u64; Counter::COUNT] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Overwrite a gauge with its latest value.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Moves a gauge that several writers sum into from this writer's
    /// `from` share to its `to` share.
    #[inline]
    pub fn shift_gauge(&self, g: Gauge, from: u64, to: u64) {
        self.gauges[g as usize].fetch_add(to.wrapping_sub(from), Ordering::Relaxed);
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn record(&self, h: HistId, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Copy every slot out into an owned snapshot.
    pub fn snapshot(&self) -> SlabSnapshot {
        SlabSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| g.load(Ordering::Relaxed))
                .collect(),
            hists: self.hists.iter().map(|h| h.snapshot()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_through_shared_reference() {
        let slab = ShardSlab::new();
        slab.inc(Counter::SipPackets);
        slab.add(Counter::SipPackets, 4);
        slab.add(Counter::RtpPackets, 0); // no-op
        slab.add_owned(Counter::Transitions, 3);
        slab.add_owned(Counter::Transitions, 2);
        slab.set_gauge(Gauge::LiveCalls, 7);
        slab.set_gauge(Gauge::LiveCalls, 3); // gauges overwrite
        slab.record(HistId::BatchSize, 32);

        assert_eq!(slab.get(Counter::SipPackets), 5);
        assert_eq!(slab.get(Counter::RtpPackets), 0);
        assert_eq!(slab.get(Counter::Transitions), 5);
        assert_eq!(slab.counts()[Counter::SipPackets as usize], 5);
        assert_eq!(slab.gauge(Gauge::LiveCalls), 3);
        slab.shift_gauge(Gauge::SocketBacklog, 0, 9);
        slab.shift_gauge(Gauge::SocketBacklog, 0, 4);
        slab.shift_gauge(Gauge::SocketBacklog, 9, 1);
        assert_eq!(slab.gauge(Gauge::SocketBacklog), 5);

        let snap = slab.snapshot();
        assert_eq!(snap.counter(Counter::SipPackets), 5);
        assert_eq!(snap.gauge(Gauge::LiveCalls), 3);
        assert_eq!(snap.hist(HistId::BatchSize).total(), 1);
    }
}
