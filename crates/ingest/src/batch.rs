//! Per-receiver batch accumulation and the rule that hands a batch over.
//!
//! Receiver threads classify datagrams as they arrive and push the
//! results into a [`Batcher`]. After every socket poll, `flush_rule`
//! decides what happens to the batch: it is handed to the coordinator as
//! soon as the socket has drained (the poll filled fewer than all of its
//! slots) or the batch reaches `flush_packets` events, whichever comes
//! first. So a trickle is handed over one datagram at a time and a burst
//! in batches as large as the burst. When the bounded hand-off is full the
//! batch keeps growing up to `flush_packets`; a full batch that still
//! cannot be handed over is shed, and the receiver counts it as dropped.
//! The engine's batched merge is deterministic under any chunking (see
//! `tests/pool_determinism.rs` in the root crate), so batch boundaries
//! affect latency, never verdicts.
//!
//! The serve path batches [`vids_core::pool::PreRouted`] events that
//! already carry their receiver-computed shard-routing hashes; the tenant,
//! when the pool has several, is chosen later, on the coordinator.

/// What a receiver does with its batch after one socket poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Keep accumulating.
    Keep,
    /// Hand the batch to the coordinator.
    Hand,
    /// Drop the batch and count its events as dropped: it is full and the
    /// hand-off has no room.
    Shed,
}

/// The flush rule, a pure function of one poll's outcome.
///
/// * `polled` — datagrams the poll delivered (0 when the read timed out);
/// * `slots` — the most one poll can deliver, so `polled < slots` means the
///   socket had nothing more queued;
/// * `len` — events in the batch, this poll's included;
/// * `flush_packets` — the batch size at which a batch is due regardless;
/// * `room` — whether the hand-off can take a batch now.
///
/// A batch is due when the socket drained or it holds `flush_packets`
/// events. A due batch is handed over when there is room; otherwise it is
/// kept until it is full, and a full one is shed. A poll that fills every
/// slot keeps the batch for the next poll, which returns within one read
/// timeout, so no batch waits longer than that for a quiet socket.
pub(crate) fn flush_rule(
    polled: usize,
    slots: usize,
    len: usize,
    flush_packets: usize,
    room: bool,
) -> Flush {
    let full = len >= flush_packets.max(1);
    if len == 0 || !(polled < slots || full) {
        Flush::Keep
    } else if room {
        Flush::Hand
    } else if full {
        Flush::Shed
    } else {
        Flush::Keep
    }
}

/// Accumulates classified wire events between hand-offs. Its buffers
/// cycle between the receiver and the coordinator, so a warm batcher
/// allocates only when traffic makes a batch larger than any before it.
pub struct Batcher<T> {
    events: Vec<T>,
    /// An empty buffer left behind by a refused hand-off, used by the next
    /// [`Batcher::take`] before it asks for a recycled one.
    spare: Vec<T>,
}

impl<T> Default for Batcher<T> {
    fn default() -> Self {
        Batcher {
            events: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl<T> Batcher<T> {
    /// Buffers one event.
    pub fn push(&mut self, event: T) {
        self.events.push(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes the buffered batch. The buffer swapped in is the spare a
    /// refused hand-off left, else whatever `recycled` returns (a buffer
    /// back from the coordinator), else a new empty one.
    pub fn take(&mut self, recycled: impl FnOnce() -> Option<Vec<T>>) -> Vec<T> {
        let mut next = std::mem::take(&mut self.spare);
        if next.capacity() == 0 {
            next = recycled().unwrap_or_default();
        }
        next.clear();
        std::mem::replace(&mut self.events, next)
    }

    /// Puts back a batch the hand-off refused, keeping the buffer
    /// [`Batcher::take`] swapped in for the next attempt.
    pub fn restore(&mut self, batch: Vec<T>) {
        self.spare = std::mem::replace(&mut self.events, batch);
    }

    /// Drops the buffered events and returns how many there were.
    pub fn shed(&mut self) -> usize {
        let n = self.events.len();
        self.events.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_rule_table() {
        use Flush::{Hand, Keep, Shed};
        const SLOTS: usize = 8;
        const FULL: usize = 256;
        // (polled, len, room, expected)
        let table: [(usize, usize, bool, Flush); 14] = [
            // Nothing buffered: nothing to do, whatever the poll did.
            (0, 0, true, Keep),
            (0, 0, false, Keep),
            (SLOTS, 0, true, Keep),
            // A trickle: the socket drained, hand over at once.
            (1, 1, true, Hand),
            (3, 5, true, Hand),
            // A read timeout with a batch still held (the previous poll
            // filled every slot): hand it over now.
            (0, SLOTS, true, Hand),
            // Every slot filled: more may be queued, keep reading.
            (SLOTS, SLOTS, true, Keep),
            (SLOTS, FULL - 1, true, Keep),
            // Full, whether or not the socket drained.
            (SLOTS, FULL, true, Hand),
            (2, FULL + 5, true, Hand),
            // No room: a due batch keeps growing ...
            (1, 1, false, Keep),
            (0, FULL - 1, false, Keep),
            // ... until it is full, and then it is shed.
            (SLOTS, FULL, false, Shed),
            (1, FULL + 7, false, Shed),
        ];
        for (polled, len, room, expected) in table {
            assert_eq!(
                flush_rule(polled, SLOTS, len, FULL, room),
                expected,
                "polled {polled}, len {len}, room {room}"
            );
        }
        // A zero batch size behaves as one.
        assert_eq!(flush_rule(SLOTS, 1, 1, 0, true), Hand);
        // A source that delivers one datagram per poll never reports a
        // drained socket with a datagram; it hands over by count or on a
        // quiet read.
        assert_eq!(flush_rule(1, 1, 1, FULL, true), Keep);
        assert_eq!(flush_rule(0, 1, 1, FULL, true), Hand);
    }

    #[test]
    fn take_swaps_in_a_recycled_buffer() {
        let mut b = Batcher::default();
        b.push(1u32);
        let recycled = Vec::with_capacity(64);
        let batch = b.take(|| Some(recycled));
        assert_eq!(batch, [1]);
        assert!(b.is_empty());
        assert!(b.events.capacity() >= 64);
    }

    #[test]
    fn a_refused_batch_is_restored_and_its_spare_reused() {
        let mut b = Batcher::default();
        b.push(1u32);
        b.push(2);
        let batch = b.take(|| Some(Vec::with_capacity(16)));
        b.restore(batch);
        assert_eq!(b.len(), 2);
        // The next take uses the kept spare and does not ask for another.
        let batch = b.take(|| panic!("the spare should be used first"));
        assert_eq!(batch, [1, 2]);
        assert!(b.events.capacity() >= 16);
        b.push(3);
        assert_eq!(b.shed(), 1);
        assert!(b.is_empty());
    }
}
