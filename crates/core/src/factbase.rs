//! The Call State Fact Base (Fig. 3).
//!
//! "The vids component, Call State Fact Base, stores the control state and
//! its state variables and keeps track of the progress of state machines
//! for each ongoing call." (§5) One communicating-EFSM network (SIP + RTP
//! machine) exists per monitored call; per-destination flood machines live
//! beside them. Calls whose machines all reached final states are evicted
//! after a grace period (§7.3), keeping memory proportional to *ongoing*
//! calls only.
//!
//! Every record — a call, a destination's flood counter, an AOR's
//! registration — is one slot of a chunked slab and owns no heap block of
//! its own: creating one writes a slot, and the allocator is touched only
//! when a slab or an index grows.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::Arc;

use vids_efsm::machine::MachineDef;
use vids_efsm::network::{MachineId, Network, SoloNetwork};
use vids_efsm::{sym, InlineVec, Sym, SymKey};
use vids_scan::fxhash::FxHashMap;

use crate::config::Config;
use crate::machines::flood::{invite_flood_machine, response_flood_machine};
use crate::machines::register::registration_machine;
use crate::machines::rtp::rtp_session_machine;
use crate::machines::sip::sip_call_machine;

/// Width of one expiry-wheel bucket. Matches the engine's sweep interval:
/// a sweep pops every bucket at or before `now`, so a finer wheel would
/// only split work the sweep drains together anyway.
const WHEEL_BUCKET_MS: u64 = 100;

/// Sentinel bucket for "not indexed in the wheel".
const NO_BUCKET: u64 = u64::MAX;

/// Slots per slab chunk. A slab grows by one chunk of this many slots and
/// never moves a slot once written: under a flood of new calls the
/// allocator sees one ~62 KiB request per 64 calls and requested bytes
/// track live state, where one doubling `Vec` re-requests everything it
/// holds at every growth step.
const CHUNK_SLOTS: usize = 64;

/// A keyed slab: a hash index from key to a dense slot number, and the
/// slots themselves in fixed-size chunks. Fx-hashed: the keys are interned
/// symbols or ip words, not attacker-chosen strings — HashDoS pressure
/// lands on the interner's own SipHash table, never here.
///
/// A slot number is valid until its record is removed; freed numbers are
/// reused, so a side table that stores one must be scrubbed or
/// stamp-checked when the record goes (the media index and the expiry
/// wheel are).
struct Table<K, T> {
    index: FxHashMap<K, u32>,
    chunks: Vec<Vec<Option<T>>>,
    free: Vec<u32>,
}

impl<K: Hash + Eq + Copy, T> Table<K, T> {
    fn new() -> Self {
        Table {
            index: FxHashMap::default(),
            chunks: Vec::new(),
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    #[inline]
    fn slot_of(&self, key: K) -> Option<u32> {
        self.index.get(&key).copied()
    }

    #[inline]
    fn get(&self, slot: u32) -> Option<&T> {
        let slot = slot as usize;
        self.chunks
            .get(slot / CHUNK_SLOTS)?
            .get(slot % CHUNK_SLOTS)?
            .as_ref()
    }

    /// The storage cell behind a slot number, occupied or not.
    #[inline]
    fn cell_mut(&mut self, slot: u32) -> Option<&mut Option<T>> {
        let slot = slot as usize;
        self.chunks
            .get_mut(slot / CHUNK_SLOTS)?
            .get_mut(slot % CHUNK_SLOTS)
    }

    #[inline]
    fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.cell_mut(slot)?.as_mut()
    }

    /// Files `value` under `key`, which must not be present.
    fn insert(&mut self, key: K, value: T) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                *self.cell_mut(slot).expect("a freed slot exists") = Some(value);
                slot
            }
            None => {
                if self
                    .chunks
                    .last()
                    .is_none_or(|chunk| chunk.len() == CHUNK_SLOTS)
                {
                    self.chunks.push(Vec::with_capacity(CHUNK_SLOTS));
                }
                let base = (self.chunks.len() - 1) * CHUNK_SLOTS;
                let chunk = self.chunks.last_mut().expect("a chunk with room");
                chunk.push(Some(value));
                (base + chunk.len() - 1) as u32
            }
        };
        let previous = self.index.insert(key, slot);
        debug_assert!(previous.is_none(), "key filed twice");
        slot
    }

    fn remove(&mut self, key: K) -> Option<T> {
        let slot = self.index.remove(&key)?;
        self.free.push(slot);
        self.cell_mut(slot)?.take()
    }

    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> T) -> &mut T {
        let slot = match self.slot_of(key) {
            Some(slot) => slot,
            None => self.insert(key, make()),
        };
        self.get_mut(slot).expect("slot just resolved")
    }

    fn values(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten().flatten()
    }

    /// What the live records cost: their slots, whatever heap `heap_of`
    /// says each owns, and their index entries. Reserved-but-unused room
    /// (a chunk's tail, freed slots, hash-table slack) is not charged.
    fn memory_bytes(&self, heap_of: impl Fn(&T) -> usize) -> usize {
        self.len() * size_of::<Option<T>>()
            + self.values().map(heap_of).sum::<usize>()
            + index_bytes(&self.index)
    }
}

/// Bytes a hash index spends on its entries: the pair plus hashbrown's
/// control byte.
pub(crate) fn index_bytes<K, V>(index: &FxHashMap<K, V>) -> usize {
    index.len() * (size_of::<(K, V)>() + 1)
}

/// Dense slab index naming one monitored call. The engine's hot paths
/// resolve a Call-ID (or media coordinates) to a `CallIdx` once and then
/// touch the call's slot by direct indexing — no further hashing. An index
/// is valid until the call it names is evicted; freed indices are reused
/// for later calls, which is safe because every side table that stores a
/// `CallIdx` (media index, expiry wheel) is scrubbed or stamp-checked at
/// eviction/pop time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CallIdx(u32);

/// One occupied call slot: the call's id plus its record. This *is* the
/// call's state — the network inside it keeps machines, variables and
/// timers inline, so a half-open call owns no heap block.
struct Slot {
    id: Sym,
    record: CallRecord,
}

// Sizes are facts (§7.3 argues capacity from the per-call cost): the next
// field someone adds to a call has to argue with this number.
const _: () = assert!(size_of::<Slot>() <= 832);

/// One monitored call: its EFSM network plus bookkeeping.
pub struct CallRecord {
    /// The communicating SIP+RTP machine network.
    pub network: Network,
    /// When monitoring of this call began (ms).
    pub created_ms: u64,
    /// Set once every machine reached a final state, for delayed eviction.
    pub final_since_ms: Option<u64>,
    /// The expiry-wheel bucket this call is currently filed under
    /// ([`NO_BUCKET`] when the call has no pending wake deadline). Entries
    /// in other buckets are stale and skipped when popped.
    wheel_bucket: u64,
    /// The network's earliest armed timer deadline (`u64::MAX` when none),
    /// cached by [`FactBase::reindex_idx`] so per-packet ingest can skip
    /// `advance_time` without scanning the timers. Engine paths that
    /// deliver events reindex afterwards, keeping this coherent; code that
    /// drives `record.network` directly must not rely on it.
    pub(crate) next_timer_ms: u64,
    /// The media-index keys this call has published: one per endpoint
    /// inline, more (a re-INVITE that moved the media) on the heap.
    /// Eviction removes exactly these entries — after checking they still
    /// point at this slot — instead of scanning the whole index.
    media_keys: InlineVec<(Sym, u64), 2>,
}

/// Aggregate fact-base statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactBaseStats {
    /// Calls instantiated over the run.
    pub calls_created: u64,
    /// Calls evicted after reaching final states.
    pub calls_evicted: u64,
    /// High-water mark of concurrently monitored calls.
    pub peak_concurrent: usize,
}

/// The fact base: per-call networks, the media index, and per-destination
/// flood machines.
pub struct FactBase {
    config: Config,
    sip_def: Arc<MachineDef>,
    rtp_def: Arc<MachineDef>,
    invite_flood_def: Arc<MachineDef>,
    response_flood_def: Arc<MachineDef>,
    registration_def: Arc<MachineDef>,
    /// Call-ID → call slot. Dense and index-stable: a call keeps its slot
    /// for its whole life, so the hot paths re-touch the same cache lines
    /// instead of re-probing a hash table per packet.
    calls: Table<Sym, Slot>,
    /// `(media ip, media port) -> call slot`, rebuilt from the call-global
    /// variables the SIP machine publishes. Interned keys: probing on the
    /// RTP hot path is a couple of word hashes, never a string allocation.
    media_index: FxHashMap<(Sym, u64), CallIdx>,
    invite_flood: Table<u32, SoloNetwork>,
    response_flood: Table<u32, SoloNetwork>,
    registrations: Table<Sym, SoloNetwork>,
    /// Coarse time-wheel over call wake deadlines (armed timers, pending
    /// eviction stamps, grace-period expiries): bucket → call slots filed
    /// there. A sweep visits only the calls whose bucket fell due, so a
    /// sweep over N idle calls costs O(expiring), not O(N log N).
    wheel: BTreeMap<u64, Vec<CallIdx>>,
    /// The SIP machine's id inside every per-call network (machine ids are
    /// positional and every call network is built the same way, so one
    /// capture at construction serves them all).
    sip_machine: MachineId,
    /// The RTP machine's id inside every per-call network.
    rtp_machine: MachineId,
    stats: FactBaseStats,
}

impl FactBase {
    /// Creates a fact base with the machine definitions built once and
    /// shared by every call (this sharing is what keeps per-call memory at
    /// the level of §7.3).
    pub fn new(config: Config) -> Self {
        let sip_def = Arc::new(sip_call_machine(&config));
        let rtp_def = Arc::new(rtp_session_machine(&config));
        // Machine ids are positional: capture them from a throwaway network
        // built exactly like the real ones, so the engine never resolves a
        // machine by name on the per-packet path.
        let mut proto = Network::new();
        let sip_machine = proto.add_machine(Arc::clone(&sip_def));
        let rtp_machine = proto.add_machine(Arc::clone(&rtp_def));
        FactBase {
            sip_def,
            rtp_def,
            invite_flood_def: Arc::new(invite_flood_machine(&config)),
            response_flood_def: Arc::new(response_flood_machine(&config)),
            registration_def: Arc::new(registration_machine()),
            config,
            calls: Table::new(),
            media_index: FxHashMap::default(),
            invite_flood: Table::new(),
            response_flood: Table::new(),
            registrations: Table::new(),
            wheel: BTreeMap::new(),
            sip_machine,
            rtp_machine,
            stats: FactBaseStats::default(),
        }
    }

    /// The SIP machine's id in every per-call network.
    pub(crate) fn sip_machine(&self) -> MachineId {
        self.sip_machine
    }

    /// The RTP machine's id in every per-call network.
    pub(crate) fn rtp_machine(&self) -> MachineId {
        self.rtp_machine
    }

    /// The number of currently monitored calls.
    pub fn call_count(&self) -> usize {
        self.calls.len()
    }

    /// Fact-base statistics.
    pub fn stats(&self) -> FactBaseStats {
        self.stats
    }

    /// The slab index of a monitored call, for the engine's idx-based hot
    /// path.
    #[inline]
    pub(crate) fn call_idx(&self, call_id: Sym) -> Option<CallIdx> {
        self.calls.slot_of(call_id).map(CallIdx)
    }

    /// The Call-ID filed in a live slot.
    #[inline]
    pub(crate) fn id_of(&self, idx: CallIdx) -> Sym {
        self.calls.get(idx.0).expect("live call slot").id
    }

    /// Direct record access by slab index.
    #[inline]
    pub(crate) fn record_mut(&mut self, idx: CallIdx) -> &mut CallRecord {
        &mut self.calls.get_mut(idx.0).expect("live call slot").record
    }

    /// Access a monitored call. Accepts a `Sym` or a raw `&str`; a string
    /// nobody ever interned cannot name a monitored call, so the miss path
    /// neither allocates nor grows the interner.
    pub fn call_mut(&mut self, call_id: impl SymKey) -> Option<&mut CallRecord> {
        let idx = self.call_idx(call_id.find_sym()?)?;
        Some(self.record_mut(idx))
    }

    /// Shared access (introspection in tests and examples).
    pub fn call(&self, call_id: impl SymKey) -> Option<&CallRecord> {
        let idx = self.call_idx(call_id.find_sym()?)?;
        Some(&self.calls.get(idx.0)?.record)
    }

    /// Call-IDs currently monitored (unordered).
    pub fn call_ids(&self) -> impl Iterator<Item = Sym> + '_ {
        self.calls.index.keys().copied()
    }

    /// Instantiates the per-call machine network for a new call, returning
    /// its slab index.
    pub(crate) fn create_call_idx(&mut self, call_id: impl SymKey, now_ms: u64) -> CallIdx {
        let call_id = call_id.to_sym();
        self.stats.calls_created += 1;
        let idx = match self.call_idx(call_id) {
            Some(idx) => idx,
            None => {
                let mut network = Network::new();
                network.add_machine(Arc::clone(&self.sip_def));
                network.add_machine(Arc::clone(&self.rtp_def));
                if !self.config.cross_protocol_sync {
                    network.disable_sync();
                }
                let slot = Slot {
                    id: call_id,
                    record: CallRecord {
                        network,
                        created_ms: now_ms,
                        final_since_ms: None,
                        wheel_bucket: NO_BUCKET,
                        next_timer_ms: u64::MAX,
                        media_keys: InlineVec::new(),
                    },
                };
                CallIdx(self.calls.insert(call_id, slot))
            }
        };
        self.stats.peak_concurrent = self.stats.peak_concurrent.max(self.calls.len());
        // File the call due-now: the next sweep visits it once, observes its
        // real timers/finality, and re-files it under the proper bucket.
        // Callers that drive the network directly (tests, examples) stay
        // sweepable without an explicit reindex after every delivery.
        let bucket = now_ms / WHEEL_BUCKET_MS;
        let record = self.record_mut(idx);
        if record.wheel_bucket != bucket {
            record.wheel_bucket = bucket;
            self.wheel.entry(bucket).or_default().push(idx);
        }
        idx
    }

    /// Instantiates the per-call machine network for a new call.
    pub fn create_call(&mut self, call_id: impl SymKey, now_ms: u64) -> &mut CallRecord {
        let idx = self.create_call_idx(call_id, now_ms);
        self.record_mut(idx)
    }

    /// Re-reads a call's global variables and refreshes the media index so
    /// RTP packets can be grouped with the call. Call after every SIP event
    /// delivered to the call.
    pub fn refresh_media_index(&mut self, call_id: Sym) {
        if let Some(idx) = self.call_idx(call_id) {
            self.refresh_media_index_idx(idx);
        }
    }

    /// [`FactBase::refresh_media_index`] by slab index. The global-variable
    /// reads are keyed by pre-seeded symbols, so the warm no-change case is
    /// four inline `VarMap` probes and two equality checks.
    pub(crate) fn refresh_media_index_idx(&mut self, idx: CallIdx) {
        let slot = self.calls.get_mut(idx.0).expect("live call slot");
        let globals = slot.record.network.globals();
        let published = [
            (
                globals.sym(sym::G_CALLER_MEDIA_IP),
                globals.uint(sym::G_CALLER_MEDIA_PORT),
            ),
            (
                globals.sym(sym::G_CALLEE_MEDIA_IP),
                globals.uint(sym::G_CALLEE_MEDIA_PORT),
            ),
        ];
        for (ip, port) in published {
            if let (Some(ip), Some(port)) = (ip, port) {
                if ip != sym::EMPTY && port != 0 {
                    let key = (ip, port);
                    if !slot.record.media_keys.contains(&key) {
                        slot.record.media_keys.push(key);
                    }
                    self.media_index.insert(key, idx);
                }
            }
        }
    }

    /// Looks up the call owning a media endpoint.
    pub fn media_lookup(&self, ip: impl SymKey, port: u64) -> Option<Sym> {
        Some(self.id_of(self.media_lookup_idx(ip.find_sym()?, port)?))
    }

    /// [`FactBase::media_lookup`] returning the slab index, for the RTP hot
    /// path.
    #[inline]
    pub(crate) fn media_lookup_idx(&self, ip: Sym, port: u64) -> Option<CallIdx> {
        self.media_index.get(&(ip, port)).copied()
    }

    /// The per-destination INVITE-flood machine (Fig. 4), created on first
    /// use.
    pub fn invite_flood_mut(&mut self, dst_ip: u32) -> &mut SoloNetwork {
        let def = &self.invite_flood_def;
        self.invite_flood
            .get_or_insert_with(dst_ip, || SoloNetwork::new(Arc::clone(def)))
    }

    /// The per-destination response-flood machine (DRDoS), created on first
    /// use.
    pub fn response_flood_mut(&mut self, dst_ip: u32) -> &mut SoloNetwork {
        let def = &self.response_flood_def;
        self.response_flood
            .get_or_insert_with(dst_ip, || SoloNetwork::new(Arc::clone(def)))
    }

    /// The per-AOR registration machine (extension), created on first use.
    pub fn registration_mut(&mut self, aor: impl SymKey) -> &mut SoloNetwork {
        let def = &self.registration_def;
        self.registrations
            .get_or_insert_with(aor.to_sym(), || SoloNetwork::new(Arc::clone(def)))
    }

    /// Re-files a call under its next wake deadline: the earliest armed
    /// EFSM timer, or the finality bookkeeping the sweep must perform
    /// (stamping a freshly-final call, clearing a stale stamp, or the
    /// grace-period expiry of a stamped call). A call with no deadline
    /// leaves the wheel entirely — an idle mid-call network costs the
    /// sweep nothing until an event or timer changes that.
    ///
    /// Call after any event delivery that may have changed the network's
    /// timers or finality. Old wheel entries are not removed eagerly;
    /// [`FactBase::due_calls`] skips entries whose bucket no longer
    /// matches the record.
    pub(crate) fn reindex_idx(&mut self, idx: CallIdx) {
        let delay = self.config.eviction_delay.as_millis();
        let record = &mut self.calls.get_mut(idx.0).expect("live call slot").record;
        let timer = record.network.next_timer_deadline();
        record.next_timer_ms = timer.unwrap_or(u64::MAX);
        let finality = if record.network.all_final() {
            Some(match record.final_since_ms {
                // Not yet stamped: the next sweep must see the call to
                // start its grace period.
                None => 0,
                Some(since) => since.saturating_add(delay),
            })
        } else if record.final_since_ms.is_some() {
            // Stale stamp (the network reopened): clear it promptly.
            Some(0)
        } else {
            None
        };
        let deadline = match (timer, finality) {
            (Some(t), Some(f)) => Some(t.min(f)),
            (Some(t), None) => Some(t),
            (None, f) => f,
        };
        let bucket = match deadline {
            Some(d) => d / WHEEL_BUCKET_MS,
            None => NO_BUCKET,
        };
        if bucket == record.wheel_bucket {
            return;
        }
        record.wheel_bucket = bucket;
        if bucket != NO_BUCKET {
            self.wheel.entry(bucket).or_default().push(idx);
        }
    }

    /// Pops every wheel bucket at or before `now_ms` and returns the live
    /// call slots filed there, in Call-ID text order. The returned calls
    /// are unfiled: the caller must follow up with [`FactBase::sweep_due`]
    /// (which re-files survivors) or re-filing is lost.
    pub(crate) fn due_calls(&mut self, now_ms: u64) -> Vec<CallIdx> {
        let mut due = Vec::new();
        let horizon = now_ms / WHEEL_BUCKET_MS;
        while let Some((&bucket, _)) = self.wheel.first_key_value() {
            if bucket > horizon {
                break;
            }
            let idxs = self.wheel.remove(&bucket).unwrap_or_default();
            for idx in idxs {
                if let Some(slot) = self.calls.get_mut(idx.0) {
                    // Entries orphaned by reindexing (or left behind by an
                    // evicted call whose slot was reused) are stale; the
                    // live filing is the one the record points back at.
                    // This also deduplicates a call re-filed into the same
                    // bucket twice.
                    if slot.record.wheel_bucket == bucket {
                        slot.record.wheel_bucket = NO_BUCKET;
                        due.push(idx);
                    }
                }
            }
        }
        // Text order, not slot order: slot and interner ids depend on
        // arrival interleaving, so only the string is deterministic across
        // runs.
        due.sort_unstable_by_key(|&idx| self.id_of(idx).as_str());
        due
    }

    /// Marks the given (due) calls' finality and evicts those final for
    /// longer than the configured grace period; survivors are re-filed in
    /// the wheel. Returns the evicted call ids in the order given (the
    /// text order of [`FactBase::due_calls`]).
    pub(crate) fn sweep_due(&mut self, due: &[CallIdx], now_ms: u64) -> Vec<Sym> {
        let delay = self.config.eviction_delay.as_millis();
        let mut expired = Vec::new();
        for &idx in due {
            let Some(slot) = self.calls.get_mut(idx.0) else {
                continue;
            };
            let record = &mut slot.record;
            if record.network.all_final() {
                let since = *record.final_since_ms.get_or_insert(now_ms);
                if now_ms.saturating_sub(since) >= delay {
                    expired.push(idx);
                    continue;
                }
            } else {
                record.final_since_ms = None;
            }
            // Still monitored: re-file under the next wake deadline.
            self.reindex_idx(idx);
        }
        let mut evicted = Vec::with_capacity(expired.len());
        for idx in expired {
            let slot = self.calls.remove(self.id_of(idx)).expect("live call slot");
            for key in &slot.record.media_keys {
                // A later call may have republished the same coordinates;
                // only entries still pointing at this slot are ours to drop.
                if self.media_index.get(key) == Some(&idx) {
                    self.media_index.remove(key);
                }
            }
            self.stats.calls_evicted += 1;
            evicted.push(slot.id);
        }
        evicted
    }

    /// Marks finished calls and evicts those final for longer than the
    /// configured grace period. Returns the evicted call ids.
    ///
    /// Only calls whose wake deadline fell due are visited (see the
    /// `wheel` field): the cost is O(expiring), not O(live calls).
    pub fn sweep(&mut self, now_ms: u64) -> Vec<Sym> {
        let due = self.due_calls(now_ms);
        self.sweep_due(&due, now_ms)
    }

    /// Fact-base memory attributable to monitored state (E5, the
    /// `memory_bytes` gauge): every live call, flood-counter and
    /// registration slot at its `size_of`, any heap a record spilled to,
    /// and the entries of the indexes that find them (Call-ID, media
    /// coordinates, expiry wheel). Machine definitions are shared and
    /// excluded, exactly as the paper argues in §7.3; so is the interner,
    /// which holds the text of every Call-ID, tag and address and is
    /// accounted by its own metric.
    pub fn memory_bytes(&self) -> usize {
        let calls = self.calls.memory_bytes(|slot| {
            slot.record.network.heap_bytes() + slot.record.media_keys.heap_bytes()
        });
        let wheel: usize = self
            .wheel
            .values()
            .map(|filed| size_of::<(u64, Vec<CallIdx>)>() + filed.len() * size_of::<CallIdx>())
            .sum();
        calls
            + index_bytes(&self.media_index)
            + wheel
            + self.invite_flood.memory_bytes(SoloNetwork::heap_bytes)
            + self.response_flood.memory_bytes(SoloNetwork::heap_bytes)
            + self.registrations.memory_bytes(SoloNetwork::heap_bytes)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use vids_efsm::Event;

    fn invite_event() -> Event {
        Event::data("SIP.INVITE")
            .with_str("call_id", "c1")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "")
            .with_str("src_ip", "10.1.0.10")
            .with_str("dst_ip", "10.2.0.10")
            .with_str("cseq_method", "INVITE")
            .with_bool("has_sdp", true)
            .with_str("sdp_ip", "10.1.0.10")
            .with_uint("sdp_port", 20_000)
            .with_uint("sdp_pt", 18)
    }

    #[test]
    fn create_and_index_call() {
        let mut fb = FactBase::new(Config::default());
        {
            let record = fb.create_call("c1", 0);
            let sip = record.network.machine_by_name("sip").unwrap();
            record.network.deliver(sip, invite_event(), 0);
        }
        fb.refresh_media_index(Sym::intern("c1"));
        assert_eq!(fb.call_count(), 1);
        assert_eq!(fb.media_lookup("10.1.0.10", 20_000).unwrap(), "c1");
        assert_eq!(fb.media_lookup("10.9.9.9", 20_000), None);
        assert_eq!(fb.stats().calls_created, 1);
        assert_eq!(fb.stats().peak_concurrent, 1);
    }

    #[test]
    fn sweep_evicts_only_after_grace_period() {
        let mut cfg = Config::default();
        cfg.eviction_delay = vids_netsim::time::SimTime::from_millis(1_000);
        let mut fb = FactBase::new(cfg);
        {
            let record = fb.create_call("c1", 0);
            let sip = record.network.machine_by_name("sip").unwrap();
            // Drive to TERMINATED quickly: INVITE then failure then ACK.
            record.network.deliver(sip, invite_event(), 0);
            record.network.deliver(
                sip,
                Event::data("SIP.failure")
                    .with_str("cseq_method", "INVITE")
                    .with_uint("status", 486),
                1,
            );
            record.network.deliver(sip, Event::data("SIP.ACK"), 2);
        }
        // The RTP machine is not final (still in RTP_OPEN after δ.open):
        // the call must NOT be evicted.
        assert!(fb.sweep(10_000).is_empty());
        assert_eq!(fb.call_count(), 1);
    }

    #[test]
    fn fully_final_call_is_evicted() {
        let mut cfg = Config::default();
        cfg.eviction_delay = vids_netsim::time::SimTime::from_millis(100);
        let mut fb = FactBase::new(cfg);
        {
            let record = fb.create_call("c1", 0);
            let sip = record.network.machine_by_name("sip").unwrap();
            record.network.deliver(sip, invite_event(), 0);
            record.network.deliver(
                sip,
                Event::data("SIP.2xx")
                    .with_str("cseq_method", "INVITE")
                    .with_str("to_tag", "tt")
                    .with_bool("has_sdp", true)
                    .with_str("sdp_ip", "10.2.0.10")
                    .with_uint("sdp_port", 30_000),
                1,
            );
            record.network.deliver(
                sip,
                Event::data("SIP.BYE")
                    .with_str("from_tag", "ft")
                    .with_str("to_tag", "tt")
                    .with_str("cseq_method", "BYE"),
                2,
            );
            record.network.deliver(
                sip,
                Event::data("SIP.2xx").with_str("cseq_method", "BYE"),
                3,
            );
            // Let the RTP machine's drain timer T expire.
            record.network.advance_time(5_000);
            assert!(record.network.all_final());
        }
        assert!(fb.sweep(5_000).is_empty(), "grace period not yet over");
        let evicted = fb.sweep(5_200);
        assert_eq!(evicted, vec![Sym::intern("c1")]);
        assert_eq!(fb.call_count(), 0);
        assert_eq!(fb.stats().calls_evicted, 1);
        assert_eq!(fb.media_lookup("10.1.0.10", 20_000), None);
    }

    #[test]
    fn memory_grows_linearly_with_calls() {
        let mut fb = FactBase::new(Config::default());
        let mut sizes = Vec::new();
        for i in 0..20 {
            let id = format!("call-{i}");
            let record = fb.create_call(&id, 0);
            let sip = record.network.machine_by_name("sip").unwrap();
            let mut ev = invite_event();
            ev.args.set("call_id", id.clone());
            record.network.deliver(sip, ev, 0);
            fb.refresh_media_index(Sym::intern(&id));
            sizes.push(fb.memory_bytes());
        }
        // Roughly linear: the 20th increment is close to the 2nd.
        let d1 = sizes[2] - sizes[1];
        let d19 = sizes[19] - sizes[18];
        assert!(d19 <= d1 * 2, "increments {d1} vs {d19}");
        // Paper §7.3 ballpark: a few hundred bytes per call.
        let per_call = sizes[19] / 20;
        assert!(
            (100..4_000).contains(&per_call),
            "per-call memory {per_call} B"
        );
    }

    #[test]
    fn flood_machines_are_per_destination() {
        let mut fb = FactBase::new(Config::default());
        let a = fb.invite_flood_mut(1) as *const SoloNetwork;
        let b = fb.invite_flood_mut(2) as *const SoloNetwork;
        assert_ne!(a, b);
        // Re-fetch returns the same machine.
        let a2 = fb.invite_flood_mut(1) as *const SoloNetwork;
        assert_eq!(a, a2);
    }
}
