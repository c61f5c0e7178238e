//! The Call State Fact Base (Fig. 3).
//!
//! "The vids component, Call State Fact Base, stores the control state and
//! its state variables and keeps track of the progress of state machines
//! for each ongoing call." (§5) One communicating-EFSM network (SIP + RTP
//! machine) exists per monitored call; per-destination flood machines live
//! beside them. Calls whose machines all reached final states are evicted
//! after a grace period (§7.3), keeping memory proportional to *ongoing*
//! calls only. A flood counter ends with its window: the sweep that fires
//! its T1 returns it to INIT with no count, a machine equal to a fresh one,
//! and drops it; a registration its owner unbinds is dropped at that
//! delivery. What stays is what carries information — an open window, a
//! binding, an attack state.
//!
//! Every record — a call, a destination's flood counter, an AOR's
//! registration — is one cell of a chunked slab and owns no heap block of
//! its own: creating one writes a cell, a freed cell joins a free list
//! threaded through the free cells, and the allocator is touched only when
//! a slab or an index grows.

use std::hash::Hash;
use std::mem::size_of;
use std::net::Ipv4Addr;
use std::sync::Arc;

use vids_efsm::machine::MachineDef;
use vids_efsm::network::{MachineId, Network, SoloNetwork};
use vids_efsm::{InlineVec, Sym, SymKey};
use vids_scan::fxhash::FxHashMap;

use crate::config::Config;
use crate::machines::flood::{invite_flood_machine, response_flood_machine};
use crate::machines::register::registration_machine;
use crate::machines::rtp::rtp_session_machine;
use crate::machines::sip::sip_call_machine;
use crate::machines::{CallGlobals, MediaKey};

/// Width of one expiry-wheel bucket. Matches the engine's sweep interval:
/// a sweep pops every bucket at or before `now`, so a finer wheel would
/// only split work the sweep drains together anyway.
const WHEEL_BUCKET_MS: u64 = 100;

/// Sentinel bucket for "not indexed in the wheel".
const NO_BUCKET: u64 = u64::MAX;

/// Slots in the expiry wheel's ring, a power of two: bucket `b` lives in
/// slot `b % WHEEL_SLOTS`. 128 buckets of 100 ms make a 12.8 s lap, past
/// every default deadline (teardown linger 8 s, eviction delay 5 s); a
/// filing further out stays in its slot when the slot comes round and is
/// visited a lap or more later.
const WHEEL_SLOTS: usize = 128;

/// `log2(WHEEL_SLOTS)`: a bucket is its lap shifted left by this, plus its
/// slot.
const WHEEL_SHIFT: u32 = WHEEL_SLOTS.trailing_zeros();

/// Filings per chunk of the wheel's filing slab (12 KiB). Like the record
/// slabs, the filing slab grows a chunk at a time and never moves a
/// filing, so growth requests only the new chunk.
const FILING_CHUNK: usize = 1024;

/// The wheel bucket of monitor time `ms`. A filing keeps its lap in 32
/// bits, which covers 1 744 years of monitor time; a deadline past that
/// (a configured delay no clock reaches) is filed at the last bucket, so
/// it is visited early rather than misfiled.
fn bucket_of(ms: u64) -> u64 {
    const LAST: u64 = ((u32::MAX as u64) << WHEEL_SHIFT) | (WHEEL_SLOTS as u64 - 1);
    (ms / WHEEL_BUCKET_MS).min(LAST)
}

/// Slots per slab chunk. A slab grows by one chunk of this many slots and
/// never moves a slot once written: under a flood of new calls the
/// allocator sees one ~62 KiB request per 64 calls and requested bytes
/// track live state, where one doubling `Vec` re-requests everything it
/// holds at every growth step.
const CHUNK_SLOTS: usize = 64;

/// End of a chain of slot numbers: a slab's free list, the armed FIFO of a
/// [`Solos`] table.
const NO_SLOT: u32 = u32::MAX;

/// One cell of a slab: a live record, or a free cell naming the next free
/// one ([`NO_SLOT`] ends the list). The free list is threaded through the
/// cells it lists, as the wheel's through its filings, so freeing and
/// reusing a slot never touches the allocator.
enum Cell<T> {
    Live(T),
    Free(u32),
}

/// A keyed slab: a hash index from key to a dense slot number, and the
/// slots themselves in fixed-size chunks. Fx-hashed: the keys are interned
/// symbols or address words, not attacker-chosen strings — HashDoS
/// pressure lands on the interner's own SipHash table, never here.
///
/// A slot number is valid until its record is removed; freed numbers are
/// reused, so a side table that stores one must be scrubbed or
/// stamp-checked when the record goes (the media index and the expiry
/// wheel are).
struct Table<K, T> {
    index: FxHashMap<K, u32>,
    chunks: Vec<Vec<Cell<T>>>,
    /// First free cell, the rest chained through [`Cell::Free`].
    free: u32,
}

impl<K: Hash + Eq + Copy, T> Table<K, T> {
    fn new() -> Self {
        Table {
            index: FxHashMap::default(),
            chunks: Vec::new(),
            free: NO_SLOT,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    #[inline]
    fn slot_of(&self, key: K) -> Option<u32> {
        self.index.get(&key).copied()
    }

    /// The storage cell behind a slot number, live or free.
    #[inline]
    fn cell(&self, slot: u32) -> Option<&Cell<T>> {
        let slot = slot as usize;
        self.chunks.get(slot / CHUNK_SLOTS)?.get(slot % CHUNK_SLOTS)
    }

    #[inline]
    fn cell_mut(&mut self, slot: u32) -> Option<&mut Cell<T>> {
        let slot = slot as usize;
        self.chunks
            .get_mut(slot / CHUNK_SLOTS)?
            .get_mut(slot % CHUNK_SLOTS)
    }

    #[inline]
    fn get(&self, slot: u32) -> Option<&T> {
        match self.cell(slot)? {
            Cell::Live(value) => Some(value),
            Cell::Free(_) => None,
        }
    }

    #[inline]
    fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        match self.cell_mut(slot)? {
            Cell::Live(value) => Some(value),
            Cell::Free(_) => None,
        }
    }

    /// Files `value` under `key`, which must not be present.
    fn insert(&mut self, key: K, value: T) -> u32 {
        let slot = match self.free {
            NO_SLOT => {
                if self
                    .chunks
                    .last()
                    .is_none_or(|chunk| chunk.len() == CHUNK_SLOTS)
                {
                    self.chunks.push(Vec::with_capacity(CHUNK_SLOTS));
                }
                let base = (self.chunks.len() - 1) * CHUNK_SLOTS;
                let chunk = self.chunks.last_mut().expect("a chunk with room");
                chunk.push(Cell::Live(value));
                (base + chunk.len() - 1) as u32
            }
            slot => {
                let cell = self.cell_mut(slot).expect("a freed slot exists");
                let Cell::Free(next) = *cell else {
                    unreachable!("the free list holds only free cells")
                };
                *cell = Cell::Live(value);
                self.free = next;
                slot
            }
        };
        let previous = self.index.insert(key, slot);
        debug_assert!(previous.is_none(), "key filed twice");
        slot
    }

    fn remove(&mut self, key: K) -> Option<T> {
        let slot = self.index.remove(&key)?;
        let next = self.free;
        let cell = self.cell_mut(slot)?;
        match std::mem::replace(cell, Cell::Free(next)) {
            Cell::Live(value) => {
                self.free = slot;
                Some(value)
            }
            Cell::Free(_) => unreachable!("an indexed slot is live"),
        }
    }

    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> T) -> u32 {
        match self.slot_of(key) {
            Some(slot) => slot,
            None => self.insert(key, make()),
        }
    }

    fn values(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten().filter_map(|cell| match cell {
            Cell::Live(value) => Some(value),
            Cell::Free(_) => None,
        })
    }

    /// What the live records cost: their cells, whatever heap `heap_of`
    /// says each owns, and their index entries. Reserved-but-unused room
    /// (a chunk's tail, freed cells, hash-table slack) is not charged.
    fn memory_bytes(&self, heap_of: impl Fn(&T) -> usize) -> usize {
        self.len() * size_of::<Cell<T>>()
            + self.values().map(heap_of).sum::<usize>()
            + index_bytes(&self.index)
    }
}

/// One solo machine in a [`Solos`] table: the network, the key it is filed
/// under (the sweep that drops it reaches it by slot), and its neighbours
/// in the table's FIFO of armed records ([`NO_SLOT`] at either end, and in
/// both while unlinked).
struct Solo<K> {
    key: K,
    prev: u32,
    next: u32,
    net: SoloNetwork,
}

// Sizes are facts: a flooded or swept address space costs one of these per
// destination with a window open, so a field added here has to argue with
// a number.
const _: () = assert!(size_of::<Cell<Solo<u32>>>() <= 112);

/// The solo machines of one kind — each destination's INVITE-flood or
/// response-flood counter, each address-of-record's registration — in a
/// slab, and a FIFO of the records with an armed timer, threaded through
/// the records themselves.
///
/// A record that is back where a fresh one starts ([`SoloNetwork::is_fresh`])
/// carries no information, so it is dropped rather than kept: after the
/// delivery that returned it there (a registration unbound by its owner),
/// or after the sweep fired the timer that did (a flood window whose T1
/// closed with the counter under N). The next event for its key makes a
/// fresh one, which steps exactly as the dropped one would have.
///
/// Every timer a shipped solo machine arms has one fixed delay per table —
/// a flood counter's T1 — so arming order is deadline order and the sweep
/// pops due records off the head: O(due), not O(records). A record whose
/// deadline changed (a window the lazy fire-then-deliver path closed and
/// re-opened before a sweep reached it) moves to the tail. A machine
/// arming timers of different delays would be swept late, never early:
/// its timers still fire before its next delivery, as every timer does.
struct Solos<K> {
    def: Arc<MachineDef>,
    table: Table<K, Solo<K>>,
    /// Oldest and newest armed record.
    head: u32,
    tail: u32,
}

impl<K: Hash + Eq + Copy> Solos<K> {
    fn new(def: MachineDef) -> Self {
        Solos {
            def: Arc::new(def),
            table: Table::new(),
            head: NO_SLOT,
            tail: NO_SLOT,
        }
    }

    fn solo_mut(&mut self, slot: u32) -> &mut Solo<K> {
        self.table.get_mut(slot).expect("live solo slot")
    }

    /// Runs `f` on `key`'s machine, made fresh if absent, then files the
    /// record by what `f` left: dropped when fresh again, re-queued when its
    /// deadline moved.
    fn with<R>(&mut self, key: K, f: impl FnOnce(&mut SoloNetwork) -> R) -> R {
        let def = &self.def;
        let slot = self.table.get_or_insert_with(key, || Solo {
            key,
            prev: NO_SLOT,
            next: NO_SLOT,
            net: SoloNetwork::new(Arc::clone(def)),
        });
        let net = &mut self.solo_mut(slot).net;
        let armed = net.next_timer_deadline();
        let out = f(net);
        self.refile(slot, armed);
        out
    }

    /// Fires the timers of every record due at or before `now_ms`, oldest
    /// arming first, handing each to `fire` with its key, and files it by
    /// what the firing left — a closed window is dropped.
    fn expire(&mut self, now_ms: u64, mut fire: impl FnMut(K, &mut SoloNetwork)) {
        while self.head != NO_SLOT {
            let slot = self.head;
            let solo = self.solo_mut(slot);
            let armed = solo.net.next_timer_deadline();
            debug_assert!(armed.is_some(), "a queued record has a timer armed");
            if armed.is_some_and(|due| due > now_ms) {
                break;
            }
            fire(solo.key, &mut solo.net);
            self.refile(slot, armed);
        }
    }

    /// Files `slot` by its network after a step: `armed` is the deadline it
    /// was queued under (`None`: not queued).
    fn refile(&mut self, slot: u32, armed: Option<u64>) {
        let solo = self.solo_mut(slot);
        let (key, now_armed, fresh) = (
            solo.key,
            solo.net.next_timer_deadline(),
            solo.net.is_fresh(),
        );
        if now_armed != armed {
            if armed.is_some() {
                self.unlink(slot);
            }
            if now_armed.is_some() {
                self.push_back(slot);
            }
        }
        if fresh {
            self.table.remove(key);
        }
    }

    fn push_back(&mut self, slot: u32) {
        let tail = self.tail;
        let solo = self.solo_mut(slot);
        (solo.prev, solo.next) = (tail, NO_SLOT);
        match tail {
            NO_SLOT => self.head = slot,
            tail => self.solo_mut(tail).next = slot,
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let solo = self.solo_mut(slot);
        let (prev, next) = (solo.prev, solo.next);
        (solo.prev, solo.next) = (NO_SLOT, NO_SLOT);
        match prev {
            NO_SLOT => self.head = next,
            prev => self.solo_mut(prev).next = next,
        }
        match next {
            NO_SLOT => self.tail = prev,
            next => self.solo_mut(next).prev = prev,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.table.memory_bytes(|solo| solo.net.heap_bytes())
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

/// One entry of the expiry wheel: a call slot filed under a bucket, and
/// the next filing of the same ring slot ([`NO_FILING`] ends the list).
/// The bucket is the filing's lap and the slot it is listed in.
#[derive(Clone, Copy)]
struct Filing {
    idx: CallIdx,
    next: u32,
    /// `bucket >> WHEEL_SHIFT`; [`bucket_of`] keeps it within 32 bits.
    lap: u32,
}

// Sizes are facts: a half-open call is filed once, and E5 counts it.
const _: () = assert!(size_of::<Filing>() == 12);

/// End of a bucket's list of filings, and of the free list.
const NO_FILING: u32 = u32::MAX;

/// Coarse time-wheel over call wake deadlines (armed timers, pending
/// eviction stamps, grace-period expiries). A sweep visits only the calls
/// whose bucket fell due, so a sweep over N idle calls costs O(expiring),
/// not O(N log N).
///
/// The wheel is a fixed ring of [`WHEEL_SLOTS`] list heads, allocated with
/// the fact base, and every slot's list is threaded through one chunked
/// slab of filings in filing order. A drained filing goes back to a free
/// list that the next filing — in whichever slot — takes from, so steady
/// churn never reaches the allocator once the slab has grown to the
/// wheel's usual depth, and the slab never holds a chunk more than the
/// most filings ever live at once. Nothing is keyed by wall-clock time:
/// no bucket owns storage of its own.
///
/// The visit order is bucket order, then filing order within a bucket —
/// also for filings under buckets already past (a call stamped due at once
/// files under bucket 0) and across a clock jump longer than the ring.
struct Wheel {
    /// Ring slot → its first and last filing ([`NO_FILING`] when empty).
    slots: Box<[(u32, u32)]>,
    /// The filing slab, [`FILING_CHUNK`] filings a chunk.
    filings: Vec<Vec<Filing>>,
    /// First free filing, the rest chained through `next`.
    free: u32,
    /// Filings in some slot's list.
    filed: usize,
    /// No filing is under a bucket below this one.
    low: u64,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            slots: vec![(NO_FILING, NO_FILING); WHEEL_SLOTS].into_boxed_slice(),
            filings: Vec::new(),
            free: NO_FILING,
            filed: 0,
            low: u64::MAX,
        }
    }

    fn slot(bucket: u64) -> usize {
        (bucket & (WHEEL_SLOTS as u64 - 1)) as usize
    }

    fn bucket(filing: &Filing, slot: usize) -> u64 {
        (u64::from(filing.lap) << WHEEL_SHIFT) | slot as u64
    }

    fn at(&self, at: u32) -> &Filing {
        let at = at as usize;
        &self.filings[at / FILING_CHUNK][at % FILING_CHUNK]
    }

    fn at_mut(&mut self, at: u32) -> &mut Filing {
        let at = at as usize;
        &mut self.filings[at / FILING_CHUNK][at % FILING_CHUNK]
    }

    fn file(&mut self, bucket: u64, idx: CallIdx) {
        debug_assert!(bucket >> WHEEL_SHIFT <= u64::from(u32::MAX));
        let filing = Filing {
            idx,
            next: NO_FILING,
            lap: (bucket >> WHEEL_SHIFT) as u32,
        };
        let at = match self.free {
            NO_FILING => {
                if self
                    .filings
                    .last()
                    .is_none_or(|chunk| chunk.len() == FILING_CHUNK)
                {
                    self.filings.push(Vec::with_capacity(FILING_CHUNK));
                }
                let full = (self.filings.len() - 1) * FILING_CHUNK;
                let chunk = self
                    .filings
                    .last_mut()
                    .expect("a chunk with room was just ensured");
                chunk.push(filing);
                (full + chunk.len() - 1) as u32
            }
            at => {
                self.free = self.at(at).next;
                *self.at_mut(at) = filing;
                at
            }
        };
        self.filed += 1;
        self.low = self.low.min(bucket);
        self.append(Wheel::slot(bucket), at);
    }

    /// Links filing `at` at the end of `slot`'s list.
    fn append(&mut self, slot: usize, at: u32) {
        self.at_mut(at).next = NO_FILING;
        let (first, last) = self.slots[slot];
        if first == NO_FILING {
            self.slots[slot].0 = at;
        } else {
            self.at_mut(last).next = at;
        }
        self.slots[slot].1 = at;
    }

    /// Removes every filing under a bucket at or before `horizon`, earliest
    /// bucket first and in filing order within one, hands each call filed
    /// there to `visit` with its bucket, and frees the filings.
    fn drain_due(&mut self, horizon: u64, mut visit: impl FnMut(u64, CallIdx)) {
        let mut bucket = self.low;
        while bucket <= horizon {
            // At most one lap at a time: each slot holds one bucket of it.
            let lap_end = horizon.min(bucket.saturating_add(WHEEL_SLOTS as u64 - 1));
            for due in bucket..=lap_end {
                self.drain_bucket(due, &mut visit);
            }
            if lap_end == horizon {
                break;
            }
            // A clock jump longer than the ring: go on from the earliest
            // bucket still filed rather than walk the empty laps between.
            bucket = self.earliest().max(lap_end + 1);
        }
        self.low = self.low.max(horizon.saturating_add(1));
    }

    /// Visits and frees the filings under `bucket`, keeping the others of
    /// its slot — later laps — in their order.
    fn drain_bucket(&mut self, bucket: u64, visit: &mut impl FnMut(u64, CallIdx)) {
        let slot = Wheel::slot(bucket);
        let (mut at, _) = self.slots[slot];
        if at == NO_FILING {
            return;
        }
        self.slots[slot] = (NO_FILING, NO_FILING);
        while at != NO_FILING {
            let filing = *self.at(at);
            if Wheel::bucket(&filing, slot) == bucket {
                visit(bucket, filing.idx);
                self.filed -= 1;
                self.at_mut(at).next = self.free;
                self.free = at;
            } else {
                self.append(slot, at);
            }
            at = filing.next;
        }
    }

    /// The earliest bucket any filing is under; `u64::MAX` when none is.
    fn earliest(&self) -> u64 {
        let mut earliest = u64::MAX;
        for (slot, &(first, _)) in self.slots.iter().enumerate() {
            let mut at = first;
            while at != NO_FILING {
                let filing = self.at(at);
                earliest = earliest.min(Wheel::bucket(filing, slot));
                at = filing.next;
            }
        }
        earliest
    }

    /// What the wheel's entries cost: the ring slots holding a list and
    /// the filings in them — entries, as every index is counted, not the
    /// ring's fixed 1 KiB.
    fn memory_bytes(&self) -> usize {
        let occupied = self.slots.iter().filter(|(first, _)| *first != NO_FILING);
        occupied.count() * size_of::<(u32, u32)>() + self.filed * size_of::<Filing>()
    }
}

/// One occupied call slot: the call's id plus its record. This *is* the
/// call's state — the network inside it keeps machines, variables and
/// timers inline, so a half-open call owns no heap block.
struct Slot {
    id: Sym,
    record: CallRecord,
}

// Sizes are facts (§7.3 argues capacity from the per-call cost): the next
// field someone adds to a call has to argue with this number.
const _: () = assert!(size_of::<Cell<Slot>>() <= 384);

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
    media_keys: InlineVec<MediaKey, 2>,
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
    /// Every call's network starts as a copy of this one: the SIP and RTP
    /// machines at their initial states, sharing one definition list.
    call_proto: Network,
    /// Handles of the call globals the media index reads.
    call_globals: CallGlobals,
    /// Call-ID → call slot. Dense and index-stable: a call keeps its slot
    /// for its whole life, so the hot paths re-touch the same cache lines
    /// instead of re-probing a hash table per packet.
    calls: Table<Sym, Slot>,
    /// `(media ip, media port) -> call slot`, rebuilt from the call-global
    /// variables the SIP machine publishes. Keys are values: probing on the
    /// RTP hot path hashes six bytes and never touches the interner.
    media_index: FxHashMap<MediaKey, CallIdx>,
    invite_flood: Solos<u32>,
    response_flood: Solos<u32>,
    registrations: Solos<Sym>,
    /// Call wake deadlines, by 100 ms bucket.
    wheel: Wheel,
    /// The due calls of the sweep in progress: lent out by
    /// [`FactBase::due_calls`], handed back to [`FactBase::sweep_due`].
    due: Vec<CallIdx>,
    /// The Call-IDs the last sweep evicted, in the order it evicted them.
    evicted: Vec<Sym>,
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
        // Machine ids are positional and every call network is a copy of
        // the prototype, so the engine never resolves a machine by name on
        // the per-packet path.
        let mut call_proto = Network::new();
        let sip_machine = call_proto.add_machine(Arc::new(sip_call_machine(&config)));
        let rtp_machine = call_proto.add_machine(Arc::new(rtp_session_machine(&config)));
        if !config.cross_protocol_sync {
            call_proto.disable_sync();
        }
        FactBase {
            call_proto,
            call_globals: CallGlobals::declare().1,
            invite_flood: Solos::new(invite_flood_machine(&config)),
            response_flood: Solos::new(response_flood_machine(&config)),
            registrations: Solos::new(registration_machine()),
            config,
            calls: Table::new(),
            media_index: FxHashMap::default(),
            wheel: Wheel::new(),
            due: Vec::new(),
            evicted: Vec::new(),
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
    /// its slab index. The call is not filed in the wheel: the engine
    /// delivers its first event and then files it under its real deadline
    /// with [`FactBase::reindex_idx`], so a new call costs one filing, not
    /// a due-now filing plus that one.
    pub(crate) fn create_call_idx(&mut self, call_id: impl SymKey, now_ms: u64) -> CallIdx {
        let call_id = call_id.to_sym();
        self.stats.calls_created += 1;
        let idx = match self.call_idx(call_id) {
            Some(idx) => idx,
            None => {
                let slot = Slot {
                    id: call_id,
                    record: CallRecord {
                        network: self.call_proto.clone(),
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
        idx
    }

    /// Instantiates the per-call machine network for a new call, filed
    /// due-now: the next sweep visits it once, observes its real
    /// timers/finality, and re-files it under the proper bucket. Callers
    /// that drive the network directly (tests, examples) stay sweepable
    /// without an explicit reindex after every delivery.
    pub fn create_call(&mut self, call_id: impl SymKey, now_ms: u64) -> &mut CallRecord {
        let idx = self.create_call_idx(call_id, now_ms);
        let bucket = bucket_of(now_ms);
        let record = self.record_mut(idx);
        if record.wheel_bucket != bucket {
            record.wheel_bucket = bucket;
            self.wheel.file(bucket, idx);
        }
        self.record_mut(idx)
    }

    /// Files the coordinate a SIP event's SDP named, `sdp`, after the call
    /// at `idx` took the event, and returns whether the call took the
    /// coordinate: it does when its globals name it. Nothing else moves a
    /// coordinate — not an SDP that no call takes, not an event without
    /// SDP — so a forged datagram cannot detach a call's media, and
    /// whichever engine of a pool holds each claimant, the last taken claim
    /// decides. Port 0 names no stream.
    pub(crate) fn claim_media(&mut self, idx: CallIdx, sdp: Option<MediaKey>) -> bool {
        let Some(key) = sdp.filter(|key| key.port != 0) else {
            return false;
        };
        if !self.names_media(idx, key) {
            return false;
        }
        let slot = self.calls.get_mut(idx.0).expect("live call slot");
        if !slot.record.media_keys.contains(&key) {
            slot.record.media_keys.push(key);
        }
        self.media_index.insert(key, idx);
        true
    }

    /// Gives up a coordinate a call on another engine of a pool has since
    /// claimed.
    pub(crate) fn release_media(&mut self, key: MediaKey) {
        self.media_index.remove(&key);
    }

    /// Whether the call's globals name `key` as its caller's or callee's
    /// media: four slot reads.
    fn names_media(&self, idx: CallIdx, key: MediaKey) -> bool {
        let slot = self.calls.get(idx.0).expect("live call slot");
        let (net, sip, g) = (&slot.record.network, self.sip_machine, self.call_globals);
        let port = Some(u64::from(key.port));
        let names = |ip, p| net.get(sip, ip) == Some(key.ip) && net.get(sip, p) == port;
        names(g.caller_media_ip, g.caller_media_port)
            || names(g.callee_media_ip, g.callee_media_port)
    }

    /// Looks up the call owning a media endpoint.
    pub fn media_lookup(&self, ip: Ipv4Addr, port: u16) -> Option<Sym> {
        Some(self.id_of(self.media_lookup_idx(MediaKey { ip, port })?))
    }

    /// Every media endpoint some call owns, for rebuilding a routing index.
    pub(crate) fn media_keys(&self) -> impl Iterator<Item = MediaKey> + '_ {
        self.media_index.keys().copied()
    }

    /// [`FactBase::media_lookup`] returning the slab index, for the RTP hot
    /// path.
    #[inline]
    pub(crate) fn media_lookup_idx(&self, key: MediaKey) -> Option<CallIdx> {
        self.media_index.get(&key).copied()
    }

    /// Steps the per-destination INVITE-flood machine (Fig. 4) with `f`,
    /// made fresh if the destination has none; a machine `f` leaves fresh
    /// is dropped.
    pub(crate) fn invite_flood<R>(
        &mut self,
        dst_ip: u32,
        f: impl FnOnce(&mut SoloNetwork) -> R,
    ) -> R {
        self.invite_flood.with(dst_ip, f)
    }

    /// Steps the per-destination response-flood machine (DRDoS), as
    /// [`FactBase::invite_flood`].
    pub(crate) fn response_flood<R>(
        &mut self,
        dst_ip: u32,
        f: impl FnOnce(&mut SoloNetwork) -> R,
    ) -> R {
        self.response_flood.with(dst_ip, f)
    }

    /// Steps the per-AOR registration machine (extension), as
    /// [`FactBase::invite_flood`]: an address-of-record back in `UNBOUND`
    /// with no binding left is dropped.
    pub(crate) fn registration<R>(&mut self, aor: Sym, f: impl FnOnce(&mut SoloNetwork) -> R) -> R {
        self.registrations.with(aor, f)
    }

    /// Fires every flood window's T1 due at or before `now_ms` through
    /// `fire`, which gets the destination, and drops the windows it closed:
    /// INVITE windows first, then response windows, each in the order they
    /// opened.
    pub(crate) fn expire_windows(
        &mut self,
        now_ms: u64,
        mut fire: impl FnMut(u32, &mut SoloNetwork),
    ) {
        self.invite_flood.expire(now_ms, &mut fire);
        self.response_flood.expire(now_ms, &mut fire);
    }

    /// Destinations holding an INVITE-flood and a response-flood record,
    /// and addresses-of-record holding a registration.
    #[cfg(test)]
    fn solo_counts(&self) -> (usize, usize, usize) {
        (
            self.invite_flood.table.len(),
            self.response_flood.table.len(),
            self.registrations.table.len(),
        )
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
            Some(d) => bucket_of(d),
            None => NO_BUCKET,
        };
        if bucket == record.wheel_bucket {
            return;
        }
        record.wheel_bucket = bucket;
        if bucket != NO_BUCKET {
            self.wheel.file(bucket, idx);
        }
    }

    /// Pops every wheel bucket at or before `now_ms` and returns the live
    /// call slots filed there, in Call-ID text order. The returned calls
    /// are unfiled: the caller must follow up with [`FactBase::sweep_due`]
    /// (which re-files survivors, and takes the list back for the next
    /// sweep) or re-filing is lost.
    pub(crate) fn due_calls(&mut self, now_ms: u64) -> Vec<CallIdx> {
        let mut due = std::mem::take(&mut self.due);
        let horizon = bucket_of(now_ms);
        let calls = &mut self.calls;
        self.wheel.drain_due(horizon, |bucket, idx| {
            if let Some(slot) = calls.get_mut(idx.0) {
                // Entries orphaned by reindexing (or left behind by an
                // evicted call whose slot was reused) are stale; the live
                // filing is the one the record points back at. This also
                // deduplicates a call re-filed into the same bucket twice.
                if slot.record.wheel_bucket == bucket {
                    slot.record.wheel_bucket = NO_BUCKET;
                    due.push(idx);
                }
            }
        });
        // Text order, not slot order: slot and interner ids depend on
        // arrival interleaving, so only the string is deterministic across
        // runs.
        due.sort_unstable_by_key(|&idx| self.id_of(idx).as_str());
        due
    }

    /// Marks the given (due) calls' finality and evicts those final for
    /// longer than the configured grace period, in the order given (the
    /// text order of [`FactBase::due_calls`]); survivors are re-filed in
    /// the wheel. Returns how many calls it evicted, and keeps `due` for
    /// the next sweep.
    pub(crate) fn sweep_due(&mut self, mut due: Vec<CallIdx>, now_ms: u64) -> usize {
        let delay = self.config.eviction_delay.as_millis();
        self.evicted.clear();
        for &idx in &due {
            let Some(slot) = self.calls.get_mut(idx.0) else {
                continue;
            };
            let record = &mut slot.record;
            if record.network.all_final() {
                let since = *record.final_since_ms.get_or_insert(now_ms);
                if now_ms.saturating_sub(since) >= delay {
                    self.evict(idx);
                    continue;
                }
            } else {
                record.final_since_ms = None;
            }
            // Still monitored: re-file under the next wake deadline.
            self.reindex_idx(idx);
        }
        due.clear();
        self.due = due;
        self.evicted.len()
    }

    /// Removes a call and the media-index entries it published.
    fn evict(&mut self, idx: CallIdx) {
        let slot = self.calls.remove(self.id_of(idx)).expect("live call slot");
        for key in &slot.record.media_keys {
            // A later call may have republished the same coordinates;
            // only entries still pointing at this slot are ours to drop.
            if self.media_index.get(key) == Some(&idx) {
                self.media_index.remove(key);
            }
        }
        self.stats.calls_evicted += 1;
        self.evicted.push(slot.id);
    }

    /// Marks finished calls and evicts those final for longer than the
    /// configured grace period. Returns the evicted call ids, valid until
    /// the next sweep.
    ///
    /// Only calls whose wake deadline fell due are visited (see the
    /// `wheel` field): the cost is O(expiring), not O(live calls).
    pub fn sweep(&mut self, now_ms: u64) -> &[Sym] {
        let due = self.due_calls(now_ms);
        self.sweep_due(due, now_ms);
        &self.evicted
    }

    /// Fact-base memory attributable to monitored state (E5, the
    /// `memory_bytes` gauge): every live call, flood-counter and
    /// registration slot at its `size_of`, any heap a record spilled to,
    /// and the entries of the indexes that find them (Call-ID, media
    /// coordinates, expiry wheel). Machine definitions are shared and
    /// excluded, exactly as the paper argues in §7.3; so is the interner,
    /// which holds the text of every Call-ID and address-of-record and is
    /// accounted by its own metric.
    pub fn memory_bytes(&self) -> usize {
        let calls = self.calls.memory_bytes(|slot| {
            slot.record.network.heap_bytes() + slot.record.media_keys.heap_bytes()
        });
        calls
            + index_bytes(&self.media_index)
            + self.wheel.memory_bytes()
            + self.invite_flood.memory_bytes()
            + self.response_flood.memory_bytes()
            + self.registrations.memory_bytes()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use vids_efsm::{Event, NetworkOutcome, NoopObserver};

    fn ip(text: &str) -> Ipv4Addr {
        text.parse().unwrap()
    }

    fn invite_event() -> Event {
        crate::machines::SipArgs::event("SIP.INVITE")
            .with_named("call_id", "c1")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "")
            .with_named("src_ip", ip("10.1.0.10"))
            .with_named("dst_ip", ip("10.2.0.10"))
            .with_named("cseq_method", "INVITE")
            .with_named("has_sdp", true)
            .with_named("sdp_ip", ip("10.1.0.10"))
            .with_named("sdp_port", 20_000u64)
            .with_named("sdp_pt", 18u64)
    }

    #[test]
    fn create_and_index_call() {
        let mut fb = FactBase::new(Config::default());
        {
            let record = fb.create_call("c1", 0);
            let sip = record.network.machine_by_name("sip").unwrap();
            record.network.deliver(sip, invite_event(), 0);
        }
        let c1 = fb.call_idx(Sym::intern("c1")).unwrap();
        fb.claim_media(
            c1,
            Some(MediaKey {
                ip: ip("10.1.0.10"),
                port: 20_000,
            }),
        );
        assert_eq!(fb.call_count(), 1);
        assert_eq!(fb.media_lookup(ip("10.1.0.10"), 20_000).unwrap(), "c1");
        assert_eq!(fb.media_lookup(ip("10.9.9.9"), 20_000), None);
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
                crate::machines::SipArgs::event("SIP.failure")
                    .with_named("cseq_method", "INVITE")
                    .with_named("status", 486u64),
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
                crate::machines::SipArgs::event("SIP.2xx")
                    .with_named("cseq_method", "INVITE")
                    .with_named("to_tag", "tt")
                    .with_named("has_sdp", true)
                    .with_named("sdp_ip", ip("10.2.0.10"))
                    .with_named("sdp_port", 30_000u64),
                1,
            );
            record.network.deliver(
                sip,
                crate::machines::SipArgs::event("SIP.BYE")
                    .with_named("from_tag", "ft")
                    .with_named("to_tag", "tt")
                    .with_named("cseq_method", "BYE"),
                2,
            );
            record.network.deliver(
                sip,
                crate::machines::SipArgs::event("SIP.2xx").with_named("cseq_method", "BYE"),
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
        assert_eq!(fb.media_lookup(ip("10.1.0.10"), 20_000), None);
    }

    #[test]
    fn memory_grows_linearly_with_calls() {
        let mut fb = FactBase::new(Config::default());
        let mut sizes = Vec::new();
        for i in 0..20 {
            let id = format!("call-{i}");
            let record = fb.create_call(&id, 0);
            let sip = record.network.machine_by_name("sip").unwrap();
            let ev = invite_event().with_named("call_id", id.as_str());
            record.network.deliver(sip, ev, 0);
            let call = fb.call_idx(Sym::intern(&id)).unwrap();
            fb.claim_media(
                call,
                Some(MediaKey {
                    ip: ip("10.1.0.10"),
                    port: 20_000,
                }),
            );
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

    /// Drives calls through the fact base the way the engine does, up to
    /// `until_ms`: one new call a millisecond (`calls` in all), each
    /// answered at once and torn down a varying 0–2 s later, and a sweep
    /// every 100 ms that fires the timers of the calls due and evicts the
    /// finished ones.
    fn churn(fb: &mut FactBase, calls: u64, until_ms: u64) {
        let sip = fb.sip_machine();
        let answer = || {
            crate::machines::SipArgs::event("SIP.2xx")
                .with_named("cseq_method", "INVITE")
                .with_named("to_tag", "tt")
                .with_named("has_sdp", true)
                .with_named("sdp_ip", ip("10.2.0.10"))
                .with_named("sdp_port", 30_000u64)
        };
        let bye = || {
            crate::machines::SipArgs::event("SIP.BYE")
                .with_named("from_tag", "ft")
                .with_named("to_tag", "tt")
                .with_named("cseq_method", "BYE")
        };
        let bye_ok = || crate::machines::SipArgs::event("SIP.2xx").with_named("cseq_method", "BYE");
        // (time, call, step): INVITE and answer, then BYE and its 200.
        let mut schedule: Vec<(u64, u64, u8)> = (0..calls)
            .flat_map(|k| {
                let hold = k * 7_919 % 2_000;
                [(k, k, 0), (k + 1 + hold, k, 1)]
            })
            .collect();
        schedule.sort_unstable();
        let mut ids = Vec::new();
        let mut last_sweep = 0;
        for (now, k, step) in schedule.into_iter().take_while(|&(t, ..)| t < until_ms) {
            while last_sweep + 100 <= now {
                last_sweep += 100;
                let due = fb.due_calls(last_sweep);
                for &idx in &due {
                    fb.record_mut(idx).network.advance_time(last_sweep);
                }
                fb.sweep_due(due, last_sweep);
            }
            let idx = if step == 0 {
                let idx = fb.create_call_idx(format!("churn-{k}").as_str(), now);
                ids.push(fb.id_of(idx));
                let net = &mut fb.record_mut(idx).network;
                net.deliver(sip, invite_event(), now);
                net.deliver(sip, answer(), now);
                idx
            } else {
                let idx = fb.call_idx(ids[k as usize]).expect("call still monitored");
                let net = &mut fb.record_mut(idx).network;
                net.deliver(sip, bye(), now);
                net.deliver(sip, bye_ok(), now);
                idx
            };
            fb.reindex_idx(idx);
        }
    }

    #[test]
    fn wheel_capacity_tracks_what_is_filed() {
        let mut fb = FactBase::new(Config::default());
        churn(&mut fb, 20_000, 15_000);
        assert!(fb.stats().calls_evicted > 5_000, "{:?}", fb.stats());
        let wheel = &fb.wheel;
        let mut per_bucket: HashMap<u64, usize> = HashMap::new();
        for (slot, &(first, _)) in wheel.slots.iter().enumerate() {
            let mut at = first;
            while at != NO_FILING {
                let filing = wheel.at(at);
                *per_bucket.entry(Wheel::bucket(filing, slot)).or_default() += 1;
                at = filing.next;
            }
        }
        assert_eq!(per_bucket.values().sum::<usize>(), wheel.filed);
        let largest = per_bucket.values().copied().max().unwrap_or(0);
        // The slab grows a chunk at a time and takes back every drained
        // filing, so it holds less than a chunk more than the most filings
        // ever live at once; on churn that high-water mark is about one
        // bucket above what is filed now.
        let capacity = wheel.filings.len() * FILING_CHUNK;
        assert!(
            capacity < wheel.filed + largest + FILING_CHUNK,
            "{capacity} filings of capacity for {} filed (largest bucket {largest})",
            wheel.filed
        );
    }

    /// The wheel the ring replaced, as the reference for its visit order:
    /// an ordered map from bucket to the calls filed there, in filing order.
    #[derive(Default)]
    struct TreeWheel(BTreeMap<u64, Vec<CallIdx>>);

    impl TreeWheel {
        fn file(&mut self, bucket: u64, idx: CallIdx) {
            self.0.entry(bucket).or_default().push(idx);
        }

        fn drain_due(&mut self, horizon: u64, mut visit: impl FnMut(u64, CallIdx)) {
            while let Some(due) = self.0.first_entry().filter(|b| *b.key() <= horizon) {
                let (bucket, calls) = due.remove_entry();
                calls.into_iter().for_each(|idx| visit(bucket, idx));
            }
        }
    }

    #[test]
    fn the_ring_visits_in_the_ordered_wheels_order() {
        // A seeded random schedule of filings — under buckets already past
        // (bucket 0, the one just drained), near, and more than a lap
        // ahead — drains that step the clock, and jumps longer than the
        // ring.
        for seed in 1..=24u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |below: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % below
            };
            let (mut ring, mut tree) = (Wheel::new(), TreeWheel::default());
            let mut now = next(1 << 36);
            for _ in 0..3_000 {
                match next(10) {
                    0..=5 => {
                        let slots = WHEEL_SLOTS as u64;
                        let bucket = match next(6) {
                            0 => 0,
                            1 => now.saturating_sub(next(4)),
                            2 | 3 => now + next(slots / 2),
                            4 => now + slots + next(4 * slots),
                            _ => now + next(64 * slots),
                        };
                        let idx = CallIdx(next(64) as u32);
                        ring.file(bucket, idx);
                        tree.file(bucket, idx);
                    }
                    step => {
                        now += match step {
                            6..=8 => next(3),
                            _ => {
                                let span = 1 << next(20);
                                WHEEL_SLOTS as u64 + next(span)
                            }
                        };
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        ring.drain_due(now, |bucket, idx| a.push((bucket, idx)));
                        tree.drain_due(now, |bucket, idx| b.push((bucket, idx)));
                        assert_eq!(a, b, "seed {seed}: visits diverged at bucket {now}");
                    }
                }
                assert_eq!(ring.filed, tree.0.values().map(Vec::len).sum::<usize>());
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            ring.drain_due(u64::MAX, |bucket, idx| a.push((bucket, idx)));
            tree.drain_due(u64::MAX, |bucket, idx| b.push((bucket, idx)));
            assert_eq!(a, b, "seed {seed}: the final drain diverged");
            assert_eq!(ring.filed, 0);
        }
    }

    /// One INVITE to `dst` through the fact base, as the engine delivers
    /// it: due timers first, then the event.
    fn invite_at(fb: &mut FactBase, dst: u32, now: u64) -> NetworkOutcome {
        fb.invite_flood(dst, |net| {
            net.advance_time_observed(now, &mut NoopObserver);
            net.deliver_observed(Event::data("SIP.INVITE"), now, &mut NoopObserver)
        })
    }

    /// A sweep of the flood windows at `now`; returns the destinations it
    /// fired a timer of, in order.
    fn expire_at(fb: &mut FactBase, now: u64) -> Vec<u32> {
        let mut fired = Vec::new();
        fb.expire_windows(now, |dst, net| {
            fired.push(dst);
            net.advance_time_observed(now, &mut NoopObserver);
        });
        fired
    }

    #[test]
    fn a_closed_window_is_dropped_and_an_attack_is_kept() {
        let mut fb = FactBase::new(Config::default());
        let n = Config::default().invite_flood_n;
        invite_at(&mut fb, 1, 0);
        invite_at(&mut fb, 2, 10);
        for t in 0..=n {
            invite_at(&mut fb, 3, 20 + t);
        }
        assert_eq!(fb.solo_counts(), (3, 0, 0));
        assert!(expire_at(&mut fb, 999).is_empty(), "no window is due yet");

        // Destination 1's window closes on the lazy path and opens again
        // before any sweep reached it, so it goes to the back of the queue.
        invite_at(&mut fb, 1, 1_005);
        assert_eq!(expire_at(&mut fb, 1_100), vec![2, 3]);
        assert_eq!(fb.solo_counts(), (2, 0, 0), "2 closed; 3 is flagged");
        assert_eq!(expire_at(&mut fb, 2_004), Vec::<u32>::new());
        assert_eq!(expire_at(&mut fb, 2_005), vec![1]);
        assert_eq!(fb.solo_counts(), (1, 0, 0));

        // The flagged destination stays flagged, with nothing left queued.
        assert!(expire_at(&mut fb, 60_000).is_empty());
        let again = invite_at(&mut fb, 3, 60_000);
        assert_eq!(again.alerts.len(), 1, "the absorbing state reports again");
        assert_eq!(fb.solo_counts(), (1, 0, 0));

        // A dropped destination starts over like one never seen: N INVITEs
        // in one window pass, the next one is the flood.
        for t in 0..n {
            assert!(invite_at(&mut fb, 2, 61_000 + t).alerts.is_empty());
        }
        assert_eq!(invite_at(&mut fb, 2, 61_000 + n).alerts.len(), 1);
    }

    #[test]
    fn window_slots_are_reused_as_windows_close() {
        // 200 fresh destinations a second for 20 s, a sweep every 100 ms:
        // about 200 windows are open at once, and the slab never holds more
        // than that plus a chunk.
        let mut fb = FactBase::new(Config::default());
        for t in 0..20_000u64 {
            if t % 100 == 0 {
                expire_at(&mut fb, t);
            }
            if t % 5 == 0 {
                invite_at(&mut fb, t as u32, t);
            }
            assert!(fb.solo_counts().0 <= 220, "{t}: {:?}", fb.solo_counts());
        }
        let table = &fb.invite_flood.table;
        assert!(table.chunks.len() * CHUNK_SLOTS <= 220 + CHUNK_SLOTS);
    }

    fn register(src: &str, expires: u64) -> Event {
        crate::machines::SipArgs::event("SIP.REGISTER")
            .with_named("src_ip", ip(src))
            .with_named("contact_ip", ip(src))
            .with_named("expires", expires)
    }

    #[test]
    fn an_unbound_registration_is_dropped_and_a_binding_is_kept() {
        let mut fb = FactBase::new(Config::default());
        let aor = Sym::intern("alice@example.com");
        let deliver = |fb: &mut FactBase, event: Event| {
            fb.registration(aor, |net| net.deliver_observed(event, 0, &mut NoopObserver))
        };
        deliver(&mut fb, register("10.0.5.1", 0));
        assert_eq!(fb.solo_counts(), (0, 0, 0), "de-register while unbound");
        deliver(&mut fb, register("10.0.5.1", 3_600));
        assert_eq!(fb.solo_counts(), (0, 0, 1), "bound");
        deliver(&mut fb, register("10.0.5.1", 0));
        assert_eq!(fb.solo_counts(), (0, 0, 0), "the owner de-registered");

        // A fresh record judges as the dropped one would have: a foreign
        // de-register of a new binding is still the hijack.
        deliver(&mut fb, register("10.0.5.1", 3_600));
        let out = deliver(&mut fb, register("10.0.66.6", 0));
        assert!(out.is_suspicious());
        assert_eq!(fb.solo_counts(), (0, 0, 1), "the hijack is kept");
    }

    #[test]
    fn flood_machines_are_per_destination() {
        let mut fb = FactBase::new(Config::default());
        let invite = |net: &mut SoloNetwork| {
            net.deliver_observed(Event::data("SIP.INVITE"), 0, &mut NoopObserver);
            net as *const SoloNetwork
        };
        let a = fb.invite_flood(1, invite);
        let b = fb.invite_flood(2, invite);
        assert_ne!(a, b);
        let a2 = fb.invite_flood(1, |net| net as *const SoloNetwork);
        assert_eq!(a, a2, "re-fetch returns the same machine");
        assert_eq!(fb.solo_counts(), (2, 0, 0));
        // A machine left fresh is not kept.
        fb.response_flood(1, |_| ());
        assert_eq!(fb.solo_counts(), (2, 0, 0));
    }
}
