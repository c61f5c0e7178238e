//! Symbol interning: copyable `u32` handles for the strings the hot path
//! lives on.
//!
//! Every per-packet structure in the engine — event names, argument names,
//! timer names, machine names, Call-IDs — is keyed by a [`Sym`], an index
//! into a process-global interner: comparing two symbols is a `u32`
//! compare, hashing one hashes four bytes, and copying one is free.
//!
//! The interning boundary is the packet classifier: the wire identifiers
//! the engine keys on — Call-IDs and addresses-of-record — are borrowed as
//! `&str` slices out of the raw datagram, interned once, and everything
//! downstream (EFSM network, fact base, shard router) keys on the symbol.
//! Nothing else from the wire is interned. SIP tags and Via branches are
//! only compared, so they are keyed fingerprints
//! ([`crate::value::Fingerprint`]) that take no slot here, and an IPv4
//! address is already a value ([`crate::Value::Ip`]). All *static* names — event names, `l_*`/`g_*` variables,
//! timers, machines — are pre-seeded at fixed indices so the steady-state
//! path never takes the interner's write lock; see [`sym`] for the
//! compile-time constants.
//!
//! Storage is three append-only structures, none of which owns a heap
//! object per symbol:
//!
//! * **text** lives in 64 KiB byte slabs; a miss copies the string onto
//!   the tail of the current slab, so a new symbol costs an allocator
//!   call once per ≈ 3 000 strings;
//! * **id → text** is the lock-free chunk table behind [`Sym::as_str`]
//!   (64 lazily-allocated chunks of 2^16 `&'static str` slots);
//! * **text → id** is a `HashSet` of 4-byte ids that borrow as the text
//!   they name, hashed with std's keyed SipHash because the keys are
//!   attacker-chosen, behind one `RwLock`.
//!
//! Two limits make the table's worst case a number instead of the
//! attacker's choice. A symbol is at most [`MAX_SYMBOL_LEN`] bytes, and
//! the table holds at most 4 194 304 symbols ([`InternStats::capacity`]);
//! [`Sym::try_intern`] reports either as an [`InternError`], which the
//! classifier turns into a counted `malformed` verdict. At capacity,
//! strings already interned keep resolving, so calls the monitor already
//! tracks stay monitored — their later requests carry fresh branches, but
//! those are fingerprints, not symbols — and only new-call admission is
//! shed. [`stats`] shows the table filling.
//!
//! Symbols are never reclaimed: [`Sym::as_str`] hands out `&'static str`,
//! and alert dedup keys and the telemetry ring hold symbols with no
//! lifetime contract (DESIGN.md §7b lists the holders a reclaim pass would
//! have to account for first).

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned string: a copyable handle that compares, hashes and copies
/// in O(1). Obtain one with [`Sym::intern`] (or `From<&str>`), get the
/// text back with [`Sym::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// Strings known at compile time, pinned to fixed interner slots.
///
/// Keeping these in one place means the steady-state path — event
/// dispatch, variable lookup, timer arming — resolves every name without
/// ever taking the interner's write lock, and `match`-style dispatch can
/// compare against constants.
pub(crate) const SEEDS: &[&str] = &[
    // Structural.
    "*",
    "",
    // SIP/RTP event names (classifier output).
    "SIP.INVITE",
    "SIP.ACK",
    "SIP.BYE",
    "SIP.CANCEL",
    "SIP.REGISTER",
    "SIP.OPTIONS",
    "SIP.1xx",
    "SIP.2xx",
    "SIP.3xx",
    "SIP.failure",
    "SIP.response.unassociated",
    "RTP.Packet",
    // δ-channel sync events between the SIP and RTP machines.
    "δ.open",
    "δ.update",
    "δ.bye",
    "δ.reopen",
    // Timers.
    "T_linger",
    "T_inflight",
    "T_window",
    "T1",
    // Machine names.
    "sip",
    "rtp",
    "flood",
    "response-flood",
    "register",
    "classifier",
    "engine",
    // Event argument names.
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "call_id",
    "from_tag",
    "to_tag",
    "branch",
    "cseq",
    "cseq_method",
    "status",
    "aor",
    "contact_ip",
    "expires",
    "has_sdp",
    "sdp_ip",
    "sdp_port",
    "sdp_pt",
    "ssrc",
    "seq",
    "ts",
    "pt",
    "size",
    // Machine-local variables.
    "l_call_id",
    "l_branch",
    "l_from_tag",
    "l_to_tag",
    "l_caller_ip",
    "l_callee_ip",
    "l_owner_ip",
    "l_contact_ip",
    "l_fwd_ssrc",
    "l_rev_ssrc",
    "l_fwd_seq",
    "l_rev_seq",
    "l_fwd_ts",
    "l_rev_ts",
    "l_fwd_count",
    "l_rev_count",
    "pck_counter",
    // Per-call globals shared across the EFSM network.
    "g_caller_media_ip",
    "g_caller_media_port",
    "g_callee_media_ip",
    "g_callee_media_port",
    "g_codec_pt",
    // CSeq method argument values.
    "INVITE",
    "ACK",
    "BYE",
    "CANCEL",
    "REGISTER",
    "OPTIONS",
    // Extension-method event names (classifier output, rarely hot).
    "SIP.INFO",
    "SIP.UPDATE",
    "SIP.PRACK",
    "SIP.SUBSCRIBE",
    "SIP.NOTIFY",
    "SIP.REFER",
    "SIP.MESSAGE",
    // Extension-method CSeq values (the six RFC 3261 ones are above).
    "INFO",
    "UPDATE",
    "PRACK",
    "SUBSCRIBE",
    "NOTIFY",
    "REFER",
    "MESSAGE",
];

/// Compile-time `&str` equality (stable-const: byte compare).
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Resolves a pre-seeded name to its fixed slot at compile time; a typo or
/// an unseeded name is a compile error, not a runtime surprise.
const fn seed(name: &str) -> Sym {
    let mut i = 0;
    while i < SEEDS.len() {
        if str_eq(SEEDS[i], name) {
            return Sym(i as u32);
        }
        i += 1;
    }
    panic!("symbol is not in the pre-seeded set");
}

/// Pre-seeded symbol constants. `sym::SIP_INVITE == Sym::intern("SIP.INVITE")`
/// holds by construction.
pub mod sym {
    use super::{seed, Sym};

    /// `"*"` — matches any event name in a transition.
    pub const WILDCARD: Sym = seed("*");
    /// `""` — the default symbol.
    pub const EMPTY: Sym = seed("");

    /// `"SIP.INVITE"`.
    pub const SIP_INVITE: Sym = seed("SIP.INVITE");
    /// `"SIP.ACK"`.
    pub const SIP_ACK: Sym = seed("SIP.ACK");
    /// `"SIP.BYE"`.
    pub const SIP_BYE: Sym = seed("SIP.BYE");
    /// `"SIP.CANCEL"`.
    pub const SIP_CANCEL: Sym = seed("SIP.CANCEL");
    /// `"SIP.REGISTER"`.
    pub const SIP_REGISTER: Sym = seed("SIP.REGISTER");
    /// `"SIP.OPTIONS"`.
    pub const SIP_OPTIONS: Sym = seed("SIP.OPTIONS");
    /// `"SIP.INFO"`.
    pub const SIP_INFO: Sym = seed("SIP.INFO");
    /// `"SIP.UPDATE"`.
    pub const SIP_UPDATE: Sym = seed("SIP.UPDATE");
    /// `"SIP.PRACK"`.
    pub const SIP_PRACK: Sym = seed("SIP.PRACK");
    /// `"SIP.SUBSCRIBE"`.
    pub const SIP_SUBSCRIBE: Sym = seed("SIP.SUBSCRIBE");
    /// `"SIP.NOTIFY"`.
    pub const SIP_NOTIFY: Sym = seed("SIP.NOTIFY");
    /// `"SIP.REFER"`.
    pub const SIP_REFER: Sym = seed("SIP.REFER");
    /// `"SIP.MESSAGE"`.
    pub const SIP_MESSAGE: Sym = seed("SIP.MESSAGE");
    /// `"SIP.response.unassociated"`.
    pub const SIP_RESPONSE_UNASSOCIATED: Sym = seed("SIP.response.unassociated");
    /// `"SIP.1xx"`.
    pub const SIP_1XX: Sym = seed("SIP.1xx");
    /// `"SIP.2xx"`.
    pub const SIP_2XX: Sym = seed("SIP.2xx");
    /// `"SIP.3xx"`.
    pub const SIP_3XX: Sym = seed("SIP.3xx");
    /// `"SIP.failure"`.
    pub const SIP_FAILURE: Sym = seed("SIP.failure");
    /// `"RTP.Packet"`.
    pub const RTP_PACKET: Sym = seed("RTP.Packet");

    /// `"engine"` — the machine name of alerts the engine raises itself.
    pub const ENGINE: Sym = seed("engine");
    /// `"classifier"` — the machine name of malformed-datagram alerts.
    pub const CLASSIFIER: Sym = seed("classifier");

    /// `"src_ip"`.
    pub const SRC_IP: Sym = seed("src_ip");
    /// `"dst_ip"`.
    pub const DST_IP: Sym = seed("dst_ip");
    /// `"src_port"`.
    pub const SRC_PORT: Sym = seed("src_port");
    /// `"dst_port"`.
    pub const DST_PORT: Sym = seed("dst_port");
    /// `"call_id"`.
    pub const CALL_ID: Sym = seed("call_id");
    /// `"from_tag"`.
    pub const FROM_TAG: Sym = seed("from_tag");
    /// `"to_tag"`.
    pub const TO_TAG: Sym = seed("to_tag");
    /// `"branch"`.
    pub const BRANCH: Sym = seed("branch");
    /// `"cseq"`.
    pub const CSEQ: Sym = seed("cseq");
    /// `"cseq_method"`.
    pub const CSEQ_METHOD: Sym = seed("cseq_method");
    /// `"status"`.
    pub const STATUS: Sym = seed("status");
    /// `"aor"`.
    pub const AOR: Sym = seed("aor");
    /// `"contact_ip"`.
    pub const CONTACT_IP: Sym = seed("contact_ip");
    /// `"expires"`.
    pub const EXPIRES: Sym = seed("expires");
    /// `"has_sdp"`.
    pub const HAS_SDP: Sym = seed("has_sdp");
    /// `"sdp_ip"`.
    pub const SDP_IP: Sym = seed("sdp_ip");
    /// `"sdp_port"`.
    pub const SDP_PORT: Sym = seed("sdp_port");
    /// `"sdp_pt"`.
    pub const SDP_PT: Sym = seed("sdp_pt");
    /// `"ssrc"`.
    pub const SSRC: Sym = seed("ssrc");
    /// `"seq"`.
    pub const SEQ: Sym = seed("seq");
    /// `"ts"`.
    pub const TS: Sym = seed("ts");
    /// `"pt"`.
    pub const PT: Sym = seed("pt");
    /// `"size"`.
    pub const SIZE: Sym = seed("size");

    /// `"l_fwd_ssrc"`.
    pub const L_FWD_SSRC: Sym = seed("l_fwd_ssrc");
    /// `"l_rev_ssrc"`.
    pub const L_REV_SSRC: Sym = seed("l_rev_ssrc");
    /// `"l_fwd_seq"`.
    pub const L_FWD_SEQ: Sym = seed("l_fwd_seq");
    /// `"l_rev_seq"`.
    pub const L_REV_SEQ: Sym = seed("l_rev_seq");
    /// `"l_fwd_ts"`.
    pub const L_FWD_TS: Sym = seed("l_fwd_ts");
    /// `"l_rev_ts"`.
    pub const L_REV_TS: Sym = seed("l_rev_ts");
    /// `"l_fwd_count"`.
    pub const L_FWD_COUNT: Sym = seed("l_fwd_count");
    /// `"l_rev_count"`.
    pub const L_REV_COUNT: Sym = seed("l_rev_count");
    /// `"pck_counter"`.
    pub const PCK_COUNTER: Sym = seed("pck_counter");

    /// `"g_caller_media_ip"`.
    pub const G_CALLER_MEDIA_IP: Sym = seed("g_caller_media_ip");
    /// `"g_caller_media_port"`.
    pub const G_CALLER_MEDIA_PORT: Sym = seed("g_caller_media_port");
    /// `"g_callee_media_ip"`.
    pub const G_CALLEE_MEDIA_IP: Sym = seed("g_callee_media_ip");
    /// `"g_callee_media_port"`.
    pub const G_CALLEE_MEDIA_PORT: Sym = seed("g_callee_media_port");
    /// `"g_codec_pt"`.
    pub const G_CODEC_PT: Sym = seed("g_codec_pt");

    /// `"l_call_id"`.
    pub const L_CALL_ID: Sym = seed("l_call_id");
    /// `"l_branch"`.
    pub const L_BRANCH: Sym = seed("l_branch");
    /// `"l_from_tag"`.
    pub const L_FROM_TAG: Sym = seed("l_from_tag");
    /// `"l_to_tag"`.
    pub const L_TO_TAG: Sym = seed("l_to_tag");
    /// `"l_caller_ip"`.
    pub const L_CALLER_IP: Sym = seed("l_caller_ip");
    /// `"l_callee_ip"`.
    pub const L_CALLEE_IP: Sym = seed("l_callee_ip");

    /// `"INVITE"` (CSeq method value).
    pub const METHOD_INVITE: Sym = seed("INVITE");
    /// `"ACK"` (CSeq method value).
    pub const METHOD_ACK: Sym = seed("ACK");
    /// `"BYE"` (CSeq method value).
    pub const METHOD_BYE: Sym = seed("BYE");
    /// `"CANCEL"` (CSeq method value).
    pub const METHOD_CANCEL: Sym = seed("CANCEL");
    /// `"REGISTER"` (CSeq method value).
    pub const METHOD_REGISTER: Sym = seed("REGISTER");
    /// `"OPTIONS"` (CSeq method value).
    pub const METHOD_OPTIONS: Sym = seed("OPTIONS");
    /// `"INFO"` (CSeq method value).
    pub const METHOD_INFO: Sym = seed("INFO");
    /// `"UPDATE"` (CSeq method value).
    pub const METHOD_UPDATE: Sym = seed("UPDATE");
    /// `"PRACK"` (CSeq method value).
    pub const METHOD_PRACK: Sym = seed("PRACK");
    /// `"SUBSCRIBE"` (CSeq method value).
    pub const METHOD_SUBSCRIBE: Sym = seed("SUBSCRIBE");
    /// `"NOTIFY"` (CSeq method value).
    pub const METHOD_NOTIFY: Sym = seed("NOTIFY");
    /// `"REFER"` (CSeq method value).
    pub const METHOD_REFER: Sym = seed("REFER");
    /// `"MESSAGE"` (CSeq method value).
    pub const METHOD_MESSAGE: Sym = seed("MESSAGE");
}

/// The longest string the interner keeps, in bytes. Interned text is never
/// freed, so what one datagram can pin must be a small constant rather than
/// the 64 KiB a UDP payload may carry; no identifier a SIP stack generates
/// comes near it.
pub const MAX_SYMBOL_LEN: usize = 255;

/// The most symbols the interner holds (pre-seeded ones included): the
/// size of the id → text chunk table.
const CAPACITY: usize = CHUNK_COUNT * CHUNK_SIZE;

/// Why [`Sym::try_intern`] refused a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternError {
    /// The string is longer than [`MAX_SYMBOL_LEN`] bytes.
    TooLong,
    /// The table already holds [`InternStats::capacity`] symbols.
    Full,
}

impl InternError {
    /// A static diagnosis, usable as a `malformed` alert reason.
    pub fn reason(self) -> &'static str {
        match self {
            InternError::TooLong => "identifier longer than 255 bytes",
            InternError::Full => "symbol table full",
        }
    }
}

impl fmt::Display for InternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for InternError {}

/// How full the interner is; see [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Symbols interned so far, pre-seeded ones included.
    pub symbols: usize,
    /// The most the table can hold.
    pub capacity: usize,
    /// Bytes of symbol text held in the slabs.
    pub text_bytes: usize,
}

/// A snapshot of the interner's fill level, so an operator sees the table
/// filling before [`InternError::Full`] starts shedding new calls.
pub fn stats() -> InternStats {
    let inner = interner().read().expect("interner lock poisoned");
    InternStats {
        symbols: inner.next as usize,
        capacity: CAPACITY,
        text_bytes: inner.text_bytes,
    }
}

/// An index entry: a symbol id that borrows, hashes and compares as the
/// text it names, so the set is probed with a plain `&str` while an entry
/// costs four bytes. The text is read through the lock-free chunk table,
/// which is why a name is always published there before its id enters the
/// set.
struct ById(u32);

impl Borrow<str> for ById {
    fn borrow(&self) -> &str {
        Sym(self.0).as_str()
    }
}

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Borrow::<str>::borrow(self).hash(state);
    }
}

impl PartialEq for ById {
    fn eq(&self, other: &Self) -> bool {
        // The interner dedups: one id per text.
        self.0 == other.0
    }
}

impl Eq for ById {}

/// Bytes obtained from the allocator at a time for symbol text.
const SLAB_LEN: usize = 64 * 1024;

struct Inner {
    /// text → id. Default `RandomState`: the keys are attacker-chosen.
    index: HashSet<ById>,
    /// The id the next new symbol gets.
    next: u32,
    /// The unused tail of the current text slab.
    tail: &'static mut [u8],
    text_bytes: usize,
}

impl Inner {
    fn find(&self, text: &str) -> Option<Sym> {
        self.index.get(text).map(|entry| Sym(entry.0))
    }

    /// Copies `text` (at most [`MAX_SYMBOL_LEN`] bytes) onto the current
    /// slab. A slab whose tail is too short is abandoned, losing less than
    /// `MAX_SYMBOL_LEN` bytes of it.
    fn store(&mut self, text: &str) -> &'static str {
        if self.tail.len() < text.len() {
            self.tail = Box::leak(vec![0u8; SLAB_LEN].into_boxed_slice());
        }
        let (head, tail) = std::mem::take(&mut self.tail).split_at_mut(text.len());
        self.tail = tail;
        head.copy_from_slice(text.as_bytes());
        self.text_bytes += text.len();
        std::str::from_utf8(head).expect("bytes copied from a str")
    }
}

/// Id→name resolution is hot enough (every `Value::as_str` comparison,
/// every alert/dedup key, every index probe) that taking the interner's
/// read lock per call shows up in profiles. Names therefore live in this
/// append-only chunked table, readable with a single atomic load: 64
/// lazily-allocated chunks of 2^16 slots bound the interner at
/// `CAPACITY` symbols.
const CHUNK_BITS: u32 = 16;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const CHUNK_COUNT: usize = 64;

#[allow(clippy::declare_interior_mutable_const)]
const NULL_CHUNK: AtomicPtr<&'static str> = AtomicPtr::new(std::ptr::null_mut());
static NAME_CHUNKS: [AtomicPtr<&'static str>; CHUNK_COUNT] = [NULL_CHUNK; CHUNK_COUNT];

fn new_chunk() -> *mut &'static str {
    let chunk: Vec<&'static str> = vec![""; CHUNK_SIZE];
    Box::into_raw(chunk.into_boxed_slice()).cast::<&'static str>()
}

/// Records `name` at slot `id` (below `CAPACITY`) in the chunk table.
///
/// Callers must hold the interner's write lock (or be inside the one-time
/// init), so there is never more than one writer. A fresh chunk has its
/// slot written *before* the chunk pointer is published, so a reader that
/// observes the pointer observes the slot.
fn publish_name(id: u32, name: &'static str) {
    let chunk_idx = (id >> CHUNK_BITS) as usize;
    let slot = (id as usize) & (CHUNK_SIZE - 1);
    let chunk = NAME_CHUNKS[chunk_idx].load(Ordering::Acquire);
    if chunk.is_null() {
        let fresh = new_chunk();
        // SAFETY: `fresh` is a live allocation of CHUNK_SIZE slots and is
        // not yet visible to any other thread.
        unsafe { fresh.add(slot).write(name) };
        NAME_CHUNKS[chunk_idx].store(fresh, Ordering::Release);
    } else {
        // SAFETY: in-bounds slot of a live chunk; exclusive write access
        // is guaranteed by the interner's write lock. Readers only touch
        // this slot via a `Sym` carrying this id, and every channel that
        // hands out the id (the return below, the index under the lock, a
        // cross-thread transfer of the handle) establishes happens-before
        // with this write.
        unsafe { chunk.add(slot).write(name) };
    }
}

fn interner() -> &'static RwLock<Inner> {
    static INTERNER: OnceLock<RwLock<Inner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        // Seed chunk 0 completely and publish it before any id enters the
        // index: a reader that skips the `OnceLock` fence because it sees
        // a non-null chunk must never see a half-seeded table, and the
        // index reads names back through `Sym::as_str`, which would
        // re-enter this initialiser on a null chunk.
        let seeded = new_chunk();
        for (i, s) in SEEDS.iter().enumerate() {
            // SAFETY: `seeded` is a fresh, unshared chunk; SEEDS fits.
            unsafe { seeded.add(i).write(s) };
        }
        NAME_CHUNKS[0].store(seeded, Ordering::Release);
        let mut index = HashSet::with_capacity(SEEDS.len() * 4);
        for i in 0..SEEDS.len() {
            index.insert(ById(i as u32));
        }
        RwLock::new(Inner {
            index,
            next: SEEDS.len() as u32,
            tail: &mut [],
            text_bytes: 0,
        })
    })
}

impl Sym {
    /// Interns a program-chosen name, allocating a slot on first sight.
    /// Pre-seeded and previously-seen strings only take the read lock.
    ///
    /// # Panics
    ///
    /// When [`Sym::try_intern`] would fail: names the program picks are
    /// short and few, so either limit is a bug. Strings from outside the
    /// program go through `try_intern`.
    pub fn intern(text: &str) -> Sym {
        Sym::try_intern(text).expect("program-chosen names are short and few")
    }

    /// Interns `text` unless it is longer than [`MAX_SYMBOL_LEN`] or the
    /// table is full and has never seen it. The entry point for strings
    /// an attacker chooses: a miss costs no allocator call beyond the
    /// amortised growth of the slabs, the index and the chunk table.
    pub fn try_intern(text: &str) -> Result<Sym, InternError> {
        if text.len() > MAX_SYMBOL_LEN {
            return Err(InternError::TooLong);
        }
        let lock = interner();
        if let Some(sym) = lock.read().expect("interner lock poisoned").find(text) {
            return Ok(sym);
        }
        let mut inner = lock.write().expect("interner lock poisoned");
        // Double-check: another thread may have interned it between locks.
        if let Some(sym) = inner.find(text) {
            return Ok(sym);
        }
        let id = inner.next;
        if id as usize >= CAPACITY {
            return Err(InternError::Full);
        }
        let stored = inner.store(text);
        publish_name(id, stored);
        inner.index.insert(ById(id));
        inner.next = id + 1;
        Ok(Sym(id))
    }

    /// Looks up `text` without interning it: `None` means the string has
    /// never been seen, so no keyed collection can contain it. Lets read
    /// paths (argument and variable reads by name, fact-base queries) stay
    /// allocation-free on misses.
    pub fn lookup(text: &str) -> Option<Sym> {
        interner()
            .read()
            .expect("interner lock poisoned")
            .find(text)
    }

    /// The interned text. `'static` because interner entries are never
    /// reclaimed. Lock-free: one atomic load plus an indexed read.
    pub fn as_str(self) -> &'static str {
        let idx = self.0 as usize;
        let mut chunk = NAME_CHUNKS[idx >> CHUNK_BITS].load(Ordering::Acquire);
        if chunk.is_null() {
            // Pre-seeded constants can be read before anything was ever
            // interned; force the one-time init and retry.
            let _ = interner();
            chunk = NAME_CHUNKS[idx >> CHUNK_BITS].load(Ordering::Acquire);
        }
        assert!(!chunk.is_null(), "symbol id {} was never interned", self.0);
        // SAFETY: in-bounds read of a live, never-freed chunk. The slot was
        // written before this id could reach us (see `publish_name`).
        unsafe { *chunk.add(idx & (CHUNK_SIZE - 1)) }
    }

    /// The raw slot index. Stable for the life of the process; pre-seeded
    /// symbols have the same index in every process.
    pub fn id(self) -> u32 {
        self.0
    }

    /// The symbol behind an id [`Sym::id`] returned (a state variable
    /// stores its symbol as the id).
    pub(crate) fn from_id(id: u32) -> Sym {
        Sym(id)
    }

    /// Whether this symbol was pre-seeded (compile-time constant) rather
    /// than interned dynamically from wire data.
    pub fn is_preseeded(self) -> bool {
        (self.0 as usize) < SEEDS.len()
    }

    /// Number of pre-seeded symbols (dynamic ids start here).
    pub fn preseeded_count() -> usize {
        SEEDS.len()
    }
}

impl Default for Sym {
    fn default() -> Self {
        sym::EMPTY
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(text: &str) -> Self {
        Sym::intern(text)
    }
}

impl From<&String> for Sym {
    fn from(text: &String) -> Self {
        Sym::intern(text)
    }
}

impl From<String> for Sym {
    fn from(text: String) -> Self {
        Sym::intern(&text)
    }
}

impl From<Sym> for String {
    fn from(sym: Sym) -> Self {
        sym.as_str().to_owned()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

/// A map key that may or may not already be interned.
///
/// `to_sym` is the write-side conversion (interns on first sight);
/// `find_sym` is the read-side one (never interns, so probing a map with a
/// string nobody ever stored neither allocates nor grows the interner).
pub trait SymKey {
    /// Interning conversion, for inserts.
    fn to_sym(self) -> Sym;
    /// Non-interning lookup, for reads; `None` guarantees absence.
    fn find_sym(self) -> Option<Sym>;
}

impl SymKey for Sym {
    fn to_sym(self) -> Sym {
        self
    }
    fn find_sym(self) -> Option<Sym> {
        Some(self)
    }
}

impl SymKey for &str {
    fn to_sym(self) -> Sym {
        Sym::intern(self)
    }
    fn find_sym(self) -> Option<Sym> {
        Sym::lookup(self)
    }
}

impl SymKey for &String {
    fn to_sym(self) -> Sym {
        Sym::intern(self)
    }
    fn find_sym(self) -> Option<Sym> {
        Sym::lookup(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preseeded_constants_resolve_to_their_text() {
        assert_eq!(sym::WILDCARD.as_str(), "*");
        assert_eq!(sym::EMPTY.as_str(), "");
        assert_eq!(sym::SIP_INVITE.as_str(), "SIP.INVITE");
        assert_eq!(sym::RTP_PACKET.as_str(), "RTP.Packet");
        assert_eq!(sym::PCK_COUNTER.as_str(), "pck_counter");
        assert!(sym::SIP_INVITE.is_preseeded());
    }

    #[test]
    fn every_seed_resolves_through_lookup_to_its_slot() {
        for (i, seed) in SEEDS.iter().enumerate() {
            assert_eq!(Sym::lookup(seed), Some(Sym(i as u32)), "{seed:?}");
            assert_eq!(Sym(i as u32).as_str(), *seed);
        }
    }

    #[test]
    fn over_long_text_is_refused_and_never_looked_up_as_present() {
        let at_bound = "b".repeat(MAX_SYMBOL_LEN);
        assert_eq!(Sym::try_intern(&at_bound).map(Sym::as_str), Ok(&*at_bound));
        let too_long = "l".repeat(MAX_SYMBOL_LEN + 1);
        assert_eq!(Sym::try_intern(&too_long), Err(InternError::TooLong));
        assert_eq!(Sym::lookup(&too_long), None);
        assert_eq!(
            InternError::TooLong.to_string(),
            "identifier longer than 255 bytes"
        );
        assert_eq!(InternError::Full.reason(), "symbol table full");
    }

    #[test]
    fn interning_is_idempotent_and_constants_agree() {
        assert_eq!(Sym::intern("SIP.INVITE"), sym::SIP_INVITE);
        let a = Sym::intern("intern-test-dynamic-1");
        let b = Sym::intern("intern-test-dynamic-1");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "intern-test-dynamic-1");
        assert!(!a.is_preseeded());
    }

    #[test]
    fn lookup_never_interns() {
        assert_eq!(Sym::lookup("SIP.BYE"), Some(sym::SIP_BYE));
        assert_eq!(Sym::lookup("intern-test-never-stored"), None);
        // Still absent: the failed lookup must not have interned it.
        assert_eq!(Sym::lookup("intern-test-never-stored"), None);
    }

    #[test]
    fn equality_against_str_and_default() {
        assert_eq!(sym::SIP_ACK, "SIP.ACK");
        assert_eq!("SIP.ACK", sym::SIP_ACK);
        assert_ne!(sym::SIP_ACK, "SIP.BYE");
        assert_eq!(Sym::default(), sym::EMPTY);
        assert_eq!(format!("{}", sym::SIP_BYE), "SIP.BYE");
        assert_eq!(format!("{:?}", sym::SIP_BYE), "\"SIP.BYE\"");
    }

    #[test]
    fn symbols_are_stable_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| Sym::intern(&format!("xthread-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for per_thread in &all[1..] {
            assert_eq!(per_thread, &all[0], "every thread must see the same ids");
        }
        for (i, s) in all[0].iter().enumerate() {
            assert_eq!(s.as_str(), format!("xthread-{i}"));
        }
    }
}
