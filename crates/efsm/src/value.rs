//! State-variable values `v̄` and their domains `D`.
//!
//! `VarMap` is the storage behind machine-local (`l_*`) and call-global
//! (`g_*`) variables and behind every event's argument vector: a sorted
//! inline array of `(Sym, Value)` pairs that spills to the heap only past
//! its const-generic inline capacity. The state-variable maps inside a
//! call record and the argument vectors the classifier builds never reach
//! it, so they never touch the allocator, and lookups are a scan over
//! `u32` symbol ids.

use std::fmt;
use std::mem;

use crate::intern::{Sym, SymKey};

/// A value a state variable or event argument can take.
///
/// The paper's Definition 1 leaves domains abstract; in a VoIP monitor the
/// variables are addresses, identifiers, counters and timestamps. Text is
/// always an interned [`Sym`] handle (what the classifier produces for wire
/// strings such as Call-IDs and tags), so a value is 16 bytes, `Copy`, and
/// owns no heap: every record, event and argument vector built from values
/// is plain data with no drop glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Signed integer (sequence deltas, gaps).
    Int(i64),
    /// Unsigned integer (counters, ports, timestamps in ms/ticks).
    Uint(u64),
    /// Interned text (Call-IDs, tags, addresses — see [`crate::intern`]).
    /// The interner dedups, so equality is an O(1) id compare.
    Sym(Sym),
    /// Boolean flag.
    Bool(bool),
}

const _: () = assert!(mem::size_of::<Value>() == 16);

impl Value {
    /// The contained unsigned integer, if this is a `Uint`.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Value::Uint(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained signed integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained text, if this is a `Sym`.
    pub fn as_str(&self) -> Option<&str> {
        self.as_sym().map(Sym::as_str)
    }

    /// The contained symbol, if this is a `Sym`.
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Sym(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Uint(_) => 1,
            Value::Sym(_) => 2,
            Value::Bool(_) => 3,
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Bool(false)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Within a variant, the natural order — text order for `Sym`, not id
/// order, so sorting does not depend on interning order; across variants,
/// declaration order.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Uint(a), Value::Uint(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Sym(a), Value::Sym(b)) if a == b => std::cmp::Ordering::Equal,
            (Value::Sym(a), Value::Sym(b)) => a.as_str().cmp(b.as_str()),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Uint(v) => write!(f, "{v}"),
            Value::Sym(v) => write!(f, "{:?}", v.as_str()),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Uint(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Uint(v as u64)
    }
}

impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::Uint(v as u64)
    }
}

/// Interns the text ([`Sym::intern`]): it is kept for the life of the
/// process, so this conversion is for names the program chooses. Strings
/// from the wire go through [`Sym::try_intern`] at the classifier.
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Sym(Sym::intern(v))
    }
}

/// Interns the text, exactly like `From<&str>`; the `String` is dropped.
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::from(v.as_str())
    }
}

impl From<Sym> for Value {
    fn from(v: Sym) -> Self {
        Value::Sym(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A vector that stores its first `N` elements inline and spills to a
/// heap `Vec` only past that. `T: Default` fills unused inline slots.
/// Dereferences to the slice of its live elements, whichever place they
/// are in.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: std::array::from_fn(|_| T::default()),
            spill: Vec::new(),
        }
    }

    fn is_spilled(&self) -> bool {
        !self.spill.is_empty()
    }

    /// The live elements as a slice, regardless of representation.
    pub fn as_slice(&self) -> &[T] {
        if self.is_spilled() {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// The live elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.is_spilled() {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }

    fn spill_now(&mut self) {
        debug_assert!(!self.is_spilled());
        self.spill.reserve(self.len + 1);
        for slot in &mut self.inline[..self.len] {
            self.spill.push(mem::take(slot));
        }
    }

    /// Appends an element, spilling to the heap if the inline space is
    /// exhausted.
    pub fn push(&mut self, value: T) {
        if self.is_spilled() {
            self.spill.push(value);
        } else if self.len < N {
            self.inline[self.len] = value;
        } else {
            self.spill_now();
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Inserts `value` at `index`, shifting later elements right.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(index <= self.len, "insert index out of bounds");
        if !self.is_spilled() && self.len == N {
            self.spill_now();
        }
        if self.is_spilled() {
            self.spill.insert(index, value);
        } else {
            self.inline[index..=self.len].rotate_right(1);
            self.inline[index] = value;
        }
        self.len += 1;
    }

    /// Removes and returns the element at `index`, shifting later
    /// elements left. A spilled vector stays spilled.
    pub fn remove(&mut self, index: usize) -> T {
        assert!(index < self.len, "remove index out of bounds");
        self.len -= 1;
        if self.is_spilled() {
            self.spill.remove(index)
        } else {
            let value = mem::take(&mut self.inline[index]);
            self.inline[index..=self.len].rotate_left(1);
            value
        }
    }

    /// Drops every element, keeping any spill capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.inline[..self.len.min(N)] {
            *slot = T::default();
        }
        self.spill.clear();
        self.len = 0;
    }

    /// Heap bytes owned by the container itself (zero while inline).
    pub fn heap_bytes(&self) -> usize {
        self.spill.capacity() * mem::size_of::<T>()
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: fmt::Debug + Default, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq + Default, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq + Default, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq + Default, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq + Default, const N: usize, const M: usize> PartialEq<[T; M]> for InlineVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Default, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(iter);
        v
    }
}

impl<T: Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

/// Consuming iterator over an [`InlineVec`].
pub struct InlineVecIntoIter<T, const N: usize> {
    inline: std::iter::Take<std::array::IntoIter<T, N>>,
    spill: std::vec::IntoIter<T>,
}

impl<T, const N: usize> Iterator for InlineVecIntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.inline.next().or_else(|| self.spill.next())
    }
}

impl<T: Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = InlineVecIntoIter<T, N>;

    fn into_iter(self) -> Self::IntoIter {
        let inline_live = if self.is_spilled() { 0 } else { self.len };
        InlineVecIntoIter {
            inline: self.inline.into_iter().take(inline_live),
            spill: self.spill.into_iter(),
        }
    }
}

impl<'a, T: Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Inline capacity of a state-variable [`VarMap`] (a machine's locals, a
/// call's globals): the widest set a shipped machine keeps is the RTP
/// machine's eight per-direction cursors. Three such maps sit inline in
/// every call slot, so this constant is most of what a monitored call
/// costs (§7.3).
pub const VARMAP_INLINE: usize = 8;

/// Inline capacity of an event's argument vector: the widest vector the
/// classifier builds (an INVITE answer carrying SDP — `status` on top of
/// the INVITE's twelve), so no event it produces ever spills.
pub const EVENT_ARGS_INLINE: usize = 13;

/// The heap half of a [`VarMap`] that outgrew its inline capacity: every
/// entry moves here at once, so a map is read from one place or the other,
/// never both. Boxed so the map that never spills pays one word for it.
#[derive(Debug, Clone, Default)]
struct Spill {
    keys: Vec<Sym>,
    vals: Vec<Value>,
}

/// A named collection of state variables, sorted by symbol id, holding its
/// first `N` entries inline.
///
/// By convention (mirroring the paper's Fig. 2) local variable names start
/// with `l_` and global (call-shared) names with `g_`, though the map does
/// not enforce this. Keys accept either `&str` or [`Sym`] (via
/// [`SymKey`]): writes intern the name, reads only *look up* — probing
/// for a name nobody ever interned is allocation-free and grows nothing.
///
/// `VarMap` without a parameter is the state-variable size
/// ([`VARMAP_INLINE`]); event argument vectors are
/// `VarMap<EVENT_ARGS_INLINE>` ([`crate::event::Args`]).
#[derive(Clone)]
pub struct VarMap<const N: usize = VARMAP_INLINE> {
    len: u32,
    /// Sorted symbol ids, split from the values so a probe scans a dense
    /// `u32` array instead of striding across 24-byte `(Sym, Value)` pairs.
    keys: [Sym; N],
    vals: [Value; N],
    spill: Option<Box<Spill>>,
}

impl VarMap {
    /// Creates an empty state-variable map (no heap allocation). Other
    /// capacities start from [`Default::default`].
    pub fn new() -> Self {
        VarMap::default()
    }
}

impl<const N: usize> Default for VarMap<N> {
    fn default() -> Self {
        VarMap {
            len: 0,
            keys: [Sym::default(); N],
            vals: [Value::Bool(false); N],
            spill: None,
        }
    }
}

impl<const N: usize> VarMap<N> {
    fn keys(&self) -> &[Sym] {
        match &self.spill {
            Some(s) => &s.keys,
            None => &self.keys[..self.len as usize],
        }
    }

    fn vals(&self) -> &[Value] {
        match &self.spill {
            Some(s) => &s.vals,
            None => &self.vals[..self.len as usize],
        }
    }

    fn val_mut(&mut self, i: usize) -> &mut Value {
        match &mut self.spill {
            Some(s) => &mut s.vals[i],
            None => &mut self.vals[..self.len as usize][i],
        }
    }

    fn position(&self, sym: Sym) -> Result<usize, usize> {
        // Linear early-exit scan: at the map's size (≤ ~15 entries) this
        // beats binary search — the ids are contiguous and the loop is
        // predictable.
        let keys = self.keys();
        let id = sym.id();
        let mut i = 0;
        while i < keys.len() && keys[i].id() < id {
            i += 1;
        }
        if i < keys.len() && keys[i].id() == id {
            Ok(i)
        } else {
            Err(i)
        }
    }

    fn insert_at(&mut self, i: usize, sym: Sym, value: Value) {
        let len = self.len as usize;
        if self.spill.is_none() && len == N {
            let mut spill = Spill {
                keys: Vec::with_capacity(N + 1),
                vals: Vec::with_capacity(N + 1),
            };
            spill.keys.extend_from_slice(&self.keys);
            spill.vals.extend_from_slice(&self.vals);
            self.spill = Some(Box::new(spill));
        }
        match &mut self.spill {
            Some(s) => {
                s.keys.insert(i, sym);
                s.vals.insert(i, value);
            }
            None => {
                self.keys[i..=len].rotate_right(1);
                self.keys[i] = sym;
                self.vals[i..=len].rotate_right(1);
                self.vals[i] = value;
            }
        }
        self.len += 1;
    }

    /// Sets a variable, replacing any existing value.
    pub fn set(&mut self, name: impl SymKey, value: impl Into<Value>) {
        let sym = name.to_sym();
        match self.position(sym) {
            Ok(i) => *self.val_mut(i) = value.into(),
            Err(i) => self.insert_at(i, sym, value.into()),
        }
    }

    /// Looks up a variable.
    pub fn get(&self, name: impl SymKey) -> Option<&Value> {
        let sym = name.find_sym()?;
        let i = self.position(sym).ok()?;
        Some(&self.vals()[i])
    }

    /// Unsigned integer shortcut; `None` if absent or a different type.
    pub fn uint(&self, name: impl SymKey) -> Option<u64> {
        self.get(name).and_then(Value::as_uint)
    }

    /// Signed integer shortcut.
    pub fn int(&self, name: impl SymKey) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    /// String shortcut: the text of a `Sym` value.
    pub fn str(&self, name: impl SymKey) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Interned-symbol shortcut.
    pub fn sym(&self, name: impl SymKey) -> Option<Sym> {
        self.get(name).and_then(Value::as_sym)
    }

    /// Boolean shortcut, defaulting to `false` when absent.
    pub fn flag(&self, name: impl SymKey) -> bool {
        self.get(name).and_then(Value::as_bool).unwrap_or(false)
    }

    /// Removes a variable, returning its value. A spilled map stays
    /// spilled.
    pub fn remove(&mut self, name: impl SymKey) -> Option<Value> {
        let sym = name.find_sym()?;
        let i = self.position(sym).ok()?;
        let len = self.len as usize;
        self.len -= 1;
        Some(match &mut self.spill {
            Some(s) => {
                s.keys.remove(i);
                s.vals.remove(i)
            }
            None => {
                let value = self.vals[i];
                self.keys[i..len].rotate_left(1);
                self.vals[i..len].rotate_left(1);
                value
            }
        })
    }

    /// Increments a `Uint` counter by 1, creating it at 1 if absent, and
    /// returns the new value. Used by the paper's `pck_counter`.
    pub fn increment(&mut self, name: impl SymKey) -> u64 {
        let sym = name.to_sym();
        match self.position(sym) {
            Ok(i) => {
                let slot = self.val_mut(i);
                let next = slot.as_uint().unwrap_or(0) + 1;
                *slot = Value::Uint(next);
                next
            }
            Err(i) => {
                self.insert_at(i, sym, Value::Uint(1));
                1
            }
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(name, value)` pairs in symbol-id order (pre-seeded
    /// names first, then dynamic names in first-interned order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.iter_syms().map(|(s, v)| (s.as_str(), v))
    }

    /// Iterates over `(symbol, value)` pairs in symbol-id order.
    pub fn iter_syms(&self) -> impl Iterator<Item = (Sym, &Value)> {
        self.keys().iter().copied().zip(self.vals())
    }

    /// Heap bytes this map owns beyond its own `size_of`: the spill block
    /// and vectors once it outgrew `N` entries (no value owns heap). Zero
    /// for the maps the shipped machines and the classifier build.
    /// Interned names and texts live in the shared interner and are not
    /// charged here.
    pub fn heap_bytes(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| {
            mem::size_of::<Spill>()
                + s.keys.capacity() * mem::size_of::<Sym>()
                + s.vals.capacity() * mem::size_of::<Value>()
        })
    }

    /// In-memory footprint: the map itself plus [`VarMap::heap_bytes`].
    /// Backs the §7.3 per-call memory cost evaluation (E5).
    pub fn memory_bytes(&self) -> usize {
        mem::size_of::<Self>() + self.heap_bytes()
    }
}

impl<const N: usize> fmt::Debug for VarMap<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_syms()).finish()
    }
}

impl<const N: usize, const M: usize> PartialEq<VarMap<M>> for VarMap<N> {
    fn eq(&self, other: &VarMap<M>) -> bool {
        self.keys() == other.keys() && self.vals() == other.vals()
    }
}

impl<const N: usize> Eq for VarMap<N> {}

impl<const N: usize> FromIterator<(Sym, Value)> for VarMap<N> {
    fn from_iter<I: IntoIterator<Item = (Sym, Value)>>(iter: I) -> Self {
        let mut map = VarMap::default();
        for (name, value) in iter {
            map.set(name, value);
        }
        map
    }
}

impl<const N: usize> FromIterator<(String, Value)> for VarMap<N> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = VarMap::default();
        for (name, value) in iter {
            map.set(&name, value);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors() {
        let mut v = VarMap::new();
        v.set("l_count", 3u64);
        v.set("l_gap", -2i64);
        v.set("g_call_id", "abc");
        v.set("l_armed", true);
        assert_eq!(v.uint("l_count"), Some(3));
        assert_eq!(v.int("l_gap"), Some(-2));
        assert_eq!(v.str("g_call_id"), Some("abc"));
        assert!(v.flag("l_armed"));
        assert!(!v.flag("missing"));
        assert_eq!(v.uint("g_call_id"), None);
    }

    #[test]
    fn increment_counter() {
        let mut v = VarMap::new();
        assert_eq!(v.increment("pck_counter"), 1);
        assert_eq!(v.increment("pck_counter"), 2);
        assert_eq!(v.uint("pck_counter"), Some(2));
    }

    #[test]
    fn set_replaces() {
        let mut v = VarMap::new();
        v.set("x", 1u64);
        v.set("x", 2u64);
        assert_eq!(v.uint("x"), Some(2));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn remove_and_missing_reads_never_intern() {
        let mut v = VarMap::new();
        v.set("x", 7u64);
        assert_eq!(v.remove("x"), Some(Value::Uint(7)));
        assert_eq!(v.remove("x"), None);
        // A read miss on a never-seen name must not grow the interner.
        assert!(v.get("varmap-test-never-interned").is_none());
        assert_eq!(Sym::lookup("varmap-test-never-interned"), None);
    }

    #[test]
    fn memory_accounting_ignores_content() {
        let mut small = VarMap::new();
        small.set("a", 1u64);
        let mut big = VarMap::new();
        // Text is interned whichever way it arrives: a `String` value adds
        // nothing to the map that holds it.
        big.set(
            "a",
            "a-rather-long-call-identifier@host.example.com".to_owned(),
        );
        assert_eq!(big.memory_bytes(), small.memory_bytes());
        assert_eq!(big.heap_bytes(), 0);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5u32), Value::Uint(5));
        assert_eq!(Value::from(5u16), Value::Uint(5));
        assert_eq!(Value::from("x"), Value::Sym(Sym::intern("x")));
        assert_eq!(Value::from("x".to_owned()), Value::from("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(-1i64), Value::Int(-1));
    }

    #[test]
    fn string_str_and_sym_conversions_are_one_value() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Value::from("same-text".to_owned());
        let b = Value::from("same-text");
        let c = Value::Sym(Sym::intern("same-text"));
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        for other in [b, c] {
            assert_eq!(a, other);
            assert_eq!(a.cmp(&other), std::cmp::Ordering::Equal);
            assert_eq!(hash(&a), hash(&other));
            assert_eq!(a.to_string(), other.to_string());
            assert_eq!(a.as_sym(), other.as_sym());
        }
        assert_eq!(a.as_str(), Some("same-text"));
        assert_eq!(a.to_string(), "\"same-text\"");
    }

    #[test]
    fn symbols_order_by_text_not_by_interning_order() {
        let later = Value::from("value-order-b");
        let earlier = Value::from("value-order-a");
        assert!(earlier.as_sym().unwrap().id() > later.as_sym().unwrap().id());
        assert!(earlier < later);
        // Across variants: Int < Uint < Sym < Bool.
        let mut mixed = [
            Value::Bool(false),
            later,
            Value::Uint(0),
            earlier,
            Value::Int(9),
        ];
        mixed.sort();
        assert_eq!(
            mixed,
            [
                Value::Int(9),
                Value::Uint(0),
                earlier,
                later,
                Value::Bool(false)
            ]
        );
    }

    #[test]
    fn inline_vec_spills_past_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.heap_bytes(), 0, "inline while len <= N");
        v.push(4);
        assert!(v.heap_bytes() > 0, "spilled past N");
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.remove(0), 0);
        v.insert(0, 9);
        assert_eq!(v.as_slice(), &[9, 1, 2, 3, 4]);
        assert_eq!(
            v.clone().into_iter().collect::<Vec<_>>(),
            vec![9, 1, 2, 3, 4]
        );

        let mut inline: InlineVec<u32, 4> = InlineVec::new();
        inline.push(1);
        inline.insert(0, 0);
        assert_eq!(inline.as_slice(), &[0, 1]);
        assert_eq!(inline.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn varmap_iterates_in_symbol_id_order_and_spills() {
        let mut v = VarMap::new();
        for i in 0..(VARMAP_INLINE + 3) {
            v.set(format!("spill-key-{i}").as_str(), i as u64);
        }
        assert_eq!(v.len(), VARMAP_INLINE + 3);
        let ids: Vec<u32> = v.iter_syms().map(|(s, _)| s.id()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted by symbol id");
        for i in 0..(VARMAP_INLINE + 3) {
            assert_eq!(v.uint(format!("spill-key-{i}").as_str()), Some(i as u64));
        }
    }
}
