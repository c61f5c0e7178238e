//! The domains `D` of state variables and event arguments, and a small
//! inline vector.
//!
//! Variables and arguments are stored positionally as 8-byte words
//! ([`crate::vars`]); a [`Value`] is what one of them reads back as where
//! it is rendered or compared by name. Identifiers a machine keys on
//! (Call-IDs, addresses-of-record) are interned symbols; identifiers it only
//! tests for equality (SIP tags, Via branches) are keyed [`Fingerprint`]s;
//! an IPv4 address is its own word. Neither of the last two touches the
//! interner.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::mem;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

use crate::intern::Sym;

/// A value a state variable or event argument can take.
///
/// The paper's Definition 1 leaves domains abstract; in a VoIP monitor the
/// variables are addresses, identifiers, counters and timestamps. Text a
/// machine keys on is an interned [`Sym`] handle, text it only compares is
/// a [`Fingerprint`], and an IPv4 address is its own four bytes, so a value
/// is 16 bytes, `Copy`, and owns no heap: every record, event and argument
/// vector built from values is plain data with no drop glue.
///
/// Values have no order: a fingerprint's word depends on a per-process
/// key, and nothing a process outputs may.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Signed integer (sequence deltas, gaps).
    Int(i64),
    /// Unsigned integer (counters, ports, timestamps in ms/ticks).
    Uint(u64),
    /// Interned text (Call-IDs, addresses-of-record — see
    /// [`crate::intern`]). The interner dedups, so equality is an O(1) id
    /// compare.
    Sym(Sym),
    /// Boolean flag.
    Bool(bool),
    /// An IPv4 address (datagram endpoints, SDP media and Contact hosts):
    /// a value, never interned. Renders as its quoted dotted quad, exactly
    /// as the same address held as text would.
    Ip(Ipv4Addr),
    /// A keyed fingerprint of text that is only ever compared (SIP tags
    /// and Via branches): never interned, and rendered without its word.
    Fingerprint(Fingerprint),
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

    /// The contained address, if this is an `Ip`.
    pub fn as_ip(&self) -> Option<Ipv4Addr> {
        match self {
            Value::Ip(v) => Some(*v),
            _ => None,
        }
    }
}

/// A 64-bit keyed fingerprint of an identifier the machines only test for
/// equality: a SIP From or To tag, or a top Via branch (§4.1's guards
/// compare them and read nothing else). Taking one stores nothing, so
/// unlike an interned symbol it costs no table space for the life of the
/// process.
///
/// The hash is std's SipHash-1-3 under one [`RandomState`] drawn per
/// process. The key is secret: under a public function a party to a call
/// could search offline for a second branch or tag with the same
/// fingerprint and have the monitor accept a request the user agent
/// rejects. Two different texts collide with probability 2⁻⁶⁴ per
/// comparison. Nothing the program outputs may depend on the key, so a
/// fingerprint renders as `#` whatever its word (the empty text's as
/// `""`, which is the same in every process) and has no order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint(pub(crate) u64);

impl Fingerprint {
    /// The empty text's fingerprint, which is also what an absent tag or
    /// branch reads as: an absent tag and an empty `tag=` are one value.
    pub const EMPTY: Fingerprint = Fingerprint(0);

    /// The fingerprint of `text` under this process's key.
    pub fn of(text: &str) -> Fingerprint {
        static KEY: OnceLock<RandomState> = OnceLock::new();
        Fingerprint::keyed(KEY.get_or_init(RandomState::new), text)
    }

    fn keyed(key: &RandomState, text: &str) -> Fingerprint {
        if text.is_empty() {
            return Fingerprint::EMPTY;
        }
        // Zero is the empty text's word; a text that hashes to it takes one.
        Fingerprint(key.hash_one(text).max(1))
    }
}

/// `#`, or `""` for the empty text: never the word, which depends on the
/// process's key.
impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if *self == Fingerprint::EMPTY {
            "\"\""
        } else {
            "#"
        })
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Bool(false)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Uint(v) => write!(f, "{v}"),
            Value::Sym(v) => write!(f, "{:?}", v.as_str()),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Ip(v) => write!(f, "\"{v}\""),
            Value::Fingerprint(v) => write!(f, "{v}"),
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
/// from the wire go through [`Sym::try_intern`] at the classifier, or
/// become a [`Fingerprint`] there.
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

impl From<Ipv4Addr> for Value {
    fn from(v: Ipv4Addr) -> Self {
        Value::Ip(v)
    }
}

impl From<Fingerprint> for Value {
    fn from(v: Fingerprint) -> Self {
        Value::Fingerprint(v)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5u32), Value::Uint(5));
        assert_eq!(Value::from(5u16), Value::Uint(5));
        assert_eq!(Value::from("x"), Value::Sym(Sym::intern("x")));
        assert_eq!(Value::from("x".to_owned()), Value::from("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(-1i64), Value::Int(-1));
        let ip = Ipv4Addr::new(10, 1, 0, 10);
        assert_eq!(Value::from(ip), Value::Ip(ip));
        assert_eq!(Value::Ip(ip).as_ip(), Some(ip));
        assert_eq!(Value::Ip(ip).as_sym(), None);
    }

    #[test]
    fn an_address_renders_as_its_quoted_text_would() {
        for text in ["10.1.0.10", "0.0.0.0", "255.255.255.255", "1.20.100.9"] {
            let ip: Ipv4Addr = text.parse().unwrap();
            assert_eq!(Value::Ip(ip).to_string(), Value::from(text).to_string());
        }
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
            assert_eq!(hash(&a), hash(&other));
            assert_eq!(a.to_string(), other.to_string());
            assert_eq!(a.as_sym(), other.as_sym());
        }
        assert_eq!(a.as_str(), Some("same-text"));
        assert_eq!(a.to_string(), "\"same-text\"");
    }

    #[test]
    fn equal_texts_have_equal_fingerprints() {
        let text = "z9hG4bK-fp-equal";
        let same = format!("z9hG4bK-fp-{}", "equal");
        assert_eq!(Fingerprint::of(text), Fingerprint::of(&same));
        assert_ne!(Fingerprint::of(text), Fingerprint::EMPTY);
        assert_eq!(Sym::lookup(text), None, "fingerprinting interns nothing");
    }

    #[test]
    fn one_byte_apart_is_another_fingerprint() {
        let base = "t".repeat(255);
        let fp = Fingerprint::of(&base);
        for offset in [0, 63, 64, 254] {
            let mut other = base.clone().into_bytes();
            other[offset] = b'u';
            let other = String::from_utf8(other).unwrap();
            assert_ne!(Fingerprint::of(&other), fp, "offset {offset}");
        }
    }

    #[test]
    fn the_empty_text_is_the_empty_fingerprint_under_any_key() {
        assert_eq!(Fingerprint::of(""), Fingerprint::EMPTY);
        assert_eq!(Fingerprint::default(), Fingerprint::EMPTY);
        assert_eq!(
            Fingerprint::keyed(&RandomState::new(), ""),
            Fingerprint::EMPTY
        );
        assert_eq!(Value::Fingerprint(Fingerprint::EMPTY).to_string(), "\"\"");
    }

    #[test]
    fn a_fingerprint_renders_the_same_whatever_the_key() {
        let (k1, k2) = (RandomState::new(), RandomState::new());
        let text = "tag-fp-render";
        let (a, b) = (Fingerprint::keyed(&k1, text), Fingerprint::keyed(&k2, text));
        assert_ne!(a, b, "two keys give two words");
        for fp in [a, b, Fingerprint::of(text)] {
            assert_eq!(fp.to_string(), "#");
            assert_eq!(format!("{fp:?}"), "#");
            assert_eq!(Value::Fingerprint(fp).to_string(), "#");
            assert_eq!(format!("{:?}", Value::from(fp)), "Fingerprint(#)");
        }
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
}
