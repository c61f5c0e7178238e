//! State variables `v̄` as a vector (the paper's Definition 1).
//!
//! Every variable is declared once, while its definition is built: a
//! machine's locals through [`crate::machine::MachineDef::local`], the
//! globals its network shares through a [`Schema`] of globals. A
//! declaration returns a [`Var`] handle — a slot number whose type
//! parameter is the variable's type — and predicates and actions read and
//! write through handles, so the per-event path never hashes, probes or
//! interns a name.
//!
//! Storage is one positional frame per network: the shared globals first,
//! then each machine's locals in the order the machines were added, one
//! 8-byte word per variable and one presence bit per word. A clear bit is
//! "absent": removing a variable clears it, and an absent variable reads
//! as `None` and is left out wherever the variables are rendered. Names
//! live only in the schemas and come back where people read them: [`Vars`]
//! renders one scope by name for snapshots, tooling and tests.
//!
//! An event's arguments `x̄` are a vector the same way. A protocol declares
//! them once, in a schema of arguments ([`Schema::args`]), and gets an
//! [`Arg`] handle per argument; an [`crate::event::Event`] stores them as
//! one 8-byte word each behind a presence mask, and renders them by name
//! from the schema.

use std::fmt;
use std::marker::PhantomData;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU16, Ordering};

use crate::intern::{Sym, SymKey};
use crate::value::{Fingerprint, Value};

/// The most variables one frame holds: one presence bit each in a `u64`.
pub const MAX_VARS: usize = 64;

/// The most arguments one event carries: one presence bit each in a `u16`.
pub const MAX_ARGS: usize = 16;

/// The type of a declared variable, which fixes how its word reads back
/// as a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// `i64`, read back as [`Value::Int`].
    Int,
    /// `u64`, read back as [`Value::Uint`].
    Uint,
    /// [`Sym`], read back as [`Value::Sym`].
    Sym,
    /// `bool`, read back as [`Value::Bool`].
    Bool,
    /// [`Ipv4Addr`], read back as [`Value::Ip`].
    Ip,
    /// [`Fingerprint`], read back as [`Value::Fingerprint`].
    Fingerprint,
}

impl VarKind {
    fn value(self, word: u64) -> Value {
        match self {
            VarKind::Int => Value::Int(i64::from_word(word)),
            VarKind::Uint => Value::Uint(word),
            VarKind::Sym => Value::Sym(Sym::from_word(word)),
            VarKind::Bool => Value::Bool(bool::from_word(word)),
            VarKind::Ip => Value::Ip(Ipv4Addr::from_word(word)),
            VarKind::Fingerprint => Value::Fingerprint(Fingerprint(word)),
        }
    }
}

impl fmt::Display for VarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VarKind::Int => "int",
            VarKind::Uint => "uint",
            VarKind::Sym => "sym",
            VarKind::Bool => "bool",
            VarKind::Ip => "ip",
            VarKind::Fingerprint => "fingerprint",
        })
    }
}

/// A type a state variable can have. Each is stored in one 8-byte word.
pub trait VarType: Copy {
    /// The declared kind.
    const KIND: VarKind;
    /// The word that stores `self`.
    fn to_word(self) -> u64;
    /// The value a word written by [`VarType::to_word`] holds.
    fn from_word(word: u64) -> Self;
}

impl VarType for u64 {
    const KIND: VarKind = VarKind::Uint;
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl VarType for i64 {
    const KIND: VarKind = VarKind::Int;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as i64
    }
}

impl VarType for bool {
    const KIND: VarKind = VarKind::Bool;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word != 0
    }
}

impl VarType for Sym {
    const KIND: VarKind = VarKind::Sym;
    fn to_word(self) -> u64 {
        self.id() as u64
    }
    fn from_word(word: u64) -> Self {
        Sym::from_id(word as u32)
    }
}

impl VarType for Ipv4Addr {
    const KIND: VarKind = VarKind::Ip;
    fn to_word(self) -> u64 {
        u32::from(self) as u64
    }
    fn from_word(word: u64) -> Self {
        Ipv4Addr::from(word as u32)
    }
}

impl VarType for Fingerprint {
    const KIND: VarKind = VarKind::Fingerprint;
    fn to_word(self) -> u64 {
        self.0
    }
    fn from_word(word: u64) -> Self {
        Fingerprint(word)
    }
}

/// A declared variable: its slot in its scope, whether that scope is the
/// shared globals, and (through `T`) its type. Two bytes, `Copy`.
pub struct Var<T> {
    slot: u8,
    global: bool,
    ty: PhantomData<fn() -> T>,
}

impl<T> Clone for Var<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Var<T> {}

impl<T> PartialEq for Var<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.slot, self.global) == (other.slot, other.global)
    }
}

impl<T> Eq for Var<T> {}

impl<T> fmt::Debug for Var<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scope = if self.global { "global" } else { "local" };
        write!(f, "Var({scope} {})", self.slot)
    }
}

/// A declared event argument: its slot in its schema of arguments, the
/// schema it belongs to, and (through `T`) its type. Four bytes, `Copy`.
pub struct Arg<T> {
    pub(crate) slot: u8,
    pub(crate) schema: u16,
    ty: PhantomData<fn() -> T>,
}

impl<T> Clone for Arg<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Arg<T> {}

impl<T> PartialEq for Arg<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.slot, self.schema) == (other.slot, other.schema)
    }
}

impl<T> Eq for Arg<T> {}

impl<T> fmt::Debug for Arg<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Arg({} of schema {})", self.slot, self.schema)
    }
}

/// What a schema declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Locals,
    Globals,
    /// An event's arguments; the number tells schemas of arguments apart.
    Args(u16),
}

/// The names and kinds of one scope's variables, in slot order: a
/// machine's locals, globals the machines of one network share, or the
/// arguments of one protocol's events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    scope: Scope,
    vars: Vec<(Sym, VarKind)>,
}

/// The schema of a scope that declares nothing.
pub(crate) static NO_VARS: Schema = Schema {
    scope: Scope::Globals,
    vars: Vec::new(),
};

/// The arguments of an event that carries none (δ, timers, bare events).
pub(crate) static NO_ARGS: Schema = Schema {
    scope: Scope::Args(0),
    vars: Vec::new(),
};

impl Schema {
    /// An empty schema of globals. Declare the variables, wrap it in an
    /// `Arc` and hand it to every definition that shares them
    /// ([`crate::machine::MachineDef::share_globals`]).
    pub fn globals() -> Schema {
        Schema {
            scope: Scope::Globals,
            vars: Vec::new(),
        }
    }

    pub(crate) fn locals() -> Schema {
        Schema {
            scope: Scope::Locals,
            vars: Vec::new(),
        }
    }

    /// An empty schema of event arguments. Declare a protocol's arguments
    /// with [`Schema::arg`], keep the schema in a `static` and build that
    /// protocol's events on it ([`crate::event::Event::new`]).
    pub fn args() -> Schema {
        static NEXT: AtomicU16 = AtomicU16::new(1);
        Schema {
            scope: Scope::Args(NEXT.fetch_add(1, Ordering::Relaxed)),
            vars: Vec::new(),
        }
    }

    /// Declares the next variable and returns its handle. A name declared
    /// twice is refused when a definition using the schema is built.
    ///
    /// # Panics
    ///
    /// Past [`MAX_VARS`] declarations, and on a schema of arguments.
    pub fn declare<T: VarType>(&mut self, name: impl Into<Sym>) -> Var<T> {
        let global = match self.scope {
            Scope::Locals => false,
            Scope::Globals => true,
            Scope::Args(_) => panic!("a schema of arguments declares them with `arg`"),
        };
        assert!(
            self.vars.len() < MAX_VARS,
            "a scope declares at most {MAX_VARS} variables"
        );
        self.vars.push((name.into(), T::KIND));
        Var {
            slot: (self.vars.len() - 1) as u8,
            global,
            ty: PhantomData,
        }
    }

    /// Declares the next event argument and returns its handle. A name
    /// declared twice, or one naming a machine variable, is refused when a
    /// definition reading the schema is built
    /// ([`crate::machine::MachineDef::reads`]).
    ///
    /// # Panics
    ///
    /// Past [`MAX_ARGS`] declarations, and on a schema of variables.
    pub fn arg<T: VarType>(&mut self, name: impl Into<Sym>) -> Arg<T> {
        let Scope::Args(schema) = self.scope else {
            panic!("variables are declared with `declare`");
        };
        assert!(
            self.vars.len() < MAX_ARGS,
            "an event carries at most {MAX_ARGS} arguments"
        );
        self.vars.push((name.into(), T::KIND));
        Arg {
            slot: (self.vars.len() - 1) as u8,
            schema,
            ty: PhantomData,
        }
    }

    /// The number that tells schemas of arguments apart (0 for the others
    /// and for the arguments of an event that carries none).
    pub(crate) fn args_id(&self) -> u16 {
        match self.scope {
            Scope::Args(id) => id,
            _ => 0,
        }
    }

    /// Slot and kind of a declared name.
    pub(crate) fn find(&self, name: Sym) -> Option<(usize, VarKind)> {
        self.vars
            .iter()
            .position(|&(n, _)| n == name)
            .map(|i| (i, self.vars[i].1))
    }

    pub(crate) fn name(&self, slot: usize) -> Sym {
        self.vars[slot].0
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// `(name, kind)` of every variable, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, VarKind)> + '_ {
        self.vars.iter().copied()
    }

    pub(crate) fn contains(&self, name: Sym) -> bool {
        self.vars.iter().any(|&(n, _)| n == name)
    }

    /// The first name declared more than once, if any.
    pub(crate) fn duplicate(&self) -> Option<Sym> {
        self.vars
            .iter()
            .enumerate()
            .find(|(i, (name, _))| self.vars[..*i].iter().any(|(n, _)| n == name))
            .map(|(_, &(name, _))| name)
    }
}

/// The low `n` bits set (`n` ≤ 64).
fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr((MAX_VARS - n) as u32).unwrap_or(0)
}

/// A network's variables, positionally: `N` words inline, and all of them
/// in one heap block when a network's machines declare more.
#[derive(Clone)]
pub(crate) struct Frame<const N: usize> {
    /// Bit `i` set: word `i` holds a value.
    present: u64,
    inline: [u64; N],
    spill: Option<Box<[u64; MAX_VARS]>>,
}

impl<const N: usize> Default for Frame<N> {
    fn default() -> Self {
        Frame {
            present: 0,
            inline: [0; N],
            spill: None,
        }
    }
}

impl<const N: usize> Frame<N> {
    /// An empty frame of `words` words.
    pub(crate) fn new(words: usize) -> Self {
        let mut frame = Frame::default();
        frame.insert(0, words, 0);
        frame
    }

    fn words(&self) -> &[u64] {
        match &self.spill {
            Some(block) => &block[..],
            None => &self.inline,
        }
    }

    /// Opens `count` empty words at `at` in a frame of `len` words, moving
    /// the later words and their presence bits up.
    ///
    /// # Panics
    ///
    /// When the frame would exceed [`MAX_VARS`] words.
    pub(crate) fn insert(&mut self, at: usize, count: usize, len: usize) {
        assert!(
            len + count <= MAX_VARS,
            "a network holds at most {MAX_VARS} variables"
        );
        if len + count > N && self.spill.is_none() {
            let mut block = Box::new([0; MAX_VARS]);
            block[..N].copy_from_slice(&self.inline);
            self.spill = Some(block);
        }
        let words = match &mut self.spill {
            Some(block) => &mut block[..],
            None => &mut self.inline[..],
        };
        words[at..len + count].rotate_right(count);
        words[at..at + count].fill(0);
        let above = self.present & !low_bits(at);
        self.present = (self.present & low_bits(at)) | above.checked_shl(count as u32).unwrap_or(0);
    }

    /// Write access for the machine whose locals start at word `base`.
    pub(crate) fn slots(&mut self, base: usize) -> Slots<'_> {
        Slots {
            words: match &mut self.spill {
                Some(block) => &mut block[..],
                None => &mut self.inline[..],
            },
            present: &mut self.present,
            base,
        }
    }

    /// Read access for the machine whose locals start at word `base`.
    pub(crate) fn slots_ref(&self, base: usize) -> SlotsRef<'_> {
        SlotsRef {
            words: self.words(),
            present: self.present,
            base,
        }
    }

    /// The scope `schema` declares, stored from word `at`, by name.
    pub(crate) fn scope<'a>(&'a self, schema: &'a Schema, at: usize) -> Vars<'a> {
        Vars {
            schema,
            words: &self.words()[at..at + schema.len()],
            present: self.present.checked_shr(at as u32).unwrap_or(0) & low_bits(schema.len()),
        }
    }

    /// Whether no word holds a value.
    pub(crate) fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Heap bytes beyond `size_of` (the spill block, once needed).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.spill
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<[u64; MAX_VARS]>())
    }
}

/// Read access to one machine's variables — its locals and the globals it
/// shares — inside a frame: what predicates see.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotsRef<'a> {
    words: &'a [u64],
    present: u64,
    base: usize,
}

fn index<T>(var: Var<T>, base: usize) -> usize {
    if var.global {
        var.slot as usize
    } else {
        base + var.slot as usize
    }
}

/// Word `i` as a `T`, `None` while its presence bit is clear: how frames
/// and events read a slot.
pub(crate) fn read_word<T: VarType>(words: &[u64], present: u64, i: usize) -> Option<T> {
    (present & (1 << i) != 0).then(|| T::from_word(words[i]))
}

impl SlotsRef<'_> {
    pub(crate) fn get<T: VarType>(&self, var: Var<T>) -> Option<T> {
        read_word(self.words, self.present, index(var, self.base))
    }
}

/// Write access to one machine's variables: what actions change.
#[derive(Debug)]
pub(crate) struct Slots<'a> {
    words: &'a mut [u64],
    present: &'a mut u64,
    base: usize,
}

impl Slots<'_> {
    pub(crate) fn read(&self) -> SlotsRef<'_> {
        SlotsRef {
            words: self.words,
            present: *self.present,
            base: self.base,
        }
    }

    /// The same frame, for the machine whose locals start at word `base`.
    pub(crate) fn at(&mut self, base: usize) -> Slots<'_> {
        Slots {
            words: self.words,
            present: self.present,
            base,
        }
    }

    pub(crate) fn reborrow(&mut self) -> Slots<'_> {
        self.at(self.base)
    }

    pub(crate) fn set<T: VarType>(&mut self, var: Var<T>, value: T) {
        let i = index(var, self.base);
        self.words[i] = value.to_word();
        *self.present |= 1 << i;
    }

    pub(crate) fn remove<T: VarType>(&mut self, var: Var<T>) -> Option<T> {
        let old = self.read().get(var);
        *self.present &= !(1 << index(var, self.base));
        old
    }
}

/// One scope of a network's variables — a machine's locals or the shared
/// globals — by name, for people: snapshots, tooling and tests. Lookups
/// never intern, so probing for a name nobody declared grows nothing.
#[derive(Clone, Copy)]
pub struct Vars<'a> {
    schema: &'a Schema,
    words: &'a [u64],
    present: u64,
}

impl<'a> Vars<'a> {
    /// The scope `schema` declares, stored in `words` behind `present`.
    pub(crate) fn new(schema: &'a Schema, words: &'a [u64], present: u64) -> Self {
        Vars {
            schema,
            words: &words[..schema.len()],
            present,
        }
    }

    /// The value of a declared variable, `None` when it is absent or not
    /// declared.
    pub fn get(&self, name: impl SymKey) -> Option<Value> {
        let name = name.find_sym()?;
        let i = self.schema.vars.iter().position(|&(n, _)| n == name)?;
        self.value(i)
    }

    pub(crate) fn value(&self, i: usize) -> Option<Value> {
        (self.present & (1 << i) != 0).then(|| self.schema.vars[i].1.value(self.words[i]))
    }

    /// Unsigned-integer shortcut.
    pub fn uint(&self, name: impl SymKey) -> Option<u64> {
        self.get(name)?.as_uint()
    }

    /// Signed-integer shortcut.
    pub fn int(&self, name: impl SymKey) -> Option<i64> {
        self.get(name)?.as_int()
    }

    /// Interned-symbol shortcut.
    pub fn sym(&self, name: impl SymKey) -> Option<Sym> {
        self.get(name)?.as_sym()
    }

    /// Text shortcut: the text of a `Sym` variable.
    pub fn str(&self, name: impl SymKey) -> Option<&'static str> {
        self.sym(name).map(Sym::as_str)
    }

    /// Address shortcut.
    pub fn ip(&self, name: impl SymKey) -> Option<Ipv4Addr> {
        self.get(name)?.as_ip()
    }

    /// `(name, value)` of every variable that holds a value, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Value)> + 'a {
        let this = *self;
        (0..self.schema.len())
            .filter_map(move |i| Some((this.schema.vars[i].0.as_str(), this.value(i)?)))
    }

    /// Number of variables that hold a value.
    pub fn len(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// Whether no variable holds a value.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }
}

impl fmt::Debug for Vars<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_every_kind() {
        let mut schema = Schema::locals();
        let n: Var<u64> = schema.declare("vt_n");
        let d: Var<i64> = schema.declare("vt_d");
        let s: Var<Sym> = schema.declare("vt_s");
        let b: Var<bool> = schema.declare("vt_b");
        let ip: Var<Ipv4Addr> = schema.declare("vt_ip");
        let fp: Var<Fingerprint> = schema.declare("vt_fp");
        let mut frame = Frame::<2>::new(schema.len());
        let mut slots = frame.slots(0);
        slots.set(n, u64::MAX);
        slots.set(d, -7);
        slots.set(s, Sym::intern("vars-test-text"));
        slots.set(b, true);
        slots.set(ip, Ipv4Addr::BROADCAST);
        slots.set(fp, Fingerprint::of("vars-test-tag"));
        assert_eq!(slots.read().get(n), Some(u64::MAX));
        assert_eq!(slots.read().get(d), Some(-7));
        assert_eq!(slots.remove(b), Some(true));
        assert_eq!(slots.read().get(b), None);
        assert!(frame.heap_bytes() > 0, "six words spill a two-word frame");
        let vars = frame.scope(&schema, 0);
        assert_eq!(vars.len(), 5);
        assert_eq!(vars.str("vt_s"), Some("vars-test-text"));
        assert_eq!(vars.int("vt_d"), Some(-7));
        assert_eq!(vars.ip("vt_ip"), Some(Ipv4Addr::BROADCAST));
        assert_eq!(
            vars.get("vt_fp"),
            Some(Value::Fingerprint(Fingerprint::of("vars-test-tag")))
        );
        assert_eq!(vars.get("vt_b"), None);
        assert_eq!(vars.get("vars-test-never-declared"), None);
        assert_eq!(Sym::lookup("vars-test-never-declared"), None);
        let names: Vec<&str> = vars.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["vt_n", "vt_d", "vt_s", "vt_ip", "vt_fp"]);
    }

    #[test]
    fn insert_moves_later_words_and_their_bits() {
        let mut schema = Schema::locals();
        let a: Var<u64> = schema.declare("vt_a");
        let mut frame = Frame::<4>::new(1);
        frame.slots(0).set(a, 5);
        // Two globals open in front of the one local.
        frame.insert(0, 2, 1);
        assert_eq!(frame.slots_ref(2).get(a), Some(5));
        assert_eq!(frame.present, 0b100);
        assert_eq!(frame.heap_bytes(), 0);
    }

    #[test]
    fn duplicates_are_found() {
        let mut schema = Schema::globals();
        let _: Var<u64> = schema.declare("vt_x");
        let _: Var<u64> = schema.declare("vt_y");
        assert_eq!(schema.duplicate(), None);
        let _: Var<bool> = schema.declare("vt_x");
        assert_eq!(schema.duplicate(), Some(Sym::intern("vt_x")));
    }
}
