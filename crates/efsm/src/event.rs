//! The event alphabet Σ: data packets, synchronization messages and timers.

use std::fmt;

use crate::intern::Sym;
use crate::value::{Fingerprint, Value};
use crate::vars::{read_word, Arg, Schema, VarKind, VarType, Vars, MAX_ARGS, NO_ARGS};

/// How an event reached the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EventKind {
    /// `c?event(x̄)` — a packet arrived on a protocol channel.
    #[default]
    Data,
    /// δ — an internal synchronization message from a co-operating protocol
    /// state machine, delivered through a FIFO channel. Higher priority
    /// than data events (§4.2).
    Sync,
    /// A timer set by an earlier action expired (e.g. the paper's T1 / T).
    Timer,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Data => f.write_str("data"),
            EventKind::Sync => f.write_str("sync"),
            EventKind::Timer => f.write_str("timer"),
        }
    }
}

/// An input event: a name plus an argument vector `x̄`.
///
/// The arguments are the fields the paper's predicates read (`x.src_ip`,
/// `x.time_stamp`), declared once per protocol in a schema of arguments
/// ([`Schema::args`]) and stored positionally: one 8-byte word per
/// declared argument and one presence bit per word, so an event is plain
/// `Copy`-able data that never reaches the allocator. Hot code writes and
/// reads through typed [`Arg`] handles ([`Event::set`], [`Event::get`]);
/// names come back from the schema where people read them
/// ([`Event::args`], `Display`).
#[derive(Clone, Copy)]
pub struct Event {
    /// The event identifier (e.g. `"SIP.INVITE"`, `"RTP.Packet"`, `"δ"`).
    pub name: Sym,
    /// How the event arrived.
    pub kind: EventKind,
    /// Bit `i` set: argument `i` holds a value.
    present: u16,
    /// The schema declaring the arguments.
    schema: &'static Schema,
    /// Argument `i`'s word; zero while absent.
    words: [u64; MAX_ARGS],
}

// Sizes are facts: an event is built, moved and queued per packet, and most
// of it is the argument words.
const _: () = assert!(std::mem::size_of::<Event>() <= 144);

impl Event {
    fn bare(name: Sym, kind: EventKind, schema: &'static Schema) -> Self {
        Event {
            name,
            kind,
            present: 0,
            schema,
            words: [0; MAX_ARGS],
        }
    }

    /// Creates a data-packet event whose arguments `schema` declares, none
    /// of them set yet.
    pub fn new(name: impl Into<Sym>, schema: &'static Schema) -> Self {
        Event::bare(name.into(), EventKind::Data, schema)
    }

    /// Creates a data-packet event that carries no arguments.
    pub fn data(name: impl Into<Sym>) -> Self {
        Event::bare(name.into(), EventKind::Data, &NO_ARGS)
    }

    /// Creates a synchronization (δ) event.
    pub fn sync(name: impl Into<Sym>) -> Self {
        Event::bare(name.into(), EventKind::Sync, &NO_ARGS)
    }

    /// Creates a timer-expiry event. The name is the timer's name.
    pub fn timer(name: impl Into<Sym>) -> Self {
        Event::bare(name.into(), EventKind::Timer, &NO_ARGS)
    }

    /// Sets an argument, replacing any value it held.
    pub fn set<T: VarType>(&mut self, arg: Arg<T>, value: T) {
        debug_assert_eq!(
            arg.schema,
            self.schema.args_id(),
            "an argument of another schema"
        );
        self.words[arg.slot as usize] = value.to_word();
        self.present |= 1 << arg.slot;
    }

    /// Sets an argument, builder-style.
    #[must_use]
    pub fn with<T: VarType>(mut self, arg: Arg<T>, value: T) -> Self {
        self.set(arg, value);
        self
    }

    /// An argument's value, `None` while it is absent.
    pub fn get<T: VarType>(&self, arg: Arg<T>) -> Option<T> {
        debug_assert!(
            self.present == 0 || arg.schema == self.schema.args_id(),
            "an argument of another schema"
        );
        read_word(&self.words, self.present as u64, arg.slot as usize)
    }

    /// Sets the argument the schema declares under `name`, builder-style:
    /// for tests and tooling that build events by name. The name is
    /// resolved through the schema on every call; hot code uses
    /// [`Event::set`] with a handle. Text given for a fingerprint argument
    /// is fingerprinted: `with_named("from_tag", "ft")` sets the
    /// fingerprint of `"ft"`.
    ///
    /// # Panics
    ///
    /// When the schema declares no such argument, or declares it with
    /// another type.
    #[must_use]
    pub fn with_named(mut self, name: &str, value: impl Into<Value>) -> Self {
        let (slot, kind) = Sym::lookup(name)
            .and_then(|name| self.schema.find(name))
            .unwrap_or_else(|| panic!("no argument {name:?} is declared for {}", self.name));
        let word = match (kind, value.into()) {
            (VarKind::Int, Value::Int(v)) => v.to_word(),
            (VarKind::Uint, Value::Uint(v)) => v,
            (VarKind::Sym, Value::Sym(v)) => v.to_word(),
            (VarKind::Bool, Value::Bool(v)) => v.to_word(),
            (VarKind::Ip, Value::Ip(v)) => v.to_word(),
            (VarKind::Fingerprint, Value::Fingerprint(v)) => v.to_word(),
            (VarKind::Fingerprint, Value::Sym(v)) => Fingerprint::of(v.as_str()).to_word(),
            (kind, value) => panic!("argument {name:?} is {kind}, not {value:?}"),
        };
        self.words[slot] = word;
        self.present |= 1 << slot;
        self
    }

    /// The arguments by name, for people: tooling, rendering and tests.
    pub fn args(&self) -> Vars<'_> {
        Vars::new(self.schema, &self.words, self.present as u64)
    }
}

impl Default for Event {
    fn default() -> Self {
        Event::data(Sym::default())
    }
}

/// Two events are equal when their names, kinds and set arguments are.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.present == other.present
            && (self.present == 0 || self.schema.args_id() == other.schema.args_id())
            && self.words == other.words
    }
}

impl Eq for Event {}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("args", &self.args())
            .finish()
    }
}

/// `kind?name(k=v, …)`, the arguments in ascending symbol-id order of
/// their names — the order alert details and `.vdump` files have always
/// carried, whatever order a schema declares them in.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}?{}(", self.kind, self.name)?;
        let mut order = [0u8; MAX_ARGS];
        let mut len = 0;
        for slot in 0..MAX_ARGS {
            if self.present & (1 << slot) != 0 {
                order[len] = slot as u8;
                len += 1;
            }
        }
        let order = &mut order[..len];
        order.sort_unstable_by_key(|&slot| self.schema.name(slot as usize).id());
        let args = self.args();
        for (n, &slot) in order.iter().enumerate() {
            if n > 0 {
                f.write_str(", ")?;
            }
            let value = args.value(slot as usize).expect("a present slot");
            write!(f, "{}={value}", self.schema.name(slot as usize))?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::sync::LazyLock;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    struct TestArgs {
        schema: Schema,
        src_ip: Arg<Ipv4Addr>,
        src_port: Arg<u64>,
        has_sdp: Arg<bool>,
        delta: Arg<i64>,
        tag: Arg<Fingerprint>,
    }

    // Declared out of symbol-id order, so rendering has to sort.
    static ARGS: LazyLock<TestArgs> = LazyLock::new(|| {
        let mut schema = Schema::args();
        TestArgs {
            delta: schema.arg("et_delta"),
            has_sdp: schema.arg("has_sdp"),
            src_port: schema.arg("src_port"),
            src_ip: schema.arg("src_ip"),
            tag: schema.arg("et_tag"),
            schema,
        }
    });

    fn event(name: &str) -> Event {
        Event::new(name, &ARGS.schema)
    }

    #[test]
    fn handles_and_names_read_the_same_words() {
        let a = &*ARGS;
        let ev = event("SIP.INVITE")
            .with(a.src_ip, SRC)
            .with(a.src_port, 5060)
            .with(a.has_sdp, true)
            .with(a.delta, -1);
        assert_eq!(ev.kind, EventKind::Data);
        assert_eq!(ev.name, "SIP.INVITE");
        assert_eq!(ev.get(a.src_ip), Some(SRC));
        assert_eq!(ev.get(a.src_port), Some(5060));
        assert_eq!(ev.get(a.has_sdp), Some(true));
        assert_eq!(ev.get(a.delta), Some(-1));
        assert_eq!(ev.args().ip("src_ip"), Some(SRC));
        assert_eq!(ev.args().int("et_delta"), Some(-1));
        assert_eq!(ev.args().get("missing"), None);
        let by_name = event("SIP.INVITE")
            .with_named("et_delta", -1i64)
            .with_named("has_sdp", true)
            .with_named("src_ip", SRC)
            .with_named("src_port", 5060u64);
        assert_eq!(by_name, ev);
    }

    #[test]
    fn absent_arguments_read_none() {
        let a = &*ARGS;
        let ev = event("go").with(a.src_port, 1);
        assert_eq!(ev.get(a.src_ip), None);
        assert_eq!(ev.args().len(), 1);
        // An event that carries no arguments reads every handle as absent.
        assert_eq!(Event::data("go").get(a.src_port), None);
    }

    #[test]
    fn kinds() {
        assert_eq!(Event::sync("δ_SIP→RTP").kind, EventKind::Sync);
        assert_eq!(Event::timer("T1").kind, EventKind::Timer);
    }

    #[test]
    fn display_is_csp_like_in_symbol_id_order() {
        let a = &*ARGS;
        assert_eq!(event("go").to_string(), "data?go()");
        let ev = event("go")
            .with(a.delta, -2)
            .with(a.src_ip, SRC)
            .with(a.has_sdp, false);
        // `src_ip` and `has_sdp` are pre-seeded, `et_delta` is not.
        assert_eq!(
            ev.to_string(),
            "data?go(src_ip=\"10.0.0.3\", has_sdp=false, et_delta=-2)"
        );
    }

    #[test]
    fn text_for_a_fingerprint_argument_is_fingerprinted() {
        let a = &*ARGS;
        let by_handle = event("go").with(a.tag, Fingerprint::of("ft"));
        assert_eq!(event("go").with_named("et_tag", "ft"), by_handle);
        assert_eq!(
            event("go").with_named("et_tag", Fingerprint::of("ft")),
            by_handle
        );
        assert_eq!(
            event("go").with_named("et_tag", "").get(a.tag),
            Some(Fingerprint::EMPTY)
        );
        assert_eq!(by_handle.to_string(), "data?go(et_tag=#)");
    }

    #[test]
    #[should_panic(expected = "no argument")]
    fn naming_an_undeclared_argument_panics() {
        let _ = event("go").with_named("event-test-undeclared", 1u64);
    }

    #[test]
    #[should_panic(expected = "is uint")]
    fn naming_an_argument_with_the_wrong_type_panics() {
        let _ = event("go").with_named("src_port", true);
    }
}
