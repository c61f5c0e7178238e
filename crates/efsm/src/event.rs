//! The event alphabet Σ: data packets, synchronization messages and timers.

use std::fmt;

use crate::intern::{Sym, SymKey};
use crate::value::{Value, VarMap, EVENT_ARGS_INLINE};

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

/// An event's argument vector `x̄`: a [`VarMap`] sized so that nothing the
/// classifier builds spills to the heap.
pub type Args = VarMap<EVENT_ARGS_INLINE>;

/// An input event: a name plus an argument vector `x̄`.
///
/// Arguments are named values, mirroring the paper's use of fields like
/// `x.src_ip` and `x.time_stamp` inside predicates. The name is an
/// interned [`Sym`], so constructing, copying and matching an event never
/// allocates for the name; steady-state argument vectors stay inline in
/// the [`VarMap`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Event {
    /// The event identifier (e.g. `"SIP.INVITE"`, `"RTP.Packet"`, `"δ"`).
    pub name: Sym,
    /// How the event arrived.
    pub kind: EventKind,
    /// The argument vector `x̄`.
    pub args: Args,
}

// Sizes are facts: an event is built, moved and queued per packet, and most
// of it is the inline argument vector.
const _: () = assert!(std::mem::size_of::<Event>() <= 288);

impl Event {
    /// Creates a data-packet event with no arguments yet.
    pub fn data(name: impl Into<Sym>) -> Self {
        Event {
            name: name.into(),
            kind: EventKind::Data,
            args: Args::default(),
        }
    }

    /// Creates a synchronization (δ) event.
    pub fn sync(name: impl Into<Sym>) -> Self {
        Event {
            name: name.into(),
            kind: EventKind::Sync,
            args: Args::default(),
        }
    }

    /// Creates a timer-expiry event. The name is the timer's name.
    pub fn timer(name: impl Into<Sym>) -> Self {
        Event {
            name: name.into(),
            kind: EventKind::Timer,
            args: Args::default(),
        }
    }

    /// Adds an unsigned-integer argument, builder-style.
    #[must_use]
    pub fn with_uint(mut self, name: impl SymKey, value: u64) -> Self {
        self.args.set(name, value);
        self
    }

    /// Adds a signed-integer argument, builder-style.
    #[must_use]
    pub fn with_int(mut self, name: impl SymKey, value: i64) -> Self {
        self.args.set(name, value);
        self
    }

    /// Adds a string argument, builder-style.
    #[must_use]
    pub fn with_str(mut self, name: impl SymKey, value: impl Into<String>) -> Self {
        self.args.set(name, value.into());
        self
    }

    /// Adds an interned-string argument, builder-style (allocation-free
    /// for warm symbols).
    #[must_use]
    pub fn with_sym(mut self, name: impl SymKey, value: Sym) -> Self {
        self.args.set(name, value);
        self
    }

    /// Adds a boolean argument, builder-style.
    #[must_use]
    pub fn with_bool(mut self, name: impl SymKey, value: bool) -> Self {
        self.args.set(name, value);
        self
    }

    /// Adds an arbitrary argument, builder-style.
    #[must_use]
    pub fn with_arg(mut self, name: impl SymKey, value: impl Into<Value>) -> Self {
        self.args.set(name, value);
        self
    }

    /// Raw argument value shortcut, for actions that copy a value through
    /// without caring about its type.
    pub fn arg(&self, name: impl SymKey) -> Option<&Value> {
        self.args.get(name)
    }

    /// Unsigned-integer argument shortcut.
    pub fn uint_arg(&self, name: impl SymKey) -> Option<u64> {
        self.args.uint(name)
    }

    /// Signed-integer argument shortcut.
    pub fn int_arg(&self, name: impl SymKey) -> Option<i64> {
        self.args.int(name)
    }

    /// String argument shortcut.
    pub fn str_arg(&self, name: impl SymKey) -> Option<&str> {
        self.args.str(name)
    }

    /// Interned-symbol argument shortcut.
    pub fn sym_arg(&self, name: impl SymKey) -> Option<Sym> {
        self.args.sym(name)
    }

    /// Boolean argument shortcut (false when absent).
    pub fn bool_arg(&self, name: impl SymKey) -> bool {
        self.args.flag(name)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}?{}(", self.kind, self.name)?;
        let mut first = true;
        for (k, v) in self.args.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_accessors() {
        let ev = Event::data("SIP.INVITE")
            .with_str("src_ip", "10.0.0.3")
            .with_uint("src_port", 5060)
            .with_bool("has_sdp", true)
            .with_int("delta", -1);
        assert_eq!(ev.kind, EventKind::Data);
        assert_eq!(ev.name, "SIP.INVITE");
        assert_eq!(ev.str_arg("src_ip"), Some("10.0.0.3"));
        assert_eq!(ev.uint_arg("src_port"), Some(5060));
        assert!(ev.bool_arg("has_sdp"));
        assert_eq!(ev.int_arg("delta"), Some(-1));
        assert_eq!(ev.uint_arg("missing"), None);
    }

    #[test]
    fn kinds() {
        assert_eq!(Event::sync("δ_SIP→RTP").kind, EventKind::Sync);
        assert_eq!(Event::timer("T1").kind, EventKind::Timer);
    }

    #[test]
    fn display_is_csp_like() {
        let ev = Event::data("go").with_uint("n", 1);
        assert_eq!(ev.to_string(), "data?go(n=1)");
    }

    #[test]
    fn sym_args_read_back_as_strings() {
        let id = Sym::intern("event-test-call-1");
        let ev = Event::data(crate::intern::sym::SIP_BYE).with_sym("call_id", id);
        assert_eq!(ev.str_arg("call_id"), Some("event-test-call-1"));
        assert_eq!(ev.sym_arg("call_id"), Some(id));
        assert_eq!(ev.arg("call_id"), Some(&Value::Sym(id)));
    }
}
