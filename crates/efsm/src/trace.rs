//! Execution traces: a replayable record of every transition a network of
//! communicating EFSMs takes, kept by a [`TransitionObserver`] the caller
//! owns and passes to each delivery. Used by tests to check the paths
//! machines walk ("the paths along the transitions from s_i to s_attack
//! constitute attack patterns", §4.2).

use std::fmt;

use crate::intern::Sym;
use crate::network::TransitionObserver;

/// One recorded step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Monitor time in milliseconds.
    pub time_ms: u64,
    /// Machine that stepped.
    pub machine: String,
    /// The name of the event that triggered the step.
    pub event: String,
    /// State name before the transition.
    pub from: String,
    /// State name after the transition.
    pub to: String,
    /// Transition label, if the definition provided one.
    pub label: Option<String>,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8} ms] {:<12} {} : ({}) -> ({})",
            self.time_ms, self.machine, self.event, self.from, self.to
        )?;
        if let Some(label) = &self.label {
            write!(f, "  # {label}")?;
        }
        Ok(())
    }
}

/// An append-only transition log. Pass it to
/// [`crate::network::Network::deliver_observed`] and
/// [`crate::network::Network::advance_time_observed`] to record what they
/// step; it renders strings, so it is a debugging aid, not a hot-path one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl TransitionObserver for Trace {
    fn on_transition(
        &mut self,
        time_ms: u64,
        machine: Sym,
        event: Sym,
        from: Sym,
        to: Sym,
        label: Option<Sym>,
    ) {
        self.push(TraceEntry {
            time_ms,
            machine: machine.as_str().to_owned(),
            event: event.as_str().to_owned(),
            from: from.as_str().to_owned(),
            to: to.as_str().to_owned(),
            label: label.map(|l| l.as_str().to_owned()),
        });
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// The last entry, if any.
    pub fn last(&self) -> Option<&TraceEntry> {
        self.entries.last()
    }

    /// The entries for one machine.
    pub fn for_machine<'a>(&'a self, machine: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.machine == machine)
    }

    /// The sequence of state names one machine walked through, starting from
    /// its first recorded transition's `from` state.
    pub fn path_of(&self, machine: &str) -> Vec<String> {
        let mut path = Vec::new();
        for e in self.for_machine(machine) {
            if path.is_empty() {
                path.push(e.from.clone());
            }
            path.push(e.to.clone());
        }
        path
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(machine: &str, from: &str, to: &str) -> TraceEntry {
        TraceEntry {
            time_ms: 0,
            machine: machine.to_owned(),
            event: "e".to_owned(),
            from: from.to_owned(),
            to: to.to_owned(),
            label: None,
        }
    }

    #[test]
    fn records_paths_per_machine() {
        let mut t = Trace::new();
        t.push(entry("sip", "INIT", "INVITE_RCVD"));
        t.push(entry("rtp", "INIT", "RTP_OPEN"));
        t.push(entry("sip", "INVITE_RCVD", "CALL_ESTABLISHED"));
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.path_of("sip"),
            vec!["INIT", "INVITE_RCVD", "CALL_ESTABLISHED"]
        );
        assert_eq!(t.path_of("rtp"), vec!["INIT", "RTP_OPEN"]);
        assert!(t.path_of("nonexistent").is_empty());
    }

    #[test]
    fn display_includes_label() {
        let mut e = entry("m", "A", "B");
        e.label = Some("hello".to_owned());
        assert!(e.to_string().contains("# hello"));
    }
}
