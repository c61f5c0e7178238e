//! EFSM definitions: states, transitions, predicates and update actions.

use std::fmt;
use std::sync::Arc;

use crate::event::Event;
use crate::intern::Sym;
use crate::value::InlineVec;
use crate::vars::{Schema, Slots, SlotsRef, Var, VarType, MAX_VARS, NO_VARS};

/// Index of a state within its [`MachineDef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StateId(pub(crate) u16);

impl StateId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Read-only context handed to transition predicates `P_t(x̄ ∪ v̄)`.
#[derive(Debug)]
pub struct PredicateCtx<'a> {
    /// The input event and its argument vector `x̄`.
    pub event: &'a Event,
    /// Monitor wall-clock time in milliseconds.
    pub now_ms: u64,
    pub(crate) vars: SlotsRef<'a>,
}

impl PredicateCtx<'_> {
    /// A state variable — one of the machine's locals (`v.l_…`) or a global
    /// it shares with co-operating machines (`v.g_…`); `None` while absent.
    pub fn get<T: VarType>(&self, var: Var<T>) -> Option<T> {
        self.vars.get(var)
    }
}

/// Side effects an update action can request besides mutating variables.
///
/// Stored inline ([`InlineVec`]): a transition that requests no effects —
/// the steady-state case — costs zero allocations, and the common one- or
/// two-effect actions stay on the stack too.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Effects {
    /// Synchronization events to enqueue, by target machine name.
    pub sync_out: InlineVec<(Sym, Event), 2>,
    /// Timers to (re)arm: `(timer name, delay from now in ms)`.
    pub timers_set: InlineVec<(Sym, u64), 2>,
    /// Timers to cancel.
    pub timers_cancelled: InlineVec<Sym, 2>,
}

/// Mutable context handed to update actions `A_t(v̄)`.
#[derive(Debug)]
pub struct ActionCtx<'a> {
    /// The input event and its argument vector `x̄`.
    pub event: &'a Event,
    /// Monitor wall-clock time in milliseconds.
    pub now_ms: u64,
    pub(crate) vars: Slots<'a>,
    pub(crate) effects: &'a mut Effects,
}

impl ActionCtx<'_> {
    /// A state variable, as [`PredicateCtx::get`].
    pub fn get<T: VarType>(&self, var: Var<T>) -> Option<T> {
        self.vars.read().get(var)
    }

    /// Sets a state variable.
    pub fn set<T: VarType>(&mut self, var: Var<T>, value: T) {
        self.vars.set(var, value);
    }

    /// Makes a state variable absent again, returning what it held.
    pub fn remove<T: VarType>(&mut self, var: Var<T>) -> Option<T> {
        self.vars.remove(var)
    }

    /// Increments a counter by 1 — from 0 when absent — and returns the
    /// new value. The paper's `pck_counter`.
    pub fn increment(&mut self, var: Var<u64>) -> u64 {
        let next = self.get(var).unwrap_or(0) + 1;
        self.set(var, next);
        next
    }

    /// Emits a synchronization message `c!δ(x̄)` to the named co-operating
    /// machine. Delivery goes through the network's FIFO queue.
    pub fn send_sync(&mut self, target_machine: impl Into<Sym>, event: Event) {
        self.effects.sync_out.push((target_machine.into(), event));
    }

    /// Arms (or re-arms) a named timer to fire `delay_ms` from now. Expiry is
    /// delivered back as an [`Event::timer`] carrying the timer's name.
    pub fn set_timer(&mut self, name: impl Into<Sym>, delay_ms: u64) {
        self.effects.timers_set.push((name.into(), delay_ms));
    }

    /// Cancels a named timer if armed.
    pub fn cancel_timer(&mut self, name: impl Into<Sym>) {
        self.effects.timers_cancelled.push(name.into());
    }
}

type Predicate = Arc<dyn Fn(&PredicateCtx<'_>) -> bool + Send + Sync>;
type Action = Arc<dyn Fn(&mut ActionCtx<'_>) + Send + Sync>;

/// One transition `<s_t, event, P_t, A_t, q_t>`.
pub(crate) struct Transition {
    pub(crate) from: StateId,
    pub(crate) event_name: Sym,
    pub(crate) to: StateId,
    pub(crate) predicate: Option<Predicate>,
    pub(crate) action: Option<Action>,
    pub(crate) label: Option<Sym>,
}

impl fmt::Debug for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transition")
            .field("from", &self.from)
            .field("event", &self.event_name)
            .field("to", &self.to)
            .field("has_predicate", &self.predicate.is_some())
            .field("has_action", &self.action.is_some())
            .field("label", &self.label)
            .finish()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct StateInfo {
    pub(crate) name: String,
    pub(crate) is_final: bool,
    /// Interned when the state is marked, so entering it hands the label
    /// on as a handle instead of copying text.
    pub(crate) attack_label: Option<Sym>,
}

/// What the machine does with an event no transition accepts.
///
/// The paper treats a deviation from the specification machine as a
/// suspicious anomaly; retransmission-tolerant machines may instead declare
/// specific self-loops and keep the strict default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnmatchedPolicy {
    /// Report a specification deviation (default — anomaly detection).
    #[default]
    Deviation,
    /// Silently ignore unmatched events.
    Ignore,
}

/// A complete, validated EFSM definition. Build one with [`MachineDef::new`],
/// [`MachineDef::add_state`], [`MachineDef::add_transition`] and
/// [`MachineDef::build`]; run it with [`crate::instance::MachineInstance`].
pub struct MachineDef {
    name: Sym,
    /// The machine's local variables, in slot order.
    locals: Schema,
    /// The globals it shares with the other machines of its network.
    globals: Option<Arc<Schema>>,
    /// The schemas of the event arguments its transitions read.
    reads: Vec<&'static Schema>,
    states: Vec<StateInfo>,
    /// Interned state names, populated by [`MachineDef::build`] so the
    /// observer hook can report transitions without allocating.
    state_syms: Vec<Sym>,
    transitions: Vec<Transition>,
    /// Per-state index into `transitions`, maintained as transitions are
    /// added: the step function reads only a state's own out-edges instead
    /// of scanning the whole transition list per event.
    outgoing: Vec<Vec<u32>>,
    initial: StateId,
    unmatched_policy: UnmatchedPolicy,
    declared_deterministic: bool,
    built: bool,
}

impl fmt::Debug for MachineDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachineDef")
            .field("name", &self.name)
            .field("states", &self.states.len())
            .field("transitions", &self.transitions.len())
            .field("initial", &self.initial)
            .finish()
    }
}

/// Chainable configuration for a transition just added to a [`MachineDef`].
pub struct TransitionBuilder<'a> {
    transition: &'a mut Transition,
}

impl TransitionBuilder<'_> {
    /// Sets the predicate `P_t`. Absent predicate means `true`.
    pub fn predicate(
        &mut self,
        p: impl Fn(&PredicateCtx<'_>) -> bool + Send + Sync + 'static,
    ) -> &mut Self {
        self.transition.predicate = Some(Arc::new(p));
        self
    }

    /// Sets the update action `A_t`. Absent action leaves variables untouched.
    pub fn action(&mut self, a: impl Fn(&mut ActionCtx<'_>) + Send + Sync + 'static) -> &mut Self {
        self.transition.action = Some(Arc::new(a));
        self
    }

    /// Attaches a human-readable label used in traces and alerts.
    pub fn label(&mut self, label: impl Into<Sym>) -> &mut Self {
        self.transition.label = Some(label.into());
        self
    }
}

impl MachineDef {
    /// Starts an empty definition. The first state added becomes the initial
    /// state.
    pub fn new(name: impl Into<Sym>) -> Self {
        MachineDef {
            name: name.into(),
            locals: Schema::locals(),
            globals: None,
            reads: Vec::new(),
            states: Vec::new(),
            state_syms: Vec::new(),
            transitions: Vec::new(),
            outgoing: Vec::new(),
            initial: StateId(0),
            unmatched_policy: UnmatchedPolicy::default(),
            declared_deterministic: false,
            built: false,
        }
    }

    /// The machine's name (used as the sync-channel address).
    pub fn name(&self) -> &'static str {
        self.name.as_str()
    }

    /// The machine's name as an interned symbol (allocation-free routing).
    pub fn name_sym(&self) -> Sym {
        self.name
    }

    /// Declares a machine-local variable (`v.l_…`) of type `T` and returns
    /// its handle. Every instance of the machine keeps one slot for it;
    /// predicates and actions read and write it through the handle.
    pub fn local<T: VarType>(&mut self, name: impl Into<Sym>) -> Var<T> {
        self.locals.declare(name)
    }

    /// Shares a schema of globals (`v.g_…`) with this machine: its
    /// predicates and actions reach them through the schema's handles, and
    /// every machine of one network must share the same schema.
    pub fn share_globals(&mut self, globals: &Arc<Schema>) {
        self.globals = Some(Arc::clone(globals));
    }

    /// Declares that the machine's predicates and actions read the event
    /// arguments `args` declares, so that [`MachineDef::build`] checks them
    /// against its variables.
    pub fn reads(&mut self, args: &'static Schema) {
        self.reads.push(args);
    }

    /// The machine's local variables.
    pub fn locals(&self) -> &Schema {
        &self.locals
    }

    /// The globals the machine shares (empty when it shares none).
    pub fn globals(&self) -> &Schema {
        self.globals.as_deref().unwrap_or(&NO_VARS)
    }

    pub(crate) fn shared_globals(&self) -> Option<&Arc<Schema>> {
        self.globals.as_ref()
    }

    /// Adds a state and returns its id.
    ///
    /// # Panics
    ///
    /// Past 65 536 states.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        let id = u16::try_from(self.states.len()).expect("a machine has at most 65 536 states");
        self.states.push(StateInfo {
            name: name.into(),
            is_final: false,
            attack_label: None,
        });
        self.outgoing.push(Vec::new());
        StateId(id)
    }

    /// Marks a state as final: a call whose machines all sit in final states
    /// is complete and its instance is evicted from the fact base.
    pub fn mark_final(&mut self, state: StateId) {
        self.states[state.index()].is_final = true;
    }

    /// Annotates a state as an attack state (`s_attack`): entering it raises
    /// an alert carrying `label`.
    pub fn mark_attack(&mut self, state: StateId, label: impl Into<Sym>) {
        self.states[state.index()].attack_label = Some(label.into());
    }

    /// Sets the policy for events no transition accepts.
    pub fn set_unmatched_policy(&mut self, policy: UnmatchedPolicy) {
        self.unmatched_policy = policy;
    }

    /// Declares that this machine's predicates are mutually disjoint
    /// (Definition 1's determinism requirement), letting release builds
    /// stop predicate evaluation at the first enabled transition instead
    /// of evaluating every sibling to detect overlap.
    ///
    /// The declaration is an assertion, not a proof: debug builds keep the
    /// exhaustive scan and still set
    /// [`crate::instance::StepOutcome::nondeterministic`] on a violation,
    /// so test suites and fuzz harnesses (which run unoptimized) catch a
    /// machine whose declaration is wrong before a release binary silently
    /// takes first-in-definition-order.
    pub fn declare_deterministic(&mut self) {
        self.declared_deterministic = true;
    }

    /// Whether the step function may stop at the first enabled transition
    /// in this build: the builder declared disjoint predicates and this is
    /// a release build (debug builds always verify the declaration).
    pub(crate) fn short_circuits(&self) -> bool {
        self.declared_deterministic && !cfg!(debug_assertions)
    }

    /// Adds a transition on `event_name` from `from` to `to`, returning a
    /// builder for its predicate/action/label. `event_name` `"*"` matches
    /// any event.
    pub fn add_transition(
        &mut self,
        from: StateId,
        event_name: impl Into<Sym>,
        to: StateId,
    ) -> TransitionBuilder<'_> {
        self.transitions.push(Transition {
            from,
            event_name: event_name.into(),
            to,
            predicate: None,
            action: None,
            label: None,
        });
        // A `from` belonging to another machine has no slot here; leave it
        // unindexed so `build` can reject it as a dangling transition.
        if let Some(out) = self.outgoing.get_mut(from.index()) {
            out.push((self.transitions.len() - 1) as u32);
        }
        TransitionBuilder {
            transition: self.transitions.last_mut().unwrap(),
        }
    }

    /// Validates the definition.
    ///
    /// # Errors
    ///
    /// * [`BuildError::NoStates`] — a machine needs at least one state.
    /// * [`BuildError::DanglingTransition`] — a transition references a
    ///   state id from another machine (impossible through the safe API but
    ///   checked for defense in depth).
    /// * [`BuildError::DuplicateVariable`] — a local or a global declared
    ///   twice.
    /// * [`BuildError::ShadowedGlobal`] — a local named like a global.
    /// * [`BuildError::TooManyVariables`] — more than [`MAX_VARS`] locals
    ///   and globals together.
    /// * [`BuildError::DuplicateArgument`] — an event argument the machine
    ///   reads declared twice.
    /// * [`BuildError::ShadowedVariable`] — an event argument the machine
    ///   reads named like one of its locals or globals.
    pub fn build(mut self) -> Result<MachineDef, BuildError> {
        if self.states.is_empty() {
            return Err(BuildError::NoStates);
        }
        for (i, t) in self.transitions.iter().enumerate() {
            if t.from.index() >= self.states.len() || t.to.index() >= self.states.len() {
                return Err(BuildError::DanglingTransition { index: i });
            }
        }
        let globals = self.globals();
        if let Some(name) = self.locals.duplicate().or_else(|| globals.duplicate()) {
            return Err(BuildError::DuplicateVariable(name));
        }
        if let Some((name, _)) = self.locals.iter().find(|&(name, _)| globals.contains(name)) {
            return Err(BuildError::ShadowedGlobal(name));
        }
        if self.locals.len() + globals.len() > MAX_VARS {
            return Err(BuildError::TooManyVariables);
        }
        for args in &self.reads {
            if let Some(name) = args.duplicate() {
                return Err(BuildError::DuplicateArgument(name));
            }
            if let Some((name, _)) = args
                .iter()
                .find(|&(name, _)| self.locals.contains(name) || globals.contains(name))
            {
                return Err(BuildError::ShadowedVariable(name));
            }
        }
        self.state_syms = self.states.iter().map(|s| Sym::intern(&s.name)).collect();
        self.built = true;
        Ok(self)
    }

    /// The initial state.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// The number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Every state, in the order they were added.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u16).map(StateId)
    }

    /// The number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The name of a state.
    pub fn state_name(&self, state: StateId) -> &str {
        &self.states[state.index()].name
    }

    /// The name of a state as an interned symbol (allocation-free after
    /// [`MachineDef::build`]; interns lazily on an unbuilt definition).
    pub fn state_sym(&self, state: StateId) -> Sym {
        self.state_syms
            .get(state.index())
            .copied()
            .unwrap_or_else(|| Sym::intern(&self.states[state.index()].name))
    }

    /// Whether the state is final.
    pub fn is_final_state(&self, state: StateId) -> bool {
        self.states[state.index()].is_final
    }

    /// The attack label of a state, if it is an attack state.
    pub fn attack_label(&self, state: StateId) -> Option<&'static str> {
        self.attack_sym(state).map(Sym::as_str)
    }

    /// The attack label of a state as an interned symbol.
    pub fn attack_sym(&self, state: StateId) -> Option<Sym> {
        self.states[state.index()].attack_label
    }

    /// Looks up a state id by name (test and tooling convenience).
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(|i| StateId(i as u16))
    }

    pub(crate) fn unmatched_policy(&self) -> UnmatchedPolicy {
        self.unmatched_policy
    }

    pub(crate) fn transitions_from(
        &self,
        state: StateId,
    ) -> impl Iterator<Item = (usize, &Transition)> + '_ {
        self.outgoing
            .get(state.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(move |&i| (i as usize, &self.transitions[i as usize]))
    }

    pub(crate) fn transition(&self, index: usize) -> &Transition {
        &self.transitions[index]
    }
}

/// Error returned by [`MachineDef::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The machine has no states.
    NoStates,
    /// A transition references an out-of-range state.
    DanglingTransition {
        /// Index of the offending transition.
        index: usize,
    },
    /// A variable is declared twice.
    DuplicateVariable(Sym),
    /// A local variable has the name of a global the machine shares.
    ShadowedGlobal(Sym),
    /// More locals and globals than one frame holds ([`MAX_VARS`]).
    TooManyVariables,
    /// An event argument is declared twice.
    DuplicateArgument(Sym),
    /// An event argument has the name of a local or a global.
    ShadowedVariable(Sym),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoStates => f.write_str("machine has no states"),
            BuildError::DanglingTransition { index } => {
                write!(f, "transition {index} references an unknown state")
            }
            BuildError::DuplicateVariable(name) => write!(f, "variable {name} declared twice"),
            BuildError::ShadowedGlobal(name) => write!(f, "local {name} shadows a global"),
            BuildError::TooManyVariables => {
                write!(f, "more than {MAX_VARS} locals and globals")
            }
            BuildError::DuplicateArgument(name) => write!(f, "argument {name} declared twice"),
            BuildError::ShadowedVariable(name) => {
                write!(f, "argument {name} shadows a variable")
            }
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_machine() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        def.mark_final(b);
        def.add_transition(a, "go", b).label("a->b");
        let def = def.build().unwrap();
        assert_eq!(def.state_count(), 2);
        assert_eq!(def.transition_count(), 1);
        assert_eq!(def.initial_state(), a);
        assert!(def.is_final_state(b));
        assert!(!def.is_final_state(a));
        assert_eq!(def.state_name(a), "A");
        assert_eq!(def.state_by_name("B"), Some(b));
        assert_eq!(def.state_by_name("C"), None);
    }

    #[test]
    fn attack_states_carry_labels() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let atk = def.add_state("Attack");
        def.mark_attack(atk, "INVITE flooding");
        def.add_transition(a, "flood", atk);
        let def = def.build().unwrap();
        assert_eq!(def.attack_label(atk), Some("INVITE flooding"));
        assert_eq!(def.attack_label(a), None);
    }

    #[test]
    fn build_rejects_duplicate_and_shadowing_variables() {
        let mut def = MachineDef::new("m");
        def.add_state("A");
        let _: Var<u64> = def.local("l_twice");
        let _: Var<bool> = def.local("l_twice");
        assert_eq!(
            def.build().unwrap_err(),
            BuildError::DuplicateVariable(Sym::intern("l_twice"))
        );

        let mut globals = Schema::globals();
        let _: Var<u64> = globals.declare("g_shared");
        let globals = Arc::new(globals);
        let mut def = MachineDef::new("m");
        def.add_state("A");
        def.share_globals(&globals);
        let _: Var<u64> = def.local("g_shared");
        assert_eq!(
            def.build().unwrap_err(),
            BuildError::ShadowedGlobal(Sym::intern("g_shared"))
        );

        let mut def = MachineDef::new("m");
        def.add_state("A");
        def.share_globals(&globals);
        let _: Var<u64> = def.local("l_own");
        let def = def.build().unwrap();
        assert_eq!(def.locals().len(), 1);
        assert_eq!(def.globals().len(), 1);
    }

    /// A schema of arguments for one test, kept for the process.
    fn leaked(args: Schema) -> &'static Schema {
        Box::leak(Box::new(args))
    }

    #[test]
    fn build_rejects_an_argument_declared_twice() {
        let mut args = Schema::args();
        let _: crate::vars::Arg<u64> = args.arg("mt_twice");
        let _: crate::vars::Arg<bool> = args.arg("mt_twice");
        let mut def = MachineDef::new("m");
        def.add_state("A");
        def.reads(leaked(args));
        assert_eq!(
            def.build().unwrap_err(),
            BuildError::DuplicateArgument(Sym::intern("mt_twice"))
        );
    }

    #[test]
    fn build_rejects_an_argument_shadowing_a_variable() {
        let mut globals = Schema::globals();
        let _: Var<u64> = globals.declare("mt_global");
        let globals = Arc::new(globals);
        for name in ["mt_local", "mt_global"] {
            let mut args = Schema::args();
            let _: crate::vars::Arg<u64> = args.arg(name);
            let args = leaked(args);
            let mut def = MachineDef::new("m");
            def.add_state("A");
            def.share_globals(&globals);
            let _: Var<u64> = def.local("mt_local");
            def.reads(args);
            assert_eq!(
                def.build().unwrap_err(),
                BuildError::ShadowedVariable(Sym::intern(name)),
                "{name}"
            );
        }

        let mut args = Schema::args();
        let _: crate::vars::Arg<u64> = args.arg("mt_arg");
        let mut def = MachineDef::new("m");
        def.add_state("A");
        def.share_globals(&globals);
        let _: Var<u64> = def.local("mt_local");
        def.reads(leaked(args));
        assert!(def.build().is_ok());
    }

    #[test]
    fn empty_machine_fails_build() {
        assert_eq!(
            MachineDef::new("m").build().unwrap_err(),
            BuildError::NoStates
        );
    }
}
