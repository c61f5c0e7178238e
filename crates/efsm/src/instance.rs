//! Running EFSM instances: a configuration `(s, v̄)` plus the step function.

use std::fmt;

use crate::event::{Event, EventKind};
use crate::intern::{sym, Sym};
use crate::machine::{ActionCtx, Effects, MachineDef, PredicateCtx, StateId, UnmatchedPolicy};
use crate::value::VarMap;

/// The result of feeding one event to a machine instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepOutcome {
    /// The transition taken, as `(from, to, label)`. `None` if no transition
    /// accepted the event.
    pub taken: Option<(StateId, StateId, Option<Sym>)>,
    /// Set when the machine entered an attack state: the state's label,
    /// interned when the definition was built.
    pub attack: Option<Sym>,
    /// Set when the event matched no transition and the machine's policy is
    /// [`UnmatchedPolicy::Deviation`]: the offending event, cloned.
    pub deviation: Option<Event>,
    /// More than one transition was enabled (predicates not mutually
    /// disjoint): the machine is not deterministic for this input. The
    /// first transition in definition order was taken.
    pub nondeterministic: bool,
    /// Side effects requested by the update action.
    pub effects: Effects,
}

impl StepOutcome {
    /// Whether a transition fired.
    pub fn transitioned(&self) -> bool {
        self.taken.is_some()
    }
}

/// A running instance of a [`MachineDef`]: current state and local variables.
///
/// The definition is passed into each call rather than stored, so one
/// definition (built once at startup) serves every concurrent call — this is
/// what keeps the paper's per-call memory cost at tens of bytes (§7.3).
#[derive(Debug, Clone)]
pub struct MachineInstance {
    state: StateId,
    locals: VarMap,
    steps: u64,
}

impl MachineInstance {
    /// Creates an instance at the definition's initial state.
    pub fn new(def: &MachineDef) -> Self {
        MachineInstance {
            state: def.initial_state(),
            locals: VarMap::new(),
            steps: 0,
        }
    }

    /// The current control state.
    pub fn state(&self) -> StateId {
        self.state
    }

    /// The current state's name.
    pub fn state_name<'d>(&self, def: &'d MachineDef) -> &'d str {
        def.state_name(self.state)
    }

    /// The machine-local variables.
    pub fn locals(&self) -> &VarMap {
        &self.locals
    }

    /// Mutable access to locals (used by hosts to seed initial context).
    pub fn locals_mut(&mut self) -> &mut VarMap {
        &mut self.locals
    }

    /// Whether the instance sits in a final state.
    pub fn is_final(&self, def: &MachineDef) -> bool {
        def.is_final_state(self.state)
    }

    /// Whether the instance sits in an attack state.
    pub fn is_attack(&self, def: &MachineDef) -> bool {
        def.attack_sym(self.state).is_some()
    }

    /// How many events this instance has processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Heap bytes the instance owns beyond its own `size_of` (its locals'
    /// spill; zero for every shipped machine).
    pub fn heap_bytes(&self) -> usize {
        self.locals.heap_bytes()
    }

    /// Per-instance memory footprint in bytes (configuration `(s, v̄)`
    /// only — the definition is shared). Used for E5.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }

    /// Feeds one event at monitor time 0 with the given globals.
    /// Convenience for single-machine uses; networks call
    /// [`MachineInstance::step_at`].
    pub fn step(&mut self, def: &MachineDef, event: &Event, globals: &mut VarMap) -> StepOutcome {
        self.step_at(def, event, globals, 0)
    }

    /// Feeds one event at monitor time `now_ms`.
    ///
    /// Transition selection: among transitions out of the current state whose
    /// event name matches (exactly, or `"*"`), the first whose predicate
    /// holds is taken. If several hold, [`StepOutcome::nondeterministic`] is
    /// set (the paper requires mutually disjoint predicates; the engine
    /// surfaces violations instead of hiding them).
    pub fn step_at(
        &mut self,
        def: &MachineDef,
        event: &Event,
        globals: &mut VarMap,
        now_ms: u64,
    ) -> StepOutcome {
        self.steps += 1;
        let mut outcome = StepOutcome::default();

        let mut chosen: Option<usize> = None;
        {
            let ctx = PredicateCtx {
                event,
                locals: &self.locals,
                globals,
                now_ms,
            };
            // A machine that declared disjoint predicates stops at the
            // first enabled transition in release builds; otherwise every
            // sibling is evaluated so overlap surfaces as
            // `nondeterministic` (predicates are read-only, so the skipped
            // evaluations have no other observable effect).
            let short_circuit = def.short_circuits();
            for (idx, t) in def.transitions_from(self.state) {
                if t.event_name != sym::WILDCARD && t.event_name != event.name {
                    continue;
                }
                let enabled = match &t.predicate {
                    Some(p) => p(&ctx),
                    None => true,
                };
                if enabled {
                    if chosen.is_none() {
                        chosen = Some(idx);
                        if short_circuit {
                            break;
                        }
                    } else {
                        outcome.nondeterministic = true;
                    }
                }
            }
        }

        match chosen {
            Some(idx) => {
                let t = def.transition(idx);
                if let Some(action) = &t.action {
                    let mut ctx = ActionCtx {
                        event,
                        locals: &mut self.locals,
                        globals,
                        now_ms,
                        effects: &mut outcome.effects,
                    };
                    action(&mut ctx);
                }
                let from = self.state;
                self.state = t.to;
                outcome.taken = Some((from, t.to, t.label));
                outcome.attack = def.attack_sym(t.to);
            }
            None => {
                // Stale timers are never a deviation: a timer armed for a
                // state the machine has since left simply no longer applies.
                if event.kind != EventKind::Timer
                    && def.unmatched_policy() == UnmatchedPolicy::Deviation
                {
                    outcome.deviation = Some(event.clone());
                }
            }
        }
        outcome
    }
}

impl fmt::Display for MachineInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state={} vars={}", self.state, self.locals.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDef;

    fn counter_machine(threshold: u64) -> MachineDef {
        // INIT --pkt--> COUNTING --pkt[count<N]--> COUNTING (self loop)
        //                        --pkt[count>=N]--> ATTACK
        let mut def = MachineDef::new("ctr");
        let init = def.add_state("INIT");
        let counting = def.add_state("COUNTING");
        let attack = def.add_state("ATTACK");
        def.mark_attack(attack, "flood");
        def.add_transition(init, "pkt", counting).action(|ctx| {
            ctx.locals.set("count", 1u64);
        });
        def.add_transition(counting, "pkt", counting)
            .predicate(move |ctx| ctx.locals.uint("count").unwrap_or(0) + 1 < threshold)
            .action(|ctx| {
                ctx.locals.increment("count");
            });
        def.add_transition(counting, "pkt", attack)
            .predicate(move |ctx| ctx.locals.uint("count").unwrap_or(0) + 1 >= threshold);
        def.build().unwrap()
    }

    #[test]
    fn walks_to_attack_state_at_threshold() {
        let def = counter_machine(3);
        let mut m = MachineInstance::new(&def);
        let mut globals = VarMap::new();
        let ev = Event::data("pkt");

        let o1 = m.step(&def, &ev, &mut globals);
        assert!(o1.transitioned());
        assert!(o1.attack.is_none());
        let o2 = m.step(&def, &ev, &mut globals);
        assert!(o2.attack.is_none());
        let o3 = m.step(&def, &ev, &mut globals);
        assert_eq!(o3.attack.map(Sym::as_str), Some("flood"));
        assert!(m.is_attack(&def));
        assert_eq!(m.steps(), 3);
    }

    #[test]
    fn predicates_select_among_same_event() {
        let def = counter_machine(2);
        let mut m = MachineInstance::new(&def);
        let mut globals = VarMap::new();
        let ev = Event::data("pkt");
        m.step(&def, &ev, &mut globals);
        let o = m.step(&def, &ev, &mut globals);
        // Threshold 2: the second packet goes straight to ATTACK, not the
        // self-loop — and only one predicate may hold.
        assert!(!o.nondeterministic);
        assert_eq!(o.attack.map(Sym::as_str), Some("flood"));
    }

    #[test]
    fn unmatched_event_is_deviation_by_default() {
        let def = counter_machine(3);
        let mut m = MachineInstance::new(&def);
        let mut globals = VarMap::new();
        let o = m.step(&def, &Event::data("unexpected"), &mut globals);
        assert!(!o.transitioned());
        assert_eq!(
            o.deviation.as_ref().map(|e| e.name.as_str()),
            Some("unexpected")
        );
    }

    #[test]
    fn unmatched_timer_is_not_a_deviation() {
        let def = counter_machine(3);
        let mut m = MachineInstance::new(&def);
        let mut globals = VarMap::new();
        let o = m.step(&def, &Event::timer("T1"), &mut globals);
        assert!(!o.transitioned());
        assert!(o.deviation.is_none());
    }

    #[test]
    fn ignore_policy_suppresses_deviation() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        def.add_transition(a, "x", a);
        def.set_unmatched_policy(UnmatchedPolicy::Ignore);
        let def = def.build().unwrap();
        let mut m = MachineInstance::new(&def);
        let o = m.step(&def, &Event::data("y"), &mut VarMap::new());
        assert!(o.deviation.is_none());
    }

    #[test]
    fn nondeterminism_is_reported() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        let c = def.add_state("C");
        def.add_transition(a, "x", b); // no predicate = true
        def.add_transition(a, "x", c); // also true -> overlap
        let def = def.build().unwrap();
        let mut m = MachineInstance::new(&def);
        let o = m.step(&def, &Event::data("x"), &mut VarMap::new());
        assert!(o.nondeterministic);
        // First transition in definition order wins.
        assert_eq!(m.state(), b);
    }

    #[test]
    fn wildcard_event_matches_anything() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        def.add_transition(a, "*", b);
        let def = def.build().unwrap();
        let mut m = MachineInstance::new(&def);
        assert!(m
            .step(&def, &Event::data("whatever"), &mut VarMap::new())
            .transitioned());
    }

    #[test]
    fn actions_access_globals_and_request_effects() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        def.add_transition(a, "go", b).action(|ctx| {
            ctx.globals.set("g_media_port", 49170u64);
            ctx.send_sync("rtp", Event::sync("δ"));
            ctx.set_timer("T", 500);
            ctx.cancel_timer("T1");
        });
        let def = def.build().unwrap();
        let mut m = MachineInstance::new(&def);
        let mut globals = VarMap::new();
        let o = m.step(&def, &Event::data("go"), &mut globals);
        assert_eq!(globals.uint("g_media_port"), Some(49170));
        assert_eq!(o.effects.sync_out.len(), 1);
        assert_eq!(o.effects.sync_out[0].0, "rtp");
        assert_eq!(o.effects.timers_set, [(Sym::intern("T"), 500)]);
        assert_eq!(o.effects.timers_cancelled, [Sym::intern("T1")]);
    }

    #[test]
    fn memory_footprint_ignores_variable_values() {
        let def = counter_machine(5);
        let mut m = MachineInstance::new(&def);
        let empty = m.memory_bytes();
        // A value sits in the inline slot the instance already paid for,
        // and text is interned whether it arrives as `&str` or `String`:
        // no value adds heap bytes.
        m.locals_mut().set("l_seen", "interned-text");
        assert_eq!(m.memory_bytes(), empty);
        m.locals_mut()
            .set("g_call_id", "a-long-call-identifier@example.com".to_owned());
        assert_eq!(m.memory_bytes(), empty);
        assert_eq!(m.heap_bytes(), 0);
    }
}
