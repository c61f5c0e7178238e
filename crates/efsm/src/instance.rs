//! Running EFSM instances: a configuration `(s, v̄)` plus the step function.

use std::fmt;

use crate::event::{Event, EventKind};
use crate::intern::{sym, Sym};
use crate::machine::{ActionCtx, Effects, MachineDef, PredicateCtx, StateId, UnmatchedPolicy};
use crate::vars::Slots;

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

/// A running instance of a [`MachineDef`]: its control state `s`.
///
/// The definition is passed into each call rather than stored, so one
/// definition (built once at startup) serves every concurrent call, and the
/// variables `v̄` live in the frame of the network that runs the instance —
/// together the two keep a monitored call at the paper's few hundred bytes
/// (§7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MachineInstance {
    state: StateId,
}

// Sizes are facts: a call holds one instance per machine.
const _: () = assert!(std::mem::size_of::<MachineInstance>() == 2);

impl MachineInstance {
    /// Creates an instance at the definition's initial state.
    pub fn new(def: &MachineDef) -> Self {
        MachineInstance {
            state: def.initial_state(),
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

    /// Whether the instance sits in a final state.
    pub fn is_final(&self, def: &MachineDef) -> bool {
        def.is_final_state(self.state)
    }

    /// Whether the instance sits in an attack state.
    pub fn is_attack(&self, def: &MachineDef) -> bool {
        def.attack_sym(self.state).is_some()
    }

    /// Feeds one event at monitor time `now_ms`, with `vars` the machine's
    /// view of its network's frame.
    ///
    /// Transition selection: among transitions out of the current state whose
    /// event name matches (exactly, or `"*"`), the first whose predicate
    /// holds is taken. If several hold, [`StepOutcome::nondeterministic`] is
    /// set (the paper requires mutually disjoint predicates; the engine
    /// surfaces violations instead of hiding them).
    pub(crate) fn step_at(
        &mut self,
        def: &MachineDef,
        event: &Event,
        vars: &mut Slots<'_>,
        now_ms: u64,
    ) -> StepOutcome {
        let mut outcome = StepOutcome::default();

        let mut chosen: Option<usize> = None;
        {
            let ctx = PredicateCtx {
                event,
                now_ms,
                vars: vars.read(),
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
                        now_ms,
                        vars: vars.reborrow(),
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
                    outcome.deviation = Some(*event);
                }
            }
        }
        outcome
    }
}

impl fmt::Display for MachineInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state={}", self.state)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::machine::MachineDef;
    use crate::vars::{Frame, Schema, Var};

    /// One machine over a frame of its own, the way a one-machine network
    /// runs it.
    struct Solo {
        def: MachineDef,
        m: MachineInstance,
        frame: Frame<4>,
    }

    impl Solo {
        fn new(def: MachineDef) -> Self {
            Solo {
                m: MachineInstance::new(&def),
                frame: Frame::new(def.globals().len() + def.locals().len()),
                def,
            }
        }

        fn step(&mut self, event: &Event) -> StepOutcome {
            let base = self.def.globals().len();
            self.m
                .step_at(&self.def, event, &mut self.frame.slots(base), 0)
        }
    }

    fn counter_machine(threshold: u64) -> MachineDef {
        // INIT --pkt--> COUNTING --pkt[count<N]--> COUNTING (self loop)
        //                        --pkt[count>=N]--> ATTACK
        let mut def = MachineDef::new("ctr");
        let count: Var<u64> = def.local("count");
        let init = def.add_state("INIT");
        let counting = def.add_state("COUNTING");
        let attack = def.add_state("ATTACK");
        def.mark_attack(attack, "flood");
        def.add_transition(init, "pkt", counting)
            .action(move |ctx| ctx.set(count, 1));
        def.add_transition(counting, "pkt", counting)
            .predicate(move |ctx| ctx.get(count).unwrap_or(0) + 1 < threshold)
            .action(move |ctx| {
                ctx.increment(count);
            });
        def.add_transition(counting, "pkt", attack)
            .predicate(move |ctx| ctx.get(count).unwrap_or(0) + 1 >= threshold);
        def.build().unwrap()
    }

    #[test]
    fn walks_to_attack_state_at_threshold() {
        let mut m = Solo::new(counter_machine(3));
        let ev = Event::data("pkt");

        let o1 = m.step(&ev);
        assert!(o1.transitioned());
        assert!(o1.attack.is_none());
        let o2 = m.step(&ev);
        assert!(o2.attack.is_none());
        let o3 = m.step(&ev);
        assert_eq!(o3.attack.map(Sym::as_str), Some("flood"));
        assert!(m.m.is_attack(&m.def));
        assert_eq!(m.frame.scope(m.def.locals(), 0).uint("count"), Some(2));
    }

    #[test]
    fn predicates_select_among_same_event() {
        let mut m = Solo::new(counter_machine(2));
        let ev = Event::data("pkt");
        m.step(&ev);
        let o = m.step(&ev);
        // Threshold 2: the second packet goes straight to ATTACK, not the
        // self-loop — and only one predicate may hold.
        assert!(!o.nondeterministic);
        assert_eq!(o.attack.map(Sym::as_str), Some("flood"));
    }

    #[test]
    fn unmatched_event_is_deviation_by_default() {
        let mut m = Solo::new(counter_machine(3));
        let o = m.step(&Event::data("unexpected"));
        assert!(!o.transitioned());
        assert_eq!(
            o.deviation.as_ref().map(|e| e.name.as_str()),
            Some("unexpected")
        );
    }

    #[test]
    fn unmatched_timer_is_not_a_deviation() {
        let mut m = Solo::new(counter_machine(3));
        let o = m.step(&Event::timer("T1"));
        assert!(!o.transitioned());
        assert!(o.deviation.is_none());
    }

    #[test]
    fn ignore_policy_suppresses_deviation() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        def.add_transition(a, "x", a);
        def.set_unmatched_policy(UnmatchedPolicy::Ignore);
        let mut m = Solo::new(def.build().unwrap());
        let o = m.step(&Event::data("y"));
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
        let mut m = Solo::new(def.build().unwrap());
        let o = m.step(&Event::data("x"));
        assert!(o.nondeterministic);
        // First transition in definition order wins.
        assert_eq!(m.m.state(), b);
    }

    #[test]
    fn wildcard_event_matches_anything() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        def.add_transition(a, "*", b);
        let mut m = Solo::new(def.build().unwrap());
        assert!(m.step(&Event::data("whatever")).transitioned());
    }

    #[test]
    fn actions_access_globals_and_request_effects() {
        let mut globals = Schema::globals();
        let media_port: Var<u64> = globals.declare("g_media_port");
        let mut def = MachineDef::new("m");
        def.share_globals(&Arc::new(globals));
        let a = def.add_state("A");
        let b = def.add_state("B");
        def.add_transition(a, "go", b).action(move |ctx| {
            ctx.set(media_port, 49170);
            ctx.send_sync("rtp", Event::sync("δ"));
            ctx.set_timer("T", 500);
            ctx.cancel_timer("T1");
        });
        let mut m = Solo::new(def.build().unwrap());
        let o = m.step(&Event::data("go"));
        let globals = m.frame.scope(m.def.globals(), 0);
        assert_eq!(globals.uint("g_media_port"), Some(49170));
        assert_eq!(o.effects.sync_out.len(), 1);
        assert_eq!(o.effects.sync_out[0].0, "rtp");
        assert_eq!(o.effects.timers_set, [(Sym::intern("T"), 500)]);
        assert_eq!(o.effects.timers_cancelled, [Sym::intern("T1")]);
    }
}
