//! Static analysis over machine definitions.
//!
//! §4.2: "We are interested in the configurations that are reachable from
//! the initial or intermediate configuration to the attack configuration
//! through zero or more intermediate states. The paths along the
//! transitions from s_i to s_attack constitute attack patterns."
//!
//! [`attack_paths`] enumerates exactly those paths over the control-flow
//! graph (predicates are data-dependent and not unrolled — each edge is the
//! event name plus its transition label). [`reachable_states`] and
//! [`unreachable_states`] support definition lint checks in tests.

use std::collections::{BTreeSet, VecDeque};

use crate::machine::{MachineDef, StateId};
use crate::vars::Schema;

/// One hop of an attack pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// State the step leaves.
    pub from: String,
    /// Event that triggers the transition.
    pub event: String,
    /// The transition's label, if the definition provided one.
    pub label: Option<String>,
    /// State the step enters.
    pub to: String,
}

impl std::fmt::Display for PathStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}) --{}--> ({})", self.from, self.event, self.to)?;
        if let Some(label) = &self.label {
            write!(f, "  [{label}]")?;
        }
        Ok(())
    }
}

/// An attack pattern: the label of the attack state reached plus the
/// simple path (no repeated states) leading there from the initial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackPath {
    /// The attack state's annotation.
    pub attack_label: String,
    /// The steps from the initial state to the attack state.
    pub steps: Vec<PathStep>,
}

impl std::fmt::Display for AttackPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "attack pattern: {}", self.attack_label)?;
        for s in &self.steps {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// Enumerates every simple path from the initial state to each attack
/// state. Self-loops are excluded (they extend but never form patterns).
///
/// The result is bounded: simple paths over a finite state set. Machines in
/// this codebase have ≲ a dozen states, so exhaustive enumeration is cheap.
pub fn attack_paths(def: &MachineDef) -> Vec<AttackPath> {
    let mut out = Vec::new();
    let start = def.initial_state();
    // Depth-first enumeration of simple paths.
    let mut stack: Vec<(StateId, Vec<PathStep>, BTreeSet<StateId>)> =
        vec![(start, Vec::new(), BTreeSet::from([start]))];
    while let Some((state, path, visited)) = stack.pop() {
        for (_, t) in def.transitions_from(state) {
            if t.to == state || visited.contains(&t.to) {
                continue;
            }
            let mut steps = path.clone();
            steps.push(PathStep {
                from: def.state_name(state).to_owned(),
                event: t.event_name.as_str().to_owned(),
                label: t.label.map(String::from),
                to: def.state_name(t.to).to_owned(),
            });
            if let Some(label) = def.attack_label(t.to) {
                out.push(AttackPath {
                    attack_label: label.to_owned(),
                    steps: steps.clone(),
                });
                // Attack states absorb; don't extend past them.
                continue;
            }
            let mut v = visited.clone();
            v.insert(t.to);
            stack.push((t.to, steps, v));
        }
    }
    out.sort_by(|a, b| (&a.attack_label, a.steps.len()).cmp(&(&b.attack_label, b.steps.len())));
    out
}

/// States reachable from the initial state over any transitions.
pub fn reachable_states(def: &MachineDef) -> BTreeSet<StateId> {
    let mut seen = BTreeSet::from([def.initial_state()]);
    let mut queue = VecDeque::from([def.initial_state()]);
    while let Some(s) = queue.pop_front() {
        for (_, t) in def.transitions_from(s) {
            if seen.insert(t.to) {
                queue.push_back(t.to);
            }
        }
    }
    seen
}

/// States that no path from the initial state can reach — dead weight in a
/// specification machine, surfaced by lint tests.
pub fn unreachable_states(def: &MachineDef) -> Vec<String> {
    let reachable = reachable_states(def);
    def.states()
        .filter(|s| !reachable.contains(s))
        .map(|s| def.state_name(s).to_owned())
        .collect()
}

/// Renders the machine as a Graphviz DOT digraph: the initial state gets a
/// double border, final states grey fill, attack states red fill, and
/// transitions carry their event name (plus label when present). The
/// variable vector `v̄` — every declared local and shared global with its
/// type — is the graph's label.
pub fn to_dot(def: &MachineDef) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph \"{}\" {{\n", def.name()));
    out.push_str("  rankdir=LR;\n  node [shape=box, style=rounded];\n");
    let vars = |schema: &Schema| {
        let decls: Vec<String> = schema
            .iter()
            .map(|(name, kind)| format!("{name}: {kind}"))
            .collect();
        decls.join(", ")
    };
    if !def.locals().is_empty() || !def.globals().is_empty() {
        out.push_str(&format!(
            "  label=\"locals ({}) globals ({})\";\n",
            vars(def.locals()),
            vars(def.globals())
        ));
    }
    for s in def.states() {
        let name = def.state_name(s);
        let mut attrs = Vec::new();
        if s == def.initial_state() {
            attrs.push("peripheries=2".to_owned());
        }
        if def.is_final_state(s) {
            attrs.push("style=\"rounded,filled\"".to_owned());
            attrs.push("fillcolor=lightgrey".to_owned());
        }
        if let Some(label) = def.attack_label(s) {
            attrs.push("style=\"rounded,filled\"".to_owned());
            attrs.push("fillcolor=salmon".to_owned());
            attrs.push(format!("tooltip=\"{label}\""));
        }
        out.push_str(&format!("  \"{name}\" [{}];\n", attrs.join(", ")));
    }
    for s in def.states() {
        for (_, t) in def.transitions_from(s) {
            let mut label = t.event_name.as_str().to_owned();
            if let Some(l) = t.label {
                label.push_str("\\n");
                label.push_str(l.as_str());
            }
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                def.state_name(s),
                def.state_name(t.to),
                label.replace('"', "\\\"")
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDef;

    /// INIT -a-> MID -b-> ATTACK, with a self-loop on MID and a dead state.
    fn sample() -> MachineDef {
        let mut def = MachineDef::new("m");
        let init = def.add_state("INIT");
        let mid = def.add_state("MID");
        let attack = def.add_state("ATTACK");
        let _dead = def.add_state("DEAD");
        def.mark_attack(attack, "boom");
        def.add_transition(init, "a", mid).label("enter");
        def.add_transition(mid, "tick", mid); // self-loop, excluded
        def.add_transition(mid, "b", attack).label("strike");
        def.build().unwrap()
    }

    #[test]
    fn enumerates_attack_paths() {
        let def = sample();
        let paths = attack_paths(&def);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.attack_label, "boom");
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].event, "a");
        assert_eq!(p.steps[1].event, "b");
        assert_eq!(p.steps[1].label.as_deref(), Some("strike"));
        let rendered = p.to_string();
        assert!(rendered.contains("(MID) --b--> (ATTACK)"));
    }

    #[test]
    fn multiple_paths_to_one_attack_state() {
        let mut def = MachineDef::new("m");
        let init = def.add_state("I");
        let x = def.add_state("X");
        let atk = def.add_state("A");
        def.mark_attack(atk, "multi");
        def.add_transition(init, "direct", atk);
        def.add_transition(init, "via", x);
        def.add_transition(x, "hit", atk);
        let def = def.build().unwrap();
        let paths = attack_paths(&def);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].steps.len(), 1, "sorted shortest-first");
        assert_eq!(paths[1].steps.len(), 2);
    }

    #[test]
    fn reachability_finds_dead_states() {
        let def = sample();
        assert_eq!(unreachable_states(&def), vec!["DEAD".to_owned()]);
        assert_eq!(reachable_states(&def).len(), 3);
    }

    #[test]
    fn machine_without_attack_states_has_no_paths() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        def.add_transition(a, "x", b);
        let def = def.build().unwrap();
        assert!(attack_paths(&def).is_empty());
        assert!(unreachable_states(&def).is_empty());
    }

    #[test]
    fn dot_export_marks_state_roles() {
        let def = sample();
        let dot = to_dot(&def);
        assert!(dot.starts_with("digraph \"m\""));
        assert!(dot.contains("\"INIT\" [peripheries=2]"));
        assert!(dot.contains("fillcolor=salmon"));
        assert!(dot.contains("\"MID\" -> \"ATTACK\""));
        assert!(dot.contains("label=\"b\\nstrike\""));
        assert!(dot.trim_end().ends_with("}"));
        assert!(!dot.contains("label=\"locals"), "no variables, no vector");

        let mut with_vars = MachineDef::new("v");
        let _: crate::vars::Var<u64> = with_vars.local("l_count");
        with_vars.add_state("A");
        let dot = to_dot(&with_vars.build().unwrap());
        assert!(dot.contains("label=\"locals (l_count: uint) globals ()\";"));
    }
}
