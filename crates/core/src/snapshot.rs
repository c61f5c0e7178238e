//! Forensic call-state snapshots.
//!
//! When the flight recorder serializes an alert window it captures the
//! triggering call's EFSM state — per-machine current state and local
//! variables plus the call-global variables — as plain strings, so the
//! dump stays self-describing without the reader needing the machine
//! definitions. Each variable that holds a value is rendered by name from
//! its machine's schema, through [`Value`]'s `Display`, and sorted by name:
//! the frame stores variables in declaration order, which is a detail of
//! the machine definitions and not a stable wire format.
//!
//! [`Value`]: vids_efsm::value::Value

use vids_efsm::network::Network;
use vids_efsm::Vars;

/// One machine of a call network, frozen at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// Definition name (`"sip"`, `"rtp"`).
    pub name: String,
    /// Current state name.
    pub state: String,
    /// Local variables, sorted by name, values rendered to text.
    pub locals: Vec<(String, String)>,
}

/// The triggering call's full EFSM state at dump time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSnapshot {
    /// The call's Call-ID.
    pub call_id: String,
    /// Every machine of the call network, in definition order.
    pub machines: Vec<MachineSnapshot>,
    /// Call-global shared variables, sorted by name.
    pub globals: Vec<(String, String)>,
}

impl CallSnapshot {
    /// Freezes one call network.
    pub fn of_network(call_id: &str, network: &Network) -> CallSnapshot {
        CallSnapshot {
            call_id: call_id.to_owned(),
            machines: network
                .machines()
                .map(|(def, inst, locals)| MachineSnapshot {
                    name: def.name().to_owned(),
                    state: inst.state_name(def).to_owned(),
                    locals: sorted_vars(locals),
                })
                .collect(),
            globals: sorted_vars(network.globals()),
        }
    }
}

fn sorted_vars(vars: Vars<'_>) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = vars
        .iter()
        .map(|(k, v)| (k.to_owned(), v.to_string()))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vids_efsm::machine::MachineDef;
    use vids_efsm::{Schema, Var};

    #[test]
    fn snapshot_renders_states_and_sorted_vars() {
        let mut globals = Schema::globals();
        let g: Var<bool> = globals.declare("g");
        let mut b = MachineDef::new("toy");
        b.share_globals(&Arc::new(globals));
        let zeta: Var<u64> = b.local("zeta");
        let alpha: Var<u64> = b.local("alpha");
        let _never_set: Var<u64> = b.local("beta");
        let s = b.add_state("idle");
        b.mark_final(s);
        let def = Arc::new(b.build().unwrap());
        let mut net = Network::new();
        let id = net.add_machine(def);
        net.set(id, zeta, 9);
        net.set(id, alpha, 1);
        net.set(id, g, true);

        let snap = CallSnapshot::of_network("call-1", &net);
        assert_eq!(snap.call_id, "call-1");
        assert_eq!(snap.machines.len(), 1);
        assert_eq!(snap.machines[0].name, "toy");
        assert_eq!(snap.machines[0].state, "idle");
        let names: Vec<&str> = snap.machines[0]
            .locals
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["alpha", "zeta"],
            "locals sorted by name; absent ones left out"
        );
        assert_eq!(snap.globals, [("g".to_owned(), "true".to_owned())]);
    }
}
