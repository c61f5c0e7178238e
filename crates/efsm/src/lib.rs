//! # vids-efsm — extended finite state machines and their composition
//!
//! The formal model of the paper's §4: an EFSM `M = (Σ, S, v, D, T)` where
//! each transition `t = <s_t, event, P_t, A_t, q_t>` carries a predicate
//! `P_t(x̄ ∪ v̄)` over the event's argument vector and the current state
//! variables, and an update action `A_t(v̄)` applied before entering the new
//! state.
//!
//! The crate provides:
//!
//! * [`value::Value`] — the domains `D` of variables and event arguments;
//!   [`value::Fingerprint`] is the keyed hash that stands for text a
//!   machine only compares.
//! * [`vars`] — state variables `v̄` as a vector: declared once per
//!   definition, machine-local (`v.l_…`) or call-global (`v.g_…`) exactly as
//!   in the paper's Fig. 2, read and written through typed [`vars::Var`]
//!   handles, stored positionally in one frame per network.
//! * [`event::Event`] — input alphabet Σ: data-packet events (`c?event(x̄)`),
//!   whose arguments `x̄` are a vector declared once per protocol
//!   ([`vars::Schema::args`]) and read through typed [`vars::Arg`] handles,
//!   internal synchronization events (δ), and timer expirations.
//! * [`machine::MachineDef`] — a declarative builder for deterministic
//!   EFSMs, with states annotated as *final* or *attack* states.
//! * [`instance::MachineInstance`] — a running configuration `(s, v̄)`.
//! * [`network::Network`] — communicating EFSMs: the output of one machine
//!   feeds the FIFO input queue of another, and queued synchronization
//!   events have **higher priority than data packet events** (§4.2);
//!   [`network::SoloNetwork`] is the one-machine shape of it.
//! * [`trace::Trace`] — a replayable record of every transition taken.
//!
//! ```
//! use std::sync::{Arc, LazyLock};
//! use vids_efsm::machine::MachineDef;
//! use vids_efsm::network::Network;
//! use vids_efsm::event::Event;
//! use vids_efsm::vars::{Arg, Schema};
//!
//! // The toy protocol's one event argument, declared once.
//! static TOY: LazyLock<(Schema, Arg<u64>)> = LazyLock::new(|| {
//!     let mut args = Schema::args();
//!     let n = args.arg("n");
//!     (args, n)
//! });
//! let n = TOY.1;
//!
//! let mut def = MachineDef::new("toy");
//! def.reads(&TOY.0);
//! let count = def.local::<u64>("l_count");
//! let init = def.add_state("INIT");
//! let done = def.add_state("DONE");
//! def.mark_final(done);
//! def.add_transition(init, "go", done)
//!     .predicate(move |ctx| ctx.event.get(n).unwrap_or(0) > 0)
//!     .action(move |ctx| {
//!         let n = ctx.event.get(n).unwrap();
//!         ctx.set(count, n);
//!     });
//!
//! let mut net = Network::new();
//! let toy = net.add_machine(Arc::new(def.build().unwrap()));
//! let outcome = net.deliver(toy, Event::new("go", &TOY.0).with(n, 3), 0);
//! assert_eq!(outcome.transitions, 1);
//! assert!(net.all_final());
//! assert_eq!(net.get(toy, count), Some(3));
//! assert_eq!(net.locals(toy).uint("l_count"), Some(3));
//! ```

pub mod analysis;
pub mod event;
pub mod instance;
pub mod intern;
pub mod machine;
pub mod network;
pub mod trace;
pub mod value;
pub mod vars;

pub use analysis::{attack_paths, AttackPath};
pub use event::{Event, EventKind};
pub use instance::{MachineInstance, StepOutcome};
pub use intern::{sym, Sym, SymKey};
pub use machine::{BuildError, MachineDef, StateId};
pub use network::{
    MachineId, Network, NetworkOutcome, NoopObserver, SoloNetwork, TransitionObserver,
};
pub use trace::{Trace, TraceEntry};
pub use value::{Fingerprint, InlineVec, Value};
pub use vars::{Arg, Schema, Var, VarKind, VarType, Vars};
