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
//! * [`value::Value`] / [`value::VarMap`] — state variables `v̄` and their
//!   domains, split into machine-local (`v.l_…`) and call-global (`v.g_…`)
//!   scopes exactly as in the paper's Fig. 2.
//! * [`event::Event`] — input alphabet Σ: data-packet events (`c?event(x̄)`),
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
//! use vids_efsm::machine::MachineDef;
//! use vids_efsm::event::Event;
//! use vids_efsm::instance::MachineInstance;
//!
//! let mut def = MachineDef::new("toy");
//! let init = def.add_state("INIT");
//! let done = def.add_state("DONE");
//! def.mark_final(done);
//! def.add_transition(init, "go", done)
//!     .predicate(|ctx| ctx.event.uint_arg("n").unwrap_or(0) > 0)
//!     .action(|ctx| {
//!         let n = ctx.event.uint_arg("n").unwrap();
//!         ctx.locals.set("l_count", n);
//!     });
//! let def = def.build().unwrap();
//!
//! let mut m = MachineInstance::new(&def);
//! let outcome = m.step(&def, &Event::data("go").with_uint("n", 3), &mut Default::default());
//! assert!(outcome.transitioned());
//! assert!(m.is_final(&def));
//! ```

pub mod analysis;
pub mod event;
pub mod instance;
pub mod intern;
pub mod machine;
pub mod network;
pub mod trace;
pub mod value;

pub use analysis::{attack_paths, AttackPath};
pub use event::{Args, Event, EventKind};
pub use instance::{MachineInstance, StepOutcome};
pub use intern::{sym, Sym, SymKey};
pub use machine::{BuildError, MachineDef, StateId};
pub use network::{
    MachineId, Network, NetworkOutcome, NoopObserver, SoloNetwork, TransitionObserver,
};
pub use trace::{Trace, TraceEntry};
pub use value::{InlineVec, Value, VarMap};
