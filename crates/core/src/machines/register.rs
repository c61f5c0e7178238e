//! Registration monitoring (extension).
//!
//! The paper's §3 notes that attackers target "multi-faceted trust
//! relationships"; its citations include registration/unregister attacks
//! (e.g. Bremler-Barr et al., "Unregister Attacks in SIP"). This machine
//! extends the vids pattern library to the REGISTER surface for deployments
//! where registrations cross the monitored perimeter (roaming users
//! registering with the DMZ registrar of Fig. 1):
//!
//! * a REGISTER that moves an address-of-record's contact to a **different
//!   host from a different source** than the binding's owner, and
//! * a de-registration (`Expires: 0`) from a foreign source,
//!
//! are flagged as `registration-hijack`. Same-source updates (a phone
//! re-registering or moving) stay legitimate.

use vids_efsm::machine::{ActionCtx, MachineDef, PredicateCtx};
use vids_efsm::{Sym, Var};

use crate::alert::labels;
use crate::machines::{sym_or_empty, SipArgs};

/// Name of the per-AOR registration machine.
pub const REGISTER_MACHINE: &str = "register";

/// The binding an AOR's machine keeps, and the handles of the REGISTER
/// arguments it reads.
#[derive(Debug, Clone, Copy)]
struct Binding {
    owner_ip: Var<Sym>,
    contact_ip: Var<Sym>,
    x: SipArgs,
}

fn same_owner(ctx: &PredicateCtx<'_>, b: Binding) -> bool {
    ctx.get(b.owner_ip) == Some(sym_or_empty(ctx.event, b.x.src_ip))
}

fn is_deregister(ctx: &PredicateCtx<'_>, b: Binding) -> bool {
    ctx.event.get(b.x.expires) == Some(0)
}

fn store_binding(ctx: &mut ActionCtx<'_>, b: Binding) {
    ctx.set(b.owner_ip, sym_or_empty(ctx.event, b.x.src_ip));
    ctx.set(b.contact_ip, sym_or_empty(ctx.event, b.x.contact_ip));
}

/// Builds the per-AOR registration machine.
pub fn registration_machine() -> MachineDef {
    let mut def = MachineDef::new(REGISTER_MACHINE);
    def.reads(SipArgs::schema());
    let b = Binding {
        owner_ip: def.local("l_owner_ip"),
        contact_ip: def.local("l_contact_ip"),
        x: *SipArgs::get(),
    };
    let is_deregister = move |ctx: &PredicateCtx<'_>| is_deregister(ctx, b);
    let init = def.add_state("UNBOUND");
    let bound = def.add_state("BOUND");
    let hijack = def.add_state("REGISTRATION_HIJACK_DETECTED");
    def.mark_final(init);
    def.mark_attack(hijack, labels::REGISTRATION_HIJACK);

    // First registration binds the AOR and records its owner.
    def.add_transition(init, "SIP.REGISTER", bound)
        .predicate(move |ctx| !is_deregister(ctx))
        .action(move |ctx| store_binding(ctx, b))
        .label("AOR bound");
    // De-register while unbound: harmless no-op.
    def.add_transition(init, "SIP.REGISTER", init)
        .predicate(is_deregister)
        .label("de-register while unbound");

    // Refresh or legitimate move: same source may do anything.
    def.add_transition(bound, "SIP.REGISTER", bound)
        .predicate(move |ctx| same_owner(ctx, b) && !is_deregister(ctx))
        .action(move |ctx| store_binding(ctx, b))
        .label("binding refreshed by owner");
    def.add_transition(bound, "SIP.REGISTER", init)
        .predicate(move |ctx| same_owner(ctx, b) && is_deregister(ctx))
        .action(move |ctx| {
            ctx.remove(b.owner_ip);
            ctx.remove(b.contact_ip);
        })
        .label("owner de-registered");

    // Foreign source rebinding or unbinding the AOR: the hijack.
    def.add_transition(bound, "SIP.REGISTER", hijack)
        .predicate(move |ctx| !same_owner(ctx, b))
        .label("binding changed by foreign source");

    def.add_transition(hijack, "*", hijack);

    // Predicates partition on (same_owner, is_deregister); verified by the
    // busy-call determinism test and the debug-build exhaustive scan.
    def.declare_deterministic();
    def.build()
        .expect("registration machine definition is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vids_efsm::network::Network;
    use vids_efsm::Event;

    fn register(src: &str, contact: &str, expires: u64) -> Event {
        SipArgs::event("SIP.REGISTER")
            .with_named("src_ip", src)
            .with_named("contact_ip", contact)
            .with_named("expires", expires)
    }

    fn net() -> (Network, vids_efsm::network::MachineId) {
        let mut n = Network::new();
        let id = n.add_machine(Arc::new(registration_machine()));
        (n, id)
    }

    #[test]
    fn bind_refresh_unbind_is_clean() {
        let (mut net, id) = net();
        assert!(!net
            .deliver(id, register("10.0.5.1", "10.0.5.1", 3600), 0)
            .is_suspicious());
        assert!(!net
            .deliver(id, register("10.0.5.1", "10.0.5.1", 3600), 10)
            .is_suspicious());
        assert!(!net
            .deliver(id, register("10.0.5.1", "10.0.5.1", 0), 20)
            .is_suspicious());
        assert!(net.all_final(), "unbound is final");
    }

    #[test]
    fn owner_may_move_contact() {
        let (mut net, id) = net();
        net.deliver(id, register("10.0.5.1", "10.0.5.1", 3600), 0);
        let out = net.deliver(id, register("10.0.5.1", "10.0.9.9", 3600), 10);
        assert!(!out.is_suspicious(), "same source, new contact: roaming");
    }

    #[test]
    fn foreign_rebind_is_hijack() {
        let (mut net, id) = net();
        net.deliver(id, register("10.0.5.1", "10.0.5.1", 3600), 0);
        let out = net.deliver(id, register("10.0.66.6", "10.0.66.6", 3600), 10);
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].label, labels::REGISTRATION_HIJACK);
    }

    #[test]
    fn foreign_unregister_is_hijack() {
        // The classic unregister attack: wipe the victim's binding.
        let (mut net, id) = net();
        net.deliver(id, register("10.0.5.1", "10.0.5.1", 3600), 0);
        let out = net.deliver(id, register("10.0.66.6", "10.0.5.1", 0), 10);
        assert_eq!(out.alerts[0].label, labels::REGISTRATION_HIJACK);
    }

    #[test]
    fn deregister_before_bind_is_harmless() {
        let (mut net, id) = net();
        let out = net.deliver(id, register("10.0.5.1", "10.0.5.1", 0), 0);
        assert!(!out.is_suspicious());
        assert!(net.all_final());
    }
}
