//! The per-call SIP signaling machine (Fig. 2 / Fig. 5, SIP side).
//!
//! States follow the paper's narrative: `INIT → INVITE_RCVD → PROCEEDING →
//! CALL_ESTABLISHED → CALL_TEARDOWN → TERMINATED`, with `CANCELLING` and
//! `FAILED` side paths and three annotated attack states (call hijack,
//! spoofed BYE, spoofed CANCEL). The machine is written from the monitor's
//! perspective: it observes both directions of the perimeter traffic.

use vids_efsm::machine::{ActionCtx, MachineDef, PredicateCtx};
use vids_efsm::value::Value;
use vids_efsm::{sym, Event};

use crate::alert::labels;
use crate::config::Config;
use crate::machines::{
    arg_or_empty, DELTA_BYE, DELTA_OPEN, DELTA_REOPEN, DELTA_UPDATE, RTP_MACHINE, SIP_MACHINE,
};

/// Timer name for the teardown/failure linger.
pub const TIMER_LINGER: &str = "T_linger";

/// The empty string as a `Value`, the default for absent textual args.
static EMPTY_VAL: Value = Value::Sym(sym::EMPTY);

fn store_invite_vars(ctx: &mut ActionCtx<'_>) {
    // Local variables (Fig. 2: Call-ID, branch, tags, endpoints).
    let ev = ctx.event;
    ctx.locals
        .set(sym::L_CALL_ID, arg_or_empty(ev, sym::CALL_ID));
    ctx.locals.set(sym::L_BRANCH, arg_or_empty(ev, sym::BRANCH));
    ctx.locals
        .set(sym::L_FROM_TAG, arg_or_empty(ev, sym::FROM_TAG));
    ctx.locals
        .set(sym::L_CALLER_IP, arg_or_empty(ev, sym::SRC_IP));
    ctx.locals
        .set(sym::L_CALLEE_IP, arg_or_empty(ev, sym::DST_IP));
    // Global variables: the caller's offered media coordinates.
    if ev.bool_arg(sym::HAS_SDP) {
        ctx.globals
            .set(sym::G_CALLER_MEDIA_IP, arg_or_empty(ev, sym::SDP_IP));
        ctx.globals.set(
            sym::G_CALLER_MEDIA_PORT,
            ev.uint_arg(sym::SDP_PORT).unwrap_or(0),
        );
        ctx.globals
            .set(sym::G_CODEC_PT, ev.uint_arg(sym::SDP_PT).unwrap_or(255));
    }
}

fn store_answer_vars(ctx: &mut ActionCtx<'_>) {
    let ev = ctx.event;
    ctx.locals.set(sym::L_TO_TAG, arg_or_empty(ev, sym::TO_TAG));
    if ev.bool_arg(sym::HAS_SDP) {
        ctx.globals
            .set(sym::G_CALLEE_MEDIA_IP, arg_or_empty(ev, sym::SDP_IP));
        ctx.globals.set(
            sym::G_CALLEE_MEDIA_PORT,
            ev.uint_arg(sym::SDP_PORT).unwrap_or(0),
        );
    }
}

fn is_invite_cseq(ctx: &PredicateCtx<'_>) -> bool {
    ctx.event.sym_arg(sym::CSEQ_METHOD) == Some(sym::METHOD_INVITE)
}

fn is_cancel_cseq(ctx: &PredicateCtx<'_>) -> bool {
    ctx.event.sym_arg(sym::CSEQ_METHOD) == Some(sym::METHOD_CANCEL)
}

fn is_bye_cseq(ctx: &PredicateCtx<'_>) -> bool {
    ctx.event.sym_arg(sym::CSEQ_METHOD) == Some(sym::METHOD_BYE)
}

/// Whether the event's To tag is absent or empty (initial-INVITE shape).
fn to_tag_empty(ctx: &PredicateCtx<'_>) -> bool {
    ctx.event.arg(sym::TO_TAG).is_none_or(|v| *v == EMPTY_VAL)
}

/// Whether the event's From/To tags identify the monitored dialog, in
/// either direction. Early in the dialog the To tag may still be unknown
/// to the monitor; an empty stored tag matches anything. `Value`
/// comparisons here are O(1) symbol-id compares.
fn tags_consistent(ctx: &PredicateCtx<'_>) -> bool {
    let from = ctx.event.arg(sym::FROM_TAG).unwrap_or(&EMPTY_VAL);
    let to = ctx.event.arg(sym::TO_TAG).unwrap_or(&EMPTY_VAL);
    let l_from = ctx.locals.get(sym::L_FROM_TAG).unwrap_or(&EMPTY_VAL);
    let l_to = ctx.locals.get(sym::L_TO_TAG).unwrap_or(&EMPTY_VAL);
    let m = |a: &Value, b: &Value| *a == EMPTY_VAL || *b == EMPTY_VAL || a == b;
    (m(l_from, from) && m(l_to, to)) || (m(l_from, to) && m(l_to, from))
}

/// Whether an SDP body (if present) keeps media on the negotiated parties.
///
/// The comparison uses the media addresses the parties themselves declared
/// in earlier SDP bodies (the call-global variables) — *not* the packet's
/// source/destination, which at the monitoring point are proxy hops.
fn sdp_on_dialog_parties(ctx: &PredicateCtx<'_>) -> bool {
    if !ctx.event.bool_arg(sym::HAS_SDP) {
        return true;
    }
    let sdp_ip = ctx.event.arg(sym::SDP_IP).unwrap_or(&EMPTY_VAL);
    let caller = ctx
        .globals
        .get(sym::G_CALLER_MEDIA_IP)
        .unwrap_or(&EMPTY_VAL);
    let callee = ctx
        .globals
        .get(sym::G_CALLEE_MEDIA_IP)
        .unwrap_or(&EMPTY_VAL);
    sdp_ip == caller || sdp_ip == callee
}

/// Builds the SIP call machine.
pub fn sip_call_machine(config: &Config) -> MachineDef {
    let linger_ms = config.teardown_linger.as_millis();
    let mut def = MachineDef::new(SIP_MACHINE);

    let init = def.add_state("INIT");
    let invite_rcvd = def.add_state("INVITE_RCVD");
    let proceeding = def.add_state("PROCEEDING");
    let established = def.add_state("CALL_ESTABLISHED");
    let cancelling = def.add_state("CANCELLING");
    let teardown = def.add_state("CALL_TEARDOWN");
    let failed = def.add_state("FAILED");
    let terminated = def.add_state("TERMINATED");
    let hijack = def.add_state("HIJACK_DETECTED");
    let spoofed_bye = def.add_state("SPOOFED_BYE_DETECTED");
    let spoofed_cancel = def.add_state("SPOOFED_CANCEL_DETECTED");

    def.mark_final(terminated);
    def.mark_attack(hijack, labels::CALL_HIJACK);
    def.mark_attack(spoofed_bye, labels::SPOOFED_BYE);
    def.mark_attack(spoofed_cancel, labels::SPOOFED_CANCEL);

    // ---- INIT ----------------------------------------------------------
    def.add_transition(init, "SIP.INVITE", invite_rcvd)
        .predicate(to_tag_empty)
        .action(|ctx| {
            store_invite_vars(ctx);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_OPEN));
        })
        .label("call setup request");

    // ---- INVITE_RCVD ---------------------------------------------------
    def.add_transition(invite_rcvd, "SIP.INVITE", invite_rcvd)
        .predicate(to_tag_empty)
        .label("INVITE retransmission");
    def.add_transition(invite_rcvd, "SIP.1xx", proceeding)
        .action(|ctx| {
            let tag = arg_or_empty(ctx.event, sym::TO_TAG);
            if tag != EMPTY_VAL {
                ctx.locals.set(sym::L_TO_TAG, tag);
            }
        })
        .label("ringing");
    def.add_transition(invite_rcvd, "SIP.2xx", established)
        .predicate(is_invite_cseq)
        .action(|ctx| {
            store_answer_vars(ctx);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_UPDATE));
        })
        .label("answered without ringing");
    def.add_transition(invite_rcvd, "SIP.failure", failed)
        .predicate(is_invite_cseq)
        .action(|ctx| {
            ctx.set_timer(TIMER_LINGER, 8_000);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_BYE));
        })
        .label("call rejected");
    def.add_transition(invite_rcvd, "SIP.CANCEL", cancelling)
        .predicate(tags_consistent)
        .label("setup cancelled");
    def.add_transition(invite_rcvd, "SIP.CANCEL", spoofed_cancel)
        .predicate(|ctx| !tags_consistent(ctx))
        .label("CANCEL with foreign dialog tags");

    // ---- PROCEEDING ----------------------------------------------------
    def.add_transition(proceeding, "SIP.1xx", proceeding)
        .label("more ringing");
    def.add_transition(proceeding, "SIP.INVITE", proceeding)
        .predicate(to_tag_empty)
        .label("INVITE retransmission");
    def.add_transition(proceeding, "SIP.2xx", established)
        .predicate(is_invite_cseq)
        .action(|ctx| {
            store_answer_vars(ctx);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_UPDATE));
        })
        .label("call answered");
    def.add_transition(proceeding, "SIP.failure", failed)
        .predicate(is_invite_cseq)
        .action(|ctx| {
            ctx.set_timer(TIMER_LINGER, 8_000);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_BYE));
        })
        .label("call rejected");
    def.add_transition(proceeding, "SIP.CANCEL", cancelling)
        .predicate(tags_consistent)
        .label("setup cancelled");
    def.add_transition(proceeding, "SIP.CANCEL", spoofed_cancel)
        .predicate(|ctx| !tags_consistent(ctx))
        .label("CANCEL with foreign dialog tags");

    // ---- CANCELLING ----------------------------------------------------
    def.add_transition(cancelling, "SIP.2xx", cancelling)
        .predicate(is_cancel_cseq)
        .label("CANCEL confirmed");
    def.add_transition(cancelling, "SIP.1xx", cancelling);
    def.add_transition(cancelling, "SIP.CANCEL", cancelling)
        .label("CANCEL retransmission");
    def.add_transition(cancelling, "SIP.failure", failed)
        .predicate(is_invite_cseq)
        .action(|ctx| {
            ctx.set_timer(TIMER_LINGER, 8_000);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_BYE));
        })
        .label("487 for cancelled INVITE");
    def.add_transition(cancelling, "SIP.ACK", terminated)
        .label("cancelled call acknowledged");

    // ---- CALL_ESTABLISHED ----------------------------------------------
    def.add_transition(established, "SIP.ACK", established)
        .label("three-way handshake completes");
    def.add_transition(established, "SIP.2xx", established)
        .label("200 retransmission");
    def.add_transition(established, "SIP.1xx", established)
        .label("stale provisional");
    // Legitimate re-INVITE: dialog tags match and media stays on parties.
    def.add_transition(established, "SIP.INVITE", established)
        .predicate(|ctx| !to_tag_empty(ctx) && tags_consistent(ctx) && sdp_on_dialog_parties(ctx))
        .action(|ctx| {
            let ev = ctx.event;
            if ev.bool_arg(sym::HAS_SDP) {
                // The media may move within the parties: refresh globals.
                ctx.globals
                    .set(sym::G_CALLER_MEDIA_IP, arg_or_empty(ev, sym::SDP_IP));
                ctx.globals.set(
                    sym::G_CALLER_MEDIA_PORT,
                    ev.uint_arg(sym::SDP_PORT).unwrap_or(0),
                );
                ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_UPDATE));
            }
        })
        .label("re-INVITE within dialog");
    // Hijack: in-dialog INVITE pushing media off the negotiated parties.
    def.add_transition(established, "SIP.INVITE", hijack)
        .predicate(|ctx| !to_tag_empty(ctx) && tags_consistent(ctx) && !sdp_on_dialog_parties(ctx))
        .label("re-INVITE redirects media off-dialog");
    // Hijack: in-dialog INVITE with tags that never belonged to the dialog.
    def.add_transition(established, "SIP.INVITE", hijack)
        .predicate(|ctx| !to_tag_empty(ctx) && !tags_consistent(ctx))
        .label("re-INVITE with foreign dialog tags");
    // BYE with consistent tags: normal teardown begins. The RTP machine is
    // synchronized *before* the transition (Fig. 5).
    def.add_transition(established, "SIP.BYE", teardown)
        .predicate(tags_consistent)
        .action(|ctx| {
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_BYE));
            ctx.set_timer(TIMER_LINGER, 8_000);
        })
        .label("call tear-down begins");
    def.add_transition(established, "SIP.BYE", spoofed_bye)
        .predicate(|ctx| !tags_consistent(ctx))
        .label("BYE with foreign dialog tags");
    // CANCEL after establishment is never legitimate (§3.1: "a CANCEL is
    // for an outstanding INVITE").
    def.add_transition(established, "SIP.CANCEL", spoofed_cancel)
        .label("CANCEL after establishment");

    // ---- CALL_TEARDOWN -------------------------------------------------
    def.add_transition(teardown, "SIP.BYE", teardown)
        .predicate(tags_consistent)
        .label("BYE retransmission");
    def.add_transition(teardown, "SIP.2xx", terminated)
        .predicate(is_bye_cseq)
        .action(|ctx| ctx.cancel_timer(TIMER_LINGER))
        .label("teardown confirmed");
    def.add_transition(teardown, TIMER_LINGER, terminated)
        .label("teardown response lost; linger expired");
    // A 401/486/… answering the BYE: the teardown was rejected (digest
    // authentication, §3.1's countermeasure) and the session lives on.
    def.add_transition(teardown, "SIP.failure", established)
        .predicate(is_bye_cseq)
        .action(|ctx| {
            ctx.cancel_timer(TIMER_LINGER);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_REOPEN));
        })
        .label("teardown rejected; session continues");

    // ---- FAILED ---------------------------------------------------------
    def.add_transition(failed, "SIP.ACK", terminated)
        .action(|ctx| ctx.cancel_timer(TIMER_LINGER))
        .label("failure acknowledged");
    def.add_transition(failed, "SIP.failure", failed)
        .label("failure retransmission");
    def.add_transition(failed, TIMER_LINGER, terminated)
        .label("ACK lost; linger expired");

    // ---- TERMINATED & attack states absorb stragglers -------------------
    def.add_transition(terminated, "*", terminated)
        .label("post-call straggler");
    def.add_transition(hijack, "*", hijack);
    def.add_transition(spoofed_bye, "*", spoofed_bye);
    def.add_transition(spoofed_cancel, "*", spoofed_cancel);

    let _ = linger_ms; // linger currently fixed at 8 s in the actions above

    // Predicates partition on dialog/CSeq ownership per state; verified by
    // the busy-call determinism test and the debug-build exhaustive scan.
    def.declare_deterministic();
    def.build().expect("sip machine definition is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vids_efsm::network::Network;

    fn sip_only_network() -> (Network, vids_efsm::network::MachineId) {
        let def = Arc::new(sip_call_machine(&Config::default()));
        let mut net = Network::new();
        net.enable_trace();
        let id = net.add_machine(def);
        (net, id)
    }

    fn invite_event() -> Event {
        Event::data("SIP.INVITE")
            .with_str("call_id", "c1")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "")
            .with_str("branch", "z9hG4bKx")
            .with_str("src_ip", "10.1.0.10")
            .with_str("dst_ip", "10.2.0.10")
            .with_str("cseq_method", "INVITE")
            .with_uint("cseq", 1)
            .with_bool("has_sdp", true)
            .with_str("sdp_ip", "10.1.0.10")
            .with_uint("sdp_port", 20_000)
            .with_uint("sdp_pt", 18)
    }

    fn ok_event(cseq_method: &str) -> Event {
        Event::data("SIP.2xx")
            .with_str("call_id", "c1")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "tt")
            .with_str("cseq_method", cseq_method)
            .with_uint("status", 200)
            .with_bool("has_sdp", cseq_method == "INVITE")
            .with_str("sdp_ip", "10.2.0.10")
            .with_uint("sdp_port", 30_000)
    }

    fn bye_event(from_tag: &str, to_tag: &str) -> Event {
        Event::data("SIP.BYE")
            .with_str("call_id", "c1")
            .with_str("from_tag", from_tag)
            .with_str("to_tag", to_tag)
            .with_str("cseq_method", "BYE")
    }

    #[test]
    fn normal_call_walks_to_terminated() {
        let (mut net, id) = sip_only_network();
        let ringing = Event::data("SIP.1xx")
            .with_str("to_tag", "tt")
            .with_str("cseq_method", "INVITE");
        for (i, ev) in [
            invite_event(),
            ringing,
            ok_event("INVITE"),
            Event::data("SIP.ACK")
                .with_str("from_tag", "ft")
                .with_str("to_tag", "tt"),
            bye_event("ft", "tt"),
            ok_event("BYE"),
        ]
        .into_iter()
        .enumerate()
        {
            let out = net.deliver(id, ev, i as u64 * 100);
            assert!(!out.is_suspicious(), "step {i}: {out:?}");
        }
        assert!(net.all_final());
        let path = net.trace().unwrap().path_of(SIP_MACHINE);
        assert_eq!(
            path,
            vec![
                "INIT",
                "INVITE_RCVD",
                "PROCEEDING",
                "CALL_ESTABLISHED",
                "CALL_ESTABLISHED",
                "CALL_TEARDOWN",
                "TERMINATED"
            ]
        );
    }

    #[test]
    fn invite_publishes_media_globals() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        assert_eq!(net.globals().str("g_caller_media_ip"), Some("10.1.0.10"));
        assert_eq!(net.globals().uint("g_caller_media_port"), Some(20_000));
        assert_eq!(net.globals().uint("g_codec_pt"), Some(18));
        net.deliver(id, ok_event("INVITE"), 10);
        assert_eq!(net.globals().str("g_callee_media_ip"), Some("10.2.0.10"));
        assert_eq!(net.globals().uint("g_callee_media_port"), Some(30_000));
    }

    #[test]
    fn spoofed_bye_with_foreign_tags_is_attacked() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        net.deliver(id, ok_event("INVITE"), 10);
        let out = net.deliver(id, bye_event("evil", "other"), 20);
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].label, labels::SPOOFED_BYE);
    }

    #[test]
    fn well_spoofed_bye_passes_sip_layer() {
        // A BYE carrying the sniffed, correct tags is indistinguishable at
        // the SIP layer — the cross-protocol RTP machine must catch it.
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        net.deliver(id, ok_event("INVITE"), 10);
        let out = net.deliver(id, bye_event("ft", "tt"), 20);
        assert!(out.alerts.is_empty());
        assert!(!out.is_suspicious());
    }

    #[test]
    fn cancel_after_establishment_is_attack() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        net.deliver(id, ok_event("INVITE"), 10);
        let cancel = Event::data("SIP.CANCEL")
            .with_str("from_tag", "ft")
            .with_str("cseq_method", "CANCEL");
        let out = net.deliver(id, cancel, 20);
        assert_eq!(out.alerts[0].label, labels::SPOOFED_CANCEL);
    }

    #[test]
    fn cancel_during_setup_is_legitimate() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        let cancel = Event::data("SIP.CANCEL")
            .with_str("from_tag", "ft")
            .with_str("cseq_method", "CANCEL");
        let out = net.deliver(id, cancel, 5);
        assert!(!out.is_suspicious());
        // 487 + ACK complete the teardown.
        let terminated = Event::data("SIP.failure")
            .with_str("cseq_method", "INVITE")
            .with_uint("status", 487);
        net.deliver(id, terminated, 6);
        let out = net.deliver(id, Event::data("SIP.ACK"), 7);
        assert!(!out.is_suspicious());
        assert!(net.all_final());
    }

    #[test]
    fn hijacking_reinvite_is_attacked() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        net.deliver(id, ok_event("INVITE"), 10);
        // In-dialog re-INVITE redirecting media to a foreign host.
        let hijack = Event::data("SIP.INVITE")
            .with_str("call_id", "c1")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "tt")
            .with_str("cseq_method", "INVITE")
            .with_bool("has_sdp", true)
            .with_str("sdp_ip", "10.0.0.10")
            .with_uint("sdp_port", 44_000);
        let out = net.deliver(id, hijack, 20);
        assert_eq!(out.alerts[0].label, labels::CALL_HIJACK);
    }

    #[test]
    fn legitimate_reinvite_is_accepted() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        net.deliver(id, ok_event("INVITE"), 10);
        let reinvite = Event::data("SIP.INVITE")
            .with_str("call_id", "c1")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "tt")
            .with_str("cseq_method", "INVITE")
            .with_bool("has_sdp", true)
            .with_str("sdp_ip", "10.1.0.10")
            .with_uint("sdp_port", 22_000);
        let out = net.deliver(id, reinvite, 20);
        assert!(!out.is_suspicious());
        assert!(!out.nondeterministic);
        assert_eq!(net.globals().uint("g_caller_media_port"), Some(22_000));
    }

    #[test]
    fn unexpected_event_is_deviation() {
        let (mut net, id) = sip_only_network();
        // A BYE before any INVITE deviates from the specification.
        let out = net.deliver(id, bye_event("x", "y"), 0);
        assert_eq!(out.deviations.len(), 1);
    }

    #[test]
    fn lost_bye_ok_expires_via_linger_timer() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        net.deliver(id, ok_event("INVITE"), 10);
        net.deliver(id, bye_event("ft", "tt"), 20);
        assert!(!net.all_final());
        let out = net.advance_time(20 + 8_000);
        assert_eq!(out.transitions, 1);
        assert!(net.all_final());
    }

    #[test]
    fn rejected_call_terminates_after_ack() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        let busy = Event::data("SIP.failure")
            .with_str("cseq_method", "INVITE")
            .with_uint("status", 486);
        net.deliver(id, busy, 5);
        let out = net.deliver(id, Event::data("SIP.ACK"), 6);
        assert!(!out.is_suspicious());
        assert!(net.all_final());
    }
}
