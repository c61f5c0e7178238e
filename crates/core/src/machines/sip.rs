//! The per-call SIP signaling machine (Fig. 2 / Fig. 5, SIP side).
//!
//! States follow the paper's narrative: `INIT → INVITE_RCVD → PROCEEDING →
//! CALL_ESTABLISHED → CALL_TEARDOWN → TERMINATED`, with `CANCELLING` and
//! `FAILED` side paths and three annotated attack states (call hijack,
//! spoofed BYE, spoofed CANCEL). The machine is written from the monitor's
//! perspective: it observes both directions of the perimeter traffic.

use std::net::Ipv4Addr;

use vids_efsm::machine::{ActionCtx, MachineDef, PredicateCtx};
use vids_efsm::{sym, Event, Fingerprint, Sym, Var};

use crate::alert::labels;
use crate::config::Config;
use crate::machines::{
    copy_arg, fingerprint_or_empty, sym_or_empty, CallGlobals, SipArgs, DELTA_BYE, DELTA_OPEN,
    DELTA_REOPEN, DELTA_UPDATE, RTP_MACHINE, SIP_MACHINE,
};

/// Timer name for the teardown/failure linger.
pub const TIMER_LINGER: &str = "T_linger";

/// The SIP machine's variables: its locals (Fig. 2: Call-ID, branch, tags,
/// endpoints) and the call globals it publishes — and the handles of the
/// event arguments it reads. The branch and the tags are only ever compared
/// for equality, so they are keyed fingerprints, not text.
#[derive(Debug, Clone, Copy)]
struct SipVars {
    call_id: Var<Sym>,
    branch: Var<Fingerprint>,
    from_tag: Var<Fingerprint>,
    to_tag: Var<Fingerprint>,
    caller_ip: Var<Ipv4Addr>,
    callee_ip: Var<Ipv4Addr>,
    g: CallGlobals,
    x: SipArgs,
}

fn has_sdp(ev: &Event, v: SipVars) -> bool {
    ev.get(v.x.has_sdp) == Some(true)
}

fn store_invite_vars(ctx: &mut ActionCtx<'_>, v: SipVars) {
    let ev = ctx.event;
    ctx.set(v.call_id, sym_or_empty(ev, v.x.call_id));
    ctx.set(v.branch, fingerprint_or_empty(ev, v.x.branch));
    ctx.set(v.from_tag, fingerprint_or_empty(ev, v.x.from_tag));
    copy_arg(ctx, v.caller_ip, v.x.src_ip);
    copy_arg(ctx, v.callee_ip, v.x.dst_ip);
    // Global variables: the caller's offered media coordinates.
    if has_sdp(ev, v) {
        publish_caller_media(ctx, v);
        ctx.set(v.g.codec_pt, ev.get(v.x.sdp_pt).unwrap_or(255));
    }
}

fn publish_caller_media(ctx: &mut ActionCtx<'_>, v: SipVars) {
    let ev = ctx.event;
    copy_arg(ctx, v.g.caller_media_ip, v.x.sdp_ip);
    ctx.set(v.g.caller_media_port, ev.get(v.x.sdp_port).unwrap_or(0));
}

fn store_answer_vars(ctx: &mut ActionCtx<'_>, v: SipVars) {
    let ev = ctx.event;
    ctx.set(v.to_tag, fingerprint_or_empty(ev, v.x.to_tag));
    if has_sdp(ev, v) {
        copy_arg(ctx, v.g.callee_media_ip, v.x.sdp_ip);
        ctx.set(v.g.callee_media_port, ev.get(v.x.sdp_port).unwrap_or(0));
    }
}

/// Whether the event's CSeq names `method`.
fn cseq_is(ctx: &PredicateCtx<'_>, v: SipVars, method: Sym) -> bool {
    ctx.event.get(v.x.cseq_method) == Some(method)
}

/// Whether the event's To tag is absent or empty (initial-INVITE shape).
fn to_tag_empty(ctx: &PredicateCtx<'_>, v: SipVars) -> bool {
    fingerprint_or_empty(ctx.event, v.x.to_tag) == Fingerprint::EMPTY
}

/// Whether the event's From/To tags identify the monitored dialog, in
/// either direction. Early in the dialog the To tag may still be unknown
/// to the monitor; an empty stored tag matches anything. Fingerprint
/// comparisons are one word compare each.
fn tags_consistent(ctx: &PredicateCtx<'_>, v: SipVars) -> bool {
    let from = fingerprint_or_empty(ctx.event, v.x.from_tag);
    let to = fingerprint_or_empty(ctx.event, v.x.to_tag);
    let l_from = ctx.get(v.from_tag).unwrap_or(Fingerprint::EMPTY);
    let l_to = ctx.get(v.to_tag).unwrap_or(Fingerprint::EMPTY);
    let m = |a: Fingerprint, b: Fingerprint| {
        a == Fingerprint::EMPTY || b == Fingerprint::EMPTY || a == b
    };
    (m(l_from, from) && m(l_to, to)) || (m(l_from, to) && m(l_to, from))
}

/// Whether an SDP body (if present) keeps media on the negotiated parties.
///
/// The comparison uses the media addresses the parties themselves declared
/// in earlier SDP bodies (the call-global variables) — *not* the packet's
/// source/destination, which at the monitoring point are proxy hops. An
/// address that is not a dotted quad is absent on both sides, and two
/// absent addresses agree.
fn sdp_on_dialog_parties(ctx: &PredicateCtx<'_>, v: SipVars) -> bool {
    if !has_sdp(ctx.event, v) {
        return true;
    }
    let sdp_ip = ctx.event.get(v.x.sdp_ip);
    sdp_ip == ctx.get(v.g.caller_media_ip) || sdp_ip == ctx.get(v.g.callee_media_ip)
}

/// Builds the SIP call machine.
pub fn sip_call_machine(config: &Config) -> MachineDef {
    let linger_ms = config.teardown_linger.as_millis();
    let mut def = MachineDef::new(SIP_MACHINE);
    let (globals, g) = CallGlobals::declare();
    def.share_globals(&globals);
    def.reads(SipArgs::schema());
    let v = SipVars {
        call_id: def.local(sym::L_CALL_ID),
        branch: def.local(sym::L_BRANCH),
        from_tag: def.local(sym::L_FROM_TAG),
        to_tag: def.local(sym::L_TO_TAG),
        caller_ip: def.local(sym::L_CALLER_IP),
        callee_ip: def.local(sym::L_CALLEE_IP),
        g,
        x: *SipArgs::get(),
    };
    let to_tag_empty = move |ctx: &PredicateCtx<'_>| to_tag_empty(ctx, v);
    let is_invite_cseq = move |ctx: &PredicateCtx<'_>| cseq_is(ctx, v, sym::METHOD_INVITE);
    let is_cancel_cseq = move |ctx: &PredicateCtx<'_>| cseq_is(ctx, v, sym::METHOD_CANCEL);
    let is_bye_cseq = move |ctx: &PredicateCtx<'_>| cseq_is(ctx, v, sym::METHOD_BYE);

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
        .action(move |ctx| {
            store_invite_vars(ctx, v);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_OPEN));
        })
        .label("call setup request");

    // ---- INVITE_RCVD ---------------------------------------------------
    def.add_transition(invite_rcvd, "SIP.INVITE", invite_rcvd)
        .predicate(to_tag_empty)
        .label("INVITE retransmission");
    def.add_transition(invite_rcvd, "SIP.1xx", proceeding)
        .action(move |ctx| {
            let tag = fingerprint_or_empty(ctx.event, v.x.to_tag);
            if tag != Fingerprint::EMPTY {
                ctx.set(v.to_tag, tag);
            }
        })
        .label("ringing");
    def.add_transition(invite_rcvd, "SIP.2xx", established)
        .predicate(is_invite_cseq)
        .action(move |ctx| {
            store_answer_vars(ctx, v);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_UPDATE));
        })
        .label("answered without ringing");
    def.add_transition(invite_rcvd, "SIP.failure", failed)
        .predicate(is_invite_cseq)
        .action(move |ctx| {
            ctx.set_timer(TIMER_LINGER, linger_ms);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_BYE));
        })
        .label("call rejected");
    def.add_transition(invite_rcvd, "SIP.CANCEL", cancelling)
        .predicate(move |ctx| tags_consistent(ctx, v))
        .label("setup cancelled");
    def.add_transition(invite_rcvd, "SIP.CANCEL", spoofed_cancel)
        .predicate(move |ctx| !tags_consistent(ctx, v))
        .label("CANCEL with foreign dialog tags");

    // ---- PROCEEDING ----------------------------------------------------
    def.add_transition(proceeding, "SIP.1xx", proceeding)
        .label("more ringing");
    def.add_transition(proceeding, "SIP.INVITE", proceeding)
        .predicate(to_tag_empty)
        .label("INVITE retransmission");
    def.add_transition(proceeding, "SIP.2xx", established)
        .predicate(is_invite_cseq)
        .action(move |ctx| {
            store_answer_vars(ctx, v);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_UPDATE));
        })
        .label("call answered");
    def.add_transition(proceeding, "SIP.failure", failed)
        .predicate(is_invite_cseq)
        .action(move |ctx| {
            ctx.set_timer(TIMER_LINGER, linger_ms);
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_BYE));
        })
        .label("call rejected");
    def.add_transition(proceeding, "SIP.CANCEL", cancelling)
        .predicate(move |ctx| tags_consistent(ctx, v))
        .label("setup cancelled");
    def.add_transition(proceeding, "SIP.CANCEL", spoofed_cancel)
        .predicate(move |ctx| !tags_consistent(ctx, v))
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
        .action(move |ctx| {
            ctx.set_timer(TIMER_LINGER, linger_ms);
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
        .predicate(move |ctx| {
            !to_tag_empty(ctx) && tags_consistent(ctx, v) && sdp_on_dialog_parties(ctx, v)
        })
        .action(move |ctx| {
            if has_sdp(ctx.event, v) {
                // The media may move within the parties: refresh globals.
                publish_caller_media(ctx, v);
                ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_UPDATE));
            }
        })
        .label("re-INVITE within dialog");
    // Hijack: in-dialog INVITE pushing media off the negotiated parties.
    def.add_transition(established, "SIP.INVITE", hijack)
        .predicate(move |ctx| {
            !to_tag_empty(ctx) && tags_consistent(ctx, v) && !sdp_on_dialog_parties(ctx, v)
        })
        .label("re-INVITE redirects media off-dialog");
    // Hijack: in-dialog INVITE with tags that never belonged to the dialog.
    def.add_transition(established, "SIP.INVITE", hijack)
        .predicate(move |ctx| !to_tag_empty(ctx) && !tags_consistent(ctx, v))
        .label("re-INVITE with foreign dialog tags");
    // BYE with consistent tags: normal teardown begins. The RTP machine is
    // synchronized *before* the transition (Fig. 5).
    def.add_transition(established, "SIP.BYE", teardown)
        .predicate(move |ctx| tags_consistent(ctx, v))
        .action(move |ctx| {
            ctx.send_sync(RTP_MACHINE, Event::sync(DELTA_BYE));
            ctx.set_timer(TIMER_LINGER, linger_ms);
        })
        .label("call tear-down begins");
    def.add_transition(established, "SIP.BYE", spoofed_bye)
        .predicate(move |ctx| !tags_consistent(ctx, v))
        .label("BYE with foreign dialog tags");
    // CANCEL after establishment is never legitimate (§3.1: "a CANCEL is
    // for an outstanding INVITE").
    def.add_transition(established, "SIP.CANCEL", spoofed_cancel)
        .label("CANCEL after establishment");

    // ---- CALL_TEARDOWN -------------------------------------------------
    def.add_transition(teardown, "SIP.BYE", teardown)
        .predicate(move |ctx| tags_consistent(ctx, v))
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
    use vids_efsm::Trace;

    fn ip(text: &str) -> Ipv4Addr {
        text.parse().unwrap()
    }

    fn sip_only_network() -> (Network, vids_efsm::network::MachineId) {
        let def = Arc::new(sip_call_machine(&Config::default()));
        let mut net = Network::new();
        let id = net.add_machine(def);
        (net, id)
    }

    fn invite_event() -> Event {
        SipArgs::event("SIP.INVITE")
            .with_named("call_id", "c1")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "")
            .with_named("branch", "z9hG4bKx")
            .with_named("src_ip", ip("10.1.0.10"))
            .with_named("dst_ip", ip("10.2.0.10"))
            .with_named("cseq_method", "INVITE")
            .with_named("cseq", 1u64)
            .with_named("has_sdp", true)
            .with_named("sdp_ip", ip("10.1.0.10"))
            .with_named("sdp_port", 20_000u64)
            .with_named("sdp_pt", 18u64)
    }

    fn ok_event(cseq_method: &str) -> Event {
        SipArgs::event("SIP.2xx")
            .with_named("call_id", "c1")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "tt")
            .with_named("cseq_method", cseq_method)
            .with_named("status", 200u64)
            .with_named("has_sdp", cseq_method == "INVITE")
            .with_named("sdp_ip", ip("10.2.0.10"))
            .with_named("sdp_port", 30_000u64)
    }

    fn bye_event(from_tag: &str, to_tag: &str) -> Event {
        SipArgs::event("SIP.BYE")
            .with_named("call_id", "c1")
            .with_named("from_tag", from_tag)
            .with_named("to_tag", to_tag)
            .with_named("cseq_method", "BYE")
    }

    #[test]
    fn normal_call_walks_to_terminated() {
        let (mut net, id) = sip_only_network();
        let mut trace = Trace::new();
        let ringing = SipArgs::event("SIP.1xx")
            .with_named("to_tag", "tt")
            .with_named("cseq_method", "INVITE");
        for (i, ev) in [
            invite_event(),
            ringing,
            ok_event("INVITE"),
            SipArgs::event("SIP.ACK")
                .with_named("from_tag", "ft")
                .with_named("to_tag", "tt"),
            bye_event("ft", "tt"),
            ok_event("BYE"),
        ]
        .into_iter()
        .enumerate()
        {
            let out = net.deliver_observed(id, ev, i as u64 * 100, &mut trace);
            assert!(!out.is_suspicious(), "step {i}: {out:?}");
        }
        assert!(net.all_final());
        let path = trace.path_of(SIP_MACHINE);
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
        assert_eq!(net.globals().ip("g_caller_media_ip"), Some(ip("10.1.0.10")));
        assert_eq!(net.globals().uint("g_caller_media_port"), Some(20_000));
        assert_eq!(net.globals().uint("g_codec_pt"), Some(18));
        net.deliver(id, ok_event("INVITE"), 10);
        assert_eq!(net.globals().ip("g_callee_media_ip"), Some(ip("10.2.0.10")));
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
        let cancel = SipArgs::event("SIP.CANCEL")
            .with_named("from_tag", "ft")
            .with_named("cseq_method", "CANCEL");
        let out = net.deliver(id, cancel, 20);
        assert_eq!(out.alerts[0].label, labels::SPOOFED_CANCEL);
    }

    #[test]
    fn cancel_during_setup_is_legitimate() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        let cancel = SipArgs::event("SIP.CANCEL")
            .with_named("from_tag", "ft")
            .with_named("cseq_method", "CANCEL");
        let out = net.deliver(id, cancel, 5);
        assert!(!out.is_suspicious());
        // 487 + ACK complete the teardown.
        let terminated = SipArgs::event("SIP.failure")
            .with_named("cseq_method", "INVITE")
            .with_named("status", 487u64);
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
        let hijack = SipArgs::event("SIP.INVITE")
            .with_named("call_id", "c1")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "tt")
            .with_named("cseq_method", "INVITE")
            .with_named("has_sdp", true)
            .with_named("sdp_ip", ip("10.0.0.10"))
            .with_named("sdp_port", 44_000u64);
        let out = net.deliver(id, hijack, 20);
        assert_eq!(out.alerts[0].label, labels::CALL_HIJACK);
    }

    #[test]
    fn legitimate_reinvite_is_accepted() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        net.deliver(id, ok_event("INVITE"), 10);
        let reinvite = SipArgs::event("SIP.INVITE")
            .with_named("call_id", "c1")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "tt")
            .with_named("cseq_method", "INVITE")
            .with_named("has_sdp", true)
            .with_named("sdp_ip", ip("10.1.0.10"))
            .with_named("sdp_port", 22_000u64);
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

    /// `Config::teardown_linger` is the force-termination delay: at 2 s, a
    /// BYE never answered ends the call 2 s after it, not at the 8 s
    /// default.
    #[test]
    fn configured_linger_ends_an_unanswered_teardown() {
        let linger = vids_netsim::time::SimTime::from_secs(2);
        let config = Config::builder().teardown_linger(linger).build().unwrap();
        let mut net = Network::new();
        let mut trace = Trace::new();
        let id = net.add_machine(Arc::new(sip_call_machine(&config)));
        net.deliver_observed(id, invite_event(), 0, &mut trace);
        net.deliver_observed(id, ok_event("INVITE"), 10, &mut trace);
        net.deliver_observed(id, bye_event("ft", "tt"), 20, &mut trace);
        net.advance_time_observed(20 + 1_900, &mut trace);
        assert!(!net.all_final(), "ended before the linger");
        net.advance_time_observed(20 + 2_100, &mut trace);
        let path = trace.path_of(SIP_MACHINE);
        assert_eq!(path[path.len() - 2..], ["CALL_TEARDOWN", "TERMINATED"]);
    }

    #[test]
    fn rejected_call_terminates_after_ack() {
        let (mut net, id) = sip_only_network();
        net.deliver(id, invite_event(), 0);
        let busy = SipArgs::event("SIP.failure")
            .with_named("cseq_method", "INVITE")
            .with_named("status", 486u64);
        net.deliver(id, busy, 5);
        let out = net.deliver(id, Event::data("SIP.ACK"), 6);
        assert!(!out.is_suspicious());
        assert!(net.all_final());
    }
}
