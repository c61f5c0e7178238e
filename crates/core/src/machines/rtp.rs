//! The per-call RTP media machine (Fig. 2 RTP side, Fig. 5, Fig. 6).
//!
//! The machine opens when the SIP machine synchronizes it (`δ.open`),
//! validates every media packet against the coordinates the SIP machine
//! published in the call-global variables, tracks per-direction
//! SSRC/sequence/timestamp state for the media-spamming pattern (Fig. 6),
//! rate-limits each direction (RTP flooding), and implements the Fig. 5
//! cross-protocol BYE pattern: on `δ.bye` it arms timer `T`; media arriving
//! after `T` expires is the BYE-DoS / billing-fraud signature.

use vids_efsm::machine::{ActionCtx, MachineDef, PredicateCtx};
use vids_efsm::{sym, Event, Sym, Var};

use crate::alert::labels;
use crate::config::Config;
use crate::machines::{
    CallGlobals, RtpArgs, DELTA_BYE, DELTA_OPEN, DELTA_REOPEN, DELTA_UPDATE, RTP_MACHINE,
};

/// Timer name for the in-flight drain window (Fig. 5's `T`).
pub const TIMER_T: &str = "T_inflight";
/// Timer name for the rate-counting window.
pub const TIMER_WINDOW: &str = "T_window";

/// One direction's stream cursor: the locals the machine keeps per
/// direction of a call's media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirVars {
    ssrc: Var<u64>,
    seq: Var<u64>,
    ts: Var<u64>,
    count: Var<u64>,
}

/// The RTP machine's variables: a cursor per direction and the call
/// globals the SIP machine publishes — and the handles of the event
/// arguments it reads.
#[derive(Debug, Clone, Copy)]
struct RtpVars {
    fwd: DirVars,
    rev: DirVars,
    g: CallGlobals,
    x: RtpArgs,
}

/// The direction of a media packet relative to the negotiated endpoints.
///
/// Symbol compares against slot reads: this runs inside every RTP
/// transition predicate, so it must not hash a name string or take the
/// interner lock.
fn direction_of(ctx: &PredicateCtx<'_>, v: RtpVars) -> Option<DirVars> {
    let src = ctx.event.get(v.x.src_ip)?;
    if src == sym::EMPTY {
        return None;
    }
    if ctx.get(v.g.caller_media_ip) == Some(src) {
        Some(v.fwd)
    } else if ctx.get(v.g.callee_media_ip) == Some(src) {
        Some(v.rev)
    } else {
        None
    }
}

/// Direction for paths where the predicate already ruled out a foreign
/// source: caller-side is FWD, anything else is REV.
fn dir_or_rev(event: &Event, caller_media_ip: Option<Sym>, v: RtpVars) -> DirVars {
    let caller = event
        .get(v.x.src_ip)
        .is_some_and(|src| caller_media_ip == Some(src));
    if caller {
        v.fwd
    } else {
        v.rev
    }
}

fn payload_type_ok(ctx: &PredicateCtx<'_>, v: RtpVars) -> bool {
    match ctx.get(v.g.codec_pt) {
        Some(pt) if pt != 255 => ctx.event.get(v.x.pt) == Some(pt),
        // No codec negotiated (SDP-less signaling): accept any.
        _ => true,
    }
}

/// Per-direction stream knowledge: `(ssrc, seq, ts)` if initialized.
fn known_stream(ctx: &PredicateCtx<'_>, dir: DirVars) -> Option<(u64, u64, u64)> {
    Some((ctx.get(dir.ssrc)?, ctx.get(dir.seq)?, ctx.get(dir.ts)?))
}

/// 16-bit serial-arithmetic gap between stored and incoming sequence.
fn seq_gap(stored: u64, incoming: u64) -> i64 {
    vids_rtp::seq::seq_distance(incoming as u16, stored as u16) as i64
}

/// 32-bit wrapping gap between stored and incoming timestamps.
fn ts_gap(stored: u64, incoming: u64) -> i64 {
    (incoming as u32).wrapping_sub(stored as u32) as i32 as i64
}

/// Classification of a media packet against the machine's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PacketClass {
    /// Valid continuation (or first packet) of a direction's stream.
    Normal,
    /// First packet of a not-yet-seen direction.
    FirstOfDirection,
    /// Same SSRC but a sequence/timestamp discontinuity beyond thresholds.
    SpamGap,
    /// A second SSRC appeared within one direction.
    UnknownSsrc,
    /// Payload type differs from the negotiated codec.
    CodecViolation,
    /// Source matches neither negotiated endpoint.
    ForeignSource,
}

fn classify_packet(
    ctx: &PredicateCtx<'_>,
    v: RtpVars,
    seq_thresh: i64,
    ts_thresh: i64,
) -> PacketClass {
    let Some(dir) = direction_of(ctx, v) else {
        return PacketClass::ForeignSource;
    };
    if !payload_type_ok(ctx, v) {
        return PacketClass::CodecViolation;
    }
    let ssrc = ctx.event.get(v.x.ssrc).unwrap_or(0);
    let seq = ctx.event.get(v.x.seq).unwrap_or(0);
    let ts = ctx.event.get(v.x.ts).unwrap_or(0);
    match known_stream(ctx, dir) {
        None => PacketClass::FirstOfDirection,
        Some((k_ssrc, k_seq, k_ts)) => {
            if ssrc != k_ssrc {
                return PacketClass::UnknownSsrc;
            }
            // Fig. 6's rule: (x.time_stamp_{i+1} − v.time_stamp_i > Δt) or
            // (x.sequence_number_{i+1} − v.sequence_number_i > Δn).
            if seq_gap(k_seq, seq) > seq_thresh || ts_gap(k_ts, ts) > ts_thresh {
                PacketClass::SpamGap
            } else {
                PacketClass::Normal
            }
        }
    }
}

fn update_stream_vars(ctx: &mut ActionCtx<'_>, v: RtpVars) {
    let dir = dir_or_rev(ctx.event, ctx.get(v.g.caller_media_ip), v);
    let ev = ctx.event;
    ctx.set(dir.ssrc, ev.get(v.x.ssrc).unwrap_or(0));
    ctx.set(dir.seq, ev.get(v.x.seq).unwrap_or(0));
    ctx.set(dir.ts, ev.get(v.x.ts).unwrap_or(0));
    ctx.increment(dir.count);
}

fn window_count_next(ctx: &PredicateCtx<'_>, v: RtpVars) -> u64 {
    let dir = dir_or_rev(ctx.event, ctx.get(v.g.caller_media_ip), v);
    ctx.get(dir.count).unwrap_or(0) + 1
}

/// Builds the RTP session machine.
pub fn rtp_session_machine(config: &Config) -> MachineDef {
    let seq_thresh = config.spam_seq_gap;
    let ts_thresh = config.spam_ts_gap;
    let flood_max = config.rtp_flood_max_packets;
    let t_ms = config.bye_dos_t.as_millis();
    let window_ms = config.rtp_flood_window.as_millis();

    let mut def = MachineDef::new(RTP_MACHINE);
    let (globals, g) = CallGlobals::declare();
    def.share_globals(&globals);
    def.reads(RtpArgs::schema());
    let mut cursor = |ssrc, seq, ts, count| DirVars {
        ssrc: def.local(ssrc),
        seq: def.local(seq),
        ts: def.local(ts),
        count: def.local(count),
    };
    let fwd = cursor(
        sym::L_FWD_SSRC,
        sym::L_FWD_SEQ,
        sym::L_FWD_TS,
        sym::L_FWD_COUNT,
    );
    let rev = cursor(
        sym::L_REV_SSRC,
        sym::L_REV_SEQ,
        sym::L_REV_TS,
        sym::L_REV_COUNT,
    );
    let v = RtpVars {
        fwd,
        rev,
        g,
        x: *RtpArgs::get(),
    };
    let class = move |ctx: &PredicateCtx<'_>| classify_packet(ctx, v, seq_thresh, ts_thresh);
    let init = def.add_state("INIT");
    let open = def.add_state("RTP_OPEN");
    let active = def.add_state("RTP_RCVD");
    let closing = def.add_state("RTP_CLOSING");
    let closed = def.add_state("RTP_CLOSED");
    let spam = def.add_state("MEDIA_SPAM_DETECTED");
    let unknown_ssrc = def.add_state("UNKNOWN_SSRC_DETECTED");
    let codec = def.add_state("CODEC_VIOLATION_DETECTED");
    let foreign = def.add_state("FOREIGN_SOURCE_DETECTED");
    let flood = def.add_state("RTP_FLOOD_DETECTED");
    let after_bye = def.add_state("RTP_AFTER_BYE_DETECTED");

    def.mark_final(closed);
    def.mark_attack(spam, labels::MEDIA_SPAM);
    def.mark_attack(unknown_ssrc, labels::RTP_UNKNOWN_SSRC);
    def.mark_attack(codec, labels::RTP_CODEC_VIOLATION);
    def.mark_attack(foreign, labels::RTP_FOREIGN_SOURCE);
    def.mark_attack(flood, labels::RTP_FLOOD);
    def.mark_attack(after_bye, labels::RTP_AFTER_BYE);

    // ---- INIT ----------------------------------------------------------
    def.add_transition(init, DELTA_OPEN, open)
        .label("SIP machine synchronized call setup");

    // ---- RTP_OPEN ------------------------------------------------------
    def.add_transition(open, DELTA_UPDATE, open)
        .label("answer SDP published");
    def.add_transition(open, DELTA_BYE, closing)
        .action(move |ctx| ctx.set_timer(TIMER_T, t_ms))
        .label("call torn down before media flowed");
    def.add_transition(open, "RTP.Packet", active)
        .predicate(move |ctx| {
            matches!(
                class(ctx),
                PacketClass::Normal | PacketClass::FirstOfDirection
            )
        })
        .action(move |ctx| {
            update_stream_vars(ctx, v);
            ctx.set_timer(TIMER_WINDOW, window_ms);
        })
        .label("first media packet");
    def.add_transition(open, "RTP.Packet", codec)
        .predicate(move |ctx| class(ctx) == PacketClass::CodecViolation);
    def.add_transition(open, "RTP.Packet", foreign)
        .predicate(move |ctx| class(ctx) == PacketClass::ForeignSource);

    // ---- RTP_RCVD (active session) ---------------------------------------
    def.add_transition(active, "RTP.Packet", active)
        .predicate(move |ctx| {
            matches!(
                class(ctx),
                PacketClass::Normal | PacketClass::FirstOfDirection
            ) && window_count_next(ctx, v) <= flood_max
        })
        .action(move |ctx| update_stream_vars(ctx, v))
        .label("in-profile media");
    def.add_transition(active, "RTP.Packet", flood)
        .predicate(move |ctx| {
            matches!(
                class(ctx),
                PacketClass::Normal | PacketClass::FirstOfDirection
            ) && window_count_next(ctx, v) > flood_max
        })
        .label("rate budget exceeded");
    def.add_transition(active, "RTP.Packet", spam)
        .predicate(move |ctx| class(ctx) == PacketClass::SpamGap)
        .label("sequence/timestamp discontinuity");
    def.add_transition(active, "RTP.Packet", unknown_ssrc)
        .predicate(move |ctx| class(ctx) == PacketClass::UnknownSsrc);
    def.add_transition(active, "RTP.Packet", codec)
        .predicate(move |ctx| class(ctx) == PacketClass::CodecViolation);
    def.add_transition(active, "RTP.Packet", foreign)
        .predicate(move |ctx| class(ctx) == PacketClass::ForeignSource);
    def.add_transition(active, TIMER_WINDOW, active)
        .action(move |ctx| {
            ctx.set(fwd.count, 0);
            ctx.set(rev.count, 0);
            ctx.set_timer(TIMER_WINDOW, window_ms);
        })
        .label("rate window reset");
    def.add_transition(active, DELTA_UPDATE, active)
        .action(move |ctx| {
            // Re-INVITE moved the media: forget per-direction stream state.
            for dir in [fwd, rev] {
                ctx.remove(dir.ssrc);
                ctx.remove(dir.seq);
                ctx.remove(dir.ts);
            }
        })
        .label("media coordinates updated");
    def.add_transition(active, DELTA_BYE, closing)
        .action(move |ctx| {
            ctx.set_timer(TIMER_T, t_ms);
            ctx.cancel_timer(TIMER_WINDOW);
        })
        .label("BYE observed; draining in-flight media");

    // ---- RTP_CLOSING (Fig. 5's intermediate state) -----------------------
    def.add_transition(closing, "RTP.Packet", closing)
        .predicate(move |ctx| class(ctx) != PacketClass::ForeignSource)
        .label("in-flight packet within T");
    def.add_transition(closing, "RTP.Packet", foreign)
        .predicate(move |ctx| class(ctx) == PacketClass::ForeignSource);
    def.add_transition(closing, TIMER_T, closed)
        .label("drain window expired");
    def.add_transition(closing, DELTA_REOPEN, active)
        .action(move |ctx| {
            ctx.cancel_timer(TIMER_T);
            ctx.set_timer(TIMER_WINDOW, window_ms);
        })
        .label("teardown rejected; media legitimate again");
    def.add_transition(closing, DELTA_BYE, closing)
        .label("BYE retransmission");

    // ---- RTP_CLOSED (final): Fig. 5's detection point --------------------
    def.add_transition(closed, "RTP.Packet", after_bye)
        .label("RTP after BYE + T: BYE DoS / billing fraud");
    def.add_transition(closed, DELTA_BYE, closed)
        .label("late BYE retransmission");

    // Attack states absorb follow-on traffic.
    for s in [spam, unknown_ssrc, codec, foreign, flood, after_bye] {
        def.add_transition(s, "*", s);
    }

    // Predicates partition on `PacketClass` (an exhaustive enum match per
    // transition) and the flood budget; verified by the busy-call
    // determinism test and the debug-build exhaustive scan.
    def.declare_deterministic();
    def.build().expect("rtp machine definition is valid")
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vids_efsm::network::Network;
    use vids_efsm::Event;

    const CALLER_IP: &str = "10.1.0.10";
    const CALLEE_IP: &str = "10.2.0.10";

    fn rtp_network(config: &Config) -> (Network, vids_efsm::network::MachineId) {
        let def = Arc::new(rtp_session_machine(config));
        let mut net = Network::new();
        let id = net.add_machine(def);
        // Globals the SIP machine would have published.
        let (_, g) = CallGlobals::declare();
        net.set(id, g.caller_media_ip, Sym::intern(CALLER_IP));
        net.set(id, g.caller_media_port, 20_000);
        net.set(id, g.callee_media_ip, Sym::intern(CALLEE_IP));
        net.set(id, g.callee_media_port, 30_000);
        net.set(id, g.codec_pt, 18);
        (net, id)
    }

    fn open(net: &mut Network, id: vids_efsm::network::MachineId) {
        let out = net.deliver(id, Event::sync(DELTA_OPEN), 0);
        assert!(!out.is_suspicious());
    }

    fn rtp_packet(src: &str, ssrc: u64, seq: u64, ts: u64, pt: u64) -> Event {
        RtpArgs::event("RTP.Packet")
            .with_named("src_ip", src)
            .with_named("src_port", 20_000u64)
            .with_named("dst_ip", CALLEE_IP)
            .with_named("dst_port", 30_000u64)
            .with_named("ssrc", ssrc)
            .with_named("seq", seq)
            .with_named("ts", ts)
            .with_named("pt", pt)
            .with_named("size", 50u64)
    }

    #[test]
    fn normal_stream_stays_in_profile() {
        let (mut net, id) = rtp_network(&Config::default());
        open(&mut net, id);
        for i in 0..200u64 {
            let out = net.deliver(
                id,
                rtp_packet(CALLER_IP, 7, 100 + i, 8_000 + i * 80, 18),
                10 * i,
            );
            assert!(!out.is_suspicious(), "packet {i}");
        }
        assert_eq!(net.instance(id).state_name(net.definition(id)), "RTP_RCVD");
    }

    #[test]
    fn both_directions_tracked_independently() {
        let (mut net, id) = rtp_network(&Config::default());
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        let out = net.deliver(id, rtp_packet(CALLEE_IP, 9, 5_000, 0, 18), 5);
        assert!(!out.is_suspicious(), "reverse stream with own SSRC is fine");
        // And each continues independently.
        let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 101, 80, 18), 10);
        assert!(!out.is_suspicious());
        let out = net.deliver(id, rtp_packet(CALLEE_IP, 9, 5_001, 80, 18), 15);
        assert!(!out.is_suspicious());
    }

    #[test]
    fn sequence_jump_triggers_media_spam() {
        let cfg = Config::default();
        let (mut net, id) = rtp_network(&cfg);
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        // Same SSRC, sequence jumped by more than spam_seq_gap.
        let out = net.deliver(
            id,
            rtp_packet(CALLER_IP, 7, 100 + cfg.spam_seq_gap as u64 + 5, 80, 18),
            10,
        );
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].label, labels::MEDIA_SPAM);
    }

    #[test]
    fn timestamp_jump_triggers_media_spam() {
        let cfg = Config::default();
        let (mut net, id) = rtp_network(&cfg);
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        let out = net.deliver(
            id,
            rtp_packet(CALLER_IP, 7, 101, cfg.spam_ts_gap as u64 + 80, 18),
            10,
        );
        assert_eq!(out.alerts[0].label, labels::MEDIA_SPAM);
    }

    #[test]
    fn small_gaps_from_packet_loss_are_tolerated() {
        let (mut net, id) = rtp_network(&Config::default());
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        // 3 packets lost: seq 104, ts advanced 4 frames.
        let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 104, 320, 18), 40);
        assert!(!out.is_suspicious());
    }

    #[test]
    fn new_ssrc_in_same_direction_is_flagged() {
        let (mut net, id) = rtp_network(&Config::default());
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        let out = net.deliver(id, rtp_packet(CALLER_IP, 999, 1, 0, 18), 10);
        assert_eq!(out.alerts[0].label, labels::RTP_UNKNOWN_SSRC);
    }

    #[test]
    fn wrong_payload_type_is_codec_violation() {
        let (mut net, id) = rtp_network(&Config::default());
        open(&mut net, id);
        let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 0), 0);
        assert_eq!(out.alerts[0].label, labels::RTP_CODEC_VIOLATION);
    }

    #[test]
    fn foreign_source_is_flagged() {
        let (mut net, id) = rtp_network(&Config::default());
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        let out = net.deliver(id, rtp_packet("10.0.0.66", 7, 101, 80, 18), 10);
        assert_eq!(out.alerts[0].label, labels::RTP_FOREIGN_SOURCE);
    }

    #[test]
    fn rate_flood_detected_within_window() {
        let mut cfg = Config::default();
        cfg.rtp_flood_max_packets = 50;
        let (mut net, id) = rtp_network(&cfg);
        open(&mut net, id);
        let mut alerted = None;
        for i in 0..60u64 {
            // All within one 1-second window, small gaps.
            let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 100 + i, i * 80, 18), i);
            if let Some(a) = out.alerts.first() {
                alerted = Some((i, a.label));
                break;
            }
        }
        let (at, label) = alerted.expect("flood must be detected");
        assert_eq!(label, labels::RTP_FLOOD);
        assert_eq!(at, 50, "51st packet in the window crosses the budget");
    }

    #[test]
    fn window_reset_prevents_false_flood() {
        let mut cfg = Config::default();
        cfg.rtp_flood_max_packets = 150;
        let (mut net, id) = rtp_network(&cfg);
        open(&mut net, id);
        // 100 packets/s for 3 s — exactly G.729's legitimate rate; window
        // resets keep the counter under the budget.
        let mut t = 0u64;
        for i in 0..300u64 {
            net.advance_time(t);
            let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 100 + i, i * 80, 18), t);
            assert!(!out.is_suspicious(), "packet {i} at {t} ms");
            t += 10;
        }
    }

    #[test]
    fn fig5_bye_dos_pattern() {
        let cfg = Config::default();
        let (mut net, id) = rtp_network(&cfg);
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        // BYE observed: δ from the SIP machine.
        let out = net.deliver(id, Event::sync(DELTA_BYE), 1_000);
        assert!(!out.is_suspicious());
        assert_eq!(
            net.instance(id).state_name(net.definition(id)),
            "RTP_CLOSING"
        );
        // In-flight packets within T are fine.
        let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 101, 80, 18), 1_050);
        assert!(!out.is_suspicious());
        // T expires -> RTP_CLOSED (final).
        net.advance_time(1_000 + cfg.bye_dos_t.as_millis());
        assert!(net.all_final());
        // Media after T: the attack.
        let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 150, 4_000, 18), 2_000);
        assert_eq!(out.alerts[0].label, labels::RTP_AFTER_BYE);
    }

    #[test]
    fn clean_teardown_reaches_final_without_alerts() {
        let cfg = Config::default();
        let (mut net, id) = rtp_network(&cfg);
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        net.deliver(id, Event::sync(DELTA_BYE), 500);
        let out = net.advance_time(500 + cfg.bye_dos_t.as_millis());
        assert!(!out.is_suspicious());
        assert!(net.all_final());
    }

    #[test]
    fn media_before_signaling_is_deviation() {
        let (mut net, id) = rtp_network(&Config::default());
        // No δ.open yet: the machine is still in INIT.
        let out = net.deliver(id, rtp_packet(CALLER_IP, 7, 1, 0, 18), 0);
        assert_eq!(out.deviations.len(), 1);
    }

    #[test]
    fn reinvite_update_resets_stream_state() {
        let (mut net, id) = rtp_network(&Config::default());
        open(&mut net, id);
        net.deliver(id, rtp_packet(CALLER_IP, 7, 100, 0, 18), 0);
        // Media moves (re-INVITE): new SSRC afterwards must be accepted.
        net.deliver(id, Event::sync(DELTA_UPDATE), 10);
        let out = net.deliver(id, rtp_packet(CALLER_IP, 4242, 1, 0, 18), 20);
        assert!(!out.is_suspicious());
    }
}
