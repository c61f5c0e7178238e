//! Paper-fidelity tests: the shipped machines walk exactly the paths the
//! paper's figures draw, with the synchronization semantics §4.2 specifies.

use std::net::Ipv4Addr;
use std::sync::Arc;

use vids::core::machines::{rtp::rtp_session_machine, sip::sip_call_machine, RtpArgs, SipArgs};
use vids::core::Config;
use vids::efsm::network::Network;
use vids::efsm::{Event, Trace};

fn fig2_network() -> Network {
    let mut net = Network::new();
    net.add_machine(Arc::new(sip_call_machine(&Config::default())));
    net.add_machine(Arc::new(rtp_session_machine(&Config::default())));
    net
}

fn ip(text: &str) -> Ipv4Addr {
    text.parse().unwrap()
}

fn invite_event() -> Event {
    SipArgs::event("SIP.INVITE")
        .with_named("call_id", "fig2")
        .with_named("from_tag", "ft")
        .with_named("to_tag", "")
        .with_named("branch", "z9hG4bK-f2")
        .with_named("src_ip", ip("10.1.0.5"))
        .with_named("dst_ip", ip("10.2.0.5"))
        .with_named("cseq_method", "INVITE")
        .with_named("has_sdp", true)
        .with_named("sdp_ip", ip("10.1.0.10"))
        .with_named("sdp_port", 20_000u64)
        .with_named("sdp_pt", 18u64)
}

/// Fig. 2(a): "The (INIT) state of a SIP protocol state machine makes a
/// transition … to the (INVITE Rcvd) state, and sends a synchronization
/// message (i.e. c!δ_SIP→RTP) to the RTP state machine. … On receiving a
/// synchronization event from the communication channel, the RTP machine
/// makes a transition from the (INIT) state to the (RTP Open) state."
#[test]
fn fig2_invite_synchronizes_both_machines() {
    let mut net = fig2_network();
    let sip = net.machine_by_name("sip").unwrap();
    let mut trace = Trace::new();
    let out = net.deliver_observed(sip, invite_event(), 0, &mut trace);
    assert!(!out.is_suspicious());
    assert_eq!(out.transitions, 2, "SIP step plus the δ-driven RTP step");

    assert_eq!(trace.path_of("sip"), vec!["INIT", "INVITE_RCVD"]);
    assert_eq!(trace.path_of("rtp"), vec!["INIT", "RTP_OPEN"]);

    // "The media information contained in the SDP message body … are
    // available to RTP protocol machine by writing them into the global
    // shared variables."
    assert_eq!(net.globals().ip("g_caller_media_ip"), Some(ip("10.1.0.10")));
    assert_eq!(net.globals().uint("g_caller_media_port"), Some(20_000));
    assert_eq!(net.globals().uint("g_codec_pt"), Some(18));
}

/// §4.2: "The synchronization events waiting in a FIFO queue have higher
/// priority than the data packet events." A δ emitted during a SIP step is
/// consumed by the RTP machine *before* the next data packet is processed —
/// visible in the trace ordering.
#[test]
fn sync_events_outrank_data_events() {
    let mut net = fig2_network();
    let sip = net.machine_by_name("sip").unwrap();
    let rtp = net.machine_by_name("rtp").unwrap();
    let mut trace = Trace::new();
    net.deliver_observed(sip, invite_event(), 0, &mut trace);

    // Answer publishes callee media and syncs δ.update...
    let ok = SipArgs::event("SIP.2xx")
        .with_named("cseq_method", "INVITE")
        .with_named("to_tag", "tt")
        .with_named("has_sdp", true)
        .with_named("sdp_ip", ip("10.2.0.10"))
        .with_named("sdp_port", 30_000u64);
    net.deliver_observed(sip, ok, 10, &mut trace);

    // ...then an RTP data packet arrives. In the trace, the δ.update step
    // must precede the RTP.Packet step even though both touch the RTP
    // machine around the same wall-clock instant.
    let media = RtpArgs::event("RTP.Packet")
        .with_named("src_ip", ip("10.1.0.10"))
        .with_named("src_port", 20_000u64)
        .with_named("dst_ip", ip("10.2.0.10"))
        .with_named("dst_port", 30_000u64)
        .with_named("ssrc", 7u64)
        .with_named("seq", 1u64)
        .with_named("ts", 0u64)
        .with_named("pt", 18u64)
        .with_named("size", 50u64);
    let out = net.deliver_observed(rtp, media, 10, &mut trace);
    assert!(!out.is_suspicious());

    let rtp_steps: Vec<String> = trace.for_machine("rtp").map(|e| e.event.clone()).collect();
    let update_pos = rtp_steps
        .iter()
        .position(|e| e.contains("δ.update"))
        .unwrap();
    let packet_pos = rtp_steps
        .iter()
        .position(|e| e.contains("RTP.Packet"))
        .unwrap();
    assert!(
        update_pos < packet_pos,
        "δ must be drained before the data event: {rtp_steps:?}"
    );
}

/// Definition 1 requires mutually disjoint predicates (a deterministic
/// EFSM). Drive a full busy call — setup, media both ways, re-INVITE,
/// losses, teardown, stragglers — and assert the engine never reports
/// nondeterminism.
#[test]
fn machines_stay_deterministic_through_a_busy_call() {
    let mut net = fig2_network();
    let sip = net.machine_by_name("sip").unwrap();
    let rtp = net.machine_by_name("rtp").unwrap();
    let mut nondet = false;
    let mut t = 0u64;
    let mut drive = |net: &mut Network, m, ev| {
        t += 10;
        let out = net.deliver(m, ev, t);
        nondet |= out.nondeterministic;
    };

    drive(&mut net, sip, invite_event());
    drive(&mut net, sip, invite_event()); // retransmission
    drive(
        &mut net,
        sip,
        SipArgs::event("SIP.1xx")
            .with_named("to_tag", "tt")
            .with_named("cseq_method", "INVITE"),
    );
    drive(
        &mut net,
        sip,
        SipArgs::event("SIP.2xx")
            .with_named("cseq_method", "INVITE")
            .with_named("to_tag", "tt")
            .with_named("has_sdp", true)
            .with_named("sdp_ip", ip("10.2.0.10"))
            .with_named("sdp_port", 30_000u64),
    );
    drive(
        &mut net,
        sip,
        SipArgs::event("SIP.ACK")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "tt"),
    );
    for i in 0..50u64 {
        let (src, dst, port, ssrc) = if i % 2 == 0 {
            ("10.1.0.10", "10.2.0.10", 30_000u64, 7u64)
        } else {
            ("10.2.0.10", "10.1.0.10", 20_000, 9)
        };
        drive(
            &mut net,
            rtp,
            RtpArgs::event("RTP.Packet")
                .with_named("src_ip", ip(src))
                .with_named("src_port", 20_000u64)
                .with_named("dst_ip", ip(dst))
                .with_named("dst_port", port)
                .with_named("ssrc", ssrc)
                .with_named("seq", 100 + i / 2)
                .with_named("ts", (i / 2) * 80)
                .with_named("pt", 18u64)
                .with_named("size", 50u64),
        );
    }
    // Legitimate re-INVITE.
    drive(
        &mut net,
        sip,
        SipArgs::event("SIP.INVITE")
            .with_named("call_id", "fig2")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "tt")
            .with_named("cseq_method", "INVITE")
            .with_named("has_sdp", true)
            .with_named("sdp_ip", ip("10.1.0.10"))
            .with_named("sdp_port", 22_000u64),
    );
    drive(
        &mut net,
        sip,
        SipArgs::event("SIP.BYE")
            .with_named("from_tag", "ft")
            .with_named("to_tag", "tt")
            .with_named("cseq_method", "BYE"),
    );
    drive(
        &mut net,
        sip,
        SipArgs::event("SIP.2xx").with_named("cseq_method", "BYE"),
    );
    net.advance_time(t + 10_000);

    assert!(!nondet, "predicates must be mutually disjoint (Def. 1)");
    assert!(net.all_final(), "call must complete");
}

/// §7.3: "with each call, only one instance of a protocol state machine is
/// maintained at the memory. Once the calls have successfully reached the
/// final state, the corresponding protocol state machines will be deleted."
/// The definitions themselves are shared, so a thousand concurrent networks
/// cost only configurations.
#[test]
fn definitions_are_shared_across_call_networks() {
    let sip = Arc::new(sip_call_machine(&Config::default()));
    let rtp = Arc::new(rtp_session_machine(&Config::default()));
    let mut nets = Vec::new();
    for _ in 0..1_000 {
        let mut n = Network::new();
        n.add_machine(Arc::clone(&sip));
        n.add_machine(Arc::clone(&rtp));
        nets.push(n);
    }
    assert_eq!(Arc::strong_count(&sip), 1_001);
    let per_call: usize = nets.iter().map(|n| n.memory_bytes()).sum::<usize>() / nets.len();
    assert!(per_call < 1_024, "fresh per-call state {per_call} B");
}

/// Fig. 4: once `pck_counter` passes N inside T1 the machine sits in
/// `FLOOD_DETECTED` and every further INVITE re-enters it through
/// `attack --*--> attack`. The network reports each entry — one
/// `AttackAlert` per delivery — and leaves it to the engine's dedup set to
/// tell the administrator once: suppression is the engine's decision, not
/// something the machines hide.
#[test]
fn fig4_flood_machine_reports_every_re_entry() {
    use vids::core::alert::labels;
    use vids::core::machines::flood::invite_flood_machine;

    let config = Config::default();
    let mut net = Network::new();
    let flood = net.add_machine(Arc::new(invite_flood_machine(&config)));
    for i in 0..config.invite_flood_n {
        let out = net.deliver(flood, Event::data("SIP.INVITE"), i);
        assert!(out.alerts.is_empty(), "INVITE {i} is under the threshold");
    }
    for i in 0..50 {
        let now = config.invite_flood_n + i;
        let out = net.deliver(flood, Event::data("SIP.INVITE"), now);
        assert_eq!(out.alerts.len(), 1, "INVITE {i} past the threshold");
        assert_eq!(out.alerts[0].label, labels::INVITE_FLOOD);
        assert_eq!(out.alerts[0].machine, "flood");
        assert_eq!(out.alerts[0].time_ms, now);
        assert_eq!(out.transitions, 1);
    }
    let state = net.instance(flood).state_name(net.definition(flood));
    assert_eq!(state, "FLOOD_DETECTED");
}
