//! Paper-fidelity tests: the shipped machines walk exactly the paths the
//! paper's figures draw, with the synchronization semantics §4.2 specifies.

use std::sync::Arc;

use vids::core::machines::{rtp::rtp_session_machine, sip::sip_call_machine};
use vids::core::Config;
use vids::efsm::network::Network;
use vids::efsm::Event;

fn fig2_network() -> Network {
    let mut net = Network::new();
    net.enable_trace();
    net.add_machine(Arc::new(sip_call_machine(&Config::default())));
    net.add_machine(Arc::new(rtp_session_machine(&Config::default())));
    net
}

fn invite_event() -> Event {
    Event::data("SIP.INVITE")
        .with_str("call_id", "fig2")
        .with_str("from_tag", "ft")
        .with_str("to_tag", "")
        .with_str("branch", "z9hG4bK-f2")
        .with_str("src_ip", "10.1.0.5")
        .with_str("dst_ip", "10.2.0.5")
        .with_str("cseq_method", "INVITE")
        .with_bool("has_sdp", true)
        .with_str("sdp_ip", "10.1.0.10")
        .with_uint("sdp_port", 20_000)
        .with_uint("sdp_pt", 18)
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
    let out = net.deliver(sip, invite_event(), 0);
    assert!(!out.is_suspicious());
    assert_eq!(out.transitions, 2, "SIP step plus the δ-driven RTP step");

    let trace = net.trace().unwrap();
    assert_eq!(trace.path_of("sip"), vec!["INIT", "INVITE_RCVD"]);
    assert_eq!(trace.path_of("rtp"), vec!["INIT", "RTP_OPEN"]);

    // "The media information contained in the SDP message body … are
    // available to RTP protocol machine by writing them into the global
    // shared variables."
    assert_eq!(net.globals().str("g_caller_media_ip"), Some("10.1.0.10"));
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
    net.deliver(sip, invite_event(), 0);

    // Answer publishes callee media and syncs δ.update...
    let ok = Event::data("SIP.2xx")
        .with_str("cseq_method", "INVITE")
        .with_str("to_tag", "tt")
        .with_bool("has_sdp", true)
        .with_str("sdp_ip", "10.2.0.10")
        .with_uint("sdp_port", 30_000);
    net.deliver(sip, ok, 10);

    // ...then an RTP data packet arrives. In the trace, the δ.update step
    // must precede the RTP.Packet step even though both touch the RTP
    // machine around the same wall-clock instant.
    let media = Event::data("RTP.Packet")
        .with_str("src_ip", "10.1.0.10")
        .with_uint("src_port", 20_000)
        .with_str("dst_ip", "10.2.0.10")
        .with_uint("dst_port", 30_000)
        .with_uint("ssrc", 7)
        .with_uint("seq", 1)
        .with_uint("ts", 0)
        .with_uint("pt", 18)
        .with_uint("size", 50);
    let out = net.deliver(rtp, media, 10);
    assert!(!out.is_suspicious());

    let rtp_steps: Vec<String> = net
        .trace()
        .unwrap()
        .for_machine("rtp")
        .map(|e| e.event.clone())
        .collect();
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
        Event::data("SIP.1xx")
            .with_str("to_tag", "tt")
            .with_str("cseq_method", "INVITE"),
    );
    drive(
        &mut net,
        sip,
        Event::data("SIP.2xx")
            .with_str("cseq_method", "INVITE")
            .with_str("to_tag", "tt")
            .with_bool("has_sdp", true)
            .with_str("sdp_ip", "10.2.0.10")
            .with_uint("sdp_port", 30_000),
    );
    drive(
        &mut net,
        sip,
        Event::data("SIP.ACK")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "tt"),
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
            Event::data("RTP.Packet")
                .with_str("src_ip", src)
                .with_uint("src_port", 20_000)
                .with_str("dst_ip", dst)
                .with_uint("dst_port", port)
                .with_uint("ssrc", ssrc)
                .with_uint("seq", 100 + i / 2)
                .with_uint("ts", (i / 2) * 80)
                .with_uint("pt", 18)
                .with_uint("size", 50),
        );
    }
    // Legitimate re-INVITE.
    drive(
        &mut net,
        sip,
        Event::data("SIP.INVITE")
            .with_str("call_id", "fig2")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "tt")
            .with_str("cseq_method", "INVITE")
            .with_bool("has_sdp", true)
            .with_str("sdp_ip", "10.1.0.10")
            .with_uint("sdp_port", 22_000),
    );
    drive(
        &mut net,
        sip,
        Event::data("SIP.BYE")
            .with_str("from_tag", "ft")
            .with_str("to_tag", "tt")
            .with_str("cseq_method", "BYE"),
    );
    drive(
        &mut net,
        sip,
        Event::data("SIP.2xx").with_str("cseq_method", "BYE"),
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
