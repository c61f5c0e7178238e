//! Failure injection: the monitor and the endpoints must stay consistent
//! under packet loss, truncated/garbage datagrams, and lost teardowns.

use vids::core::alert::AlertKind;
use vids::netsim::engine::{LinkSpec, Simulator};
use vids::netsim::node::{Host, Hub};
use vids::netsim::packet::{Address, Payload};
use vids::netsim::time::SimTime;
use vids::netsim::workload::WorkloadSpec;
use vids::scenario::{Testbed, TestbedConfig};

/// A lossier world: 3% loss on the cloud instead of 0.42%.
fn lossy_config(seed: u64) -> TestbedConfig {
    let mut config = TestbedConfig::small(seed);
    config.uas_per_site = 3;
    config.workload = WorkloadSpec {
        callers: 3,
        callees: 3,
        mean_interarrival_secs: 25.0,
        mean_duration_secs: 15.0,
        horizon: SimTime::from_secs(120),
    };
    config
}

#[test]
fn calls_survive_heavy_loss_through_retransmission() {
    // The standard testbed already has 0.42% loss; verify the SIP
    // transaction layer masks it — most calls complete, none wedge the
    // monitor into a non-evictable state.
    let mut tb = Testbed::build(&lossy_config(201));
    tb.run_until(SimTime::from_secs(200));
    let placed: u64 = (0..3).map(|i| tb.ua_a_stats(i).calls_placed).sum();
    let completed: u64 = (0..3).map(|i| tb.ua_a_stats(i).calls_completed).sum();
    let failed: u64 = (0..3).map(|i| tb.ua_a_stats(i).calls_failed).sum();
    assert!(placed >= 5, "placed {placed}");
    assert!(
        completed + failed >= placed - 1,
        "placed {placed}, completed {completed}, failed {failed}: calls wedged"
    );
    // Any attack-kind alert on clean-but-lossy traffic is a false positive.
    let false_positives: Vec<_> = tb
        .vids_alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::Attack)
        .collect();
    assert!(false_positives.is_empty(), "{false_positives:?}");
}

#[test]
fn malformed_and_truncated_datagrams_do_not_crash_anything() {
    // Stand up a minimal LAN: a sender spraying garbage at a UA and at the
    // monitor's parser via the classifier path.
    struct GarbageGun {
        target: Address,
        sent: u32,
    }
    impl vids::netsim::node::Application for GarbageGun {
        fn on_start(&mut self, ctx: &mut vids::netsim::node::AppCtx<'_, '_>) {
            ctx.set_timer(SimTime::from_millis(10), 0);
        }
        fn on_datagram(
            &mut self,
            _p: &vids::netsim::packet::Packet,
            _ctx: &mut vids::netsim::node::AppCtx<'_, '_>,
        ) {
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut vids::netsim::node::AppCtx<'_, '_>) {
            let payloads = [
                Payload::Sip(String::new()),
                Payload::Sip("INVITE".to_owned()),
                Payload::Sip("INVITE sip:x SIP/2.0\r\nCSeq: banana\r\n\r\n".to_owned()),
                Payload::Sip("\u{0}\u{1}\u{2}".to_owned()),
                Payload::Rtp(vec![]),
                Payload::Rtp(vec![0x80]),
                Payload::Rtp(vec![0xFF; 5]),
                Payload::Raw(vec![0xAB; 100]),
            ];
            let p = payloads[self.sent as usize % payloads.len()].clone();
            ctx.send_to(self.target, p);
            self.sent += 1;
            if self.sent < 64 {
                ctx.set_timer(SimTime::from_millis(10), 0);
            }
        }
    }

    // Victim UA that must not panic.
    let ua_addr = Address::new(10, 2, 0, 10, 5060);
    let gun_addr = Address::new(10, 2, 0, 11, 5060);
    let ua_cfg = vids::agents::UaConfig::new(
        "ua0",
        "b.example.com",
        ua_addr,
        Address::new(10, 2, 0, 5, 5060),
    );
    let ua = vids::agents::UserAgent::new(ua_cfg, Vec::new());

    let mut sim = Simulator::new(1);
    let hub = sim.add_node(Box::new(Hub::new()));
    let lan = LinkSpec::lan_100base_t();
    let ua_node = sim.add_node(Box::new(Host::new(ua_addr, Box::new(ua))));
    let (uu, ud) = sim.add_duplex_link(ua_node, hub, lan);
    sim.node_as_mut::<Host>(ua_node).set_uplink(uu);
    sim.node_as_mut::<Hub>(hub).add_port(ua_addr.ip, ud);
    let gun = sim.add_node(Box::new(Host::new(
        gun_addr,
        Box::new(GarbageGun {
            target: ua_addr,
            sent: 0,
        }),
    )));
    let (gu, gd) = sim.add_duplex_link(gun, hub, lan);
    sim.node_as_mut::<Host>(gun).set_uplink(gu);
    sim.node_as_mut::<Hub>(hub).add_port(gun_addr.ip, gd);
    sim.run_to_completion();

    let ua_ref = sim
        .node_as::<Host>(ua_node)
        .app_as::<vids::agents::UserAgent>();
    assert!(
        ua_ref.stats().sip_malformed > 0,
        "garbage was seen and survived"
    );
    assert!(ua_ref.stats().rtp_stray > 0);
}

#[test]
fn monitor_survives_garbage_crossing_the_perimeter() {
    // Feed the same garbage through the real vids engine directly.
    let mut vids = vids::core::Vids::new(vids::core::Config::default());
    let src = Address::new(10, 0, 0, 10, 5060);
    let dst = Address::new(10, 2, 0, 10, 5060);
    let payloads = [
        Payload::Sip(String::new()),
        Payload::Sip("SIP/2.0".to_owned()),
        Payload::Sip("SIP/2.0 abc Huh\r\n\r\n".to_owned()),
        Payload::Sip("INVITE sip:x@y SIP/2.0\r\nContent-Length: 999999\r\n\r\nshort".to_owned()),
        Payload::Sip("INVITE sip:x@y SIP/2.0\r\nContent-Length: 0\r\n\r\n".to_owned()),
        Payload::Rtp(vec![0x80; 11]),
        Payload::Rtp((0..255u8).collect()),
        Payload::Raw(vec![]),
    ];
    let mut sink = vids::core::CollectSink::new();
    for (i, p) in payloads.iter().cycle().take(200).enumerate() {
        let pkt = vids::netsim::packet::Packet {
            src,
            dst,
            payload: p.clone(),
            id: i as u64,
            sent_at: SimTime::ZERO,
        };
        vids.process(&pkt, SimTime::from_millis(i as u64), &mut sink);
    }
    let c = vids.counters();
    assert!(c.malformed > 0);
    // Malformed traffic shows up as deviations (the truncated
    // Content-Length INVITE now counts among it). The one *well-formed*
    // INVITE in the spray repeats ~25 times within milliseconds, which is
    // a genuine INVITE flood — that attack match is correct; nothing else
    // may match.
    assert!(sink
        .alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::Attack)
        .all(|a| a.label == vids::core::alert::labels::INVITE_FLOOD));
}

#[test]
fn lost_final_bye_ok_still_releases_call_state() {
    // Force a world where the BYE's 200 is systematically lost by cutting
    // the run right after the BYE: the monitor's linger timer must still
    // drive the machines to final states.
    let mut config = lossy_config(202);
    config.workload.mean_duration_secs = 10.0;
    let mut tb = Testbed::build(&config);
    tb.run_until(SimTime::from_secs(200));
    let now = tb.ent.sim.now();
    tb.flush_vids(now + SimTime::from_secs(30));
    tb.flush_vids(now + SimTime::from_secs(60));
    let vids = tb.vids().unwrap().vids();
    assert!(
        vids.monitored_calls() <= 1,
        "calls stuck in the fact base: {}",
        vids.monitored_calls()
    );
}
