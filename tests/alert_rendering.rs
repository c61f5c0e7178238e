//! A rendering pin: every alert raised on the mixed trace, on a set of the
//! E6 attack runs and on the E7 BYE-DoS trace, rendered three ways — its
//! `Display` line, its row of the report's CSV export and the detail a
//! `.vdump` decodes back to — and compared byte for byte with a committed
//! file. The file was generated when an alert's detail was still a
//! formatted string; an alert whose detail is a value must render the
//! same bytes. On a mismatch the test writes what it rendered under
//! Cargo's target temp directory; copying that over the pin is for a
//! change that means to alter what alerts say.

use std::fmt::Write as _;
use std::path::PathBuf;

use vids::attacks::craft::{self, Target};
use vids::attacks::AttackKind;
use vids::core::alert::Alert;
use vids::core::engine::VidsCounters;
use vids::core::report::AlertReport;
use vids::core::{CollectSink, Config, CostModel, Vids};
use vids::netsim::packet::{Address, Payload};
use vids::netsim::time::SimTime;
use vids::netsim::topology::{ua_addr, SITE_A, SITE_B};
use vids::record::{DumpCounters, Vdump};
use vids::rtp::packet::RtpPacket;
use vids::scenario::{Testbed, TestbedConfig};
use vids::sdp::{Codec, SessionDescription};
use vids::sip::{Method, Request, SipUri, StatusCode};
use vids_harness::matrix::{plain, run};
use vids_harness::traffic::{invite, mixed_trace, pkt};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The detail a `.vdump` carrying `alert` decodes back to.
fn vdump_detail(alert: &Alert) -> String {
    let dump = Vdump {
        config: Config::default(),
        tenants: None,
        telemetry_ring: 0,
        packets: Vec::new(),
        alert: alert.clone(),
        snapshot: None,
        counters: DumpCounters {
            counters: VidsCounters::default(),
            alerts_total: 1,
        },
    };
    let decoded = Vdump::parse(&dump.encode()).expect("a dump decodes");
    decoded.alert.detail.to_string()
}

fn render(out: &mut String, run: &str, alerts: &[Alert]) {
    let _ = writeln!(out, "## {run}: {} alert(s)", alerts.len());
    for alert in alerts {
        let csv = AlertReport::from_alerts(std::slice::from_ref(alert)).to_csv();
        let row = csv.split_once('\n').map_or("", |(_, row)| row);
        let _ = writeln!(out, "display: {alert}");
        let _ = write!(out, "csv: {row}");
        let _ = writeln!(out, "vdump: {}", vdump_detail(alert));
    }
}

/// The mixed trace through a plain engine, one datagram at a time.
fn mixed_trace_alerts(telemetry: bool) -> Vec<Alert> {
    let engine = if telemetry {
        plain().telemetry()
    } else {
        plain()
    };
    run(&mixed_trace(), 1, &engine).untagged()
}

fn attackable(seed: u64) -> Testbed {
    let mut config = TestbedConfig::small(seed);
    config.workload.mean_interarrival_secs = 5.0;
    config.workload.mean_duration_secs = 600.0;
    config.workload.horizon = secs(30);
    Testbed::build(&config)
}

fn testbed_alerts(tb: &Testbed) -> Vec<Alert> {
    tb.vids_alerts().to_vec()
}

fn invite_flood() -> Vec<Alert> {
    let mut tb = attackable(21);
    let (attacker, _) = tb.add_attacker();
    let target_uri = vids::agents::ua_uri(0, vids::agents::site_domain(SITE_B));
    tb.attacker_mut(attacker).schedule(
        secs(5),
        AttackKind::InviteFlood {
            target_uri,
            target_addr: ua_addr(SITE_B, 0),
            rate_pps: 100.0,
            count: 50,
        },
    );
    tb.run_until(secs(20));
    testbed_alerts(&tb)
}

fn spoofed_bye(seed: u64, lazy: bool) -> Vec<Alert> {
    let mut tb = attackable(seed);
    let (attacker, _) = tb.add_attacker();
    let mut snap = tb
        .run_until_call_established(0, secs(1), secs(120))
        .expect("no call established");
    if lazy {
        snap.caller_from.set_tag("forged-tag");
        snap.callee_to.set_tag("forged-tag-2");
    }
    let attack_at = tb.ent.sim.now() + secs(2);
    let (victim, spoof_src) = snap.endpoints(Target::Callee);
    let message = craft::spoofed_bye(&snap, Target::Callee);
    for k in 0..3u64 {
        tb.attacker_mut(attacker).schedule(
            attack_at + SimTime::from_millis(k * 100),
            AttackKind::SpoofedBye {
                victim,
                message: message.clone(),
                spoof_src,
            },
        );
    }
    tb.run_until(attack_at + secs(10));
    testbed_alerts(&tb)
}

fn media_spam() -> Vec<Alert> {
    let mut tb = attackable(25);
    let (attacker, _) = tb.add_attacker();
    let snap = tb
        .run_until_call_established(0, secs(1), secs(120))
        .expect("no call established");
    let attack_at = tb.ent.sim.now() + secs(1);
    let (seq, ts) = snap.caller_rtp_cursor.unwrap();
    tb.attacker_mut(attacker).schedule(
        attack_at,
        AttackKind::MediaSpam {
            victim: snap.callee_media.unwrap(),
            ssrc: snap.caller_ssrc.unwrap(),
            payload_type: 18,
            start_seq: seq.wrapping_add(2_000),
            start_timestamp: ts.wrapping_add(500_000),
            spoof_src: snap.caller_media.unwrap(),
            rate_pps: 100.0,
            count: 20,
        },
    );
    tb.run_until(attack_at + secs(5));
    testbed_alerts(&tb)
}

fn rtp_flood() -> Vec<Alert> {
    let mut tb = attackable(26);
    let (attacker, _) = tb.add_attacker();
    let snap = tb
        .run_until_call_established(0, secs(1), secs(120))
        .expect("no call established");
    let attack_at = tb.ent.sim.now() + secs(1);
    tb.attacker_mut(attacker).schedule(
        attack_at,
        AttackKind::RtpFlood {
            victim: snap.callee_media.unwrap(),
            payload_type: 18,
            payload_bytes: 160,
            rate_pps: 500.0,
            count: 100,
        },
    );
    tb.run_until(attack_at + secs(5));
    testbed_alerts(&tb)
}

fn drdos() -> Vec<Alert> {
    let mut tb = attackable(30);
    let (attacker, _) = tb.add_attacker();
    tb.attacker_mut(attacker).schedule(
        secs(5),
        AttackKind::Drdos {
            reflectors: vec![ua_addr(SITE_B, 0), ua_addr(SITE_B, 1)],
            victim: ua_addr(SITE_A, 1),
            per_reflector: 15,
            rate_pps: 200.0,
        },
    );
    tb.run_until(secs(20));
    testbed_alerts(&tb)
}

/// E7's BYE-DoS drain window: an established call whose media keeps
/// flowing after its BYE, under timer T = `t_ms`.
fn e7_bye_dos(t_ms: u64) -> Vec<Alert> {
    let mut config = Config::default();
    config.bye_dos_t = SimTime::from_millis(t_ms);
    let mut vids = Vids::with_cost(config, CostModel::free());
    let mut sink = CollectSink::new();
    let a = Address::new(10, 1, 0, 10, 5060);
    let b = Address::new(10, 2, 0, 10, 5060);
    let offer = SessionDescription::audio_offer("alice", "10.1.0.10", 20_000, &[Codec::G729]);
    let inv = Request::invite(
        &SipUri::new("alice", "a.example.com"),
        &SipUri::new("bob", "b.example.com"),
        "sens-call",
    )
    .with_body(vids::sdp::MIME_TYPE, offer.to_string());
    let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
    let ok = inv
        .response(StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, answer.to_string());
    let sip = |text: String| Payload::Sip(text);
    let mut trace = vec![
        pkt(a, b, sip(inv.to_string()), 0),
        pkt(b, a, sip(ok.to_string()), 50),
    ];
    let (mut seq, mut ts) = (100u16, 0u32);
    for t in (100..3_000u64).step_by(10) {
        if t == 1_000 {
            let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
            trace.push(pkt(a, b, sip(bye.to_string()), t));
        }
        let rtp = RtpPacket::new(18, seq, ts, 7).with_payload(vec![0; 10]);
        (seq, ts) = (seq.wrapping_add(1), ts.wrapping_add(80));
        let media = Payload::Rtp(rtp.to_bytes());
        trace.push(pkt(a.with_port(20_000), b.with_port(30_000), media, t));
    }
    for (packet, at) in &trace {
        vids.process(packet, *at, &mut sink);
    }
    vids.tick(SimTime::from_secs(40), &mut sink);
    sink.into_alerts()
}

/// Call-scoped deviations: requests and responses the SIP machine has no
/// transition for at the state the call is in.
fn deviations() -> Vec<Alert> {
    let mut vids = Vids::with_cost(Config::default(), CostModel::free());
    let mut sink = CollectSink::new();
    let a = Address::new(10, 1, 0, 10, 5060);
    let b = Address::new(10, 2, 0, 10, 5060);
    let inv = invite("dev-call", "10.1.0.10", 24_000);
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    let ok = inv.response(StatusCode::OK).with_to_tag("tt");
    let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
    let steps = [
        (a, b, inv.to_string()),
        (a, b, ack.to_string()),
        (a, b, bye.to_string()),
        (b, a, ok.to_string()),
        (b, a, ok.to_string()),
        (a, b, inv.to_string()),
    ];
    for (i, (src, dst, text)) in steps.into_iter().enumerate() {
        let (packet, at) = pkt(src, dst, Payload::Sip(text), 10 * i as u64);
        vids.process(&packet, at, &mut sink);
    }
    vids.tick(SimTime::from_secs(60), &mut sink);
    sink.into_alerts()
}

fn pin_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/alert_rendering.txt")
}

#[test]
fn every_alert_renders_the_pinned_bytes() {
    let mut out = String::new();
    render(&mut out, "mixed_trace", &mixed_trace_alerts(false));
    render(&mut out, "mixed_trace, traced", &mixed_trace_alerts(true));
    render(&mut out, "deviations", &deviations());
    render(&mut out, "e6 invite flood", &invite_flood());
    render(&mut out, "e6 bye dos", &spoofed_bye(22, false));
    render(&mut out, "e6 lazy spoofed bye", &spoofed_bye(23, true));
    render(&mut out, "e6 media spam", &media_spam());
    render(&mut out, "e6 rtp flood", &rtp_flood());
    render(&mut out, "e6 drdos", &drdos());
    for t_ms in [50, 200, 800] {
        render(&mut out, &format!("e7 bye dos T={t_ms}"), &e7_bye_dos(t_ms));
    }
    let pinned = std::fs::read_to_string(pin_path()).expect("the rendering pin is committed");
    if pinned != out {
        let rendered = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("alert_rendering.txt");
        std::fs::write(&rendered, &out).unwrap();
        let first = pinned
            .lines()
            .zip(out.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(pinned.lines().count().min(out.lines().count()));
        panic!(
            "alert rendering drifted at line {} (all of it is in {}):\n  pinned: {:?}\n  now:    {:?}",
            first + 1,
            rendered.display(),
            pinned.lines().nth(first),
            out.lines().nth(first)
        );
    }
}
