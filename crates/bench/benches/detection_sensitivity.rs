#![allow(clippy::field_reassign_with_default)]

//! E7 / §7.5 — detection sensitivity: "the intrusion detection delay is
//! mainly determined by the various timers in attack patterns", i.e. T1/N
//! for INVITE flooding and T for the BYE DoS drain window; shorter T risks
//! false alarms from in-flight packets.

use vids::core::machines::flood::window_counter_machine;
use vids::core::{CollectSink, Config, NullSink, Vids};
use vids::efsm::network::Network;
use vids::efsm::Event;
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::rtp::packet::RtpPacket;

use std::sync::Arc;

/// Time to detect an INVITE flood of `rate_pps` with threshold `n` and
/// window `t1_ms` (ms from first INVITE).
fn flood_detection_delay(n: u64, t1_ms: u64, rate_pps: f64) -> Option<u64> {
    let def = Arc::new(window_counter_machine("flood", "SIP.INVITE", n, t1_ms, "f"));
    let mut net = Network::new();
    let id = net.add_machine(def);
    let gap_ms = (1_000.0 / rate_pps) as u64;
    let mut t = 0u64;
    for _ in 0..10_000 {
        net.advance_time(t);
        let out = net.deliver(id, Event::data("SIP.INVITE"), t);
        if !out.alerts.is_empty() {
            return Some(t);
        }
        t += gap_ms.max(1);
    }
    None
}

/// Simulates the BYE-DoS drain window at RTT `rtt_ms`: returns
/// `(false_alarm, detection_delay_ms_for_real_attack)` for timer `t_ms`.
///
/// A legitimate teardown has in-flight packets arriving up to one RTT after
/// the BYE; an attack stream continues forever.
fn bye_dos_outcomes(t_ms: u64, rtt_ms: u64) -> (bool, Option<u64>) {
    let run = |packets_until_ms: u64| -> Option<u64> {
        let mut cfg = Config::default();
        cfg.bye_dos_t = SimTime::from_millis(t_ms);
        let mut vids = Vids::with_cost(cfg, vids::core::CostModel::free());
        // Establish a call.
        let sdp = vids::sdp::SessionDescription::audio_offer(
            "alice",
            "10.1.0.10",
            20_000,
            &[vids::sdp::Codec::G729],
        );
        let inv = vids::sip::Request::invite(
            &vids::sip::SipUri::new("alice", "a.example.com"),
            &vids::sip::SipUri::new("bob", "b.example.com"),
            "sens-call",
        )
        .with_body(vids::sdp::MIME_TYPE, sdp.to_string());
        let mk = |payload: Payload, src_port: u16, dst_port: u16| Packet {
            src: Address::new(10, 1, 0, 10, src_port),
            dst: Address::new(10, 2, 0, 10, dst_port),
            payload,
            id: 0,
            sent_at: SimTime::ZERO,
        };
        vids.process(
            &mk(Payload::Sip(inv.to_string()), 5060, 5060),
            SimTime::ZERO,
            &mut NullSink,
        );
        let answer = vids::sdp::SessionDescription::audio_offer(
            "bob",
            "10.2.0.10",
            30_000,
            &[vids::sdp::Codec::G729],
        );
        let ok = inv
            .response(vids::sip::StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids::sdp::MIME_TYPE, answer.to_string());
        // Responses travel B->A.
        let ok_pkt = Packet {
            src: Address::new(10, 2, 0, 10, 5060),
            dst: Address::new(10, 1, 0, 10, 5060),
            payload: Payload::Sip(ok.to_string()),
            id: 0,
            sent_at: SimTime::ZERO,
        };
        vids.process(&ok_pkt, SimTime::from_millis(50), &mut NullSink);
        // Media, then BYE at 1000 ms, then packets until `packets_until_ms`.
        let mut alert_at: Option<u64> = None;
        let mut seq = 100u16;
        let mut ts = 0u32;
        for t in (100..3_000u64).step_by(10) {
            if t == 1_000 {
                let bye =
                    vids::sip::Request::in_dialog(vids::sip::Method::Bye, &inv, 2, Some("tt"));
                vids.process(
                    &mk(Payload::Sip(bye.to_string()), 5060, 5060),
                    SimTime::from_millis(t),
                    &mut NullSink,
                );
            }
            if t < 1_000 || t <= packets_until_ms {
                let rtp = RtpPacket::new(18, seq, ts, 7).with_payload(vec![0; 10]);
                seq = seq.wrapping_add(1);
                ts = ts.wrapping_add(80);
                let mut alerts = CollectSink::new();
                vids.process(
                    &mk(Payload::Rtp(rtp.to_bytes()), 20_000, 30_000),
                    SimTime::from_millis(t),
                    &mut alerts,
                );
                if alerts
                    .alerts()
                    .iter()
                    .any(|a| a.label == vids::core::alert::labels::RTP_AFTER_BYE)
                    && alert_at.is_none()
                {
                    alert_at = Some(t - 1_000);
                }
            }
        }
        alert_at
    };
    // Legitimate teardown: in-flight packets stop one RTT after the BYE.
    let false_alarm = run(1_000 + rtt_ms).is_some();
    // Attack: media never stops.
    let detection = run(3_000);
    (false_alarm, detection)
}

fn print_tables() {
    println!("\n=== E7 / §7.5: detection sensitivity ===");
    println!("\nINVITE flooding: detection delay vs. attack rate (N=10, T1=1s)");
    println!("{:>12} {:>18}", "rate (pps)", "delay (ms)");
    for rate in [20.0, 50.0, 100.0, 200.0, 1_000.0] {
        let d = flood_detection_delay(10, 1_000, rate);
        println!(
            "{:>12} {:>18}",
            rate,
            d.map(|d| d.to_string()).unwrap_or_else(|| "none".into())
        );
    }
    println!("\nINVITE flooding: detection delay vs. threshold N (100 pps, T1=1s)");
    println!("{:>12} {:>18}", "N", "delay (ms)");
    for n in [5u64, 10, 20, 50] {
        let d = flood_detection_delay(n, 1_000, 100.0);
        println!(
            "{:>12} {:>18}",
            n,
            d.map(|d| d.to_string()).unwrap_or_else(|| "none".into())
        );
    }

    println!("\nBYE DoS: timer T vs. false alarms and detection delay (RTT = 110 ms)");
    println!(
        "{:>10} {:>14} {:>22}",
        "T (ms)", "false alarm?", "detection delay (ms)"
    );
    for t in [20u64, 50, 110, 200, 500, 1_000] {
        let (fa, det) = bye_dos_outcomes(t, 110);
        println!(
            "{:>10} {:>14} {:>22}",
            t,
            if fa { "YES" } else { "no" },
            det.map(|d| d.to_string())
                .unwrap_or_else(|| "missed".into())
        );
    }
    println!("\npaper: T = one RTT is \"long enough to receive all in-flight RTP");
    println!("packets, consequently, there would be less chance of false alarms\" —");
    println!("the table shows T below the RTT false-alarms, T at/above it doesn't,");
    println!("while detection delay grows linearly with T.");
}

fn main() {
    print_tables();
}
