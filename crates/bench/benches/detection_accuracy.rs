//! E6 / §7.5 — detection accuracy: every recorded attack pattern must be
//! detected (paper: "100% detection accuracy with zero false positive").
//!
//! The printed table runs each §3 attack through the full simulated
//! testbed plus one clean run for the false-positive column.

use vids::attacks::craft::{self, Target};
use vids::attacks::AttackKind;
use vids::core::alert::{labels, AlertKind};
use vids::netsim::time::SimTime;
use vids::netsim::topology::{internet_addr, ua_addr, SITE_A, SITE_B};
use vids::scenario::{Testbed, TestbedConfig};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn testbed(seed: u64) -> Testbed {
    let mut config = TestbedConfig::small(seed);
    config.workload.mean_interarrival_secs = 5.0;
    config.workload.mean_duration_secs = 600.0;
    config.workload.horizon = secs(30);
    Testbed::build(&config)
}

fn run_attack(
    seed: u64,
    expected: &str,
    setup: impl FnOnce(&mut Testbed, vids::netsim::engine::NodeId),
) -> bool {
    let mut tb = testbed(seed);
    let (attacker, _) = tb.add_attacker();
    setup(&mut tb, attacker);
    let end = tb.ent.sim.now() + secs(15);
    tb.run_until(end);
    tb.vids_alerts().iter().any(|a| a.label == expected)
}

fn redundant(tb: &mut Testbed, atk: vids::netsim::engine::NodeId, at: SimTime, kind: AttackKind) {
    for k in 0..3u64 {
        tb.attacker_mut(atk)
            .schedule(at + SimTime::from_millis(k * 100), kind.clone());
    }
}

fn print_table() {
    println!("\n=== E6 / §7.5: detection accuracy ===");
    println!("{:<34} {:>10} {:>10}", "attack (§3)", "paper", "measured");
    println!("{}", "-".repeat(58));

    let mut all = true;
    let mut report = |name: &str, detected: bool| {
        all &= detected;
        println!(
            "{:<34} {:>10} {:>10}",
            name,
            "detected",
            if detected { "detected" } else { "MISSED" }
        );
    };

    report(
        "INVITE flooding",
        run_attack(61, labels::INVITE_FLOOD, |tb, atk| {
            tb.attacker_mut(atk).schedule(
                secs(5),
                AttackKind::InviteFlood {
                    target_uri: vids::agents::ua_uri(0, vids::agents::site_domain(SITE_B)),
                    target_addr: ua_addr(SITE_B, 0),
                    rate_pps: 100.0,
                    count: 40,
                },
            );
        }),
    );

    report(
        "BYE DoS (spoofed BYE)",
        run_attack(62, labels::RTP_AFTER_BYE, |tb, atk| {
            let snap = tb.run_until_call_established(0, secs(1), secs(60)).unwrap();
            let at = tb.ent.sim.now() + secs(1);
            let (victim, spoof_src) = snap.endpoints(Target::Callee);
            let message = craft::spoofed_bye(&snap, Target::Callee);
            redundant(
                tb,
                atk,
                at,
                AttackKind::SpoofedBye {
                    victim,
                    message,
                    spoof_src,
                },
            );
        }),
    );

    report(
        "CANCEL DoS (foreign tags)",
        run_attack(63, labels::SPOOFED_CANCEL, |tb, atk| {
            let mut now = tb.ent.sim.now();
            let snap = loop {
                now += SimTime::from_millis(200);
                tb.run_until(now);
                if let Some(s) = tb.sniff_ringing_call(0) {
                    break s;
                }
            };
            let mut lazy = snap;
            lazy.caller_from.set_tag("evil");
            let (victim, spoof_src) = lazy.endpoints(Target::Callee);
            let message = craft::spoofed_cancel(&lazy);
            redundant(
                tb,
                atk,
                now,
                AttackKind::SpoofedCancel {
                    victim,
                    message,
                    spoof_src,
                },
            );
        }),
    );

    report(
        "media spamming",
        run_attack(64, labels::MEDIA_SPAM, |tb, atk| {
            let snap = tb.run_until_call_established(0, secs(1), secs(60)).unwrap();
            let at = tb.ent.sim.now() + secs(1);
            let (seq, ts) = snap.caller_rtp_cursor.unwrap();
            tb.attacker_mut(atk).schedule(
                at,
                AttackKind::MediaSpam {
                    victim: snap.callee_media.unwrap(),
                    ssrc: snap.caller_ssrc.unwrap(),
                    payload_type: 18,
                    start_seq: seq.wrapping_add(1_000),
                    start_timestamp: ts.wrapping_add(200_000),
                    spoof_src: snap.caller_media.unwrap(),
                    rate_pps: 100.0,
                    count: 20,
                },
            );
        }),
    );

    report(
        "RTP flooding",
        run_attack(65, labels::RTP_FOREIGN_SOURCE, |tb, atk| {
            let snap = tb.run_until_call_established(0, secs(1), secs(60)).unwrap();
            let at = tb.ent.sim.now() + secs(1);
            tb.attacker_mut(atk).schedule(
                at,
                AttackKind::RtpFlood {
                    victim: snap.callee_media.unwrap(),
                    payload_type: 18,
                    payload_bytes: 160,
                    rate_pps: 400.0,
                    count: 80,
                },
            );
        }),
    );

    report(
        "codec change",
        run_attack(66, labels::RTP_CODEC_VIOLATION, |tb, atk| {
            let snap = tb.run_until_call_established(0, secs(1), secs(60)).unwrap();
            let at = tb.ent.sim.now() + secs(1);
            let (seq, ts) = snap.caller_rtp_cursor.unwrap();
            tb.attacker_mut(atk).schedule(
                at,
                AttackKind::MediaSpam {
                    victim: snap.callee_media.unwrap(),
                    ssrc: snap.caller_ssrc.unwrap(),
                    payload_type: 0,
                    start_seq: seq,
                    start_timestamp: ts,
                    spoof_src: snap.caller_media.unwrap(),
                    rate_pps: 100.0,
                    count: 20,
                },
            );
        }),
    );

    report(
        "call hijack (re-INVITE)",
        run_attack(67, labels::CALL_HIJACK, |tb, atk| {
            let snap = tb.run_until_call_established(0, secs(1), secs(60)).unwrap();
            let at = tb.ent.sim.now() + secs(1);
            let (victim, spoof_src) = snap.endpoints(Target::Callee);
            let message = craft::spoofed_reinvite(&snap, internet_addr(0).with_port(44_000));
            redundant(
                tb,
                atk,
                at,
                AttackKind::ReinviteHijack {
                    victim,
                    message,
                    spoof_src,
                },
            );
        }),
    );

    report("billing fraud (BYE + RTP)", {
        let mut config = TestbedConfig::small(68);
        config.workload.mean_interarrival_secs = 5.0;
        config.workload.mean_duration_secs = 8.0;
        config.workload.horizon = secs(30);
        config.fraud_caller_0 = Some(secs(5));
        let mut tb = Testbed::build(&config);
        tb.run_until(secs(120));
        tb.vids_alerts()
            .iter()
            .any(|a| a.label == labels::RTP_AFTER_BYE)
    });

    report(
        "DRDoS reflection",
        run_attack(69, labels::RESPONSE_FLOOD, |tb, atk| {
            tb.attacker_mut(atk).schedule(
                secs(5),
                AttackKind::Drdos {
                    reflectors: vec![ua_addr(SITE_B, 0), ua_addr(SITE_B, 1)],
                    victim: ua_addr(SITE_A, 1),
                    per_reflector: 15,
                    rate_pps: 200.0,
                },
            );
        }),
    );

    // False-positive column: a clean 3-minute run.
    let mut config = TestbedConfig::small(70);
    config.uas_per_site = 4;
    config.workload.callers = 4;
    config.workload.callees = 4;
    config.workload.mean_interarrival_secs = 30.0;
    config.workload.mean_duration_secs = 20.0;
    config.workload.horizon = secs(180);
    let mut tb = Testbed::build(&config);
    tb.run_until(secs(240));
    let false_positives = tb
        .vids_alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::Attack)
        .count();
    println!("{}", "-".repeat(58));
    println!(
        "{:<34} {:>10} {:>10}",
        "false positives (clean run)", "0", false_positives
    );
    println!(
        "\noverall: {}",
        if all && false_positives == 0 {
            "100% detection, zero false positives — matches the paper"
        } else {
            "MISMATCH vs paper"
        }
    );
}

fn main() {
    print_table();
}
