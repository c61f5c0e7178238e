//! Offline analysis: capture perimeter traffic with a passive trace tap,
//! then replay the capture through a fresh vids instance — the
//! "record now, analyze later" deployment mode, and a demonstration that
//! the IDS is a pure function of the packet stream.
//!
//! ```sh
//! cargo run --example offline_replay
//! ```

use vids::attacks::craft::{self, Target};
use vids::attacks::AttackKind;
use vids::core::report::AlertReport;
use vids::core::{CollectSink, Config, VidsPool};
use vids::netsim::node::TapNode;
use vids::netsim::time::SimTime;
use vids::netsim::trace::{CaptureFilter, TraceTap};
use vids::netsim::workload::WorkloadSpec;
use vids::scenario::{Testbed, TestbedConfig};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn main() {
    // Phase 1: run the testbed with a *recording* trace tap (no vids, no
    // added delay) while an attacker spams a call's media stream.
    let mut config = TestbedConfig::small(77).without_vids();
    config.workload = WorkloadSpec {
        callers: 2,
        callees: 2,
        mean_interarrival_secs: 5.0,
        mean_duration_secs: 600.0,
        horizon: secs(30),
    };
    // A 100k-packet VoIP-only trace tap instead of the inline monitor.
    let mut tb = Testbed::build_capture(
        &config,
        Box::new(TraceTap::new(100_000).with_filter(CaptureFilter::VoipOnly)),
    );
    let (attacker, _) = tb.add_attacker();
    let snap = tb
        .run_until_call_established(0, secs(1), secs(60))
        .expect("call");
    let at = tb.ent.sim.now() + secs(1);
    let (seq, ts) = snap.caller_rtp_cursor.unwrap();
    tb.attacker_mut(attacker).schedule(
        at,
        AttackKind::MediaSpam {
            victim: snap.callee_media.unwrap(),
            ssrc: snap.caller_ssrc.unwrap(),
            payload_type: 18,
            start_seq: seq.wrapping_add(5_000),
            start_timestamp: ts.wrapping_add(800_000),
            spoof_src: snap.caller_media.unwrap(),
            rate_pps: 100.0,
            count: 25,
        },
    );
    // Also a lazy spoofed BYE for a second detection in the capture.
    let mut lazy = snap.clone();
    lazy.caller_from.set_tag("forged");
    let (victim, spoof_src) = lazy.endpoints(Target::Callee);
    let bye = craft::spoofed_bye(&lazy, Target::Callee);
    for k in 0..3 {
        tb.attacker_mut(attacker).schedule(
            at + secs(2) + SimTime::from_millis(k * 100),
            AttackKind::SpoofedBye {
                victim,
                message: bye.clone(),
                spoof_src,
            },
        );
    }
    tb.run_until(at + secs(8));

    let tap = tb
        .ent
        .sim
        .node_as::<TapNode>(tb.ent.tap)
        .tap_as::<TraceTap>();
    println!(
        "captured {} VoIP packets at the perimeter",
        tap.captured().len()
    );
    println!("busiest flows:");
    for (flow, n) in tap.flow_summary().into_iter().take(5) {
        println!("  {n:>6}  {flow}");
    }

    // Phase 2: replay the capture through a fresh offline monitor — here a
    // 4-shard pool ingesting the whole capture as one batch. Offline replay
    // is the batch API's natural habitat: the capture timestamps ride along
    // in `sent_at`, and the deterministic merge makes the report identical
    // to a packet-at-a-time single-engine replay.
    let config = Config::builder().shards(4).build().unwrap();
    let mut offline = VidsPool::with_cost(config, vids::core::CostModel::free());
    let batch: Vec<_> = tap
        .captured()
        .iter()
        .map(|c| {
            let mut p = c.packet.clone();
            p.sent_at = c.at;
            p
        })
        .collect();
    let mut alerts = CollectSink::new();
    offline.process_batch(&batch, SimTime::ZERO, &mut alerts);
    offline.tick(
        tap.captured().last().map(|c| c.at).unwrap_or(SimTime::ZERO) + secs(30),
        &mut alerts,
    );

    println!(
        "\noffline analysis of the capture ({} shards):",
        offline.shards()
    );
    let report = AlertReport::from_alerts(alerts.alerts());
    print!("{report}");
    println!("\nCSV:\n{}", report.to_csv());

    // Bonus: export the capture as a Wireshark-compatible pcap.
    let pcap = vids::netsim::trace::to_pcap_bytes(tap.captured());
    let path = std::env::temp_dir().join("vids_capture.pcap");
    if std::fs::write(&path, &pcap).is_ok() {
        println!("pcap written to {} ({} bytes)", path.display(), pcap.len());
    }
}
