//! The flight recorder's end-to-end determinism gate (DESIGN.md §7h).
//!
//! A ≥100-packet INVITE flood goes through the *recorded* ingest
//! pipeline: pcap bytes → decode → demux → ring tap → sharded engine →
//! alert → `.vdump` dump of the surrounding window. The dump is then
//! read back and replayed through a **fresh** engine under the recorded
//! configuration and batch clocks — and the original alert must
//! reproduce **byte-identically**: same alert encoding (kind, label,
//! call scope, detail, transition trace, timestamp), same engine
//! counters at the moment it fired, same call snapshot.

use std::net::SocketAddrV4;

use vids::core::alert::labels;
use vids::core::config::Config;
use vids::core::cost::CostModel;
use vids::core::pool::VidsPool;
use vids::core::sink::CollectSink;
use vids::ingest::pcap::PcapWriter;
use vids::ingest::record_tap::RecordTap;
use vids::ingest::replay::replay_pcap;
use vids::netsim::time::SimTime;
use vids::record::{replay_vdump, Recorder, Vdump};
use vids::sip::{Request, SipUri};

const FLOOD: usize = 120;

fn flood_capture() -> Vec<u8> {
    let mut w = PcapWriter::new();
    let src: SocketAddrV4 = "10.1.0.10:5060".parse().unwrap();
    let dst: SocketAddrV4 = "10.2.0.10:5060".parse().unwrap();
    let to = SipUri::new("bob", "b.example.com");
    for i in 0..FLOOD {
        let invite = Request::invite(
            &SipUri::new("mallory", "a.example.com"),
            &to,
            &format!("roundtrip-flood-{i}"),
        );
        w.push_udp(
            SimTime::from_millis(10 + 5 * i as u64),
            src,
            dst,
            invite.to_string().as_bytes(),
        );
    }
    w.into_bytes()
}

#[test]
fn recorded_flood_dump_replays_byte_identically_on_a_fresh_engine() {
    let dir = std::env::temp_dir().join("vids-record-roundtrip");
    std::fs::remove_dir_all(&dir).ok();

    // Recorded run: the live pipeline with the ring tap attached.
    let config = Config::default();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    pool.enable_telemetry(256);
    let mut sink = CollectSink::new();
    let recorder = Recorder::with_defaults(1);
    let mut tap = RecordTap::new(&recorder, Some(&dir));
    let report = replay_pcap(
        flood_capture(),
        &mut pool,
        config.batch_flush_packets,
        None,
        Some(&mut tap),
        &mut sink,
    )
    .unwrap();
    assert_eq!(report.datagrams as usize, FLOOD);
    let written = tap.written.clone();
    assert!(
        sink.alerts()
            .iter()
            .any(|a| a.label == labels::INVITE_FLOOD),
        "the flood must raise: {:?}",
        sink.alerts()
    );
    assert!(!written.is_empty(), "the alert must trigger a dump");

    // The dump captured the whole ≥100-packet window.
    let dump = Vdump::read_from(&written[0]).unwrap();
    assert!(
        dump.packets.len() >= 100,
        "window too small: {} packets",
        dump.packets.len()
    );
    assert_eq!(dump.alert.label, labels::INVITE_FLOOD);
    assert_eq!(dump.telemetry_ring, 256);
    assert!(
        !dump.alert.trace.is_empty(),
        "telemetry was on, so the alert must carry its transition trace"
    );

    // Deterministic replay: fresh engine, recorded config and clocks.
    let verdict = replay_vdump(&dump);
    assert!(
        verdict.alert_identical,
        "alert did not reproduce byte-identically: {:?}",
        verdict.outcome.alerts
    );
    assert!(verdict.counters_identical, "engine counters diverged");
    assert!(verdict.snapshot_identical, "call snapshot diverged");
    assert!(verdict.identical());

    // The dump is itself deterministic: re-encoding is byte-stable.
    let bytes = std::fs::read(&written[0]).unwrap();
    assert_eq!(bytes, dump.encode(), "dump encoding must round-trip");
    std::fs::remove_dir_all(&dir).ok();
}
