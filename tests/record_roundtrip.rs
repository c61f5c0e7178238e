//! The flight recorder's end-to-end determinism gate (DESIGN.md §7h), as a
//! case of the placement matrix (`vids_harness::matrix`): a ≥100-packet
//! INVITE flood goes through the recorded ingest pipeline — pcap bytes →
//! decode → demux → ring tap → engine → alert → `.vdump` of the window.
//! The `Recorded` shape replays every dump on a fresh engine under the
//! recorded configuration and batch clocks and requires the alert (kind,
//! label, call scope, detail, transition trace, timestamp), the counters
//! and the call snapshot to reproduce byte-identically, and each dump to
//! re-encode to its own bytes.

use vids::core::alert::labels;
use vids::ingest::FLUSH_PACKETS;
use vids::netsim::packet::Address;
use vids::record::Vdump;
use vids_harness::matrix::*;
use vids_harness::traffic::invite_flood;

#[test]
fn recorded_flood_dump_replays_byte_identically_on_a_fresh_engine() {
    let (src, dst) = (
        Address::new(10, 1, 0, 10, 5060),
        Address::new(10, 2, 0, 10, 5060),
    );
    let flood = invite_flood((src, dst), "bob", "roundtrip-flood", 120, (10, 5));
    let trace: Vec<_> = flood.into_iter().map(|p| (p.clone(), p.sent_at)).collect();
    let batch = FLUSH_PACKETS;
    let out = run(&trace, batch, &recorded(1, 2).telemetry());
    compare(&run(&trace, batch, &pool(1).telemetry()), &out).unwrap();
    out.covers(&[labels::INVITE_FLOOD]);
    let dumps = out.recording.expect("recorded").dumps;
    let (_, bytes) = dumps.first().expect("the alert must trigger a dump");
    let dump = Vdump::parse(bytes).unwrap();
    assert!(dump.packets.len() >= 100, "window too small");
    assert_eq!(dump.alert.label, labels::INVITE_FLOOD);
    assert_eq!(dump.telemetry_ring, 64);
    assert!(!dump.alert.trace.is_empty(), "telemetry was on");
}
