//! Standing gates for the flight recorder (DESIGN.md §7h).
//!
//! 1. **Record-on vs record-off differential**: the ring tap must be a
//!    pure observer — running the identical capture through `vids
//!    replay` with and without the recorder attached must produce
//!    byte-identical alerts and counters.
//! 2. **Committed minimized regression**: `corpus/invite-flood.min.vdump`
//!    is a real forensic dump of an INVITE flood, shrunk by the greedy
//!    drop-one-packet minimizer. It must still replay byte-identically
//!    on every build, stay within the minimizer's size bound, and feed
//!    the SIP fuzzer at least one seed. Regenerate it from a fresh
//!    ≥100-packet flood with `VIDS_REGEN_CORPUS=1 cargo test -p
//!    vids-harness --test record_gate`.

use vids_core::alert::labels;
use vids_core::config::Config;
use vids_core::cost::CostModel;
use vids_core::pool::VidsPool;
use vids_core::sink::CollectSink;
use vids_harness::matrix::{check, pcap, recorded, replay, run};
use vids_harness::record_bridge::{corpus_dir, load_dumps, sip_seeds_from_dump};
use vids_harness::traffic::pkt;
use vids_ingest::pcap::LINKTYPE_RAW;
use vids_ingest::record_tap::RecordTap;
use vids_ingest::replay::replay_pcap;
use vids_ingest::FLUSH_PACKETS;
use vids_netsim::packet::{Address, Packet, Payload};
use vids_netsim::time::SimTime;
use vids_record::{minimize, replay_vdump, Recorder, Vdump};
use vids_rtp::packet::RtpPacket;
use vids_sip::{Request, SipUri};

const FLOOD: usize = 120;

/// ≥100-packet INVITE flood (distinct Call-IDs, one source, 5 ms apart,
/// all inside the 1 s flood window) plus a little unassociated RTP noise
/// so the capture exercises more than one demux class.
fn flood_trace() -> Vec<(Packet, SimTime)> {
    let (src, dst) = (
        Address::new(10, 1, 0, 10, 5060),
        Address::new(10, 2, 0, 10, 5060),
    );
    let (media_src, media_dst) = (
        Address::new(10, 1, 0, 20, 20_000),
        Address::new(10, 2, 0, 20, 30_000),
    );
    let to = SipUri::new("bob", "b.example.com");
    let mut trace = Vec::new();
    for i in 0..FLOOD {
        let from = SipUri::new("mallory", "a.example.com");
        let invite = Request::invite(&from, &to, &format!("gate-flood-{i}")).to_string();
        trace.push(pkt(src, dst, Payload::Sip(invite), 10 + 5 * i as u64));
        if i % 40 == 0 {
            let rtp =
                RtpPacket::new(18, i as u16, i as u32 * 80, 0xFACE).with_payload(vec![0xAB; 10]);
            let rtp = Payload::Rtp(rtp.to_bytes());
            trace.push(pkt(media_src, media_dst, rtp, 12 + 5 * i as u64));
        }
    }
    trace
}

fn flood_capture() -> Vec<u8> {
    pcap(&flood_trace(), false, LINKTYPE_RAW)
}

/// The ring tap is a pure observer: the capture through `vids replay` with
/// the recorder attached gives the alerts and counters it gives without.
#[test]
fn record_tap_never_changes_detection() {
    let batch = FLUSH_PACKETS;
    let out = check(&flood_trace(), batch, &[replay(1, 1), recorded(1, 2)]);
    out.covers(&[labels::INVITE_FLOOD]);
    let recorded = run(&flood_trace(), batch, &recorded(1, 1))
        .recording
        .unwrap();
    assert!(recorded.stats.rings.recorded > 0, "the tap saw nothing");
}

/// Regenerates `corpus/invite-flood.min.vdump`: record the flood through
/// the real ingest tap, take the first dump the alert produced, and
/// minimize it.
fn regenerate_corpus() {
    let dir = std::env::temp_dir().join("vids-record-gate-regen");
    std::fs::remove_dir_all(&dir).ok();
    let config = Config::default();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    let mut sink = CollectSink::new();
    let recorder = Recorder::with_defaults(1);
    let mut tap = RecordTap::new(&recorder, Some(&dir));
    replay_pcap(
        flood_capture(),
        &mut pool,
        FLUSH_PACKETS,
        None,
        Some(&mut tap),
        &mut sink,
    )
    .unwrap();
    let written = tap.written.clone();
    assert!(!written.is_empty(), "the flood must produce a dump");
    // The RTP noise raises its own deviation dumps; pick the flood's.
    let dump = written
        .iter()
        .map(|p| Vdump::read_from(p).unwrap())
        .find(|d| d.alert.label == labels::INVITE_FLOOD)
        .expect("no invite-flood dump among the written files");
    assert!(dump.packets.len() >= 100, "regen flood window too small");
    let report = minimize(&dump).expect("the recorded flood must reproduce");
    let out = corpus_dir().join("invite-flood.min.vdump");
    report.dump.write_to(&out).unwrap();
    eprintln!(
        "regenerated {}: {} -> {} packets in {} replays",
        out.display(),
        report.original_packets,
        report.minimized_packets,
        report.replays
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_minimized_flood_dump_replays_byte_identically() {
    if std::env::var("VIDS_REGEN_CORPUS").is_ok_and(|v| v == "1") {
        regenerate_corpus();
    }
    let dumps = load_dumps(&corpus_dir()).unwrap();
    let (path, dump) = dumps
        .iter()
        .find(|(p, _)| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().contains("invite-flood"))
        })
        .expect("corpus/invite-flood.min.vdump is missing — run VIDS_REGEN_CORPUS=1");

    // The minimizer's contract: just past the detection threshold, far
    // below the 100+ packets the flood was recorded from.
    let n = dump.config.invite_flood_n as usize;
    assert!(
        dump.packets.len() <= n + 2,
        "{}: {} packets survived minimization (threshold {n})",
        path.display(),
        dump.packets.len()
    );
    assert!(
        dump.packets.len() > n,
        "{}: too few packets to cross the flood threshold",
        path.display()
    );
    assert_eq!(dump.alert.label, labels::INVITE_FLOOD);

    let verdict = replay_vdump(dump);
    assert!(
        verdict.identical(),
        "{}: committed dump diverged (alert={} counters={} snapshot={}): {:?}",
        path.display(),
        verdict.alert_identical,
        verdict.counters_identical,
        verdict.snapshot_identical,
        verdict.outcome.alerts
    );

    // And it feeds the fuzzer: every packet in the window is a SIP seed.
    let seeds = sip_seeds_from_dump(dump);
    assert!(
        !seeds.is_empty(),
        "minimized flood dump must contribute SIP fuzz seeds"
    );
    assert!(seeds.iter().all(|s| s.starts_with("INVITE ")));
}
