//! The wire tier's correctness oracle: `vids replay` of a pcap capture
//! must be **byte-identical** to the in-process engine over the same
//! traffic — same alerts (order, labels, details, timestamps), same
//! counters — at 1, 4 and 8 shards, under either capture byte order and
//! link type, and regardless of the replay batch size.
//!
//! The capture is the adversarial `mixed_trace` rendered to classic
//! pcap bytes: every packet's addresses, ports, payload and timestamp
//! cross the UDP/IPv4/pcap encode → decode → demux → classify path, so
//! a single byte of drift anywhere in the wire tier breaks the
//! equality.

mod common;

use std::path::Path;

use common::wire_safe_trace;
use vids::core::alert::{labels, Alert};
use vids::core::{CollectSink, Config, VidsCounters, VidsPool};
use vids::ingest::pcap::{PcapWriter, LINKTYPE_ETHERNET, LINKTYPE_RAW};
use vids::ingest::record_tap::RecordTap;
use vids::ingest::replay::{replay_pcap, replay_pcap_parallel, REPLAY_GRACE};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::record::{replay_vdump, RecordedPacket, Recorder, RecorderStats, Vdump};

fn to_socket(addr: Address) -> std::net::SocketAddrV4 {
    let [a, b, c, d] = addr.ip.to_be_bytes();
    std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(a, b, c, d), addr.port)
}

/// Renders the trace to classic pcap capture bytes.
fn to_pcap(trace: &[(Packet, SimTime)], swapped: bool, linktype: u32) -> Vec<u8> {
    let mut w = PcapWriter::with_format(swapped, linktype);
    for (p, at) in trace {
        let payload: Vec<u8> = match &p.payload {
            Payload::Sip(text) => text.clone().into_bytes(),
            Payload::Rtp(bytes) | Payload::Raw(bytes) => bytes.clone(),
        };
        w.push_udp(*at, to_socket(p.src), to_socket(p.dst), &payload);
    }
    w.into_bytes()
}

/// The in-process reference: one big `process_batch`, then the same
/// final sweep replay performs. Each run returns its sink, the count of
/// alerts its pool merged (the pool keeps no log) and its counters.
fn reference_run(shards: usize) -> (Vec<Alert>, u64, VidsCounters) {
    let trace = wire_safe_trace();
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::new(config);
    let mut sink = CollectSink::new();
    let first_at = trace.first().unwrap().1;
    let last_at = trace.last().unwrap().1;
    let packets: Vec<Packet> = trace.iter().map(|(p, _)| p.clone()).collect();
    pool.process_batch(&packets, first_at, &mut sink);
    pool.tick(last_at + REPLAY_GRACE, &mut sink);
    (sink.into_alerts(), pool.alerts_merged(), pool.counters())
}

/// The wire run: encode to pcap, replay through the ingest pipeline.
fn wire_run(
    shards: usize,
    flush_packets: usize,
    swapped: bool,
    linktype: u32,
) -> (Vec<Alert>, u64, VidsCounters) {
    let trace = wire_safe_trace();
    let capture = to_pcap(&trace, swapped, linktype);
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::new(config);
    let mut sink = CollectSink::new();
    let report = replay_pcap(capture, &mut pool, flush_packets, None, None, &mut sink).unwrap();
    assert_eq!(report.datagrams as usize, trace.len());
    assert_eq!(report.demux_unknown, 1, "only the Raw stray is unknown");
    assert_eq!(report.last_at, trace.last().unwrap().1);
    (sink.into_alerts(), pool.alerts_merged(), pool.counters())
}

/// The parallel wire run: same capture, `threads` classifier threads
/// feeding the engine's epoch-ring pipeline.
fn parallel_run(
    shards: usize,
    flush_packets: usize,
    threads: usize,
) -> (Vec<Alert>, u64, VidsCounters) {
    let trace = wire_safe_trace();
    let capture = to_pcap(&trace, false, LINKTYPE_RAW);
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::new(config);
    let mut sink = CollectSink::new();
    let report = replay_pcap_parallel(
        capture,
        &mut pool,
        flush_packets,
        threads,
        None,
        None,
        &mut sink,
    )
    .unwrap();
    assert_eq!(report.datagrams as usize, trace.len());
    assert_eq!(report.demux_unknown, 1, "only the Raw stray is unknown");
    assert_eq!(report.last_at, trace.last().unwrap().1);
    (sink.into_alerts(), pool.alerts_merged(), pool.counters())
}

#[test]
fn replay_is_byte_identical_to_in_process_at_1_4_8_shards() {
    for shards in [1usize, 4, 8] {
        let (ref_sink, ref_log, ref_counters) = reference_run(shards);
        assert!(
            ref_sink.iter().any(|a| a.label == labels::INVITE_FLOOD),
            "reference lost the flood at {shards} shards"
        );
        assert!(ref_sink.iter().any(|a| a.label == labels::RTP_AFTER_BYE));
        let (sink, log, counters) = wire_run(shards, 256, false, LINKTYPE_RAW);
        assert_eq!(ref_sink, sink, "sink alerts diverged at {shards} shards");
        assert_eq!(
            ref_log, log,
            "merged alert count diverged at {shards} shards"
        );
        assert_eq!(
            ref_counters, counters,
            "counters diverged at {shards} shards"
        );
        // Byte-identical includes the rendering.
        assert_eq!(format!("{ref_sink:?}"), format!("{sink:?}"));
    }
}

#[test]
fn capture_format_never_changes_the_verdict() {
    let (ref_sink, ref_log, ref_counters) = reference_run(4);
    for swapped in [false, true] {
        for linktype in [LINKTYPE_RAW, LINKTYPE_ETHERNET] {
            let (sink, log, counters) = wire_run(4, 256, swapped, linktype);
            assert_eq!(
                ref_sink, sink,
                "swapped={swapped} linktype={linktype} diverged"
            );
            assert_eq!(ref_log, log);
            assert_eq!(ref_counters, counters);
        }
    }
}

#[test]
fn replay_batch_size_never_changes_the_verdict() {
    let (ref_sink, ref_log, ref_counters) = reference_run(4);
    for flush in [1usize, 7, 10_000] {
        let (sink, log, counters) = wire_run(4, flush, false, LINKTYPE_RAW);
        assert_eq!(ref_sink, sink, "flush_packets={flush} diverged");
        assert_eq!(ref_log, log);
        assert_eq!(ref_counters, counters);
    }
}

/// ISSUE 9's acceptance gate: the parallel driver must be byte-identical
/// to the sequential one at every thread count × shard count combination
/// — the re-sequencing coordinator hides the classifier parallelism
/// completely. Small `flush_packets` (7) forces many epochs so dispatch,
/// completion reordering and the in-flight cap all actually cycle.
#[test]
fn parallel_replay_is_byte_identical_across_thread_and_shard_counts() {
    for shards in [1usize, 4, 8] {
        let (ref_sink, ref_log, ref_counters) = wire_run(shards, 7, false, LINKTYPE_RAW);
        assert!(
            ref_sink.iter().any(|a| a.label == labels::INVITE_FLOOD),
            "sequential reference lost the flood at {shards} shards"
        );
        for threads in [1usize, 2, 4] {
            let (sink, log, counters) = parallel_run(shards, 7, threads);
            assert_eq!(
                ref_sink, sink,
                "sink alerts diverged at {threads} threads x {shards} shards"
            );
            assert_eq!(
                ref_log, log,
                "merged alert count diverged at {threads} threads x {shards} shards"
            );
            assert_eq!(
                ref_counters, counters,
                "counters diverged at {threads} threads x {shards} shards"
            );
            assert_eq!(format!("{ref_sink:?}"), format!("{sink:?}"));
        }
    }
}

/// What one recorded replay left behind: the sink's alerts, the recorder's
/// stats and window, and every dump written as (file name, bytes).
struct Recorded {
    alerts: Vec<Alert>,
    stats: RecorderStats,
    window: Vec<RecordedPacket>,
    dumps: Vec<(String, Vec<u8>)>,
}

/// Replays `capture` at `threads` classifier threads (1 = the sequential
/// path) with the flight recorder attached and dumps armed into `dir`.
fn recorded_run(capture: &[u8], config: Config, threads: usize, dir: &Path) -> Recorded {
    std::fs::remove_dir_all(dir).ok();
    let mut pool = VidsPool::new(config);
    let rec = Recorder::with_defaults(1);
    let mut tap = RecordTap::new(&rec, Some(dir));
    let mut sink = CollectSink::new();
    if threads == 1 {
        replay_pcap(
            capture.to_vec(),
            &mut pool,
            7,
            None,
            Some(&mut tap),
            &mut sink,
        )
    } else {
        replay_pcap_parallel(
            capture.to_vec(),
            &mut pool,
            7,
            threads,
            None,
            Some(&mut tap),
            &mut sink,
        )
    }
    .unwrap();
    let dumps = tap
        .written
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(p).unwrap())
        })
        .collect();
    std::fs::remove_dir_all(dir).ok();
    Recorded {
        alerts: sink.into_alerts(),
        stats: rec.stats(),
        window: rec.window(),
        dumps,
    }
}

/// The parallel driver records datagrams at submit time on the driving
/// thread, so a tap sees the identical ring layout — same packets, same
/// global sequence numbers, same batch ids — as the sequential replay.
/// With a dump directory armed it writes the same `.vdump` files, byte for
/// byte, and each of them replays deterministically on a fresh engine.
#[test]
fn parallel_replay_preserves_the_recorder_layout() {
    let trace = wire_safe_trace();
    let capture = to_pcap(&trace, false, LINKTYPE_RAW);
    let root = std::env::temp_dir().join(format!("vids-par-dumps-{}", std::process::id()));
    for shards in [1usize, 4] {
        let config = Config::builder().shards(shards).build().unwrap();
        let seq = recorded_run(&capture, config, 1, &root.join(format!("seq-{shards}")));
        assert!(!seq.window.is_empty());
        assert!(!seq.dumps.is_empty(), "the trace's alerts must dump");
        for (name, bytes) in &seq.dumps {
            let dump = Vdump::parse(bytes).unwrap();
            assert!(
                replay_vdump(&dump).identical(),
                "{name} does not replay deterministically at {shards} shards"
            );
        }
        for threads in [2usize, 4] {
            let at = format!("{threads} threads x {shards} shards");
            let par = recorded_run(
                &capture,
                config,
                threads,
                &root.join(format!("par-{threads}-{shards}")),
            );
            assert_eq!(seq.alerts, par.alerts, "sink alerts diverged at {at}");
            assert_eq!(seq.stats, par.stats, "recorder stats diverged at {at}");
            assert_eq!(seq.window, par.window, "ring contents diverged at {at}");
            let names = |r: &Recorded| r.dumps.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
            assert_eq!(names(&seq), names(&par), "dump names diverged at {at}");
            for ((name, s), (_, p)) in seq.dumps.iter().zip(&par.dumps) {
                assert!(s == p, "{name} differs at {at}");
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
