//! The wire tier's correctness oracle, as cases of the placement matrix
//! (`vids_harness::matrix`): `vids replay` of the mixed trace rendered to
//! pcap is byte-identical to the in-process engine over the same traffic —
//! alerts (order, labels, details, timestamps), merged-alert count and
//! counters — at any shard count, classifier thread count, capture byte
//! order, link type and replay batch size, with or without the flight
//! recorder.

use vids::core::alert::labels;
use vids::core::{CollectSink, Config, CostModel, VidsPool};
use vids::ingest::pcap::{LINKTYPE_ETHERNET, LINKTYPE_RAW};
use vids::record::Vdump;
use vids_harness::matrix::*;
use vids_harness::traffic::mixed_trace;

#[test]
fn replay_is_byte_identical_to_in_process_at_1_4_8_shards() {
    let trace = mixed_trace();
    for shards in [1, 4, 8] {
        let out = check(&trace, 256, &[pool(shards), replay(shards, 1)]);
        out.covers(&[labels::INVITE_FLOOD, labels::RTP_AFTER_BYE]);
    }
}

#[test]
fn capture_format_never_changes_the_verdict() {
    let trace = mixed_trace();
    let want = run(&trace, 256, &pool(4));
    for swapped in [false, true] {
        for linktype in [LINKTYPE_RAW, LINKTYPE_ETHERNET] {
            let config = Config::builder().shards(4).build().unwrap();
            let mut pool = VidsPool::with_cost(config, CostModel::free());
            let mut sink = CollectSink::new();
            let capture = pcap(&trace, swapped, linktype);
            replay_checked(&trace, capture, &mut pool, (256, 1), None, &mut sink);
            let at = format!("swapped={swapped} linktype={linktype}");
            assert_eq!(want.untagged(), sink.alerts(), "{at}");
            assert_eq!(pool.alerts_merged(), sink.len() as u64, "{at}");
            assert_eq!(want.counters, pool.counters(), "{at}");
        }
    }
}

#[test]
fn replay_batch_size_never_changes_the_verdict() {
    let trace = mixed_trace();
    let want = run(&trace, trace.len(), &pool(4));
    for flush in [1, 7, 10_000] {
        let out = run(&trace, flush, &replay(4, 1));
        assert_eq!(want.alerts, out.alerts, "flush_packets={flush}");
        assert_eq!(want.counters, out.counters, "flush_packets={flush}");
    }
}

/// The parallel driver is byte-identical to the sequential one at every
/// thread count × shard count: the re-sequencing coordinator hides the
/// classifier parallelism. Small batches (7) force many epochs, so
/// dispatch, completion reordering and the in-flight cap all cycle.
#[test]
fn parallel_replay_is_byte_identical_across_thread_and_shard_counts() {
    let mut placements = vec![replay(1, 1)];
    for shards in [1, 4, 8] {
        placements.extend([1, 2, 4].map(|threads| replay(shards, threads)));
    }
    let out = check(&mixed_trace(), 7, &placements);
    out.covers(&[labels::INVITE_FLOOD]);
}

/// The parallel driver records datagrams at submit time on the driving
/// thread, so a tap sees the sequential replay's ring layout — packets,
/// global sequence numbers, batch ids — and writes the same `.vdump`
/// files, byte for byte, each replaying deterministically on a fresh
/// engine: the `Recorded` shape checks all of that.
#[test]
fn parallel_replay_preserves_the_recorder_layout() {
    let trace = mixed_trace();
    for shards in [1, 4] {
        let want = run(&trace, 7, &pool(shards));
        for threads in [2, 4] {
            let out = run(&trace, 7, &recorded(shards, threads));
            compare(&want, &out).unwrap();
            let recording = out.recording.expect("recorded");
            assert!(!recording.window.is_empty());
            assert!(!recording.dumps.is_empty(), "the trace's alerts must dump");
            assert!(recording.dumps.iter().all(|(_, b)| Vdump::parse(b).is_ok()));
        }
    }
}
