//! Determinism of the sharded engine on the curated mixed trace, as cases
//! of the placement matrix (`vids_harness::matrix`): whatever the shard
//! count, the batch boundaries or the entry point, `VidsPool` produces the
//! plain engine's alerts, counters and monitored calls, and its merged
//! telemetry does not depend on the shard count.

use vids::core::alert::labels::{INVITE_FLOOD, RTP_AFTER_BYE};
use vids::core::{Alert, AlertKind};
use vids::telemetry::{Counter, Gauge};
use vids_harness::matrix::*;
use vids_harness::traffic::{mixed_trace, MIXED_LABELS};

#[test]
fn shard_count_never_changes_the_alert_sequence() {
    let pools = [1, 4, 8].map(pool);
    check(&mixed_trace(), 25, &pools).covers(&MIXED_LABELS);
}

#[test]
fn telemetry_snapshot_is_shard_count_invariant() {
    let traced = [1, 4, 8].map(|shards| pool(shards).telemetry());
    let out = check(&mixed_trace(), 25, &traced);
    let snap = out.telemetry.as_ref().expect("telemetry on");
    assert!(snap.counter(Counter::Transitions) > 0);
    assert!(snap.counter(Counter::SyncDeliveries) > 0);
    assert!(snap.counter(Counter::AlertsAttack) > 0);
    assert_eq!(snap.counter(Counter::MergeNanos), 0, "a wall-clock slot");
    assert!(snap.gauge(Gauge::LiveCalls) > 0);
    // Machine-attributed alerts carry the offending scope's recent
    // transitions; telemetry is on, so none of them may be empty.
    for label in MIXED_LABELS.into_iter().take(4) {
        let (_, alert) = out.alerts.iter().find(|(_, a)| a.label == label).unwrap();
        assert!(!alert.trace.is_empty(), "{label} alert has no trace");
    }
}

#[test]
fn batch_boundaries_never_change_the_alert_sequence() {
    let trace = mixed_trace();
    let reference = run(&trace, 25, &pool(4));
    for batch in [1, 7, 1_000] {
        let out = run(&trace, batch, &pool(4));
        assert_eq!(out.alerts, reference.alerts, "batch size {batch}");
    }
}

#[test]
fn pool_matches_the_plain_engine_packet_at_a_time() {
    let out = check(&mixed_trace(), 1, &[plain(), pool(4)]);
    let bye_dos = |(_, a): &(_, Alert)| a.kind == AlertKind::Attack && a.label == RTP_AFTER_BYE;
    assert!(out.alerts.iter().any(bye_dos));
}

/// A pool reuses its queue/classify/merge buffers across batches: the same
/// 50 batches through two pools agree exactly, and with the 25-packet
/// reference.
#[test]
fn one_pool_reused_across_fifty_batches_is_byte_identical() {
    let trace = mixed_trace();
    let batch = (trace.len() / 50).max(1);
    assert!(trace.chunks(batch).count() >= 50, "too short");
    let first = run(&trace, batch, &pool(4));
    assert_eq!(first, run(&trace, batch, &pool(4)), "two runs diverged");
    let reference = run(&trace, 25, &pool(4));
    assert_eq!(first.alerts, reference.alerts);
    assert_eq!(first.counters, reference.counters);
}

/// Batches of one packet and of up to 32, interleaved, with forced
/// mid-stream sweeps (`batch` 0: the seeded schedule), at every shard count.
#[test]
fn interleaved_apis_are_shard_count_invariant() {
    let pools = [1, 4, 8].map(pool);
    check(&mixed_trace(), 0, &pools).covers(&[INVITE_FLOOD, RTP_AFTER_BYE]);
}

/// One persistent pool ingests the trace in random-size batches (1..=32)
/// with random forced sweeps, while a plain `Vids` takes it packet at a
/// time with the same sweeps: same alerts in the same order, same
/// counters, same calls (`batch` 0 is that seeded schedule).
#[test]
fn randomized_batch_sizes_match_the_plain_engine() {
    let placements = [plain(), pool(1), pool(4), pool(8)];
    assert!(!check(&mixed_trace(), 0, &placements).alerts.is_empty());
}
