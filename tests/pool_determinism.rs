//! Determinism of the sharded engine: whatever the shard count, and however
//! the batch boundaries fall, `VidsPool` must produce byte-identical alert
//! sequences — and packet-at-a-time it must match a plain `Vids` exactly.
//!
//! The trace mixes clean calls, an INVITE flood, a BYE-DoS (spoofed BYE
//! followed by media, crafted with `vids::attacks::craft`), a DRDoS response
//! reflection, unassociated RTP, malformed datagrams and a registration
//! hijack, so every alert path crosses the pool's routing and merge logic.

mod common;

use common::mixed_trace;
use vids::core::alert::{labels, Alert, AlertKind};
use vids::core::{CollectSink, Config, CostModel, Monitor, Vids, VidsPool};
use vids::netsim::packet::Packet;
use vids::netsim::time::SimTime;

/// Replays the trace through a pool in batches of `batch_size`, then
/// flushes, returning every alert it raised.
fn run_pool(shards: usize, batch_size: usize) -> (Vec<Alert>, vids::core::VidsCounters) {
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    let mut log = CollectSink::new();
    let trace = mixed_trace();
    for chunk in trace.chunks(batch_size) {
        let now = chunk[0].1;
        let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
        pool.process_batch(&packets, now, &mut log);
    }
    pool.tick(SimTime::from_secs(30), &mut log);
    pool.tick(SimTime::from_secs(40), &mut log);
    (log.into_alerts(), pool.counters())
}

#[test]
fn shard_count_never_changes_the_alert_sequence() {
    let (reference, ref_counters) = run_pool(1, 25);
    assert!(
        reference.iter().any(|a| a.label == labels::INVITE_FLOOD),
        "flood missing: {reference:?}"
    );
    assert!(reference.iter().any(|a| a.label == labels::RTP_AFTER_BYE));
    assert!(reference.iter().any(|a| a.label == labels::RESPONSE_FLOOD));
    assert!(reference
        .iter()
        .any(|a| a.label == labels::REGISTRATION_HIJACK));
    assert!(reference.iter().any(|a| a.label == "unassociated-rtp"));
    assert!(reference.iter().any(|a| a.label.starts_with("malformed-")));
    for shards in [4usize, 8] {
        let (alerts, counters) = run_pool(shards, 25);
        assert_eq!(reference, alerts, "{shards} shards diverged from 1 shard");
        assert_eq!(ref_counters, counters);
    }
}

/// Like [`run_pool`], but with telemetry enabled; returns the
/// wall-clock-free merged snapshot and the alert log.
fn run_pool_telemetry(
    shards: usize,
    batch_size: usize,
) -> (vids::telemetry::SlabSnapshot, Vec<Alert>) {
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    let mut log = CollectSink::new();
    pool.enable_telemetry(64);
    let trace = mixed_trace();
    for chunk in trace.chunks(batch_size) {
        let now = chunk[0].1;
        let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
        pool.process_batch(&packets, now, &mut log);
    }
    pool.tick(SimTime::from_secs(30), &mut log);
    pool.tick(SimTime::from_secs(40), &mut log);
    let snap = pool.telemetry_snapshot(SimTime::from_secs(40)).unwrap();
    (snap.deterministic(), log.into_alerts())
}

#[test]
fn telemetry_snapshot_is_shard_count_invariant() {
    use vids::telemetry::Counter;

    let (reference, ref_alerts) = run_pool_telemetry(1, 25);
    assert!(reference.counter(Counter::Transitions) > 0);
    assert!(reference.counter(Counter::SyncDeliveries) > 0);
    assert!(reference.counter(Counter::AlertsAttack) > 0);
    assert_eq!(
        reference.counter(Counter::MergeNanos),
        0,
        "deterministic() must zero wall-clock slots"
    );
    // Machine-attributed alerts carry the offending scope's recent
    // transitions; telemetry is on, so none of them may be empty.
    let machine_labels = [
        labels::INVITE_FLOOD,
        labels::RTP_AFTER_BYE,
        labels::RESPONSE_FLOOD,
        labels::REGISTRATION_HIJACK,
    ];
    for label in machine_labels {
        let alert = ref_alerts
            .iter()
            .find(|a| a.label == label)
            .unwrap_or_else(|| panic!("{label} missing"));
        assert!(!alert.trace.is_empty(), "{label} alert has no trace");
    }
    assert!(reference.gauge(vids::telemetry::Gauge::LiveCalls) > 0);
    for shards in [4usize, 8] {
        let (snap, alerts) = run_pool_telemetry(shards, 25);
        assert_eq!(
            reference, snap,
            "{shards}-shard merged telemetry diverged from 1 shard"
        );
        assert_eq!(ref_alerts, alerts);
    }
}

#[test]
fn batch_boundaries_never_change_the_alert_sequence() {
    let (reference, _) = run_pool(4, 25);
    for batch_size in [1usize, 7, 1_000] {
        let (alerts, _) = run_pool(4, batch_size);
        assert_eq!(
            reference, alerts,
            "batch size {batch_size} diverged from 25"
        );
    }
}

#[test]
fn pool_matches_the_plain_engine_packet_at_a_time() {
    let mut plain = Vids::with_cost(Config::default(), CostModel::free());
    let pool_config = Config::builder().shards(4).build().unwrap();
    let mut pool = VidsPool::with_cost(pool_config, CostModel::free());
    let mut plain_sink = CollectSink::new();
    let mut pool_sink = CollectSink::new();
    for (packet, at) in mixed_trace() {
        plain.process(&packet, at, &mut plain_sink);
        Monitor::process(&mut pool, &packet, at, &mut pool_sink);
    }
    for flush in [30u64, 40] {
        plain.tick(SimTime::from_secs(flush), &mut plain_sink);
        pool.tick(SimTime::from_secs(flush), &mut pool_sink);
    }
    assert!(!plain_sink.is_empty());
    assert_eq!(plain_sink.alerts(), pool_sink.alerts());
    assert_eq!(pool.alerts_merged(), pool_sink.len() as u64);
    assert_eq!(plain.counters(), pool.counters());
    assert_eq!(plain.monitored_calls(), pool.monitored_calls());
    // Every alert the attacks were built to trigger is attributed the same
    // kind either way.
    assert!(pool_sink
        .alerts()
        .iter()
        .any(|a| a.kind == AlertKind::Attack && a.label == labels::RTP_AFTER_BYE));
}

/// The persistent worker runtime reuses queue/classify/merge buffers across
/// batches. Reusing one pool for 50 consecutive batches must be
/// byte-identical to the fresh-pool reference, and two independent pools
/// replaying the same 50 batches must agree with each other exactly —
/// i.e. no state leaks between batches through the recycled buffers and no
/// thread-schedule dependence survives the merge.
#[test]
fn one_pool_reused_across_fifty_batches_is_byte_identical() {
    let (reference, ref_counters) = run_pool(4, 25);
    let trace = mixed_trace();
    let batch = (trace.len() / 50).max(1);
    assert!(
        trace.chunks(batch).count() >= 50,
        "trace too short to form 50 batches"
    );
    let mut runs = Vec::new();
    for _ in 0..2 {
        let config = Config::builder().shards(4).build().unwrap();
        let mut pool = VidsPool::with_cost(config, CostModel::free());
        let mut log = CollectSink::new();
        for chunk in trace.chunks(batch) {
            let now = chunk[0].1;
            let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
            pool.process_batch(&packets, now, &mut log);
        }
        pool.tick(SimTime::from_secs(30), &mut log);
        pool.tick(SimTime::from_secs(40), &mut log);
        runs.push((log.into_alerts(), pool.counters()));
    }
    assert_eq!(runs[0], runs[1], "two identical 50-batch replays diverged");
    assert_eq!(
        format!("{:?}", runs[0].0),
        format!("{:?}", runs[1].0),
        "alert renderings diverged between replays"
    );
    assert_eq!(
        runs[0].0, reference,
        "50-batch replay diverged from reference"
    );
    assert_eq!(runs[0].1, ref_counters);
}

/// Interleaves every ingestion API the pool offers — per-packet
/// `Monitor::process`, `process_batch`, `process_batch`, and forced
/// timer sweeps mid-stream — and requires the alert log and counters to be
/// shard-count invariant anyway.
fn run_interleaved(shards: usize) -> (Vec<Alert>, vids::core::VidsCounters) {
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    let mut log = CollectSink::new();
    let trace = mixed_trace();
    for (i, chunk) in trace.chunks(13).enumerate() {
        let now = chunk[0].1;
        match i % 3 {
            0 => {
                for (packet, at) in chunk {
                    Monitor::process(&mut pool, packet, *at, &mut log);
                }
            }
            1 => {
                let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
                pool.process_batch(&packets, now, &mut log);
            }
            _ => {
                let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
                pool.process_batch(&packets, now, &mut log);
                // Force a sweep mid-stream at the batch's last timestamp.
                pool.tick(chunk[chunk.len() - 1].1, &mut log);
            }
        }
    }
    pool.tick(SimTime::from_secs(30), &mut log);
    pool.tick(SimTime::from_secs(40), &mut log);
    (log.into_alerts(), pool.counters())
}

#[test]
fn interleaved_apis_are_shard_count_invariant() {
    let (reference, ref_counters) = run_interleaved(1);
    assert!(
        reference.iter().any(|a| a.label == labels::INVITE_FLOOD),
        "interleaved run lost the flood: {reference:?}"
    );
    assert!(reference.iter().any(|a| a.label == labels::RTP_AFTER_BYE));
    for shards in [4usize, 8] {
        let (alerts, counters) = run_interleaved(shards);
        assert_eq!(
            reference, alerts,
            "interleaved APIs at {shards} shards diverged from 1 shard"
        );
        assert_eq!(ref_counters, counters);
    }
}

/// Deterministic xorshift64 step; the stress test below must be replayable,
/// so no ambient randomness.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Seeded stress: one persistent pool ingests the trace in random-size
/// batches (1..=32 packets) with random forced sweeps, while a plain `Vids`
/// consumes the identical stream packet-at-a-time. Both must emit the same
/// alerts, in the same order, with the same counters.
#[test]
fn randomized_batch_sizes_match_the_plain_engine() {
    let trace = mixed_trace();
    for shards in [1usize, 4, 8] {
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut plain = Vids::with_cost(Config::default(), CostModel::free());
        let config = Config::builder().shards(shards).build().unwrap();
        let mut pool = VidsPool::with_cost(config, CostModel::free());
        let mut plain_sink = CollectSink::new();
        let mut pool_sink = CollectSink::new();
        let mut i = 0;
        while i < trace.len() {
            let size = 1 + (xorshift(&mut rng) % 32) as usize;
            let end = (i + size).min(trace.len());
            let now = trace[i].1;
            let packets: Vec<Packet> = trace[i..end].iter().map(|(p, _)| p.clone()).collect();
            pool.process_batch(&packets, now, &mut pool_sink);
            for (packet, at) in &trace[i..end] {
                plain.process(packet, *at, &mut plain_sink);
            }
            if xorshift(&mut rng).is_multiple_of(5) {
                let at = trace[end - 1].1;
                plain.tick(at, &mut plain_sink);
                pool.tick(at, &mut pool_sink);
            }
            i = end;
        }
        for flush in [30u64, 40] {
            plain.tick(SimTime::from_secs(flush), &mut plain_sink);
            pool.tick(SimTime::from_secs(flush), &mut pool_sink);
        }
        assert!(!plain_sink.is_empty());
        assert_eq!(
            plain_sink.alerts(),
            pool_sink.alerts(),
            "{shards}-shard pool diverged from the plain engine under random batching"
        );
        assert_eq!(pool.alerts_merged(), pool_sink.len() as u64);
        assert_eq!(plain.counters(), pool.counters());
        assert_eq!(plain.monitored_calls(), pool.monitored_calls());
    }
}
