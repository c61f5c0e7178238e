//! Determinism of the federated cluster, as cases of the placement matrix
//! (`vids_harness::matrix`): whatever the node and shard counts, the
//! `Cluster` shim produces the plain pool's alerts, counters and merged
//! telemetry. Plus the tenancy gates: per-tenant thresholds, quotas and
//! engine groups isolate tenants from each other (a foreign flood changes
//! nothing in another tenant's alerts), and a rendezvous rebalance keeps
//! the verdicts of calls whose keys do not move and the telemetry of the
//! engines that survive it.

use vids::cluster::{Cluster, TenantMap};
use vids::core::alert::labels::{INVITE_FLOOD, RTP_AFTER_BYE};
use vids::core::classify::classify;
use vids::core::pool::{rendezvous, route_hint};
use vids::core::{CollectSink, Config, CostModel, NullSink};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::telemetry::{Counter, SlabSnapshot};
use vids_harness::matrix::*;
use vids_harness::traffic::{bye_dos, invite, invite_flood, mixed_trace, pkt, MIXED_LABELS};

const ATTACKER: Address = Address::new(172, 16, 0, 66, 5060);
const PHONE: Address = Address::new(10, 2, 0, 9, 5060);

fn tenants(text: &str) -> TenantMap {
    TenantMap::parse(text, Config::default()).unwrap()
}

/// A cluster over `map` fed `packets` as one batch at `now`.
fn one_batch(map: &TenantMap, nodes: usize, packets: &[Packet], now: SimTime) -> Cluster {
    let mut cluster = Cluster::with_cost(map.clone(), nodes, CostModel::free());
    cluster.process_packets(packets, now, &mut NullSink);
    cluster
}

/// The tenants of a cluster's `label` alerts.
fn tenants_of(cluster: &Cluster, label: &str) -> Vec<u16> {
    let alerts = cluster.alerts().iter().filter(|a| a.alert.label == label);
    alerts.map(|a| a.tenant).collect()
}

/// A flood went to tenant 1 and nowhere else.
fn strict_flood(cluster: &Cluster, nodes: usize) {
    let floods = tenants_of(cluster, INVITE_FLOOD);
    let strict = !floods.is_empty() && floods.iter().all(|&t| t == 1);
    assert!(strict, "{nodes} nodes: {floods:?}");
}

#[test]
fn one_node_cluster_matches_the_plain_pool() {
    for shards in [1, 4] {
        let placements = [pool(shards).telemetry(), cluster(shards, 1).telemetry()];
        check(&mixed_trace(), 25, &placements).covers(&[INVITE_FLOOD]);
    }
}

#[test]
fn node_count_never_changes_the_alert_sequence() {
    for shards in [1, 4] {
        let placements = [1, 2, 4].map(|nodes| cluster(shards, nodes).telemetry());
        check(&mixed_trace(), 25, &placements).covers(&MIXED_LABELS);
    }
}

/// Eight INVITEs in one second against each of two victims, one flood per
/// tenant. The strict tenant alerts at >5; the default tenant's threshold
/// (>10) keeps it silent, and every alert carries the right tenant tag.
#[test]
fn tenant_thresholds_are_isolated() {
    let map = tenants("tenant strict 172.16.0.0/16 invite_flood_n=5");
    let lax = Address::new(192, 168, 0, 66, 5060);
    let victim = Address::new(10, 2, 0, 10, 5060);
    let mut packets = invite_flood((ATTACKER, PHONE), "bob9", "iso-a", 8, (0, 10));
    packets.extend(invite_flood((lax, victim), "bob10", "iso-b", 8, (5, 10)));
    packets.sort_by_key(|p| p.sent_at);
    for nodes in [1, 3] {
        let cluster = one_batch(&map, nodes, &packets, SimTime::from_millis(1));
        strict_flood(&cluster, nodes);
        // The lax tenant saw the same 8 INVITEs and stayed under threshold.
        assert_eq!(cluster.tenant_counters(0).sip_packets, 8);
        assert_eq!(cluster.tenant_counters(1).sip_packets, 8);
    }
}

/// README's `tenants.conf` puts the two parties of most calls under
/// different tenants' prefixes. A call belongs to the tenant of its address
/// pair, so the map changes thresholds and tags, never which datagrams
/// meet: the mixed trace yields the single-tenant alert sequence at every
/// node and shard count.
#[test]
fn readmes_tenant_map_keeps_every_call_whole() {
    let trace = mixed_trace();
    for shards in [1, 4] {
        let single = run(&trace, 25, &cluster(shards, 1));
        single.covers(&[RTP_AFTER_BYE]);
        for nodes in [1, 3] {
            let mapped = cluster(shards, nodes).tenants(README_TENANTS);
            let tagged = run(&trace, 25, &mapped);
            assert_eq!(tagged.untagged(), single.untagged(), "a call split");
            // The BYE DoS on 10.1.0.7 <-> 10.2.0.7 is acme's (equal
            // prefixes: the lower id), the flood on 10.2.0.9 contoso's.
            let of = |label| tagged.alerts.iter().find(|(_, a)| a.label == label);
            assert_eq!(of(RTP_AFTER_BYE).map(|a| a.0), Some(1));
            assert_eq!(of(INVITE_FLOOD).map(|a| a.0), Some(2));
        }
    }
}

/// A tenant's threshold covers floods *toward* its phones: eight INVITEs in
/// 0.7 s from an outside address trip `invite_flood_n=5` and carry the
/// tenant's tag, where the default threshold would stay silent.
#[test]
fn a_tenants_threshold_applies_to_a_flood_from_outside() {
    let map = tenants("tenant strict 10.2.0.0/16 invite_flood_n=5");
    let outside = Address::new(203, 0, 113, 66, 5060);
    let packets = invite_flood((outside, PHONE), "bob9", "outside-flood", 8, (0, 100));
    for nodes in [1, 3] {
        let cluster = one_batch(&map, nodes, &packets, SimTime::ZERO);
        strict_flood(&cluster, nodes);
        assert_eq!(cluster.tenant_counters(1).sip_packets, 8);
        assert_eq!(cluster.tenant_counters(0).sip_packets, 0);
    }
}

/// A tenant with `max_calls=2` can fill only its own call table: later
/// dialogs are refused for it while the unbounded default tenant keeps
/// tracking everything. (The quota is per engine, so one node and one
/// shard make the arithmetic exact.)
#[test]
fn tenant_call_quotas_are_isolated() {
    let dst = Address::new(10, 2, 0, 1, 5060);
    let call = |(net, tenant, t0): ([u8; 2], &str, u64), i: u8| {
        let src = Address::new(net[0], net[1], 0, i + 1, 5060);
        let text = invite(&format!("quota-{tenant}-{i}"), &src.ip_string(), 20_000);
        let at = t0 + u64::from(i);
        pkt(src, dst, Payload::Sip(text.to_string()), at).0
    };
    let capped = (0..5).map(|i| call(([172, 16], "capped", 10), i));
    let packets: Vec<Packet> = capped
        .chain((0..3).map(|i| call(([10, 1], "free", 20), i)))
        .collect();
    let map = tenants("tenant capped 172.16.0.0/16 max_calls=2");
    let mut cluster = Cluster::with_cost(map, 1, CostModel::free());
    cluster.enable_telemetry(16);
    cluster.process_packets(&packets, SimTime::from_millis(1), &mut NullSink);
    assert_eq!(cluster.tenant_monitored_calls(1), 2, "over the quota");
    assert_eq!(cluster.tenant_monitored_calls(0), 3, "quota leaked");
    // The refusals are visible in the capped tenant's telemetry only.
    let mut slabs = [SlabSnapshot::zeroed(), SlabSnapshot::zeroed()];
    let snap = cluster.telemetry_snapshot(SimTime::from_millis(1)).unwrap();
    for (engine, slab) in snap.shards.iter().enumerate() {
        slabs[cluster.pool().engine_tenant(engine) as usize].merge(slab);
    }
    assert_eq!(slabs[1].counter(Counter::CallQuotaDrops), 3);
    assert_eq!(slabs[0].counter(Counter::CallQuotaDrops), 0);
}

/// A Call-ID whose key keeps its node at 2 and at 3 nodes.
fn stable_call_id(prefix: &str) -> String {
    let stable = |id: &String| {
        let hash = route_hint(&classify(&bye_dos(id, 0, 0).0[0])).call_hash();
        rendezvous(hash, 2) == rendezvous(hash, 3)
    };
    (0..64)
        .map(|i| format!("{prefix}-{i}"))
        .find(stable)
        .unwrap()
}

/// Growing the cluster only moves keys whose rendezvous choice changes. A
/// BYE-DoS in flight on an *unmoved* call still convicts after the
/// rebalance: the spoofed BYE and the media reach the engine that has been
/// tracking the call all along.
#[test]
fn rebalance_keeps_verdicts_for_unmoved_calls() {
    let (setup, attack) = bye_dos(&stable_call_id("rebalance"), 100, 500);
    let map = TenantMap::single(Config::default());
    let mut cluster = one_batch(&map, 2, &setup, SimTime::from_millis(100));
    assert_eq!(cluster.monitored_calls(), 1);
    cluster.set_nodes(3);
    assert_eq!(cluster.monitored_calls(), 1, "unmoved call lost its state");
    cluster.process_packets(&attack, SimTime::from_millis(500), &mut NullSink);
    cluster.tick(SimTime::from_secs(30), &mut NullSink);
    assert!(!tenants_of(&cluster, RTP_AFTER_BYE).is_empty());
}

/// Shrinking is routing-only too: keys on surviving nodes keep their
/// state, keys on removed nodes restart.
#[test]
fn shrink_drops_only_the_removed_nodes_state() {
    let (caller, callee) = (
        Address::new(10, 1, 0, 7, 5060),
        Address::new(10, 2, 0, 7, 5060),
    );
    let invite = |i: u64| invite(&format!("shrink-{i}"), "10.1.0.7", 22_000).to_string();
    let packet = |i| pkt(caller, callee, Payload::Sip(invite(i)), 100 + i).0;
    let setup: Vec<Packet> = (0..12).map(packet).collect();
    let survives = |p: &&Packet| rendezvous(route_hint(&classify(p)).call_hash(), 3) < 2;
    let survivors = setup.iter().filter(survives).count();
    let map = TenantMap::single(Config::default());
    let mut cluster = one_batch(&map, 3, &setup, SimTime::from_millis(100));
    assert_eq!(cluster.monitored_calls(), 12);
    assert!(survivors < 12, "trace never landed on the removed node");
    cluster.set_nodes(2);
    assert_eq!(cluster.monitored_calls(), survivors, "wrong calls kept");
}

/// Tenant B's alerts do not depend on tenant A's traffic: a BYE-DoS in
/// tenant B, fed with and without a tenant-A INVITE flood in the same
/// batches, yields the same tenant-B alerts at any node count.
#[test]
fn a_foreign_flood_never_changes_another_tenants_alerts() {
    let map = tenants("tenant a 172.16.0.0/16 invite_flood_n=5\ntenant b 10.0.0.0/8");
    let (setup, attack) = bye_dos("isolated-bye", 100, 500);
    let flood = invite_flood((ATTACKER, PHONE), "bob9", "foreign-flood", 60, (90, 25));
    let mut trace: Vec<(Packet, bool)> = setup
        .into_iter()
        .chain(attack)
        .map(|p| (p, false))
        .collect();
    trace.extend(flood.into_iter().map(|p| (p, true)));
    trace.sort_by_key(|(p, _)| p.sent_at);
    for nodes in [1, 3] {
        let run = |with_flood: bool| {
            let mut cluster = Cluster::with_cost(map.clone(), nodes, CostModel::free());
            for chunk in trace.chunks(8) {
                let kept = chunk.iter().filter(|(_, flood)| with_flood || !flood);
                let packets: Vec<Packet> = kept.map(|(p, _)| p.clone()).collect();
                cluster.process_packets(&packets, chunk[0].0.sent_at, &mut NullSink);
            }
            cluster.tick(SimTime::from_secs(30), &mut NullSink);
            let of = |t| cluster.alerts().iter().filter(move |a| a.tenant == t);
            (
                of(2).map(|a| a.alert.clone()).collect::<Vec<_>>(),
                of(1).count(),
            )
        };
        let (alone, quiet) = run(false);
        let (beside_flood, flooded) = run(true);
        let convicted = alone.iter().any(|a| a.label == RTP_AFTER_BYE);
        assert!(convicted, "{nodes} nodes: {alone:?}");
        assert_eq!(quiet, 0);
        assert!(flooded > 0, "{nodes} nodes: tenant A's flood unseen");
        assert_eq!(alone, beside_flood, "{nodes} nodes: a leak");
    }
}

/// A rebalance with telemetry on: 2 → 3 → 2 nodes of 2 shards. After each
/// step the snapshot has one slab per engine, what the surviving engines
/// counted before the step is still in the merged view, and a BYE-DoS on a
/// call whose key kept its node still convicts.
#[test]
fn rebalance_keeps_surviving_engines_telemetry() {
    let call_id = stable_call_id("rebalance-telemetry");
    let config = Config::builder().shards(2).build().unwrap();
    let sip = |slabs: &[SlabSnapshot]| -> Vec<u64> {
        slabs
            .iter()
            .map(|s| s.counter(Counter::SipPackets))
            .collect()
    };
    let batches = |s: &vids::telemetry::Snapshot| s.pool.counter(Counter::BatchesIngested);
    for path in [&[3usize][..], &[3, 2]] {
        let (setup, attack) = bye_dos(&call_id, 100, 500);
        let mut cluster = Cluster::with_cost(TenantMap::single(config), 2, CostModel::free());
        cluster.enable_telemetry(16);
        cluster.process_packets(&setup, SimTime::from_millis(100), &mut NullSink);
        let mut nodes = 2;
        for &next in path {
            let now = SimTime::from_millis(300);
            let before = cluster.telemetry_snapshot(now).unwrap();
            cluster.set_nodes(next);
            let after = cluster.telemetry_snapshot(now).unwrap();
            assert_eq!(after.shards.len(), next * 2, "{nodes} -> {next} nodes");
            let kept = nodes.min(next) * 2;
            assert_eq!(sip(&after.shards[..kept]), sip(&before.shards[..kept]));
            assert!(sip(&after.shards[kept..]).iter().all(|&n| n == 0));
            let counted: u64 = sip(&before.shards[..kept]).iter().sum();
            assert_eq!(after.merged().counter(Counter::SipPackets), counted);
            assert_eq!(batches(&after), batches(&before));
            nodes = next;
        }
        let mut sink = CollectSink::new();
        cluster.process_packets(&attack, SimTime::from_millis(500), &mut sink);
        cluster.tick(SimTime::from_secs(30), &mut sink);
        let convicted = sink.alerts().iter().any(|a| a.label == RTP_AFTER_BYE);
        assert!(convicted, "verdict lost across {path:?}");
    }
}
