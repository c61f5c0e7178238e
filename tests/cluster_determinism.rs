//! Determinism of the federated cluster: whatever the node count (and the
//! shard count inside each node), a `Cluster` must produce byte-identical
//! alert sequences, counters and telemetry — and at one node, one tenant
//! it must match the plain `VidsPool` exactly. Plus the tenancy gates:
//! per-tenant thresholds, quotas and pools isolate tenants from each other
//! (a foreign flood changes nothing in another tenant's alerts), and a
//! rendezvous rebalance keeps verdicts for calls whose keys don't move and
//! the telemetry of the engines that survive it.

mod common;

use common::{invite, mixed_trace, pkt};
use vids::cluster::{Cluster, TenantMap};
use vids::core::alert::{labels, Alert};
use vids::core::classify::classify;
use vids::core::pool::{rendezvous, route_hint};
use vids::core::{CollectSink, Config, CostModel, NullSink, VidsPool};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::sdp::{Codec, SessionDescription};
use vids::sip::{Method, Request, StatusCode};
use vids::telemetry::{Counter, SlabSnapshot};

/// Replays the mixed trace through a single-tenant cluster in batches of
/// 25, flushes, and returns (alerts, sink alerts, counters, telemetry).
fn run_cluster(
    nodes: usize,
    shards: usize,
) -> (
    Vec<Alert>,
    Vec<Alert>,
    vids::core::VidsCounters,
    SlabSnapshot,
) {
    let config = Config::builder().shards(shards).build().unwrap();
    let mut cluster = Cluster::with_cost(TenantMap::single(config), nodes, CostModel::free());
    cluster.enable_telemetry(64);
    let mut sink = CollectSink::new();
    let trace = mixed_trace();
    for chunk in trace.chunks(25) {
        let now = chunk[0].1;
        let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
        cluster.process_packets(&packets, now, &mut sink);
    }
    cluster.tick(SimTime::from_secs(30), &mut sink);
    cluster.tick(SimTime::from_secs(40), &mut sink);
    let snap = cluster
        .telemetry_snapshot(SimTime::from_secs(40))
        .unwrap()
        .deterministic();
    let alerts = cluster.alerts().iter().map(|a| a.alert.clone()).collect();
    (alerts, sink.alerts().to_vec(), cluster.counters(), snap)
}

/// The single-pool reference, batched identically.
fn run_pool(
    shards: usize,
) -> (
    Vec<Alert>,
    Vec<Alert>,
    vids::core::VidsCounters,
    SlabSnapshot,
) {
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    pool.enable_telemetry(64);
    let mut sink = CollectSink::new();
    let trace = mixed_trace();
    for chunk in trace.chunks(25) {
        let now = chunk[0].1;
        let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
        pool.process_batch(&packets, now, &mut sink);
    }
    pool.tick(SimTime::from_secs(30), &mut sink);
    pool.tick(SimTime::from_secs(40), &mut sink);
    let snap = pool
        .telemetry_snapshot(SimTime::from_secs(40))
        .unwrap()
        .deterministic();
    // The pool keeps no log: its reference log is the stream it sank.
    (
        sink.alerts().to_vec(),
        sink.alerts().to_vec(),
        pool.counters(),
        snap,
    )
}

#[test]
fn one_node_cluster_matches_the_plain_pool() {
    for shards in [1usize, 4] {
        let (pool_log, pool_sink, pool_counters, pool_snap) = run_pool(shards);
        let (log, sink, counters, snap) = run_cluster(1, shards);
        assert!(
            pool_log.iter().any(|a| a.label == labels::INVITE_FLOOD),
            "reference lost the flood: {pool_log:?}"
        );
        assert_eq!(pool_log, log, "{shards}-shard cluster(1) log diverged");
        assert_eq!(pool_sink, sink, "{shards}-shard cluster(1) sink diverged");
        assert_eq!(pool_counters, counters);
        assert_eq!(pool_snap, snap, "{shards}-shard telemetry diverged");
    }
}

#[test]
fn node_count_never_changes_the_alert_sequence() {
    for shards in [1usize, 4] {
        let (reference, ref_sink, ref_counters, ref_snap) = run_cluster(1, shards);
        assert!(reference.iter().any(|a| a.label == labels::INVITE_FLOOD));
        assert!(reference.iter().any(|a| a.label == labels::RTP_AFTER_BYE));
        assert!(reference.iter().any(|a| a.label == labels::RESPONSE_FLOOD));
        assert!(reference
            .iter()
            .any(|a| a.label == labels::REGISTRATION_HIJACK));
        assert!(reference.iter().any(|a| a.label == "unassociated-rtp"));
        assert!(reference.iter().any(|a| a.label.starts_with("malformed-")));
        for nodes in [2usize, 4] {
            let (alerts, sink, counters, snap) = run_cluster(nodes, shards);
            assert_eq!(
                reference, alerts,
                "{nodes} nodes x {shards} shards diverged from 1 node"
            );
            assert_eq!(ref_sink, sink);
            assert_eq!(ref_counters, counters);
            assert_eq!(
                ref_snap, snap,
                "{nodes}-node merged telemetry diverged from 1 node"
            );
        }
    }
}

/// Eight INVITEs in one second against each of two victims, one flood per
/// tenant. The strict tenant alerts at >5; the default tenant's threshold
/// (>10) keeps it silent — same traffic shape, different verdicts, and
/// every alert carries the right tenant tag.
#[test]
fn tenant_thresholds_are_isolated() {
    let tenants = TenantMap::parse(
        "tenant strict 172.16.0.0/16 invite_flood_n=5",
        Config::default(),
    )
    .unwrap();
    for nodes in [1usize, 3] {
        let mut cluster = Cluster::with_cost(tenants.clone(), nodes, CostModel::free());
        let mut trace = Vec::new();
        let victim_a = Address::new(10, 2, 0, 9, 5060);
        let victim_b = Address::new(10, 2, 0, 10, 5060);
        let strict_attacker = Address::new(172, 16, 0, 66, 5060);
        let lax_attacker = Address::new(192, 168, 0, 66, 5060);
        for i in 0..8u64 {
            let a = vids::attacks::craft::flood_invite(
                &vids::sip::SipUri::new("bob9", "b.example.com"),
                strict_attacker,
                "flooder",
                &format!("iso-a-{i}"),
            );
            trace.push(pkt(strict_attacker, victim_a, Payload::Sip(a), i * 10, 0));
            let b = vids::attacks::craft::flood_invite(
                &vids::sip::SipUri::new("bob10", "b.example.com"),
                lax_attacker,
                "flooder",
                &format!("iso-b-{i}"),
            );
            trace.push(pkt(lax_attacker, victim_b, Payload::Sip(b), i * 10 + 5, 0));
        }
        let packets: Vec<Packet> = trace.iter().map(|(p, _)| p.clone()).collect();
        cluster.process_packets(&packets, SimTime::from_millis(1), &mut NullSink);

        let flood_alerts: Vec<_> = cluster
            .alerts()
            .iter()
            .filter(|a| a.alert.label == labels::INVITE_FLOOD)
            .collect();
        assert!(
            !flood_alerts.is_empty(),
            "{nodes} nodes: strict tenant flood missing"
        );
        assert!(
            flood_alerts.iter().all(|a| a.tenant == 1),
            "{nodes} nodes: flood alert escaped the strict tenant: {flood_alerts:?}"
        );
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
    let readme = "tenant acme    10.1.0.0/16  invite_flood_n=5 max_calls=10000\n\
                  tenant contoso 10.2.0.0/16  bye_dos_t_ms=500";
    for shards in [1usize, 4] {
        let config = Config::builder().shards(shards).build().unwrap();
        let run = |tenants: &TenantMap, nodes: usize| {
            let mut cluster = Cluster::with_cost(tenants.clone(), nodes, CostModel::free());
            for chunk in mixed_trace().chunks(25) {
                let now = chunk[0].1;
                let packets: Vec<Packet> = chunk.iter().map(|(p, _)| p.clone()).collect();
                cluster.process_packets(&packets, now, &mut NullSink);
            }
            cluster.tick(SimTime::from_secs(30), &mut NullSink);
            cluster.tick(SimTime::from_secs(40), &mut NullSink);
            cluster.alerts().to_vec()
        };
        let single: Vec<Alert> = run(&TenantMap::single(config), 1)
            .into_iter()
            .map(|a| a.alert)
            .collect();
        assert!(single.iter().any(|a| a.label == labels::RTP_AFTER_BYE));
        let tenants = TenantMap::parse(readme, config).unwrap();
        for nodes in [1usize, 3] {
            let tagged = run(&tenants, nodes);
            let alerts: Vec<Alert> = tagged.iter().map(|a| a.alert.clone()).collect();
            assert_eq!(
                alerts, single,
                "{nodes} nodes x {shards} shards: README's map split a call"
            );
            // The BYE DoS on 10.1.0.7 <-> 10.2.0.7 is acme's (equal
            // prefixes: the lower id), the flood on 10.2.0.9 contoso's.
            let tenant_of = |label: &str| {
                tagged
                    .iter()
                    .find(|a| a.alert.label == label)
                    .map(|a| a.tenant)
            };
            assert_eq!(tenant_of(labels::RTP_AFTER_BYE), Some(1));
            assert_eq!(tenant_of(labels::INVITE_FLOOD), Some(2));
        }
    }
}

/// A tenant's threshold covers floods *toward* its phones: eight INVITEs in
/// one second from an outside address trip `invite_flood_n=5` and carry the
/// tenant's tag, where the default threshold would stay silent.
#[test]
fn a_tenants_threshold_applies_to_a_flood_from_outside() {
    let tenants = TenantMap::parse(
        "tenant strict 10.2.0.0/16 invite_flood_n=5",
        Config::default(),
    )
    .unwrap();
    let attacker = Address::new(203, 0, 113, 66, 5060);
    let phone = Address::new(10, 2, 0, 9, 5060);
    let packets: Vec<Packet> = (0..8u64)
        .map(|i| {
            let flood = vids::attacks::craft::flood_invite(
                &vids::sip::SipUri::new("bob9", "b.example.com"),
                attacker,
                "flooder",
                &format!("outside-flood-{i}"),
            );
            pkt(attacker, phone, Payload::Sip(flood), i * 100, 0).0
        })
        .collect();
    for nodes in [1usize, 3] {
        let mut cluster = Cluster::with_cost(tenants.clone(), nodes, CostModel::free());
        cluster.process_packets(&packets, SimTime::ZERO, &mut NullSink);
        let floods: Vec<_> = cluster
            .alerts()
            .iter()
            .filter(|a| a.alert.label == labels::INVITE_FLOOD)
            .collect();
        assert!(!floods.is_empty(), "{nodes} nodes: the flood went unseen");
        assert!(
            floods.iter().all(|a| a.tenant == 1),
            "{nodes} nodes: the flood escaped the strict tenant: {floods:?}"
        );
        assert_eq!(cluster.tenant_counters(1).sip_packets, 8);
        assert_eq!(cluster.tenant_counters(0).sip_packets, 0);
    }
}

/// A tenant with `max_calls=2` can fill only its own call table: later
/// dialogs are refused for it while the unbounded default tenant keeps
/// tracking everything — one tenant's flood cannot evict another's state.
/// (The quota is enforced per analysis engine, so one node, one shard
/// makes the arithmetic exact; separate per-tenant pools give the eviction
/// isolation at any scale.)
#[test]
fn tenant_call_quotas_are_isolated() {
    let tenants =
        TenantMap::parse("tenant capped 172.16.0.0/16 max_calls=2", Config::default()).unwrap();
    let mut cluster = Cluster::with_cost(tenants, 1, CostModel::free());
    cluster.enable_telemetry(16);
    let mut trace = Vec::new();
    for i in 0..5u8 {
        let src = Address::new(172, 16, 0, i + 1, 5060);
        let inv = invite(
            &format!("quota-capped-{i}"),
            &format!("172.16.0.{}", i + 1),
            20_000,
        );
        trace.push(pkt(
            src,
            Address::new(10, 2, 0, 1, 5060),
            Payload::Sip(inv.to_string()),
            10 + i as u64,
            0,
        ));
    }
    for i in 0..3u8 {
        let src = Address::new(10, 1, 0, i + 1, 5060);
        let inv = invite(
            &format!("quota-free-{i}"),
            &format!("10.1.0.{}", i + 1),
            21_000,
        );
        trace.push(pkt(
            src,
            Address::new(10, 2, 0, 1, 5060),
            Payload::Sip(inv.to_string()),
            20 + i as u64,
            0,
        ));
    }
    let packets: Vec<Packet> = trace.iter().map(|(p, _)| p.clone()).collect();
    cluster.process_packets(&packets, SimTime::from_millis(1), &mut NullSink);

    assert_eq!(
        cluster.tenant_monitored_calls(1),
        2,
        "capped tenant exceeded its quota"
    );
    assert_eq!(
        cluster.tenant_monitored_calls(0),
        3,
        "default tenant lost calls to a foreign quota"
    );
    // The refusals are visible in the capped tenant's telemetry — and only
    // there.
    let mut capped = SlabSnapshot::zeroed();
    let mut free = SlabSnapshot::zeroed();
    let snap = cluster.telemetry_snapshot(SimTime::from_millis(1)).unwrap();
    for (engine, slab) in snap.shards.iter().enumerate() {
        match cluster.pool().engine_tenant(engine) {
            1 => capped.merge(slab),
            0 => free.merge(slab),
            _ => {}
        }
    }
    assert_eq!(capped.counter(Counter::CallQuotaDrops), 3);
    assert_eq!(free.counter(Counter::CallQuotaDrops), 0);
}

/// Growing the cluster only moves keys whose rendezvous choice changes. A
/// BYE-DoS in flight on an *unmoved* call must still convict after the
/// rebalance: the spoofed BYE and the post-BYE media reach the node that
/// has been tracking the call all along.
#[test]
fn rebalance_keeps_verdicts_for_unmoved_calls() {
    // Find a call-id whose call key owns the same node at 2 and at 3
    // nodes, using the real classifier + routing hint.
    let caller = Address::new(10, 1, 0, 7, 5060);
    let callee = Address::new(10, 2, 0, 7, 5060);
    let call_id = (0..64u32)
        .map(|i| format!("rebalance-{i}"))
        .find(|id| {
            let inv = invite(id, "10.1.0.7", 22_000);
            let (packet, _) = pkt(caller, callee, Payload::Sip(inv.to_string()), 0, 0);
            let hint = route_hint(&classify(&packet));
            rendezvous(hint.call_hash(), 2) == rendezvous(hint.call_hash(), 3)
        })
        .expect("no stable call-id in 64 candidates");

    let mut cluster =
        Cluster::with_cost(TenantMap::single(Config::default()), 2, CostModel::free());
    let mut sink = CollectSink::new();

    // Establish the call on the 2-node cluster.
    let inv = invite(&call_id, "10.1.0.7", 22_000);
    let answer = SessionDescription::audio_offer("bob", "10.2.0.7", 32_000, &[Codec::G729]);
    let ok = inv
        .response(StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, answer.to_string());
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    let setup = vec![
        pkt(caller, callee, Payload::Sip(inv.to_string()), 100, 0).0,
        pkt(callee, caller, Payload::Sip(ok.to_string()), 150, 0).0,
        pkt(caller, callee, Payload::Sip(ack.to_string()), 200, 0).0,
    ];
    cluster.process_packets(&setup, SimTime::from_millis(100), &mut sink);
    assert_eq!(cluster.monitored_calls(), 1);

    // Rebalance 2 -> 3 nodes. The call's key does not move.
    cluster.set_nodes(3);
    assert_eq!(cluster.monitored_calls(), 1, "unmoved call lost its state");

    // Attack after the rebalance: spoofed BYE, then media keeps flowing
    // past timer T on the negotiated coordinates.
    let snap = vids::attacks::craft::DialogSnapshot {
        call_id: call_id.clone(),
        caller_from: vids::sip::headers::NameAddr::new(vids::sip::SipUri::new(
            "alice",
            "a.example.com",
        ))
        .with_tag("tag-alice"),
        callee_to: vids::sip::headers::NameAddr::new(vids::sip::SipUri::new(
            "bob",
            "b.example.com",
        ))
        .with_tag("tt"),
        caller_addr: caller,
        callee_addr: callee,
        callee_media: Some(callee.with_port(32_000)),
        caller_media: Some(caller.with_port(22_000)),
        caller_ssrc: Some(7),
        caller_rtp_cursor: Some((40, 3_200)),
        invite_branch: format!("z9hG4bK-{call_id}"),
    };
    let (victim, spoof) = snap.endpoints(vids::attacks::craft::Target::Callee);
    let bye = vids::attacks::craft::spoofed_bye(&snap, vids::attacks::craft::Target::Callee);
    let mut attack = vec![pkt(spoof.with_port(5060), victim, Payload::Sip(bye), 500, 0).0];
    for i in 0..30u16 {
        let media = vids::rtp::packet::RtpPacket::new(18, 40 + i, (40 + i as u32) * 80, 7)
            .with_payload(vec![0; 10]);
        attack.push(
            pkt(
                caller.with_port(22_000),
                callee.with_port(32_000),
                Payload::Rtp(media.to_bytes()),
                520 + i as u64 * 40,
                0,
            )
            .0,
        );
    }
    cluster.process_packets(&attack, SimTime::from_millis(500), &mut sink);
    cluster.tick(SimTime::from_secs(30), &mut sink);

    assert!(
        cluster
            .alerts()
            .iter()
            .any(|a| a.alert.label == labels::RTP_AFTER_BYE),
        "BYE-DoS verdict lost across the rebalance: {:?}",
        cluster.alerts()
    );
}

/// Shrinking is routing-only too: keys that stay on surviving nodes keep
/// their state, keys on removed nodes restart — and the cluster never
/// mixes them up (no panics, no cross-wired verdicts).
#[test]
fn shrink_drops_only_the_removed_nodes_state() {
    let mut cluster =
        Cluster::with_cost(TenantMap::single(Config::default()), 3, CostModel::free());
    let caller = Address::new(10, 1, 0, 7, 5060);
    let callee = Address::new(10, 2, 0, 7, 5060);
    // Spread 12 half-open calls over the 3 nodes.
    let mut setup = Vec::new();
    let mut survivors = 0usize;
    for i in 0..12u32 {
        let id = format!("shrink-{i}");
        let inv = invite(&id, "10.1.0.7", 22_000);
        let (packet, _) = pkt(
            caller,
            callee,
            Payload::Sip(inv.to_string()),
            100 + i as u64,
            0,
        );
        let hint = route_hint(&classify(&packet));
        if rendezvous(hint.call_hash(), 3) < 2 {
            survivors += 1;
        }
        setup.push(packet);
    }
    cluster.process_packets(&setup, SimTime::from_millis(100), &mut NullSink);
    assert_eq!(cluster.monitored_calls(), 12);
    assert!(survivors < 12, "trace never landed on the removed node");

    cluster.set_nodes(2);
    assert_eq!(
        cluster.monitored_calls(),
        survivors,
        "shrink kept the wrong calls"
    );
}

/// A BYE-DoS on `call_id` from 10.1.0.7 to 10.2.0.7: the set-up (INVITE,
/// 200 OK with SDP, ACK) from `t0` ms, then a spoofed BYE at `t1` ms and
/// media on the negotiated coordinates past timer T.
fn bye_dos(call_id: &str, t0: u64, t1: u64) -> (Vec<Packet>, Vec<Packet>) {
    use vids::attacks::craft::{spoofed_bye, DialogSnapshot, Target};
    use vids::sip::headers::NameAddr;
    use vids::sip::SipUri;

    let caller = Address::new(10, 1, 0, 7, 5060);
    let callee = Address::new(10, 2, 0, 7, 5060);
    let inv = invite(call_id, "10.1.0.7", 22_000);
    let answer = SessionDescription::audio_offer("bob", "10.2.0.7", 32_000, &[Codec::G729]);
    let ok = inv
        .response(StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, answer.to_string());
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    let setup = vec![
        pkt(caller, callee, Payload::Sip(inv.to_string()), t0, 0).0,
        pkt(callee, caller, Payload::Sip(ok.to_string()), t0 + 50, 0).0,
        pkt(caller, callee, Payload::Sip(ack.to_string()), t0 + 100, 0).0,
    ];
    let snap = DialogSnapshot {
        call_id: call_id.to_owned(),
        caller_from: NameAddr::new(SipUri::new("alice", "a.example.com")).with_tag("tag-alice"),
        callee_to: NameAddr::new(SipUri::new("bob", "b.example.com")).with_tag("tt"),
        caller_addr: caller,
        callee_addr: callee,
        callee_media: Some(callee.with_port(32_000)),
        caller_media: Some(caller.with_port(22_000)),
        caller_ssrc: Some(7),
        caller_rtp_cursor: Some((40, 3_200)),
        invite_branch: format!("z9hG4bK-{call_id}"),
    };
    let (victim, spoof) = snap.endpoints(Target::Callee);
    let bye = spoofed_bye(&snap, Target::Callee);
    let mut attack = vec![pkt(spoof.with_port(5060), victim, Payload::Sip(bye), t1, 0).0];
    for i in 0..30u16 {
        let media = vids::rtp::packet::RtpPacket::new(18, 40 + i, (40 + i as u32) * 80, 7)
            .with_payload(vec![0; 10]);
        let at = t1 + 20 + u64::from(i) * 40;
        let rtp = Payload::Rtp(media.to_bytes());
        attack.push(
            pkt(
                caller.with_port(22_000),
                callee.with_port(32_000),
                rtp,
                at,
                0,
            )
            .0,
        );
    }
    (setup, attack)
}

/// Tenant B's alerts do not depend on tenant A's traffic: a BYE-DoS in
/// tenant B, fed with and without a tenant-A INVITE flood in the same
/// batches (same batch clocks, monotone timestamps), yields the same
/// tenant-B alerts — label, kind, Call-ID, detail and time — at any node
/// count.
#[test]
fn a_foreign_flood_never_changes_another_tenants_alerts() {
    let tenants = TenantMap::parse(
        "tenant a 172.16.0.0/16 invite_flood_n=5\ntenant b 10.0.0.0/8",
        Config::default(),
    )
    .unwrap();
    let (setup, attack) = bye_dos("isolated-bye", 100, 500);
    let attacker = Address::new(172, 16, 0, 66, 5060);
    let victim = Address::new(10, 2, 0, 9, 5060);
    let mut trace: Vec<(Packet, bool)> = setup
        .into_iter()
        .chain(attack)
        .map(|p| (p, false))
        .collect();
    for i in 0..60u64 {
        let flood = vids::attacks::craft::flood_invite(
            &vids::sip::SipUri::new("bob9", "b.example.com"),
            attacker,
            "flooder",
            &format!("foreign-flood-{i}"),
        );
        trace.push((
            pkt(attacker, victim, Payload::Sip(flood), 90 + i * 25, 0).0,
            true,
        ));
    }
    trace.sort_by_key(|(p, _)| p.sent_at);

    for nodes in [1usize, 3] {
        let run = |with_flood: bool| {
            let mut cluster = Cluster::with_cost(tenants.clone(), nodes, CostModel::free());
            for chunk in trace.chunks(8) {
                let now = chunk[0].0.sent_at;
                let packets: Vec<Packet> = chunk
                    .iter()
                    .filter(|(_, flood)| with_flood || !flood)
                    .map(|(p, _)| p.clone())
                    .collect();
                cluster.process_packets(&packets, now, &mut NullSink);
            }
            cluster.tick(SimTime::from_secs(30), &mut NullSink);
            let tenant_b: Vec<_> = cluster
                .alerts()
                .iter()
                .filter(|a| a.tenant == 2)
                .map(|a| {
                    let a = &a.alert;
                    (
                        a.label.clone(),
                        a.kind,
                        a.call_id.clone(),
                        a.detail.clone(),
                        a.time_ms,
                    )
                })
                .collect();
            let foreign = cluster.alerts().iter().filter(|a| a.tenant == 1).count();
            (tenant_b, foreign)
        };
        let (alone, quiet) = run(false);
        let (beside_flood, flooded) = run(true);
        assert!(
            alone.iter().any(|a| a.0 == labels::RTP_AFTER_BYE),
            "{nodes} nodes: the BYE-DoS went undetected: {alone:?}"
        );
        assert_eq!(quiet, 0);
        assert!(
            flooded > 0,
            "{nodes} nodes: tenant A's flood went undetected"
        );
        assert_eq!(
            alone, beside_flood,
            "{nodes} nodes: tenant A's flood leaked into tenant B"
        );
    }
}

/// A rebalance with telemetry on: 2 → 3 → 2 nodes of 2 shards. After each
/// step the snapshot has one slab per engine, what the surviving engines
/// counted before the step is still in the merged view, and a BYE-DoS on a
/// call whose key kept its node still convicts.
#[test]
fn rebalance_keeps_surviving_engines_telemetry() {
    let call_id = (0..64u32)
        .map(|i| format!("rebalance-telemetry-{i}"))
        .find(|id| {
            let (setup, _) = bye_dos(id, 0, 0);
            let hint = route_hint(&classify(&setup[0]));
            rendezvous(hint.call_hash(), 2) == rendezvous(hint.call_hash(), 3)
        })
        .expect("no stable call-id in 64 candidates");
    let config = Config::builder().shards(2).build().unwrap();
    for path in [&[3usize][..], &[3, 2]] {
        let (setup, attack) = bye_dos(&call_id, 100, 500);
        let mut cluster = Cluster::with_cost(TenantMap::single(config), 2, CostModel::free());
        cluster.enable_telemetry(16);
        cluster.process_packets(&setup, SimTime::from_millis(100), &mut NullSink);
        let mut nodes = 2;
        for &next in path {
            let before = cluster
                .telemetry_snapshot(SimTime::from_millis(300))
                .unwrap();
            cluster.set_nodes(next);
            let after = cluster
                .telemetry_snapshot(SimTime::from_millis(300))
                .unwrap();
            assert_eq!(after.shards.len(), next * 2, "{nodes} -> {next} nodes");
            let survivors = nodes.min(next) * 2;
            let sip = |slabs: &[SlabSnapshot]| -> Vec<u64> {
                slabs
                    .iter()
                    .map(|s| s.counter(Counter::SipPackets))
                    .collect()
            };
            assert_eq!(
                sip(&after.shards[..survivors]),
                sip(&before.shards[..survivors])
            );
            assert!(sip(&after.shards[survivors..]).iter().all(|&n| n == 0));
            assert_eq!(
                after.merged().counter(Counter::SipPackets),
                sip(&before.shards[..survivors]).iter().sum::<u64>()
            );
            assert_eq!(
                after.pool.counter(Counter::BatchesIngested),
                before.pool.counter(Counter::BatchesIngested)
            );
            nodes = next;
        }
        let mut sink = CollectSink::new();
        cluster.process_packets(&attack, SimTime::from_millis(500), &mut sink);
        cluster.tick(SimTime::from_secs(30), &mut sink);
        assert!(
            sink.alerts()
                .iter()
                .any(|a| a.label == labels::RTP_AFTER_BYE),
            "BYE-DoS verdict lost across {path:?}: {:?}",
            sink.alerts()
        );
    }
}
