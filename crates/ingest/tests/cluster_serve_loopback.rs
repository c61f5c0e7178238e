//! End-to-end federated serve over real loopback UDP: an INVITE flood
//! through the kernel's socket stack must come out of the cluster
//! coordinator as an invite-flood alert — tagged with the tenant the
//! source prefix maps to, raised under that tenant's own threshold, and
//! counted in the merged cluster telemetry.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use vids_cluster::{Cluster, TenantMap};
use vids_core::alert::labels;
use vids_core::config::Config;
use vids_core::cost::CostModel;
use vids_core::sink::CollectSink;
use vids_core::telemetry::Counter;
use vids_ingest::cluster_serve::serve_cluster_on;
use vids_ingest::server::ServeOptions;
use vids_ingest::udp::UdpPool;
use vids_sip::{Request, SipUri};

/// Sandboxes without network namespaces cannot bind loopback; skip
/// rather than fail there.
fn can_bind_loopback() -> bool {
    UdpSocket::bind("127.0.0.1:0").is_ok()
}

const FLOOD: usize = 30;

#[test]
fn cluster_serve_detects_a_tenant_flood_over_real_udp() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }

    let udp = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 2).unwrap();
    let target = udp.local_addr();
    let opts = ServeOptions {
        receivers: 2,
        flush_packets: 8,
        read_timeout: Duration::from_millis(5),
        tick_interval: Duration::from_millis(50),
        snapshot_flag: None,
    };
    // Loopback traffic maps to the `local` tenant, which alerts at a
    // stricter threshold than the default.
    let base = Config::builder().shards(2).build().unwrap();
    let tenants = TenantMap::parse("tenant local 127.0.0.0/8 invite_flood_n=5", base).unwrap();
    let mut cluster = Cluster::with_cost(tenants, 3, CostModel::free());
    cluster.enable_telemetry(64);
    let mut sink = CollectSink::new();
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
            let to = SipUri::new("bob", "b.example.com");
            for i in 0..FLOOD {
                let invite = Request::invite(
                    &SipUri::new("mallory", "a.example.com"),
                    &to,
                    &format!("cluster-flood-{i}"),
                );
                sender
                    .send_to(invite.to_string().as_bytes(), target)
                    .unwrap();
            }
            std::thread::sleep(Duration::from_millis(600));
            stop.store(true, Ordering::Relaxed);
        });
        serve_cluster_on(&mut cluster, udp, &opts, &stop, &mut sink).unwrap()
    });

    assert_eq!(
        report.datagrams_rx, FLOOD as u64,
        "every flood datagram must arrive"
    );
    assert_eq!(report.datagrams_dropped, 0);
    assert_eq!(report.demux_unknown, 0, "INVITEs must demux as signaling");
    assert_eq!(report.datagrams_ipv6, 0);
    assert!(report.batches >= 1);
    assert!(
        sink.alerts()
            .iter()
            .any(|a| a.label == labels::INVITE_FLOOD),
        "no invite-flood alert; got {:?}",
        sink.alerts()
    );
    // Every alert belongs to the `local` tenant (id 1) — the flood fired
    // under its stricter threshold.
    assert!(!cluster.alerts().is_empty());
    assert!(
        cluster.alerts().iter().all(|a| a.tenant == 1),
        "alert escaped the local tenant: {:?}",
        cluster.alerts()
    );
    assert_eq!(cluster.tenant_counters(1).sip_packets, FLOOD as u64);
    assert_eq!(cluster.tenant_counters(0).sip_packets, 0);

    // The socket-side counters landed in the merged cluster snapshot.
    let snap = cluster.telemetry_snapshot(report.ended_at).unwrap();
    let merged = snap.merged();
    assert_eq!(merged.counter(Counter::DatagramsRx), FLOOD as u64);
    assert_eq!(merged.counter(Counter::PacketsIngested), FLOOD as u64);
}
