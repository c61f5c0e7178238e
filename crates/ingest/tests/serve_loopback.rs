//! End-to-end serve test over real loopback UDP: an INVITE flood sent
//! through the kernel's socket stack must come out of the coordinator as
//! an invite-flood alert. This is the wire-tier acceptance check — it
//! exercises socket binding, the receiver threads, demux (on a
//! non-5060 port, so the SIP start-line heuristic), batching, the
//! coordinator, and graceful stop-flag shutdown in one pass. A
//! tenant-mapped pool takes the same path, flight recorder included.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vids_core::alert::{labels, Alert};
use vids_core::config::Config;
use vids_core::cost::CostModel;
use vids_core::pool::VidsPool;
use vids_core::sink::{AlertSink, CollectSink, FnSink};
use vids_core::telemetry::Counter;
use vids_core::tenant::{TenantId, TenantMap};
use vids_ingest::record_tap::RecordTap;
use vids_ingest::server::{serve_on, ServeOptions};
use vids_ingest::udp::UdpPool;
use vids_record::{replay_vdump, Recorder, Vdump};
use vids_sip::{Method, Request, SipUri, StatusCode};

/// Sandboxes without network namespaces cannot bind loopback; skip
/// rather than fail there.
fn can_bind_loopback() -> bool {
    UdpSocket::bind("127.0.0.1:0").is_ok()
}

const FLOOD: usize = 30;

/// Two shards and four: the same daemon over two and four pipeline
/// workers.
#[test]
fn serve_detects_an_invite_flood_over_real_udp() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    for shards in [2usize, 4] {
        serve_an_invite_flood(shards);
    }
}

fn serve_an_invite_flood(shards: usize) {
    let udp = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 2).unwrap();
    let target = udp.local_addr();
    let opts = ServeOptions {
        receivers: 2,
        flush_packets: 8,
        read_timeout: Duration::from_millis(5),
        tick_interval: Duration::from_millis(50),
        snapshot_flag: None,
    };
    let config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    assert_eq!(pool.shards(), shards);
    let mut sink = CollectSink::new();
    let stop = AtomicBool::new(false);

    // Flight recorder riding along: one ring per receiver, dumps into a
    // scratch directory.
    let dump_dir = std::env::temp_dir().join(format!("vids-serve-loopback-dumps-{shards}"));
    std::fs::remove_dir_all(&dump_dir).ok();
    let recorder = Recorder::with_defaults(2);
    let mut serve_rec = RecordTap::new(&recorder, Some(&dump_dir));

    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
            let to = SipUri::new("bob", "b.example.com");
            for i in 0..FLOOD {
                let invite = Request::invite(
                    &SipUri::new("mallory", "a.example.com"),
                    &to,
                    &format!("loopback-flood-{i}"),
                );
                sender
                    .send_to(invite.to_string().as_bytes(), target)
                    .unwrap();
            }
            // Give the receivers time to drain the kernel buffer before
            // asking them to stop; they exit at the next poll after the
            // flag flips.
            std::thread::sleep(Duration::from_millis(600));
            stop.store(true, Ordering::Relaxed);
        });
        serve_on(
            &mut pool,
            udp,
            &opts,
            None,
            &stop,
            Some(&mut serve_rec),
            &mut sink,
        )
        .unwrap()
    });

    assert_eq!(
        report.datagrams_rx, FLOOD as u64,
        "every flood datagram must arrive"
    );
    assert_eq!(report.datagrams_dropped, 0);
    assert_eq!(report.demux_unknown, 0, "INVITEs must demux as signaling");
    assert!(report.batches >= 1);
    // Telemetry is off: the counts are in the pool slab all the same.
    assert_conserved(&pool);
    assert!(
        sink.alerts()
            .iter()
            .any(|a| a.label == labels::INVITE_FLOOD),
        "no invite-flood alert; got {:?}",
        sink.alerts()
    );

    // The recorder saw every datagram and the alert produced a readable
    // dump of the surrounding window.
    assert_eq!(recorder.stats().rings.recorded, FLOOD as u64);
    assert_eq!(serve_rec.io_errors, 0);
    assert!(
        !serve_rec.written.is_empty(),
        "the flood alert must trigger a dump"
    );
    let dump = Vdump::read_from(&serve_rec.written[0]).unwrap();
    assert!(dump.packets.len() as u64 <= FLOOD as u64);
    assert!(!dump.packets.is_empty());
    assert_eq!(dump.alert.label, labels::INVITE_FLOOD);
    std::fs::remove_dir_all(&dump_dir).ok();
}

/// The daemon with `--tenants`: loopback traffic maps to the `local`
/// tenant, whose threshold (5) is below the default's (10). Six INVITEs
/// therefore alert only under the tenant's own threshold; the alert is
/// tagged with the tenant, the tenant's engines count the traffic, the
/// socket-side counters reach the pool's snapshot, and the flood's
/// `.vdump` carries the tenant map and replays byte-identically. The
/// sixth INVITE raises the alert and nothing follows it, so the dump's
/// counters are the ones replay sees at the alert.
#[test]
fn serve_detects_and_records_a_tenant_flood_over_real_udp() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    const TENANT_FLOOD: usize = 6;
    let udp = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 2).unwrap();
    let target = udp.local_addr();
    let opts = ServeOptions {
        receivers: 2,
        flush_packets: 8,
        read_timeout: Duration::from_millis(5),
        tick_interval: Duration::from_millis(50),
        snapshot_flag: None,
    };
    let base = Config::builder().shards(6).build().unwrap();
    let tenants = TenantMap::parse("tenant local 127.0.0.0/8 invite_flood_n=5", base).unwrap();
    let mut pool = VidsPool::with_tenants(tenants, CostModel::free());
    assert_eq!(pool.shards(), 2 * 6, "tenants x shards");
    let registry = pool.enable_telemetry(64);
    let mut sink = Tenanted::default();
    let stop = AtomicBool::new(false);
    let dump_dir = std::env::temp_dir().join("vids-serve-loopback-tenant-dumps");
    std::fs::remove_dir_all(&dump_dir).ok();
    let recorder = Recorder::with_defaults(2);
    let mut tap = RecordTap::new(&recorder, Some(&dump_dir));

    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            let sender = Sender::new(target);
            for i in 0..TENANT_FLOOD {
                let flood = Request::invite(
                    &SipUri::new("mallory", "a.example.com"),
                    &SipUri::new("bob", "b.example.com"),
                    &format!("tenant-flood-{i}"),
                );
                sender.send(&flood.to_string());
            }
            std::thread::sleep(Duration::from_millis(600));
            stop.store(true, Ordering::Relaxed);
        });
        serve_on(
            &mut pool,
            udp,
            &opts,
            Some(&registry),
            &stop,
            Some(&mut tap),
            &mut sink,
        )
        .unwrap()
    });

    let flood = TENANT_FLOOD as u64;
    assert_eq!(
        report.datagrams_rx, flood,
        "every flood datagram must arrive"
    );
    assert_eq!(report.datagrams_dropped, 0);
    assert_eq!(report.demux_unknown, 0, "INVITEs must demux as signaling");
    assert_eq!(report.datagrams_ipv6, 0);
    assert!(report.batches >= 1);
    assert!(
        sink.alerts
            .alerts()
            .iter()
            .any(|a| a.label == labels::INVITE_FLOOD),
        "no invite-flood alert; got {:?}",
        sink.alerts.alerts()
    );
    assert_eq!(pool.alerts_merged(), sink.alerts.len() as u64);
    assert!(
        sink.tenants.iter().all(|&tenant| tenant == 1),
        "alert escaped the local tenant: {:?}",
        sink.alerts.alerts()
    );
    assert_eq!(pool.tenant_counters(1).sip_packets, flood);
    assert_eq!(pool.tenant_counters(0).sip_packets, 0);
    let merged = pool.telemetry_snapshot(report.ended_at).unwrap().merged();
    assert_eq!(merged.counter(Counter::DatagramsRx), flood);
    assert_eq!(merged.counter(Counter::PacketsIngested), flood);

    assert_eq!(tap.io_errors, 0);
    let dump_path = tap
        .written
        .iter()
        .find(|p| p.to_string_lossy().contains(labels::INVITE_FLOOD))
        .expect("the flood alert must trigger a dump");
    let dump = Vdump::read_from(dump_path).unwrap();
    assert_eq!(dump.tenants.as_ref(), pool.tenants());
    assert_eq!(dump.packets.len(), TENANT_FLOOD);
    let verdict = replay_vdump(&dump);
    assert!(verdict.identical(), "the dump did not replay: {verdict:?}");
    std::fs::remove_dir_all(&dump_dir).ok();
}

/// Collects alerts with the tenant the pool handed each one over with.
#[derive(Default)]
struct Tenanted {
    alerts: CollectSink,
    tenants: Vec<TenantId>,
}

impl AlertSink for Tenanted {
    fn accept(&mut self, alert: Alert) {
        self.accept_from(0, alert);
    }

    fn accept_from(&mut self, tenant: TenantId, alert: Alert) {
        self.tenants.push(tenant);
        self.alerts.accept(alert);
    }
}

/// A loopback sender for one test's traffic.
struct Sender {
    socket: UdpSocket,
    target: SocketAddr,
}

impl Sender {
    fn new(target: SocketAddr) -> Self {
        Sender {
            socket: UdpSocket::bind("127.0.0.1:0").unwrap(),
            target,
        }
    }

    fn send(&self, message: &str) {
        self.socket
            .send_to(message.as_bytes(), self.target)
            .unwrap();
    }
}

fn invite(call_id: &str) -> Request {
    Request::invite(
        &SipUri::new("alice", "a.example.com"),
        &SipUri::new("bob", "b.example.com"),
        call_id,
    )
}

/// The default serve options batch at 256 datagrams. At one datagram per
/// millisecond the socket never stays quiet for a read timeout, so a batch
/// handed over only when full would hold a forged BYE sent early in the
/// stream for a quarter of a second; a batch handed over when the socket
/// drains carries it at once, and the coordinator merges its epoch at the
/// next submit.
#[test]
fn a_forged_bye_alert_reaches_the_sink_promptly_at_a_trickle() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    const CALLS: usize = 5;
    const FILLER: usize = 300;
    let config = Config::default();
    let opts = ServeOptions::from_config(&config);
    let udp = UdpPool::bind("127.0.0.1:0".parse().unwrap(), opts.receivers).unwrap();
    let target = udp.local_addr();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    let stop = AtomicBool::new(false);
    let mut alerts: Vec<(Instant, Alert)> = Vec::new();
    let mut sink = FnSink(|alert: Alert| alerts.push((Instant::now(), alert)));

    let (bye_sent, report) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let tx = Sender::new(target);
            let trickle = |message: &str| {
                tx.send(message);
                std::thread::sleep(Duration::from_millis(1));
            };
            // A few established calls, one datagram per millisecond.
            let calls: Vec<Request> = (0..CALLS)
                .map(|i| invite(&format!("trickle-{i}")))
                .collect();
            let ringing = |inv: &Request| {
                inv.response(StatusCode::RINGING)
                    .with_to_tag("tt")
                    .to_string()
            };
            for inv in &calls {
                trickle(&inv.to_string());
                trickle(&ringing(inv));
                trickle(&inv.response(StatusCode::OK).with_to_tag("tt").to_string());
                trickle(&Request::in_dialog(Method::Ack, inv, 1, Some("tt")).to_string());
            }
            // The forged BYE: the right Call-ID, a To-tag the dialog never had.
            let forged = Request::in_dialog(Method::Bye, &calls[0], 2, Some("forged")).to_string();
            let filler: Vec<String> = calls[1..].iter().map(ringing).collect();
            let bye_sent = Instant::now();
            trickle(&forged);
            // Benign signalling keeps the socket busy: ringing
            // retransmissions on the other calls.
            for i in 0..FILLER {
                trickle(&filler[i % filler.len()]);
            }
            std::thread::sleep(Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
            bye_sent
        });
        let report = serve_on(&mut pool, udp, &opts, None, &stop, None, &mut sink).unwrap();
        (sender.join().unwrap(), report)
    });

    assert_eq!(report.datagrams_dropped, 0);
    let spoofed: Vec<&(Instant, Alert)> = alerts
        .iter()
        .filter(|(_, a)| a.label == labels::SPOOFED_BYE)
        .collect();
    assert_eq!(spoofed.len(), 1, "one spoofed-bye alert; got {alerts:?}");
    let (at, alert) = spoofed[0];
    assert_eq!(alert.call_id.as_deref(), Some("trickle-0"));
    let delay = at.saturating_duration_since(bye_sent);
    eprintln!("forged BYE to alert: {delay:?}");
    assert!(
        delay < Duration::from_millis(100),
        "the alert took {delay:?} from the send"
    );
}

/// A stalled coordinator backs the receivers up: the hand-off fills, their
/// batches grow to `flush_packets` and are then shed. Every datagram must
/// still be accounted for, either processed by the engine or counted as
/// dropped.
#[test]
fn a_stalled_coordinator_sheds_whole_batches_and_counts_them() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    const WARM: usize = 20;
    const BURST: usize = 1_500;
    let udp = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 1).unwrap();
    let target = udp.local_addr();
    let opts = ServeOptions {
        receivers: 1,
        flush_packets: 8,
        read_timeout: Duration::from_millis(5),
        tick_interval: Duration::from_millis(20),
        snapshot_flag: None,
    };
    let mut pool = VidsPool::with_cost(Config::default(), CostModel::free());
    let stop = AtomicBool::new(false);
    // The first alert (the INVITE flood the warm-up raises) blocks the
    // coordinator until the sender has sent the whole burst.
    let (stalled_tx, stalled_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let mut first = true;
    let mut sink = FnSink(|_: Alert| {
        if std::mem::take(&mut first) {
            stalled_tx.send(()).unwrap();
            resume_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the sender resumes the coordinator");
        }
    });

    let report = std::thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            let tx = Sender::new(target);
            let invites: Vec<String> = (0..WARM + BURST)
                .map(|i| invite(&format!("stall-{i}")).to_string())
                .collect();
            for m in &invites[..WARM] {
                tx.send(m);
            }
            stalled_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the flood alert reaches the sink");
            // Ten datagrams per millisecond, gentle enough for the kernel
            // buffer, far more than 64 batches of 8 can hold.
            for chunk in invites[WARM..].chunks(10) {
                for m in chunk {
                    tx.send(m);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // The receiver reads what the kernel still holds while the
            // coordinator is stalled; then let it drain everything.
            std::thread::sleep(Duration::from_millis(100));
            resume_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });
        serve_on(&mut pool, udp, &opts, None, stop, None, &mut sink).unwrap()
    });

    let sent = (WARM + BURST) as u64;
    assert_eq!(report.datagrams_rx, sent, "every datagram must arrive");
    assert!(
        report.datagrams_dropped > 0,
        "the stall never filled the hand-off: {report:?}"
    );
    let c = pool.counters();
    let processed = c.sip_packets + c.rtp_packets + c.malformed + c.ignored;
    assert_eq!(
        processed + report.datagrams_dropped,
        report.datagrams_rx,
        "every datagram processed or counted as dropped: {report:?}, {c:?}"
    );
    assert_conserved(&pool);
}

/// Every datagram a served pool received was ingested or counted as
/// dropped, in the pool slab that is the one store of the counts.
fn assert_conserved(pool: &VidsPool) {
    let slab = pool.registry().pool();
    let (rx, ingested, dropped) = (
        slab.get(Counter::DatagramsRx),
        slab.get(Counter::PacketsIngested),
        slab.get(Counter::DatagramsDropped),
    );
    assert_eq!(
        rx,
        ingested + dropped,
        "received {rx}, ingested {ingested}, dropped {dropped}"
    );
}
