//! Deterministic re-execution of a captured window through a fresh engine.
//!
//! A dump stores, for every datagram: the raw wire bytes, the demux
//! verdict, the addresses, the arrival timestamp, and the ingest batch it
//! was flushed in. That is everything the engine's behavior depends on:
//!
//! * events are re-classified with [`classify_wire`], which is pinned
//!   byte-identical to the live demux path;
//! * batches are re-formed from the recorded batch ids, and each batch's
//!   clock is its first event's timestamp — exactly the rule both ingest
//!   paths use;
//! * the final timer sweep runs at `last_at + replay_grace` from the
//!   recorded [`Config`], like offline replay does.
//!
//! Replay is *exact* (alert, trace, counters, call snapshot all
//! byte-identical) whenever the captured window covers the engine's
//! relevant history — i.e. the ring did not overwrite packets that fed
//! the triggering pattern. [`replay_vdump`] checks all of that and
//! reports which parts reproduced.
//!
//! [`Config`]: vids_core::config::Config

use vids_core::alert::Alert;
use vids_core::classify::{classify_wire, Classified, WireProto};
use vids_core::cost::CostModel;
use vids_core::pool::{VidsPool, WireEvent};
use vids_core::sink::CollectSink;
use vids_core::snapshot::CallSnapshot;
use vids_netsim::packet::Address;
use vids_netsim::time::SimTime;

use crate::ring::RecordedClass;
use crate::vdump::{encode_alert, DumpCounters, RecordedPacket, Vdump};

/// Rebuilds the engine-facing classification of a recorded datagram,
/// replicating the live demux mapping: SIP and RTP re-classify from the
/// raw bytes; RTCP, unknown and non-IP traffic is ignored (it still
/// counts in the engine's `ignored` counter, like the live path).
pub fn classify_recorded(p: &RecordedPacket) -> Classified {
    match p.meta.class {
        RecordedClass::Sip => classify_wire(
            WireProto::Sip,
            &p.payload,
            address(p.meta.src_ip, p.meta.src_port),
            address(p.meta.dst_ip, p.meta.dst_port),
        ),
        RecordedClass::Rtp => classify_wire(
            WireProto::Rtp,
            &p.payload,
            address(p.meta.src_ip, p.meta.src_port),
            address(p.meta.dst_ip, p.meta.dst_port),
        ),
        RecordedClass::Rtcp | RecordedClass::Unknown | RecordedClass::NonIp => Classified::Ignored,
    }
}

fn address(ip: u32, port: u16) -> Address {
    let [a, b, c, d] = ip.to_be_bytes();
    Address::new(a, b, c, d, port)
}

/// State captured at the moment the matching alert's batch finished —
/// mirror of what [`crate::recorder::Recorder::dump_alerts`] froze.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchCapture {
    /// The alert that satisfied the matcher.
    pub alert: Alert,
    /// Counters right after the triggering batch (or final sweep).
    pub counters: DumpCounters,
    /// The triggering call's snapshot at the same instant.
    pub snapshot: Option<CallSnapshot>,
}

/// Everything a replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Every alert the replay raised, in deterministic merge order.
    pub alerts: Vec<Alert>,
    /// The first matching alert with its at-match state, if any matched.
    pub capture: Option<MatchCapture>,
    /// Batches re-formed from the recorded grouping.
    pub batches: u64,
    /// Datagrams fed through the engine.
    pub packets: usize,
}

/// Replays `dump` through a fresh engine built from its recorded
/// configuration, watching for the first alert `matcher` accepts. State
/// is captured at the end of the batch that raised it (or after the
/// final timer sweep), matching the original dump-at-batch-end timing.
pub fn replay_with_match(dump: &Vdump, matcher: impl Fn(&Alert) -> bool) -> ReplayOutcome {
    let mut pool = match &dump.tenants {
        Some(tenants) => VidsPool::with_tenants(tenants.clone(), CostModel::free()),
        None => VidsPool::with_cost(dump.config, CostModel::free()),
    };
    if dump.telemetry_ring > 0 {
        pool.enable_telemetry(dump.telemetry_ring as usize);
    }
    let mut sink = CollectSink::new();
    let mut capture: Option<MatchCapture> = None;
    let mut seen = 0usize;
    let mut batches = 0u64;
    let mut last_at = SimTime::ZERO;
    let mut events: Vec<WireEvent> = Vec::new();

    let mut i = 0;
    while i < dump.packets.len() {
        let batch_id = dump.packets[i].meta.batch;
        let clock = SimTime::from_nanos(dump.packets[i].meta.at_ns);
        while i < dump.packets.len() && dump.packets[i].meta.batch == batch_id {
            let p = &dump.packets[i];
            let at = SimTime::from_nanos(p.meta.at_ns);
            if at > last_at {
                last_at = at;
            }
            events.push(WireEvent {
                classified: classify_recorded(p),
                at,
            });
            i += 1;
        }
        pool.process_wire_batch(&mut events, clock, &mut sink);
        events.clear();
        batches += 1;
        scan_for_match(&pool, &sink, &matcher, &mut capture, &mut seen);
    }
    pool.tick(last_at + dump.config.replay_grace, &mut sink);
    scan_for_match(&pool, &sink, &matcher, &mut capture, &mut seen);

    ReplayOutcome {
        alerts: sink.into_alerts(),
        capture,
        batches,
        packets: dump.packets.len(),
    }
}

fn scan_for_match(
    pool: &VidsPool,
    sink: &CollectSink,
    matcher: &impl Fn(&Alert) -> bool,
    capture: &mut Option<MatchCapture>,
    seen: &mut usize,
) {
    if capture.is_none() {
        for a in &sink.alerts()[*seen..] {
            if matcher(a) {
                *capture = Some(MatchCapture {
                    alert: a.clone(),
                    counters: DumpCounters {
                        counters: pool.counters(),
                        alerts_total: pool.alerts_merged(),
                    },
                    snapshot: a.call_id.as_deref().and_then(|id| pool.call_snapshot(id)),
                });
                break;
            }
        }
    }
    *seen = sink.len();
}

/// A matcher accepting alerts with the same identity (kind, label,
/// machine, call scope) as `target` — byte-level fields like the trace
/// and timestamps are allowed to drift. The minimizer shrinks under this.
pub fn loose_matcher(target: &Alert) -> impl Fn(&Alert) -> bool + '_ {
    move |a: &Alert| {
        a.kind == target.kind
            && a.label == target.label
            && a.machine == target.machine
            && a.call_id == target.call_id
    }
}

/// The strict replay verdict: did the recorded run reproduce exactly?
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayVerdict {
    /// The replay's raw outcome.
    pub outcome: ReplayOutcome,
    /// A byte-identical alert (encoding included trace and timestamps)
    /// was raised.
    pub alert_identical: bool,
    /// Counters at match time equal the recorded ones.
    pub counters_identical: bool,
    /// The call snapshot at match time equals the recorded one.
    pub snapshot_identical: bool,
}

impl ReplayVerdict {
    /// True when every compared dimension reproduced byte-identically.
    pub fn identical(&self) -> bool {
        self.alert_identical && self.counters_identical && self.snapshot_identical
    }
}

/// Replays `dump` and checks that the recorded alert reproduces
/// byte-identically, with the same counters and call snapshot at the
/// moment it fired.
pub fn replay_vdump(dump: &Vdump) -> ReplayVerdict {
    let want = encode_alert(&dump.alert);
    let outcome = replay_with_match(dump, |a| encode_alert(a) == want);
    let (alert_identical, counters_identical, snapshot_identical) = match &outcome.capture {
        Some(cap) => (
            true,
            cap.counters == dump.counters,
            cap.snapshot == dump.snapshot,
        ),
        None => (false, false, false),
    };
    ReplayVerdict {
        outcome,
        alert_identical,
        counters_identical,
        snapshot_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::ring::SlotMeta;
    use vids_core::config::Config;

    fn sip_packet(seq: u64, batch: u64, at_ms: u64, text: &str) -> RecordedPacket {
        RecordedPacket {
            meta: SlotMeta {
                seq,
                at_ns: at_ms * 1_000_000,
                batch,
                src_ip: u32::from_be_bytes([10, 1, 0, 10]),
                src_port: 5060,
                dst_ip: u32::from_be_bytes([10, 2, 0, 10]),
                dst_port: 5060,
                class: RecordedClass::Sip,
            },
            payload: text.as_bytes().to_vec(),
        }
    }

    fn invite(call: &str) -> String {
        format!(
            "INVITE sip:bob@b.example.com SIP/2.0\r\n\
             Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK{call}\r\n\
             From: <sip:alice@a.example.com>;tag=t{call}\r\n\
             To: <sip:bob@b.example.com>\r\n\
             Call-ID: {call}\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n"
        )
    }

    /// End-to-end inside the crate: record an INVITE flood through a real
    /// pool, dump on the alert, replay the dump, demand byte identity.
    #[test]
    fn recorded_flood_replays_byte_identically() {
        let config = Config::default();
        let mut pool = VidsPool::with_cost(config, CostModel::free());
        pool.enable_telemetry(128);
        let recorder = Recorder::with_defaults(1);

        let n = config.invite_flood_n + 2; // cross the threshold
        let mut sink = CollectSink::new();
        let mut events = Vec::new();
        for k in 0..n {
            let text = invite(&format!("flood-{k}"));
            let at = SimTime::from_millis(10 + k);
            recorder.record(
                0,
                at,
                std::net::SocketAddr::from(([10, 1, 0, 10], 5060)),
                std::net::SocketAddr::from(([10, 2, 0, 10], 5060)),
                RecordedClass::Sip,
                text.as_bytes(),
            );
            events.push(WireEvent {
                classified: classify_wire(
                    WireProto::Sip,
                    text.as_bytes(),
                    Address::new(10, 1, 0, 10, 5060),
                    Address::new(10, 2, 0, 10, 5060),
                ),
                at,
            });
        }
        let clock = events.first().map(|e| e.at).unwrap();
        pool.process_wire_batch(&mut events, clock, &mut sink);
        recorder.mark_batch();
        assert!(!sink.is_empty(), "flood must raise");
        let dir = std::env::temp_dir().join("vids-record-replay-test");
        std::fs::remove_dir_all(&dir).ok();
        let written = recorder.dump_alerts(&pool, &dir, sink.alerts()).unwrap();
        assert!(!written.is_empty());

        let dump = Vdump::read_from(&written[0]).unwrap();
        assert_eq!(dump.packets.len() as u64, n);
        let verdict = replay_vdump(&dump);
        assert!(
            verdict.identical(),
            "alert={} counters={} snapshot={} alerts={:?}",
            verdict.alert_identical,
            verdict.counters_identical,
            verdict.snapshot_identical,
            verdict.outcome.alerts
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A pool capped at three calls and offered six drops three INVITEs,
    /// so a BYE for a dropped call is a request for an unmonitored one.
    /// Its dump must carry the cap: replayed unbounded, the call would be
    /// tracked and the alert would not reproduce.
    #[test]
    fn a_quota_capped_dump_replays_with_its_quota() {
        use vids_core::telemetry::Counter;

        let config = Config::builder().max_tracked_calls(3).build().unwrap();
        let mut pool = VidsPool::with_cost(config, CostModel::free());
        let registry = pool.enable_telemetry(64);
        let recorder = Recorder::with_defaults(1);
        let bye = "BYE sip:bob@b.example.com SIP/2.0\r\n\
                   Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKq4bye\r\n\
                   From: <sip:alice@a.example.com>;tag=tq-4\r\n\
                   To: <sip:bob@b.example.com>;tag=bob\r\n\
                   Call-ID: q-4\r\nCSeq: 2 BYE\r\nContent-Length: 0\r\n\r\n";
        let offered: Vec<String> = (0..6).map(|k| invite(&format!("q-{k}"))).collect();
        let mut sink = CollectSink::new();
        for (at, batch) in [
            (
                10u64,
                offered.iter().map(String::as_str).collect::<Vec<_>>(),
            ),
            (20, vec![bye]),
        ] {
            let mut events = Vec::new();
            for text in batch {
                let at = SimTime::from_millis(at);
                recorder.record(
                    0,
                    at,
                    std::net::SocketAddr::from(([10, 1, 0, 10], 5060)),
                    std::net::SocketAddr::from(([10, 2, 0, 10], 5060)),
                    RecordedClass::Sip,
                    text.as_bytes(),
                );
                events.push(WireEvent {
                    classified: classify_wire(
                        WireProto::Sip,
                        text.as_bytes(),
                        Address::new(10, 1, 0, 10, 5060),
                        Address::new(10, 2, 0, 10, 5060),
                    ),
                    at,
                });
            }
            pool.process_wire_batch(&mut events, SimTime::from_millis(at), &mut sink);
            recorder.mark_batch();
        }
        let drops = |registry: &vids_core::telemetry::Registry| {
            registry
                .snapshot(0)
                .merged()
                .counter(Counter::CallQuotaDrops)
        };
        assert_eq!(drops(&registry), 3);
        assert_eq!(pool.monitored_calls(), 3);
        let [alert] = sink.alerts() else {
            panic!("one alert: {:?}", sink.alerts());
        };
        assert_eq!(alert.label, "unassociated-request:SIP.BYE");

        let dir = std::env::temp_dir().join("vids-record-quota-test");
        std::fs::remove_dir_all(&dir).ok();
        let written = recorder.dump_alerts(&pool, &dir, sink.alerts()).unwrap();
        let dump = Vdump::read_from(&written[0]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(dump.config.max_tracked_calls, 3);
        let verdict = replay_vdump(&dump);
        assert!(verdict.identical(), "{verdict:?}");

        // The replay engine is built from the dump's configuration: one
        // built the same way drops the same INVITEs.
        let mut replayed = VidsPool::with_cost(dump.config, CostModel::free());
        let replayed_registry = replayed.enable_telemetry(64);
        let mut events: Vec<WireEvent> = dump
            .packets
            .iter()
            .map(|p| WireEvent {
                classified: classify_recorded(p),
                at: SimTime::from_nanos(p.meta.at_ns),
            })
            .collect();
        replayed.process_wire_batch(
            &mut events,
            SimTime::from_millis(10),
            &mut CollectSink::new(),
        );
        assert_eq!(drops(&replayed_registry), drops(&registry));
    }

    #[test]
    fn default_dumps_carry_no_quota() {
        let mut dump = Vdump {
            config: Config::default(),
            tenants: None,
            telemetry_ring: 0,
            packets: Vec::new(),
            alert: Alert {
                time_ms: 0,
                kind: vids_core::alert::AlertKind::Deviation,
                label: "x".into(),
                call_id: None,
                machine: "m".into(),
                detail: "".into(),
                trace: Vec::new(),
            },
            snapshot: None,
            counters: DumpCounters {
                counters: Default::default(),
                alerts_total: 0,
            },
        };
        let plain = dump.encode();
        dump.config.max_tracked_calls = 7;
        let capped = dump.encode();
        assert_eq!(capped.len(), plain.len(), "the quota is a fixed CONF word");
        assert_eq!(Vdump::parse(&plain).unwrap().config.max_tracked_calls, 0);
        assert_eq!(Vdump::parse(&capped).unwrap().config.max_tracked_calls, 7);
    }

    #[test]
    fn batch_grouping_is_reconstructed() {
        // Three packets in two recorded batches → two replay batches.
        let dump = Vdump {
            config: Config::default(),
            tenants: None,
            telemetry_ring: 0,
            packets: vec![
                sip_packet(0, 1, 10, &invite("a")),
                sip_packet(1, 1, 11, &invite("b")),
                sip_packet(2, 2, 20, &invite("c")),
            ],
            alert: Alert {
                time_ms: 0,
                kind: vids_core::alert::AlertKind::Attack,
                label: "never-raised".into(),
                call_id: None,
                machine: "flood".into(),
                detail: "".into(),
                trace: Vec::new(),
            },
            snapshot: None,
            counters: DumpCounters::default(),
        };
        let out = replay_with_match(&dump, |_| false);
        assert_eq!(out.batches, 2);
        assert_eq!(out.packets, 3);
        assert!(out.capture.is_none());
    }

    #[test]
    fn ignored_classes_still_count_as_ignored_traffic() {
        let mut p = sip_packet(0, 1, 10, "garbage");
        p.meta.class = RecordedClass::Unknown;
        let dump = Vdump {
            config: Config::default(),
            tenants: None,
            telemetry_ring: 0,
            packets: vec![p],
            alert: Alert {
                time_ms: 0,
                kind: vids_core::alert::AlertKind::Attack,
                label: "x".into(),
                call_id: None,
                machine: "flood".into(),
                detail: "".into(),
                trace: Vec::new(),
            },
            snapshot: None,
            counters: DumpCounters::default(),
        };
        let out = replay_with_match(&dump, |_| false);
        assert!(out.alerts.is_empty());
        assert_eq!(out.batches, 1);
    }
}
