//! One row per knob: every [`Config`] field, every `tenants.conf` key and
//! every flag of `vids serve` and `vids replay`.
//!
//! A row is a minimal trace and an observable (an alert, a counter, the
//! calls still monitored, the last timer to fire) that reads one value
//! under the default and another under a perturbed setting, so a knob the
//! engine reads and then ignores fails its row. Field rows build their
//! configuration through [`Config::builder`], and check the
//! [`ConfigError`] a bad value gets; tenant-key rows go through
//! [`TenantMap::parse`] on a pool. The tables below tie the rows to the
//! struct: `every_config_field_has_a_row` reads the field list off
//! `Config`'s `Debug` form, so a field added without a row fails it, and
//! `scripts/check.sh` diffs the tenant keys `apply_override` accepts and
//! the flags `serve()` and `replay()` parse against `TENANT_ROWS` and
//! `FLAGS`.

use std::fmt::Debug;

use vids::core::alert::labels;
use vids::core::{
    Alert, CollectSink, Config, ConfigBuilder, ConfigError, CostModel, TenantMap, Vids,
    VidsCounters, VidsPool,
};
use vids::ingest::pcap::LINKTYPE_RAW;
use vids::ingest::replay::replay_pcap;
use vids::ingest::FLUSH_PACKETS;
use vids::netsim::packet::{Address, Packet};
use vids::netsim::time::SimTime;
use vids::sip::{Method, Request};
use vids_harness::matrix::pcap;
use vids_harness::traffic::{bye_dos, invite_flood, knob_traces, pkt, rtp, setup, sip, Trace};

/// Every `Config` field, in declaration order, with its row.
const FIELD_ROWS: [(&str, fn()); 15] = [
    ("invite_flood_n", field::invite_flood_n),
    ("invite_flood_t1", field::invite_flood_t1),
    ("bye_dos_t", field::bye_dos_t),
    ("spam_seq_gap", field::spam_seq_gap),
    ("spam_ts_gap", field::spam_ts_gap),
    ("rtp_flood_max_packets", field::rtp_flood_max_packets),
    ("rtp_flood_window", field::rtp_flood_window),
    ("response_flood_n", field::response_flood_n),
    ("response_flood_window", field::response_flood_window),
    ("teardown_linger", field::teardown_linger),
    ("eviction_delay", field::eviction_delay),
    ("cross_protocol_sync", field::cross_protocol_sync),
    ("shards", field::shards),
    ("replay_grace", field::replay_grace),
    ("max_tracked_calls", field::max_tracked_calls),
];

/// Every `tenants.conf` key (`TenantMap::parse`), with its row.
const TENANT_ROWS: [(&str, fn()); 8] = [
    ("invite_flood_n", tenant_key::invite_flood_n),
    ("invite_flood_t1_ms", tenant_key::invite_flood_t1_ms),
    ("bye_dos_t_ms", tenant_key::bye_dos_t_ms),
    ("spam_seq_gap", tenant_key::spam_seq_gap),
    ("spam_ts_gap", tenant_key::spam_ts_gap),
    ("rtp_flood_max_packets", tenant_key::rtp_flood_max_packets),
    ("rtp_flood_window_ms", tenant_key::rtp_flood_window_ms),
    ("max_calls", tenant_key::max_calls),
];

/// Every flag `vids serve` and `vids replay` parse, with the `Config`
/// field it sets or, for the rest, the argument it is.
const FLAGS: [(&str, &str); 6] = [
    ("--listen", "argument: the address serve binds"),
    ("--shards", "shards"),
    ("--tenants", "argument: a tenants.conf file (TENANT_ROWS)"),
    ("--telemetry", "argument: the snapshot file"),
    ("--record", "argument: the flight recorder's dump directory"),
    ("--threads", "argument: replay's classifier threads"),
];

#[test]
fn every_config_field_has_a_row() {
    let fields: Vec<String> = format!("{:#?}", Config::default())
        .lines()
        .filter_map(|line| line.strip_prefix("    "))
        .filter(|line| !line.starts_with(' '))
        .filter_map(|line| line.split_once(':'))
        .map(|(name, _)| name.to_owned())
        .collect();
    let rows: Vec<&str> = FIELD_ROWS.iter().map(|(name, _)| *name).collect();
    assert_eq!(fields, rows, "a Config field without a row in FIELD_ROWS");
}

#[test]
fn every_tenant_row_names_a_key_the_parser_accepts() {
    for (key, _) in TENANT_ROWS {
        let text = format!("tenant t 10.0.0.0/8 {key}=1");
        assert!(TenantMap::parse(&text, Config::default()).is_ok(), "{key}");
    }
}

#[test]
fn every_flag_names_a_knob_or_an_argument() {
    for (flag, target) in FLAGS {
        assert!(
            target.starts_with("argument: ") || FIELD_ROWS.iter().any(|(f, _)| *f == target),
            "{flag} sets `{target}`, which is neither a Config field nor an argument"
        );
    }
}

// ---------------------------------------------------------------- runs

/// What a run left behind.
struct Ran {
    alerts: Vec<Alert>,
    counters: VidsCounters,
    calls: usize,
    /// The SIP machine's state in the call [`TEARDOWN_CALL`], while it is
    /// monitored.
    teardown: Option<String>,
}

impl Ran {
    fn has(&self, label: &str) -> bool {
        self.alerts.iter().any(|a| a.label == label)
    }
}

const TEARDOWN_CALL: &str = "knob-teardown";

/// The final sweep of every run but `replay_grace`'s own: the default
/// grace past the last datagram.
fn end_of(trace: &Trace) -> SimTime {
    trace.last().map_or(SimTime::ZERO, |(_, at)| *at) + Config::default().replay_grace
}

fn sip_state(snapshot: Option<vids::core::CallSnapshot>) -> Option<String> {
    let machines = snapshot?.machines;
    machines
        .into_iter()
        .find(|m| m.name == vids::core::machines::SIP_MACHINE)
        .map(|m| m.state)
}

/// `trace` through a plain engine under `config`, one datagram at a time.
fn on_engine(config: Config, trace: &Trace) -> Ran {
    let mut vids = Vids::with_cost(config, CostModel::free());
    let mut sink = CollectSink::new();
    for (packet, at) in trace {
        vids.process(packet, *at, &mut sink);
    }
    vids.tick(end_of(trace), &mut sink);
    Ran {
        alerts: sink.into_alerts(),
        counters: vids.counters(),
        calls: vids.monitored_calls(),
        teardown: sip_state(vids.call_snapshot(TEARDOWN_CALL)),
    }
}

/// `trace` through `pool`, one datagram per batch.
fn on_pool(mut pool: VidsPool, trace: &Trace) -> Ran {
    let mut sink = CollectSink::new();
    for (packet, at) in trace {
        pool.process_batch(std::slice::from_ref(packet), *at, &mut sink);
    }
    pool.tick(end_of(trace), &mut sink);
    ran_on_pool(&pool, sink)
}

fn ran_on_pool(pool: &VidsPool, sink: CollectSink) -> Ran {
    Ran {
        alerts: sink.into_alerts(),
        counters: pool.counters(),
        calls: pool.monitored_calls(),
        teardown: sip_state(pool.call_snapshot(TEARDOWN_CALL)),
    }
}

/// A pool whose tenant `t` holds every 10/8 address, under `settings`.
fn tenant_pool(settings: &str) -> VidsPool {
    let text = format!("tenant t 10.0.0.0/8 {settings}");
    let map = TenantMap::parse(&text, Config::default()).expect("valid tenant map");
    VidsPool::with_tenants(map, CostModel::free())
}

/// A field row: `look` reads `want[0]` under the default and `want[1]`
/// under `perturbed`.
fn field_row<T: PartialEq + Debug>(
    trace: &Trace,
    look: impl Fn(&Ran) -> T,
    perturbed: ConfigBuilder,
    want: [T; 2],
) {
    let perturbed = perturbed.build().expect("a valid perturbation");
    let got = [Config::default(), perturbed].map(|c| look(&on_engine(c, trace)));
    assert_eq!(got, want, "default, perturbed");
}

/// A tenant-key row: `look` reads `want[0]` under a tenant with no
/// settings and `want[1]` under `key_value`.
fn tenant_row<T: PartialEq + Debug>(
    trace: &Trace,
    look: impl Fn(&Ran) -> T,
    key_value: &str,
    want: [T; 2],
) {
    let got = ["", key_value].map(|kv| look(&on_pool(tenant_pool(kv), trace)));
    assert_eq!(got, want, "default, {key_value}");
    let (key, _) = key_value.split_once('=').unwrap();
    let bad = format!("tenant t 10.0.0.0/8 {key}=x");
    let err = TenantMap::parse(&bad, Config::default()).unwrap_err();
    assert!(err.contains("bad value `x`"), "{err}");
}

/// A validated tenant key refuses zero as its field's builder does.
fn tenant_rejects_zero(key: &str) {
    let text = format!("tenant t 10.0.0.0/8 {key}=0");
    let err = TenantMap::parse(&text, Config::default()).unwrap_err();
    assert!(err.contains("tenant `t`"), "{err}");
}

fn rejects(builder: ConfigBuilder, want: ConfigError) {
    assert_eq!(builder.build(), Err(want));
}

/// The field has no `tenants.conf` key, under either spelling.
fn no_tenant_key(field: &str) {
    for key in [field.to_owned(), format!("{field}_ms")] {
        let text = format!("tenant t 10.0.0.0/8 {key}=1");
        let err = TenantMap::parse(&text, Config::default()).unwrap_err();
        assert!(err.contains("unknown tenant key"), "{key}: {err}");
    }
}

fn raised(label: &'static str) -> impl Fn(&Ran) -> bool {
    move |ran| ran.has(label)
}

// ---------------------------------------------------------------- traces

fn timed(packets: Vec<Packet>) -> Trace {
    packets
        .into_iter()
        .map(|p| (p.clone(), p.sent_at))
        .collect()
}

/// Twelve INVITEs to one phone, `gap_ms` apart.
fn flood(gap_ms: u64) -> Trace {
    let ends = (
        Address::new(172, 16, 0, 66, 5060),
        Address::new(10, 2, 0, 9, 5060),
    );
    timed(invite_flood(ends, "bob", "knob-flood", 12, (0, gap_ms)))
}

/// A BYE DoS: the caller streams for 1.2 s past a spoofed BYE.
fn spoofed_bye() -> Trace {
    let (set_up, attack) = bye_dos("knob-bye-dos", 0, 500);
    timed(set_up.into_iter().chain(attack).collect())
}

/// A call whose caller streams ten in-profile packets, then one whose
/// sequence number and timestamp jump by `seq_jump` and `ts_jump` more
/// than one packet's worth.
fn media_jump(seq_jump: u16, ts_jump: u32) -> Trace {
    let ends = (
        Address::new(10, 1, 0, 63, 5060),
        Address::new(10, 2, 0, 63, 5060),
    );
    let mut trace = Trace::new();
    setup(&mut trace, "knob-media", ends, 0);
    let media = (ends.0.with_port(20_000), ends.1.with_port(30_000));
    for i in 0..=10u16 {
        let (seq, ts) = (100 + i, u32::from(i) * 80);
        let (seq, ts) = if i == 10 {
            (seq + seq_jump, ts + ts_jump)
        } else {
            (seq, ts)
        };
        let (src, dst) = media;
        trace.push(pkt(src, dst, rtp(seq, ts, 5), 100 + u64::from(i) * 20));
    }
    trace
}

/// A call whose BYE is never answered, so only the teardown linger ends
/// it.
fn unanswered_bye() -> Trace {
    let ends = (
        Address::new(10, 1, 0, 64, 5060),
        Address::new(10, 2, 0, 64, 5060),
    );
    let mut trace = Trace::new();
    let inv = setup(&mut trace, TEARDOWN_CALL, ends, 0);
    let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
    trace.push(pkt(ends.0, ends.1, sip(bye), 120));
    trace
}

/// Three calls set up and left established.
fn three_calls() -> Trace {
    let mut trace = Trace::new();
    for k in 0..3u8 {
        let ends = (
            Address::new(10, 1, 0, 70 + k, 5060),
            Address::new(10, 2, 0, 70 + k, 5060),
        );
        setup(
            &mut trace,
            &format!("knob-call-{k}"),
            ends,
            100 * u64::from(k),
        );
    }
    trace.sort_by_key(|(_, at)| *at);
    trace
}

/// The harness's RTP flood: 350 packets in 0.7 s inside one call.
fn rtp_flood() -> Trace {
    knob_traces()[0].clone()
}

/// The harness's reflection: 12 stray responses 60 ms apart.
fn response_flood() -> Trace {
    knob_traces()[1].clone()
}

/// The harness's eviction trace: a finished call's BYE retransmitted 3 s
/// and 7 s after its 200.
fn eviction() -> Trace {
    knob_traces()[2].clone()
}

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

// ---------------------------------------------------------------- rows

mod field {
    use super::*;

    #[test]
    pub fn invite_flood_n() {
        let b = Config::builder();
        field_row(
            &flood(10),
            raised(labels::INVITE_FLOOD),
            b.clone().invite_flood_threshold(20),
            [true, false],
        );
        rejects(
            b.invite_flood_threshold(0),
            ConfigError::ZeroThreshold("invite_flood_n"),
        );
    }

    #[test]
    pub fn invite_flood_t1() {
        let b = Config::builder();
        field_row(
            &flood(150),
            raised(labels::INVITE_FLOOD),
            b.clone().invite_flood_window(ms(3_000)),
            [false, true],
        );
        rejects(
            b.invite_flood_window(SimTime::ZERO),
            ConfigError::ZeroWindow("invite_flood_t1"),
        );
    }

    #[test]
    pub fn bye_dos_t() {
        field_row(
            &spoofed_bye(),
            raised(labels::RTP_AFTER_BYE),
            Config::builder().bye_dos_linger(ms(5_000)),
            [true, false],
        );
    }

    #[test]
    pub fn spam_seq_gap() {
        let b = Config::builder();
        field_row(
            &media_jump(30, 0),
            raised(labels::MEDIA_SPAM),
            b.clone().spam_seq_gap(10),
            [false, true],
        );
        rejects(
            b.spam_seq_gap(0),
            ConfigError::ZeroThreshold("spam_seq_gap"),
        );
    }

    #[test]
    pub fn spam_ts_gap() {
        let b = Config::builder();
        field_row(
            &media_jump(0, 2_000),
            raised(labels::MEDIA_SPAM),
            b.clone().spam_ts_gap(1_000),
            [false, true],
        );
        rejects(b.spam_ts_gap(0), ConfigError::ZeroThreshold("spam_ts_gap"));
    }

    #[test]
    pub fn rtp_flood_max_packets() {
        let b = Config::builder();
        field_row(
            &rtp_flood(),
            raised(labels::RTP_FLOOD),
            b.clone().rtp_flood_max_packets(400),
            [true, false],
        );
        rejects(
            b.rtp_flood_max_packets(0),
            ConfigError::ZeroThreshold("rtp_flood_max_packets"),
        );
    }

    #[test]
    pub fn rtp_flood_window() {
        let b = Config::builder();
        field_row(
            &rtp_flood(),
            raised(labels::RTP_FLOOD),
            b.clone().rtp_flood_window(ms(500)),
            [true, false],
        );
        rejects(
            b.rtp_flood_window(SimTime::ZERO),
            ConfigError::ZeroWindow("rtp_flood_window"),
        );
    }

    #[test]
    pub fn response_flood_n() {
        let b = Config::builder();
        field_row(
            &response_flood(),
            raised(labels::RESPONSE_FLOOD),
            b.clone().response_flood_threshold(20),
            [true, false],
        );
        rejects(
            b.response_flood_threshold(0),
            ConfigError::ZeroThreshold("response_flood_n"),
        );
        no_tenant_key("response_flood_n");
    }

    #[test]
    pub fn response_flood_window() {
        let b = Config::builder();
        field_row(
            &response_flood(),
            raised(labels::RESPONSE_FLOOD),
            b.clone().response_flood_window(ms(300)),
            [true, false],
        );
        rejects(
            b.response_flood_window(SimTime::ZERO),
            ConfigError::ZeroWindow("response_flood_window"),
        );
        no_tenant_key("response_flood_window");
    }

    /// The last timer to fire: an unanswered BYE ends the call after the
    /// linger, inside the final sweep at 8 s and not at 60 s.
    #[test]
    pub fn teardown_linger() {
        field_row(
            &unanswered_bye(),
            |ran| ran.teardown.clone(),
            Config::builder().teardown_linger(ms(60_000)),
            ["TERMINATED", "CALL_TEARDOWN"].map(|s| Some(s.to_owned())),
        );
        no_tenant_key("teardown_linger");
    }

    /// BYE retransmissions 3 s and 7 s after the call ended: the default
    /// 5 s delay absorbs the first and has evicted the call by the second.
    #[test]
    pub fn eviction_delay() {
        let trace = eviction();
        let strays = |ran: &Ran| ran.counters.unassociated_sip_requests;
        let b = Config::builder();
        field_row(&trace, strays, b.clone().eviction_delay(ms(1_000)), [1, 2]);
        field_row(&trace, strays, b.eviction_delay(ms(30_000)), [1, 0]);
        no_tenant_key("eviction_delay");
    }

    /// The BYE DoS the RTP machine misses without the δ channel.
    #[test]
    pub fn cross_protocol_sync() {
        field_row(
            &spoofed_bye(),
            raised(labels::RTP_AFTER_BYE),
            Config::builder().cross_protocol_sync(false),
            [true, false],
        );
        no_tenant_key("cross_protocol_sync");
    }

    /// The engine count, per tenant too; the verdict does not move.
    #[test]
    pub fn shards() {
        let four = Config::builder().shards(4).build().unwrap();
        assert_eq!(VidsPool::new(Config::default()).shards(), 1);
        assert_eq!(VidsPool::new(four).shards(), 4);
        let map = TenantMap::parse("tenant t 10.0.0.0/8", four).unwrap();
        assert_eq!(VidsPool::with_tenants(map, CostModel::free()).shards(), 8);
        let trace = spoofed_bye();
        let labels = |ran: Ran| ran.alerts.into_iter().map(|a| a.label).collect::<Vec<_>>();
        let one = on_pool(VidsPool::new(Config::default()), &trace);
        assert_eq!(labels(one), labels(on_pool(VidsPool::new(four), &trace)));
        rejects(Config::builder().shards(0), ConfigError::ZeroShards);
    }

    /// The last timer to fire in an offline replay: the final sweep runs
    /// `replay_grace` past the last datagram, so the 8 s linger of an
    /// unanswered BYE fires inside the default 30 s and not inside 1 s.
    #[test]
    pub fn replay_grace() {
        let capture = pcap(&unanswered_bye(), false, LINKTYPE_RAW);
        let replayed = |config: Config| {
            let mut pool = VidsPool::with_cost(config, CostModel::free());
            let mut sink = CollectSink::new();
            replay_pcap(
                capture.clone(),
                &mut pool,
                FLUSH_PACKETS,
                None,
                None,
                &mut sink,
            )
            .unwrap();
            ran_on_pool(&pool, sink).teardown
        };
        let b = Config::builder();
        let short = b.clone().replay_grace(ms(1_000)).build().unwrap();
        assert_eq!(
            [Config::default(), short].map(replayed),
            ["TERMINATED", "CALL_TEARDOWN"].map(|s| Some(s.to_owned()))
        );
        rejects(
            b.replay_grace(SimTime::ZERO),
            ConfigError::ZeroWindow("replay_grace"),
        );
    }

    /// Calls monitored: the third call's INVITE finds the quota full.
    #[test]
    pub fn max_tracked_calls() {
        let b = Config::builder().max_tracked_calls(2);
        field_row(&three_calls(), |ran| ran.calls, b, [3, 2]);
    }
}

mod tenant_key {
    use super::*;

    #[test]
    pub fn invite_flood_n() {
        let look = raised(labels::INVITE_FLOOD);
        tenant_row(&flood(10), look, "invite_flood_n=20", [true, false]);
        tenant_rejects_zero("invite_flood_n");
    }

    #[test]
    pub fn invite_flood_t1_ms() {
        let look = raised(labels::INVITE_FLOOD);
        tenant_row(&flood(150), look, "invite_flood_t1_ms=3000", [false, true]);
        tenant_rejects_zero("invite_flood_t1_ms");
    }

    #[test]
    pub fn bye_dos_t_ms() {
        let look = raised(labels::RTP_AFTER_BYE);
        tenant_row(&spoofed_bye(), look, "bye_dos_t_ms=5000", [true, false]);
    }

    #[test]
    pub fn spam_seq_gap() {
        let look = raised(labels::MEDIA_SPAM);
        tenant_row(&media_jump(30, 0), look, "spam_seq_gap=10", [false, true]);
        tenant_rejects_zero("spam_seq_gap");
    }

    #[test]
    pub fn spam_ts_gap() {
        let look = raised(labels::MEDIA_SPAM);
        tenant_row(
            &media_jump(0, 2_000),
            look,
            "spam_ts_gap=1000",
            [false, true],
        );
        tenant_rejects_zero("spam_ts_gap");
    }

    #[test]
    pub fn rtp_flood_max_packets() {
        let look = raised(labels::RTP_FLOOD);
        let row = "rtp_flood_max_packets=400";
        tenant_row(&rtp_flood(), look, row, [true, false]);
        tenant_rejects_zero("rtp_flood_max_packets");
    }

    #[test]
    pub fn rtp_flood_window_ms() {
        let look = raised(labels::RTP_FLOOD);
        let row = "rtp_flood_window_ms=500";
        tenant_row(&rtp_flood(), look, row, [true, false]);
        tenant_rejects_zero("rtp_flood_window_ms");
    }

    #[test]
    pub fn max_calls() {
        tenant_row(&three_calls(), |ran| ran.calls, "max_calls=2", [3, 2]);
    }
}
