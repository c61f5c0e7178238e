//! # vids-bench — experiment harnesses
//!
//! One bench target per table/figure of the paper's §7 (see `DESIGN.md`'s
//! experiment index E1–E8): a plain `fn main()` (`harness = false`) that
//! prints its paper-vs-measured series. Per-layer timings are `perf/`'s
//! layer trace, not these targets'.
//!
//! Run everything with `cargo bench --workspace`; a single experiment with
//! e.g. `cargo bench -p vids-bench --bench fig9_call_setup`.

use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::stats::Summary;
use vids::netsim::time::SimTime;
use vids::netsim::workload::WorkloadSpec;
use vids::scenario::{Testbed, TestbedConfig};

/// The QoS evaluation workload: a scaled-down §7.1 testbed that runs in a
/// few seconds yet carries enough calls for stable means.
pub fn qos_workload(seed: u64, minutes: u64) -> TestbedConfig {
    let mut config = TestbedConfig::small(seed);
    config.uas_per_site = 5;
    config.workload = WorkloadSpec {
        callers: 5,
        callees: 5,
        mean_interarrival_secs: 40.0,
        mean_duration_secs: 25.0,
        horizon: SimTime::from_secs(minutes * 60),
    };
    config
}

/// Per-UA QoS aggregates from a finished testbed run.
#[derive(Debug, Clone, Default)]
pub struct QosAggregates {
    /// Call-setup delay across all callers.
    pub setup: Summary,
    /// One-way RTP delay across all UAs.
    pub rtp_delay: Summary,
    /// Stream jitter across all UAs.
    pub jitter: Summary,
    /// Per-caller setup-delay series (Fig. 9 plots callers 3 and 4).
    pub per_caller_setup: Vec<Vec<(f64, f64)>>,
}

/// Runs a testbed to `horizon + 60 s` and aggregates the QoS measurements.
pub fn run_qos(config: &TestbedConfig) -> QosAggregates {
    let mut tb = Testbed::build(config);
    let end = config.workload.horizon + SimTime::from_secs(60);
    tb.run_until(end);
    let mut agg = QosAggregates::default();
    for i in 0..config.uas_per_site {
        let s = tb.ua_a_stats(i);
        agg.setup.merge(&s.setup_delays.summary());
        agg.rtp_delay.merge(&s.rtp_delay);
        agg.jitter.merge(&s.rtp_jitter);
        agg.per_caller_setup.push(s.setup_delays.iter().collect());
        let sb = tb.ua_b(i).stats();
        agg.rtp_delay.merge(&sb.rtp_delay);
        agg.jitter.merge(&sb.rtp_jitter);
    }
    agg
}

/// The `VIDS_SHARDS` knob: how many shards `cpu_overhead`'s pool row uses.
/// Defaults to 4.
pub fn shards_knob() -> usize {
    std::env::var("VIDS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// A fig. 8-style perimeter batch: `calls` staggered complete calls
/// (INVITE/200/ACK … BYE/200 with `rtp_per_call` media packets each),
/// time-sorted and stamped in `sent_at` so it can be replayed through
/// [`vids::core::VidsPool::process_batch`] or packet-at-a-time through a
/// plain engine with identical timing.
pub fn synth_call_batch(calls: usize, rtp_per_call: usize) -> Vec<Packet> {
    use vids::rtp::packet::RtpPacket;
    use vids::sdp::{Codec, SessionDescription};
    use vids::sip::{Method, Request, SipUri, StatusCode};

    let mut timed: Vec<(u64, Address, Address, Payload)> = Vec::new();
    for i in 0..calls {
        let a = (i / 250) as u8;
        let b = (i % 250 + 1) as u8;
        let caller = Address::new(10, 1, a, b, 5060);
        let callee = Address::new(10, 2, a, b, 5060);
        let caller_ip = format!("10.1.{a}.{b}");
        let callee_ip = format!("10.2.{a}.{b}");
        let t0 = (i as u64) * 3;

        let offer = SessionDescription::audio_offer("alice", &caller_ip, 20_000, &[Codec::G729]);
        let invite = Request::invite(
            &SipUri::new("alice", "a.example.com"),
            &SipUri::new("bob", "b.example.com"),
            &format!("fig8-{i}"),
        )
        .with_body(vids::sdp::MIME_TYPE, offer.to_string());
        timed.push((t0, caller, callee, Payload::Sip(invite.to_string())));

        let answer = SessionDescription::audio_offer("bob", &callee_ip, 30_000, &[Codec::G729]);
        let ok = invite
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids::sdp::MIME_TYPE, answer.to_string());
        timed.push((t0 + 20, callee, caller, Payload::Sip(ok.to_string())));
        let ack = Request::in_dialog(Method::Ack, &invite, 1, Some("tt"));
        timed.push((t0 + 40, caller, callee, Payload::Sip(ack.to_string())));

        for j in 0..rtp_per_call {
            let fwd = j % 2 == 0;
            let k = (j / 2) as u64;
            let rtp = RtpPacket::new(
                18,
                (100 + k) as u16,
                (k * 80) as u32,
                if fwd { 7 } else { 9 },
            )
            .with_payload(vec![0; 10]);
            let (src, dst) = if fwd {
                (caller.with_port(20_000), callee.with_port(30_000))
            } else {
                (callee.with_port(30_000), caller.with_port(20_000))
            };
            timed.push((t0 + 50 + k * 20, src, dst, Payload::Rtp(rtp.to_bytes())));
        }

        let t_bye = t0 + 60 + (rtp_per_call as u64 / 2) * 20;
        let bye = Request::in_dialog(Method::Bye, &invite, 2, Some("tt"));
        timed.push((t_bye, caller, callee, Payload::Sip(bye.to_string())));
        let bye_ok = bye.response(StatusCode::OK);
        timed.push((t_bye + 20, callee, caller, Payload::Sip(bye_ok.to_string())));
    }

    timed.sort_by_key(|(t, ..)| *t);
    timed
        .into_iter()
        .enumerate()
        .map(|(id, (t, src, dst, payload))| Packet {
            src,
            dst,
            payload,
            id: id as u64,
            sent_at: SimTime::from_millis(t),
        })
        .collect()
}

/// Formats a paper-vs-measured row.
pub fn row(metric: &str, paper: &str, measured: String) -> String {
    format!("{metric:<38} {paper:>14} {measured:>16}")
}

/// Table header for paper-vs-measured prints.
pub fn header(title: &str) -> String {
    format!(
        "\n=== {title} ===\n{:<38} {:>14} {:>16}\n{}",
        "metric",
        "paper",
        "measured",
        "-".repeat(72)
    )
}
