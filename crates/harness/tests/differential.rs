//! Differential oracles: independent implementations of the same meaning
//! must agree, byte for byte, under fuzzed input.
//!
//! * **parse → Display → parse**: any SIP text the owned parser accepts
//!   must survive a serialization round trip losslessly, and the second
//!   serialization must be stable.
//! * **view vs owned**: when both SIP parsers accept a fuzzed message,
//!   every monitored field must agree (the classifier trusts the view to
//!   mean what the UA simulator's owned parse means).
//! * **plain `Vids` vs `VidsPool` at 1/4/8 shards**: the same fuzzed
//!   packet stream (well-formed calls + mutated SIP + mutated RTP wire,
//!   ≥ the fuzz budget in packets) must yield byte-identical alert logs
//!   and counters whatever the shard count or batch boundaries.
//! * **telemetry on vs off**: recording must never change detection —
//!   alerts are compared with their telemetry-populated `trace` field
//!   cleared, since attaching transition traces to alerts is telemetry's
//!   one documented, deliberate output difference.

use vids_core::{CollectSink, Config, CostModel, Vids, VidsPool};
use vids_harness::corpus;
use vids_harness::mutate::{mutate_sip, mutate_wire};
use vids_harness::rng::XorShift64;
use vids_netsim::packet::{Address, Packet, Payload};
use vids_netsim::time::SimTime;
use vids_sip::parse::parse_message;
use vids_sip::view::parse_view;

#[test]
fn accepted_fuzz_cases_round_trip_through_display() {
    let seeds = corpus::sip_seeds();
    let mut rng = XorShift64::new(0xD1FF_0001);
    let iters = vids_harness::fuzz_iterations();
    let mut accepted = 0u64;
    for i in 0..iters {
        let mut text = rng.pick(&seeds).clone();
        for _ in 0..=rng.below(3) {
            text = mutate_sip(&mut rng, &text);
        }
        let Ok(first) = parse_message(&text) else {
            continue;
        };
        accepted += 1;
        let rendered = first.to_string();
        let second = parse_message(&rendered).unwrap_or_else(|e| {
            panic!(
                "case {i}: accepted message failed to re-parse its own Display ({e}): {rendered:?}"
            )
        });
        assert_eq!(
            first, second,
            "case {i}: parse -> Display -> parse was lossy for {text:?}"
        );
        assert_eq!(
            rendered,
            second.to_string(),
            "case {i}: Display is not stable for {text:?}"
        );
    }
    eprintln!("round-trip: {accepted}/{iters} cases accepted");
    assert!(accepted > 0, "mutator degenerated: nothing accepted");
}

#[test]
fn view_and_owned_parser_agree_on_monitored_fields() {
    let seeds = corpus::sip_seeds();
    let mut rng = XorShift64::new(0xD1FF_0002);
    let iters = vids_harness::fuzz_iterations();
    let mut both = 0u64;
    for i in 0..iters {
        let mut text = rng.pick(&seeds).clone();
        for _ in 0..=rng.below(3) {
            text = mutate_sip(&mut rng, &text);
        }
        let (Ok(owned), Ok(view)) = (parse_message(&text), parse_view(&text)) else {
            continue;
        };
        both += 1;
        let headers = owned.headers();
        assert_eq!(view.call_id, owned.call_id(), "case {i}: {text:?}");
        assert_eq!(view.is_request(), owned.is_request(), "case {i}: {text:?}");
        assert_eq!(view.method(), owned.method(), "case {i}: {text:?}");
        assert_eq!(view.status(), owned.status(), "case {i}: {text:?}");
        assert_eq!(
            view.from.and_then(|f| f.tag),
            headers.from_header().and_then(|f| f.tag()),
            "case {i}: {text:?}"
        );
        assert_eq!(
            view.to.and_then(|t| t.tag),
            headers.to_header().and_then(|t| t.tag()),
            "case {i}: {text:?}"
        );
        assert_eq!(
            view.cseq,
            headers.cseq().map(|c| (c.seq, c.method)),
            "case {i}: {text:?}"
        );
        assert_eq!(view.body, owned.body(), "case {i}: {text:?}");
    }
    eprintln!("view-vs-owned: {both}/{iters} cases accepted by both");
    assert!(both > 0, "mutator degenerated: nothing accepted by both");
}

const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

/// A fuzzed traffic trace: clean established calls interleaved with mutated
/// SIP texts and mutated RTP datagrams, at least `min_packets` long, with
/// non-decreasing timestamps and unique packet ids.
fn fuzzed_trace(seed: u64, min_packets: usize) -> Vec<(Packet, SimTime)> {
    let mut rng = XorShift64::new(seed);
    let sip_seeds = corpus::sip_seeds();
    let mut wire_seeds = corpus::rtp_seeds();
    wire_seeds.extend(corpus::rtcp_seeds());
    let mut trace = Vec::with_capacity(min_packets);
    let mut at_ms = 0u64;
    while trace.len() < min_packets {
        at_ms += rng.below(3) as u64;
        let at = SimTime::from_millis(at_ms);
        let src = Address::new(10, 1, (rng.below(3) + 1) as u8, rng.below(5) as u8, 5060);
        let payload = match rng.below(4) {
            // An untouched well-formed seed keeps machines moving.
            0 => Payload::Sip(rng.pick(&sip_seeds).clone()),
            // Mutated SIP: the monitor must classify or reject, never skew.
            1 => {
                let mut text = rng.pick(&sip_seeds).clone();
                for _ in 0..=rng.below(3) {
                    text = mutate_sip(&mut rng, &text);
                }
                Payload::Sip(text)
            }
            // Mutated RTP/RTCP wire, from media-looking ports.
            _ => {
                let mut bytes = rng.pick(&wire_seeds).clone();
                for _ in 0..=rng.below(3) {
                    bytes = mutate_wire(&mut rng, &bytes);
                }
                Payload::Rtp(bytes)
            }
        };
        let (src, dst) = if matches!(payload, Payload::Rtp(_)) {
            (src.with_port(20_000), CALLEE.with_port(30_000))
        } else {
            (src, CALLEE)
        };
        trace.push((
            Packet {
                src,
                dst,
                payload,
                id: trace.len() as u64,
                sent_at: at,
            },
            at,
        ));
    }
    trace
}

#[test]
fn pool_matches_plain_engine_on_fuzzed_traffic_at_every_shard_count() {
    let iters = vids_harness::fuzz_iterations() as usize;
    let trace = fuzzed_trace(0xD1FF_0003, iters.max(10_000));

    // Reference: the plain single-engine monitor, packet at a time.
    let mut plain = Vids::with_cost(Config::default(), CostModel::free());
    let mut plain_sink = CollectSink::new();
    for (packet, at) in &trace {
        plain.process(packet, *at, &mut plain_sink);
    }
    for flush in [30u64, 40] {
        plain.tick(SimTime::from_secs(flush), &mut plain_sink);
    }

    for shards in [1usize, 4, 8] {
        let mut rng = XorShift64::new(0x000B_A7C4 ^ shards as u64);
        let config = Config::builder().shards(shards).build().unwrap();
        let mut pool = VidsPool::with_cost(config, CostModel::free());
        let mut pool_sink = CollectSink::new();
        let mut i = 0;
        while i < trace.len() {
            let size = 1 + rng.below(32);
            let end = (i + size).min(trace.len());
            let now = trace[i].1;
            let packets: Vec<Packet> = trace[i..end].iter().map(|(p, _)| p.clone()).collect();
            pool.process_batch(&packets, now, &mut pool_sink);
            i = end;
        }
        for flush in [30u64, 40] {
            pool.tick(SimTime::from_secs(flush), &mut pool_sink);
        }
        assert_eq!(
            plain_sink.alerts(),
            pool_sink.alerts(),
            "{shards}-shard pool diverged from the plain engine on fuzzed traffic"
        );
        assert_eq!(
            pool.alerts_merged(),
            pool_sink.len() as u64,
            "{shards} shards"
        );
        assert_eq!(plain.counters(), pool.counters(), "{shards} shards");
        assert_eq!(
            plain.monitored_calls(),
            pool.monitored_calls(),
            "{shards} shards"
        );
    }
    eprintln!(
        "pool differential: {} fuzzed packets, {} alerts",
        trace.len(),
        plain_sink.len()
    );
}

#[test]
fn telemetry_recording_never_changes_detection() {
    let iters = (vids_harness::fuzz_iterations() as usize).max(10_000);
    let trace = fuzzed_trace(0xD1FF_0004, iters);

    let run = |telemetry: bool| {
        let mut vids = Vids::with_cost(Config::default(), CostModel::free());
        if telemetry {
            let _registry = vids.enable_telemetry(64);
        }
        let mut sink = CollectSink::new();
        for (packet, at) in &trace {
            vids.process(packet, *at, &mut sink);
        }
        for flush in [30u64, 40] {
            vids.tick(SimTime::from_secs(flush), &mut sink);
        }
        // Telemetry's one deliberate output difference is attaching
        // transition traces to alerts; blank it before comparing.
        let alerts: Vec<_> = sink
            .alerts()
            .iter()
            .map(|a| {
                let mut a = a.clone();
                a.trace = Vec::new();
                a
            })
            .collect();
        (alerts, vids.counters(), vids.monitored_calls())
    };

    let (alerts_off, counters_off, calls_off) = run(false);
    let (alerts_on, counters_on, calls_on) = run(true);
    assert_eq!(
        alerts_off, alerts_on,
        "telemetry recording changed the alert log"
    );
    assert_eq!(
        counters_off, counters_on,
        "telemetry recording changed the counters"
    );
    assert_eq!(calls_off, calls_on);
    assert!(
        !alerts_off.is_empty(),
        "fuzzed trace produced no alerts; the oracle is vacuous"
    );
}
