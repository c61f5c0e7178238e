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
//! * **telemetry on vs off**: recording must never change detection.
//! * **the placement matrix** (`vids_harness::matrix`) over the seeded
//!   corpus: every deployment shape, shard count and tenant layout gives
//!   the same canonical output.

use vids_harness::corpus;
use vids_harness::matrix::{check, matrix, plain, pool, Shape, PROXY_TENANTS, README_TENANTS};
use vids_harness::mutate::mutate_sip;
use vids_harness::rng::XorShift64;
use vids_harness::traffic::{fuzzed, generated, knob_traces, mixed_trace, Trace};
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

/// The fixed seed set of the generated corpus.
pub const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Batches of one and random batches of 1–32 with forced sweeps (`batch`
/// 0), as the plain engine replays them.
#[test]
fn pool_matches_plain_engine_on_fuzzed_traffic_at_every_shard_count() {
    let iters = vids_harness::fuzz_iterations() as usize;
    let trace = fuzzed(0xD1FF_0003, iters.max(10_000));
    let placements = [plain(), pool(1), pool(4), pool(8)];
    for batch in [1, 0] {
        assert!(!check(&trace, batch, &placements).alerts.is_empty());
    }
}

#[test]
fn telemetry_recording_never_changes_detection() {
    let iters = (vids_harness::fuzz_iterations() as usize).max(10_000);
    let trace = fuzzed(0xD1FF_0004, iters);
    // Telemetry's one deliberate output difference, transition traces on
    // alerts, is set aside by the comparison.
    let out = check(&trace, 1, &[plain(), plain().telemetry()]);
    assert!(!out.alerts.is_empty(), "a vacuous oracle");
}

/// Case `seed` of the seeded corpus: the curated mixed trace (0),
/// generated reordered traffic (`SEEDS`) and, past them, the traces of
/// the §6 pattern knobs nothing else moves (`knob_traces`).
fn corpus_case(seed: u64) -> Trace {
    match seed {
        0 => mixed_trace(),
        1..=8 => generated(seed),
        _ => knob_traces()[seed as usize - SEEDS.len() - 1].clone(),
    }
}

/// The seeded corpus (`corpus_case`, cases 0–11) at several batch sizes,
/// through the whole placement matrix under `tenants`, and through a plain
/// engine where it must match. The flight recorder, which replays every
/// dump it writes (most of a cell's time), records `mixed_trace` and seeds
/// 1–4 at every batch size and every later case at one size each in turn.
/// One test per tenant setting, each running alternate traces on two
/// threads, so the cores stay busy while the last test runs alone.
fn every_placement_on_the_seeded_corpus(tenants: Option<&'static str>) {
    let cases = SEEDS.len() as u64 + knob_traces().len() as u64;
    let traces = |half: u64| {
        for seed in (0..=cases).filter(|seed| seed % 2 == half) {
            let trace = corpus_case(seed);
            for (i, batch) in [1, 7, 25].into_iter().enumerate() {
                let mut placements = matrix(tenants);
                if seed > 4 && i != seed as usize % 3 {
                    placements.retain(|p| !matches!(p.shape, Shape::Recorded { .. }));
                }
                if tenants.is_none() && (batch == 1 || seed == 0) {
                    placements.push(plain().telemetry());
                }
                eprintln!("seed {seed}, batch {batch}, tenants {tenants:?}");
                check(&trace, batch, &placements);
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| traces(1));
        traces(0);
    });
}

#[test]
fn every_placement_gives_the_same_verdict_under_one_tenant() {
    every_placement_on_the_seeded_corpus(None);
}

#[test]
fn every_placement_gives_the_same_verdict_under_readmes_tenant_map() {
    every_placement_on_the_seeded_corpus(Some(README_TENANTS));
}

#[test]
fn every_placement_gives_the_same_verdict_under_the_proxy_tenant_map() {
    every_placement_on_the_seeded_corpus(Some(PROXY_TENANTS));
}
