//! # vids-harness — the adversarial correctness harness
//!
//! The paper's detectors live or die on exact wire-level arithmetic (the
//! media-spamming pattern compares RTP sequence/timestamp gaps, Fig. 6) and
//! on the IDS never diverging from its specification machines — so this
//! crate attacks the repo's own parsers, estimators and runtime the way
//! hostile traffic would, instead of waiting for an attacker to do it:
//!
//! * [`mutate`] — **structure-aware mutation fuzzers** over SIP text and
//!   RTP/RTCP wire bytes, driven by the seeded [`rng::XorShift64`] and the
//!   [`corpus`] of well-formed seeds. Mutations are the damage classes real
//!   wires produce: truncation, header duplication/reordering, compact-form
//!   and case flips, LF-only endings, hostile `Content-Length`, and
//!   sequence/timestamp extremes around the 16-/32-bit wrap points.
//! * [`model`] — a **miniature exhaustive interleaving checker** over a
//!   shrunken model of the `vids_core::pool` epoch-ring protocol (per-lane
//!   `tail`/`drained`/`applied` counters over `UnsafeCell` slots),
//!   enumerating *every* coordinator/worker step interleaving and asserting
//!   single slot ownership, frozen miss lists at the cross-lane barrier,
//!   and that a session always stops and joins — also over a panicking
//!   worker or an abandoned session. The wait decisions are imported from
//!   `vids_core::pool::lane` — the model checks the shipped decision
//!   logic, not a transcription.
//! * [`record_bridge`] — loads flight-recorder `.vdump` forensic dumps
//!   as fuzz corpus seeds (real wire bytes that provably drove the
//!   engine to an alert) and re-exports the drop-one-packet minimizer
//!   that keeps committed regression dumps small.
//! * the `tests/` directory holds the standing gates: wire fuzzing
//!   (`fuzz_wire`), differential oracles (`differential` — parse→Display→
//!   parse round-trips, plain-vs-pooled-engine equality at 1/4/8 shards,
//!   telemetry-on/off detection equality), the model checker
//!   (`lane_model`), and one regression per bug the harness was built to
//!   catch (`regressions`).
//!
//! Budgets: every fuzz loop runs [`fuzz_iterations`] cases — 10 000 by
//! default, overridable through the `VIDS_FUZZ_ITERS` environment variable
//! for longer soaks (`VIDS_FUZZ_ITERS=1000000 cargo test -p vids-harness`).

pub mod corpus;
pub mod model;
pub mod mutate;
pub mod record_bridge;
pub mod rng;

/// Per-target fuzz iteration budget: `VIDS_FUZZ_ITERS` when set and
/// parseable, 10 000 otherwise (the smoke budget `scripts/check.sh` pins).
pub fn fuzz_iterations() -> u64 {
    std::env::var("VIDS_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}
