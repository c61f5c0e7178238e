#!/usr/bin/env sh
# Fast pre-push gate: core engine tests + lint-clean workspace.
# Offline by design — the workspace vendors all dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo test -p vids-efsm -p vids-core"
cargo test --offline -p vids-efsm -p vids-core -q

# The state layout and the interner's arithmetic again with the optimiser
# on and overflow checks off, which is how they run in production.
echo "==> cargo test --release -p vids-efsm -p vids-core"
cargo test --release --offline -q -p vids-efsm -p vids-core

echo "==> cargo test -p vids-telemetry"
cargo test --offline -p vids-telemetry -q

# Wire tier: pcap fixtures, demux proptests, and the loopback serve
# smoke (the serve test skips itself with a notice when the sandbox
# cannot bind 127.0.0.1).
echo "==> cargo test -p vids-ingest (wire tier + loopback smoke)"
cargo test --offline -p vids-ingest -q

# Federation layer: tenant map parsing, rendezvous placement, and the
# end-to-end federated loopback smoke (skips itself where the sandbox
# cannot bind 127.0.0.1 — the vids-ingest run above covers that notice).
echo "==> cargo test -p vids-cluster (federation + tenancy)"
cargo test --offline -p vids-cluster -q

# Cluster differential: cluster(1 node) == plain pool and node-count
# invariance, byte-compared on alerts, counters and merged telemetry,
# plus the tenant threshold/quota isolation gates and rebalance checks.
echo "==> cluster determinism (gateway vs pool, tenant isolation)"
cargo test --offline --test cluster_determinism -q

# Scanning substrate: exhaustive 0..=64 alignment/tail unit tests plus
# the proptest oracle asserting every SWAR finder agrees with its naive
# scalar twin on arbitrary bytes.
echo "==> cargo test -p vids-scan (SWAR equivalence oracle)"
cargo test --offline -p vids-scan -q

# Flight recorder: ring arena discipline, .vdump encode/decode/corruption
# offsets, deterministic dump replay, and the drop-one-packet minimizer.
echo "==> cargo test -p vids-record (flight recorder)"
cargo test --offline -p vids-record -q

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Hot-path crates additionally reject silent per-packet allocations that
# plain `-D warnings` lets through (see tests/alloc_budget.rs). The scan
# substrate and the SIP parsers it feeds are in this set: they run on
# every hostile datagram.
echo "==> cargo clippy (hot-path crates, allocation lints)"
cargo clippy --offline -p vids-scan -p vids-sip -p vids-efsm -p vids-telemetry -p vids-core -p vids-ingest -p vids-record -p vids-cluster --all-targets -- \
    -D warnings \
    -D clippy::redundant_clone \
    -D clippy::inefficient_to_string

# Allocation budget: the warm per-packet path with telemetry recording
# enabled, call set-up and a whole call life on flat slab slots, a flood
# INVITE past detection and repeated strays — all at zero allocations —
# 4 000 never-seen strings through the classifier for a dozen at most,
# and no classifier event spilling its argument vector.
echo "==> alloc budget (warm path, call set-up, fresh strings, repeated alerts)"
cargo test --offline --test alloc_budget -q

# The memory meter against an allocator that tracks live bytes: 4 000
# calls, `memory_bytes()` within 15 % of what the process holds for them;
# 50 000 fresh symbols at no more than 80 live bytes each.
echo "==> memory meter (memory_bytes vs live allocator bytes)"
cargo test --offline --test memory_meter -q

# A full symbol table sheds new calls and keeps known ones: fills all
# 4 194 304 slots (≈ 150 MB, a few seconds in release), so it is #[ignore]d
# in the plain suite and run here.
echo "==> interner at capacity (counted shed, no panic)"
cargo test --release --offline --test interner_full -q -- --ignored

# Flight-recorder budget: the ring tap on the ingest hot path must be
# allocation-free at steady state — including ring wrap/eviction — with
# telemetry both off and on.
echo "==> alloc budget (record tap steady state, telemetry off and on)"
cargo test --offline --test record_alloc -q

# Forensic determinism: a ≥100-packet recorded flood's .vdump must
# replay byte-identically (alert, counters, snapshot) on a fresh engine.
echo "==> record roundtrip (dump -> fresh-engine replay, byte-identical)"
cargo test --offline --test record_roundtrip -q

# Adversarial correctness harness (crates/harness): structure-aware wire
# fuzzing, differential oracles, the exhaustive epoch-ring (lane) model
# checker, and the pinned regression tests — at the 10k-iteration smoke
# budget (VIDS_FUZZ_ITERS in the environment overrides it for deep runs).
echo "==> correctness harness (fuzz + oracles + lane model checker)"
VIDS_FUZZ_ITERS="${VIDS_FUZZ_ITERS:-10000}" \
    cargo test --offline -p vids-harness -q

# One runtime, and it owns every thread: a pool spawns none at
# construction, a pipeline session exactly one per shard, all joined when
# the session returns or a worker panic is rethrown (Linux: /proc/self/task).
echo "==> thread inventory (pool spawns none, session joins all)"
cargo test --offline --test thread_inventory -q

# Structural guard for the above: the epoch ring is the only place
# vids-core spawns a thread. A second runtime has to argue its way in here.
echo "==> one thread-spawn site in vids-core"
spawn_sites="$(grep -rE 'thread::Builder|thread::spawn|\.spawn\(' crates/core/src | wc -l)"
if [ "$spawn_sites" -ne 1 ] || [ "$(grep -c 'thread::Builder' crates/core/src/pool.rs)" -ne 1 ]; then
    echo "expected exactly one thread-spawn site in crates/core/src (the ring's, in pool.rs), found $spawn_sites" >&2
    exit 1
fi

# Batch-boundary stress: one long-lived pool, randomized batch sizes,
# byte-compared against the plain engine at 1/4/8 shards.
echo "==> pool determinism stress"
cargo test --offline --test pool_determinism -q \
    randomized_batch_sizes_match_the_plain_engine

# Wire-tier oracle: pcap replay byte-compared against the in-process
# engine (alerts, log, counters) at 1/4/8 shards, plus the parallel
# driver byte-compared against the sequential one at 1/2/4 classifier
# threads x 1/4/8 shards (including recorder ring layout).
echo "==> replay differential (sequential + parallel drivers)"
cargo test --offline --test replay_differential -q

# Count gate (ROADMAP 6a): the benchmark's own allocation counts and peak
# RSS on the two workloads that create state, through the command
# BENCHMARK.json declares, against the ceilings committed in
# scripts/perf_ceilings.txt (the measured value plus the metric's bound).
# The counts come from the benchmark's allocator and repeat exactly run to
# run, so this gate cannot flake; peak RSS holds to a fraction of its bound.
perf_gate() {
    workload="$1"
    echo "==> perf count gate ($workload)"
    result="$(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
        --workload "$workload" --seconds 20 --trace 0 | tail -n 1)"
    case "$result" in
    *'"correct": true'*) ;;
    *)
        echo "$workload: the run is not correct: $result" >&2
        exit 1
        ;;
    esac
    while read -r gated metric ceiling; do
        [ "$gated" = "$workload" ] || continue
        value="$(printf '%s\n' "$result" |
            sed -n "s/.*\"$metric\": {\"value\": \([0-9.eE+-]*\).*/\1/p")"
        if ! awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v != "" && v + 0 <= c + 0) }'; then
            echo "$workload: $metric = ${value:-missing} exceeds its ceiling $ceiling" >&2
            exit 1
        fi
        echo "    $metric $value <= $ceiling"
    done <scripts/perf_ceilings.txt
}
perf_gate invite_flood
perf_gate signaling_churn

echo "OK"
