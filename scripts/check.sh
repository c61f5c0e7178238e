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
# smokes, a tenant-mapped pool with its flight recorder among them (the
# serve tests skip themselves with a notice when the sandbox cannot bind
# 127.0.0.1).
echo "==> cargo test -p vids-ingest (wire tier + loopback smoke)"
cargo test --offline -p vids-ingest -q

# The Cluster shim's doc example (tenant map parsing and the pair rule are
# vids-core unit tests, run above).
echo "==> cargo test -p vids-cluster (shim)"
cargo test --offline -p vids-cluster -q

# The shim exists only because perf/ compiles against it: product code
# serves and routes through the pool, never around it.
echo "==> no vids-cluster in product code"
shim_users="$(grep -rnE 'vids_cluster|vids::cluster' crates/ingest/src src/main.rs || true)"
if [ -n "$shim_users" ]; then
    echo "product code names the vids-cluster shim:" >&2
    echo "$shim_users" >&2
    exit 1
fi

# The sink and the flight recorder are the record of what was raised: an
# engine or a pool that keeps its own copy of the alert stream holds every
# alert for the life of the process. Struct fields of type Vec<Alert> in
# the engine and the pool fail the gate; test-only items are exempt.
echo "==> no engine-side alert log (engine.rs, pool.rs)"
awk '
    /^#\[cfg\(test\)\]/ { skip_item = 1; next }
    /^[ \t]+#\[cfg\(test\)\]/ { skip_line = 1; next }
    skip_item { if ($0 ~ /^}/) skip_item = 0; next }
    skip_line { skip_line = 0; next }
    /^(pub(\([a-z]+\))? )?struct .*\{[ \t]*$/ { in_struct = 1 }
    /^(pub(\([a-z]+\))? )?struct [A-Za-z_]+(<[^>]*>)?\(.*Vec<[ \t]*([a-z_]+::)*Alert[ \t]*>/ {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    in_struct && /:[ \t]*Vec<[ \t]*([a-z_]+::)*Alert[ \t]*>/ {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    in_struct && /^}/ { in_struct = 0 }
    END { exit bad }
' crates/core/src/engine.rs crates/core/src/pool.rs || {
    echo "an engine or pool keeps a Vec<Alert> field (above): hand alerts to the sink instead" >&2
    exit 1
}

# A symbol is never freed, so the classifier interns only what the engine
# keys on: the Call-ID, which groups a call, and a REGISTER's
# address-of-record, which keys a binding. Tags and branches are only
# compared and become keyed fingerprints. Exactly two interning sites
# (`intern(`, `try_intern(`, the function named as a value, `Sym::from(`)
# in classify.rs outside comments and the test module.
echo "==> classify.rs interns only the Call-ID and the AOR"
awk '
    /^#\[cfg\(test\)\]/ { exit }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        n = gsub(/(try_)?intern[ \t]*\(|::(try_)?intern([^A-Za-z0-9_:]|$)|Sym::from[ \t]*\(/, "&", line)
        if (n > 0) { print "    " FILENAME ":" FNR ":" $0; sites += n }
    }
    END { exit sites != 2 }
' crates/core/src/classify.rs || {
    echo "classify.rs must intern exactly the Call-ID and the AOR (sites above): fingerprint what is only compared" >&2
    exit 1
}

# The bytes decide: one classifier for the testbed and the wire. A
# datagram classifies from its ports and bytes (`classify_payload`), never
# from the testbed's `Payload` tag, so no filter of the packets on which
# the two could disagree (`wire_safe`) comes back, and vids-core's non-test
# code names a `Payload::` variant only in cost.rs and tap.rs, the
# testbed-side pieces ROADMAP item 8 moves out.
echo "==> the bytes decide (no classification by payload tag)"
tagged="$( (grep -rn 'wire_safe' crates tests src || true
    for f in crates/core/src/*.rs crates/core/src/machines/*.rs; do
        case "$f" in */cost.rs | */tap.rs) continue ;; esac
        awk '
            /^#\[cfg\(test\)\]/ { exit }
            { line = $0; sub(/\/\/.*/, "", line) }
            line ~ /Payload::(Sip|Rtp|Raw)/ { print FILENAME ":" FNR ":" $0 }
        ' "$f"
    done) )"
if [ -n "$tagged" ]; then
    echo "classification by payload tag:" >&2
    echo "$tagged" >&2
    exit 1
fi

# One set of counters: every count lives in a telemetry slab (the engine's
# own, the pool's registry), and a report is a reading of it. An engine
# that bumps a `counters.<field>` of its own, or a serve or replay loop
# that declares an `AtomicU64` tally, keeps a second store that the slab
# then has to be kept in step with.
echo "==> one store of counts (telemetry slabs)"
tallies="$( (grep -rnE 'counters\.[a-z_]+[[:space:]]*\+=' crates/core/src
    grep -nE 'AtomicU64' crates/ingest/src/server.rs crates/ingest/src/replay.rs) || true)"
if [ -n "$tallies" ]; then
    echo "a count kept outside the telemetry slabs:" >&2
    echo "$tallies" >&2
    exit 1
fi

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
# INVITE past detection, repeated strays and RTP from 10 000 never-seen
# sources — all at zero allocations — and 3 000 never-seen strings through
# the classifier (1 000 Call-IDs interned, 2 000 tags and branches
# fingerprinted) for three at most.
echo "==> alloc budget (warm path, call set-up, fresh strings, repeated alerts)"
cargo test --offline --test alloc_budget -q

# The memory meter against an allocator that tracks live bytes: 4 000
# calls, `memory_bytes()` within 15 % of what the process holds for them;
# 50 000 fresh symbols at no more than 80 live bytes each.
echo "==> memory meter (memory_bytes vs live allocator bytes)"
cargo test --offline --test memory_meter -q

# 60 s of INVITEs at 2 000/s, each to a fresh destination: the fact base
# holds only the windows open in the last T1, `memory_bytes()` plateaus
# within a slab chunk and a warm INVITE allocates nothing.
echo "==> window bound (idle flood windows end at the sweep)"
cargo test --offline --test window_bound -q

# A full symbol table sheds new calls and keeps known ones, and media from
# a never-seen source is still checked against them (addresses are values):
# fills all 4 194 304 slots (≈ 150 MB, a few seconds in release), so it is
# #[ignore]d in the plain suite and run here.
echo "==> interner at capacity (counted shed, no panic)"
cargo test --release --offline --test interner_full -q -- --ignored

# Flight-recorder budget: the one recorder, which `vids serve` and
# `vids replay` both tap, must record allocation-free at steady state —
# including ring wrap/eviction and its per-lane locks — with telemetry both
# off and on.
echo "==> alloc budget (record tap steady state, telemetry off and on)"
cargo test --offline --test record_alloc -q

# Adversarial correctness harness (crates/harness): structure-aware wire
# fuzzing, differential oracles, the exhaustive epoch-ring (lane) model
# checker, and the pinned regression tests — at the 10k-iteration smoke
# budget (VIDS_FUZZ_ITERS in the environment overrides it for deep runs).
# The placement matrix over the seeded corpus is the next step's.
echo "==> correctness harness (fuzz + oracles + lane model checker)"
VIDS_FUZZ_ITERS="${VIDS_FUZZ_ITERS:-10000}" \
    cargo test --offline -p vids-harness -q -- --skip every_placement

# Placement matrix (crates/harness/src/matrix.rs): the curated mixed trace,
# the generated corpus of seeds 1-8 (reordered calls, proxied calls
# under tenant maps, a reused media coordinate, media past eviction,
# junk) and the knob traces (an RTP flood, a response flood spread over
# its window, BYE retransmissions either side of eviction) at batch sizes
# 1, 7 and 25, through a plain engine, the pool at
# {1, 2, 3, 4, 5, 8} shards, the pipeline session, parallel pcap replay,
# the flight recorder (every dump replayed; the mixed trace and seeds 1-4
# recorded at every batch size, every later case at one each), the Cluster shim
# at three node layouts and set_nodes rebalances, under one tenant and
# two tenant maps, one test per tenant setting on two threads each; one
# canonical output (alerts, counters, monitored calls, deterministic
# telemetry) per run, compared under the written exceptions in
# matrix.rs. The root suites are its curated cases (pool, wire, cluster
# and tenancy, recorder round trip). Wall time of the matrix with a warm
# debug build on a 2-vCPU Xeon guest: 27.6-28.8 s (27.1-28.9 s without
# the knob traces, on the same host in the same hour).
echo "==> placement matrix (seeded corpus, every deployment shape)"
cargo test --offline -p vids-harness --test differential -q every_placement
cargo test --offline -q --test pool_determinism --test replay_differential \
    --test cluster_determinism --test record_roundtrip

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

# Placement lives in one module, as threads do above: no crate outside
# vids-core picks a node or shard (`rendezvous(`, `route_hint(`) or keeps
# a media routing index (`media_to_*`) of its own.
echo "==> placement only in vids-core"
placement="$(grep -rnE 'rendezvous\(|route_hint\(|\bmedia_to_[a-z]+' crates/*/src | grep -v '^crates/core/' || true)"
if [ -n "$placement" ]; then
    echo "placement outside crates/core/src:" >&2
    echo "$placement" >&2
    exit 1
fi

# Every knob earns its place (tests/knobs.rs): a Config field without a
# row fails that suite's `every_config_field_has_a_row`; here, each
# tenants.conf key `apply_override` accepts and each flag `vids serve` and
# `vids replay` parse must be listed in its TENANT_ROWS or FLAGS table,
# and each listed one must still be parsed.
echo "==> every tenant key and serve/replay flag has a knob row"
knob_lists="$(mktemp -d)"
awk '/^fn apply_override/,/^}/' crates/core/src/tenant.rs |
    sed -n 's/^[[:space:]]*"\([a-z0-9_]*\)" =>.*/\1/p' | sort >"$knob_lists/keys"
awk '/^const TENANT_ROWS/,/^\];/' tests/knobs.rs |
    sed -n 's/^[[:space:]]*("\([a-z0-9_]*\)",.*/\1/p' | sort >"$knob_lists/key_rows"
awk '/^fn (serve|replay)\(/,/^}/' src/main.rs |
    grep -oE '\.(parsed|value|flag)\("--[a-z-]+"' | grep -oE -- '--[a-z-]+' |
    sort -u >"$knob_lists/flags"
awk '/^const FLAGS/,/^\];/' tests/knobs.rs |
    sed -n 's/^[[:space:]]*("\(--[a-z-]*\)",.*/\1/p' | sort >"$knob_lists/flag_rows"
rows_ok=true
diff -u "$knob_lists/keys" "$knob_lists/key_rows" >&2 || rows_ok=false
diff -u "$knob_lists/flags" "$knob_lists/flag_rows" >&2 || rows_ok=false
[ -s "$knob_lists/keys" ] && [ -s "$knob_lists/flags" ] || rows_ok=false
if [ "$rows_ok" = false ]; then
    echo "parsed (-) and listed in tests/knobs.rs (+) differ: give each key and flag a row" >&2
    rm -rf "$knob_lists"
    exit 1
fi
echo "    $(wc -l <"$knob_lists/keys") tenant keys, $(wc -l <"$knob_lists/flags") flags"
rm -rf "$knob_lists"

# Count gate (ROADMAP 1a): the benchmark's own allocation counts and peak
# RSS on all four workloads, through the command BENCHMARK.json declares,
# against the ceilings committed in scripts/perf_ceilings.txt (the measured
# value plus the metric's bound). The replay counts come from the
# benchmark's allocator and repeat exactly run to run. The live count moves
# with how many datagrams reach the socket together: a receiver hands over
# what one drain of the socket found, so the receivers' batch buffers, the
# epoch slots' queues and the coordinator's harvest vectors grow to the
# largest burst a session happens to see (6-140 KB and 12-60 allocations a
# session); alerts and timer sweeps no longer vary with it. Its ceiling
# therefore starts from the highest of five sessions. Peak RSS holds to a
# fraction of its bound.
# Where the sandbox cannot bind loopback, live_trickle is skipped with a
# notice.
perf_gate() {
    workload="$1"
    echo "==> perf count gate ($workload)"
    errors="$(mktemp)"
    result="$(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
        --workload "$workload" --seconds 20 --trace 0 2>"$errors" | tail -n 1)"
    if [ "$workload" = live_trickle ] && grep -q 'bind loopback' "$errors"; then
        echo "    skipped: $(grep -m 1 'bind loopback' "$errors")"
        rm -f "$errors"
        return 0
    fi
    cat "$errors" >&2
    rm -f "$errors"
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
perf_gate media_steady
perf_gate signaling_churn
perf_gate invite_flood
perf_gate live_trickle

# perf/ is frozen; building it must not rewrite its lock file.
git diff --exit-code -- perf/Cargo.lock || {
    echo "building perf/ changed perf/Cargo.lock" >&2
    exit 1
}

echo "OK"
