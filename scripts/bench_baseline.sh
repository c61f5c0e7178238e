#!/usr/bin/env sh
# Hot-path benchmark snapshot: runs the throughput-relevant benches and
# refreshes the "current" numbers in BENCH_hotpath.json so regressions
# against the recorded baseline are visible in review.
# Offline by design — the workspace vendors all dependencies.
set -eu

cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

for bench in parser_throughput hot_path_alloc pcap_replay cluster_gateway; do
    echo "==> cargo bench --bench $bench"
    cargo bench --offline -p vids-bench --bench "$bench" | tee -a "$out"
done

# `bench <id> <ns>/iter <rate> elem/s|MiB/s` lines from the criterion
# stub, plus the `replay, N shard(s) ... pps`, `replay+record, N
# shard(s) ... pps`, `replay, T thread(s) x N shard(s) ... pps` and
# `gateway, ... pps` rows the pcap/cluster benches print.
python3 - "$out" <<'PY'
import json, os, re, socket, sys

rates = {}
replay = {}
recorded = {}
scaling = {}
gateway = {}
for line in open(sys.argv[1]):
    m = re.match(r"bench\s+(\S+)\s+[\d.]+\s+ns/iter\s+(\d+)\s+elem/s", line)
    if m:
        rates[m.group(1)] = int(m.group(2))
        continue
    m = re.match(r"bench\s+(\S+)\s+[\d.]+\s+ns/iter\s+([\d.]+)\s+MiB/s", line)
    if m:
        rates[m.group(1)] = float(m.group(2))
        continue
    m = re.match(r"replay,\s+(\d+)\s+shard\(s\)\s+-\s+(\d+)\s+pps", line)
    if m:
        replay[int(m.group(1))] = int(m.group(2))
        continue
    m = re.match(r"replay\+record,\s+(\d+)\s+shard\(s\)\s+-\s+(\d+)\s+pps", line)
    if m:
        recorded[int(m.group(1))] = int(m.group(2))
        continue
    m = re.match(
        r"replay,\s+(\d+)\s+thread\(s\)\s+x\s+(\d+)\s+shard\(s\)\s+-\s+(\d+)\s+pps", line
    )
    if m:
        scaling[(int(m.group(1)), int(m.group(2)))] = int(m.group(3))
        continue
    m = re.match(r"gateway,\s+direct pool\s+-\s+(\d+)\s+pps", line)
    if m:
        gateway["direct"] = int(m.group(1))
        continue
    m = re.match(r"gateway,\s+(\d+)\s+node\(s\)\s+-\s+(\d+)\s+pps", line)
    if m:
        gateway[int(m.group(1))] = int(m.group(2))

path = "BENCH_hotpath.json"
doc = json.load(open(path))
cur = doc["current"]
# Pin the measurement environment so numbers from different hosts are
# never compared as like-for-like.
cur["hostname"] = socket.gethostname()
cur["available_parallelism"] = os.cpu_count()
mapping = {
    "vids_mixed_fig8_elem_per_s": "hot_path/vids_mixed_fig8",
    "vids_mixed_fig8_telemetry_elem_per_s": "hot_path/vids_mixed_fig8_telemetry",
    "pool_mixed_fig8_4_shards_elem_per_s": "hot_path/pool_mixed_fig8_4_shards",
    "pool_mixed_fig8_4_shards_telemetry_elem_per_s": "hot_path/pool_mixed_fig8_4_shards_telemetry",
    "sip_parse_reject_malformed_elem_per_s": "parser/sip_parse_reject_malformed",
    "sip_parse_view_mib_per_s": "parser/sip_parse_view_invite_with_sdp",
    "sip_header_scan_mib_per_s": "parser/sip_header_scan_only",
    "rtp_decode_header_mib_per_s": "parser/rtp_decode_header",
}
for key, bench_id in mapping.items():
    if bench_id in rates:
        cur[key] = rates[bench_id]
for shards, pps in replay.items():
    suffix = "shard" if shards == 1 else "shards"
    cur[f"pcap_replay_{shards}_{suffix}_pps"] = pps
for shards, pps in recorded.items():
    suffix = "shard" if shards == 1 else "shards"
    cur[f"pcap_replay_record_{shards}_{suffix}_pps"] = pps
# The multi-core scaling grid (parallel classification + epoch-ring
# pipeline), keyed by the host's parallelism: single-core numbers only
# measure handoff overhead and must never be read as scaling.
if scaling:
    grid = {"hw_threads": os.cpu_count()}
    for (threads, shards), pps in sorted(scaling.items()):
        grid[f"{threads}t_x_{shards}s_pps"] = pps
    cur["pcap_replay_scaling"] = grid
# The flight recorder's ring tap budget: ≤3% pps overhead at 1 shard.
if 1 in replay and 1 in recorded:
    overhead = 1.0 - recorded[1] / replay[1]
    print(f"record tap overhead at 1 shard: {overhead * 100:.1f}%")
# The cluster gateway's budget: a 1-node/1-tenant federation ingests at
# most 5% under the direct pool (DESIGN.md §7j).
if "direct" in gateway:
    cur["cluster_gateway_direct_pps"] = gateway["direct"]
    for nodes in sorted(k for k in gateway if k != "direct"):
        cur[f"cluster_gateway_{nodes}_nodes_pps"] = gateway[nodes]
    if 1 in gateway:
        overhead = 1.0 - gateway[1] / gateway["direct"]
        cur["cluster_gateway_overhead_pct"] = round(overhead * 100, 1)
        print(f"cluster gateway overhead at 1 node: {overhead * 100:.1f}% (budget <= 5%)")
json.dump(doc, open(path, "w"), indent=2)
open(path, "a").write("\n")
print(f"updated {path}: {cur}")
PY

echo "OK"
