//! The metric names and units `BENCHMARK.json` promises, in its order.

/// `(name, unit, lower is better)`.
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", true),
    ("allocs_per_kdgram", "1", true),
    ("alloc_kib_per_kdgram", "KiB", true),
    ("peak_rss_mib", "MiB", true),
];

/// `(name, unit, lower is better)`. A layer that a workload's path does
/// not cross reads 0.
pub const PER_LAYER: [(&str, &str, bool); 41] = [
    ("ingest.pcap_ns_per_dgram", "ns", true),
    ("ingest.demux_ns_per_dgram", "ns", true),
    ("rtp.header_ns_per_pkt", "ns", true),
    ("core.classify_rtp_ns_per_pkt", "ns", true),
    ("sip.parse_view_ns_per_msg", "ns", true),
    ("sdp.parse_ns_per_body", "ns", true),
    ("scan.find_seq_mib_per_s", "MiB/s", false),
    ("core.classify_sip_ns_per_msg", "ns", true),
    ("sip.reject_ns_per_msg", "ns", true),
    ("efsm.intern_miss_ns", "ns", true),
    ("efsm.intern_hit_ns", "ns", true),
    ("efsm.intern_bytes_per_sym", "B", true),
    ("core.state_bytes_per_call", "B", true),
    ("core.route_ns_per_dgram", "ns", true),
    ("core.pool_ns_per_dgram", "ns", true),
    ("core.tick_us", "us", true),
    ("core.classify_allocs_per_kdgram", "1", true),
    ("core.pool_allocs_per_kdgram", "1", true),
    ("ingest.pcap_allocs_per_kdgram", "1", true),
    ("core.pipeline_ns_per_dgram_b256", "ns", true),
    ("core.pipeline_ns_per_dgram_b16", "ns", true),
    ("ingest.udp_poll_ns_per_dgram", "ns", true),
    ("core.pipeline_alert_lag_submits", "count", true),
    ("core.pool_4s_ns_per_dgram", "ns", true),
    ("ingest.replay_par2_ns_per_dgram", "ns", true),
    ("cluster.gateway_1n_ns_per_dgram", "ns", true),
    ("cluster.gateway_2n_ns_per_dgram", "ns", true),
    ("record.tap_ns_per_dgram", "ns", true),
    ("telemetry.on_ns_per_dgram", "ns", true),
    ("replay.pps", "1/s", false),
    ("replay.cpu_us_per_dgram", "us", true),
    ("live.detect_p50_ms", "ms", true),
    ("live.detect_p90_ms", "ms", true),
    ("live.cpu_ms_per_s", "ms/s", true),
    ("ingest.serve_batch_fill", "count", false),
    ("ingest.serve_lost_share", "1", true),
    ("gen.late_p99_ms", "ms", true),
    ("trace.coverage", "1", false),
    ("trace.overhead_share", "1", true),
    ("host.speed_index", "ms", true),
    ("host.steal_share", "1", true),
];

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u32 = 20;

/// By how much of the parent's median an end-to-end metric may worsen.
pub fn bound(name: &str) -> f64 {
    match name {
        // Whole set-ups are few per run and share the host with
        // neighbours: the widest bound the contract allows.
        "setup_s" => 0.25,
        // Exact counts on the replays; the live session's vary a little
        // with how arrivals fall into batches.
        "allocs_per_kdgram" | "alloc_kib_per_kdgram" => 0.01,
        "peak_rss_mib" => 0.05,
        _ => panic!("no bound for {name}"),
    }
}

/// Why each workload is in the benchmark, one line each.
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "media_steady",
        "1000 concurrent calls, 99 % RTP: pcap decode, demux, RTP header, media index and one EFSM self-loop; SIP parsing is under 1 % of the work, so a parser change must not move it",
    ),
    (
        "signaling_churn",
        "40000 short unique calls at 2000/s: parse_view, SDP, Call-ID interning, fact-base insert and evict, timer sweeps; RTP is a minor share, so an RTP-path change must not move it",
    ),
    (
        "invite_flood",
        "120000 unique-Call-ID INVITEs plus malformed SIP and a response flood: insert-only state, growing interner, alert path; peak RSS is its headline and a churn gain that costs it shows here",
    ),
    (
        "live_trickle",
        "open-loop 1.2k dgram/s over loopback through serve_on: the only path through socket, recvmmsg, Batcher, channel and pipeline; cost is wake-ups and flush policy, not parsing",
    ),
];

/// The contents of `BENCHMARK.json`, generated so that file and code
/// cannot drift apart (a unit test compares them).
pub fn benchmark_json() -> String {
    let better = |lower: bool| if lower { "lower" } else { "higher" };
    let workloads: Vec<String> = WORKLOAD_WHY
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, lower)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {}}}",
                better(*lower),
                bound(name)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, lower)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*lower)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_this_code_generates() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `vids-perf benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn contract_limits_hold() {
        for (name, why) in WORKLOAD_WHY {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(crate::gen::Workload::from_name(name).is_some());
        }
        assert!(END_TO_END.iter().all(|(n, _, _)| bound(n) <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOAD_WHY.iter().map(|m| m.0));
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
