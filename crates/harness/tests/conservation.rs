//! Conservation: every datagram a wire path takes in is counted once, in
//! the one store of counts (the pool's telemetry registry), and the
//! report a replay returns is that store read across the call.
//!
//! A replay of every datagram of the curated mixed trace, generated seeds
//! 1–4 and a fuzzed trace of 500 (RTCP, short and malformed RTP among
//! them), through the placement matrix's replay shape at one classifier
//! thread on one and four shards and at two threads on four shards, must
//! satisfy
//! `DatagramsRx == PacketsIngested`, and the engines must classify each
//! ingested datagram once: as SIP, RTP, malformed or ignored. The live
//! twin, `DatagramsRx == PacketsIngested + DatagramsDropped`, is asserted
//! by `vids-ingest`'s loopback tests.

use vids_core::sink::CollectSink;
use vids_core::telemetry::Counter;
use vids_core::{Config, CostModel, VidsPool};
use vids_harness::matrix::{pcap, replay, run};
use vids_harness::traffic::{fuzzed, generated, mixed_trace, Trace};
use vids_ingest::pcap::LINKTYPE_RAW;
use vids_ingest::replay::replay_pcap_parallel;

/// Datagrams per batch: one of the matrix's sizes.
const BATCH: usize = 7;

/// (shards, classifier threads).
const PLACEMENTS: [(usize, usize); 3] = [(1, 1), (4, 1), (4, 2)];

fn corpus() -> Vec<(String, Trace)> {
    let mut traces = vec![("mixed_trace".to_owned(), mixed_trace())];
    traces.extend((1..=4).map(|seed| (format!("generated({seed})"), generated(seed))));
    traces.push(("fuzzed(1, 500)".to_owned(), fuzzed(1, 500)));
    traces
}

#[test]
fn every_replayed_datagram_is_ingested_and_classified_once() {
    for (name, trace) in corpus() {
        for (shards, threads) in PLACEMENTS {
            let at = format!("{name} at {shards} shards, {threads} thread(s)");
            let out = run(&trace, BATCH, &replay(shards, threads).telemetry());
            let counts = out.telemetry.expect("telemetry on");
            let rx = counts.counter(Counter::DatagramsRx);
            assert_eq!(rx, trace.len() as u64, "{at}: datagrams received");
            assert_eq!(
                counts.counter(Counter::PacketsIngested),
                rx,
                "{at}: datagrams ingested"
            );
            let c = out.counters;
            assert_eq!(
                c.sip_packets + c.rtp_packets + c.malformed + c.ignored,
                rx,
                "{at}: datagrams classified: {c:?}"
            );
        }
    }
}

#[test]
fn a_replay_reports_its_own_share_of_the_pool_slab() {
    for (name, trace) in corpus() {
        for (shards, threads) in PLACEMENTS {
            let at = format!("{name} at {shards} shards, {threads} thread(s)");
            let config = Config::builder().shards(shards).build().unwrap();
            let mut pool = VidsPool::with_cost(config, CostModel::default());
            let slab = pool.registry().pool_slab();
            let mut sink = CollectSink::new();
            let mut replayed = |pool: &mut VidsPool| {
                let capture = pcap(&trace, false, LINKTYPE_RAW);
                replay_pcap_parallel(capture, pool, BATCH, threads, None, None, &mut sink)
                    .expect("replay")
            };
            let first = replayed(&mut pool);
            assert_eq!(first.datagrams, slab.get(Counter::DatagramsRx), "{at}");
            assert_eq!(first.demux_unknown, slab.get(Counter::DemuxUnknown), "{at}");
            assert_eq!(
                first.datagrams_ipv6,
                slab.get(Counter::DatagramsIpv6),
                "{at}"
            );
            assert_eq!(first.batches, slab.get(Counter::BatchesIngested), "{at}");
            assert_eq!(first.batches, trace.len().div_ceil(BATCH) as u64, "{at}");
            assert_eq!(first.datagrams, slab.get(Counter::PacketsIngested), "{at}");
            // The same capture again on the same pool: the report is this
            // call's, the slab holds both.
            let second = replayed(&mut pool);
            assert_eq!(
                (second.datagrams, second.demux_unknown, second.batches),
                (first.datagrams, first.demux_unknown, first.batches),
                "{at}: a reused pool reports per call"
            );
            assert_eq!(slab.get(Counter::DatagramsRx), 2 * first.datagrams, "{at}");
        }
    }
}
