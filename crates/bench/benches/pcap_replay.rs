//! Wire-tier replay throughput: classic pcap bytes → UDP frame decode →
//! demux → classify → sharded engine, end to end.
//!
//! Not a paper figure — the 2006 prototype consumed a live libpcap feed —
//! but the offline analogue of its deployment path: `vids replay` over a
//! capture is how this engine audits recorded traffic, so the datagrams/s
//! through the full decode path is the number that bounds capture-audit
//! turnaround. Compare against `hot_path_alloc`'s in-process pool rows to
//! read off what the wire decode itself costs.

use std::sync::Once;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use vids::core::{Config, CostModel, NullSink, VidsPool};
use vids::ingest::pcap::PcapWriter;
use vids::ingest::record_tap::RecordTap;
use vids::ingest::replay::{replay_pcap, replay_pcap_parallel};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::record::Recorder;
use vids_bench::{header, print_once, row, synth_call_batch};

static PRINTED: Once = Once::new();

const CALLS: usize = 150;
const RTP_PER_CALL: usize = 40;
const FLUSH_PACKETS: usize = 256;

fn to_socket(addr: Address) -> std::net::SocketAddrV4 {
    let [a, b, c, d] = addr.ip.to_be_bytes();
    std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(a, b, c, d), addr.port)
}

/// Renders the synthetic batch to classic pcap capture bytes.
fn to_pcap(batch: &[Packet]) -> Vec<u8> {
    let mut w = PcapWriter::new();
    for p in batch {
        let payload: Vec<u8> = match &p.payload {
            Payload::Sip(text) => text.clone().into_bytes(),
            Payload::Rtp(bytes) | Payload::Raw(bytes) => bytes.clone(),
        };
        w.push_udp(p.sent_at, to_socket(p.src), to_socket(p.dst), &payload);
    }
    w.into_bytes()
}

fn pool(shards: usize) -> VidsPool {
    let config = Config::builder().shards(shards).build().unwrap();
    VidsPool::with_cost(config, CostModel::free())
}

fn replay_pps(capture: &[u8], datagrams: usize, shards: usize, passes: usize, record: bool) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..passes {
        let mut p = pool(shards);
        // The recorder's ring copy rides inside the timed region so the
        // "replay+record" row measures the real tap overhead (the dump
        // path never fires: NullSink traffic raises no alerts here).
        let mut recorder = record.then(|| Recorder::with_defaults(1));
        let mut tap = recorder.as_mut().map(|r| RecordTap::new(r, None));
        let start = Instant::now();
        let report = replay_pcap(
            capture.to_vec(),
            &mut p,
            FLUSH_PACKETS,
            None,
            tap.as_mut(),
            &mut NullSink,
        )
        .unwrap();
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(report.datagrams as usize, datagrams);
    }
    datagrams as f64 / best
}

/// Throughput of the parallel driver: `threads` classifier threads plus
/// the engine's epoch-ring shard workers.
fn parallel_pps(
    capture: &[u8],
    datagrams: usize,
    shards: usize,
    threads: usize,
    passes: usize,
) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..passes {
        let mut p = pool(shards);
        let start = Instant::now();
        let report = replay_pcap_parallel(
            capture.to_vec(),
            &mut p,
            FLUSH_PACKETS,
            threads,
            None,
            None,
            &mut NullSink,
        )
        .unwrap();
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(report.datagrams as usize, datagrams);
    }
    datagrams as f64 / best
}

fn print_figure() {
    let batch = synth_call_batch(CALLS, RTP_PER_CALL);
    let capture = to_pcap(&batch);
    println!("{}", header("Pcap replay: wire-decode + engine throughput"));
    println!(
        "{}",
        row(
            "capture",
            "-",
            format!(
                "{} calls / {} datagrams / {} KiB",
                CALLS,
                batch.len(),
                capture.len() / 1024
            )
        )
    );
    for shards in [1usize, 4] {
        let pps = replay_pps(&capture, batch.len(), shards, 5, false);
        println!(
            "{}",
            row(
                &format!("replay, {shards} shard(s)"),
                "-",
                format!("{pps:>9.0} pps")
            )
        );
    }
    // The same path with the flight recorder's ring tap enabled — the
    // acceptance budget is ≤3% pps overhead against the row above.
    for shards in [1usize, 4] {
        let pps = replay_pps(&capture, batch.len(), shards, 5, true);
        println!(
            "{}",
            row(
                &format!("replay+record, {shards} shard(s)"),
                "-",
                format!("{pps:>9.0} pps")
            )
        );
    }
    // The multi-core scaling grid: parallel classification feeding the
    // epoch-ring pipeline. On a 1-core host the extra threads only add
    // handoff cost; read the grid next to `available_parallelism`.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("{}", row("hw threads", "-", format!("{hw}")));
    for threads in [1usize, 2, 4] {
        for shards in [1usize, 4] {
            let pps = parallel_pps(&capture, batch.len(), shards, threads, 5);
            println!(
                "{}",
                row(
                    &format!("replay, {threads} thread(s) x {shards} shard(s)"),
                    "-",
                    format!("{pps:>9.0} pps")
                )
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    print_once(&PRINTED, print_figure);
    let batch = synth_call_batch(CALLS, RTP_PER_CALL);
    let capture = to_pcap(&batch);
    let mut group = c.benchmark_group("pcap_replay");
    group.throughput(Throughput::Elements(batch.len() as u64));
    for shards in [1usize, 4] {
        group.bench_function(&format!("shards_{shards}"), |b| {
            b.iter(|| {
                let mut p = pool(shards);
                let report = replay_pcap(
                    std::hint::black_box(capture.clone()),
                    &mut p,
                    FLUSH_PACKETS,
                    None,
                    None,
                    &mut NullSink,
                )
                .unwrap();
                std::hint::black_box(report.datagrams)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
