//! Set-up of one run: generate the workload, write its capture and
//! manifest, and take the expected verdicts from a reference pass through
//! the plain in-process engine (`Vids::process` over `Packet`s) — not the
//! wire path the benchmark measures.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vids_core::{CollectSink, Config, CostModel, Vids};
use vids_netsim::packet::{Address, Packet, Payload};
use vids_netsim::time::SimTime;

use crate::gen::{self, Class, Endpoint, PcapBuf, Shape, Workload};
use crate::manifest::{alert_set, Manifest};

/// Datagrams per engine batch on every replay path — the engine's own
/// default `batch_flush_packets`.
pub const FLUSH_PACKETS: usize = 256;

/// The engine configuration a workload runs under. Only the live workload
/// departs from the defaults: all loopback datagrams share one destination
/// address, so the per-destination INVITE-flood threshold is lifted above
/// the offered INVITE rate.
pub fn engine_config(workload: Workload, shards: usize) -> Config {
    let mut b = Config::builder().shards(shards);
    if workload.is_live() {
        b = b.invite_flood_threshold(1_000_000);
    }
    b.build().expect("benchmark engine config is valid")
}

/// Files of one prepared workload.
pub struct Prepared {
    pub capture: PathBuf,
    pub manifest_path: PathBuf,
    pub manifest: Manifest,
    pub setup_s: f64,
}

fn address(e: Endpoint) -> Address {
    let [a, b, c, d] = e.ip.to_be_bytes();
    Address::new(a, b, c, d, e.port)
}

/// Generates `shape` under `seed` into `dir` and returns what was written.
/// Timed as a whole: this is `setup_s`.
pub fn prepare(shape: &Shape, seed: u64, dir: &Path) -> std::io::Result<Prepared> {
    let started = Instant::now();
    let workload = shape.workload;
    let mut manifest = Manifest::new(workload.name(), seed);
    let mut pcap = PcapBuf::new();
    let mut reference = Vids::with_cost(engine_config(workload, 1), CostModel::free());
    let mut verdicts = CollectSink::new();
    let mut last = SimTime::ZERO;
    let mut id = 0u64;
    gen::generate(shape, seed, |d| {
        manifest.note(&d);
        pcap.push(&d);
        let at = SimTime::from_micros(d.at_us);
        let payload = match d.class {
            Class::Rtp => Payload::Rtp(d.payload.to_vec()),
            Class::Sip | Class::Malformed => {
                Payload::Sip(String::from_utf8(d.payload.to_vec()).expect("generated SIP is UTF-8"))
            }
        };
        let packet = Packet {
            src: address(d.src),
            dst: address(d.dst),
            payload,
            id,
            sent_at: at,
        };
        id += 1;
        last = at;
        reference.process(&packet, at, &mut verdicts);
    });
    let grace = reference.config().replay_grace;
    reference.tick(last + grace, &mut verdicts);
    manifest.alerts = alert_set(verdicts.alerts());
    manifest.capture_bytes = pcap.bytes.len() as u64;
    manifest.capture_fnv = gen::fnv1a64(&pcap.bytes);

    std::fs::create_dir_all(dir)?;
    let capture = dir.join(format!("{}.pcap", workload.name()));
    let manifest_path = dir.join(format!("{}.manifest", workload.name()));
    std::fs::write(&capture, &pcap.bytes)?;
    manifest.write_to(&manifest_path)?;
    Ok(Prepared {
        capture,
        manifest_path,
        manifest,
        setup_s: started.elapsed().as_secs_f64(),
    })
}
