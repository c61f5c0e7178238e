//! E4 / §7.3 — CPU overhead of running vids.
//!
//! The paper reports 3.6 % added CPU on the testbed host. Absolute
//! percentages depend on 2006 hardware, so this harness reports both the
//! calibrated *model* (per-packet CPU charges over the testbed workload)
//! and the *measured* wall-clock cost of the real vids pipeline per packet
//! on this machine.

use std::time::Instant;

use vids::core::{Config, CostModel, NullSink, Vids, VidsPool};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::rtp::packet::RtpPacket;
use vids::scenario::{Testbed, TestbedConfig};
use vids_bench::{header, row};

fn rtp_packet(i: u64) -> Packet {
    let rtp = RtpPacket::new(18, (100 + i) as u16, (i * 80) as u32, 7).with_payload(vec![0; 10]);
    Packet {
        src: Address::new(10, 1, 0, 10, 20_000),
        dst: Address::new(10, 2, 0, 10, 30_000),
        payload: Payload::Rtp(rtp.to_bytes()),
        id: i,
        sent_at: SimTime::ZERO,
    }
}

fn sip_invite(call: &str) -> Packet {
    let sdp = vids::sdp::SessionDescription::audio_offer(
        "alice",
        "10.1.0.10",
        20_000,
        &[vids::sdp::Codec::G729],
    );
    let req = vids::sip::Request::invite(
        &vids::sip::SipUri::new("alice", "a.example.com"),
        &vids::sip::SipUri::new("bob", "b.example.com"),
        call,
    )
    .with_body(vids::sdp::MIME_TYPE, sdp.to_string());
    Packet {
        src: Address::new(10, 1, 0, 10, 5060),
        dst: Address::new(10, 2, 0, 10, 5060),
        payload: Payload::Sip(req.to_string()),
        id: 0,
        sent_at: SimTime::ZERO,
    }
}

fn print_figure() {
    // Modeled overhead on a steady-state testbed workload: 20 callers kept
    // nearly saturated so ~20 calls run concurrently, as in the paper's
    // busiest stretches.
    let mut config = TestbedConfig::paper(4);
    config.workload.mean_interarrival_secs = 120.0;
    config.workload.mean_duration_secs = 120.0;
    config.workload.horizon = SimTime::from_secs(480);
    let mut tb = Testbed::build(&config);
    tb.run_until(SimTime::from_secs(540));
    let modeled = tb.vids().unwrap().cpu_overhead();

    // Measured wall-clock per-packet cost of the actual pipeline.
    let mut vids = Vids::new(Config::default());
    vids.process(&sip_invite("cpu-1"), SimTime::ZERO, &mut NullSink);
    let n = 50_000u64;
    let start = Instant::now();
    for i in 0..n {
        vids.process(&rtp_packet(i), SimTime::from_millis(i / 100), &mut NullSink);
    }
    let per_rtp_ns = start.elapsed().as_nanos() as f64 / n as f64;

    let mut vids2 = Vids::new(Config::default());
    let m = 5_000u64;
    let start = Instant::now();
    for i in 0..m {
        vids2.process(
            &sip_invite(&format!("cpu-{i}")),
            SimTime::from_millis(i * 2_000),
            &mut NullSink,
        );
    }
    let per_sip_ns = start.elapsed().as_nanos() as f64 / m as f64;

    // The same pipeline batched through the sharded pool (VIDS_SHARDS knob).
    let shards = vids_bench::shards_knob();
    let batch = vids_bench::synth_call_batch(100, 40);
    let pool_config = Config::builder().shards(shards).build().unwrap();
    let mut pool = VidsPool::with_cost(pool_config, CostModel::free());
    let start = Instant::now();
    pool.process_batch(&batch, SimTime::ZERO, &mut NullSink);
    let per_pool_ns = start.elapsed().as_nanos() as f64 / batch.len() as f64;

    // At the paper's workload (~6000 RTP pps through the perimeter), the
    // measured pipeline would consume this CPU fraction on *this* machine.
    let measured_fraction = 6_000.0 * per_rtp_ns * 1e-9;

    println!("{}", header("E4 / §7.3: CPU overhead"));
    println!(
        "{}",
        row(
            "modeled overhead (2006 host)",
            "3.6 %",
            format!("{:.2} %", modeled * 100.0)
        )
    );
    println!(
        "{}",
        row(
            "pipeline cost per RTP packet",
            "-",
            format!("{per_rtp_ns:.0} ns")
        )
    );
    println!(
        "{}",
        row(
            "pipeline cost per SIP message",
            "-",
            format!("{per_sip_ns:.0} ns")
        )
    );
    println!(
        "{}",
        row(
            "equiv. overhead @6000 pps (this host)",
            "-",
            format!("{:.3} %", measured_fraction * 100.0)
        )
    );
    println!(
        "{}",
        row(
            &format!("pool batch cost per packet ({shards} shards)"),
            "-",
            format!("{per_pool_ns:.0} ns"),
        )
    );
}

fn main() {
    print_figure();
}
