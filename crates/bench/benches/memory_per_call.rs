//! E5 / §7.3 — per-call memory cost and scaling to thousands of calls.
//!
//! Paper: "All mandatory fields … consume about 450 bytes. Similarly, the
//! RTP state information … requires only 40 bytes", growing linearly with
//! the number of calls, so "vids can monitor thousands of calls at the
//! same time".

use vids::core::{Config, NullSink, Vids};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids_bench::{header, row};

const CALLER: Address = Address::new(10, 1, 0, 10, 5060);
const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

fn sip(src: Address, dst: Address, text: String, i: usize) -> Packet {
    Packet {
        src,
        dst,
        payload: Payload::Sip(text),
        id: i as u64,
        sent_at: SimTime::ZERO,
    }
}

fn invite(i: usize) -> vids::sip::Request {
    let sdp = vids::sdp::SessionDescription::audio_offer(
        "alice",
        "10.1.0.10",
        20_000 + (i % 10_000) as u16 * 2,
        &[vids::sdp::Codec::G729],
    );
    vids::sip::Request::invite(
        &vids::sip::SipUri::new("alice", "a.example.com"),
        &vids::sip::SipUri::new("bob", "b.example.com"),
        &format!("mem-call-{i}"),
    )
    .with_body(vids::sdp::MIME_TYPE, sdp.to_string())
}

fn invite_packet(i: usize) -> Packet {
    sip(CALLER, CALLEE, invite(i).to_string(), i)
}

/// The 200 OK with the callee's SDP answer that establishes call `i`.
fn answer_packet(i: usize) -> Packet {
    let sdp = vids::sdp::SessionDescription::audio_offer(
        "bob",
        "10.2.0.10",
        40_000 + (i % 10_000) as u16 * 2,
        &[vids::sdp::Codec::G729],
    );
    let ok = invite(i)
        .response(vids::sip::StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, sdp.to_string());
    sip(CALLEE, CALLER, ok.to_string(), i)
}

/// A monitor holding `n` concurrent calls: half-open (INVITE seen, nothing
/// since — what a flood leaves behind) or established (answered, both
/// media endpoints indexed). One caller dials one callee, so the flood
/// threshold is lifted.
fn monitor_with_calls(n: usize, established: bool) -> Vids {
    let config = Config::builder()
        .invite_flood_threshold(u64::MAX)
        .build()
        .expect("valid config");
    let mut vids = Vids::new(config);
    for i in 0..n {
        let now = SimTime::from_millis(i as u64);
        vids.process(&invite_packet(i), now, &mut NullSink);
        if established {
            vids.process(&answer_packet(i), now, &mut NullSink);
        }
    }
    vids
}

fn print_figure() {
    println!("{}", header("E5 / §7.3: per-call memory cost"));
    println!(
        "{}",
        row(
            "paper per-call state",
            "~490 B",
            "(450 B SIP + 40 B RTP)".to_owned()
        )
    );
    println!(
        "{}",
        row(
            "accounting",
            "-",
            "live slots x size_of + spilled heap + index entries (tests/memory_meter.rs: within 15 % of the allocator)".to_owned(),
        )
    );
    println!(
        "\n{:>8} {:>12} {:>14} {:>12}",
        "calls", "state", "total bytes", "bytes/call"
    );
    let mut last = 0usize;
    for n in [1usize, 10, 100, 1_000, 5_000] {
        for (state, established) in [("half-open", false), ("established", true)] {
            let vids = monitor_with_calls(n, established);
            let bytes = vids.memory_bytes();
            println!("{:>8} {:>12} {:>14} {:>12}", n, state, bytes, bytes / n);
            assert_eq!(vids.monitored_calls(), n);
            last = bytes;
        }
    }
    println!(
        "\n5000 established calls ≈ {:.1} MiB — thousands of calls fit easily (§7.3).",
        last as f64 / (1024.0 * 1024.0)
    );
}

fn main() {
    print_figure();
}
