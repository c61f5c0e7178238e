#![allow(clippy::field_reassign_with_default)]

//! E8 — ablation: the value of the cross-protocol δ synchronization.
//!
//! The paper's central claim is that *interaction between protocol state
//! machines* catches attacks a single-protocol monitor cannot. This
//! ablation runs the BYE-DoS signature with the δ channels enabled and
//! disabled: without synchronization the RTP machine never learns about
//! the BYE, never arms timer T, and the attack sails through.

use vids::core::alert::labels;
use vids::core::{CollectSink, Config, CostModel, NullSink, Vids};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::rtp::packet::RtpPacket;
use vids_bench::{header, row};

/// Replays a call + BYE + post-BYE media; returns whether the RTP-after-BYE
/// attack was detected.
fn bye_dos_detected(cross_protocol_sync: bool) -> bool {
    let mut cfg = Config::default();
    cfg.cross_protocol_sync = cross_protocol_sync;
    let mut vids = Vids::with_cost(cfg, CostModel::free());

    let sdp = vids::sdp::SessionDescription::audio_offer(
        "alice",
        "10.1.0.10",
        20_000,
        &[vids::sdp::Codec::G729],
    );
    let inv = vids::sip::Request::invite(
        &vids::sip::SipUri::new("alice", "a.example.com"),
        &vids::sip::SipUri::new("bob", "b.example.com"),
        "ablate",
    )
    .with_body(vids::sdp::MIME_TYPE, sdp.to_string());
    let a2b = |payload: Payload, sp: u16, dp: u16| Packet {
        src: Address::new(10, 1, 0, 10, sp),
        dst: Address::new(10, 2, 0, 10, dp),
        payload,
        id: 0,
        sent_at: SimTime::ZERO,
    };
    vids.process(
        &a2b(Payload::Sip(inv.to_string()), 5060, 5060),
        SimTime::ZERO,
        &mut NullSink,
    );
    let answer = vids::sdp::SessionDescription::audio_offer(
        "bob",
        "10.2.0.10",
        30_000,
        &[vids::sdp::Codec::G729],
    );
    let ok = inv
        .response(vids::sip::StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, answer.to_string());
    let b2a = Packet {
        src: Address::new(10, 2, 0, 10, 5060),
        dst: Address::new(10, 1, 0, 10, 5060),
        payload: Payload::Sip(ok.to_string()),
        id: 0,
        sent_at: SimTime::ZERO,
    };
    vids.process(&b2a, SimTime::from_millis(50), &mut NullSink);

    // Media, BYE at 500 ms, media continues (the attack).
    let mut detected = false;
    let mut seq = 1u16;
    for t in (100..2_000u64).step_by(10) {
        if t == 500 {
            let bye = vids::sip::Request::in_dialog(vids::sip::Method::Bye, &inv, 2, Some("tt"));
            vids.process(
                &a2b(Payload::Sip(bye.to_string()), 5060, 5060),
                SimTime::from_millis(t),
                &mut NullSink,
            );
        }
        let rtp = RtpPacket::new(18, seq, seq as u32 * 80, 7).with_payload(vec![0; 10]);
        seq = seq.wrapping_add(1);
        let mut alerts = CollectSink::new();
        vids.process(
            &a2b(Payload::Rtp(rtp.to_bytes()), 20_000, 30_000),
            SimTime::from_millis(t),
            &mut alerts,
        );
        if alerts
            .alerts()
            .iter()
            .any(|a| a.label == labels::RTP_AFTER_BYE)
        {
            detected = true;
        }
    }
    detected
}

fn print_figure() {
    let with_sync = bye_dos_detected(true);
    let without_sync = bye_dos_detected(false);
    println!(
        "{}",
        header("E8: ablation — cross-protocol synchronization")
    );
    println!(
        "{}",
        row(
            "BYE DoS detected, δ channels ON",
            "detected",
            if with_sync { "detected" } else { "MISSED" }.to_owned()
        )
    );
    println!(
        "{}",
        row(
            "BYE DoS detected, δ channels OFF",
            "(undetectable)",
            if without_sync { "detected?!" } else { "missed" }.to_owned()
        )
    );
    println!(
        "\nThe single-protocol ablation misses the attack: the RTP machine never\n\
         hears about the BYE, so \"RTP after BYE\" is not expressible — this is\n\
         the paper's core argument for communicating protocol state machines."
    );
    assert!(with_sync && !without_sync, "ablation invariant violated");
}

fn main() {
    print_figure();
}
