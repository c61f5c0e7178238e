//! A full symbol table is a counted shed, not a panic.
//!
//! The interner holds 4 194 304 symbols and never frees one, so a monitor
//! that runs long enough under unique-Call-ID floods fills it. What must
//! happen then is the last stage of the shed order: new-call admission
//! stops — a message whose Call-ID (or, for a REGISTER, address-of-record)
//! the table has never seen is flagged `malformed` and counted — while
//! every call the monitor already tracks keeps being monitored. A tracked
//! call's Call-ID is already interned, and its tags and Via branches are
//! keyed fingerprints that take no table space, so its later requests —
//! a BYE with a branch nobody has seen before, or a forged one with a
//! foreign To tag — still reach it and are judged there. Addresses are
//! values, not symbols, so a source the monitor has never seen is still
//! classified and checked against the calls it knows.
//!
//! A test binary of its own (the table is process-global and this fills
//! it), and `#[ignore]`d because it interns 4.19 M strings:
//! `scripts/check.sh` runs it in release with `-- --ignored`.

use std::fmt::Write;

use vids::core::alert::labels;
use vids::core::classify::{classify_wire, Classified, WireProto};
use vids::core::config::Config;
use vids::core::engine::Vids;
use vids::core::sink::CollectSink;
use vids::efsm::intern::{self, InternError};
use vids::efsm::Sym;
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::rtp::packet::RtpPacket;
use vids::sdp::{Codec, SessionDescription};
use vids::sip::message::Request;
use vids::sip::{Method, SipUri, StatusCode};
use vids_harness::traffic::pkt;

const CALLER: Address = Address::new(10, 1, 0, 10, 5060);
const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

fn invite(call_id: &str) -> String {
    format!(
        "INVITE sip:bob@b.example.com SIP/2.0\r\n\
         Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK-{call_id}\r\n\
         From: <sip:alice@a.example.com>;tag=tag-{call_id}\r\n\
         To: <sip:bob@b.example.com>\r\n\
         Call-ID: {call_id}\r\n\
         CSeq: 1 INVITE\r\n\
         Content-Length: 0\r\n\r\n"
    )
}

/// A BYE from the caller of [`established_call`]`(call_id)`: its From tag,
/// the given To tag, and a Via branch no earlier message carried.
fn bye(call_id: &str, to_tag: &str) -> String {
    format!(
        "BYE sip:bob@b.example.com SIP/2.0\r\n\
         Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK-after-full-{call_id}\r\n\
         From: <sip:alice@a.example.com>;tag=tag-alice\r\n\
         To: <sip:bob@b.example.com>;tag={to_tag}\r\n\
         Call-ID: {call_id}\r\n\
         CSeq: 2 BYE\r\n\
         Content-Length: 0\r\n\r\n"
    )
}

/// An established call with SDP on both sides: the caller's media at
/// `10.1.0.10:20000`, the callee's at `10.2.0.10:30000`.
fn established_call(call_id: &str) -> Vec<Packet> {
    let sip = |src, dst, text: String| pkt(src, dst, Payload::Sip(text), 0).0;
    let offer = SessionDescription::audio_offer("alice", "10.1.0.10", 20_000, &[Codec::G729]);
    let inv = Request::invite(
        &SipUri::new("alice", "a.example.com"),
        &SipUri::new("bob", "b.example.com"),
        call_id,
    )
    .with_body(vids::sdp::MIME_TYPE, offer.to_string());
    let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
    let ok = inv
        .response(StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, answer.to_string());
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    vec![
        sip(CALLER, CALLEE, inv.to_string()),
        sip(CALLEE, CALLER, ok.to_string()),
        sip(CALLER, CALLEE, ack.to_string()),
    ]
}

#[test]
#[ignore = "interns 4.19 M strings; scripts/check.sh runs it in release"]
fn a_full_symbol_table_sheds_new_calls_and_keeps_known_ones() {
    let classify_sip =
        |text: &str, src: Address| classify_wire(WireProto::Sip, text.as_bytes(), src, CALLEE);
    let rtp = RtpPacket::new(18, 1, 160, 7)
        .with_payload(vec![0; 10])
        .to_bytes();
    let classify_rtp =
        |src: Address| classify_wire(WireProto::Rtp, &rtp, src, CALLEE.with_port(30_000));

    // Before the table fills: a running engine (its machines' names are
    // program-chosen symbols), one call and one media stream it knows.
    let mut vids = Vids::new(Config::default());
    let mut sink = CollectSink::new();
    let known = invite("full-known");
    assert!(matches!(
        classify_sip(&known, CALLER),
        Classified::Sip { .. }
    ));
    assert!(matches!(
        classify_rtp(CALLER.with_port(20_000)),
        Classified::Rtp { .. }
    ));
    let early = Sym::intern("full-early-symbol");
    // A second engine monitors an established call with negotiated media.
    let mut media = Vids::new(Config::default());
    let mut media_sink = CollectSink::new();
    for (t, packet) in established_call("full-media").iter().enumerate() {
        media.process(packet, SimTime::from_millis(t as u64), &mut media_sink);
    }
    assert!(media_sink.alerts().is_empty(), "{:?}", media_sink.alerts());

    // A third engine tracks two established calls whose in-dialog requests
    // arrive only once the table is full.
    let mut dialogs = Vids::new(Config::default());
    let mut dialogs_sink = CollectSink::new();
    for call_id in ["full-dialog-bye", "full-dialog-forged"] {
        for (t, packet) in established_call(call_id).iter().enumerate() {
            dialogs.process(packet, SimTime::from_millis(t as u64), &mut dialogs_sink);
        }
    }
    assert_eq!(dialogs.monitored_calls(), 2);
    assert!(
        dialogs_sink.alerts().is_empty(),
        "{:?}",
        dialogs_sink.alerts()
    );

    // Fill it.
    let mut text = String::new();
    let mut i = 0u32;
    let refused = loop {
        text.clear();
        write!(text, "fill-{i:x}").expect("writing to a String");
        match Sym::try_intern(&text) {
            Ok(_) => i += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(refused, InternError::Full);
    let stats = intern::stats();
    assert_eq!(stats.symbols, stats.capacity);
    assert_eq!(stats.capacity, 4_194_304);
    assert_eq!(Sym::lookup(&text), None, "the refused string left nothing");

    // Symbols interned earlier still resolve, by text and by id, and
    // interning one of them again is a hit, not an error.
    assert_eq!(Sym::lookup("full-early-symbol"), Some(early));
    assert_eq!(early.as_str(), "full-early-symbol");
    assert_eq!(Sym::try_intern("fill-0").map(Sym::as_str), Ok("fill-0"));
    let last = format!("fill-{:x}", i - 1);
    assert_eq!(Sym::lookup(&last).map(Sym::as_str), Some(&*last));

    // New-call admission is shed: a Call-ID the table has never seen cannot
    // be named, so the message is malformed.
    assert_eq!(
        classify_sip(&invite("full-fresh"), CALLER),
        Classified::Malformed {
            protocol: "SIP",
            reason: "symbol table full",
        }
    );
    // A source address is a value: a never-seen one needs no symbol.
    assert!(matches!(
        classify_sip(&known, Address::new(10, 9, 9, 9, 5060)),
        Classified::Sip { .. }
    ));
    assert!(matches!(
        classify_rtp(Address::new(10, 9, 9, 8, 20_000)),
        Classified::Rtp { .. }
    ));
    // What the monitor already tracks keeps being classified.

    assert!(matches!(
        classify_sip(&known, CALLER),
        Classified::Sip { .. }
    ));
    assert!(matches!(
        classify_rtp(CALLER.with_port(20_000)),
        Classified::Rtp { .. }
    ));

    // Through the engine: the known call is set up, the fresh one is one
    // deduplicated `malformed-sip` alert, counted, never tracked.
    let packet = |text: String| pkt(CALLER, CALLEE, Payload::Sip(text), 0).0;
    vids.process(&packet(known), SimTime::from_millis(1), &mut sink);
    assert_eq!(vids.monitored_calls(), 1);
    assert!(sink.alerts().is_empty(), "{:?}", sink.alerts());
    for k in 0..3 {
        let fresh = packet(invite(&format!("full-fresh-{k}")));
        vids.process(&fresh, SimTime::from_millis(2 + k), &mut sink);
    }
    assert_eq!(vids.monitored_calls(), 1);
    assert_eq!(vids.counters().malformed, 3);
    assert_eq!(sink.alerts().len(), 1, "{:?}", sink.alerts());
    assert_eq!(sink.alerts()[0].label, "malformed-sip");
    assert!(sink.alerts()[0]
        .detail
        .to_string()
        .contains("symbol table full"));

    // In-dialog requests of tracked calls, each with a Via branch (and the
    // forged one with a To tag) the table has never seen: a genuine BYE
    // reaches its call and begins the teardown, and a BYE with a foreign To
    // tag is the spoofed BYE it is.
    let genuine = bye("full-dialog-bye", "tt");
    assert!(
        matches!(classify_sip(&genuine, CALLER), Classified::Sip { .. }),
        "{:?}",
        classify_sip(&genuine, CALLER)
    );
    dialogs.process(
        &packet(genuine),
        SimTime::from_millis(20),
        &mut dialogs_sink,
    );
    assert!(
        dialogs_sink.alerts().is_empty(),
        "{:?}",
        dialogs_sink.alerts()
    );
    assert_eq!(dialogs.counters().malformed, 0);
    let snapshot = dialogs
        .call_snapshot("full-dialog-bye")
        .expect("the call is still tracked");
    assert_eq!(snapshot.machines[0].name, "sip");
    assert_eq!(snapshot.machines[0].state, "CALL_TEARDOWN");
    let forged = bye("full-dialog-forged", "forged-to-tag");
    dialogs.process(&packet(forged), SimTime::from_millis(21), &mut dialogs_sink);
    assert_eq!(dialogs.counters().malformed, 0);
    let raised: Vec<_> = dialogs_sink.alerts().iter().map(|a| &*a.label).collect();
    assert_eq!(raised, [labels::SPOOFED_BYE]);
    assert_eq!(
        dialogs_sink.alerts()[0].call_id.as_deref(),
        Some("full-dialog-forged")
    );
    for text in [
        "z9hG4bK-after-full-full-dialog-bye",
        "z9hG4bK-after-full-full-dialog-forged",
        "forged-to-tag",
    ] {
        assert_eq!(Sym::lookup(text), None, "{text} took no table space");
    }

    // Media from a source nobody has seen, sent to the established call's
    // negotiated coordinates: checked against the call, not shed.
    let foreign = RtpPacket::new(18, 1, 160, 66).with_payload(vec![0; 10]);
    let (src, dst) = (Address::new(10, 9, 9, 7, 20_000), CALLEE.with_port(30_000));
    let foreign = pkt(src, dst, Payload::Rtp(foreign.to_bytes()), 0).0;
    media.process(&foreign, SimTime::from_millis(10), &mut media_sink);
    assert_eq!(media.counters().malformed, 0);
    let raised: Vec<_> = media_sink.alerts().iter().map(|a| &*a.label).collect();
    assert_eq!(raised, [labels::RTP_FOREIGN_SOURCE]);
    assert_eq!(
        media_sink.alerts()[0].call_id.as_deref(),
        Some("full-media")
    );
}
