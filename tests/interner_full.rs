//! A full symbol table is a counted shed, not a panic.
//!
//! The interner holds 4 194 304 symbols and never frees one, so a monitor
//! that runs long enough under unique-Call-ID floods fills it. What must
//! happen then is the last stage of the shed order: new-call admission
//! stops — a message carrying a string the table has never seen is flagged
//! `malformed` and counted — while every call whose strings are already
//! interned keeps being monitored.
//!
//! A test binary of its own (the table is process-global and this fills
//! it), and `#[ignore]`d because it interns 4.19 M strings:
//! `scripts/check.sh` runs it in release with `-- --ignored`.

use std::fmt::Write;

use vids::core::classify::{classify_wire, Classified, WireProto};
use vids::core::config::Config;
use vids::core::engine::Vids;
use vids::core::sink::CollectSink;
use vids::efsm::intern::{self, InternError};
use vids::efsm::Sym;
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::rtp::packet::RtpPacket;

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

    // New-call admission is shed: a Call-ID (or a source address) the table
    // has never seen cannot be named, so the message is malformed.
    let full = |protocol| Classified::Malformed {
        protocol,
        reason: "symbol table full",
    };
    assert_eq!(classify_sip(&invite("full-fresh"), CALLER), full("SIP"));
    assert_eq!(
        classify_sip(&known, Address::new(10, 9, 9, 9, 5060)),
        full("SIP")
    );
    assert_eq!(classify_rtp(Address::new(10, 9, 9, 8, 20_000)), full("RTP"));
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
    let packet = |text: String| Packet {
        src: CALLER,
        dst: CALLEE,
        payload: Payload::Sip(text),
        id: 0,
        sent_at: SimTime::ZERO,
    };
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
    assert!(sink.alerts()[0].detail.contains("symbol table full"));
}
