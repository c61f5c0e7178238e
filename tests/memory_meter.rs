//! The memory meter tells the truth (§7.3's capacity argument rests on it).
//!
//! `Vids::memory_bytes` — what `Gauge::MemoryBytes`, `vids top` and
//! experiment E5 report — is computed from the fact base's own layout: live
//! slots at their `size_of`, whatever a record spilled to the heap, index
//! entries. This test holds that arithmetic against an allocator that
//! tracks live bytes: with 2 000 half-open and 2 000 established calls the
//! two must agree within 15 %. Every string the traffic carries is interned
//! before the baseline is taken (the interner is priced by its own
//! metrics), and the traffic is clean, so what stays allocated afterwards
//! is the fact base. The interner is then priced with the same allocator:
//! a fresh symbol may hold no more than 80 live bytes.
//!
//! A test binary of its own: the allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use vids::core::classify::classify;
use vids::core::config::Config;
use vids::core::engine::Vids;
use vids::core::sink::CollectSink;
use vids::efsm::{intern, Sym};
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::rtp::packet::RtpPacket;
use vids::sdp::{Codec, SessionDescription};
use vids::sip::message::Request;
use vids::sip::{Method, SipUri, StatusCode};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn pkt(src: Address, dst: Address, payload: Payload) -> Packet {
    Packet {
        src,
        dst,
        payload,
        id: 0,
        sent_at: SimTime::ZERO,
    }
}

/// Call `k`: its own address pair out of 50 × 80, its own media ports.
/// Half-open calls stop after the INVITE; established ones are answered,
/// acknowledged and carry one media packet each way.
fn call(k: u32, established: bool) -> Vec<Packet> {
    let (a, b) = ((k % 50) as u8 + 1, (k / 50) as u8 + 1);
    let caller = Address::new(10, 1, a, b, 5060);
    let callee = Address::new(10, 2, a, b, 5060);
    let (caller_ip, callee_ip) = (caller.ip_string(), callee.ip_string());
    let offer = SessionDescription::audio_offer("alice", &caller_ip, 20_000, &[Codec::G729]);
    let inv = Request::invite(
        &SipUri::new("alice", "a.example.com"),
        &SipUri::new("bob", "b.example.com"),
        &format!("meter-{k}"),
    )
    .with_body(vids::sdp::MIME_TYPE, offer.to_string());
    let mut packets = vec![pkt(caller, callee, Payload::Sip(inv.to_string()))];
    if established {
        let answer = SessionDescription::audio_offer("bob", &callee_ip, 30_000, &[Codec::G729]);
        let ok = inv
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids::sdp::MIME_TYPE, answer.to_string());
        let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
        packets.push(pkt(callee, caller, Payload::Sip(ok.to_string())));
        packets.push(pkt(caller, callee, Payload::Sip(ack.to_string())));
        for (src, dst, ssrc) in [
            (caller.with_port(20_000), callee.with_port(30_000), 7),
            (callee.with_port(30_000), caller.with_port(20_000), 9),
        ] {
            let media = RtpPacket::new(18, 100, 800, ssrc).with_payload(vec![0; 10]);
            packets.push(pkt(src, dst, Payload::Rtp(media.to_bytes())));
        }
    }
    packets
}

#[test]
fn memory_bytes_agrees_with_the_allocator() {
    const CALLS: u32 = 4_000;
    let traffic: Vec<Packet> = (0..CALLS).flat_map(|k| call(k, k % 2 == 1)).collect();
    // Intern every string and warm the classifier's address cache.
    traffic.iter().for_each(|packet| drop(classify(packet)));

    // Each destination sees one INVITE, so no flood machine trips.
    let mut vids = Vids::new(Config::default());
    let mut sink = CollectSink::new();
    let empty = vids.memory_bytes();
    let before = LIVE.load(Ordering::SeqCst);
    for (i, packet) in traffic.iter().enumerate() {
        // Inside one sweep window: nothing is evicted or re-filed meanwhile.
        let now = SimTime::from_millis(1 + i as u64 * 90 / traffic.len() as u64);
        vids.process(packet, now, &mut sink);
    }
    let live = (LIVE.load(Ordering::SeqCst) - before) as usize;
    let metered = vids.memory_bytes() - empty;

    assert!(
        sink.alerts().is_empty(),
        "clean traffic: {:?}",
        sink.alerts()
    );
    assert_eq!(vids.monitored_calls(), CALLS as usize);
    assert_eq!(vids.counters().unassociated_rtp, 0);
    eprintln!(
        "{CALLS} calls: meter {metered} B ({} B/call), allocator {live} B ({} B/call)",
        metered / CALLS as usize,
        live / CALLS as usize
    );
    let ratio = metered as f64 / live as f64;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "memory_bytes() reads {metered} B where the allocator holds {live} B (ratio {ratio:.3})"
    );

    // What the meter leaves out — the interner — has a price of its own: a
    // symbol is its text on a slab, a 16-byte slot in the name table and a
    // 4-byte index entry, with no heap object per string.
    const FRESH: usize = 50_000;
    let fresh: Vec<String> = (0..FRESH)
        .map(|i| format!("meter-new-{i:08}@host.example.com"))
        .collect();
    assert!(fresh.iter().all(|s| s.len() == 35));
    let symbols = intern::stats();
    let before = LIVE.load(Ordering::SeqCst);
    for text in &fresh {
        Sym::intern(text);
    }
    let live = (LIVE.load(Ordering::SeqCst) - before) as usize;
    let grown = intern::stats();
    assert_eq!(grown.symbols - symbols.symbols, FRESH);
    assert_eq!(grown.text_bytes - symbols.text_bytes, FRESH * 35);
    eprintln!(
        "{FRESH} fresh 35-byte symbols: {} live B each",
        live / FRESH
    );
    assert!(
        live <= FRESH * 80,
        "{FRESH} symbols of 35 bytes hold {live} B"
    );
}
