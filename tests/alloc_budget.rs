//! Allocation budget gate for the steady-state event hot path.
//!
//! A counting global allocator measures exactly what one warm packet costs
//! after symbol interning: the Call-ID the packet carries was interned
//! when the call was set up, its tags and branch are fingerprints and its
//! addresses values, neither of which is interned, so classify → EFSM →
//! fact base runs on `Sym` handles, positional argument and variable
//! vectors, and pre-sized buffers. The documented budget (see DESIGN.md, "Hot path & memory
//! model"):
//!
//! * a warm in-dialog SIP packet costs at most 4 allocations,
//! * a warm in-profile RTP packet costs 0 allocations,
//! * a warm `VidsPool` batch costs 0 allocations: every synchronous batch
//!   ingests its routed parts in place and reuses the pool's merge
//!   buffers across batches, so steady-state ingest never touches the
//!   allocator,
//! * an already-seen malformed datagram costs 0 allocations: the key-0
//!   engine's alert dedup asks before it formats anything,
//! * with the packet's own strings interned beforehand (the interner is
//!   the classifier's cost, priced elsewhere) the engine makes 0
//!   allocations to set a call up, to carry it through
//!   180/200/ACK/media/BYE/200 — δ cascade and timer arms included — to
//!   take a fresh INVITE to a destination already flagged as flooded, and
//!   to see unassociated RTP to coordinates it already reported: a call
//!   record is one slab slot that owns no heap block, and the dedup set is
//!   asked before any alert text is built,
//! * the classifier makes no allocation per string it has never seen —
//!   1 000 INVITEs carrying 3 000 fresh strings (1 000 Call-IDs, interned,
//!   and 2 000 tags and branches, fingerprinted) cost the interner's table
//!   growth, at most three allocations — and none to refuse an over-long
//!   one,
//! * a source address the monitor has never seen costs nothing at all:
//!   10 000 RTP datagrams from 10 000 spoofed sources make no allocation
//!   and intern no symbol,
//! * a first-sight alert — a forged BYE on an established call, through a
//!   1-shard pool, from the classifier to the sink — costs 1 allocation,
//!   its Call-ID: the detail is a value that shares it, and no engine or
//!   pool keeps a copy. 1 000 of them, through a plain engine and through
//!   1- and 4-shard pools, cost one block each plus the dedup sets'
//!   growth; 50 flooded destinations cost the dedup set's growth and
//!   nothing per alert; cloning an alert costs none,
//! * steady call churn costs at most one allocation per ten calls
//!   (measured: none): the expiry wheel is a fixed ring that recycles its
//!   filings, and the sweep recycles its scratch.
//!
//! Everything lives in a single `#[test]` because the counter is global:
//! the default multi-threaded test runner would otherwise interleave
//! counts from unrelated tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use vids::core::alert::{labels, Alert};
use vids::core::classify::{classify, Classified};
use vids::core::config::Config;
use vids::core::engine::Vids;
use vids::core::pool::VidsPool;
use vids::core::sink::CollectSink;
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::rtp::packet::RtpPacket;
use vids::sdp::{Codec, SessionDescription};
use vids::sip::message::Request;
use vids::sip::{Method, SipUri, StatusCode};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed; returns how many allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let start = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    drop(r);
    ALLOCS.load(Ordering::SeqCst) - start
}

const CALLER: Address = Address::new(10, 1, 0, 10, 5060);
const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

/// Documented per-packet budget for a warm in-dialog SIP message.
const SIP_BUDGET: u64 = 4;

/// Documented budget for a warm pool batch. A synchronous batch never
/// queues: each routed part is ingested in place on the calling thread, and
/// the tagged-alert and miss buffers are the pool's own, reused across
/// batches — so a steady-state batch allocates nothing.
const POOL_BATCH_BUDGET: u64 = 0;

fn pkt(src: Address, dst: Address, payload: Payload) -> Packet {
    Packet {
        src,
        dst,
        payload,
        id: 0,
        sent_at: SimTime::ZERO,
    }
}

fn invite(call_id: &str) -> Request {
    invite_offering(call_id, 20_000)
}

fn invite_offering(call_id: &str, media_port: u16) -> Request {
    let sdp = SessionDescription::audio_offer("alice", "10.1.0.10", media_port, &[Codec::G729]);
    Request::invite(
        &SipUri::new("alice", "a.example.com"),
        &SipUri::new("bob", "b.example.com"),
        call_id,
    )
    .with_body(vids::sdp::MIME_TYPE, sdp.to_string())
}

fn rtp_fwd(seq: u16, ts: u32) -> Packet {
    let media = RtpPacket::new(18, seq, ts, 7).with_payload(vec![0; 10]);
    pkt(
        CALLER.with_port(20_000),
        CALLEE.with_port(30_000),
        Payload::Rtp(media.to_bytes()),
    )
}

/// INVITE / 200-with-SDP / ACK plus first media, all inside one sweep
/// window so no timer machinery runs during the measured packets.
fn establish(call_id: &str) -> Vec<(Packet, u64)> {
    let inv = invite(call_id);
    let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
    let ok = inv
        .response(StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, answer.to_string());
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    let mut trace = vec![
        (pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())), 0),
        (pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())), 5),
        (pkt(CALLER, CALLEE, Payload::Sip(ack.to_string())), 10),
    ];
    for i in 0..4u16 {
        trace.push((rtp_fwd(100 + i, 800 + i as u32 * 80), 15 + i as u64));
    }
    trace
}

/// A steady-state in-dialog SIP packet: a retransmitted 180 for the
/// established call. All of its strings are interned by the time it is
/// measured; it changes no media state and arms no timer.
fn stale_ringing(call_id: &str) -> Packet {
    let ringing = invite(call_id)
        .response(StatusCode::RINGING)
        .with_to_tag("tt");
    pkt(CALLEE, CALLER, Payload::Sip(ringing.to_string()))
}

/// One whole call, every packet inside the first sweep window: INVITE+SDP,
/// 180, 200+SDP, ACK, first media, BYE, 200. Call `k` offers and answers on
/// its own media ports, so every call adds its own media-index entries.
fn call_life(call_id: &str, k: u16, t0: u64) -> Vec<(Packet, u64)> {
    let (caller_port, callee_port) = (21_000 + 2 * k, 31_000 + 2 * k);
    let inv = invite_offering(call_id, caller_port);
    let ringing = inv.response(StatusCode::RINGING).with_to_tag("tt");
    let answer = SessionDescription::audio_offer("bob", "10.2.0.10", callee_port, &[Codec::G729]);
    let ok = inv
        .response(StatusCode::OK)
        .with_to_tag("tt")
        .with_body(vids::sdp::MIME_TYPE, answer.to_string());
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    let media = RtpPacket::new(18, 100, 800, 7).with_payload(vec![0; 10]);
    let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
    let bye_ok = bye.response(StatusCode::OK);
    let sip = |src, dst, text: String| pkt(src, dst, Payload::Sip(text));
    vec![
        (sip(CALLER, CALLEE, inv.to_string()), t0),
        (sip(CALLEE, CALLER, ringing.to_string()), t0 + 1),
        (sip(CALLEE, CALLER, ok.to_string()), t0 + 2),
        (sip(CALLER, CALLEE, ack.to_string()), t0 + 3),
        (
            pkt(
                CALLER.with_port(caller_port),
                CALLEE.with_port(callee_port),
                Payload::Rtp(media.to_bytes()),
            ),
            t0 + 4,
        ),
        (sip(CALLER, CALLEE, bye.to_string()), t0 + 5),
        (sip(CALLEE, CALLER, bye_ok.to_string()), t0 + 6),
    ]
}

/// A short call's signalling, one millisecond apart: INVITE+SDP, 200+SDP,
/// ACK, BYE, 200.
fn short_call(call_id: &str, k: u16, t0: u64) -> Vec<(Packet, u64)> {
    let mut life = call_life(call_id, k, t0);
    // Drop the 180 and the media packet (indices 1 and 4 of `call_life`).
    life.remove(4);
    life.remove(1);
    life
}

/// A BYE for `call_id`'s dialog carrying a To tag the dialog never had:
/// the spoofed-BYE signature.
fn forged_bye(call_id: &str) -> Packet {
    let bye = Request::in_dialog(Method::Bye, &invite(call_id), 2, Some("forged"));
    pkt(CALLER, CALLEE, Payload::Sip(bye.to_string()))
}

/// Interns every identifier `packet` carries (its Call-ID), so a
/// measurement that follows counts the engine alone.
fn intern_strings_of(packet: &Packet) {
    let _ = classify(packet);
}

#[test]
fn warm_packets_meet_the_allocation_budget() {
    // ---- plain Vids -----------------------------------------------------
    let mut vids = Vids::new(Config::default());
    let mut sink = CollectSink::new();
    for (packet, t) in establish("budget-1") {
        vids.process(&packet, SimTime::from_millis(t), &mut sink);
    }
    // Warm every lazily-touched path once before measuring.
    vids.process(
        &stale_ringing("budget-1"),
        SimTime::from_millis(30),
        &mut sink,
    );
    vids.process(&rtp_fwd(104, 1_120), SimTime::from_millis(31), &mut sink);

    let sip = stale_ringing("budget-1");
    let n = count_allocs(|| vids.process(&sip, SimTime::from_millis(40), &mut sink));
    eprintln!("warm SIP packet: {n} allocations");
    assert!(
        n <= SIP_BUDGET,
        "warm in-dialog SIP packet made {n} allocations (budget {SIP_BUDGET})"
    );

    let rtp = rtp_fwd(105, 1_200);
    let n = count_allocs(|| vids.process(&rtp, SimTime::from_millis(41), &mut sink));
    eprintln!("warm RTP packet: {n} allocations");
    assert_eq!(n, 0, "warm RTP packet must not allocate, made {n}");
    assert!(
        sink.alerts().is_empty(),
        "budget traffic must be clean: {:?}",
        sink.alerts()
    );

    // ---- VidsPool: the marginal batched packet is allocation-free -------
    let config = Config::builder().shards(4).build().unwrap();
    let mut pool = VidsPool::new(config);
    let mut sink = CollectSink::new();
    for (packet, t) in establish("budget-pool") {
        pool.process_batch(
            std::slice::from_ref(&packet),
            SimTime::from_millis(t),
            &mut sink,
        );
    }
    // Warm batches of both sizes: the per-batch queue/classify buffers are
    // pre-sized, so batch size must not change the allocation count.
    let small: Vec<Packet> = (0..8u16)
        .map(|i| rtp_fwd(110 + i, 2_000 + i as u32 * 80))
        .collect();
    let large: Vec<Packet> = (0..32u16)
        .map(|i| rtp_fwd(120 + i, 3_000 + i as u32 * 80))
        .collect();
    pool.process_batch(&small, SimTime::from_millis(50), &mut sink);
    pool.process_batch(&large, SimTime::from_millis(55), &mut sink);

    let small2: Vec<Packet> = (0..8u16)
        .map(|i| rtp_fwd(160 + i, 6_000 + i as u32 * 80))
        .collect();
    let large2: Vec<Packet> = (0..32u16)
        .map(|i| rtp_fwd(170 + i, 7_000 + i as u32 * 80))
        .collect();
    let n_small = count_allocs(|| pool.process_batch(&small2, SimTime::from_millis(60), &mut sink));
    let n_large = count_allocs(|| pool.process_batch(&large2, SimTime::from_millis(65), &mut sink));
    eprintln!("pool batches: 8 packets -> {n_small}, 32 packets -> {n_large} allocations");
    assert_eq!(
        n_small, n_large,
        "pool batch allocations must be constant in batch size \
         (8 packets: {n_small}, 32 packets: {n_large})"
    );
    assert_eq!(
        n_small, POOL_BATCH_BUDGET,
        "warm pool batch made {n_small} allocations (budget {POOL_BATCH_BUDGET})"
    );
    assert!(
        sink.alerts().is_empty(),
        "budget traffic must be clean: {:?}",
        sink.alerts()
    );

    // ---- the same budgets with telemetry recording enabled --------------
    // The record path is relaxed atomics on preallocated slabs and an
    // in-place ring overwrite; it must not move the budget at all.
    let mut vids = Vids::new(Config::default());
    let _registry = vids.enable_telemetry(64);
    let mut sink = CollectSink::new();
    for (packet, t) in establish("budget-tel") {
        vids.process(&packet, SimTime::from_millis(t), &mut sink);
    }
    vids.process(
        &stale_ringing("budget-tel"),
        SimTime::from_millis(30),
        &mut sink,
    );
    vids.process(&rtp_fwd(104, 1_120), SimTime::from_millis(31), &mut sink);

    let sip = stale_ringing("budget-tel");
    let n = count_allocs(|| vids.process(&sip, SimTime::from_millis(40), &mut sink));
    eprintln!("warm SIP packet with telemetry: {n} allocations");
    assert!(
        n <= SIP_BUDGET,
        "telemetry record path broke the SIP budget: {n} allocations (budget {SIP_BUDGET})"
    );

    let rtp = rtp_fwd(105, 1_200);
    let n = count_allocs(|| vids.process(&rtp, SimTime::from_millis(41), &mut sink));
    eprintln!("warm RTP packet with telemetry: {n} allocations");
    assert_eq!(
        n, 0,
        "telemetry record path must not allocate on RTP, made {n}"
    );

    let config = Config::builder().shards(4).build().unwrap();
    let mut pool = VidsPool::new(config);
    pool.enable_telemetry(64);
    let mut sink = CollectSink::new();
    for (packet, t) in establish("budget-pool-tel") {
        pool.process_batch(
            std::slice::from_ref(&packet),
            SimTime::from_millis(t),
            &mut sink,
        );
    }
    let small: Vec<Packet> = (0..8u16)
        .map(|i| rtp_fwd(110 + i, 2_000 + i as u32 * 80))
        .collect();
    let large: Vec<Packet> = (0..32u16)
        .map(|i| rtp_fwd(120 + i, 3_000 + i as u32 * 80))
        .collect();
    pool.process_batch(&small, SimTime::from_millis(50), &mut sink);
    pool.process_batch(&large, SimTime::from_millis(55), &mut sink);

    let small2: Vec<Packet> = (0..8u16)
        .map(|i| rtp_fwd(160 + i, 6_000 + i as u32 * 80))
        .collect();
    let large2: Vec<Packet> = (0..32u16)
        .map(|i| rtp_fwd(170 + i, 7_000 + i as u32 * 80))
        .collect();
    let n_small = count_allocs(|| pool.process_batch(&small2, SimTime::from_millis(60), &mut sink));
    let n_large = count_allocs(|| pool.process_batch(&large2, SimTime::from_millis(65), &mut sink));
    eprintln!(
        "pool batches with telemetry: 8 packets -> {n_small}, 32 packets -> {n_large} allocations"
    );
    assert_eq!(
        n_small, n_large,
        "telemetry made pool batch allocations batch-size-dependent \
         (8 packets: {n_small}, 32 packets: {n_large})"
    );
    assert_eq!(
        n_small, POOL_BATCH_BUDGET,
        "telemetry record path broke the pool batch budget: \
         {n_small} allocations (budget {POOL_BATCH_BUDGET})"
    );
    assert!(
        sink.alerts().is_empty(),
        "budget traffic must be clean: {:?}",
        sink.alerts()
    );

    // ---- receiver route path: classify + shard-hash off the wire --------
    // The parallel ingest receivers run demux → classify → route-hint per
    // datagram and push into a pre-sized batch. Once the datagram's
    // symbols are interned, that whole path must not touch the allocator:
    // it runs on every packet on every receiver thread.
    {
        use vids::core::pool::PreRouted;
        use vids::ingest::demux::classify_datagram;
        use vids::ingest::Datagram;

        let rtp_bytes = RtpPacket::new(18, 300, 9_000, 7)
            .with_payload(vec![0; 10])
            .to_bytes();
        let rtp_dg = Datagram {
            src: "10.1.0.10:20000".parse().unwrap(),
            dst: "10.2.0.10:30000".parse().unwrap(),
            at: SimTime::from_millis(70),
            payload: &rtp_bytes,
        };
        let sip_text = stale_ringing("budget-1").payload;
        let sip_text = match &sip_text {
            Payload::Sip(text) => text.clone(),
            _ => unreachable!(),
        };
        let sip_dg = Datagram {
            src: "10.2.0.10:5060".parse().unwrap(),
            dst: "10.1.0.10:5060".parse().unwrap(),
            at: SimTime::from_millis(70),
            payload: sip_text.as_bytes(),
        };

        let mut batch: Vec<PreRouted> = Vec::with_capacity(16);
        // Warm: intern every symbol the datagrams carry.
        for d in [&rtp_dg, &sip_dg] {
            let (_, classified) = classify_datagram(d);
            batch.push(PreRouted::new(classified, d.at));
        }
        batch.clear();

        let n = count_allocs(|| {
            let (_, classified) = classify_datagram(&rtp_dg);
            batch.push(PreRouted::new(classified, rtp_dg.at));
        });
        eprintln!("warm RTP receiver route path: {n} allocations");
        assert_eq!(n, 0, "warm RTP classify+route made {n} allocations");

        let n = count_allocs(|| {
            let (_, classified) = classify_datagram(&sip_dg);
            batch.push(PreRouted::new(classified, sip_dg.at));
        });
        eprintln!("warm SIP receiver route path: {n} allocations");
        assert_eq!(n, 0, "warm SIP classify+route made {n} allocations");
    }

    // ---- strings the monitor has never seen: the classifier alone --------
    // A new Call-ID is copied onto the interner's current text slab and
    // indexed by id; a new tag or branch is fingerprinted and stored
    // nowhere. So what 1 000 INVITEs from 1 000 sources carrying 3 000 fresh
    // strings cost is table growth alone — a 64 KiB text slab and the
    // doublings of the interner's index for 1 000 new symbols — where one
    // `Box<str>` per string used to make it ≥ 3 000.
    // The 1 000 source and SDP addresses are values and cost nothing. A
    // Call-ID past the symbol bound costs nothing and leaves no symbol.
    {
        use vids::core::classify::{classify_wire, WireProto};
        use vids::efsm::intern;

        let fresh: Vec<(Address, String)> = (0..1_000u32)
            .map(|k| {
                let src = Address::new(10, 7, (k >> 8) as u8, k as u8, 5060);
                let ip = src.ip_string();
                let body = format!(
                    "v=0\r\no=alice 1 1 IN IP4 {ip}\r\ns=-\r\nc=IN IP4 {ip}\r\n\
                     t=0 0\r\nm=audio 20000 RTP/AVP 18\r\n"
                );
                let text = format!(
                    "INVITE sip:bob@b.example.com SIP/2.0\r\n\
                     Via: SIP/2.0/UDP {ip}:5060;branch=z9hG4bK-fresh-{k}\r\n\
                     From: <sip:alice@a.example.com>;tag=fresh-tag-{k}\r\n\
                     To: <sip:bob@b.example.com>\r\n\
                     Call-ID: fresh-call-{k}@{ip}\r\n\
                     CSeq: 1 INVITE\r\n\
                     Content-Type: application/sdp\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                (src, text)
            })
            .collect();
        let before = intern::stats().symbols;
        let n = count_allocs(|| {
            for (src, text) in &fresh {
                let classified = classify_wire(WireProto::Sip, text.as_bytes(), *src, CALLEE);
                assert!(matches!(classified, Classified::Sip { .. }));
            }
        });
        eprintln!("1000 INVITE+SDP with 3000 never-seen strings: {n} allocations");
        assert_eq!(
            intern::stats().symbols - before,
            1_000,
            "only the Call-IDs are symbols"
        );
        assert!(n <= 3, "classifying fresh strings made {n} allocations");

        let long = fresh[0].1.replace("fresh-call-0", &"x".repeat(256));
        let before = intern::stats().symbols;
        let n = count_allocs(|| {
            let classified = classify_wire(WireProto::Sip, long.as_bytes(), fresh[0].0, CALLEE);
            assert!(matches!(
                classified,
                Classified::Malformed {
                    protocol: "SIP",
                    ..
                }
            ));
        });
        eprintln!("INVITE with a 265-byte Call-ID: {n} allocations");
        assert_eq!(
            n, 0,
            "refusing an over-long identifier made {n} allocations"
        );
        assert_eq!(intern::stats().symbols, before, "and it left no symbol");

        // A spoofed-source media flood: every datagram from a source never
        // seen before, all to one destination.
        let rtp = RtpPacket::new(18, 1, 160, 7)
            .with_payload(vec![0; 10])
            .to_bytes();
        let sources: Vec<Address> = (0..10_000u32)
            .map(|k| Address::new(10, 66, (k >> 8) as u8, k as u8, 20_000))
            .collect();
        let before = intern::stats().symbols;
        let n = count_allocs(|| {
            for src in &sources {
                let classified = classify_wire(WireProto::Rtp, &rtp, *src, CALLEE);
                assert!(matches!(classified, Classified::Rtp { .. }));
            }
        });
        eprintln!("10000 RTP datagrams from 10000 never-seen sources: {n} allocations");
        assert_eq!(n, 0, "never-seen sources made {n} allocations");
        assert_eq!(intern::stats().symbols, before, "an address is no symbol");
    }

    // ---- repeated malformed datagrams: the cheapest thing to send -------
    // The first sight of a (protocol, reason) pair raises one deviation
    // alert; every repeat must be dropped by the dedup set before any
    // label or detail string is built.
    {
        use vids::core::classify::{classify_wire, WireProto};
        use vids::core::pool::WireEvent;

        let junk = |at: u64| -> Vec<WireEvent> {
            let sip = classify_wire(WireProto::Sip, b"garbage", CALLER, CALLEE);
            let rtp = classify_wire(WireProto::Rtp, &[0u8; 3], CALLER, CALLEE);
            [sip, rtp]
                .into_iter()
                .cycle()
                .take(16)
                .map(|classified| WireEvent {
                    classified,
                    at: SimTime::from_millis(at),
                })
                .collect()
        };
        let config = Config::builder().shards(4).build().unwrap();
        let mut pool = VidsPool::new(config);
        let mut sink = CollectSink::new();
        pool.process_wire_batch(&mut junk(0), SimTime::ZERO, &mut sink);
        assert_eq!(sink.alerts().len(), 2, "one alert per malformed protocol");

        let mut repeat = junk(5);
        let n = count_allocs(|| {
            pool.process_wire_batch(&mut repeat, SimTime::from_millis(5), &mut sink)
        });
        eprintln!("16 already-seen malformed datagrams: {n} allocations");
        assert_eq!(n, 0, "repeated malformed datagrams made {n} allocations");
        assert_eq!(sink.alerts().len(), 2, "repeats raise nothing new");
        assert_eq!(pool.counters().malformed, 32);
    }

    // ---- call set-up and a whole call life: the engine alone -------------
    // A call record is one slab slot; machines, variables, timers and media
    // keys sit inline in it and the δ queue is scratch of the delivery. So
    // once the tables have room — twenty earlier calls leave every hash
    // index (28 entries before it grows) and the wheel's filing slab with
    // room to spare, and the slab chunk holds 64 — nothing below may
    // allocate. The
    // flood threshold is lifted: this is one caller dialling one callee.
    {
        let config = Config::builder()
            .invite_flood_threshold(1_000)
            .build()
            .unwrap();
        let mut vids = Vids::new(config);
        let mut sink = CollectSink::new();
        for k in 0..20u16 {
            let setup = &call_life(&format!("budget-warm-{k}"), k, 0)[0];
            vids.process(&setup.0, SimTime::from_millis(setup.1), &mut sink);
        }
        // The same life a few milliseconds earlier, so the expiry wheel has
        // drained filings free for every one the measured call makes.
        for (packet, t) in call_life("budget-life-a", 20, 10) {
            vids.process(&packet, SimTime::from_millis(t), &mut sink);
        }
        let life = call_life("budget-life-b", 21, 20);
        life.iter()
            .for_each(|(packet, _)| intern_strings_of(packet));
        let mut life = life.iter();

        let (packet, t) = life.next().unwrap();
        let n = count_allocs(|| vids.process(packet, SimTime::from_millis(*t), &mut sink));
        eprintln!("INVITE+SDP creating a call: {n} allocations");
        assert_eq!(n, 0, "creating a call made {n} allocations");
        assert_eq!(vids.monitored_calls(), 22);

        let n = count_allocs(|| {
            for (packet, t) in life {
                vids.process(packet, SimTime::from_millis(*t), &mut sink);
            }
        });
        eprintln!("180/200/ACK/RTP/BYE/200 of that call: {n} allocations");
        assert_eq!(n, 0, "the rest of the call's life made {n} allocations");
        assert_eq!(vids.counters().unassociated_rtp, 0, "media found its call");
        assert!(
            sink.alerts().is_empty(),
            "budget traffic must be clean: {:?}",
            sink.alerts()
        );
    }

    // ---- the flood itself: a fresh INVITE to a flagged destination -------
    // Under the Fig. 4 attack every INVITE re-enters FLOOD_DETECTED. The
    // network reports it each time; the engine asks its dedup set before it
    // builds any text, so what the 25th INVITE costs is its call slot.
    {
        let mut vids = Vids::new(Config::default());
        let mut sink = CollectSink::new();
        for k in 0..24u16 {
            let inv = invite_offering(&format!("budget-flood-{k}"), 22_000 + 2 * k);
            let packet = pkt(CALLER, CALLEE, Payload::Sip(inv.to_string()));
            vids.process(&packet, SimTime::from_millis(1), &mut sink);
        }
        assert_eq!(sink.alerts().len(), 1, "the destination is flagged once");

        let inv = invite_offering("budget-flood-fresh", 22_100);
        let packet = pkt(CALLER, CALLEE, Payload::Sip(inv.to_string()));
        intern_strings_of(&packet);
        let n = count_allocs(|| vids.process(&packet, SimTime::from_millis(2), &mut sink));
        eprintln!("fresh INVITE to a flagged destination: {n} allocations");
        assert_eq!(n, 0, "a flood INVITE past detection made {n} allocations");
        assert_eq!(vids.monitored_calls(), 25);
        assert_eq!(sink.alerts().len(), 1, "repeats raise nothing new");

        // ---- repeated unassociated RTP to the same coordinates ----------
        let stray = |seq: u16| {
            let media = RtpPacket::new(18, seq, 800, 9).with_payload(vec![0; 10]);
            pkt(
                CALLER.with_port(40_000),
                CALLEE.with_port(40_002),
                Payload::Rtp(media.to_bytes()),
            )
        };
        vids.process(&stray(1), SimTime::from_millis(3), &mut sink);
        assert_eq!(sink.alerts().len(), 2, "first stray packet is reported");
        let again = stray(2);
        let n = count_allocs(|| vids.process(&again, SimTime::from_millis(4), &mut sink));
        eprintln!("repeated unassociated RTP: {n} allocations");
        assert_eq!(n, 0, "an already-reported stray made {n} allocations");
        assert_eq!(sink.alerts().len(), 2);
        assert_eq!(vids.counters().unassociated_rtp, 2);
    }

    // ---- a first-sight attack through a pool, and sharing the alert ------
    // The first forged BYE on an established call is new, so it is built:
    // its Call-ID is copied into one exact-size `Arc<str>`, its detail
    // shares that block, and label and machine borrow static text. The
    // pool hands it to the sink and keeps nothing; a clone only counts a
    // reference. An earlier forged BYE on another call warms what a first
    // alert grows once: the dedup set, the merge buffer, the sink.
    {
        let config = Config::builder().shards(1).build().unwrap();
        let mut pool = VidsPool::new(config);
        let mut sink = CollectSink::new();
        let mut feed = |pool: &mut VidsPool, packet: &Packet, t: u64| {
            pool.process_batch(
                std::slice::from_ref(packet),
                SimTime::from_millis(t),
                &mut sink,
            );
        };
        for (packet, t) in establish("budget-bye-warm") {
            feed(&mut pool, &packet, t);
        }
        for (packet, t) in establish("budget-bye") {
            feed(&mut pool, &packet, 20 + t);
        }
        feed(&mut pool, &forged_bye("budget-bye-warm"), 45);
        let bye = forged_bye("budget-bye");
        intern_strings_of(&bye);
        let n = count_allocs(|| feed(&mut pool, &bye, 50));
        eprintln!("first-sight spoofed-bye through a 1-shard pool: {n} allocations");
        assert!(
            n <= 1,
            "a first-sight alert made {n} allocations (budget 1)"
        );
        assert_eq!(
            sink.len(),
            2,
            "one alert per forged BYE: {:?}",
            sink.alerts()
        );
        let alert = &sink.alerts()[1];
        assert_eq!(alert.label, labels::SPOOFED_BYE);
        assert_eq!(alert.call_id.as_deref(), Some("budget-bye"));
        assert_eq!(pool.alerts_merged(), 2, "the pool counts what it sinks");

        let n = count_allocs(|| alert.clone());
        eprintln!("Alert::clone: {n} allocations");
        assert_eq!(n, 0, "cloning an alert made {n} allocations");
    }

    // ---- an alert costs its Call-ID: 1 000 forged BYEs ------------------
    // Every BYE forges the dialog of its own established call, so each is
    // a first sight and raises one spoofed-bye. What it may cost is the
    // alert's one block, its Call-ID, plus the growth of each engine's
    // dedup set, which doubles about log2(alerts) times. The sink is
    // reserved up front, and a forged BYE on one more call warms the
    // pool's merge buffer, so neither is counted.
    for shards in [0usize, 1, 4] {
        const FORGED: usize = 1_000;
        let config = Config::builder()
            .shards(shards.max(1))
            .invite_flood_threshold(1_000_000)
            .build()
            .unwrap();
        let ids: Vec<String> = (0..=FORGED).map(|k| format!("budget-forged-{k}")).collect();
        let mut byes: Vec<Packet> = ids.iter().map(|id| forged_bye(id)).collect();
        byes.iter().for_each(intern_strings_of);
        let warm = byes.pop().unwrap();
        let mut sink: Vec<Alert> = Vec::with_capacity(FORGED + 1);
        let ms = SimTime::from_millis;
        let (n, engines) = if shards == 0 {
            let mut vids = Vids::new(config);
            for id in &ids {
                for (packet, t) in establish(id) {
                    vids.process(&packet, ms(t), &mut sink);
                }
            }
            vids.process(&warm, ms(40), &mut sink);
            let n = count_allocs(|| {
                for bye in &byes {
                    vids.process(bye, ms(50), &mut sink);
                }
            });
            (n, 1)
        } else {
            let mut pool = VidsPool::new(config);
            for id in &ids {
                for (packet, t) in establish(id) {
                    pool.process_batch(std::slice::from_ref(&packet), ms(t), &mut sink);
                }
            }
            pool.process_batch(std::slice::from_ref(&warm), ms(40), &mut sink);
            let n = count_allocs(|| {
                for bye in &byes {
                    pool.process_batch(std::slice::from_ref(bye), ms(50), &mut sink);
                }
            });
            assert_eq!(pool.alerts_merged(), FORGED as u64 + 1);
            (n, shards)
        };
        let what = match shards {
            0 => "a plain engine".to_owned(),
            n => format!("a {n}-shard pool"),
        };
        assert_eq!(sink.len(), FORGED + 1, "{what}: one alert per forged BYE");
        assert!(sink.iter().all(|a| a.label == labels::SPOOFED_BYE));
        let per_engine = FORGED.div_ceil(engines);
        let growth = engines as u64 * (per_engine.ilog2() as u64 + 2);
        eprintln!(
            "{FORGED} first-sight spoofed-byes through {what}: {n} allocations \
             (budget {FORGED} + {growth} dedup growth)"
        );
        assert!(
            n <= FORGED as u64 + growth,
            "{what}: {FORGED} alerts made {n} allocations (budget {FORGED} + {growth})"
        );
    }

    // ---- a flood alert costs nothing: 50 destinations -------------------
    // The 50 destinations' window counters exist and have counted two
    // INVITEs each; the third is more than the threshold of two and
    // raises the destination's invite-flood. A destination alert's
    // detail is its address, so what the 50 alerts cost is the dedup
    // set's growth. The call quota is full, so the INVITEs create no
    // calls: only the flood part runs.
    {
        const DESTINATIONS: u8 = 50;
        let config = Config::builder()
            .invite_flood_threshold(2)
            .max_tracked_calls(1)
            .build()
            .unwrap();
        let mut vids = Vids::new(config);
        let mut sink: Vec<Alert> = Vec::with_capacity(DESTINATIONS as usize);
        let invite_to = |d: u8, k: u8| {
            let inv = invite(&format!("budget-dst-{d}-{k}"));
            let packet = pkt(
                CALLER,
                Address::new(10, 3, 0, d, 5060),
                Payload::Sip(inv.to_string()),
            );
            intern_strings_of(&packet);
            packet
        };
        for d in 0..DESTINATIONS {
            for k in 0..2 {
                vids.process(&invite_to(d, k), SimTime::from_millis(1), &mut sink);
            }
        }
        assert!(sink.is_empty(), "below the threshold: {sink:?}");
        let third: Vec<Packet> = (0..DESTINATIONS).map(|d| invite_to(d, 2)).collect();
        let n = count_allocs(|| {
            for packet in &third {
                vids.process(packet, SimTime::from_millis(2), &mut sink);
            }
        });
        let growth = (DESTINATIONS as u64).ilog2() as u64 + 1;
        eprintln!("{DESTINATIONS} destination floods: {n} allocations (dedup growth {growth})");
        assert_eq!(sink.len(), DESTINATIONS as usize, "{sink:?}");
        assert!(sink.iter().all(|a| a.label == labels::INVITE_FLOOD));
        assert!(
            n <= growth,
            "{DESTINATIONS} flood alerts made {n} allocations (dedup growth {growth})"
        );
    }

    // ---- steady call churn: the expiry wheel recycles its filings --------
    // Short calls, one every 20 ms, each filed under a 100 ms wheel bucket,
    // stamped final and evicted by ≈ 800 sweeps. After a warm-up of as many
    // calls the wheel's ring (allocated with the fact base) runs on filings
    // it freed before and the sweeps on the fact base's own scratch lists:
    // nothing is left to allocate, against a budget of one in ten calls.
    {
        const CALLS: u16 = 4_000;
        let config = Config::builder()
            .invite_flood_threshold(1_000_000)
            .build()
            .unwrap();
        let mut vids = Vids::new(config);
        let mut sink = CollectSink::new();
        let calls = |from: u16| -> Vec<(Packet, u64)> {
            (from..from + CALLS)
                .flat_map(|k| short_call(&format!("budget-churn-{k}"), k, 20 * k as u64))
                .collect()
        };
        for (packet, t) in calls(0) {
            vids.process(&packet, SimTime::from_millis(t), &mut sink);
        }
        let measured = calls(CALLS);
        measured
            .iter()
            .for_each(|(packet, _)| intern_strings_of(packet));
        let n = count_allocs(|| {
            for (packet, t) in &measured {
                vids.process(packet, SimTime::from_millis(*t), &mut sink);
            }
        });
        let per_call = n as f64 / CALLS as f64;
        eprintln!("{CALLS} short calls of steady churn: {n} allocations ({per_call:.3} per call)");
        assert!(
            per_call <= 0.1,
            "steady churn made {per_call:.3} allocations per call (budget 0.1)"
        );
        assert!(
            vids.factbase_stats().calls_evicted >= CALLS as u64,
            "the sweeps evicted finished calls: {:?}",
            vids.factbase_stats()
        );
        assert!(
            sink.alerts().is_empty(),
            "budget traffic must be clean: {:?}",
            sink.alerts()
        );
    }
}
