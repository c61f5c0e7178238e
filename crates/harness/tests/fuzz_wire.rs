//! Structure-aware wire fuzzing: the parsers never panic, and every reject
//! is allocation-free.
//!
//! The classifier's front line is `vids_sip::view::parse_view` plus the
//! RTP/RTCP binary parsers — these run on every hostile datagram an
//! attacker sends, so a panic is a remote crash and an allocating reject is
//! a flood amplifier. Both properties are asserted here under a seeded
//! mutation fuzzer (`VIDS_FUZZ_ITERS` overrides the 10k default budget).
//! The owned `parse_message` allocates by design (it builds an owned
//! message for the UA simulators), so it gets the no-panic assertion only.
//!
//! The counter is armed per thread, so an allocation on any other thread
//! of the test binary does not land in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use vids_harness::mutate::{mutate_sip, mutate_wire};
use vids_harness::rng::XorShift64;
use vids_harness::{corpus, record_bridge};
use vids_rtp::packet::{RtpHeader, RtpPacket};
use vids_rtp::rtcp_wire::RtcpPacket;
use vids_sip::parse::parse_message;
use vids_sip::view::parse_view;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed on this thread; returns (result,
/// allocations made).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = ALLOCS.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, ALLOCS.load(Ordering::SeqCst) - start)
}

/// Stacks 1–3 SIP mutations on a random seed message.
fn fuzz_case_sip(rng: &mut XorShift64, seeds: &[String]) -> String {
    let mut text = rng.pick(seeds).clone();
    for _ in 0..=rng.below(3) {
        text = mutate_sip(rng, &text);
    }
    text
}

/// Stacks 1–3 wire mutations on a random seed datagram.
fn fuzz_case_wire(rng: &mut XorShift64, seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = rng.pick(seeds).clone();
    for _ in 0..=rng.below(3) {
        bytes = mutate_wire(rng, &bytes);
    }
    bytes
}

#[test]
fn fuzzed_wire_never_panics_and_rejects_are_alloc_free() {
    let iters = vids_harness::fuzz_iterations();

    // ---- SIP text ------------------------------------------------------
    // Builder seeds plus every SIP payload recorded in the committed
    // `.vdump` corpus: dumps are real wire bytes that drove the engine to
    // an alert, so mutating them explores the paths the recorder proved
    // reachable — not just what the message builders emit.
    let mut seeds = corpus::sip_seeds();
    let dump_seeds = record_bridge::corpus_sip_seeds();
    assert!(
        !dump_seeds.is_empty(),
        "committed corpus dumps contributed no SIP seeds — \
         is crates/harness/corpus/ missing or unreadable?"
    );
    seeds.extend(dump_seeds);
    let mut rng = XorShift64::new(0x051B_F022);
    let mut accepted = 0u64;
    for i in 0..iters {
        let text = fuzz_case_sip(&mut rng, &seeds);
        // The zero-copy view parser: no panic, and *zero* allocations on
        // either verdict (it borrows everything from the input).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            count_allocs(|| parse_view(&text).is_ok())
        }));
        match outcome {
            Ok((ok, allocs)) => {
                accepted += u64::from(ok);
                assert_eq!(
                    allocs, 0,
                    "parse_view allocated {allocs}x on case {i}: {text:?}"
                );
            }
            Err(_) => panic!("parse_view panicked on case {i}: {text:?}"),
        }
        // The owned parser: must never panic on arbitrary input.
        if catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_message(&text);
        }))
        .is_err()
        {
            panic!("parse_message panicked on case {i}: {text:?}");
        }
    }
    eprintln!("sip fuzz: {iters} cases, {accepted} still accepted");
    assert!(
        accepted > 0,
        "mutator degenerated: nothing parseable in {iters} cases"
    );
    assert!(
        accepted < iters,
        "mutator degenerated: nothing rejected in {iters} cases"
    );

    // ---- RTP wire ------------------------------------------------------
    // Dump-recorded RTP windows ride along the builder seeds the same way
    // (today's committed dumps are signaling-only, so this may add none).
    let mut seeds = corpus::rtp_seeds();
    seeds.extend(record_bridge::corpus_rtp_seeds());
    let mut rng = XorShift64::new(0x0052_D15C);
    let mut accepted = 0u64;
    for i in 0..iters {
        let bytes = fuzz_case_wire(&mut rng, &seeds);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (header, h_allocs) = count_allocs(|| RtpHeader::parse(&bytes));
            let packet = RtpPacket::parse(&bytes);
            (header, h_allocs, packet)
        }));
        let (header, h_allocs, packet) = match outcome {
            Ok(v) => v,
            Err(_) => panic!("RTP parse panicked on case {i}: {bytes:02x?}"),
        };
        // The header view parses without allocating, accept or reject.
        assert_eq!(
            h_allocs, 0,
            "RtpHeader::parse allocated {h_allocs}x on case {i}: {bytes:02x?}"
        );
        // Differential: the classifier's header view and the full packet
        // parser must agree on verdict and on every monitored field.
        match (&header, &packet) {
            (Ok(h), Ok(p)) => {
                accepted += 1;
                assert_eq!(h.sequence_number, p.sequence_number);
                assert_eq!(h.timestamp, p.timestamp);
                assert_eq!(h.ssrc, p.ssrc);
                assert_eq!(h.payload_type, p.payload_type);
                assert_eq!(h.marker, p.marker);
                assert_eq!(h.padding, p.padding);
            }
            (Err(he), Err(pe)) => assert_eq!(he, pe, "divergent reject on case {i}"),
            _ => panic!(
                "RtpHeader and RtpPacket disagree on case {i}: {header:?} vs {packet:?} for {bytes:02x?}"
            ),
        }
        // A rejected datagram costs nothing on the full parser either.
        if packet.is_err() {
            let (_, allocs) = count_allocs(|| RtpPacket::parse(&bytes).is_err());
            assert_eq!(
                allocs, 0,
                "RtpPacket::parse reject allocated {allocs}x on case {i}: {bytes:02x?}"
            );
        }
    }
    eprintln!("rtp fuzz: {iters} cases, {accepted} still accepted");
    assert!(accepted > 0 && accepted < iters, "rtp mutator degenerated");

    // ---- RTCP wire -----------------------------------------------------
    let seeds = corpus::rtcp_seeds();
    let mut rng = XorShift64::new(0x0052_C7CF);
    let mut accepted = 0u64;
    for i in 0..iters {
        let bytes = fuzz_case_wire(&mut rng, &seeds);
        let outcome = catch_unwind(AssertUnwindSafe(|| RtcpPacket::parse(&bytes)));
        let parsed = match outcome {
            Ok(v) => v,
            Err(_) => panic!("RTCP parse panicked on case {i}: {bytes:02x?}"),
        };
        match parsed {
            Ok(_) => accepted += 1,
            Err(_) => {
                let (_, allocs) = count_allocs(|| RtcpPacket::parse(&bytes).is_err());
                assert_eq!(
                    allocs, 0,
                    "RtcpPacket::parse reject allocated {allocs}x on case {i}: {bytes:02x?}"
                );
            }
        }
    }
    eprintln!("rtcp fuzz: {iters} cases, {accepted} still accepted");
    assert!(accepted > 0 && accepted < iters, "rtcp mutator degenerated");
}
