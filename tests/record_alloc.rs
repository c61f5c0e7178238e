//! Allocation budget gate for the flight recorder's steady state.
//!
//! The ring tap sits on the ingest hot path, so its per-datagram cost
//! must be a bounded memcpy into the preallocated arena under the lane's
//! own lock plus relaxed atomics — **zero** allocations, with telemetry
//! off and on, including
//! when the ring wraps and evicts. Batch marking is a counter bump and
//! must also be free. (Dumping on an alert allocates, deliberately:
//! alerts are rare and the dump leaves the hot path.)
//!
//! Same single-`#[test]` structure as `alloc_budget.rs`: the counting
//! allocator is global, so one test owns the whole measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use vids::netsim::time::SimTime;
use vids::record::{RecordedClass, Recorder};
use vids::telemetry::metrics::{Counter, Gauge};
use vids::telemetry::slab::ShardSlab;

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

fn count_allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let start = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    drop(r);
    ALLOCS.load(Ordering::SeqCst) - start
}

/// Drives `batches × per_batch` datagrams through the recorder and
/// returns how many allocations that made. The payload is larger than
/// arena ÷ slots so the tiny ring below wraps and evicts constantly —
/// the eviction path is part of the steady state being measured.
fn drive(rec: &mut Recorder, batches: u64, per_batch: u64) -> u64 {
    let src: SocketAddr = "10.1.0.10:5060".parse().unwrap();
    let dst: SocketAddr = "10.2.0.10:5060".parse().unwrap();
    let payload = [0x55u8; 200];
    count_allocs(|| {
        let mut t = 0u64;
        for _ in 0..batches {
            for ring in 0..per_batch {
                t += 1;
                rec.record(
                    ring as usize,
                    SimTime::from_millis(t),
                    src,
                    dst,
                    if t.is_multiple_of(2) {
                        RecordedClass::Sip
                    } else {
                        RecordedClass::Rtp
                    },
                    &payload,
                );
            }
            rec.mark_batch();
        }
    })
}

#[test]
fn record_tap_steady_state_is_allocation_free() {
    // A deliberately tiny two-ring recorder: 8 slots / 1 KiB per ring,
    // so 200-byte payloads wrap the arena every ~5 records.
    let mut rec = Recorder::new(2, 8, 1024);

    // Warm once (construction itself allocates; the steady state must not).
    drive(&mut rec, 4, 8);

    // ---- telemetry off --------------------------------------------------
    let n = drive(&mut rec, 16, 8);
    eprintln!("record tap, telemetry off: {n} allocations over 128 datagrams");
    assert_eq!(n, 0, "recorder steady state must not allocate, made {n}");
    let stats = rec.stats();
    assert!(
        stats.rings.overwritten > 0,
        "the tiny ring must have wrapped during the measurement"
    );

    // ---- telemetry on ---------------------------------------------------
    let slab = Arc::new(ShardSlab::new());
    rec.attach_telemetry(Arc::clone(&slab));
    let n = drive(&mut rec, 16, 8);
    eprintln!("record tap, telemetry on: {n} allocations over 128 datagrams");
    assert_eq!(
        n, 0,
        "telemetry mirroring must stay on relaxed atomics, made {n} allocations"
    );
    assert!(
        slab.get(Counter::RingOverwrites) > 0,
        "eviction must be visible in telemetry"
    );
    assert!(
        slab.gauge(Gauge::RingBytes) > 0,
        "live ring bytes must be mirrored"
    );
}
