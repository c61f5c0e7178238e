//! Flood windows end: the bound on what a destination sweep costs.
//!
//! Fig. 4's counter-plus-window machine returns to INIT when T1 expires,
//! and a counter back in INIT with no count and no timer behaves exactly
//! as a fresh one. The fact base therefore drops it at the sweep that
//! fires its T1, and a spoofed-destination INVITE sweep — every INVITE to
//! an address never seen before — holds only the windows open in the last
//! T1, however long it runs.
//!
//! One plain engine takes 60 s of INVITEs at 2 000/s, each to a fresh
//! destination, and the test holds three things:
//!
//! * `memory_bytes()` plateaus: sampled at the same point of every sweep
//!   interval after the first 2 s, it moves by less than one slab chunk;
//! * a warm INVITE makes no allocation: closed windows hand their slots,
//!   their FIFO links and their index entries to the windows that open;
//! * a destination whose counter was dropped raises `invite-flood` on the
//!   N+1-th INVITE inside one T1, exactly once, as a never-seen one does.
//!
//! The call quota is one call, taken before the sweep starts, so the
//! INVITEs create no calls (a half-open call has no expiry yet): only the
//! flood part runs, as under a flood the quota has filled. The test lives
//! alone in its binary because the allocation counter is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use vids::core::alert::{labels, Alert, Detail};
use vids::core::config::Config;
use vids::core::engine::Vids;
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;
use vids::sip::message::Request;
use vids::sip::SipUri;

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
fn count_allocs(f: impl FnOnce()) -> u64 {
    let start = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) - start
}

const CALLER: Address = Address::new(10, 1, 0, 10, 5060);

/// INVITEs a second, and how long the sweep runs.
const RATE: u64 = 2_000;
const SECONDS: u64 = 60;

/// The plateau's tolerance: one slab chunk of window records, 64 slots,
/// each at most 112 B plus its 9-byte index entry.
const CHUNK_BYTES: usize = 64 * (112 + 9);

/// The `k`-th destination of the sweep, never used before it.
fn fresh(k: u64) -> Address {
    let [_, a, b, c] = (k as u32).to_be_bytes();
    Address::new(10, 100 + a, b, c, 5060)
}

fn invite(call_id: &str, dst: Address) -> Packet {
    let text = Request::invite(
        &SipUri::new("alice", "a.example.com"),
        &SipUri::new("bob", "b.example.com"),
        call_id,
    )
    .to_string();
    Packet {
        src: CALLER,
        dst,
        payload: Payload::Sip(text),
        id: 0,
        sent_at: SimTime::ZERO,
    }
}

/// The invite-flood alerts `alerts` raised against `dst`.
fn floods_of(alerts: &[Alert], dst: Address) -> usize {
    let ip = Ipv4Addr::from(dst.ip);
    alerts
        .iter()
        .filter(|a| {
            a.label == labels::INVITE_FLOOD && matches!(a.detail, Detail::Dst(d) if d == ip)
        })
        .count()
}

#[test]
fn a_destination_sweep_holds_only_the_open_windows() {
    let config = Config::builder().max_tracked_calls(1).build().unwrap();
    let (n, t1) = (config.invite_flood_n, config.invite_flood_t1.as_millis());
    let mut vids = Vids::new(config);
    let mut sink: Vec<Alert> = Vec::new();
    let at = SimTime::from_millis;

    // The one call the quota allows; every INVITE after it is refused as a
    // call and counted by its destination's window alone.
    vids.process(&invite("bound-quota", fresh(0)), at(0), &mut sink);
    let mut packet = invite("bound-sweep", fresh(0));

    let mut plateau = Vec::new();
    let mut warm_allocs = 0;
    for k in 1..=RATE * SECONDS {
        let now = k * 1_000 / RATE;
        packet.dst = fresh(k);
        let allocs = count_allocs(|| vids.process(&packet, at(now), &mut sink));
        if now >= 2_000 {
            warm_allocs += allocs;
            // The last INVITE of each 100 ms sweep interval.
            if k % (RATE / 10) == RATE / 10 - 1 {
                plateau.push(vids.memory_bytes());
            }
        }
    }
    assert!(sink.is_empty(), "one INVITE per destination: {sink:?}");
    let (low, high) = (
        *plateau.iter().min().unwrap(),
        *plateau.iter().max().unwrap(),
    );
    eprintln!(
        "{} INVITEs to fresh destinations: memory_bytes {low}–{high} after 2 s, \
         {warm_allocs} allocations after 2 s",
        RATE * SECONDS
    );
    // The windows opened in the last T1 and a sweep interval, at most.
    let open_windows = (RATE * (t1 + 100) / 1_000) as usize;
    assert!(
        high < open_windows * (112 + 9) + 4_096,
        "memory_bytes {high} holds more than {open_windows} windows and a call"
    );
    assert!(
        high - low < CHUNK_BYTES,
        "memory_bytes {low}–{high} moved by a slab chunk or more"
    );
    assert_eq!(
        warm_allocs, 0,
        "warm INVITEs made {warm_allocs} allocations"
    );

    // A destination swept at 1 s, its counter long dropped, and one never
    // seen: each raises invite-flood on its N+1-th INVITE within T1, once.
    let end = SECONDS * 1_000;
    let (dropped, unseen) = (fresh(RATE), fresh(RATE * SECONDS + 1));
    for dst in [dropped, unseen] {
        packet.dst = dst;
        for i in 0..n {
            vids.process(&packet, at(end + 10 + i), &mut sink);
        }
        assert_eq!(floods_of(&sink, dst), 0, "{dst}: N INVITEs are no flood");
        vids.process(&packet, at(end + 10 + n), &mut sink);
        vids.process(&packet, at(end + 11 + n), &mut sink);
        assert_eq!(floods_of(&sink, dst), 1, "{dst}: {sink:?}");
    }
    assert_eq!(sink.len(), 2, "{sink:?}");
}
