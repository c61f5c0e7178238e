//! Pcap parsing against hand-built fixture bytes.
//!
//! Every fixture is assembled byte-by-byte (no writer round-trip), so
//! these tests pin the on-disk format itself: both magics, the 24-byte
//! global header layout, the 16-byte record header layout, and the
//! failure modes — truncated header, truncated record, snaplen shorter
//! than the UDP datagram, a frame cut inside its VLAN tag. A counting global allocator proves every
//! reject is allocation-free: a hostile capture cannot balloon the
//! monitor's memory on the parse path.
//!
//! The counter is armed per thread, so the round-trip proptest running
//! beside the fixtures test does not land in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::atomic::{AtomicU64, Ordering};

use vids_ingest::pcap::{
    build_udp_frame, udp_frame, PcapReader, PcapWriter, LINKTYPE_ETHERNET, LINKTYPE_RAW,
};
use vids_netsim::time::SimTime;

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

/// Runs `f` with the counter armed on this thread; returns how many
/// allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = ALLOCS.load(Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    let r = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOCS.load(Ordering::SeqCst) - start, r)
}

/// The classic global header, field by field. `u32`/`u16` are emitted
/// in the byte order the chosen magic implies.
fn global_header(swapped: bool, linktype: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(24);
    let u32b = |v: u32| {
        if swapped {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    let u16b = |v: u16| {
        if swapped {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    h.extend_from_slice(&u32b(0xa1b2_c3d4)); // magic (reads back swapped when BE)
    h.extend_from_slice(&u16b(2)); // version major
    h.extend_from_slice(&u16b(4)); // version minor
    h.extend_from_slice(&u32b(0)); // thiszone
    h.extend_from_slice(&u32b(0)); // sigfigs
    h.extend_from_slice(&u32b(65_535)); // snaplen
    h.extend_from_slice(&u32b(linktype));
    h
}

fn record_header(swapped: bool, ts_sec: u32, ts_usec: u32, incl: u32, orig: u32) -> Vec<u8> {
    let u32b = |v: u32| {
        if swapped {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    let mut h = Vec::with_capacity(16);
    for v in [ts_sec, ts_usec, incl, orig] {
        h.extend_from_slice(&u32b(v));
    }
    h
}

/// A hand-assembled raw-IPv4 + UDP frame: 10.1.0.10:5060 → 10.2.0.10:5060
/// carrying `payload`.
fn raw_udp_frame(payload: &[u8]) -> Vec<u8> {
    let udp_len = 8 + payload.len();
    let ip_len = 20 + udp_len;
    let mut f = Vec::with_capacity(ip_len);
    f.push(0x45); // version 4, ihl 5
    f.push(0);
    f.extend_from_slice(&(ip_len as u16).to_be_bytes());
    f.extend_from_slice(&[0, 0, 0, 0]); // id, flags/frag
    f.push(64); // ttl
    f.push(17); // UDP
    f.extend_from_slice(&[0, 0]); // checksum
    f.extend_from_slice(&[10, 1, 0, 10]);
    f.extend_from_slice(&[10, 2, 0, 10]);
    f.extend_from_slice(&5060u16.to_be_bytes());
    f.extend_from_slice(&5060u16.to_be_bytes());
    f.extend_from_slice(&(udp_len as u16).to_be_bytes());
    f.extend_from_slice(&[0, 0]); // UDP checksum
    f.extend_from_slice(payload);
    f
}

#[test]
fn fixtures_parse_and_rejects_are_alloc_free() {
    // --- Both magics: one OPTIONS datagram each, hand-assembled. ---
    for swapped in [false, true] {
        let payload = b"OPTIONS sip:b SIP/2.0\r\n\r\n";
        let frame = raw_udp_frame(payload);
        let mut capture = global_header(swapped, LINKTYPE_RAW);
        capture.extend_from_slice(&record_header(
            swapped,
            1,
            250,
            frame.len() as u32,
            frame.len() as u32,
        ));
        capture.extend_from_slice(&frame);

        let mut r = PcapReader::new(&capture).unwrap();
        assert_eq!(r.is_swapped(), swapped, "magic must set the byte order");
        let d = r.next_datagram().unwrap().unwrap();
        assert_eq!(d.at, SimTime::from_micros(1_000_250));
        assert_eq!(d.payload, payload);
        assert_eq!(d.src.port(), 5060);
        assert!(r.next_datagram().unwrap().is_none());
    }

    // --- Truncated global header: 23 of 24 bytes. ---
    let short = &global_header(false, LINKTYPE_RAW)[..23];
    let (allocs, err) = count_allocs(|| PcapReader::new(short).err().unwrap());
    assert_eq!(err.offset, 0);
    assert!(err.reason.contains("global header"), "{}", err.reason);
    assert_eq!(allocs, 0, "header reject must not allocate");

    // --- Unrecognized magic. ---
    let mut bad_magic = global_header(false, LINKTYPE_RAW);
    bad_magic[0] = 0x0a; // pcapng block type prefix, not a classic magic
    let (allocs, err) = count_allocs(|| PcapReader::new(&bad_magic).err().unwrap());
    assert!(err.reason.contains("magic"), "{}", err.reason);
    assert_eq!(allocs, 0, "magic reject must not allocate");

    // --- Truncated record header: 10 of 16 bytes. ---
    let mut trunc_rec = global_header(false, LINKTYPE_RAW);
    trunc_rec.extend_from_slice(&record_header(false, 1, 0, 64, 64)[..10]);
    let (allocs, err) = count_allocs(|| {
        let mut r = PcapReader::new(&trunc_rec).unwrap();
        r.next_record().unwrap_err()
    });
    assert_eq!(err.offset, 24);
    assert!(err.reason.contains("record header"), "{}", err.reason);
    assert_eq!(allocs, 0, "record-header reject must not allocate");

    // --- Record body shorter than incl_len claims. ---
    let frame = raw_udp_frame(b"hello");
    let mut trunc_body = global_header(false, LINKTYPE_RAW);
    trunc_body.extend_from_slice(&record_header(
        false,
        1,
        0,
        frame.len() as u32,
        frame.len() as u32,
    ));
    trunc_body.extend_from_slice(&frame[..frame.len() - 4]);
    let (allocs, err) = count_allocs(|| {
        let mut r = PcapReader::new(&trunc_body).unwrap();
        r.next_record().unwrap_err()
    });
    assert!(err.reason.contains("record body"), "{}", err.reason);
    assert_eq!(allocs, 0, "record-body reject must not allocate");

    // --- Snaplen shorter than the datagram: incl_len < orig_len cuts the
    // UDP payload, which must be an error, not a silent short payload. ---
    let full = raw_udp_frame(&[0x42; 400]);
    let snapped = &full[..64];
    let mut snap = global_header(false, LINKTYPE_RAW);
    snap.extend_from_slice(&record_header(
        false,
        2,
        0,
        snapped.len() as u32,
        full.len() as u32,
    ));
    snap.extend_from_slice(snapped);
    let (allocs, err) = count_allocs(|| {
        let mut r = PcapReader::new(&snap).unwrap();
        r.next_datagram().unwrap_err()
    });
    assert!(err.reason.contains("snaplen"), "{}", err.reason);
    assert_eq!(allocs, 0, "snaplen reject must not allocate");

    // --- The success path over a borrowed buffer is also alloc-free. ---
    let payload = b"INVITE sip:bob@b SIP/2.0\r\n\r\n";
    let frame = raw_udp_frame(payload);
    let mut ok = global_header(false, LINKTYPE_RAW);
    for _ in 0..8 {
        ok.extend_from_slice(&record_header(
            false,
            3,
            0,
            frame.len() as u32,
            frame.len() as u32,
        ));
        ok.extend_from_slice(&frame);
    }
    let (allocs, n) = count_allocs(|| {
        let mut r = PcapReader::new(&ok).unwrap();
        let mut n = 0;
        while let Some(d) = r.next_datagram().unwrap() {
            assert_eq!(d.payload, payload);
            n += 1;
        }
        n
    });
    assert_eq!(n, 8);
    assert_eq!(allocs, 0, "reading borrowed records must not allocate");
}

/// `frame` (an untagged Ethernet frame) with `tags` VLAN tags inserted
/// after the MAC addresses, outermost first: `(TPID, VLAN id)`.
fn tagged(frame: &[u8], tags: &[(u16, u16)]) -> Vec<u8> {
    let mut f = frame[..12].to_vec();
    for &(tpid, vid) in tags {
        f.extend_from_slice(&tpid.to_be_bytes());
        f.extend_from_slice(&vid.to_be_bytes());
    }
    f.extend_from_slice(&frame[12..]);
    f
}

/// A voice VLAN's trunk port tags every frame. Single-tagged (802.1Q) and
/// QinQ (802.1ad outside 802.1Q) frames decode to the datagram the
/// untagged frame carries; a frame cut inside its tag is an error, not a
/// skip; and neither the decode nor the reject allocates.
#[test]
fn vlan_tagged_frames_decode_like_untagged_ones() {
    let src = SocketAddrV4::new(Ipv4Addr::new(10, 1, 0, 10), 5060);
    let dst = SocketAddrV4::new(Ipv4Addr::new(10, 2, 0, 10), 5060);
    let payload = b"INVITE sip:bob@b SIP/2.0\r\n\r\n";
    let untagged = build_udp_frame(LINKTYPE_ETHERNET, src, dst, payload);
    let single = tagged(&untagged, &[(0x8100, 100)]);
    let qinq = tagged(&untagged, &[(0x88a8, 7), (0x8100, 100)]);

    let want = udp_frame(LINKTYPE_ETHERNET, &untagged).unwrap().unwrap();
    assert_eq!(want.2, payload);
    for (name, frame) in [("802.1Q", &single), ("QinQ", &qinq)] {
        let (allocs, got) = count_allocs(|| udp_frame(LINKTYPE_ETHERNET, frame));
        assert_eq!(got, Ok(Some(want)), "{name}");
        assert_eq!(allocs, 0, "{name} decode must not allocate");

        let mut w = PcapWriter::with_format(false, LINKTYPE_ETHERNET);
        w.push_record(SimTime::from_millis(5), frame, frame.len() as u32);
        let capture = w.into_bytes();
        let mut r = PcapReader::new(&capture).unwrap();
        let d = r
            .next_datagram()
            .unwrap()
            .expect("a tagged datagram is not skipped");
        assert_eq!((d.src, d.dst, d.payload), want, "{name}");
        assert!(r.next_datagram().unwrap().is_none());
    }

    // A third tag is past what the reader peels: skipped, like any other
    // frame that is not IPv4.
    let triple = tagged(&untagged, &[(0x88a8, 7), (0x8100, 100), (0x8100, 5)]);
    assert_eq!(udp_frame(LINKTYPE_ETHERNET, &triple), Ok(None));

    // Cut inside the outer and inside the inner tag.
    for cut in [16, qinq.len().min(19)] {
        let frame = &qinq[..cut];
        let (allocs, got) = count_allocs(|| udp_frame(LINKTYPE_ETHERNET, frame));
        let reason = got.unwrap_err();
        assert!(reason.contains("VLAN tag"), "cut at {cut}: {reason}");
        assert_eq!(allocs, 0, "tag reject must not allocate");

        let mut w = PcapWriter::with_format(false, LINKTYPE_ETHERNET);
        w.push_record(SimTime::from_millis(5), frame, qinq.len() as u32);
        let capture = w.into_bytes();
        let (allocs, err) = count_allocs(|| {
            let mut r = PcapReader::new(&capture).unwrap();
            r.next_datagram().unwrap_err()
        });
        assert!(err.reason.contains("VLAN tag"), "{}", err.reason);
        assert_eq!(allocs, 0, "tag reject must not allocate");
    }
}

/// Write→read round-trip as a property, across both byte orders and
/// both link types: whatever `PcapWriter` emits, `PcapReader` must hand
/// back verbatim — addresses, ports, payload bytes and microsecond
/// timestamps — for arbitrary datagram sequences.
mod round_trip {
    use super::*;
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, SocketAddrV4};

    /// One arbitrary datagram: (micros, src ip+port, dst ip+port, payload).
    /// Timestamps stay under the u32-seconds ceiling the classic format
    /// can represent; payloads cover empty through past-MTU sizes.
    type Dg = (u64, (u8, u8, u8, u8), u16, (u8, u8, u8, u8), u16, Vec<u8>);

    fn datagram() -> impl Strategy<Value = Dg> {
        (
            0u64..4_000_000_000_000_000u64,
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1u16..=u16::MAX,
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1u16..=u16::MAX,
            proptest::collection::vec(any::<u8>(), 0..1600),
        )
    }

    fn sock(ip: (u8, u8, u8, u8), port: u16) -> SocketAddrV4 {
        SocketAddrV4::new(Ipv4Addr::new(ip.0, ip.1, ip.2, ip.3), port)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn writer_reader_round_trip_both_orders_and_linktypes(
            datagrams in proptest::collection::vec(datagram(), 0..24),
            swapped in any::<bool>(),
            ethernet in any::<bool>(),
        ) {
            let linktype = if ethernet { LINKTYPE_ETHERNET } else { LINKTYPE_RAW };
            let mut w = PcapWriter::with_format(swapped, linktype);
            for (us, sip, sport, dip, dport, payload) in &datagrams {
                w.push_udp(
                    SimTime::from_micros(*us),
                    sock(*sip, *sport),
                    sock(*dip, *dport),
                    payload,
                );
            }
            let capture = w.into_bytes();

            let mut r = PcapReader::new(&capture).unwrap();
            prop_assert_eq!(r.is_swapped(), swapped);
            for (us, sip, sport, dip, dport, payload) in &datagrams {
                let d = r.next_datagram().unwrap().expect("fewer datagrams than written");
                prop_assert_eq!(d.at, SimTime::from_micros(*us));
                prop_assert_eq!(d.src, std::net::SocketAddr::V4(sock(*sip, *sport)));
                prop_assert_eq!(d.dst, std::net::SocketAddr::V4(sock(*dip, *dport)));
                prop_assert_eq!(d.payload, &payload[..]);
            }
            prop_assert!(r.next_datagram().unwrap().is_none(), "extra trailing datagram");
        }
    }
}
