//! One pinned test per bug this harness exists to catch (ISSUE 5).
//!
//! Each test fails when its fix is reverted and passes with it applied —
//! they are the executable record of the three satellite bugs, phrased at
//! the harness level (against the public crate APIs the detectors use)
//! rather than as module unit tests, so a refactor of the internals
//! cannot silently retire them.

use vids_core::alert::Detail;
use vids_harness::matrix::{check, matrix, pipeline, plain, pool, Output};
use vids_harness::traffic::{
    answer, arrive, clean_call, dialog, invite, mixed_trace, pkt, sip, Trace,
};
use vids_netsim::packet::{Address, Payload};
use vids_rtp::jitter::JitterEstimator;
use vids_rtp::seq::{seq_distance, ExtendedSeq};
use vids_sip::parse::parse_message;
use vids_sip::StatusCode;

/// Satellite (a): a late packet that *straddles* the wrap — raw value
/// above the high-water mark but older in serial order — must extend into
/// the previous cycle, not the current one.
///
/// Pre-fix, `seq = 65534` arriving after the stream wrapped to `last = 2`
/// extended as `(1 << 16) | 65534` — *ahead* of the stream's highest —
/// so the media-spamming detector saw a phantom ~64k-packet forward leap.
#[test]
fn late_packet_straddling_a_wrap_extends_into_the_previous_cycle() {
    let mut ext = ExtendedSeq::new();
    let mut highest = 0;
    for seq in [65533u16, 65534, 65535, 0, 1, 2] {
        highest = highest.max(ext.update(seq));
    }
    assert_eq!(highest, (1 << 16) | 2, "stream should be one cycle in");

    // The straggler from before the wrap: sent in cycle 0, arriving late.
    let late = ext.update(65534);
    assert_eq!(late, 65534, "straddling late packet belongs to cycle 0");
    assert!(
        late < highest,
        "a late packet must never extend past the high-water mark"
    );
    // And the serial-order distance the detectors reason with stays small.
    assert_eq!(seq_distance(2, 65534), 4);
    // The tracker itself was not disturbed: the next in-order packet
    // continues cycle 1.
    assert_eq!(ext.update(3), (1 << 16) | 3);
}

/// Satellite (b): the jitter estimator's timestamp delta is *signed*.
///
/// Pre-fix, a single reordered pair produced an unsigned `ts_delta` of
/// ~2³² ticks — the filter absorbed minutes of phantom jitter and the
/// QoS-degradation detector fired on a healthy stream. This drives the
/// same swap directly across the 32-bit timestamp wrap, where the signed
/// interpretation matters most.
#[test]
fn one_reordered_packet_across_the_timestamp_wrap_stays_small() {
    let clock = 8_000u32; // narrowband audio, 160 ticks per 20 ms frame
    let start = u32::MAX - 160 * 5; // the stream wraps mid-test
    let mut j = JitterEstimator::new(clock);
    for i in 0..12u32 {
        // Swap packets 4 and 5: the pair lands right at the wrap.
        let logical = match i {
            4 => 5,
            5 => 4,
            _ => i,
        };
        j.on_packet(
            i as f64 * 0.020,
            start.wrapping_add(logical.wrapping_mul(160)),
        );
    }
    // A swap is two one-frame deviations through the 1/16 filter — a few
    // milliseconds at most. The unsigned bug yields ~2³²/8000 ≈ 149 hours.
    assert!(
        j.jitter_secs() < 0.020,
        "jitter = {}s: reorder across the wrap blew up the estimate",
        j.jitter_secs()
    );
}

/// Satellite (c): a `Content-Length` larger than the available body is a
/// parse error with a static reason — not a silent truncation to what
/// arrived, and (worse) not a panic.
///
/// Pre-fix, `parse_message` sliced `body[..len]` unchecked: a hostile
/// length either panicked the UA simulator or manufactured a body the
/// peer never sent.
#[test]
fn content_length_beyond_available_body_is_rejected() {
    let text = "BYE sip:bob@b.example.com SIP/2.0\r\n\
                Via: SIP/2.0/UDP a.example.com;branch=z9hG4bK77\r\n\
                From: <sip:alice@a.example.com>;tag=oa\r\n\
                To: <sip:bob@b.example.com>;tag=ob\r\n\
                Call-ID: reg-cl@a.example.com\r\n\
                CSeq: 2 BYE\r\n\
                Content-Length: 400\r\n\
                \r\n\
                short";
    let err = parse_message(text).expect_err("oversized Content-Length must reject");
    assert!(
        err.to_string()
            .contains("Content-Length exceeds available body"),
        "wrong reason: {err}"
    );

    // The exact advertised length still parses, and the body is intact.
    let ok = text.replace("Content-Length: 400", "Content-Length: 5");
    let msg = parse_message(&ok).expect("exact Content-Length parses");
    assert_eq!(msg.body(), "short");
}

// ---- ISSUE 7: SWAR scan tail/alignment edge cases ------------------------
//
// The scan primitives never take an unsafe 8-byte tail load — the word
// loop runs on `chunks_exact(8)` and the remainder is scanned byte-wise,
// so an out-of-bounds read is impossible by construction (this is the
// Miri satellite resolved by design). These pins are the cases where a
// "round up and mask" tail-load implementation, or the classic inexact
// zero-lane trick, silently goes wrong: if anyone rewrites the loop that
// way, these fail before the fuzzer has to find it.

/// The classic `(x - LO) & HI` has-zero approximation false-positives on
/// a lane that differs from the needle only in the high bit (0x80 vs
/// 0x00, 0xFF vs 0x7F). The exact form `(x - LO) & !x & HI` must not.
#[test]
fn swar_finder_rejects_high_bit_neighbors_of_the_needle() {
    for len in 1..=17usize {
        assert_eq!(vids_scan::find_byte(&vec![0x80u8; len], 0x00), None);
        assert_eq!(vids_scan::find_byte(&vec![0xFFu8; len], 0x7F), None);
        assert_eq!(vids_scan::find_byte2(&vec![0x80u8; len], 0x00, 0x01), None);
    }
}

/// A needle in the byte-wise remainder after the last full 8-byte word:
/// every tail length 1..=7, with the match in the very last byte — the
/// position an over-reading tail load is most tempted to mishandle.
#[test]
fn swar_finder_hits_in_every_remainder_tail_position() {
    for tail in 1..=7usize {
        let len = 8 + tail;
        let mut hay = vec![b'x'; len];
        hay[len - 1] = b'\n';
        assert_eq!(
            vids_scan::find_byte(&hay, b'\n'),
            Some(len - 1),
            "tail {tail}"
        );
        assert_eq!(vids_scan::find_byte2(&hay, b'\r', b'\n'), Some(len - 1));
    }
}

/// A sequence candidate whose continuation would run past the end of the
/// buffer must be rejected without reading past it: the head/body split
/// sees exactly this on a truncated datagram ending in a partial CRLFCRLF.
#[test]
fn swar_seq_scan_rejects_partial_match_at_buffer_end() {
    assert_eq!(
        vids_scan::find_seq(b"INVITE sip:x\r\n\r", b"\r\n\r\n"),
        None
    );
    assert_eq!(vids_scan::find_seq(b"\r\n\r", b"\r\n\r\n"), None);
    assert_eq!(vids_scan::find_seq(b"\r\n\r\r\n\r\n", b"\r\n\r\n"), Some(3));
}

/// Word-at-a-time case folding must fold letters only: `x | 0x20` would
/// also equate `@` with backtick and `[` with `{`, and SIP header names
/// are matched case-insensitively on exactly this path.
#[test]
fn swar_case_fold_folds_letters_only() {
    assert!(vids_scan::eq_ignore_case(b"Call-ID", b"CALL-id"));
    assert!(!vids_scan::eq_ignore_case(b"@", b"`"));
    assert!(!vids_scan::eq_ignore_case(b"[", b"{"));
    assert!(!vids_scan::eq_ignore_case(b"Call\x1dID", b"Call=ID"));
}

// ---- Placement: a reordered call raises what one engine raises ---------

/// When `out` raised `unassociated-rtp`.
fn unassociated_rtp(out: &Output) -> Vec<u64> {
    let alerts = out
        .alerts
        .iter()
        .filter(|(_, a)| a.label == "unassociated-rtp");
    alerts.map(|(_, a)| a.time_ms).collect()
}

/// A clean call whose 200 OK (with the callee's SDP) overtakes its 180 and
/// its INVITE, one datagram per batch: 200 at 1 000 ms, 180 at 1 002,
/// INVITE at 1 016, media to the callee's coordinate at 1 040, 1 150 and
/// 1 160, the ACK at 1 060. The answer belongs to no call yet, so the
/// callee's coordinate is never negotiated and one engine raises
/// `unassociated-rtp` once, at 1 040.
///
/// Pre-fix, a pool routed the media to the engine the answer had gone to,
/// which raised it from its own dedup set; the next sweep dropped that
/// route, the 1 150 ms packet fell back to the coordinate's hash engine,
/// whose set had never seen it, and 4 shards raised it twice for most call
/// numbers. Now a miss on a routed-to engine goes back to the hash engine,
/// the coordinate's one dedup home.
#[test]
fn an_answer_ahead_of_its_invite_raises_one_unassociated_rtp_at_any_shard_count() {
    let pools = [1, 2, 4, 8].map(pool);
    // INVITE, 180, 200, ACK, then media caller→callee at 4, 6, 8, ...
    let (order, times) = (
        [2, 1, 0, 4, 3, 6, 8],
        [1_000, 1_002, 1_016, 1_040, 1_060, 1_150, 1_160],
    );
    for k in 30..60u8 {
        let mut call = Vec::new();
        clean_call(&mut call, k, 0);
        let trace: Vec<_> = order
            .iter()
            .zip(times)
            .map(|(&i, ms)| arrive(&call[i].0, ms))
            .collect();
        let out = check(&trace, 1, &pools);
        assert_eq!(unassociated_rtp(&out), [1_040], "call {k}");
    }
}

/// A phone reuses its media port for its next call, the second call starting
/// 700 ms after the first ends, before the first is evicted. Two arrival
/// orders: the first call's last 200 OK after the second call's answer, and
/// the second call's 200 OK (naming the reused coordinate) ahead of its
/// INVITE. Each raises the same alerts at any shard count.
///
/// Pre-fix, one engine re-filed a call's coordinates on each SIP event it
/// took, while a pool routed media by the last SDP it saw: in the first
/// order one engine tied the second call's media to the first call, which
/// had hung up, and raised `rtp-after-bye` on it; four shards did not. Now
/// only a call that takes an SDP naming a coordinate takes the coordinate,
/// in one engine and in a pool. In the second order no call takes the
/// answer, so the coordinate stays with the first call, which raises
/// `rtp-after-bye` at every placement: a reordering false alarm (ROADMAP
/// item 19), not a placement one.
#[test]
fn a_reused_media_coordinate_follows_the_last_taken_sdp_at_any_shard_count() {
    let pools = [1, 2, 4, 8].map(pool);
    let phone = Address::new(10, 2, 0, 90, 5060);
    let mut calls = Vec::new();
    dialog(
        &mut calls,
        "reuse-a",
        (Address::new(10, 1, 0, 90, 5060), phone),
        None,
        0,
    );
    dialog(
        &mut calls,
        "reuse-b",
        (Address::new(10, 1, 0, 91, 5060), phone),
        None,
        1_000,
    );
    // Each call is 26 datagrams; the first ends with its BYE's 200 (25),
    // the second's answer is its third datagram (28).
    for (moved, ms) in [(25, 1_070), (28, 999)] {
        let mut trace = calls.clone();
        trace[moved] = arrive(&trace[moved].0, ms);
        trace.sort_by_key(|(_, at)| *at);
        let out = check(&trace, 1, &pools);
        let in_order = moved == 25;
        assert_eq!(out.has("rtp-after-bye"), !in_order, "datagram {moved}");
    }
}

/// A 200 OK for a call no engine tracks, its SDP naming the BYE-DoS victim's
/// media coordinate (10.2.0.7:32000), ahead of `mixed_trace`'s spoofed BYE.
/// No call takes the answer, so it moves nothing: the media after the BYE
/// still reaches the victim's call and raises `rtp-after-bye`, at any shard
/// count, batch size and Call-ID of the forgery.
///
/// Pre-fix, a pool routed the coordinate to the forged Call-ID's engine,
/// where the victim's media missed and raised `unassociated-rtp` instead;
/// an interim rule that let an SDP no call took detach the coordinate did
/// the same in one engine.
#[test]
fn a_forged_answer_cannot_detach_a_live_calls_media() {
    let trace = mixed_trace();
    let spoof = trace.iter().position(|(_, at)| at.as_millis() >= 3_500);
    let singly = [plain(), pool(1), pool(2), pool(4), pool(8)];
    let batched = [pool(1), pool(4), pool(8), pipeline(4)];
    let attacker = Address::new(172, 16, 0, 66, 5060);
    let victim = Address::new(10, 1, 0, 7, 5060);
    for forged in 0..8 {
        let inv = invite(&format!("forged-{forged}"), "172.16.0.66", 26_000);
        let mut attacked = trace.clone();
        let ok = answer(&inv, "10.2.0.7", 32_000);
        attacked.insert(spoof.unwrap(), pkt(attacker, victim, ok, 3_450));
        for (batch, placements) in [(1, &singly[..]), (25, &batched[..])] {
            let out = check(&attacked, batch, placements);
            assert!(out.has("rtp-after-bye"), "forged-{forged}, batch {batch}");
            let strays = unassociated_rtp(&out).len();
            assert_eq!(strays, 1, "only mixed_trace's stray");
        }
    }
}

/// The `label` alerts `out` raised against destination `dst`.
fn against(out: &Output, label: &str, dst: Address) -> usize {
    let ip = std::net::Ipv4Addr::from(dst.ip);
    let hits = out.alerts.iter().filter(|(_, a)| a.label == label);
    hits.filter(|(_, a)| matches!(a.detail, Detail::Dst(d) if d == ip))
        .count()
}

/// Flood windows that close and open again, on the INVITE and the response
/// counter of one destination, with raw datagrams every 50 ms driving the
/// sweeps:
///
/// * 10.2.0.71's INVITE window opens at 0 and takes another INVITE at
///   1 005, 5 ms after T1, before or after the sweep that closes it as the
///   batching falls: closed there, or closed and re-opened by the lazy
///   fire-then-deliver path, inside one sweep interval. Its response
///   window does the same at 200 and 1 210, and a third at 2 600 meets a
///   record the sweep already dropped.
/// * 10.2.0.72's window opens at 50 and its second INVITE at 2 500 finds
///   it dropped, sweeps later.
/// * 10.2.0.73 is flooded at 3 000 and keeps its flagged record when T1
///   fires at the 4 000 sweep: its INVITE at 4 500 raises nothing new.
/// * 10.2.0.71 is flooded at 5 000, long after both of its windows ended,
///   and 10.2.0.74 takes a reflection flood at 6 000.
///
/// Every placement raises the same alerts with the same traces and counts
/// the same transitions.
#[test]
fn flood_windows_close_and_reopen_alike_at_every_placement() {
    let caller = Address::new(10, 1, 0, 70, 5060);
    let reflector = Address::new(172, 16, 0, 71, 5060);
    let victim = |k| Address::new(10, 2, 0, k, 5060);
    let mut trace: Trace = Vec::new();
    let mut calls = 0;
    let mut invite_at = |trace: &mut Trace, dst: Address, at: u64| {
        calls += 1;
        let inv = invite(&format!("window-{calls}"), "10.1.0.70", 20_000);
        trace.push(pkt(caller, dst, sip(inv), at));
    };
    let ghost = invite("window-ghost", "10.9.9.9", 24_000).response(StatusCode::OK);
    let reflect_at = |trace: &mut Trace, dst: Address, at: u64| {
        trace.push(pkt(reflector, dst, sip(&ghost), at));
    };
    for at in [0, 1_005] {
        invite_at(&mut trace, victim(71), at);
    }
    for at in [200, 1_210, 2_600] {
        reflect_at(&mut trace, victim(71), at);
    }
    for at in [50, 2_500] {
        invite_at(&mut trace, victim(72), at);
    }
    for i in 0..11 {
        invite_at(&mut trace, victim(73), 3_000 + 10 * i);
        invite_at(&mut trace, victim(71), 5_000 + 10 * i);
        reflect_at(&mut trace, victim(74), 6_000 + 10 * i);
    }
    invite_at(&mut trace, victim(73), 4_500);
    let noise = (
        Address::new(172, 16, 0, 91, 40_002),
        Address::new(10, 2, 0, 3, 1_001),
    );
    for i in 0..160 {
        trace.push(pkt(noise.0, noise.1, Payload::Raw(vec![7; 4]), 25 + i * 50));
    }
    trace.sort_by_key(|(_, at)| *at);

    for batch in [1, 7, 25] {
        let out = check(&trace, batch, &matrix(None));
        let floods = [71, 72, 73, 74].map(|k| against(&out, "invite-flood", victim(k)));
        assert_eq!(floods, [1, 0, 1, 0], "batch {batch}: {:?}", out.alerts);
        let reflections = [71, 74].map(|k| against(&out, "response-flood", victim(k)));
        assert_eq!(reflections, [0, 1], "batch {batch}");
    }
}
