//! Traffic for the placement matrix ([`crate::matrix`]): the curated
//! adversarial trace and seeded generators.
//!
//! [`mixed_trace`] is the canonical adversarial packet stream: clean calls,
//! an INVITE flood, a BYE-DoS, a DRDoS reflection, strays, malformed
//! datagrams and a registration hijack — every alert path in one trace, in
//! protocol order. [`generated`] adds what the curated trace never does:
//! calls whose datagrams arrive out of protocol order, calls relayed by an
//! address-rewriting proxy, a media coordinate reused by a later call,
//! media that outlives its call's eviction, and [`fuzzed`] junk.
//! [`knob_traces`] adds one trace per §6 pattern knob the other two never
//! move.

use vids_attacks::craft::{self, DialogSnapshot, Target};
use vids_core::alert::labels;
use vids_netsim::packet::{Address, Packet, Payload};
use vids_netsim::time::SimTime;
use vids_rtp::packet::RtpPacket;
use vids_sdp::{Codec, SessionDescription};
use vids_sip::headers::{CSeq, Header, NameAddr, Via};
use vids_sip::{Method, Request, SipUri, StatusCode};

use crate::corpus;
use crate::mutate::{mutate_sip, mutate_wire};
use crate::rng::XorShift64;

/// A trace: packets in arrival order, each with its arrival time.
pub type Trace = Vec<(Packet, SimTime)>;

/// One packet sent at `at_ms`, with its arrival time.
pub fn pkt(src: Address, dst: Address, payload: Payload, at_ms: u64) -> (Packet, SimTime) {
    let (id, sent_at) = (0, SimTime::from_millis(at_ms));
    let packet = Packet {
        src,
        dst,
        payload,
        id,
        sent_at,
    };
    (packet, sent_at)
}

/// `packet` arriving, and sent, at `at_ms`.
pub fn arrive(packet: &Packet, at_ms: u64) -> (Packet, SimTime) {
    let (src, dst, payload) = (packet.src, packet.dst, packet.payload.clone());
    pkt(src, dst, payload, at_ms)
}

/// Appends a packet sent at `at_ms` to `trace`.
fn push(trace: &mut Trace, (src, dst): (Address, Address), payload: Payload, at_ms: u64) {
    trace.push(pkt(src, dst, payload, at_ms));
}

/// A SIP payload carrying `message`'s text.
pub fn sip(message: impl std::fmt::Display) -> Payload {
    Payload::Sip(message.to_string())
}

/// A G.729 RTP payload (type 18) with 10 bytes of audio.
pub fn rtp(seq: u16, ts: u32, ssrc: u32) -> Payload {
    let packet = RtpPacket::new(18, seq, ts, ssrc).with_payload(vec![0; 10]);
    Payload::Rtp(packet.to_bytes())
}

/// An INVITE from alice offering G.729 media at `caller_ip:media_port`.
pub fn invite(call_id: &str, caller_ip: &str, media_port: u16) -> Request {
    let sdp = SessionDescription::audio_offer("alice", caller_ip, media_port, &[Codec::G729]);
    let from = SipUri::new("alice", "a.example.com");
    let to = SipUri::new("bob", "b.example.com");
    Request::invite(&from, &to, call_id).with_body(vids_sdp::MIME_TYPE, sdp.to_string())
}

/// The 200 OK to `inv` answering with media at `ip:port`.
pub fn answer(inv: &Request, ip: &str, port: u16) -> Payload {
    let sdp = SessionDescription::audio_offer("bob", ip, port, &[Codec::G729]);
    let ok = inv.response(StatusCode::OK).with_to_tag("tt");
    sip(ok.with_body(vids_sdp::MIME_TYPE, sdp.to_string()))
}

/// A full clean call `k` starting at `t0`, with distinct endpoints and media
/// coordinates per call so calls land on different shards.
pub fn clean_call(trace: &mut Trace, k: u8, t0: u64) {
    dialog(trace, &format!("det-clean-{k}"), parties(k), None, t0);
}

/// The SIP addresses of call `k`'s parties: 10.1.0.k and 10.2.0.k.
fn parties(k: u8) -> (Address, Address) {
    let at = |net| Address::new(10, net, 0, k, 5060);
    (at(1), at(2))
}

/// INVITE, 180, 200 with SDP, ACK, ten media packets each way, BYE and its
/// 200, from `t0`, between `(caller, callee)`. Media runs caller:20000 ↔
/// callee:30000. With a `proxy`, every SIP message crosses the monitor
/// twice, once per leg, on different address pairs with the same Call-ID.
pub fn dialog(
    trace: &mut Trace,
    id: &str,
    ends: (Address, Address),
    proxy: Option<Address>,
    t0: u64,
) {
    let send = |trace: &mut Trace, from_caller: bool, text: Payload, at: u64| {
        let (src, dst) = if from_caller { ends } else { (ends.1, ends.0) };
        match proxy {
            None => push(trace, (src, dst), text, at),
            Some(proxy) => {
                push(trace, (src, proxy), text.clone(), at);
                push(trace, (proxy, dst), text, at + 1);
            }
        }
    };
    let inv = invite(id, &ends.0.ip_string(), 20_000);
    send(trace, true, sip(&inv), t0);
    let ringing = inv.response(StatusCode::RINGING).with_to_tag("tt");
    send(trace, false, sip(ringing), t0 + 30);
    let callee_ip = ends.1.ip_string();
    send(trace, false, answer(&inv, &callee_ip, 30_000), t0 + 60);
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    send(trace, true, sip(ack), t0 + 90);
    let media = (ends.0.with_port(20_000), ends.1.with_port(30_000));
    for i in 0..10u16 {
        let (at, ts) = (t0 + 100 + u64::from(i) * 10, u32::from(i) * 80);
        push(trace, media, rtp(100 + i, ts, 7), at);
        push(trace, (media.1, media.0), rtp(500 + i, ts, 9), at + 5);
    }
    let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
    send(trace, true, sip(&bye), t0 + 260);
    send(trace, false, sip(bye.response(StatusCode::OK)), t0 + 290);
}

/// A BYE-DoS on `call_id` from 10.1.0.7 to 10.2.0.7: the set-up (INVITE,
/// 200 OK with SDP, ACK) from `t0` ms, then a spoofed BYE at `t1` ms and
/// 30 media packets on the negotiated coordinates, 40 ms apart, well past
/// timer T. Returns (set-up, attack).
pub fn bye_dos(call_id: &str, t0: u64, t1: u64) -> (Vec<Packet>, Vec<Packet>) {
    let caller = Address::new(10, 1, 0, 7, 5060);
    let callee = Address::new(10, 2, 0, 7, 5060);
    let inv = invite(call_id, "10.1.0.7", 22_000);
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    let (fwd, back) = ((caller, callee), (callee, caller));
    let mut setup = Vec::new();
    push(&mut setup, fwd, sip(&inv), t0);
    push(&mut setup, back, answer(&inv, "10.2.0.7", 32_000), t0 + 50);
    push(&mut setup, fwd, sip(ack), t0 + 100);
    let snap = DialogSnapshot {
        call_id: call_id.to_owned(),
        caller_from: NameAddr::new(SipUri::new("alice", "a.example.com")).with_tag("tag-alice"),
        callee_to: NameAddr::new(SipUri::new("bob", "b.example.com")).with_tag("tt"),
        caller_addr: caller,
        callee_addr: callee,
        callee_media: Some(callee.with_port(32_000)),
        caller_media: Some(caller.with_port(22_000)),
        caller_ssrc: Some(7),
        caller_rtp_cursor: Some((40, 3_200)),
        invite_branch: format!("z9hG4bK-{call_id}"),
    };
    let (victim, spoof) = snap.endpoints(Target::Callee);
    let mut attack = Vec::new();
    let bye = sip(craft::spoofed_bye(&snap, Target::Callee));
    push(&mut attack, (spoof.with_port(5060), victim), bye, t1);
    let media = (caller.with_port(22_000), callee.with_port(32_000));
    for i in 0..30u16 {
        let (at, ts) = (t1 + 20 + u64::from(i) * 40, (40 + u32::from(i)) * 80);
        push(&mut attack, media, rtp(40 + i, ts, 7), at);
    }
    let untimed = |trace: Trace| trace.into_iter().map(|(p, _)| p).collect();
    (untimed(setup), untimed(attack))
}

/// `n` flooding INVITEs from `attacker` to `phone`, `gap_ms` apart from
/// `t0`, each with a fresh Call-ID `<prefix>-<i>`.
pub fn invite_flood(
    (attacker, phone): (Address, Address),
    user: &str,
    prefix: &str,
    n: u64,
    (t0, gap_ms): (u64, u64),
) -> Vec<Packet> {
    let target = SipUri::new(user, "b.example.com");
    let flood = |i| craft::flood_invite(&target, attacker, "flooder", &format!("{prefix}-{i}"));
    let packet = |i| pkt(attacker, phone, sip(flood(i)), t0 + i * gap_ms).0;
    (0..n).map(packet).collect()
}

/// A REGISTER of `roamer@b.example.com` from `src` binding `contact_ip`.
pub fn register_packet(src: Address, contact_ip: &str, expires: u32) -> Payload {
    let aor = SipUri::new("roamer", "b.example.com");
    let mut req = Request::new(Method::Register, SipUri::host_only("b.example.com"));
    let headers = [
        Header::Via(Via::udp(src.ip_string(), 5060, "z9hG4bK-r1")),
        Header::From(NameAddr::new(aor.clone()).with_tag("rt")),
        Header::To(NameAddr::new(aor)),
        Header::CallId("det-reg".to_owned()),
        Header::CSeq(CSeq::new(1, Method::Register)),
        Header::Contact(NameAddr::new(SipUri::new("roamer", contact_ip))),
        Header::Expires(expires),
        Header::ContentLength(0),
    ];
    req.headers.extend(headers);
    sip(req)
}

/// Sorts by arrival time (stable, so equal times keep their order) and
/// numbers the packets in that order.
fn seal(mut trace: Trace) -> Trace {
    trace.sort_by_key(|(_, at)| *at);
    for (i, (p, _)) in trace.iter_mut().enumerate() {
        p.id = i as u64;
    }
    trace
}

fn timed(packets: Vec<Packet>) -> impl Iterator<Item = (Packet, SimTime)> {
    packets.into_iter().map(|p| (p.clone(), p.sent_at))
}

/// The label of every alert path [`mixed_trace`] exercises.
pub const MIXED_LABELS: [&str; 6] = [
    labels::INVITE_FLOOD,
    labels::RTP_AFTER_BYE,
    labels::RESPONSE_FLOOD,
    labels::REGISTRATION_HIJACK,
    "unassociated-rtp",
    "malformed-sip",
];

/// The full mixed trace, times strictly non-decreasing.
pub fn mixed_trace() -> Trace {
    let mut trace = Vec::new();
    for k in 1..=3u8 {
        clean_call(&mut trace, k, (k as u64 - 1) * 40);
    }
    // INVITE flood against one phone (paper Fig. 4).
    let attacker = Address::new(172, 16, 0, 66, 5060);
    let phone = Address::new(10, 2, 0, 9, 5060);
    let flood = invite_flood((attacker, phone), "bob9", "det-flood", 15, (2_000, 10));
    trace.extend(timed(flood));
    // BYE DoS (paper §3.1 / Fig. 5): the oblivious caller keeps streaming
    // well past T = 200 ms.
    let (setup, attack) = bye_dos("det-victim", 3_000, 3_500);
    trace.extend(timed(setup).chain(timed(attack)));
    // DRDoS reflection: responses to a call nobody monitored.
    let reflector = Address::new(172, 16, 0, 80, 5060);
    let ends = (reflector, Address::new(10, 2, 0, 5, 5060));
    reflection(&mut trace, "det-ghost", ends, (5_000, 5));
    // Strays: unassociated RTP, malformed SIP, three bytes too short for
    // the demux to call RTP, a version-2 header whose CSRC list the parser
    // does not model (malformed RTP), raw background noise.
    let src = Address::new(172, 16, 0, 90, 40_000);
    let dst = Address::new(10, 2, 0, 2, 41_000);
    let on = |port| (src.with_port(port), dst.with_port(port));
    push(&mut trace, (src, dst), rtp(1, 0, 3), 5_200);
    push(&mut trace, on(5060), sip("garbage"), 5_210);
    push(&mut trace, (src, dst), Payload::Rtp(vec![0x80; 3]), 5_220);
    let mut csrc = vec![0; 12];
    csrc[0] = 0x81;
    push(&mut trace, (src, dst), Payload::Rtp(csrc), 5_220);
    push(&mut trace, on(1_000), Payload::Raw(vec![1, 2, 3]), 5_230);
    // Registration, then a hijack attempt from a foreign source.
    let owner = Address::new(10, 0, 0, 20, 5060);
    let registrar = Address::new(10, 2, 0, 1, 5060);
    let register = register_packet(owner, "10.0.0.20", 3_600);
    push(&mut trace, (owner, registrar), register, 5_400);
    let hijack = register_packet(attacker, "172.16.0.66", 3_600);
    push(&mut trace, (attacker, registrar), hijack, 5_500);
    seal(trace)
}

/// Twelve 200 OKs to `id`, a call nobody monitored, from a reflector to
/// its victim, `gap_ms` apart from `t0`.
fn reflection(trace: &mut Trace, id: &str, ends: (Address, Address), (t0, gap_ms): (u64, u64)) {
    let ghost_ok = invite(id, "10.9.9.9", 24_000).response(StatusCode::OK);
    for i in 0..12u64 {
        push(trace, ends, sip(&ghost_ok), t0 + i * gap_ms);
    }
}

/// INVITE, 200 OK and ACK of call `id` between `ends` from `t0`, media
/// caller:20000 ↔ callee:30000. Returns the INVITE.
pub fn setup(trace: &mut Trace, id: &str, ends: (Address, Address), t0: u64) -> Request {
    let inv = invite(id, &ends.0.ip_string(), 20_000);
    push(trace, ends, sip(&inv), t0);
    let answered = answer(&inv, &ends.1.ip_string(), 30_000);
    push(trace, (ends.1, ends.0), answered, t0 + 30);
    let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
    push(trace, ends, sip(ack), t0 + 60);
    inv
}

/// One trace per §6 pattern knob the other corpus traces never move: an
/// RTP flood (350 packets 2 ms apart in one call), a reflection of 12
/// responses 60 ms apart (more than 10 a 1 s window, at most six a 300 ms
/// one), and a finished call's BYE retransmitted 3 s and 7 s after its 200
/// (either side of the 5 s eviction delay), raw datagrams every 200 ms
/// driving the sweeps.
pub fn knob_traces() -> [Trace; 3] {
    let mut flood = Vec::new();
    let (caller, callee) = parties(60);
    let inv = setup(&mut flood, "knob-rtp-flood", (caller, callee), 0);
    let media = (caller.with_port(20_000), callee.with_port(30_000));
    for i in 0..350u16 {
        let at = 100 + u64::from(i) * 2;
        push(&mut flood, media, rtp(1_000 + i, u32::from(i) * 80, 11), at);
    }
    let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
    push(&mut flood, (caller, callee), sip(&bye), 900);
    let mut reflected = Vec::new();
    let reflector = Address::new(172, 16, 0, 81, 5060);
    let ends = (reflector, Address::new(10, 2, 0, 61, 5060));
    reflection(&mut reflected, "knob-ghost", ends, (0, 60));
    let mut evicted = Vec::new();
    dialog(&mut evicted, "knob-eviction", parties(62), None, 0);
    let inv = invite("knob-eviction", &parties(62).0.ip_string(), 20_000);
    let bye = sip(Request::in_dialog(Method::Bye, &inv, 2, Some("tt")));
    push(&mut evicted, parties(62), bye.clone(), 3_290);
    push(&mut evicted, parties(62), bye, 7_290);
    let noise = Address::new(172, 16, 0, 91, 40_002);
    let noise = (noise, Address::new(10, 2, 0, 3, 1_001));
    for i in 0..40u64 {
        push(&mut evicted, noise, Payload::Raw(vec![7; 4]), 300 + i * 200);
    }
    [flood, reflected, evicted].map(seal)
}

/// A fuzzed trace, at least `min_packets` long, 0–2 ms apart: well-formed
/// SIP seeds, mutated SIP texts and mutated RTP/RTCP datagrams from
/// 10.1.1–3.0–4 to 10.2.0.10, SIP on 5060 and media 20000 → 30000.
pub fn fuzzed(seed: u64, min_packets: usize) -> Trace {
    let mut rng = XorShift64::new(seed);
    let sip_seeds = corpus::sip_seeds();
    let mut wire_seeds = corpus::rtp_seeds();
    wire_seeds.extend(corpus::rtcp_seeds());
    let callee = Address::new(10, 2, 0, 10, 5060);
    let (mut trace, mut at_ms) = (Vec::with_capacity(min_packets), 0);
    while trace.len() < min_packets {
        at_ms += rng.below(3) as u64;
        let src = Address::new(10, 1, (rng.below(3) + 1) as u8, rng.below(5) as u8, 5060);
        let payload = match rng.below(4) {
            // An untouched well-formed seed keeps machines moving.
            0 => Payload::Sip(rng.pick(&sip_seeds).clone()),
            // Mutated SIP: the monitor must classify or reject, never skew.
            1 => {
                let mut text = rng.pick(&sip_seeds).clone();
                for _ in 0..=rng.below(3) {
                    text = mutate_sip(&mut rng, &text);
                }
                Payload::Sip(text)
            }
            // Mutated RTP/RTCP wire, from media-looking ports.
            _ => {
                let mut bytes = rng.pick(&wire_seeds).clone();
                for _ in 0..=rng.below(3) {
                    bytes = mutate_wire(&mut rng, &bytes);
                }
                Payload::Rtp(bytes)
            }
        };
        let ends = match payload {
            Payload::Rtp(_) => (src.with_port(20_000), callee.with_port(30_000)),
            _ => (src, callee),
        };
        push(&mut trace, ends, payload, at_ms);
    }
    seal(trace)
}

/// A seeded, reordered corpus case. Every datagram is sent in protocol
/// order and arrives up to 80 ms late, so arrival order — the order the
/// monitor sees, with non-decreasing times — shuffles each call:
///
/// * clean calls, call numbers from 30, starts spread over 4 s;
/// * two calls relayed by an address-rewriting proxy (10.3.0.1): every SIP
///   message crosses the monitor on both legs, under different address
///   pairs, with the same Call-ID;
/// * a later call reusing an earlier callee's media coordinate (same
///   address and port) after the earlier call ended but before it is
///   evicted;
/// * a call whose caller keeps sending media for 8 s after the BYE, past
///   the 5 s eviction delay;
/// * stray RTP to coordinates no call negotiated, a short INVITE flood and
///   40 [`fuzzed`] datagrams spread over 6 s.
pub fn generated(seed: u64) -> Trace {
    let mut rng = XorShift64::new(seed);
    let mut sent = Vec::new();
    for k in 30..40 + rng.below(10) as u8 {
        clean_call(&mut sent, k, rng.below(4_000) as u64);
    }
    let (caller, callee) = (
        |k| Address::new(10, 1, 0, k, 5060),
        |k| Address::new(10, 2, 0, k, 5060),
    );
    let ends = |a, b| (caller(a), callee(b));
    let proxy = Some(Address::new(10, 3, 0, 1, 5060));
    for k in [80, 81] {
        let t = rng.below(4_000) as u64;
        dialog(&mut sent, &format!("gen-proxied-{k}"), ends(k, k), proxy, t);
    }
    // Port reuse: call 90 ends at t + 290; a later call to the same callee
    // answers with the same media coordinate.
    let t = rng.below(3_000) as u64;
    dialog(&mut sent, "gen-reuse-a", ends(90, 90), None, t);
    let t = t + 300 + rng.below(2_000) as u64;
    dialog(&mut sent, "gen-reuse-b", ends(91, 90), None, t);
    // Media that outlives its call: 20 packets, 400 ms apart, after the BYE.
    let t = rng.below(2_000) as u64;
    dialog(&mut sent, "gen-lingering", ends(95, 95), None, t);
    let media = (caller(95).with_port(20_000), callee(95).with_port(30_000));
    for i in 0..20u16 {
        let (at, ts) = (t + 300 + u64::from(i) * 400, (10 + u32::from(i)) * 80);
        push(&mut sent, media, rtp(110 + i, ts, 7), at);
    }
    // Strays, each coordinate hit more than once.
    for _ in 0..3 {
        let dst = Address::new(10, 2, 1, rng.below(4) as u8, 40_000 + rng.below(4) as u16);
        let src = Address::new(172, 16, 1, rng.below(250) as u8, 41_000);
        for i in 0..=rng.below(4) as u16 {
            push(&mut sent, (src, dst), rtp(i, 0, 3), rng.below(6_000) as u64);
        }
    }
    let phone = Address::new(10, 2, 0, 40 + rng.below(8) as u8, 5060);
    let attacker = Address::new(172, 16, 0, 70, 5060);
    let (at, prefix) = ((rng.below(4_000) as u64, 20), format!("gen-flood-{seed}"));
    sent.extend(timed(invite_flood(
        (attacker, phone),
        "bob",
        &prefix,
        12,
        at,
    )));
    for (p, _) in fuzzed(seed, 40) {
        let at = rng.below(6_000) as u64;
        push(&mut sent, (p.src, p.dst), p.payload, at);
    }
    // Arrival: up to 80 ms late, in arrival order.
    for (p, at) in &mut sent {
        *at = SimTime::from_millis(at.as_millis() + rng.below(81) as u64);
        p.sent_at = *at;
    }
    seal(sent)
}
