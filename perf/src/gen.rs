//! Seeded traffic generator: own SIP/SDP/RTP templates, no `vids`
//! serializer anywhere on the input path, so any two commits of the repo
//! are fed identical bytes for the same seed.
//!
//! A workload is a set of *actors* (a call's signalling script, one RTP
//! direction, a flooder), each a time-ordered stream of datagrams. A heap
//! merges them by due time, ties broken by actor index, so neighbouring
//! datagrams belong to different calls the way they do on a real link.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;

/// Seed used when `--seed` is not given; its capture hashes are committed
/// in `golden.txt`.
pub const DEFAULT_SEED: u64 = 2006;

/// An IPv4 address and UDP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    pub ip: u32,
    pub port: u16,
}

const fn ep(ip: u32, port: u16) -> Endpoint {
    Endpoint { ip, port }
}

const fn ipv4(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

/// What the generator meant a datagram to be; the manifest counts these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Sip,
    Rtp,
    /// Deliberately damaged SIP (flood workload only).
    Malformed,
}

/// One generated datagram, borrowed from the generator's scratch buffer.
#[derive(Debug, Clone, Copy)]
pub struct Dgram<'a> {
    /// Capture timestamp, or the due-to-send time of a live plan.
    pub at_us: u64,
    pub src: Endpoint,
    pub dst: Endpoint,
    pub class: Class,
    /// A forged BYE whose alert the live workload times.
    pub probe: bool,
    pub payload: &'a [u8],
}

/// The four workloads. Names are the ones `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MediaSteady,
    SignalingChurn,
    InviteFlood,
    LiveTrickle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MediaSteady,
        Workload::SignalingChurn,
        Workload::InviteFlood,
        Workload::LiveTrickle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MediaSteady => "media_steady",
            Workload::SignalingChurn => "signaling_churn",
            Workload::InviteFlood => "invite_flood",
            Workload::LiveTrickle => "live_trickle",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_live(self) -> bool {
        self == Workload::LiveTrickle
    }
}

/// Sizes of a workload. [`Shape::full`] is what the benchmark runs; tests
/// shrink the counts.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub workload: Workload,
    /// Benign calls.
    pub calls: u32,
    /// RTP packets per direction per benign call.
    pub rtp_per_dir: u32,
    /// Flood INVITEs (flood workload).
    pub flood_invites: u32,
    /// Malformed SIP datagrams (flood workload).
    pub malformed: u32,
    /// Unsolicited 200 OK responses to one victim (flood workload).
    pub unsolicited: u32,
}

impl Shape {
    pub fn full(workload: Workload) -> Shape {
        let (calls, rtp_per_dir, flood_invites, malformed, unsolicited) = match workload {
            Workload::MediaSteady => (1_000, 750, 0, 0, 0),
            Workload::SignalingChurn => (40_000, 2, 0, 0, 0),
            Workload::InviteFlood => (200, 50, 120_000, 6_000, 2_000),
            // 200 calls/s for a 2 s warm-up plus the measured window;
            // `with_live_seconds` resizes it to the run length.
            Workload::LiveTrickle => (LIVE_CALLS_PER_S * crate::metrics::RUN_SECONDS, 0, 0, 0, 0),
        };
        Shape {
            workload,
            calls,
            rtp_per_dir,
            flood_invites,
            malformed,
            unsolicited,
        }
    }

    /// Sizes the live plan for `warmup + measured` seconds of offered load.
    pub fn with_live_seconds(mut self, seconds: u32) -> Shape {
        if self.workload.is_live() {
            self.calls = LIVE_CALLS_PER_S * seconds;
        }
        self
    }
}

/// Offered call rate of the live workload.
pub const LIVE_CALLS_PER_S: u32 = 200;
/// Every n-th live call gets a forged BYE instead of its own.
pub const LIVE_PROBE_EVERY: u32 = 5;
/// The live plan's calls before this instant are warm-up, not measured.
pub const LIVE_WARMUP_US: u64 = 2_000_000;
/// Placeholder addresses of a live plan (the real ones are the sockets').
/// Neither port is 5060, so the capture twin of the plan demuxes through
/// the start-line heuristic exactly as loopback traffic does.
pub const LIVE_SRC: Endpoint = ep(ipv4(127, 0, 0, 1), 40_000);
pub const LIVE_DST: Endpoint = ep(ipv4(127, 0, 0, 1), 15_060);

/// SplitMix64 finalizer: the generator's only source of "randomness".
pub fn mix(a: u64, b: u64) -> u64 {
    let mut h = a ^ b
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// SIP messages a call script can send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Register,
    RegisterOk,
    Invite,
    Trying,
    Ringing,
    Ok,
    Ack,
    Bye,
    ByeOk,
    ForgedBye,
}

/// `(offset from call start in µs, message)`.
type Script = &'static [(u64, Msg)];

const SETUP_ONLY: Script = &[
    (0, Msg::Invite),
    (8_000, Msg::Ringing),
    (40_000, Msg::Ok),
    (45_000, Msg::Ack),
];
const MEDIA_CALL_END: Script = &[(0, Msg::Bye), (5_000, Msg::ByeOk)];
const CHURN_CALL: Script = &[
    (0, Msg::Invite),
    (1_000, Msg::Trying),
    (8_000, Msg::Ringing),
    (30_000, Msg::Ok),
    (33_000, Msg::Ack),
    (120_000, Msg::Bye),
    (124_000, Msg::ByeOk),
];
const CHURN_CALL_REGISTERED: Script = &[
    (0, Msg::Register),
    (2_000, Msg::RegisterOk),
    (10_000, Msg::Invite),
    (11_000, Msg::Trying),
    (18_000, Msg::Ringing),
    (40_000, Msg::Ok),
    (43_000, Msg::Ack),
    (130_000, Msg::Bye),
    (134_000, Msg::ByeOk),
];
const LIVE_CALL: Script = &[
    (0, Msg::Invite),
    (3_000, Msg::Ringing),
    (6_000, Msg::Ok),
    (9_000, Msg::Ack),
    (300_000, Msg::Bye),
    (303_000, Msg::ByeOk),
];
const LIVE_PROBE_CALL: Script = &[
    (0, Msg::Invite),
    (3_000, Msg::Ringing),
    (6_000, Msg::Ok),
    (9_000, Msg::Ack),
    (300_000, Msg::ForgedBye),
];

/// One call's identity. Every name on the wire derives from `key`, which
/// derives from the seed, so a different seed changes every Call-ID, tag
/// and branch but not the shape of the traffic.
#[derive(Debug, Clone, Copy)]
struct Call {
    idx: u32,
    key: u64,
    caller: Endpoint,
    callee: Endpoint,
    caller_rtp: u16,
    callee_rtp: u16,
}

impl Call {
    fn new(seed: u64, workload: Workload, idx: u32) -> Call {
        let key = mix(mix(seed, workload as u64 + 1), idx as u64);
        let (caller, callee) = if workload.is_live() {
            (LIVE_SRC, LIVE_DST)
        } else {
            // Each call has its own address pair: 10.64/10 callers,
            // 10.128/10 callees.
            (
                ep(ipv4(10, 64, 0, 0) + idx, 5060),
                ep(ipv4(10, 128, 0, 0) + idx, 5060),
            )
        };
        Call {
            idx,
            key,
            caller,
            callee,
            caller_rtp: 16_384 + (key as u16 & 0x3ffe),
            callee_rtp: 32_768 + ((key >> 16) as u16 & 0x3ffe),
        }
    }

    fn write_call_id(&self, out: &mut Vec<u8>) {
        let _ = write!(out, "{:016x}-{}@", self.key, self.idx);
        write_ip(out, self.caller.ip);
    }
}

fn write_ip(out: &mut Vec<u8>, ip: u32) {
    let [a, b, c, d] = ip.to_be_bytes();
    let _ = write!(out, "{a}.{b}.{c}.{d}");
}

fn write_sdp(out: &mut Vec<u8>, user_idx: u32, key: u64, ip: u32, port: u16) {
    let _ = write!(out, "v=0\r\no=u{user_idx} {} 1 IN IP4 ", key >> 40);
    write_ip(out, ip);
    out.extend_from_slice(b"\r\ns=call\r\nc=IN IP4 ");
    write_ip(out, ip);
    let _ = write!(
        out,
        "\r\nt=0 0\r\nm=audio {port} RTP/AVP 18\r\na=rtpmap:18 G729/8000\r\na=ptime:20\r\n"
    );
}

/// Writes one SIP message of `call` into `out` (cleared first) and returns
/// `(src, dst)`.
fn write_sip(out: &mut Vec<u8>, sdp: &mut Vec<u8>, call: &Call, msg: Msg) -> (Endpoint, Endpoint) {
    out.clear();
    let from_caller = matches!(
        msg,
        Msg::Register | Msg::Invite | Msg::Ack | Msg::Bye | Msg::ForgedBye
    );
    let (cseq, cseq_method) = match msg {
        Msg::Register | Msg::RegisterOk => (1, "REGISTER"),
        Msg::Invite | Msg::Trying | Msg::Ringing | Msg::Ok => (1, "INVITE"),
        Msg::Ack => (1, "ACK"),
        Msg::Bye | Msg::ByeOk | Msg::ForgedBye => (2, "BYE"),
    };
    // Start line.
    match msg {
        Msg::Register => out.extend_from_slice(b"REGISTER sip:a.example.com SIP/2.0\r\n"),
        Msg::Invite | Msg::Ack | Msg::Bye | Msg::ForgedBye => {
            let _ = write!(out, "{cseq_method} sip:v{}@", call.idx);
            write_ip(out, call.callee.ip);
            out.extend_from_slice(b":5060 SIP/2.0\r\n");
        }
        Msg::Trying => out.extend_from_slice(b"SIP/2.0 100 Trying\r\n"),
        Msg::Ringing => out.extend_from_slice(b"SIP/2.0 180 Ringing\r\n"),
        Msg::RegisterOk | Msg::Ok | Msg::ByeOk => out.extend_from_slice(b"SIP/2.0 200 OK\r\n"),
    }
    // Via: responses echo the request's; each request has its own branch.
    out.extend_from_slice(b"Via: SIP/2.0/UDP ");
    write_ip(out, call.caller.ip);
    let _ = write!(
        out,
        ":5060;branch=z9hG4bK{:016x}\r\n",
        mix(call.key, 0x100 + cseq_method.len() as u64 + cseq)
    );
    if from_caller {
        out.extend_from_slice(b"Max-Forwards: 70\r\n");
    }
    // From / To.
    let registering = matches!(msg, Msg::Register | Msg::RegisterOk);
    let _ = write!(
        out,
        "From: <sip:u{}@a.example.com>;tag={:08x}\r\n",
        call.idx,
        (call.key >> 32) as u32
    );
    if registering {
        let _ = write!(out, "To: <sip:u{}@a.example.com>", call.idx);
    } else {
        let _ = write!(out, "To: <sip:v{}@b.example.com>", call.idx);
    }
    match msg {
        Msg::Register | Msg::Invite | Msg::Trying => {}
        Msg::ForgedBye => {
            let _ = write!(out, ";tag=forged{:08x}", !(call.key as u32));
        }
        _ => {
            let _ = write!(out, ";tag={:08x}", call.key as u32);
        }
    }
    out.extend_from_slice(b"\r\nCall-ID: ");
    call.write_call_id(out);
    let _ = write!(out, "\r\nCSeq: {cseq} {cseq_method}\r\n");
    // Contact and friends.
    match msg {
        Msg::Register | Msg::RegisterOk | Msg::Invite => {
            let _ = write!(out, "Contact: <sip:u{}@", call.idx);
            write_ip(out, call.caller.ip);
            out.extend_from_slice(b":5060>\r\n");
        }
        Msg::Ok => {
            let _ = write!(out, "Contact: <sip:v{}@", call.idx);
            write_ip(out, call.callee.ip);
            out.extend_from_slice(b":5060>\r\n");
        }
        _ => {}
    }
    if registering {
        out.extend_from_slice(b"Expires: 3600\r\n");
    }
    if from_caller {
        out.extend_from_slice(b"User-Agent: vids-perf/1\r\n");
    }
    // Body.
    sdp.clear();
    match msg {
        Msg::Invite => write_sdp(sdp, call.idx, call.key, call.caller.ip, call.caller_rtp),
        Msg::Ok => write_sdp(sdp, call.idx, !call.key, call.callee.ip, call.callee_rtp),
        _ => {}
    }
    if !sdp.is_empty() {
        out.extend_from_slice(b"Content-Type: application/sdp\r\n");
    }
    let _ = write!(out, "Content-Length: {}\r\n\r\n", sdp.len());
    out.extend_from_slice(sdp);
    if from_caller {
        (call.caller, call.callee)
    } else {
        (call.callee, call.caller)
    }
}

/// G.729 at 20 ms: two 10-byte frames, 160 ticks of the 8 kHz clock.
const RTP_PAYLOAD_LEN: usize = 20;
const RTP_TS_STEP: u32 = 160;
const RTP_PERIOD_US: u64 = 20_000;
const RTP_PT_G729: u8 = 18;

enum Actor {
    Script {
        call: Call,
        start_us: u64,
        script: Script,
        step: usize,
    },
    Rtp {
        call: Call,
        reverse: bool,
        start_us: u64,
        count: u32,
        sent: u32,
    },
    /// `count` datagrams at a fixed period, shaped by `kind`.
    Flood {
        kind: FloodKind,
        seed: u64,
        start_us: u64,
        period_ns: u64,
        count: u32,
        sent: u32,
    },
}

#[derive(Clone, Copy)]
enum FloodKind {
    Invite,
    Malformed,
    Unsolicited,
}

const FLOOD_SOURCES: u32 = 5_000;
const FLOOD_CALLEES: u32 = 50;

impl Actor {
    fn next_at(&self) -> Option<u64> {
        match self {
            Actor::Script {
                start_us,
                script,
                step,
                ..
            } => script.get(*step).map(|(off, _)| start_us + off),
            Actor::Rtp {
                start_us,
                count,
                sent,
                ..
            } => (sent < count).then(|| start_us + *sent as u64 * RTP_PERIOD_US),
            Actor::Flood {
                start_us,
                period_ns,
                count,
                sent,
                ..
            } => (sent < count).then(|| start_us + *sent as u64 * period_ns / 1_000),
        }
    }

    /// Writes the actor's next datagram into `out` and advances it.
    fn emit(&mut self, out: &mut Vec<u8>, sdp: &mut Vec<u8>) -> (Endpoint, Endpoint, Class, bool) {
        match self {
            Actor::Script {
                call, script, step, ..
            } => {
                let msg = script[*step].1;
                *step += 1;
                let (src, dst) = write_sip(out, sdp, call, msg);
                (src, dst, Class::Sip, msg == Msg::ForgedBye)
            }
            Actor::Rtp {
                call,
                reverse,
                sent,
                ..
            } => {
                let stream = mix(call.key, 0x200 + *reverse as u64);
                let seq = (stream as u16).wrapping_add(*sent as u16);
                let ts = ((stream >> 16) as u32).wrapping_add(sent.wrapping_mul(RTP_TS_STEP));
                let ssrc = (stream >> 32) as u32;
                out.clear();
                out.push(0x80);
                out.push(RTP_PT_G729 | if *sent == 0 { 0x80 } else { 0 });
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&ts.to_be_bytes());
                out.extend_from_slice(&ssrc.to_be_bytes());
                let mut fill = mix(stream, *sent as u64);
                for _ in 0..RTP_PAYLOAD_LEN / 4 {
                    out.extend_from_slice(&(fill as u32).to_le_bytes());
                    fill = fill.rotate_left(17) ^ stream;
                }
                *sent += 1;
                let caller_media = ep(call.caller.ip, call.caller_rtp);
                let callee_media = ep(call.callee.ip, call.callee_rtp);
                if *reverse {
                    (callee_media, caller_media, Class::Rtp, false)
                } else {
                    (caller_media, callee_media, Class::Rtp, false)
                }
            }
            Actor::Flood {
                kind, seed, sent, ..
            } => {
                let k = *sent;
                *sent += 1;
                let key = mix(*seed, k as u64);
                let source = ep(
                    ipv4(172, 16, 0, 0) + (key % FLOOD_SOURCES as u64) as u32,
                    5060,
                );
                let callee = ep(ipv4(10, 200, 0, 1) + k % FLOOD_CALLEES, 5060);
                match kind {
                    FloodKind::Invite => {
                        // A complete INVITE with SDP and a unique Call-ID:
                        // each one instantiates a call the monitor must hold.
                        let call = Call {
                            idx: 1_000_000 + k,
                            key,
                            caller: source,
                            callee,
                            caller_rtp: 16_384 + (key as u16 & 0x3ffe),
                            callee_rtp: 0,
                        };
                        let (src, dst) = write_sip(out, sdp, &call, Msg::Invite);
                        (src, dst, Class::Sip, false)
                    }
                    FloodKind::Malformed => {
                        out.clear();
                        if k % 2 == 0 {
                            // Truncated inside the start line.
                            let _ = write!(out, "INVITE sip:v{k}@10.200.0.");
                        } else {
                            // Declares far more body than the datagram has.
                            let _ = write!(
                                out,
                                "OPTIONS sip:v{k}@b.example.com SIP/2.0\r\n\
                                 Via: SIP/2.0/UDP 172.16.0.1:5060;branch=z9hG4bK{key:016x}\r\n\
                                 Call-ID: {key:016x}\r\nCSeq: 1 OPTIONS\r\n\
                                 Content-Length: 4294967295\r\n\r\nx"
                            );
                        }
                        (source, callee, Class::Malformed, false)
                    }
                    FloodKind::Unsolicited => {
                        // Reflected 200 OK for calls nobody placed, all to
                        // one victim (DRDoS).
                        let victim = ep(ipv4(10, 201, 0, 1), 5060);
                        out.clear();
                        let _ = write!(
                            out,
                            "SIP/2.0 200 OK\r\n\
                             Via: SIP/2.0/UDP 10.201.0.1:5060;branch=z9hG4bK{key:016x}\r\n\
                             From: <sip:victim@b.example.com>;tag={:08x}\r\n\
                             To: <sip:r{k}@c.example.com>;tag={:08x}\r\n\
                             Call-ID: {key:016x}-r{k}@10.201.0.1\r\nCSeq: 1 INVITE\r\n\
                             Content-Length: 0\r\n\r\n",
                            (key >> 32) as u32,
                            key as u32
                        );
                        (source, victim, Class::Sip, false)
                    }
                }
            }
        }
    }
}

fn actors(shape: &Shape, seed: u64) -> Vec<Actor> {
    let w = shape.workload;
    let mut actors = Vec::new();
    let script = |call: Call, start_us: u64, script: Script| Actor::Script {
        call,
        start_us,
        script,
        step: 0,
    };
    let media = |actors: &mut Vec<Actor>, call: Call, start_us: u64| {
        for reverse in [false, true] {
            // A per-stream phase inside the 20 ms period keeps the two
            // directions, and different calls, from marching in step.
            let phase = mix(call.key, 0x300 + reverse as u64) % RTP_PERIOD_US;
            actors.push(Actor::Rtp {
                call,
                reverse,
                start_us: start_us + phase,
                count: shape.rtp_per_dir,
                sent: 0,
            });
        }
    };
    // Set-up, `rtp_per_dir` packets each way, tear-down once the media ends.
    let media_call = |actors: &mut Vec<Actor>, call: Call, start_us: u64| {
        actors.push(script(call, start_us, SETUP_ONLY));
        media(actors, call, start_us + 60_000);
        let media_us = shape.rtp_per_dir as u64 * RTP_PERIOD_US;
        actors.push(script(call, start_us + 100_000 + media_us, MEDIA_CALL_END));
    };
    match w {
        Workload::MediaSteady => {
            // Every call is set up inside the first second, then talks.
            for idx in 0..shape.calls {
                let start = idx as u64 * 1_000_000 / shape.calls.max(1) as u64;
                media_call(&mut actors, Call::new(seed, w, idx), start);
            }
        }
        Workload::SignalingChurn => {
            // 2 000 new calls per second of capture time.
            for idx in 0..shape.calls {
                let call = Call::new(seed, w, idx);
                let start = idx as u64 * 500;
                let registered = idx % 4 == 0;
                let (s, setup_us) = if registered {
                    (CHURN_CALL_REGISTERED, 50_000)
                } else {
                    (CHURN_CALL, 40_000)
                };
                actors.push(script(call, start, s));
                media(&mut actors, call, start + setup_us);
            }
        }
        Workload::InviteFlood => {
            let flood_us = shape.flood_invites as u64 * 1_000_000 / 6_000;
            for idx in 0..shape.calls {
                let start = idx as u64 * flood_us / shape.calls.max(1) as u64;
                media_call(&mut actors, Call::new(seed, w, idx), start);
            }
            let flood = |kind, count: u32, salt: u64| Actor::Flood {
                kind,
                seed: mix(seed, salt),
                start_us: 500_000,
                period_ns: flood_us * 1_000 / count.max(1) as u64,
                count,
                sent: 0,
            };
            actors.push(flood(FloodKind::Invite, shape.flood_invites, 0xF1));
            actors.push(flood(FloodKind::Malformed, shape.malformed, 0xF2));
            actors.push(flood(FloodKind::Unsolicited, shape.unsolicited, 0xF3));
        }
        Workload::LiveTrickle => {
            let gap_us = 1_000_000 / LIVE_CALLS_PER_S as u64;
            for idx in 0..shape.calls {
                let call = Call::new(seed, w, idx);
                let s = if idx % LIVE_PROBE_EVERY == LIVE_PROBE_EVERY - 1 {
                    LIVE_PROBE_CALL
                } else {
                    LIVE_CALL
                };
                actors.push(script(call, idx as u64 * gap_us, s));
            }
        }
    }
    actors
}

/// Generates the workload's datagrams in time order, handing each to
/// `sink`. The same `(shape, seed)` always yields the same sequence.
pub fn generate(shape: &Shape, seed: u64, mut sink: impl FnMut(Dgram<'_>)) {
    let mut actors = actors(shape, seed);
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = actors
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.next_at().map(|at| Reverse((at, i as u32))))
        .collect();
    let mut payload = Vec::with_capacity(1024);
    let mut sdp = Vec::with_capacity(256);
    while let Some(Reverse((at_us, i))) = heap.pop() {
        let actor = &mut actors[i as usize];
        let (src, dst, class, probe) = actor.emit(&mut payload, &mut sdp);
        sink(Dgram {
            at_us,
            src,
            dst,
            class,
            probe,
            payload: &payload,
        });
        if let Some(next) = actor.next_at() {
            heap.push(Reverse((next, i)));
        }
    }
}

/// The `Call-ID` header value of a SIP payload this generator wrote.
pub fn call_id_of(payload: &[u8]) -> Option<&str> {
    const NAME: &[u8] = b"\r\nCall-ID: ";
    let start = payload.windows(NAME.len()).position(|w| w == NAME)? + NAME.len();
    let len = payload[start..].iter().position(|&b| b == b'\r')?;
    std::str::from_utf8(&payload[start..start + len]).ok()
}

/// Classic pcap (microsecond, little-endian, Ethernet) built in memory.
pub struct PcapBuf {
    pub bytes: Vec<u8>,
}

impl PcapBuf {
    pub fn new() -> PcapBuf {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xa1b2_c3d4u32.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // thiszone
        bytes.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        bytes.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        bytes.extend_from_slice(&1u32.to_le_bytes()); // LINKTYPE_ETHERNET
        PcapBuf { bytes }
    }

    /// Appends one Ethernet/IPv4/UDP frame.
    pub fn push(&mut self, d: &Dgram<'_>) {
        let udp_len = 8 + d.payload.len();
        let ip_len = 20 + udp_len;
        let frame_len = (14 + ip_len) as u32;
        let b = &mut self.bytes;
        b.extend_from_slice(&((d.at_us / 1_000_000) as u32).to_le_bytes());
        b.extend_from_slice(&((d.at_us % 1_000_000) as u32).to_le_bytes());
        b.extend_from_slice(&frame_len.to_le_bytes());
        b.extend_from_slice(&frame_len.to_le_bytes());
        // Ethernet: locally administered MACs carrying the low IP bytes.
        b.extend_from_slice(&[0x02, 0, 0, 0, 0, d.dst.ip as u8]);
        b.extend_from_slice(&[0x02, 0, 0, 0, 1, d.src.ip as u8]);
        b.extend_from_slice(&[0x08, 0x00]);
        // IPv4 header, no options, DF set.
        let mut ip = [0u8; 20];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&(ip_len as u16).to_be_bytes());
        ip[6] = 0x40;
        ip[8] = 64;
        ip[9] = 17;
        ip[12..16].copy_from_slice(&d.src.ip.to_be_bytes());
        ip[16..20].copy_from_slice(&d.dst.ip.to_be_bytes());
        let mut sum: u32 = ip
            .chunks_exact(2)
            .map(|w| u16::from_be_bytes([w[0], w[1]]) as u32)
            .sum();
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        ip[10..12].copy_from_slice(&(!(sum as u16)).to_be_bytes());
        b.extend_from_slice(&ip);
        // UDP header; checksum 0 = not computed, legal over IPv4.
        b.extend_from_slice(&d.src.port.to_be_bytes());
        b.extend_from_slice(&d.dst.port.to_be_bytes());
        b.extend_from_slice(&(udp_len as u16).to_be_bytes());
        b.extend_from_slice(&[0, 0]);
        b.extend_from_slice(d.payload);
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> Shape {
        let mut s = Shape::full(workload);
        s.calls = 40;
        s.rtp_per_dir = s.rtp_per_dir.min(10);
        s.flood_invites = s.flood_invites.min(600);
        s.malformed = s.malformed.min(30);
        s.unsolicited = s.unsolicited.min(20);
        s
    }

    fn capture(shape: &Shape, seed: u64) -> Vec<u8> {
        let mut pcap = PcapBuf::new();
        generate(shape, seed, |d| pcap.push(&d));
        pcap.bytes
    }

    #[test]
    fn same_seed_same_capture_other_seed_other_capture() {
        for w in Workload::ALL {
            let shape = tiny(w);
            let a = fnv1a64(&capture(&shape, 7));
            assert_eq!(a, fnv1a64(&capture(&shape, 7)), "{}", w.name());
            assert_ne!(a, fnv1a64(&capture(&shape, 8)), "{}", w.name());
        }
    }

    #[test]
    fn datagrams_come_out_in_time_order() {
        for w in Workload::ALL {
            let mut last = 0;
            let mut n = 0u32;
            generate(&tiny(w), 1, |d| {
                assert!(d.at_us >= last, "{}: time went backwards", w.name());
                last = d.at_us;
                n += 1;
            });
            assert!(n > 100);
        }
    }

    #[test]
    fn live_plan_marks_every_fifth_call_as_probe() {
        let shape = tiny(Workload::LiveTrickle);
        let mut probes = Vec::new();
        generate(&shape, 3, |d| {
            if d.probe {
                probes.push(call_id_of(d.payload).unwrap().to_owned());
            }
        });
        assert_eq!(probes.len() as u32, shape.calls / LIVE_PROBE_EVERY);
        probes.sort();
        probes.dedup();
        assert_eq!(probes.len() as u32, shape.calls / LIVE_PROBE_EVERY);
    }

    #[test]
    fn capture_reads_back_through_the_ingest_reader() {
        let shape = tiny(Workload::SignalingChurn);
        let mut sent = Vec::new();
        generate(&shape, 5, |d| {
            sent.push((d.at_us, d.src, d.dst, d.payload.to_vec()))
        });
        let bytes = capture(&shape, 5);
        let mut reader = vids_ingest::PcapReader::new(&bytes).unwrap();
        for (at_us, src, dst, payload) in &sent {
            let d = reader
                .next_datagram()
                .unwrap()
                .expect("a datagram per push");
            assert_eq!(d.at.as_nanos(), at_us * 1_000);
            assert_eq!(d.payload, &payload[..]);
            let v4 =
                |e: &Endpoint| std::net::SocketAddr::from((std::net::Ipv4Addr::from(e.ip), e.port));
            assert_eq!((d.src, d.dst), (v4(src), v4(dst)));
        }
        assert!(reader.next_datagram().unwrap().is_none());
    }
}
