//! The Packet Classifier / Event Distributor (Fig. 3).
//!
//! "vids conducts the state transition analysis of packet streams on call by
//! call basis. All the packets belonging to one particular call are assigned
//! to one group. In the group, packets are further classified into subgroups
//! based on the specific protocols." (§5)
//!
//! This module converts wire packets into EFSM events with the argument
//! vector `x̄` the predicates inspect; the per-call grouping (Call-ID for
//! SIP, negotiated media coordinates for RTP) happens in the engine against
//! the fact base.
//!
//! There is one classifier, and the bytes decide. [`classify_payload`]
//! demultiplexes a datagram by its ports and payload ([`demux`]) and
//! classifies what that names; a live socket, a pcap replay and an
//! in-process [`Packet`] (whose payload tag is never read) all go through
//! it, so one datagram classifies one way wherever it comes from.
//!
//! This is the engine's interning boundary. Of the SIP identifiers, only
//! the two the engine keys on — the Call-ID, which groups a call, and a
//! REGISTER's address-of-record, which keys a binding — are borrowed as
//! `&str` slices straight out of the datagram (via [`vids_sip::view`]),
//! interned exactly once, and carried downstream as copyable [`Sym`]s.
//! The From and To tags and the top Via branch are only ever compared by
//! the SIP machine's guards, so they become keyed [`Fingerprint`]s and are
//! stored nowhere: a flood of fresh tags and branches grows no table.
//! Addresses are not text either: the datagram's endpoints, the SDP media
//! address and a REGISTER's Contact host travel as [`Ipv4Addr`] values.
//! Interned text is kept for the life of the process, so this is also
//! where wire strings are *bounded*: a Call-ID or AOR goes through
//! [`Sym::try_intern`], a tag or branch is held to the same
//! [`vids_efsm::intern::MAX_SYMBOL_LEN`] bytes, and a message carrying an
//! identifier that is longer, or a Call-ID or AOR new to a full table, is
//! [`Classified::Malformed`] — flagged, counted, never tracked. A packet
//! allocates nothing here, whether its strings have been seen before or
//! not.

use std::net::Ipv4Addr;

use vids_efsm::intern::{sym, InternError, MAX_SYMBOL_LEN};
use vids_efsm::{Event, Fingerprint, Sym};
use vids_netsim::packet::{Address, Packet, UDP_IP_OVERHEAD};
use vids_rtp::packet::{ParseRtpError, RtpHeader};
use vids_sip::view::{parse_view, SipView, StartLine};
use vids_sip::Method;

use crate::machines::{RtpArgs, SipArgs};

/// The result of classifying one packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Classified {
    /// A parsed SIP message, ready for the per-call SIP machine.
    Sip {
        /// The grouping key, interned.
        call_id: Sym,
        /// The EFSM event (named `SIP.<METHOD>` / `SIP.<class>xx`).
        event: Event,
        /// Whether this is a dialog-forming INVITE (no To tag yet): it may
        /// instantiate a new call in the fact base.
        is_initial_invite: bool,
        /// Whether the message is a request.
        is_request: bool,
        /// Destination ip (flood machines group by destination).
        dst_ip: u32,
    },
    /// A parsed RTP packet, ready for a per-call RTP machine.
    Rtp {
        /// The EFSM event (named `RTP.Packet`).
        event: Event,
    },
    /// Unparseable traffic claiming to be SIP or RTP.
    Malformed {
        /// `"SIP"` or `"RTP"`.
        protocol: &'static str,
        /// Parser diagnosis; static so flagging damage never allocates.
        reason: &'static str,
    },
    /// Traffic vids does not monitor: RTCP, and whatever the demux
    /// recognises as neither SIP nor RTP.
    Ignored,
}

// Sizes are facts: one of these crosses the shard hand-off per datagram.
const _: () = assert!(std::mem::size_of::<Classified>() <= 160);

/// Classifies one in-process packet: its payload's bytes through
/// [`classify_payload`]. The payload's tag plays no part.
pub fn classify(packet: &Packet) -> Classified {
    let payload = packet.payload.as_bytes();
    let class = demux(packet.src.port, packet.dst.port, payload);
    classify_as(class, payload, packet.src, packet.dst)
}

/// The well-known SIP signaling port.
pub const SIP_PORT: u16 = 5060;

/// What the demultiplexer decided a datagram carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireClass {
    /// SIP signaling (port 5060 on either side).
    Sip,
    /// RTP media (version-2 header, non-RTCP payload type).
    Rtp,
    /// RTCP control (version-2 header, packet type in RFC 5761's reserved
    /// 192–223 range). Monitored implicitly through RTP; the engine
    /// ignores it.
    Rtcp,
    /// An address family the engine does not model: plain IPv6 without an
    /// IPv4-mapped form. Never produced by [`demux`] (which sees only the
    /// payload); only the ingest tier's `classify_datagram` returns it, so
    /// it can count v6 drops separately from payload junk.
    Ipv6,
    /// Anything else; the engine ignores it, the ingest tier counts it.
    Unknown,
}

/// Decides the protocol of one UDP payload. Total and allocation-free.
///
/// Port 5060 claims the datagram for SIP outright; otherwise the RTP
/// version bits are probed first (media vastly outnumbers signaling),
/// then a SIP start-line prefix — so a daemon listening on a
/// non-standard port still sees its signaling.
#[inline]
pub fn demux(src_port: u16, dst_port: u16, payload: &[u8]) -> WireClass {
    if src_port == SIP_PORT || dst_port == SIP_PORT {
        return WireClass::Sip;
    }
    // An RTP fixed header is 12 bytes and starts with version 2 in the
    // top two bits. RTCP shares the version bits; its second byte is the
    // packet type, and RFC 5761 §4 reserves the whole 192–223 range for
    // RTCP when multiplexed with RTP (192–195 legacy FIR/NACK/SMPTETC/IJ,
    // 200–204 SR through APP, 205–207 RTPFB/PSFB/XR, the rest unassigned
    // but reserved). Those values collide with RTP payload types 64–95
    // only when the marker bit is set, which real codecs do not combine
    // with payload types in that band.
    if payload.len() >= 12 && payload[0] >> 6 == 2 {
        if (192..=223).contains(&payload[1]) {
            return WireClass::Rtcp;
        }
        return WireClass::Rtp;
    }
    if starts_like_sip(payload) {
        return WireClass::Sip;
    }
    WireClass::Unknown
}

/// RFC 3261 start-line prefixes: a response status line or a request
/// method followed by a space.
///
/// Instead of fourteen prefix compares this does one 8-byte magic compare
/// for the status line, then scans the leading token run (clamped to the
/// longest method plus one, so hostile all-token payloads cost O(1)) and
/// resolves it with [`Method::from_token`]'s length dispatch. A token
/// that isn't followed by exactly one space, or that isn't a known
/// method, is not a start line — same decisions as the prefix table.
fn starts_like_sip(payload: &[u8]) -> bool {
    const STATUS_MAGIC: &[u8; 8] = b"SIP/2.0 ";
    if payload.len() >= 8 && &payload[..8] == STATUS_MAGIC {
        return true;
    }
    // No known method is longer than SUBSCRIBE (9 bytes); a 10-byte run
    // can't resolve, so nothing past byte 9 needs scanning.
    let head = &payload[..payload.len().min(10)];
    let run = vids_scan::token_run(head);
    if run == 0 || run >= payload.len() || payload[run] != b' ' {
        return false;
    }
    Method::from_token(&payload[..run]).is_some()
}

/// The Packet Classifier: demultiplexes one datagram between `src` and
/// `dst` ([`demux`]) and classifies its payload as what that names. RTCP
/// and unknown payloads are [`Classified::Ignored`]. Returns the demux
/// decision alongside, so the ingest tier can count `DemuxUnknown`. Total:
/// any bytes classify, and none panic.
#[inline]
pub fn classify_payload(src: Address, dst: Address, payload: &[u8]) -> (WireClass, Classified) {
    let class = demux(src.port, dst.port, payload);
    (class, classify_as(class, payload, src, dst))
}

/// [`classify_payload`]'s second half, shared with [`classify`], which
/// builds its result in place rather than moving it out of a pair (a
/// copy of one `Classified` per packet).
#[inline]
fn classify_as(class: WireClass, payload: &[u8], src: Address, dst: Address) -> Classified {
    match class {
        WireClass::Sip => classify_wire(WireProto::Sip, payload, src, dst),
        WireClass::Rtp => classify_wire(WireProto::Rtp, payload, src, dst),
        WireClass::Rtcp | WireClass::Ipv6 | WireClass::Unknown => Classified::Ignored,
    }
}

/// The protocol a datagram's payload is parsed as: what [`demux`] decided,
/// or what a recorded dump says it decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireProto {
    /// Treat the payload as a SIP message (UTF-8 text).
    Sip,
    /// Treat the payload as an RTP packet (binary header).
    Rtp,
}

/// Parses one datagram payload as `proto`, without materializing a
/// [`Packet`]. [`classify_payload`] calls it with the demux's decision;
/// a `.vdump` replay calls it with the decision the dump recorded.
pub fn classify_wire(proto: WireProto, payload: &[u8], src: Address, dst: Address) -> Classified {
    match proto {
        WireProto::Sip => match std::str::from_utf8(payload) {
            Ok(text) => classify_sip_text(text, src, dst),
            Err(_) => Classified::Malformed {
                protocol: "SIP",
                reason: "SIP datagram is not valid UTF-8",
            },
        },
        WireProto::Rtp => classify_rtp_bytes(payload, src, dst),
    }
}

fn classify_sip_text(text: &str, src: Address, dst: Address) -> Classified {
    parse_view(text)
        .map_err(|e| e.reason())
        .and_then(|view| sip_event(&view, src, dst).map_err(InternError::reason))
        .unwrap_or_else(|reason| Classified::Malformed {
            protocol: "SIP",
            reason,
        })
}

fn classify_rtp_bytes(bytes: &[u8], src: Address, dst: Address) -> Classified {
    let wire_bytes = (bytes.len() + UDP_IP_OVERHEAD) as u64;
    RtpHeader::parse(bytes)
        .map_err(rtp_reason)
        .map(|header| rtp_event(&header, src, dst, wire_bytes))
        .map_or_else(
            |reason| Classified::Malformed {
                protocol: "RTP",
                reason,
            },
            |event| Classified::Rtp { event },
        )
}

/// The pre-seeded EFSM event name for a request method: `SIP.<METHOD>`.
pub fn method_event_sym(method: Method) -> Sym {
    match method {
        Method::Invite => sym::SIP_INVITE,
        Method::Ack => sym::SIP_ACK,
        Method::Bye => sym::SIP_BYE,
        Method::Cancel => sym::SIP_CANCEL,
        Method::Register => sym::SIP_REGISTER,
        Method::Options => sym::SIP_OPTIONS,
        Method::Info => sym::SIP_INFO,
        Method::Update => sym::SIP_UPDATE,
        Method::Prack => sym::SIP_PRACK,
        Method::Subscribe => sym::SIP_SUBSCRIBE,
        Method::Notify => sym::SIP_NOTIFY,
        Method::Refer => sym::SIP_REFER,
        Method::MessageMethod => sym::SIP_MESSAGE,
    }
}

/// The pre-seeded CSeq method argument value: the method's wire token.
pub fn cseq_method_sym(method: Method) -> Sym {
    match method {
        Method::Invite => sym::METHOD_INVITE,
        Method::Ack => sym::METHOD_ACK,
        Method::Bye => sym::METHOD_BYE,
        Method::Cancel => sym::METHOD_CANCEL,
        Method::Register => sym::METHOD_REGISTER,
        Method::Options => sym::METHOD_OPTIONS,
        Method::Info => sym::METHOD_INFO,
        Method::Update => sym::METHOD_UPDATE,
        Method::Prack => sym::METHOD_PRACK,
        Method::Subscribe => sym::METHOD_SUBSCRIBE,
        Method::Notify => sym::METHOD_NOTIFY,
        Method::Refer => sym::METHOD_REFER,
        Method::MessageMethod => sym::METHOD_MESSAGE,
    }
}

fn rtp_reason(e: ParseRtpError) -> &'static str {
    match e {
        ParseRtpError::TooShort { .. } => "RTP packet too short",
        ParseRtpError::BadVersion { .. } => "unsupported RTP version",
        ParseRtpError::UnsupportedCsrc { .. } => "unsupported CSRC count",
        ParseRtpError::UnsupportedExtension => "unsupported header extension",
    }
}

/// A tag or branch as the machines compare it: absent and empty are both
/// the empty fingerprint. Nothing is stored, but the symbol bound holds all
/// the same, so an over-long tag or branch is malformed as it always was.
fn tag_fingerprint(text: Option<&str>) -> Result<Fingerprint, InternError> {
    match text {
        Some(text) if text.len() > MAX_SYMBOL_LEN => Err(InternError::TooLong),
        text => Ok(Fingerprint::of(text.unwrap_or(""))),
    }
}

/// Interns `user@host`, assembled on the stack: an address-of-record too
/// long to be a symbol is refused before anything is built from it.
fn aor_sym(user: &str, host: &str) -> Result<Sym, InternError> {
    let mut buf = [0u8; MAX_SYMBOL_LEN];
    let at = user.len();
    let len = at + 1 + host.len();
    if len > MAX_SYMBOL_LEN {
        return Err(InternError::TooLong);
    }
    buf[..at].copy_from_slice(user.as_bytes());
    buf[at] = b'@';
    buf[at + 1..len].copy_from_slice(host.as_bytes());
    Sym::try_intern(std::str::from_utf8(&buf[..len]).expect("two strs joined by an ASCII byte"))
}

fn sip_event(view: &SipView<'_>, src: Address, dst: Address) -> Result<Classified, InternError> {
    let call_id = Sym::try_intern(view.call_id)?;
    let name = match view.start {
        StartLine::Request { method, .. } => method_event_sym(method),
        StartLine::Response { status } => {
            if status.is_provisional() {
                sym::SIP_1XX
            } else if status.is_success() {
                sym::SIP_2XX
            } else if status.is_redirect() {
                sym::SIP_3XX
            } else {
                sym::SIP_FAILURE
            }
        }
    };
    let to_tag = view.to.and_then(|t| t.tag);
    let a = SipArgs::get();
    let mut event = SipArgs::event(name);
    event.set(a.src_ip, Ipv4Addr::from(src.ip));
    event.set(a.dst_ip, Ipv4Addr::from(dst.ip));
    event.set(a.call_id, call_id);
    event.set(a.from_tag, tag_fingerprint(view.from.and_then(|f| f.tag))?);
    event.set(a.to_tag, tag_fingerprint(to_tag)?);
    event.set(a.branch, tag_fingerprint(view.branch)?);
    if let Some((seq, method)) = view.cseq {
        event.set(a.cseq, seq as u64);
        event.set(a.cseq_method, cseq_method_sym(method));
    }
    if let Some(status) = view.status() {
        event.set(a.status, status.as_u16() as u64);
    }

    let is_register = view.method() == Some(Method::Register);
    // REGISTER: arguments for the registration-monitoring machine. AORs
    // are interned like Call-IDs; a Contact host is an address only when it
    // is a dotted quad, like an SDP media address.
    if is_register {
        if let Some(to) = view.to {
            event.set(a.aor, aor_sym(to.user().unwrap_or(""), to.host())?);
        }
        if let Some(ip) = view.contact.and_then(|c| c.host().parse().ok()) {
            event.set(a.contact_ip, ip);
        }
        event.set(a.expires, view.expires.map_or(3_600, u64::from));
    }

    // SDP bodies feed the RTP machine's media coordinates. A REGISTER is
    // no part of a call — its event goes to the registration machine alone
    // — so a body on one is not scanned.
    if !is_register && view.content_type == Some(vids_sdp::MIME_TYPE) {
        if let Some(sdp) = scan_sdp(view.body) {
            event.set(a.has_sdp, true);
            if let Some(ip) = sdp.ip {
                event.set(a.sdp_ip, ip);
            }
            event.set(a.sdp_port, sdp.port);
            if let Some(pt) = sdp.pt {
                event.set(a.sdp_pt, pt);
            }
        }
    }

    let is_initial_invite = view.method() == Some(Method::Invite) && to_tag.is_none();
    Ok(Classified::Sip {
        call_id,
        event,
        is_initial_invite,
        is_request: view.is_request(),
        dst_ip: dst.ip,
    })
}

struct SdpScan {
    /// The media address, if it is a dotted quad. Media is followed by
    /// numeric address, so any other (a host name, nothing at all) is an
    /// address no RTP packet can match: the argument is left absent.
    ip: Option<Ipv4Addr>,
    port: u64,
    pt: Option<u64>,
}

/// Scans an SDP body for the effective connection address and the first
/// `m=audio` section, borrowing slices instead of building a
/// [`vids_sdp::SessionDescription`]. Session-level `c=` wins over the
/// origin address, matching `SessionDescription::media_addr`.
fn scan_sdp(body: &str) -> Option<SdpScan> {
    let mut origin = "";
    let mut connection = "";
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("o=") {
            origin = rest.split_whitespace().next_back().unwrap_or("");
        } else if let Some(rest) = line.strip_prefix("c=") {
            connection = rest.strip_prefix("IN IP4 ")?.trim();
        } else if let Some(rest) = line.strip_prefix("m=audio ") {
            let mut tokens = rest.split_whitespace();
            let port: u16 = tokens.next()?.parse().ok()?;
            if tokens.next()? != "RTP/AVP" {
                return None;
            }
            let pt = tokens
                .next()
                .and_then(|t| t.parse::<u8>().ok())
                .map(u64::from);
            let ip = if connection.is_empty() {
                origin
            } else {
                connection
            };
            return Some(SdpScan {
                ip: ip.parse().ok(),
                port: port as u64,
                pt,
            });
        }
    }
    None
}

fn rtp_event(header: &RtpHeader, src: Address, dst: Address, wire_bytes: u64) -> Event {
    let a = RtpArgs::get();
    let mut event = RtpArgs::event(sym::RTP_PACKET);
    event.set(a.src_ip, Ipv4Addr::from(src.ip));
    event.set(a.dst_ip, Ipv4Addr::from(dst.ip));
    event.set(a.src_port, src.port as u64);
    event.set(a.dst_port, dst.port as u64);
    event.set(a.ssrc, header.ssrc as u64);
    event.set(a.seq, header.sequence_number as u64);
    event.set(a.ts, header.timestamp as u64);
    event.set(a.pt, header.payload_type as u64);
    event.set(a.size, wire_bytes);
    event
}

#[cfg(test)]
mod tests {
    use super::*;
    use vids_netsim::packet::{Address, Payload};
    use vids_netsim::time::SimTime;
    use vids_rtp::packet::RtpPacket;
    use vids_sdp::{Codec, SessionDescription};
    use vids_sip::message::Request;
    use vids_sip::{SipUri, StatusCode};

    fn packet(payload: Payload) -> Packet {
        Packet {
            src: Address::new(10, 1, 0, 10, 5060),
            dst: Address::new(10, 2, 0, 10, 5060),
            payload,
            id: 1,
            sent_at: SimTime::ZERO,
        }
    }

    fn invite_with_sdp() -> Request {
        let sdp = SessionDescription::audio_offer("alice", "10.1.0.10", 20_000, &[Codec::G729]);
        Request::invite(
            &SipUri::new("alice", "a.example.com"),
            &SipUri::new("bob", "b.example.com"),
            "cls-1",
        )
        .with_body(vids_sdp::MIME_TYPE, sdp.to_string())
    }

    #[test]
    fn classifies_initial_invite_with_sdp() {
        let pkt = packet(Payload::Sip(invite_with_sdp().to_string()));
        let Classified::Sip {
            call_id,
            event,
            is_initial_invite,
            is_request,
            dst_ip,
        } = classify(&pkt)
        else {
            panic!("expected SIP");
        };
        assert_eq!(call_id, "cls-1");
        assert!(is_initial_invite);
        assert!(is_request);
        assert_eq!(dst_ip, Address::new(10, 2, 0, 10, 0).ip);
        assert_eq!(event.name, "SIP.INVITE");
        let caller = Ipv4Addr::new(10, 1, 0, 10);
        assert_eq!(event.args().ip("src_ip"), Some(caller));
        assert_eq!(event.get(SipArgs::get().has_sdp), Some(true));
        assert_eq!(event.args().ip("sdp_ip"), Some(caller));
        assert_eq!(event.args().uint("sdp_port"), Some(20_000));
        assert_eq!(event.args().uint("sdp_pt"), Some(18));
        assert_eq!(event.args().uint("cseq"), Some(1));
    }

    #[test]
    fn response_classes_map_to_event_names() {
        let inv = invite_with_sdp();
        for (status, name) in [
            (StatusCode::RINGING, "SIP.1xx"),
            (StatusCode::OK, "SIP.2xx"),
            (StatusCode::MOVED_TEMPORARILY, "SIP.3xx"),
            (StatusCode::BUSY_HERE, "SIP.failure"),
        ] {
            let resp = inv.response(status);
            let pkt = packet(Payload::Sip(resp.to_string()));
            let Classified::Sip { event, .. } = classify(&pkt) else {
                panic!("expected SIP");
            };
            assert_eq!(event.name, name);
            assert_eq!(event.args().uint("status"), Some(status.as_u16() as u64));
        }
    }

    #[test]
    fn reinvite_is_not_initial() {
        let mut inv = invite_with_sdp();
        inv.headers.to_header_mut().unwrap().set_tag("established");
        let pkt = packet(Payload::Sip(inv.to_string()));
        let Classified::Sip {
            is_initial_invite, ..
        } = classify(&pkt)
        else {
            panic!("expected SIP");
        };
        assert!(!is_initial_invite);
    }

    #[test]
    fn classifies_rtp() {
        let rtp = RtpPacket::new(18, 42, 3360, 0xABCD).with_payload(vec![0; 10]);
        let mut pkt = packet(Payload::Rtp(rtp.to_bytes()));
        pkt.src = Address::new(10, 1, 0, 10, 20_000);
        pkt.dst = Address::new(10, 2, 0, 10, 30_000);
        let Classified::Rtp { event } = classify(&pkt) else {
            panic!("expected RTP");
        };
        assert_eq!(event.name, "RTP.Packet");
        assert_eq!(event.args().uint("ssrc"), Some(0xABCD));
        assert_eq!(event.args().uint("seq"), Some(42));
        assert_eq!(event.args().uint("ts"), Some(3360));
        assert_eq!(event.args().uint("pt"), Some(18));
        assert_eq!(event.args().uint("dst_port"), Some(30_000));
    }

    #[test]
    fn malformed_traffic_is_flagged() {
        let pkt = packet(Payload::Sip("NOT SIP AT ALL".to_owned()));
        assert!(matches!(
            classify(&pkt),
            Classified::Malformed {
                protocol: "SIP",
                ..
            }
        ));
        // A version-2 header with a CSRC list: RTP to the demux, more than
        // the parser models.
        let mut pkt = packet(Payload::Rtp(vec![0x81, 18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]));
        pkt.src.port = 20_000;
        pkt.dst.port = 30_000;
        assert_eq!(
            classify(&pkt),
            Classified::Malformed {
                protocol: "RTP",
                reason: "unsupported CSRC count",
            }
        );
    }

    #[test]
    fn register_carries_registration_args() {
        use vids_sip::headers::{CSeq, Header, NameAddr, Via};
        let aor = SipUri::new("roamer", "b.example.com");
        let mut req = Request::new(
            vids_sip::Method::Register,
            SipUri::host_only("b.example.com"),
        );
        req.headers
            .push(Header::Via(Via::udp("10.0.0.20", 5060, "z9hG4bK-r")));
        req.headers
            .push(Header::From(NameAddr::new(aor.clone()).with_tag("t")));
        req.headers.push(Header::To(NameAddr::new(aor)));
        req.headers.push(Header::CallId("reg-1".to_owned()));
        req.headers
            .push(Header::CSeq(CSeq::new(1, vids_sip::Method::Register)));
        req.headers.push(Header::Contact(NameAddr::new(SipUri::new(
            "roamer",
            "10.0.0.20",
        ))));
        req.headers.push(Header::Expires(600));
        let pkt = packet(Payload::Sip(req.to_string()));
        let Classified::Sip { event, .. } = classify(&pkt) else {
            panic!("expected SIP");
        };
        assert_eq!(event.name, "SIP.REGISTER");
        assert_eq!(event.args().str("aor"), Some("roamer@b.example.com"));
        assert_eq!(
            event.args().ip("contact_ip"),
            Some(Ipv4Addr::new(10, 0, 0, 20))
        );
        assert_eq!(event.args().uint("expires"), Some(600));
    }

    #[test]
    fn a_register_body_is_not_scanned() {
        use vids_sip::headers::{CSeq, Header, NameAddr, Via};
        let aor = SipUri::new("roamer", "b.example.com");
        let sdp = SessionDescription::audio_offer("x", "10.0.0.20", 20_000, &[Codec::G729]);
        let mut req = Request::new(
            vids_sip::Method::Register,
            SipUri::host_only("b.example.com"),
        );
        req.headers
            .push(Header::Via(Via::udp("10.0.0.20", 5060, "z9hG4bK-r")));
        req.headers
            .push(Header::From(NameAddr::new(aor.clone()).with_tag("t")));
        req.headers.push(Header::To(NameAddr::new(aor)));
        req.headers.push(Header::CallId("reg-sdp".to_owned()));
        req.headers
            .push(Header::CSeq(CSeq::new(1, vids_sip::Method::Register)));
        req.headers.push(Header::Contact(NameAddr::new(SipUri::new(
            "roamer",
            "10.0.0.20",
        ))));
        req.headers.push(Header::Expires(600));
        let req = req.with_body(vids_sdp::MIME_TYPE, sdp.to_string());
        let Classified::Sip { event, .. } = classify(&packet(Payload::Sip(req.to_string()))) else {
            panic!("expected SIP");
        };
        // The widest REGISTER: eight common arguments plus its own three.
        assert_eq!(event.args().len(), 11);
        assert_eq!(event.get(SipArgs::get().has_sdp), None);
    }

    #[test]
    fn register_without_expires_defaults_to_3600() {
        use vids_sip::headers::{Header, NameAddr};
        let aor = SipUri::new("u", "b.example.com");
        let mut req = Request::new(
            vids_sip::Method::Register,
            SipUri::host_only("b.example.com"),
        );
        req.headers.push(Header::To(NameAddr::new(aor)));
        req.headers.push(Header::CallId("reg-2".to_owned()));
        let pkt = packet(Payload::Sip(req.to_string()));
        let Classified::Sip { event, .. } = classify(&pkt) else {
            panic!("expected SIP");
        };
        assert_eq!(event.args().uint("expires"), Some(3_600));
    }

    #[test]
    fn raw_traffic_is_ignored() {
        let mut pkt = packet(Payload::Raw(vec![1, 2, 3]));
        pkt.src.port = 20_000;
        pkt.dst.port = 30_000;
        assert_eq!(classify(&pkt), Classified::Ignored);
    }

    #[test]
    fn classify_wire_matches_in_process_classification() {
        let src = Address::new(10, 1, 0, 10, 5060);
        let dst = Address::new(10, 2, 0, 10, 5060);
        let text = invite_with_sdp().to_string();
        assert_eq!(
            classify_wire(WireProto::Sip, text.as_bytes(), src, dst),
            classify(&packet(Payload::Sip(text.clone())))
        );

        let rtp = RtpPacket::new(18, 42, 3360, 0xABCD)
            .with_payload(vec![0; 10])
            .to_bytes();
        let mut pkt = packet(Payload::Rtp(rtp.clone()));
        pkt.src = Address::new(10, 1, 0, 10, 20_000);
        pkt.dst = Address::new(10, 2, 0, 10, 30_000);
        assert_eq!(
            classify_wire(WireProto::Rtp, &rtp, pkt.src, pkt.dst),
            classify(&pkt)
        );

        assert_eq!(
            classify_wire(WireProto::Sip, b"NOT SIP AT ALL", src, dst),
            classify(&packet(Payload::Sip("NOT SIP AT ALL".to_owned())))
        );
        // Two bytes on port 5060 are SIP to the demux, whatever the tag.
        assert_eq!(
            classify_wire(WireProto::Sip, &[0x00, 0x01], src, dst),
            classify(&packet(Payload::Rtp(vec![0x00, 0x01])))
        );
    }

    #[test]
    fn port_5060_wins_over_payload_shape() {
        let rtp_looking = [0x80u8; 12];
        assert_eq!(demux(5060, 40_000, &rtp_looking), WireClass::Sip);
        assert_eq!(demux(40_000, 5060, &rtp_looking), WireClass::Sip);
        assert_eq!(demux(40_000, 40_001, &rtp_looking), WireClass::Rtp);
    }

    #[test]
    fn rtcp_packet_types_split_from_rtp() {
        let mut pkt = [0x80u8; 12];
        for pt in 192..=223u8 {
            pkt[1] = pt;
            assert_eq!(
                demux(40_000, 40_001, &pkt),
                WireClass::Rtcp,
                "packet type {pt} is in RFC 5761's reserved RTCP range"
            );
        }
        pkt[1] = 18; // G.729
        assert_eq!(demux(40_000, 40_001, &pkt), WireClass::Rtp);
    }

    /// Regression pins for the 200–204 → 192–223 widening: the boundary
    /// values on both sides, plus the RTPFB/PSFB types (205/206) that used
    /// to reach the RTP machine as a phantom media stream.
    #[test]
    fn rtcp_range_boundaries_pin_rfc_5761() {
        let mut pkt = [0x80u8; 12];
        for (pt, want) in [
            (191u8, WireClass::Rtp), // marker + PT 63: below the range
            (192, WireClass::Rtcp),  // legacy FIR (RFC 2032)
            (205, WireClass::Rtcp),  // RTPFB (RFC 4585)
            (206, WireClass::Rtcp),  // PSFB (RFC 4585)
            (223, WireClass::Rtcp),  // top of the reserved range
            (224, WireClass::Rtp),   // marker + PT 96: dynamic payload
        ] {
            pkt[1] = pt;
            assert_eq!(demux(40_000, 40_001, &pkt), want, "packet type {pt}");
        }
    }

    #[test]
    fn sip_start_lines_are_signaling_on_any_port() {
        let invite = b"INVITE sip:bob@10.2.0.10 SIP/2.0\r\n\r\n";
        assert_eq!(demux(44_000, 15_060, invite), WireClass::Sip);
        let resp = b"SIP/2.0 200 OK\r\n\r\n";
        assert_eq!(demux(15_060, 44_000, resp), WireClass::Sip);
        // A bare method name without the trailing space is not a
        // start line.
        assert_eq!(demux(44_000, 15_060, b"INVITE"), WireClass::Unknown);
    }

    #[test]
    fn short_or_versionless_payloads_are_unknown() {
        assert_eq!(demux(40_000, 40_001, &[0x80; 11]), WireClass::Unknown);
        assert_eq!(demux(40_000, 40_001, &[0x00; 12]), WireClass::Unknown);
        assert_eq!(demux(40_000, 40_001, b""), WireClass::Unknown);
    }

    #[test]
    fn rtcp_in_an_rtp_tagged_packet_is_ignored() {
        let mut sender_report = vec![0x80u8; 28];
        sender_report[1] = 200;
        let mut pkt = packet(Payload::Rtp(sender_report));
        pkt.src.port = 20_001;
        pkt.dst.port = 30_001;
        assert_eq!(classify(&pkt), Classified::Ignored);
    }

    #[test]
    fn non_utf8_sip_datagram_is_malformed() {
        let src = Address::new(10, 1, 0, 10, 5060);
        let dst = Address::new(10, 2, 0, 10, 5060);
        assert!(matches!(
            classify_wire(WireProto::Sip, &[0xFF, 0xFE, 0x00], src, dst),
            Classified::Malformed {
                protocol: "SIP",
                ..
            }
        ));
    }

    #[test]
    fn a_datagrams_addresses_are_values_never_symbols() {
        let rtp = RtpPacket::new(18, 42, 3360, 0xABCD).to_bytes();
        let src = Address::new(10, 77, 3, 201, 20_000);
        let dst = Address::new(10, 78, 4, 9, 30_000);
        let Classified::Rtp { event } = classify_wire(WireProto::Rtp, &rtp, src, dst) else {
            panic!("expected RTP");
        };
        assert_eq!(
            event.args().ip("src_ip"),
            Some(Ipv4Addr::new(10, 77, 3, 201))
        );
        assert_eq!(RtpArgs::get().dst(&event).to_string(), "10.78.4.9:30000");
        for text in [src.ip_string(), dst.ip_string()] {
            assert_eq!(Sym::lookup(&text), None, "{text}");
        }
    }

    #[test]
    fn cseq_method_sym_is_the_wire_token_of_every_method() {
        for m in Method::ALL {
            assert_eq!(cseq_method_sym(m).as_str(), m.as_str());
            assert!(cseq_method_sym(m).is_preseeded());
        }
    }

    /// An INVITE whose Call-ID, From-tag and Via branch are the given
    /// strings, as wire text.
    fn invite_text(call_id: &str, from_tag: &str, branch: &str) -> String {
        format!(
            "INVITE sip:bob@b.example.com SIP/2.0\r\n\
             Via: SIP/2.0/UDP 10.1.0.10:5060;branch={branch}\r\n\
             From: <sip:alice@a.example.com>;tag={from_tag}\r\n\
             To: <sip:bob@b.example.com>\r\n\
             Call-ID: {call_id}\r\n\
             CSeq: 1 INVITE\r\n\
             Content-Length: 0\r\n\r\n"
        )
    }

    #[test]
    fn an_identifier_past_the_symbol_bound_is_malformed_and_never_interned() {
        let src = Address::new(10, 1, 0, 10, 5060);
        let dst = Address::new(10, 2, 0, 10, 5060);
        let classify = |text: String| classify_wire(WireProto::Sip, text.as_bytes(), src, dst);
        let fill = |c: char, len: usize| c.to_string().repeat(len);

        // At the bound every field still classifies.
        let at_bound = classify(invite_text(
            &fill('c', MAX_SYMBOL_LEN),
            &fill('t', MAX_SYMBOL_LEN),
            &fill('b', MAX_SYMBOL_LEN),
        ));
        let Classified::Sip { call_id, event, .. } = at_bound else {
            panic!("255-byte identifiers must classify, got {at_bound:?}");
        };
        assert_eq!(call_id.as_str().len(), MAX_SYMBOL_LEN);
        assert_eq!(
            event.get(SipArgs::get().from_tag),
            Some(Fingerprint::of(&fill('t', MAX_SYMBOL_LEN)))
        );
        assert_eq!(
            event.get(SipArgs::get().branch),
            Some(Fingerprint::of(&fill('b', MAX_SYMBOL_LEN)))
        );

        // One byte more in any of them: malformed, and the long string is
        // not kept. Other tests intern concurrently, so that is checked by
        // lookup here and by count in `tests/alloc_budget.rs`, which is
        // alone in its process.
        let long = MAX_SYMBOL_LEN + 1;
        for (n, (call_id, tag, branch)) in [
            (
                fill('C', long),
                "bound-tag-0".to_owned(),
                "bound-br-0".to_owned(),
            ),
            (
                "bound-cid-1".to_owned(),
                fill('T', long),
                "bound-br-1".to_owned(),
            ),
            (
                "bound-cid-2".to_owned(),
                "bound-tag-2".to_owned(),
                fill('B', long),
            ),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(
                classify(invite_text(&call_id, &tag, &branch)),
                Classified::Malformed {
                    protocol: "SIP",
                    reason: InternError::TooLong.reason(),
                },
                "case {n}"
            );
            for text in [&call_id, &tag, &branch] {
                if text.len() > MAX_SYMBOL_LEN {
                    assert_eq!(Sym::lookup(text), None, "case {n}");
                }
            }
        }
    }

    #[test]
    fn tags_and_branches_are_fingerprints_never_symbols() {
        let src = Address::new(10, 1, 0, 10, 5060);
        let dst = Address::new(10, 2, 0, 10, 5060);
        let text = invite_text("fp-cid", "fp-from-tag", "z9hG4bK-fp-branch");
        let Classified::Sip { call_id, event, .. } =
            classify_wire(WireProto::Sip, text.as_bytes(), src, dst)
        else {
            panic!("expected SIP");
        };
        assert_eq!(call_id, "fp-cid");
        let a = SipArgs::get();
        assert_eq!(event.get(a.from_tag), Some(Fingerprint::of("fp-from-tag")));
        assert_eq!(
            event.get(a.branch),
            Some(Fingerprint::of("z9hG4bK-fp-branch"))
        );
        assert_eq!(event.get(a.to_tag), Some(Fingerprint::EMPTY));
        for text in ["fp-from-tag", "z9hG4bK-fp-branch"] {
            assert_eq!(Sym::lookup(text), None, "{text}");
        }
        assert!(event
            .to_string()
            .contains("from_tag=#, to_tag=\"\", branch=#"));
    }

    #[test]
    fn an_absent_tag_and_an_empty_one_are_one_value() {
        let src = Address::new(10, 1, 0, 10, 5060);
        let dst = Address::new(10, 2, 0, 10, 5060);
        let from_tag = |from: &str| {
            let text = format!(
                "BYE sip:bob@b.example.com SIP/2.0\r\n\
                 From: {from}\r\n\
                 To: <sip:bob@b.example.com>;tag=\r\n\
                 Call-ID: fp-empty\r\n\
                 CSeq: 2 BYE\r\n\
                 Content-Length: 0\r\n\r\n"
            );
            let Classified::Sip { event, .. } =
                classify_wire(WireProto::Sip, text.as_bytes(), src, dst)
            else {
                panic!("expected SIP");
            };
            (
                event.get(SipArgs::get().from_tag),
                event.get(SipArgs::get().to_tag),
            )
        };
        let empty = Some(Fingerprint::EMPTY);
        assert_eq!(from_tag("<sip:alice@a.example.com>"), (empty, empty));
        assert_eq!(from_tag("<sip:alice@a.example.com>;tag="), (empty, empty));
        assert_ne!(from_tag("<sip:alice@a.example.com>;tag=x").0, empty);
    }

    #[test]
    fn an_over_long_aor_is_malformed_and_a_contact_host_no_identifier() {
        let src = Address::new(10, 1, 0, 10, 5060);
        let dst = Address::new(10, 2, 0, 10, 5060);
        let register = |user: &str, contact_host: &str| {
            let text = format!(
                "REGISTER sip:b.example.com SIP/2.0\r\n\
                 To: <sip:{user}@b.example.com>\r\n\
                 Call-ID: reg-bound\r\n\
                 Contact: <sip:{user}@{contact_host}>\r\n\
                 Content-Length: 0\r\n\r\n"
            );
            classify_wire(WireProto::Sip, text.as_bytes(), src, dst)
        };
        assert!(matches!(
            register("roamer", "10.0.0.20"),
            Classified::Sip { .. }
        ));
        // `user@b.example.com` is 14 bytes longer than `user`.
        assert_eq!(
            register(&"u".repeat(MAX_SYMBOL_LEN - 13), "10.0.0.20"),
            Classified::Malformed {
                protocol: "SIP",
                reason: "identifier longer than 255 bytes",
            }
        );
        // A Contact host is an address or nothing: a long host name is not
        // interned, so it cannot be too long either.
        let long_host = "h".repeat(MAX_SYMBOL_LEN + 1);
        let Classified::Sip { event, .. } = register("roamer", &long_host) else {
            panic!("a host-name Contact must classify");
        };
        assert_eq!(event.args().ip("contact_ip"), None);
        assert_eq!(Sym::lookup(&long_host), None);
        let Classified::Sip { event, .. } = register(&"u".repeat(MAX_SYMBOL_LEN - 14), "10.0.0.20")
        else {
            panic!("a 255-byte AOR must classify");
        };
        assert_eq!(event.args().str("aor").map(str::len), Some(MAX_SYMBOL_LEN));
    }

    #[test]
    fn only_a_dotted_quad_sdp_address_is_an_address() {
        let src = Address::new(10, 1, 0, 10, 5060);
        let dst = Address::new(10, 2, 0, 10, 5060);
        let sdp_ip_for = |address: &str| {
            let body = format!(
                "v=0\r\no=alice 1 1 IN IP4 {address}\r\ns=-\r\nc=IN IP4 {address}\r\n\
                 t=0 0\r\nm=audio 20000 RTP/AVP 18\r\n"
            );
            let text = format!(
                "INVITE sip:bob@b.example.com SIP/2.0\r\n\
                 Call-ID: sdp-addr\r\n\
                 Content-Type: application/sdp\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let Classified::Sip { event, .. } =
                classify_wire(WireProto::Sip, text.as_bytes(), src, dst)
            else {
                panic!("expected SIP");
            };
            assert_eq!(event.get(SipArgs::get().has_sdp), Some(true));
            assert_eq!(event.args().uint("sdp_port"), Some(20_000));
            event.args().ip("sdp_ip")
        };
        assert_eq!(sdp_ip_for("10.1.0.10"), Some(Ipv4Addr::from(src.ip)));
        // RFC 3264's hold address is an address, not an absent one.
        assert_eq!(sdp_ip_for("0.0.0.0"), Some(Ipv4Addr::UNSPECIFIED));
        // A host name (or a quad no RTP packet's address renders as) is
        // never interned: the media address is absent.
        for address in ["sdp-addr-host.example.com", "010.1.0.10", "10.1.0"] {
            assert_eq!(sdp_ip_for(address), None, "{address}");
            assert_eq!(Sym::lookup(address), None, "{address}");
        }
    }
}
