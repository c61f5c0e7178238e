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
//! This is the engine's interning boundary: SIP fields are borrowed as
//! `&str` slices straight out of the datagram (via [`vids_sip::view`]),
//! interned exactly once, and everything downstream — fact base, shard
//! router, EFSM predicates — keys on the resulting copyable [`Sym`]s.
//! Interned text is kept for the life of the process, so this is also
//! where wire strings are *bounded*: every one goes through
//! [`Sym::try_intern`], and a message carrying an identifier the interner
//! refuses (longer than [`vids_efsm::intern::MAX_SYMBOL_LEN`] bytes, or
//! new to a full table) is [`Classified::Malformed`] — flagged, counted,
//! never tracked. A packet allocates nothing here, whether its strings
//! have been seen before or not.

use std::cell::RefCell;
use std::net::Ipv4Addr;

use vids_efsm::intern::{sym, InternError, MAX_SYMBOL_LEN};
use vids_efsm::{Event, Sym};
use vids_netsim::packet::{Address, Packet, Payload, UDP_IP_OVERHEAD};
use vids_rtp::packet::{ParseRtpError, RtpHeader};
use vids_scan::fxhash::FxHashMap;
use vids_sip::view::{parse_view, SipView, StartLine};
use vids_sip::Method;

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
    /// Traffic vids does not monitor (raw background payloads).
    Ignored,
}

// Sizes are facts: one of these crosses the shard hand-off per datagram.
const _: () = assert!(std::mem::size_of::<Classified>() <= 304);

/// Classifies one packet into an EFSM event.
pub fn classify(packet: &Packet) -> Classified {
    match &packet.payload {
        Payload::Sip(text) => classify_sip_text(text, packet.src, packet.dst),
        Payload::Rtp(bytes) => classify_rtp_bytes(bytes, packet.src, packet.dst),
        Payload::Raw(_) => Classified::Ignored,
    }
}

/// The protocol the wire demultiplexer decided a datagram carries. The
/// third demux outcome — traffic vids does not monitor — never reaches
/// classification; the ingest layer maps it to [`Classified::Ignored`]
/// directly, mirroring [`Payload::Raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireProto {
    /// Treat the payload as a SIP message (UTF-8 text).
    Sip,
    /// Treat the payload as an RTP packet (binary header).
    Rtp,
}

/// Classifies one datagram payload straight off the wire, without
/// materializing a [`Packet`]. Produces exactly what [`classify`] would
/// for the equivalent `Payload::Sip`/`Payload::Rtp` packet — the replay
/// differential tests depend on that equivalence byte for byte.
pub fn classify_wire(proto: WireProto, payload: &[u8], src: Address, dst: Address) -> Classified {
    match proto {
        WireProto::Sip => match std::str::from_utf8(payload) {
            Ok(text) => classify_sip_text(text, src, dst),
            // `Payload::Sip` holds a `String`, so the in-process path can
            // never see this reason; real sockets can.
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
        .and_then(|header| rtp_event(&header, src, dst, wire_bytes).map_err(InternError::reason))
        .map_or_else(
            |reason| Classified::Malformed {
                protocol: "RTP",
                reason,
            },
            |event| Classified::Rtp { event },
        )
}

/// Interns the dotted-quad text of a numeric ip, with a thread-local cache
/// keyed on the `u32` so the steady-state path neither formats, hashes a
/// string, nor takes any lock. The interner dedups across threads, so each
/// worker's cache converges on the same `Sym` for the same address. A miss
/// writes the text into a stack buffer — a flood from spoofed sources
/// misses on every new address — and fails only when the address is new
/// to a full symbol table.
pub fn ip_sym(ip: u32) -> Result<Sym, InternError> {
    thread_local! {
        static CACHE: RefCell<FxHashMap<u32, Sym>> =
            RefCell::new(FxHashMap::with_capacity_and_hasher(64, Default::default()));
    }
    CACHE.with(|cache| {
        if let Some(&s) = cache.borrow().get(&ip) {
            return Ok(s);
        }
        let mut text = [0u8; 15];
        let mut len = 0;
        for (i, octet) in ip.to_be_bytes().into_iter().enumerate() {
            if i > 0 {
                text[len] = b'.';
                len += 1;
            }
            for place in [100, 10, 1] {
                if octet >= place || place == 1 {
                    text[len] = b'0' + octet / place % 10;
                    len += 1;
                }
            }
        }
        let text = std::str::from_utf8(&text[..len]).expect("digits and dots are ASCII");
        let s = Sym::try_intern(text)?;
        cache.borrow_mut().insert(ip, s);
        Ok(s)
    })
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

/// An absent tag or branch is the empty symbol; a present one is interned.
fn intern_or_empty(text: Option<&str>) -> Result<Sym, InternError> {
    text.map_or(Ok(sym::EMPTY), Sym::try_intern)
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
    let mut event = Event::data(name)
        .with_sym(sym::SRC_IP, ip_sym(src.ip)?)
        .with_sym(sym::DST_IP, ip_sym(dst.ip)?)
        .with_sym(sym::CALL_ID, call_id)
        .with_sym(
            sym::FROM_TAG,
            intern_or_empty(view.from.and_then(|f| f.tag))?,
        )
        .with_sym(sym::TO_TAG, intern_or_empty(to_tag)?)
        .with_sym(sym::BRANCH, intern_or_empty(view.branch)?);
    if let Some((seq, method)) = view.cseq {
        event = event
            .with_uint(sym::CSEQ, seq as u64)
            .with_sym(sym::CSEQ_METHOD, cseq_method_sym(method));
    }
    if let Some(status) = view.status() {
        event = event.with_uint(sym::STATUS, status.as_u16() as u64);
    }

    let is_register = view.method() == Some(Method::Register);
    // REGISTER: arguments for the registration-monitoring machine. AORs
    // are interned like Call-IDs.
    if is_register {
        if let Some(to) = view.to {
            event = event.with_sym(sym::AOR, aor_sym(to.user().unwrap_or(""), to.host())?);
        }
        if let Some(contact) = view.contact {
            event = event.with_sym(sym::CONTACT_IP, Sym::try_intern(contact.host())?);
        }
        event = event.with_uint(sym::EXPIRES, view.expires.map_or(3_600, u64::from));
    }

    // SDP bodies feed the RTP machine's media coordinates. A REGISTER is
    // no part of a call — its event goes to the registration machine alone
    // — so a body on one is not scanned; that also keeps the widest
    // argument vector this function builds (an answer with SDP: the nine
    // response arguments plus these four) at `EVENT_ARGS_INLINE`.
    if !is_register && view.content_type == Some(vids_sdp::MIME_TYPE) {
        if let Some(sdp) = scan_sdp(view.body) {
            let sdp_ip = sdp.ip.map_or(Ok(sym::EMPTY), |ip| ip_sym(ip.into()))?;
            event = event
                .with_bool(sym::HAS_SDP, true)
                .with_sym(sym::SDP_IP, sdp_ip)
                .with_uint(sym::SDP_PORT, sdp.port);
            if let Some(pt) = sdp.pt {
                event = event.with_uint(sym::SDP_PT, pt);
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
    /// address no RTP packet can match, and is never interned.
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

fn rtp_event(
    header: &RtpHeader,
    src: Address,
    dst: Address,
    wire_bytes: u64,
) -> Result<Event, InternError> {
    // Arguments in ascending pre-seeded symbol-id order, so every sorted
    // VarMap insert is an append rather than a probe-and-shift.
    Ok(Event::data(sym::RTP_PACKET)
        .with_sym(sym::SRC_IP, ip_sym(src.ip)?)
        .with_sym(sym::DST_IP, ip_sym(dst.ip)?)
        .with_uint(sym::SRC_PORT, src.port as u64)
        .with_uint(sym::DST_PORT, dst.port as u64)
        .with_uint(sym::SSRC, header.ssrc as u64)
        .with_uint(sym::SEQ, header.sequence_number as u64)
        .with_uint(sym::TS, header.timestamp as u64)
        .with_uint(sym::PT, header.payload_type as u64)
        .with_uint(sym::SIZE, wire_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vids_netsim::packet::Address;
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
        assert_eq!(event.str_arg("src_ip"), Some("10.1.0.10"));
        assert!(event.bool_arg("has_sdp"));
        assert_eq!(event.str_arg("sdp_ip"), Some("10.1.0.10"));
        assert_eq!(event.uint_arg("sdp_port"), Some(20_000));
        assert_eq!(event.uint_arg("sdp_pt"), Some(18));
        assert_eq!(event.uint_arg("cseq"), Some(1));
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
            assert_eq!(event.uint_arg("status"), Some(status.as_u16() as u64));
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
        assert_eq!(event.uint_arg("ssrc"), Some(0xABCD));
        assert_eq!(event.uint_arg("seq"), Some(42));
        assert_eq!(event.uint_arg("ts"), Some(3360));
        assert_eq!(event.uint_arg("pt"), Some(18));
        assert_eq!(event.uint_arg("dst_port"), Some(30_000));
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
        let pkt = packet(Payload::Rtp(vec![0x00, 0x01]));
        assert!(matches!(
            classify(&pkt),
            Classified::Malformed {
                protocol: "RTP",
                ..
            }
        ));
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
        assert_eq!(event.str_arg("aor"), Some("roamer@b.example.com"));
        assert_eq!(event.str_arg("contact_ip"), Some("10.0.0.20"));
        assert_eq!(event.uint_arg("expires"), Some(600));
    }

    #[test]
    fn register_with_a_body_stays_inside_the_inline_argument_vector() {
        use vids_efsm::value::EVENT_ARGS_INLINE;
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
        assert_eq!(event.args.len(), 11);
        assert!(!event.bool_arg("has_sdp"), "a REGISTER body is not scanned");
        assert!(event.args.len() <= EVENT_ARGS_INLINE);
        assert_eq!(event.args.heap_bytes(), 0);
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
        assert_eq!(event.uint_arg("expires"), Some(3_600));
    }

    #[test]
    fn raw_traffic_is_ignored() {
        let pkt = packet(Payload::Raw(vec![1, 2, 3]));
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
        assert_eq!(
            classify_wire(WireProto::Rtp, &[0x00, 0x01], src, dst),
            classify(&packet(Payload::Rtp(vec![0x00, 0x01])))
        );
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
    fn ip_sym_is_stable_and_matches_dotted_quad() {
        let ip_sym = |ip| ip_sym(ip).expect("the table has room");
        let addr = Address::new(192, 168, 7, 9, 0);
        assert_eq!(ip_sym(addr.ip).as_str(), addr.ip_string());
        assert_eq!(ip_sym(addr.ip), ip_sym(addr.ip));
        // Every digit count per octet, and both ends of the range.
        for octets in [
            [0, 0, 0, 0],
            [255, 255, 255, 255],
            [1, 20, 100, 109],
            [10, 0, 200, 9],
        ] {
            let [a, b, c, d] = octets;
            let addr = Address::new(a, b, c, d, 0);
            assert_eq!(ip_sym(addr.ip).as_str(), format!("{a}.{b}.{c}.{d}"));
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
            event.str_arg("from_tag").map(str::len),
            Some(MAX_SYMBOL_LEN)
        );
        assert_eq!(event.str_arg("branch").map(str::len), Some(MAX_SYMBOL_LEN));

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
    fn an_over_long_aor_or_contact_is_malformed() {
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
        for classified in [
            register(&"u".repeat(MAX_SYMBOL_LEN - 13), "10.0.0.20"),
            register("roamer", &"h".repeat(MAX_SYMBOL_LEN + 1)),
        ] {
            assert_eq!(
                classified,
                Classified::Malformed {
                    protocol: "SIP",
                    reason: "identifier longer than 255 bytes",
                }
            );
        }
        let Classified::Sip { event, .. } = register(&"u".repeat(MAX_SYMBOL_LEN - 14), "10.0.0.20")
        else {
            panic!("a 255-byte AOR must classify");
        };
        assert_eq!(event.str_arg("aor").map(str::len), Some(MAX_SYMBOL_LEN));
    }

    #[test]
    fn only_a_dotted_quad_sdp_address_becomes_a_symbol() {
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
            assert!(event.bool_arg("has_sdp"));
            assert_eq!(event.uint_arg("sdp_port"), Some(20_000));
            event.sym_arg("sdp_ip")
        };
        assert_eq!(sdp_ip_for("10.1.0.10"), ip_sym(src.ip).ok());
        // A host name (or a quad no RTP packet's address renders as) is
        // never interned: the media address is unknown.
        for address in ["sdp-addr-host.example.com", "010.1.0.10", "10.1.0"] {
            assert_eq!(sdp_ip_for(address), Some(sym::EMPTY), "{address}");
            assert_eq!(Sym::lookup(address), None, "{address}");
        }
    }
}
