//! The protocol state machines and attack patterns (Figs. 2, 4, 5, 6).
//!
//! * [`sip::sip_call_machine`] — the per-call SIP signaling machine. Feeds
//!   the RTP machine δ synchronization messages at call setup (`δ.open`),
//!   on answer / re-INVITE (`δ.update`) and at teardown (`δ.bye`).
//! * [`rtp::rtp_session_machine`] — the per-call RTP media machine with the
//!   media-spamming, codec-violation, foreign-source, rate-flood and
//!   RTP-after-BYE (Fig. 5) attack states.
//! * [`flood::window_counter_machine`] — the counter-plus-timer pattern of
//!   Fig. 4, instantiated per destination for INVITE flooding and for DRDoS
//!   response floods.

pub mod flood;
pub mod register;
pub mod rtp;
pub mod sip;

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, LazyLock};

use vids_efsm::machine::ActionCtx;
use vids_efsm::{sym, Arg, Event, Fingerprint, Schema, Sym, Var, VarType};

/// A symbol argument of the event (the Call-ID), defaulting to `""`.
pub(crate) fn sym_or_empty(ev: &Event, arg: Arg<Sym>) -> Sym {
    ev.get(arg).unwrap_or(sym::EMPTY)
}

/// A tag or branch argument of the event, the empty fingerprint when
/// absent: an absent tag and an empty `tag=` are one value.
pub(crate) fn fingerprint_or_empty(ev: &Event, arg: Arg<Fingerprint>) -> Fingerprint {
    ev.get(arg).unwrap_or(Fingerprint::EMPTY)
}

/// Copies an argument of the event into a variable: an absent argument
/// leaves the variable absent, never a stand-in value.
pub(crate) fn copy_arg<T: VarType>(ctx: &mut ActionCtx<'_>, var: Var<T>, arg: Arg<T>) {
    match ctx.event.get(arg) {
        Some(value) => ctx.set(var, value),
        None => {
            ctx.remove(var);
        }
    }
}

/// Media coordinates, an address and a UDP port: where an SDP body says a
/// call's RTP goes, and where an RTP packet is sent. The key of the fact
/// base's media index and of its pool mirror — six bytes,
/// hashed as a value. Renders `ip:port`; the default, `0.0.0.0:0`, is no
/// stream's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MediaKey {
    /// The media address.
    pub ip: Ipv4Addr,
    /// The UDP port.
    pub port: u16,
}

impl Default for MediaKey {
    fn default() -> Self {
        MediaKey {
            ip: Ipv4Addr::UNSPECIFIED,
            port: 0,
        }
    }
}

impl fmt::Display for MediaKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// The arguments `x̄` of a SIP event, as the classifier fills them from
/// one message: the header fields every message carries, the REGISTER
/// fields, and the media coordinates of an SDP body. Declared here, once;
/// the classifier writes them and the machines and routers read them
/// through these handles. The Call-ID and the address-of-record are
/// interned, because calls and bindings are keyed on them; the tags and
/// the branch are only compared, so they are keyed fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct SipArgs {
    /// Source address of the datagram.
    pub src_ip: Arg<Ipv4Addr>,
    /// Destination address of the datagram.
    pub dst_ip: Arg<Ipv4Addr>,
    /// Call-ID.
    pub call_id: Arg<Sym>,
    /// From tag ([`Fingerprint::EMPTY`] when absent).
    pub from_tag: Arg<Fingerprint>,
    /// To tag ([`Fingerprint::EMPTY`] when absent).
    pub to_tag: Arg<Fingerprint>,
    /// Top Via branch ([`Fingerprint::EMPTY`] when absent).
    pub branch: Arg<Fingerprint>,
    /// CSeq number.
    pub cseq: Arg<u64>,
    /// CSeq method token.
    pub cseq_method: Arg<Sym>,
    /// Response status code.
    pub status: Arg<u64>,
    /// REGISTER: the address-of-record, `user@host` of the To header.
    pub aor: Arg<Sym>,
    /// REGISTER: the Contact host, when it is a dotted quad (absent
    /// otherwise).
    pub contact_ip: Arg<Ipv4Addr>,
    /// REGISTER: the binding lifetime in seconds.
    pub expires: Arg<u64>,
    /// The message carries an SDP body with an audio stream.
    pub has_sdp: Arg<bool>,
    /// SDP: the media address, when it is a dotted quad (absent
    /// otherwise).
    pub sdp_ip: Arg<Ipv4Addr>,
    /// SDP: the audio port.
    pub sdp_port: Arg<u64>,
    /// SDP: the first audio payload type.
    pub sdp_pt: Arg<u64>,
}

static SIP_ARGS: LazyLock<(Schema, SipArgs)> = LazyLock::new(|| {
    let mut s = Schema::args();
    let args = SipArgs {
        src_ip: s.arg(sym::SRC_IP),
        dst_ip: s.arg(sym::DST_IP),
        call_id: s.arg(sym::CALL_ID),
        from_tag: s.arg(sym::FROM_TAG),
        to_tag: s.arg(sym::TO_TAG),
        branch: s.arg(sym::BRANCH),
        cseq: s.arg(sym::CSEQ),
        cseq_method: s.arg(sym::CSEQ_METHOD),
        status: s.arg(sym::STATUS),
        aor: s.arg(sym::AOR),
        contact_ip: s.arg(sym::CONTACT_IP),
        expires: s.arg(sym::EXPIRES),
        has_sdp: s.arg(sym::HAS_SDP),
        sdp_ip: s.arg(sym::SDP_IP),
        sdp_port: s.arg(sym::SDP_PORT),
        sdp_pt: s.arg(sym::SDP_PT),
    };
    (s, args)
});

impl SipArgs {
    /// The handles.
    pub fn get() -> &'static SipArgs {
        &SIP_ARGS.1
    }

    /// The schema the handles index.
    pub fn schema() -> &'static Schema {
        &SIP_ARGS.0
    }

    /// A SIP event named `name`, no argument set yet.
    pub fn event(name: impl Into<Sym>) -> Event {
        Event::new(name, SipArgs::schema())
    }

    /// The media coordinates an SDP body announces, when the event carries
    /// one with an address RTP can be sent to: where the call's RTP will go.
    pub fn sdp_media(&self, event: &Event) -> Option<MediaKey> {
        if event.get(self.has_sdp) != Some(true) {
            return None;
        }
        Some(MediaKey {
            ip: event.get(self.sdp_ip)?,
            port: u16::try_from(event.get(self.sdp_port)?).ok()?,
        })
    }
}

/// The arguments `x̄` of an RTP event: the datagram's addresses and the
/// header fields Fig. 6's media-spamming rule compares.
#[derive(Debug, Clone, Copy)]
pub struct RtpArgs {
    /// Source address.
    pub src_ip: Arg<Ipv4Addr>,
    /// Destination address.
    pub dst_ip: Arg<Ipv4Addr>,
    /// Source port.
    pub src_port: Arg<u64>,
    /// Destination port.
    pub dst_port: Arg<u64>,
    /// Synchronization source.
    pub ssrc: Arg<u64>,
    /// Sequence number.
    pub seq: Arg<u64>,
    /// Timestamp.
    pub ts: Arg<u64>,
    /// Payload type.
    pub pt: Arg<u64>,
    /// Bytes on the wire, UDP/IP headers included.
    pub size: Arg<u64>,
}

static RTP_ARGS: LazyLock<(Schema, RtpArgs)> = LazyLock::new(|| {
    let mut s = Schema::args();
    let args = RtpArgs {
        src_ip: s.arg(sym::SRC_IP),
        dst_ip: s.arg(sym::DST_IP),
        src_port: s.arg(sym::SRC_PORT),
        dst_port: s.arg(sym::DST_PORT),
        ssrc: s.arg(sym::SSRC),
        seq: s.arg(sym::SEQ),
        ts: s.arg(sym::TS),
        pt: s.arg(sym::PT),
        size: s.arg(sym::SIZE),
    };
    (s, args)
});

impl RtpArgs {
    /// The handles.
    pub fn get() -> &'static RtpArgs {
        &RTP_ARGS.1
    }

    /// The schema the handles index.
    pub fn schema() -> &'static Schema {
        &RTP_ARGS.0
    }

    /// An RTP event named `name`, no argument set yet.
    pub fn event(name: impl Into<Sym>) -> Event {
        Event::new(name, RtpArgs::schema())
    }

    /// The destination coordinates: the media-index key. The classifier
    /// sets both from the datagram; an event without them reads as the
    /// default key, which no call's media is indexed under.
    pub fn dst(&self, event: &Event) -> MediaKey {
        MediaKey {
            ip: event.get(self.dst_ip).unwrap_or(Ipv4Addr::UNSPECIFIED),
            port: event.get(self.dst_port).unwrap_or(0) as u16,
        }
    }
}

/// The call globals (Fig. 2's `v.g_…`): the media coordinates and codec the
/// SIP machine publishes from SDP and the RTP machine checks every packet
/// against. Declared here, once, and shared by both definitions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallGlobals {
    pub(crate) caller_media_ip: Var<Ipv4Addr>,
    pub(crate) caller_media_port: Var<u64>,
    pub(crate) callee_media_ip: Var<Ipv4Addr>,
    pub(crate) callee_media_port: Var<u64>,
    pub(crate) codec_pt: Var<u64>,
}

impl CallGlobals {
    /// The schema and its handles.
    pub(crate) fn declare() -> (Arc<Schema>, CallGlobals) {
        let mut schema = Schema::globals();
        let globals = CallGlobals {
            caller_media_ip: schema.declare(sym::G_CALLER_MEDIA_IP),
            caller_media_port: schema.declare(sym::G_CALLER_MEDIA_PORT),
            callee_media_ip: schema.declare(sym::G_CALLEE_MEDIA_IP),
            callee_media_port: schema.declare(sym::G_CALLEE_MEDIA_PORT),
            codec_pt: schema.declare(sym::G_CODEC_PT),
        };
        (Arc::new(schema), globals)
    }
}

/// Machine name of the SIP machine inside a call network (δ address).
pub const SIP_MACHINE: &str = "sip";
/// Machine name of the RTP machine inside a call network (δ address).
pub const RTP_MACHINE: &str = "rtp";

/// δ message: call setup seen, media coordinates published (Fig. 2).
pub const DELTA_OPEN: &str = "δ.open";
/// δ message: answer / re-INVITE updated the media coordinates.
pub const DELTA_UPDATE: &str = "δ.update";
/// δ message: a BYE passed by — arm timer T (Fig. 5).
pub const DELTA_BYE: &str = "δ.bye";
/// δ message: the BYE was rejected (401/481…) — the session continues.
pub const DELTA_REOPEN: &str = "δ.reopen";

#[cfg(test)]
mod tests {
    use vids_efsm::analysis::{attack_paths, unreachable_states};

    use crate::config::Config;

    #[test]
    fn shipped_machines_have_no_unreachable_states() {
        let cfg = Config::default();
        for def in [
            super::sip::sip_call_machine(&cfg),
            super::rtp::rtp_session_machine(&cfg),
            super::flood::invite_flood_machine(&cfg),
            super::flood::response_flood_machine(&cfg),
        ] {
            let dead = unreachable_states(&def);
            assert!(dead.is_empty(), "{}: unreachable {dead:?}", def.name());
        }
    }

    #[test]
    fn sip_machine_attack_patterns_cover_all_labels() {
        let def = super::sip::sip_call_machine(&Config::default());
        let paths = attack_paths(&def);
        let labels: std::collections::BTreeSet<&str> =
            paths.iter().map(|p| p.attack_label.as_str()).collect();
        assert!(labels.contains(crate::alert::labels::CALL_HIJACK));
        assert!(labels.contains(crate::alert::labels::SPOOFED_BYE));
        assert!(labels.contains(crate::alert::labels::SPOOFED_CANCEL));
    }

    #[test]
    fn rtp_machine_fig5_path_exists() {
        // The Fig. 5 pattern must be derivable from the machine itself:
        // INIT -> RTP_OPEN -> ... -> RTP_CLOSED -> (attack).
        let def = super::rtp::rtp_session_machine(&Config::default());
        let paths = attack_paths(&def);
        let fig5 = paths
            .iter()
            .find(|p| p.attack_label == crate::alert::labels::RTP_AFTER_BYE)
            .expect("rtp-after-bye pattern");
        let states: Vec<&str> = fig5.steps.iter().map(|s| s.to.as_str()).collect();
        assert!(states.contains(&"RTP_CLOSING"));
        assert!(states.contains(&"RTP_CLOSED"));
        assert_eq!(states.last(), Some(&"RTP_AFTER_BYE_DETECTED"));
    }

    #[test]
    fn flood_machine_fig4_path_matches_paper() {
        let def = super::flood::invite_flood_machine(&Config::default());
        let paths = attack_paths(&def);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        // INIT -> PACKET_RCVD -> FLOOD_DETECTED, exactly Fig. 4.
        assert_eq!(p.steps[0].from, "INIT");
        assert_eq!(p.steps[0].to, "PACKET_RCVD");
        assert_eq!(p.steps[1].to, "FLOOD_DETECTED");
    }
}
