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

use vids_efsm::value::Value;
use vids_efsm::{sym, Event, Sym};

/// Copies a textual argument out of the event (text is always an interned
/// handle), defaulting to `""`.
pub(crate) fn arg_or_empty(ev: &Event, name: Sym) -> Value {
    ev.arg(name).copied().unwrap_or(Value::Sym(sym::EMPTY))
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
