//! Greedy dump minimization: shrink a captured window to the fewest
//! packets that still reproduce the alert.
//!
//! The minimizer walks the window newest → oldest, dropping one packet
//! at a time and replaying; a drop is kept when an alert with the same
//! identity (kind, label, machine, call scope — [`loose_matcher`]) still
//! fires. Identity rather than byte equality is required while
//! shrinking, because removing packets legitimately changes timestamps,
//! counters and traces. After the loop a final replay re-freezes the
//! minimized run's own alert, snapshot and counters into the dump, so
//! the result passes the *strict* [`replay_vdump`] gate again and can be
//! committed as a self-checking regression artifact.

use crate::replay::{loose_matcher, replay_vdump, replay_with_match};
use crate::vdump::Vdump;

/// What [`minimize`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeReport {
    /// Packets in the input window.
    pub original_packets: usize,
    /// Packets in the minimized window.
    pub minimized_packets: usize,
    /// Replays executed while shrinking (including the final re-freeze).
    pub replays: usize,
    /// The minimized, re-frozen dump. `replay_vdump` on it is identical.
    pub dump: Vdump,
}

/// Shrinks `dump` to a minimal window still reproducing its alert.
/// Returns `None` when the input dump does not reproduce its own alert
/// even loosely (e.g. the ring had overwritten load-bearing packets).
pub fn minimize(dump: &Vdump) -> Option<MinimizeReport> {
    let mut replays = 0usize;
    let reproduces = |candidate: &Vdump, replays: &mut usize| {
        *replays += 1;
        replay_with_match(candidate, loose_matcher(&dump.alert))
            .capture
            .is_some()
    };
    if !reproduces(dump, &mut replays) {
        return None;
    }

    let mut current = dump.clone();
    let mut i = current.packets.len();
    while i > 0 {
        i -= 1;
        let mut candidate = current.clone();
        candidate.packets.remove(i);
        if reproduces(&candidate, &mut replays) {
            current = candidate;
        }
    }

    // Re-freeze: the minimized run's own alert/snapshot/counters become
    // the dump's stored truth, so strict byte-identity replay holds.
    replays += 1;
    let cap = replay_with_match(&current, loose_matcher(&dump.alert))
        .capture
        .expect("kept drops preserved the alert");
    current.alert = cap.alert;
    current.snapshot = cap.snapshot;
    current.counters = cap.counters;
    debug_assert!(replay_vdump(&current).identical());

    Some(MinimizeReport {
        original_packets: dump.packets.len(),
        minimized_packets: current.packets.len(),
        replays,
        dump: current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{RecordedClass, SlotMeta};
    use crate::vdump::{DumpCounters, RecordedPacket};
    use vids_core::alert::{Alert, AlertKind};
    use vids_core::config::Config;

    fn invite(call: &str) -> String {
        format!(
            "INVITE sip:bob@b.example.com SIP/2.0\r\n\
             Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK{call}\r\n\
             From: <sip:alice@a.example.com>;tag=t{call}\r\n\
             To: <sip:bob@b.example.com>\r\n\
             Call-ID: {call}\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n"
        )
    }

    fn sip_packet(seq: u64, at_ms: u64, text: &str) -> RecordedPacket {
        RecordedPacket {
            meta: SlotMeta {
                seq,
                at_ns: at_ms * 1_000_000,
                batch: 1,
                src_ip: u32::from_be_bytes([10, 1, 0, 10]),
                src_port: 5060,
                dst_ip: u32::from_be_bytes([10, 2, 0, 10]),
                dst_port: 5060,
                class: RecordedClass::Sip,
            },
            payload: text.as_bytes().to_vec(),
        }
    }

    /// A 40-INVITE flood window must shrink to just past the threshold
    /// (N+1 INVITEs raise the alert) and still replay byte-identically.
    #[test]
    fn flood_window_shrinks_to_threshold_plus_one() {
        let config = Config::default();
        let mut packets = Vec::new();
        for k in 0..40u64 {
            packets.push(sip_packet(k, 10 + k, &invite(&format!("min-{k}"))));
        }
        let dump = Vdump {
            config,
            tenants: None,
            telemetry_ring: 0,
            packets,
            alert: Alert {
                time_ms: 0,
                kind: AlertKind::Attack,
                label: vids_core::alert::labels::INVITE_FLOOD.into(),
                call_id: None,
                machine: "flood".into(),
                detail: "".into(),
                trace: Vec::new(),
            },
            snapshot: None,
            counters: DumpCounters::default(),
        };
        let report = minimize(&dump).expect("flood reproduces loosely");
        assert_eq!(report.original_packets, 40);
        assert!(
            report.minimized_packets as u64 <= config.invite_flood_n + 2,
            "minimized to {} packets",
            report.minimized_packets
        );
        assert!(
            report.minimized_packets as u64 > config.invite_flood_n,
            "cannot reproduce below the threshold"
        );
        assert!(replay_vdump(&report.dump).identical());
    }

    #[test]
    fn non_reproducing_dump_returns_none() {
        let dump = Vdump {
            config: Config::default(),
            tenants: None,
            telemetry_ring: 0,
            packets: vec![sip_packet(0, 10, &invite("solo"))],
            alert: Alert {
                time_ms: 0,
                kind: AlertKind::Attack,
                label: "never-happens".into(),
                call_id: None,
                machine: "flood".into(),
                detail: "".into(),
                trace: Vec::new(),
            },
            snapshot: None,
            counters: DumpCounters::default(),
        };
        assert!(minimize(&dump).is_none());
    }
}
