//! Port + heuristic demultiplexing of SIP vs RTP/RTCP, applied to a
//! socket address pair.
//!
//! The paper's monitor sits inline on the perimeter and sees every UDP
//! datagram; the first decision is which protocol machine the bytes are
//! for. That decision and the classification after it are the engine's
//! one classifier, [`vids_core::classify::classify_payload`], re-exported
//! here: an in-process `Packet`, a pcap record and a live datagram
//! classify the same way. This module adds only the address mapping:
//! plain IPv6 is counted as [`WireClass::Ipv6`] before the demux runs.
//!
//! The decision is *total*: every payload maps to exactly one
//! [`WireClass`], and classification never panics on arbitrary bytes (a
//! proptest enforces both).

use vids_core::classify::{classify_payload, Classified};
pub use vids_core::classify::{demux, WireClass, SIP_PORT};

use crate::datagram::Datagram;

/// Demultiplexes and classifies one datagram straight off the receive
/// buffer. Returns the demux decision (so callers can count
/// `DemuxUnknown`) alongside what the engine should ingest.
pub fn classify_datagram(d: &Datagram<'_>) -> (WireClass, Classified) {
    let Some((src, dst)) = d.engine_addrs() else {
        // Plain IPv6: the engine models IPv4 addresses only. Returned as
        // its own class (not `Unknown`) so operators serving v6 traffic
        // see the drop in `datagrams_ipv6` instead of silence.
        return (WireClass::Ipv6, Classified::Ignored);
    };
    classify_payload(src, dst, d.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vids_netsim::time::SimTime;

    fn dg<'a>(src: &str, dst: &str, payload: &'a [u8]) -> Datagram<'a> {
        Datagram {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            at: SimTime::ZERO,
            payload,
        }
    }

    #[test]
    fn unknown_and_rtcp_are_ignored_like_raw_payloads() {
        let (class, c) = classify_datagram(&dg("10.0.0.1:9", "10.0.0.2:9", b"junk"));
        assert_eq!(class, WireClass::Unknown);
        assert_eq!(c, Classified::Ignored);

        let mut rtcp = [0x80u8; 12];
        rtcp[1] = 200;
        let (class, c) = classify_datagram(&dg("10.0.0.1:40000", "10.0.0.2:40001", &rtcp));
        assert_eq!(class, WireClass::Rtcp);
        assert_eq!(c, Classified::Ignored);
    }

    #[test]
    fn ipv6_traffic_is_counted_not_silently_unknown() {
        let (class, c) = classify_datagram(&dg("[2001:db8::1]:5060", "[2001:db8::2]:5060", b"x"));
        assert_eq!(class, WireClass::Ipv6);
        assert_eq!(c, Classified::Ignored);
        // An IPv4-mapped v6 address is engine-visible IPv4, not a drop.
        let (class, _) = classify_datagram(&dg(
            "[::ffff:10.1.0.10]:5060",
            "[::ffff:10.2.0.10]:5060",
            b"x",
        ));
        assert_eq!(class, WireClass::Sip);
    }
}
