//! Packet capture at a tap point.
//!
//! [`TraceTap`] is a [`crate::node::Tap`] that records every packet
//! crossing it (optionally filtered) with zero forwarding delay — a
//! pcap-style capture for debugging scenarios and for replaying captured
//! traffic through the IDS offline.

use crate::node::Tap;
use crate::packet::{Packet, Payload};
use crate::time::SimTime;

/// One captured packet with its capture time.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedPacket {
    /// When the packet crossed the tap.
    pub at: SimTime,
    /// The packet itself.
    pub packet: Packet,
}

/// Which traffic a [`TraceTap`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureFilter {
    /// Keep everything.
    #[default]
    All,
    /// Keep only SIP messages.
    SipOnly,
    /// Keep only RTP packets.
    RtpOnly,
    /// Keep SIP and RTP, drop raw background traffic.
    VoipOnly,
}

impl CaptureFilter {
    fn keeps(&self, payload: &Payload) -> bool {
        matches!(
            (self, payload),
            (CaptureFilter::All, _)
                | (CaptureFilter::SipOnly, Payload::Sip(_))
                | (CaptureFilter::RtpOnly, Payload::Rtp(_))
                | (CaptureFilter::VoipOnly, Payload::Sip(_) | Payload::Rtp(_))
        )
    }
}

/// A passive capture tap with a bounded buffer (oldest packets drop first
/// when the cap is hit, like a ring buffer).
#[derive(Debug, Default)]
pub struct TraceTap {
    filter: CaptureFilter,
    capacity: usize,
    captured: Vec<CapturedPacket>,
    dropped: u64,
}

impl TraceTap {
    /// Captures everything, up to `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        TraceTap {
            filter: CaptureFilter::All,
            capacity,
            captured: Vec::new(),
            dropped: 0,
        }
    }

    /// Sets the capture filter, builder-style.
    #[must_use]
    pub fn with_filter(mut self, filter: CaptureFilter) -> Self {
        self.filter = filter;
        self
    }

    /// The captured packets in capture order.
    pub fn captured(&self) -> &[CapturedPacket] {
        &self.captured
    }

    /// Packets discarded due to the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders a human-readable flow summary (src -> dst, protocol, count).
    pub fn flow_summary(&self) -> Vec<(String, usize)> {
        let mut flows: Vec<(String, usize)> = Vec::new();
        for c in &self.captured {
            let key = format!(
                "{} -> {} [{}]",
                c.packet.src,
                c.packet.dst,
                c.packet.payload.protocol()
            );
            match flows.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => flows.push((key, 1)),
            }
        }
        flows.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        flows
    }
}

impl Tap for TraceTap {
    fn observe(&mut self, packet: &Packet, now: SimTime) -> SimTime {
        if self.filter.keeps(&packet.payload) {
            if self.captured.len() >= self.capacity && !self.captured.is_empty() {
                self.captured.remove(0);
                self.dropped += 1;
            }
            if self.capacity > 0 {
                self.captured.push(CapturedPacket {
                    at: now,
                    packet: packet.clone(),
                });
            }
        }
        SimTime::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Address;

    fn pkt(payload: Payload) -> Packet {
        Packet {
            src: Address::new(10, 1, 0, 1, 5060),
            dst: Address::new(10, 2, 0, 1, 5060),
            payload,
            id: 0,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn captures_in_order_with_timestamps() {
        let mut tap = TraceTap::new(10);
        tap.observe(&pkt(Payload::Sip("a".into())), SimTime::from_millis(1));
        tap.observe(&pkt(Payload::Rtp(vec![1])), SimTime::from_millis(2));
        assert_eq!(tap.captured().len(), 2);
        assert_eq!(tap.captured()[0].at, SimTime::from_millis(1));
        assert_eq!(tap.captured()[1].packet.payload.protocol(), "RTP");
    }

    #[test]
    fn filter_selects_protocols() {
        let mut tap = TraceTap::new(10).with_filter(CaptureFilter::SipOnly);
        tap.observe(&pkt(Payload::Sip("a".into())), SimTime::ZERO);
        tap.observe(&pkt(Payload::Rtp(vec![1])), SimTime::ZERO);
        tap.observe(&pkt(Payload::Raw(vec![2])), SimTime::ZERO);
        assert_eq!(tap.captured().len(), 1);

        let mut tap = TraceTap::new(10).with_filter(CaptureFilter::VoipOnly);
        tap.observe(&pkt(Payload::Sip("a".into())), SimTime::ZERO);
        tap.observe(&pkt(Payload::Rtp(vec![1])), SimTime::ZERO);
        tap.observe(&pkt(Payload::Raw(vec![2])), SimTime::ZERO);
        assert_eq!(tap.captured().len(), 2);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut tap = TraceTap::new(2);
        for i in 0..5u64 {
            tap.observe(&pkt(Payload::Raw(vec![i as u8])), SimTime::from_millis(i));
        }
        assert_eq!(tap.captured().len(), 2);
        assert_eq!(tap.dropped(), 3);
        assert_eq!(tap.captured()[0].at, SimTime::from_millis(3));
    }

    #[test]
    fn flow_summary_groups_and_sorts() {
        let mut tap = TraceTap::new(10);
        for _ in 0..3 {
            tap.observe(&pkt(Payload::Rtp(vec![1])), SimTime::ZERO);
        }
        tap.observe(&pkt(Payload::Sip("x".into())), SimTime::ZERO);
        let flows = tap.flow_summary();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].1, 3, "busiest flow first");
        assert!(flows[0].0.contains("[RTP]"));
    }
}

/// Classic pcap (v2.4) export: fabricates Ethernet/IPv4/UDP framing around
/// each captured datagram so captures open in Wireshark/tcpdump. Link type
/// is Ethernet (1); timestamps carry microsecond precision.
pub fn to_pcap_bytes(captured: &[CapturedPacket]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + captured.len() * 128);
    // Global header.
    out.extend_from_slice(&0xA1B2_C3D4u32.to_le_bytes()); // magic
    out.extend_from_slice(&2u16.to_le_bytes()); // major
    out.extend_from_slice(&4u16.to_le_bytes()); // minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&1u32.to_le_bytes()); // linktype: Ethernet

    for c in captured {
        let payload = c.packet.payload.as_bytes();
        let udp_len = 8 + payload.len();
        let ip_len = 20 + udp_len;
        let frame_len = 14 + ip_len;

        // Record header.
        let ts = c.at.as_nanos();
        out.extend_from_slice(&((ts / 1_000_000_000) as u32).to_le_bytes());
        out.extend_from_slice(&(((ts % 1_000_000_000) / 1_000) as u32).to_le_bytes());
        out.extend_from_slice(&(frame_len as u32).to_le_bytes());
        out.extend_from_slice(&(frame_len as u32).to_le_bytes());

        // Ethernet: synthetic MACs derived from the IPs, EtherType IPv4.
        let dst_ip = c.packet.dst.ip.to_be_bytes();
        let src_ip = c.packet.src.ip.to_be_bytes();
        out.extend_from_slice(&[0x02, 0x00, dst_ip[0], dst_ip[1], dst_ip[2], dst_ip[3]]);
        out.extend_from_slice(&[0x02, 0x00, src_ip[0], src_ip[1], src_ip[2], src_ip[3]]);
        out.extend_from_slice(&0x0800u16.to_be_bytes());

        // IPv4 header (no options, checksum computed).
        let mut ip = [0u8; 20];
        ip[0] = 0x45; // version 4, IHL 5
        ip[2..4].copy_from_slice(&(ip_len as u16).to_be_bytes());
        ip[8] = 64; // TTL
        ip[9] = 17; // UDP
        ip[12..16].copy_from_slice(&src_ip);
        ip[16..20].copy_from_slice(&dst_ip);
        let checksum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&checksum.to_be_bytes());
        out.extend_from_slice(&ip);

        // UDP header (checksum 0 = unused, legal for IPv4).
        out.extend_from_slice(&c.packet.src.port.to_be_bytes());
        out.extend_from_slice(&c.packet.dst.port.to_be_bytes());
        out.extend_from_slice(&(udp_len as u16).to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(payload);
    }
    out
}

fn ipv4_checksum(header: &[u8; 20]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks_exact(2) {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod pcap_tests {
    use super::*;
    use crate::packet::{Address, Packet};

    fn captured(payload: Payload, at_ms: u64) -> CapturedPacket {
        CapturedPacket {
            at: SimTime::from_millis(at_ms),
            packet: Packet {
                src: Address::new(10, 1, 0, 10, 5060),
                dst: Address::new(10, 2, 0, 10, 5060),
                payload,
                id: 0,
                sent_at: SimTime::ZERO,
            },
        }
    }

    #[test]
    fn pcap_global_header_is_valid() {
        let bytes = to_pcap_bytes(&[]);
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        assert_eq!(
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]),
            1
        );
    }

    #[test]
    fn record_framing_and_lengths() {
        let cap = [captured(Payload::Rtp(vec![0xAB; 22]), 1_500)];
        let bytes = to_pcap_bytes(&cap);
        // 24 global + 16 record header + 14 eth + 20 ip + 8 udp + 22 payload
        assert_eq!(bytes.len(), 24 + 16 + 14 + 20 + 8 + 22);
        // Timestamp: 1.5 s.
        assert_eq!(
            u32::from_le_bytes([bytes[24], bytes[25], bytes[26], bytes[27]]),
            1
        );
        assert_eq!(
            u32::from_le_bytes([bytes[28], bytes[29], bytes[30], bytes[31]]),
            500_000
        );
        // incl_len == orig_len == 64.
        assert_eq!(
            u32::from_le_bytes([bytes[32], bytes[33], bytes[34], bytes[35]]),
            64
        );
        // EtherType IPv4 at offset 24+16+12.
        assert_eq!(&bytes[52..54], &[0x08, 0x00]);
        // Protocol UDP in the IP header.
        assert_eq!(bytes[24 + 16 + 14 + 9], 17);
        // UDP ports.
        let udp = 24 + 16 + 14 + 20;
        assert_eq!(u16::from_be_bytes([bytes[udp], bytes[udp + 1]]), 5060);
    }

    #[test]
    fn ip_checksum_validates() {
        let cap = [captured(
            Payload::Sip("OPTIONS sip:h SIP/2.0\r\n\r\n".into()),
            10,
        )];
        let bytes = to_pcap_bytes(&cap);
        let ip_start = 24 + 16 + 14;
        let mut header = [0u8; 20];
        header.copy_from_slice(&bytes[ip_start..ip_start + 20]);
        // Re-summing a valid header including its checksum yields 0xFFFF.
        let mut sum = 0u32;
        for chunk in header.chunks_exact(2) {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum as u16, 0xFFFF);
    }
}
