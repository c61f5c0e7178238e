//! Hand-rolled classic libpcap (`.pcap`) reader and writer.
//!
//! Only the classic tcpdump format (magic `0xa1b2c3d4`, microsecond
//! timestamps) is supported, in both byte orders — the endianness of the
//! capturing machine is recovered from the magic. Two link layers are
//! understood: `LINKTYPE_ETHERNET` (1, untagged or carrying up to two
//! 802.1Q/802.1ad VLAN tags) and `LINKTYPE_RAW` (101, bare IPv4). The
//! reader walks a borrowed byte slice and yields borrowed
//! records; malformed input is rejected without allocating (every error
//! reason is a `&'static str`), so a hostile capture file cannot balloon
//! the monitor's memory.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

use vids_netsim::time::SimTime;

use crate::datagram::Datagram;

/// Classic pcap magic, written in the reader's native order.
pub const MAGIC_NATIVE: u32 = 0xa1b2_c3d4;
/// Classic pcap magic as seen when the capturing machine's byte order
/// differs from ours.
pub const MAGIC_SWAPPED: u32 = 0xd4c3_b2a1;

/// Link-layer type: Ethernet frames.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Link-layer type: raw IPv4/IPv6 packets, no framing.
pub const LINKTYPE_RAW: u32 = 101;

const GLOBAL_HEADER_LEN: usize = 24;
const RECORD_HEADER_LEN: usize = 16;
const ETHERNET_HEADER_LEN: usize = 14;
const ETHERTYPE_IPV4: u16 = 0x0800;
/// 802.1Q customer tag.
const ETHERTYPE_VLAN: u16 = 0x8100;
/// 802.1ad service tag, the outer tag of a QinQ frame.
const ETHERTYPE_QINQ: u16 = 0x88a8;
const VLAN_TAG_LEN: usize = 4;
/// Tags peeled before the IPv4 check: a QinQ frame carries two.
const MAX_VLAN_TAGS: usize = 2;
const UDP_HEADER_LEN: usize = 8;

/// Why a capture file (or one record in it) was rejected.
///
/// The reason is always a static string: rejection never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapError {
    /// Byte offset into the capture where the problem was found.
    pub offset: usize,
    /// What was wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pcap error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for PcapError {}

/// One captured packet, borrowed from the capture buffer.
#[derive(Debug, Clone, Copy)]
pub struct PcapRecord<'a> {
    /// Capture timestamp (seconds + microseconds from the record header).
    pub at: SimTime,
    /// The captured bytes (link-layer frame, possibly truncated).
    pub data: &'a [u8],
    /// The packet's original length on the wire.
    pub orig_len: u32,
}

/// A zero-copy iterator over the records of a classic pcap file.
pub struct PcapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    swapped: bool,
    linktype: u32,
}

impl<'a> PcapReader<'a> {
    /// Parses the 24-byte global header and positions the reader at the
    /// first record.
    pub fn new(buf: &'a [u8]) -> Result<Self, PcapError> {
        if buf.len() < GLOBAL_HEADER_LEN {
            return Err(PcapError {
                offset: 0,
                reason: "capture shorter than the 24-byte pcap global header",
            });
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let swapped = match magic {
            MAGIC_NATIVE => false,
            MAGIC_SWAPPED => true,
            _ => {
                return Err(PcapError {
                    offset: 0,
                    reason: "unrecognized pcap magic (only classic microsecond captures)",
                })
            }
        };
        let mut r = PcapReader {
            buf,
            pos: GLOBAL_HEADER_LEN,
            swapped,
            linktype: 0,
        };
        r.linktype = r.u32_at(20);
        if r.linktype != LINKTYPE_ETHERNET && r.linktype != LINKTYPE_RAW {
            return Err(PcapError {
                offset: 20,
                reason: "unsupported link type (only Ethernet and raw IPv4)",
            });
        }
        Ok(r)
    }

    /// The capture's link-layer type (`LINKTYPE_ETHERNET` or
    /// `LINKTYPE_RAW`).
    pub fn linktype(&self) -> u32 {
        self.linktype
    }

    /// Whether the capture was written by a machine of the opposite byte
    /// order.
    pub fn is_swapped(&self) -> bool {
        self.swapped
    }

    fn u32_at(&self, off: usize) -> u32 {
        let raw: [u8; 4] = self.buf[off..off + 4].try_into().unwrap();
        if self.swapped {
            u32::from_be_bytes(raw)
        } else {
            u32::from_le_bytes(raw)
        }
    }

    /// Yields the next record, `Ok(None)` at a clean end of file, or an
    /// error if the file ends mid-record.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord<'a>>, PcapError> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        if self.buf.len() - self.pos < RECORD_HEADER_LEN {
            return Err(PcapError {
                offset: self.pos,
                reason: "capture ends inside a 16-byte record header",
            });
        }
        let ts_sec = self.u32_at(self.pos);
        let ts_usec = self.u32_at(self.pos + 4);
        let incl_len = self.u32_at(self.pos + 8) as usize;
        let orig_len = self.u32_at(self.pos + 12);
        let data_start = self.pos + RECORD_HEADER_LEN;
        if self.buf.len() - data_start < incl_len {
            return Err(PcapError {
                offset: data_start,
                reason: "capture ends inside a record body",
            });
        }
        let data = &self.buf[data_start..data_start + incl_len];
        self.pos = data_start + incl_len;
        let at = SimTime::from_micros(u64::from(ts_sec) * 1_000_000 + u64::from(ts_usec));
        Ok(Some(PcapRecord { at, data, orig_len }))
    }

    /// Yields the next record that carries a parseable IPv4/UDP datagram,
    /// skipping non-UDP records (ARP, TCP, fragments). Hard format errors
    /// — truncated records, frames cut short by the snaplen — still
    /// surface as `Err`.
    pub fn next_datagram(&mut self) -> Result<Option<Datagram<'a>>, PcapError> {
        loop {
            let Some(rec) = self.next_record()? else {
                return Ok(None);
            };
            match udp_frame(self.linktype, rec.data) {
                Ok(Some((src, dst, payload))) => {
                    return Ok(Some(Datagram {
                        src,
                        dst,
                        at: rec.at,
                        payload,
                    }))
                }
                Ok(None) => continue,
                Err(reason) => {
                    return Err(PcapError {
                        offset: self.pos,
                        reason,
                    })
                }
            }
        }
    }
}

/// Extracts the UDP payload and address pair from one link-layer frame.
///
/// `Ok(None)` means the frame is well-formed but not IPv4/UDP (the
/// caller skips it); `Err` means the frame claims to be UDP but the
/// bytes run out — most commonly a capture snaplen shorter than the
/// packet.
#[allow(clippy::type_complexity)]
pub fn udp_frame(
    linktype: u32,
    frame: &[u8],
) -> Result<Option<(SocketAddr, SocketAddr, &[u8])>, &'static str> {
    let ip = match linktype {
        LINKTYPE_ETHERNET => {
            if frame.len() < ETHERNET_HEADER_LEN {
                return Err("Ethernet frame shorter than its 14-byte header");
            }
            let mut ethertype = u16::from_be_bytes([frame[12], frame[13]]);
            let mut at = ETHERNET_HEADER_LEN;
            // A voice VLAN's trunk port tags every frame: 802.1Q, or an
            // 802.1ad service tag in front of it (QinQ). Each tag is its
            // 2-byte TCI and the ethertype it wraps.
            for _ in 0..MAX_VLAN_TAGS {
                if ethertype != ETHERTYPE_VLAN && ethertype != ETHERTYPE_QINQ {
                    break;
                }
                if frame.len() < at + VLAN_TAG_LEN {
                    return Err("Ethernet frame ends inside a VLAN tag");
                }
                ethertype = u16::from_be_bytes([frame[at + 2], frame[at + 3]]);
                at += VLAN_TAG_LEN;
            }
            if ethertype != ETHERTYPE_IPV4 {
                return Ok(None); // not IPv4 (ARP, IPv6, a third tag, ...)
            }
            &frame[at..]
        }
        LINKTYPE_RAW => frame,
        _ => return Ok(None),
    };
    if ip.is_empty() || ip[0] >> 4 != 4 {
        return Ok(None); // not IPv4
    }
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if ihl < 20 || ip.len() < ihl {
        return Err("IPv4 header truncated");
    }
    if ip[9] != 17 {
        return Ok(None); // not UDP
    }
    let frag = u16::from_be_bytes([ip[6], ip[7]]);
    if frag & 0x3fff != 0 {
        return Ok(None); // fragmented; the monitor sees whole datagrams
    }
    let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let udp = &ip[ihl..];
    if udp.len() < UDP_HEADER_LEN {
        return Err("UDP header truncated");
    }
    let src_port = u16::from_be_bytes([udp[0], udp[1]]);
    let dst_port = u16::from_be_bytes([udp[2], udp[3]]);
    let udp_len = usize::from(u16::from_be_bytes([udp[4], udp[5]]));
    if udp_len < UDP_HEADER_LEN {
        return Err("UDP length field smaller than the UDP header");
    }
    if udp.len() < udp_len {
        return Err("UDP payload truncated by snaplen");
    }
    let payload = &udp[UDP_HEADER_LEN..udp_len];
    Ok(Some((
        SocketAddr::V4(SocketAddrV4::new(src_ip, src_port)),
        SocketAddr::V4(SocketAddrV4::new(dst_ip, dst_port)),
        payload,
    )))
}

/// Builds classic pcap capture bytes in memory — the test-fixture and
/// benchmark counterpart of [`PcapReader`].
pub struct PcapWriter {
    buf: Vec<u8>,
    swapped: bool,
    linktype: u32,
}

impl PcapWriter {
    /// Starts a native-order, raw-IPv4 capture.
    pub fn new() -> Self {
        Self::with_format(false, LINKTYPE_RAW)
    }

    /// Starts a capture with an explicit byte order and link type.
    pub fn with_format(swapped: bool, linktype: u32) -> Self {
        let mut w = PcapWriter {
            buf: Vec::new(),
            swapped,
            linktype,
        };
        w.put_u32(MAGIC_NATIVE);
        w.put_u16(2); // version major
        w.put_u16(4); // version minor
        w.put_u32(0); // thiszone
        w.put_u32(0); // sigfigs
        w.put_u32(65_535); // snaplen
        w.put_u32(linktype);
        w
    }

    fn put_u16(&mut self, v: u16) {
        let raw = if self.swapped {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.buf.extend_from_slice(&raw);
    }

    fn put_u32(&mut self, v: u32) {
        let raw = if self.swapped {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.buf.extend_from_slice(&raw);
    }

    /// Appends one UDP datagram as a full (untruncated) record.
    pub fn push_udp(&mut self, at: SimTime, src: SocketAddrV4, dst: SocketAddrV4, payload: &[u8]) {
        let frame = build_udp_frame(self.linktype, src, dst, payload);
        self.push_record(at, &frame, frame.len() as u32);
    }

    /// Appends a raw record; `incl_len` is taken from `data`, `orig_len`
    /// is the caller's (so snaplen truncation can be simulated).
    pub fn push_record(&mut self, at: SimTime, data: &[u8], orig_len: u32) {
        let micros = at.as_nanos() / 1_000;
        self.put_u32((micros / 1_000_000) as u32);
        self.put_u32((micros % 1_000_000) as u32);
        self.put_u32(data.len() as u32);
        self.put_u32(orig_len);
        self.buf.extend_from_slice(data);
    }

    /// The finished capture bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for PcapWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds one link-layer frame holding an IPv4/UDP datagram.
pub fn build_udp_frame(
    linktype: u32,
    src: SocketAddrV4,
    dst: SocketAddrV4,
    payload: &[u8],
) -> Vec<u8> {
    let udp_len = UDP_HEADER_LEN + payload.len();
    let ip_len = 20 + udp_len;
    let mut frame = Vec::with_capacity(ETHERNET_HEADER_LEN + ip_len);
    if linktype == LINKTYPE_ETHERNET {
        frame.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]); // dst mac
        frame.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]); // src mac
        frame.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
    }
    frame.push(0x45); // version 4, ihl 5
    frame.push(0); // dscp
    frame.extend_from_slice(&(ip_len as u16).to_be_bytes());
    frame.extend_from_slice(&[0, 0]); // identification
    frame.extend_from_slice(&[0, 0]); // flags + fragment offset
    frame.push(64); // ttl
    frame.push(17); // protocol: UDP
    frame.extend_from_slice(&[0, 0]); // header checksum (unverified)
    frame.extend_from_slice(&src.ip().octets());
    frame.extend_from_slice(&dst.ip().octets());
    frame.extend_from_slice(&src.port().to_be_bytes());
    frame.extend_from_slice(&dst.port().to_be_bytes());
    frame.extend_from_slice(&(udp_len as u16).to_be_bytes());
    frame.extend_from_slice(&[0, 0]); // UDP checksum (optional over IPv4)
    frame.extend_from_slice(payload);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(s: &str) -> SocketAddrV4 {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrips_in_both_byte_orders_and_link_types() {
        for swapped in [false, true] {
            for linktype in [LINKTYPE_RAW, LINKTYPE_ETHERNET] {
                let mut w = PcapWriter::with_format(swapped, linktype);
                w.push_udp(
                    SimTime::from_micros(1_500_042),
                    sa("10.1.0.10:5060"),
                    sa("10.2.0.10:5060"),
                    b"OPTIONS sip:b@10.2.0.10 SIP/2.0\r\n\r\n",
                );
                let bytes = w.into_bytes();
                let mut r = PcapReader::new(&bytes).unwrap();
                assert_eq!(r.is_swapped(), swapped);
                assert_eq!(r.linktype(), linktype);
                let d = r.next_datagram().unwrap().unwrap();
                assert_eq!(d.at, SimTime::from_micros(1_500_042));
                assert_eq!(d.src, "10.1.0.10:5060".parse::<SocketAddr>().unwrap());
                assert_eq!(d.dst, "10.2.0.10:5060".parse::<SocketAddr>().unwrap());
                assert_eq!(d.payload, b"OPTIONS sip:b@10.2.0.10 SIP/2.0\r\n\r\n");
                assert!(r.next_datagram().unwrap().is_none());
            }
        }
    }

    #[test]
    fn non_udp_frames_are_skipped_not_errors() {
        let mut w = PcapWriter::new();
        // A TCP packet: same IPv4 header but protocol 6.
        let mut frame = build_udp_frame(LINKTYPE_RAW, sa("10.0.0.1:80"), sa("10.0.0.2:80"), b"x");
        frame[9] = 6;
        w.push_record(SimTime::ZERO, &frame, frame.len() as u32);
        w.push_udp(
            SimTime::from_millis(1),
            sa("10.0.0.1:5060"),
            sa("10.0.0.2:5060"),
            b"hello",
        );
        let bytes = w.into_bytes();
        let mut r = PcapReader::new(&bytes).unwrap();
        let d = r.next_datagram().unwrap().unwrap();
        assert_eq!(d.payload, b"hello");
    }
}
