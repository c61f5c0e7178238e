//! Datagrams and addressing.

use std::fmt;

use crate::time::SimTime;

/// A network address: IPv4-style 32-bit host id plus UDP port.
///
/// The upper 16 bits of the ip are the *site prefix* used by
/// [`crate::node::Router`]s; the Fig. 7 topology assigns `10.1.0.0/16` to
/// enterprise A, `10.2.0.0/16` to enterprise B and `10.0.0.0/16` to the
/// Internet core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address {
    /// 32-bit host identifier, rendered dotted-quad.
    pub ip: u32,
    /// UDP port.
    pub port: u16,
}

impl Address {
    /// Creates an address from dotted-quad octets and a port.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        Address {
            ip: u32::from_be_bytes([a, b, c, d]),
            port,
        }
    }

    /// The /16 site prefix (upper 16 bits).
    pub const fn site(&self) -> u16 {
        (self.ip >> 16) as u16
    }

    /// The same host with a different port.
    #[must_use]
    pub const fn with_port(&self, port: u16) -> Self {
        Address { ip: self.ip, port }
    }

    /// Dotted-quad text without the port.
    pub fn ip_string(&self) -> String {
        let [a, b, c, d] = self.ip.to_be_bytes();
        format!("{a}.{b}.{c}.{d}")
    }

    /// Parses a dotted-quad ip (no port).
    pub fn parse_ip(text: &str) -> Option<u32> {
        let mut octets = [0u8; 4];
        let mut it = text.split('.');
        for o in &mut octets {
            *o = it.next()?.parse().ok()?;
        }
        if it.next().is_some() {
            return None;
        }
        Some(u32::from_be_bytes(octets))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip_string(), self.port)
    }
}

/// What a datagram carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// SIP message text (parsed by endpoints and by vids).
    Sip(String),
    /// RTP packet bytes (RFC 3550 wire format).
    Rtp(Vec<u8>),
    /// Anything else (background traffic, malformed junk).
    Raw(Vec<u8>),
}

impl Payload {
    /// The bytes on the wire: what a monitor reads, whatever the tag says.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Payload::Sip(s) => s.as_bytes(),
            Payload::Rtp(b) | Payload::Raw(b) => b,
        }
    }

    /// Application-layer length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short protocol tag for logs.
    pub fn protocol(&self) -> &'static str {
        match self {
            Payload::Sip(_) => "SIP",
            Payload::Rtp(_) => "RTP",
            Payload::Raw(_) => "RAW",
        }
    }
}

/// IPv4 + UDP header overhead added to every datagram on the wire.
pub const UDP_IP_OVERHEAD: usize = 28;

/// A UDP datagram in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source address.
    pub src: Address,
    /// Destination address.
    pub dst: Address,
    /// Application payload.
    pub payload: Payload,
    /// Monotone per-simulation packet id (assigned at send).
    pub id: u64,
    /// When the packet was handed to the network.
    pub sent_at: SimTime,
}

impl Packet {
    /// Total wire size: payload plus IP/UDP headers.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + UDP_IP_OVERHEAD
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} {}->{} ({} B)",
            self.id,
            self.payload.protocol(),
            self.src,
            self.dst,
            self.wire_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_site_prefix() {
        let a = Address::new(10, 1, 0, 3, 5060);
        assert_eq!(a.site(), (10 << 8) | 1);
        assert_eq!(a.to_string(), "10.1.0.3:5060");
        assert_eq!(a.with_port(4000).port, 4000);
    }

    #[test]
    fn parse_ip_round_trip() {
        let a = Address::new(192, 0, 2, 45, 0);
        assert_eq!(Address::parse_ip(&a.ip_string()), Some(a.ip));
        assert_eq!(Address::parse_ip("10.0.0"), None);
        assert_eq!(Address::parse_ip("10.0.0.0.1"), None);
        assert_eq!(Address::parse_ip("10.0.0.x"), None);
    }

    #[test]
    fn wire_size_includes_headers() {
        let p = Packet {
            src: Address::default(),
            dst: Address::default(),
            payload: Payload::Rtp(vec![0; 22]),
            id: 0,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(p.wire_bytes(), 50);
    }

    #[test]
    fn payload_protocol_tags() {
        assert_eq!(Payload::Sip(String::new()).protocol(), "SIP");
        assert_eq!(Payload::Rtp(Vec::new()).protocol(), "RTP");
        assert_eq!(Payload::Raw(Vec::new()).protocol(), "RAW");
        assert!(Payload::Sip(String::new()).is_empty());
    }
}
