//! The `WireSource` abstraction: anything that yields datagrams.
//!
//! A source is polled for one datagram at a time; the returned
//! [`Datagram`] borrows the source's internal receive buffer, so the
//! caller classifies it (extracting what the engine keeps) before the
//! next poll reuses the buffer. Live UDP sockets
//! ([`crate::udp::UdpSource`]) implement it; `vids replay` reads its
//! capture through [`crate::pcap::PcapReader`] directly.

use std::fmt;

use crate::datagram::Datagram;
use crate::pcap::PcapError;

/// What one poll of a [`WireSource`] produced.
#[derive(Debug)]
pub enum Polled<'a> {
    /// One datagram, borrowed from the source's buffer.
    Datagram(Datagram<'a>),
    /// Nothing right now (socket read timeout); poll again.
    Empty,
    /// The source is exhausted (end of capture). Live sockets never
    /// return this.
    End,
}

/// An ingestion failure.
#[derive(Debug)]
pub enum IngestError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A capture file was malformed.
    Pcap(PcapError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "socket error: {e}"),
            IngestError::Pcap(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<PcapError> for IngestError {
    fn from(e: PcapError) -> Self {
        IngestError::Pcap(e)
    }
}

/// A stream of wire-level datagrams.
pub trait WireSource {
    /// Polls for the next datagram. The borrow ends when the caller
    /// next touches the source, so classification must happen before
    /// the following poll.
    fn poll(&mut self) -> Result<Polled<'_>, IngestError>;
}
