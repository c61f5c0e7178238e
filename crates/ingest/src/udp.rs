//! Live UDP capture: a receiver socket pool with kernel-level sharding.
//!
//! On Linux the pool binds N sockets to the same address with
//! `SO_REUSEPORT`, letting the kernel hash inbound flows across receiver
//! threads — no user-space dispatch on the hot path. The option predates
//! the `libc` crate's stabilized bindings this workspace cannot add, so
//! the three calls involved (`socket`, `setsockopt`, `bind`) are made
//! through a minimal hand-rolled FFI shim, IPv4 only. Anywhere that shim
//! is unavailable (non-Linux, IPv6 listen address, or a kernel that
//! refuses the option) the pool degrades to a single `std` socket read
//! by a single receiver thread; correctness is unchanged, only receive
//! parallelism is lost.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use vids_netsim::time::SimTime;

use crate::datagram::Datagram;
use crate::source::{IngestError, Polled, WireSource};

/// Largest UDP payload a source will deliver (the practical MTU ceiling
/// plus headroom for jumbo frames).
pub const RECV_BUF_LEN: usize = 64 * 1024;

/// How the pool's sockets were bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// N `SO_REUSEPORT` sockets; the kernel shards flows across them.
    ReusePort,
    /// One plain socket; a single receiver thread reads everything.
    Single,
}

/// The bound receiver sockets for a serve session.
pub struct UdpPool {
    sockets: Vec<UdpSocket>,
    mode: PoolMode,
    local: SocketAddr,
}

impl UdpPool {
    /// Binds `want` receiver sockets to `addr`.
    ///
    /// Tries the `SO_REUSEPORT` path first (Linux, IPv4, `want > 1`);
    /// falls back to one standard socket. Never fails because of the
    /// fallback path alone — an error means even the plain bind failed.
    pub fn bind(addr: SocketAddr, want: usize) -> std::io::Result<Self> {
        if want > 1 {
            if let Some(sockets) = reuseport::bind_many(addr, want) {
                let local = sockets[0].local_addr()?;
                return Ok(UdpPool {
                    sockets,
                    mode: PoolMode::ReusePort,
                    local,
                });
            }
        }
        let socket = UdpSocket::bind(addr)?;
        let local = socket.local_addr()?;
        Ok(UdpPool {
            sockets: vec![socket],
            mode: PoolMode::Single,
            local,
        })
    }

    /// How the sockets were bound.
    pub fn mode(&self) -> PoolMode {
        self.mode
    }

    /// The bound local address (with the resolved port when `addr` used
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Splits the pool into one [`UdpSource`] per socket, all sharing
    /// the `epoch` so their timestamps are mutually comparable.
    pub fn into_sources(self, epoch: Instant, read_timeout: Duration) -> Vec<UdpSource> {
        let local = self.local;
        self.sockets
            .into_iter()
            .map(|s| UdpSource::new(s, local, epoch, read_timeout))
            .collect()
    }
}

/// A [`WireSource`] over one live UDP socket.
pub struct UdpSource {
    socket: UdpSocket,
    local: SocketAddr,
    epoch: Instant,
    /// The single-datagram receive buffer, allocated by the first
    /// [`WireSource::poll`]: the `recvmmsg` path never reads it.
    buf: Option<Box<[u8]>>,
    #[cfg(target_os = "linux")]
    batch: Option<mmsg::Batch>,
}

/// Whether a failed read is just a poll that found nothing: the read
/// timeout expired, or a signal handler interrupted the wait. A read on a
/// socket with `SO_RCVTIMEO` fails with `EINTR` when a handler runs, even
/// one installed with `SA_RESTART` (signal(7)).
fn quiet(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

impl UdpSource {
    /// Wraps a bound socket. `read_timeout` bounds how long one poll
    /// blocks, which bounds shutdown latency.
    pub fn new(
        socket: UdpSocket,
        local: SocketAddr,
        epoch: Instant,
        read_timeout: Duration,
    ) -> Self {
        // A zero Duration would mean "block forever" to the kernel;
        // clamp up so the timeout stays a timeout.
        let timeout = read_timeout.max(Duration::from_millis(1));
        let _ = socket.set_read_timeout(Some(timeout));
        UdpSource {
            socket,
            local,
            epoch,
            buf: None,
            #[cfg(target_os = "linux")]
            batch: None,
        }
    }

    /// The most datagrams one [`UdpSource::poll_batch`] delivers. A poll
    /// that delivers fewer found the socket drained; one that fills every
    /// slot may have left datagrams queued.
    pub(crate) fn poll_slots(&self) -> usize {
        #[cfg(target_os = "linux")]
        if matches!(self.local, SocketAddr::V4(_)) {
            return mmsg::SLOTS;
        }
        1
    }

    /// Bytes queued in this socket's kernel receive buffer, if the
    /// platform exposes them (`FIONREAD`). Feeds the `socket_backlog`
    /// gauge.
    pub fn backlog_bytes(&self) -> Option<u64> {
        backlog::bytes(&self.socket)
    }

    /// Receives up to a small batch of datagrams in one syscall and
    /// invokes `f` for each, sharing one receive timestamp.
    ///
    /// On Linux (IPv4 sockets) this is `recvmmsg(2)` with
    /// `MSG_WAITFORONE`: the call blocks — bounded by the socket's read
    /// timeout — until at least one datagram arrives, then drains
    /// whatever else is already queued, up to [`mmsg::SLOTS`] messages,
    /// without re-entering the kernel per datagram. Elsewhere (and for
    /// IPv6 listeners) it degrades to one `recv_from` per call.
    ///
    /// Returns the number of datagrams delivered; 0 means the read timed
    /// out with nothing queued or a signal handler interrupted it.
    pub fn poll_batch(&mut self, f: &mut dyn FnMut(Datagram<'_>)) -> Result<usize, IngestError> {
        #[cfg(target_os = "linux")]
        if matches!(self.local, SocketAddr::V4(_)) {
            use std::os::fd::AsRawFd;
            let fd = self.socket.as_raw_fd();
            let batch = self.batch.get_or_insert_with(mmsg::Batch::new);
            return match batch.recv(fd) {
                Ok(n) => {
                    let at = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
                    for i in 0..n {
                        let (src, payload) = batch.datagram(i);
                        f(Datagram {
                            src,
                            dst: self.local,
                            at,
                            payload,
                        });
                    }
                    Ok(n)
                }
                Err(e) if quiet(&e) => Ok(0),
                Err(e) => Err(IngestError::Io(e)),
            };
        }
        match self.poll()? {
            Polled::Datagram(d) => {
                f(d);
                Ok(1)
            }
            Polled::Empty | Polled::End => Ok(0),
        }
    }
}

impl WireSource for UdpSource {
    fn poll(&mut self) -> Result<Polled<'_>, IngestError> {
        let buf = self
            .buf
            .get_or_insert_with(|| vec![0u8; RECV_BUF_LEN].into_boxed_slice());
        match self.socket.recv_from(buf) {
            Ok((len, src)) => {
                let at = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
                Ok(Polled::Datagram(Datagram {
                    src,
                    dst: self.local,
                    at,
                    payload: &buf[..len],
                }))
            }
            Err(e) if quiet(&e) => Ok(Polled::Empty),
            Err(e) => Err(IngestError::Io(e)),
        }
    }
}

#[cfg(target_os = "linux")]
pub mod mmsg {
    //! Batched reception via `recvmmsg(2)`, same hand-rolled FFI policy
    //! as the reuseport shim: the symbol comes from the libc `std`
    //! already links, the struct layouts are written out for 64-bit
    //! Linux, and anything unexpected falls back to the portable path.

    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

    /// Messages drained per syscall. Eight 64 KiB buffers is 512 KiB per
    /// receiver — large enough to amortize the syscall under load, small
    /// enough to allocate lazily per source.
    pub const SLOTS: usize = 8;

    const AF_INET: u16 = 2;
    /// Block (honoring `SO_RCVTIMEO`) only until the first message.
    const MSG_WAITFORONE: i32 = 0x10000;

    /// `struct sockaddr_in`, as in the reuseport shim.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct msghdr` (64-bit layout; `repr(C)` inserts the 4-byte pads
    /// after `namelen` and `flags` that the ABI requires).
    #[repr(C)]
    struct MsgHdr {
        name: *mut SockaddrIn,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    extern "C" {
        fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
    }

    /// The preallocated receive state: [`SLOTS`] payload buffers, source
    /// addresses, iovecs and message headers, wired together once. All
    /// pointers target heap allocations owned by this struct, so moving
    /// the struct (the `Vec` headers) never invalidates them.
    pub struct Batch {
        bufs: Vec<Box<[u8]>>,
        addrs: Vec<SockaddrIn>,
        // Never read directly — each element is referenced by a raw
        // pointer from `hdrs`, and the Vec keeps that storage alive.
        #[allow(dead_code)]
        iovecs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // SAFETY: the raw pointers all point into heap memory owned by the
    // same struct; a batch is only ever used by its owning thread.
    unsafe impl Send for Batch {}

    impl Batch {
        /// Allocates the buffers and wires the header chain.
        pub fn new() -> Self {
            let mut bufs: Vec<Box<[u8]>> = (0..SLOTS)
                .map(|_| vec![0u8; super::RECV_BUF_LEN].into_boxed_slice())
                .collect();
            let mut addrs: Vec<SockaddrIn> = (0..SLOTS)
                .map(|_| SockaddrIn {
                    family: 0,
                    port: [0; 2],
                    addr: [0; 4],
                    zero: [0; 8],
                })
                .collect();
            let mut iovecs: Vec<IoVec> = bufs
                .iter_mut()
                .map(|b| IoVec {
                    base: b.as_mut_ptr(),
                    len: b.len(),
                })
                .collect();
            let hdrs: Vec<MMsgHdr> = iovecs
                .iter_mut()
                .zip(addrs.iter_mut())
                .map(|(iov, addr)| MMsgHdr {
                    hdr: MsgHdr {
                        name: addr as *mut SockaddrIn,
                        namelen: std::mem::size_of::<SockaddrIn>() as u32,
                        iov: iov as *mut IoVec,
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                })
                .collect();
            Batch {
                bufs,
                addrs,
                iovecs,
                hdrs,
            }
        }

        /// One `recvmmsg` call; returns how many messages landed.
        pub fn recv(&mut self, fd: i32) -> std::io::Result<usize> {
            for h in &mut self.hdrs {
                h.hdr.namelen = std::mem::size_of::<SockaddrIn>() as u32;
                h.hdr.flags = 0;
                h.len = 0;
            }
            // SAFETY: every header points at live, correctly sized
            // buffers owned by `self`; vlen matches the header count.
            let rc = unsafe {
                recvmmsg(
                    fd,
                    self.hdrs.as_mut_ptr(),
                    self.hdrs.len() as u32,
                    MSG_WAITFORONE,
                    std::ptr::null_mut(),
                )
            };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(rc as usize)
        }

        /// Source address and payload of received message `i`. A
        /// non-IPv4 source (cannot happen on the IPv4 sockets this path
        /// is gated to) reads as the unspecified address.
        pub fn datagram(&self, i: usize) -> (SocketAddr, &[u8]) {
            let a = &self.addrs[i];
            let src = if a.family == AF_INET {
                SocketAddrV4::new(Ipv4Addr::from(a.addr), u16::from_be_bytes(a.port))
            } else {
                SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0)
            };
            let len = (self.hdrs[i].len as usize).min(self.bufs[i].len());
            (SocketAddr::V4(src), &self.bufs[i][..len])
        }
    }

    impl Default for Batch {
        fn default() -> Self {
            Batch::new()
        }
    }
}

#[cfg(target_os = "linux")]
mod reuseport {
    //! `SO_REUSEPORT` socket creation via raw syscall-wrapper FFI.
    //!
    //! The symbols come from the libc that `std` already links; no crate
    //! is added. IPv4 only — the sockaddr layout is hand-built.

    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// `struct sockaddr_in`: family, big-endian port, address, padding.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }

    fn bind_one(sa: &SockaddrIn) -> Option<UdpSocket> {
        // SAFETY: plain syscall wrappers; the fd is either handed to
        // UdpSocket (which owns closing it) or closed on every early
        // return.
        unsafe {
            let fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return None;
            }
            let one: i32 = 1;
            if setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, 4) != 0 {
                close(fd);
                return None;
            }
            if bind(fd, sa, std::mem::size_of::<SockaddrIn>() as u32) != 0 {
                close(fd);
                return None;
            }
            Some(UdpSocket::from_raw_fd(fd))
        }
    }

    /// Binds `n` reuseport sockets to the same IPv4 address, or `None`
    /// if any step fails (caller falls back to a single socket).
    pub fn bind_many(addr: SocketAddr, n: usize) -> Option<Vec<UdpSocket>> {
        let SocketAddr::V4(v4) = addr else {
            return None;
        };
        let mut sa = SockaddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be_bytes(),
            addr: v4.ip().octets(),
            zero: [0; 8],
        };
        let mut sockets = Vec::with_capacity(n);
        for _ in 0..n {
            let s = bind_one(&sa)?;
            if v4.port() == 0 && sockets.is_empty() {
                // Port 0 resolved on the first bind; the rest must share
                // the kernel-chosen port.
                let SocketAddr::V4(resolved) = s.local_addr().ok()? else {
                    return None;
                };
                sa.port = resolved.port().to_be_bytes();
            }
            sockets.push(s);
        }
        Some(sockets)
    }
}

#[cfg(not(target_os = "linux"))]
mod reuseport {
    use std::net::{SocketAddr, UdpSocket};

    /// No reuseport shim off Linux; the pool uses the single-socket
    /// fallback.
    pub fn bind_many(_addr: SocketAddr, _n: usize) -> Option<Vec<UdpSocket>> {
        None
    }
}

#[cfg(target_os = "linux")]
mod backlog {
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    const FIONREAD: u64 = 0x541b;

    extern "C" {
        fn ioctl(fd: i32, request: u64, ...) -> i32;
    }

    /// Bytes waiting in the socket's kernel receive queue.
    pub fn bytes(socket: &UdpSocket) -> Option<u64> {
        let mut pending: i32 = 0;
        // SAFETY: FIONREAD writes one c_int through the pointer.
        let rc = unsafe { ioctl(socket.as_raw_fd(), FIONREAD, &mut pending) };
        if rc == 0 {
            Some(pending.max(0) as u64)
        } else {
            None
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod backlog {
    use std::net::UdpSocket;

    pub fn bytes(_socket: &UdpSocket) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn can_bind_loopback() -> bool {
        UdpSocket::bind("127.0.0.1:0").is_ok()
    }

    #[test]
    fn pool_binds_and_reports_mode() {
        if !can_bind_loopback() {
            eprintln!("skipping: UDP loopback binding unavailable");
            return;
        }
        let pool = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 4).unwrap();
        let n = pool.sockets.len();
        match pool.mode() {
            PoolMode::ReusePort => assert_eq!(n, 4),
            PoolMode::Single => assert_eq!(n, 1),
        }
        assert_ne!(pool.local_addr().port(), 0);
    }

    #[test]
    fn source_receives_a_datagram_and_times_out_cleanly() {
        if !can_bind_loopback() {
            eprintln!("skipping: UDP loopback binding unavailable");
            return;
        }
        let pool = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 1).unwrap();
        let target = pool.local_addr();
        let mut sources = pool.into_sources(Instant::now(), Duration::from_millis(20));
        let mut src = sources.pop().unwrap();

        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        sender.send_to(b"ping", target).unwrap();

        let mut got = false;
        for _ in 0..50 {
            match src.poll().unwrap() {
                Polled::Datagram(d) => {
                    assert_eq!(d.payload, b"ping");
                    assert_eq!(d.dst, target);
                    got = true;
                    break;
                }
                Polled::Empty => continue,
                Polled::End => unreachable!("live sockets never end"),
            }
        }
        assert!(got, "datagram never arrived on loopback");
        // Queue now empty: the next poll must time out, not hang.
        assert!(matches!(src.poll().unwrap(), Polled::Empty));
    }

    #[test]
    fn poll_batch_drains_queued_datagrams_in_one_call() {
        if !can_bind_loopback() {
            eprintln!("skipping: UDP loopback binding unavailable");
            return;
        }
        let pool = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 1).unwrap();
        let target = pool.local_addr();
        let mut sources = pool.into_sources(Instant::now(), Duration::from_millis(20));
        let mut src = sources.pop().unwrap();

        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sender_addr = sender.local_addr().unwrap();
        for msg in [b"one".as_slice(), b"two", b"three"] {
            sender.send_to(msg, target).unwrap();
        }

        let mut got: Vec<Vec<u8>> = Vec::new();
        for _ in 0..50 {
            src.poll_batch(&mut |d| {
                assert_eq!(d.src, sender_addr);
                assert_eq!(d.dst, target);
                got.push(d.payload.to_vec());
            })
            .unwrap();
            if got.len() >= 3 {
                break;
            }
        }
        assert_eq!(
            got,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        // Empty queue: a batched poll times out with zero, not an error.
        assert_eq!(
            src.poll_batch(&mut |_| panic!("no datagram expected"))
                .unwrap(),
            0
        );
    }

    #[test]
    fn recvmmsg_source_allocates_no_single_datagram_buffer() {
        if !can_bind_loopback() {
            eprintln!("skipping: UDP loopback binding unavailable");
            return;
        }
        let pool = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 1).unwrap();
        let mut src = pool
            .into_sources(Instant::now(), Duration::from_millis(1))
            .pop()
            .unwrap();
        src.poll_batch(&mut |_| {}).unwrap();
        assert_eq!(src.buf.is_some(), src.poll_slots() == 1);
        src.poll().unwrap();
        assert!(
            src.buf.is_some(),
            "the fallback path allocates on first use"
        );
    }

    /// A signal handler running while a receiver blocks in its read makes
    /// the read fail with `EINTR` (signal(7): `SO_RCVTIMEO` reads are never
    /// restarted). That must read as a quiet poll, or `SIGUSR1`, the
    /// snapshot trigger, would retire the receiver.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_signal_during_a_blocking_poll_is_a_quiet_poll() {
        use std::sync::atomic::{AtomicBool, Ordering};

        /// `SIGUSR1` on Linux.
        const SIGUSR1: i32 = 10;
        extern "C" {
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, sig: i32) -> i32;
        }
        if !can_bind_loopback() {
            eprintln!("skipping: UDP loopback binding unavailable");
            return;
        }
        crate::server::dump_flag_on_sigusr1();
        let pool = UdpPool::bind("127.0.0.1:0".parse().unwrap(), 1).unwrap();
        let timeout = Duration::from_secs(5);
        let mut src = pool.into_sources(Instant::now(), timeout).pop().unwrap();
        let done = AtomicBool::new(false);
        let (tx, rx) = std::sync::mpsc::channel();
        let (polled, waited) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                // SAFETY: returns the calling thread's handle; no
                // preconditions.
                tx.send(unsafe { pthread_self() }).unwrap();
                let started = Instant::now();
                let polled = src.poll_batch(&mut |_| panic!("nothing was sent"));
                done.store(true, Ordering::Relaxed);
                (polled.map_err(|e| e.to_string()), started.elapsed())
            });
            let thread = rx.recv().unwrap();
            // Signal until the poll returns: one that lands before the
            // thread blocks in the read is simply handled, the next one
            // interrupts the read.
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                // SAFETY: `thread` is a thread of this process that is not
                // joined yet, and SIGUSR1 has a handler that only sets a
                // flag. A thread that has just returned ignores it.
                unsafe { pthread_kill(thread, SIGUSR1) };
            }
            poller.join().unwrap()
        });
        assert_eq!(polled, Ok(0), "an interrupted read is an empty poll");
        assert!(
            waited < timeout,
            "the signal, not the timeout, ended the read"
        );
    }
}
