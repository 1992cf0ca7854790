//! Hand-rolled event-readiness syscalls for the reactor.
//!
//! The workspace builds fully offline, so there is no `mio`/`tokio`/`libc`
//! crate to lean on; this module declares the handful of `extern "C"`
//! symbols the reactor needs — `epoll_create1`/`epoll_ctl`/`epoll_wait`
//! and a nonblocking-connect quartet (`socket`/`connect`/`getsockopt`/
//! `setsockopt`) — against the libc every Rust binary on Linux already
//! links.
//!
//! Readiness comes from one edge-triggered epoll instance per reactor,
//! wrapped by [`Poller`]: each fd is registered once with
//! `EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP`. Edge-triggered means no
//! `epoll_ctl` on the hot path — the reactor tracks writability itself
//! (an `EPOLLOUT` edge arms it, a short write disarms it) and drains reads
//! to `WouldBlock`, so readiness costs one `epoll_wait` per batch
//! regardless of connection count. [`Poller`] is the seam around the
//! readiness syscalls: another backend (io_uring) would slot in there.
//!
//! Everything else socket-shaped goes through `std` (`TcpStream` wraps the
//! raw fd once a nonblocking connect is in flight).

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = i32;

/// Linux epoll event. x86-64 declares the struct packed; other 64-bit
/// targets use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_ERROR: c_int = 4;
const IPPROTO_TCP: c_int = 6;
const TCP_NODELAY: c_int = 1;
const EINPROGRESS: i32 = 115;

#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16, // network byte order
    sin_addr: u32, // network byte order
    sin_zero: [u8; 8],
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    fn getsockopt(fd: c_int, level: c_int, name: c_int, val: *mut c_int, len: *mut u32) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_int, len: u32) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Starts a nonblocking IPv4 TCP connect (with `TCP_NODELAY` already set —
/// this transport measures latency and cannot sit behind Nagle). Returns
/// the stream plus whether the connect already completed: `false` means
/// `EINPROGRESS`, i.e. wait for writability and then check
/// [`take_socket_error`].
pub fn connect_nonblocking(peer: SocketAddr) -> io::Result<(TcpStream, bool)> {
    let SocketAddr::V4(v4) = peer else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor transport supports IPv4 peers only",
        ));
    };
    // SAFETY: socket(2) takes no pointers; a negative return is mapped to
    // an error by `cvt` before the fd is used.
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `fd` is a freshly created, valid socket fd owned by nothing
    // else; from here the TcpStream owns it, so every error path closes it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let nodelay: c_int = 1;
    // SAFETY: `nodelay` outlives the call and the length matches c_int.
    cvt(unsafe { setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, 4) })?;
    let sa = SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from_ne_bytes(v4.ip().octets()),
        sin_zero: [0; 8],
    };
    // SAFETY: `sa` is a properly initialized sockaddr_in that outlives the
    // call, and the passed length is exactly its size.
    match cvt(unsafe { connect(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) }) {
        Ok(_) => Ok((stream, true)),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok((stream, false)),
        Err(e) => Err(e),
    }
}

/// Reads and clears the pending socket error (`SO_ERROR`) — how a
/// nonblocking connect reports its outcome once the fd turns writable.
/// `Ok(())` means the connection is established.
pub fn take_socket_error(fd: RawFd) -> io::Result<()> {
    let mut err: c_int = 0;
    let mut len: u32 = 4;
    // SAFETY: `err` and `len` outlive the call; `len` starts at the exact
    // size of `err`, so the kernel cannot write past it.
    cvt(unsafe { getsockopt(fd, SOL_SOCKET, SO_ERROR, &mut err, &mut len) })?;
    if err == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(err))
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup: the fd needs attention even if neither readiness
    /// bit is set (e.g. a refused nonblocking connect).
    pub error: bool,
}

/// The reactor's readiness source: one epoll instance, every fd armed
/// edge-triggered.
pub struct Poller {
    epfd: RawFd,
    /// Reused event buffer for `epoll_wait`.
    buf: Vec<EpollEvent>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1(2) takes no pointers; `cvt` maps a negative
        // return to an error before the fd is used.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Registers an fd under a token, armed edge-triggered for reads,
    /// writes and peer hangup in one shot.
    pub fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies the event
        // struct and keeps no pointer to it.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Removes an fd. Call *before* closing it.
    pub fn deregister(&mut self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` outlives the call (pre-2.6.9 kernels insist on a
        // non-null pointer even for DEL). Failure is unrecoverable in-kind
        // and ignored; closing the fd drops the registration anyway.
        let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits for readiness, appending to `out`. A `None` timeout blocks
    /// indefinitely (the reactor always passes one, for timer deadlines).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a sub-millisecond deadline sleeps ~1 ms instead
            // of spinning at timeout 0.
            Some(d) => {
                let whole = d.as_millis();
                let ms = if Duration::from_millis(whole as u64) < d {
                    whole + 1
                } else {
                    whole
                };
                ms.min(i32::MAX as u128) as c_int
            }
        };
        let n = loop {
            // SAFETY: `buf` is a live Vec and the passed capacity is its
            // exact length, so the kernel writes in bounds.
            let r = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            match cvt(r) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // Saturated batch: grow so a dense cluster does not need
            // multiple waits per loop.
            self.buf
                .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the Poller exclusively owns `epfd` (never exposed), so
        // this close is the only one and the fd is still valid.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_readability() {
        let mut poller = Poller::new().expect("epoll_create1");
        let (mut a, mut b) = registered_pair(&mut poller, 7);
        a.write_all(b"x").unwrap();
        a.flush().unwrap();
        await_readable(&mut poller, 7);
        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
    }

    /// A connected loopback pair, the far end nonblocking and registered
    /// under `token`.
    fn registered_pair(poller: &mut Poller, token: u64) -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), token).unwrap();
        (a, b)
    }

    /// Waits until `token` reports readable, or fails after 5 s.
    fn await_readable(poller: &mut Poller, token: u64) {
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !events
            .iter()
            .any(|e: &Event| e.token == token && e.readable)
        {
            assert!(std::time::Instant::now() < deadline, "no readable event");
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
        }
    }

    /// Events for `token` over one quiet 50 ms wait.
    fn events_within_50ms(poller: &mut Poller, token: u64) -> Vec<Event> {
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        events.retain(|e| e.token == token);
        events
    }

    /// The reactor drains every read to `WouldBlock` because readiness is
    /// edge-triggered: unread data is reported once, and again only when
    /// more arrives.
    #[test]
    fn unread_data_is_reported_once_per_arrival() {
        let mut poller = Poller::new().unwrap();
        let (mut a, mut b) = registered_pair(&mut poller, 7);
        a.write_all(b"x").unwrap();
        await_readable(&mut poller, 7);
        let again = events_within_50ms(&mut poller, 7);
        assert!(
            again.is_empty(),
            "edge re-reported without new data: {again:?}"
        );
        a.write_all(b"y").unwrap();
        await_readable(&mut poller, 7);
        let mut two = [0u8; 2];
        b.read_exact(&mut two).unwrap();
        assert_eq!(&two, b"xy");
    }

    #[test]
    fn deregistered_fd_reports_nothing() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = registered_pair(&mut poller, 9);
        poller.deregister(b.as_raw_fd());
        a.write_all(b"x").unwrap();
        let seen = events_within_50ms(&mut poller, 9);
        assert!(seen.is_empty(), "deregistered fd still reported: {seen:?}");
    }

    #[test]
    fn wait_with_nothing_ready_blocks_for_the_timeout() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    /// A sub-millisecond deadline rounds up to one millisecond rather than
    /// down to a zero-timeout spin.
    #[test]
    fn sub_millisecond_timeout_sleeps_instead_of_spinning() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_micros(100)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn nonblocking_connect_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (stream, _) = connect_nonblocking(listener.local_addr().unwrap()).unwrap();
        assert!(stream.nodelay().unwrap(), "Nagle must be off on every dial");
    }

    #[test]
    fn nonblocking_connect_rejects_ipv6_peers() {
        let err = connect_nonblocking("[::1]:4000".parse().unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn nonblocking_connect_reaches_a_listener_and_reports_refusal() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap();
        let (stream, done) = connect_nonblocking(peer).unwrap();
        let fd = stream.as_raw_fd();
        if !done {
            poller.register(fd, 1).unwrap();
            let mut events = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !events
                .iter()
                .any(|e: &Event| e.token == 1 && (e.writable || e.error))
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "connect never resolved"
                );
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
            }
        }
        take_socket_error(fd).expect("connect to a live listener succeeds");

        // A port with no listener must resolve to an error, not hang.
        drop(listener);
        let (stream, done) = connect_nonblocking(peer).unwrap();
        let fd = stream.as_raw_fd();
        if !done {
            let mut p2 = Poller::new().unwrap();
            p2.register(fd, 2).unwrap();
            let mut events = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !events
                .iter()
                .any(|e: &Event| e.token == 2 && (e.writable || e.error))
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "refusal never resolved"
                );
                p2.wait(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
            }
            assert!(take_socket_error(fd).is_err(), "refusal must surface");
        } else {
            // Immediate success against a dead port would be a bug, but
            // loopback sometimes yields immediate ECONNREFUSED instead of
            // EINPROGRESS — covered by the connect() error path.
        }
    }
}
