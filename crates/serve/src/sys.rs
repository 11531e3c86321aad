//! Audited syscall layer: epoll, the SIGTERM self-pipe, and the socket
//! options — everything the event loop needs that `std` does not
//! expose, `SO_REUSEPORT` binding included.
//!
//! The container vendors no `libc` crate, so the handful of symbols are
//! declared here directly; they resolve against the C library `std`
//! already links. Every `unsafe` block carries a `// safety:` argument
//! (enforced workspace-wide by mt-check's `crate_hygiene` rule), and
//! nothing unsafe leaks out of this module: the public surface is
//! [`Poller`]/[`Interest`]/[`Event`], [`set_recv_buffer`], the
//! `SO_REUSEPORT` bind helpers ([`bind_udp_reuseport`],
//! [`bind_tcp_reuseport`]), and the signal helpers, all safe.

use std::io;
use std::net::{SocketAddrV4, TcpListener, UdpSocket};
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicI32, Ordering};

// Linux ABI constants (asm-generic values, correct on x86_64/aarch64).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const SIGTERM: c_int = 15;
const SOL_SOCKET: c_int = 1;
const SO_RCVBUF: c_int = 8;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;
const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_DGRAM: c_int = 2;
const SOCK_CLOEXEC: c_int = 0o2000000;
const ENOMEM: i32 = 12;
const ENFILE: i32 = 23;
pub(crate) const EMFILE: i32 = 24;
const ENOBUFS: i32 = 105;

/// `struct epoll_event`. Packed on x86_64 (the kernel ABI packs it
/// there so 32- and 64-bit layouts agree); natural alignment elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// The signal handler's signature, as the C library expects it.
type SigHandler = extern "C" fn(c_int);

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn signal(signum: c_int, handler: SigHandler) -> usize;
    fn raise(sig: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const SockaddrIn, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Whether `err` says the process or the kernel ran out of descriptors
/// or socket memory (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`): retrying
/// at once fails the same way.
pub(crate) fn is_resource_exhaustion(err: &io::Error) -> bool {
    matches!(err.raw_os_error(), Some(EMFILE | ENFILE | ENOBUFS | ENOMEM))
}

/// `struct sockaddr_in`, the kernel's IPv4 socket address. Port and
/// address are stored big-endian as the ABI requires.
#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

impl SockaddrIn {
    fn from_v4(addr: SocketAddrV4) -> SockaddrIn {
        SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        }
    }
}

/// What a registration wants to be woken for (an epoll event mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Read-only interest — the common case for listeners and ingest.
    pub const READ: Interest = Interest(EPOLLIN);
    /// Read + write interest — HTTP connections mid-response.
    pub const READ_WRITE: Interest = Interest(EPOLLIN | EPOLLOUT);
}

/// One readiness event, translated out of the kernel struct. Anything
/// but writability — readable, peer hangup, error — is for the owner
/// to find out by reading the fd.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Writable.
    pub writable: bool,
}

/// A level-triggered epoll instance. The file descriptor is owned:
/// dropping the poller closes it.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // safety: epoll_create1 touches no caller memory; the flag is a
        // valid constant and the returned fd (or -1) is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.0,
            data: token,
        };
        // safety: `ev` is a live, properly-laid-out EpollEvent for the
        // duration of the call; epfd and fd are open descriptors owned
        // by the caller; the kernel only reads the struct.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of a registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the interest list.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest(0))
    }

    /// Waits up to `timeout_ms` (-1 = forever) and appends readiness
    /// events to `out`. An interrupted wait (EINTR) returns cleanly
    /// with no events so the caller's loop can re-check its state.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        const MAX_EVENTS: usize = 128;
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // safety: `buf` is a properly-aligned array of MAX_EVENTS
        // EpollEvents living across the call; the kernel writes at most
        // `maxevents` entries, and we read back only the first `n`.
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in buf.iter().take(n as usize) {
            // A packed struct's fields are moved out before use so no
            // unaligned reference is ever formed.
            let events = ev.events;
            let data = ev.data;
            out.push(Event {
                token: data,
                writable: events & EPOLLOUT != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // safety: epfd was returned by epoll_create1 and is closed
        // exactly once, here; close touches no caller memory.
        unsafe { close(self.epfd) };
    }
}

/// Asks the kernel for a receive-buffer size on `fd` (the kernel may
/// clamp to `net.core.rmem_max`; this is best-effort by design).
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_sol_option(fd, SO_RCVBUF, c_int::try_from(bytes).unwrap_or(c_int::MAX))
}

/// Sets an integer socket option at the `SOL_SOCKET` level.
fn set_sol_option(fd: RawFd, optname: c_int, val: c_int) -> io::Result<()> {
    // safety: optval points at a live c_int of exactly optlen bytes for
    // the duration of the call; the kernel only reads it.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            optname,
            (&val as *const c_int).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Creates an IPv4 socket of type `ty` with `SO_REUSEPORT` set and
/// binds it to `addr`.
fn bound_reuseport_fd(addr: SocketAddrV4, ty: c_int) -> io::Result<OwnedFd> {
    // safety: socket(2) touches no caller memory; domain/type/protocol
    // are valid constants and the returned fd (or -1) is checked below.
    let fd = unsafe { socket(AF_INET, ty | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // safety: fd was created by socket(2) just above and has no other
    // owner; from here `sock` closes it exactly once, early returns
    // included.
    let sock = unsafe { OwnedFd::from_raw_fd(fd) };
    // Several sockets may then bind the same address, with the kernel
    // hashing incoming datagrams (by 4-tuple) and TCP connections
    // across them — how the daemon's event loops are sharded.
    set_sol_option(fd, SO_REUSEPORT, 1)?;
    if ty == SOCK_STREAM {
        // Before the bind, where it takes effect — matching std's
        // listener bind so TIME_WAIT remnants don't block restarts.
        set_sol_option(fd, SO_REUSEADDR, 1)?;
    }
    let sa = SockaddrIn::from_v4(addr);
    // safety: `sa` is a live, properly-laid-out sockaddr_in for the
    // duration of the call and addrlen is exactly its size; the kernel
    // only reads it; fd is open and owned by `sock`.
    let rc = unsafe { bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(sock)
}

/// Binds an IPv4 UDP socket to `addr` with `SO_REUSEPORT` set before
/// the bind, so N event loops can each own a socket on the same port
/// and the kernel spreads datagrams across them by flow hash.
pub fn bind_udp_reuseport(addr: SocketAddrV4) -> io::Result<UdpSocket> {
    bound_reuseport_fd(addr, SOCK_DGRAM).map(UdpSocket::from)
}

/// Binds an IPv4 TCP listener to `addr` with `SO_REUSEPORT` (and
/// `SO_REUSEADDR`, matching `std`'s listener bind) set before the bind,
/// so N event loops can each accept on the same port with the kernel
/// sharding incoming connections across them.
pub fn bind_tcp_reuseport(addr: SocketAddrV4, backlog: u32) -> io::Result<TcpListener> {
    let sock = bound_reuseport_fd(addr, SOCK_STREAM)?;
    // safety: listen(2) touches no caller memory; the fd is open, bound,
    // and owned by `sock`; the backlog is clamped to the C int range.
    let rc = unsafe {
        listen(
            sock.as_raw_fd(),
            c_int::try_from(backlog).unwrap_or(c_int::MAX),
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(TcpListener::from(sock))
}

/// Write end of the SIGTERM self-pipe, published for the handler.
/// -1 until [`install_sigterm_pipe`] runs.
static SIGNAL_PIPE_WR: AtomicI32 = AtomicI32::new(-1);

extern "C" fn sigterm_handler(_sig: c_int) {
    // ordering: Relaxed — the fd is written once before the handler can
    // ever run (signal() is called after the store) and never changes;
    // there is no data behind it to synchronize.
    let fd = SIGNAL_PIPE_WR.load(Ordering::Relaxed);
    if fd >= 0 {
        // safety: write(2) is async-signal-safe (POSIX); the buffer is
        // a live one-byte static; the fd is a pipe end kept open for
        // the process lifetime by install_sigterm_pipe.
        let _ = unsafe { write(fd, b"T".as_ptr().cast::<c_void>(), 1) };
    }
}

/// Installs a SIGTERM handler that writes one byte to `tx`, the
/// nonblocking write end of a self-pipe whose read end an event loop
/// watches. `tx` is intentionally leaked — the handler may fire at any
/// point for the rest of the process's life.
///
/// Installing twice repoints the handler at the new pipe; the previous
/// write end stays open (leaked) so a concurrently delivered signal can
/// never hit a closed fd.
pub fn install_sigterm_pipe(tx: UnixStream) -> io::Result<()> {
    {
        use std::os::unix::io::IntoRawFd;
        // ordering: Relaxed — published before signal() installs the
        // handler below, and the handler only reads the value.
        SIGNAL_PIPE_WR.store(tx.into_raw_fd(), Ordering::Relaxed);
    }
    // safety: installing a handler that is itself async-signal-safe
    // (one write(2) on a static fd); SIGTERM is a valid signal number;
    // glibc's signal() has BSD semantics (handler persists).
    let prev = unsafe { signal(SIGTERM, sigterm_handler) };
    if prev == usize::MAX {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Delivers SIGTERM to the current process — test hook for the
/// graceful-shutdown path.
pub fn raise_sigterm() {
    // safety: raise(2) with a valid signal number; no memory involved.
    let _ = unsafe { raise(SIGTERM) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::UdpSocket;

    #[test]
    fn poller_sees_udp_readability() {
        let poller = Poller::new().unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_nonblocking(true).unwrap();
        poller.add(sock.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "nothing sent yet");

        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"ping", sock.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, 2000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);

        // Level-triggered: still readable until drained.
        events.clear();
        poller.wait(&mut events, 0).unwrap();
        assert_eq!(events.len(), 1);
        let mut buf = [0u8; 16];
        sock.recv_from(&mut buf).unwrap();
        events.clear();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained");

        poller.delete(sock.as_raw_fd()).unwrap();
        tx.send_to(b"ping", sock.local_addr().unwrap()).unwrap();
        events.clear();
        poller.wait(&mut events, 50).unwrap();
        assert!(events.is_empty(), "deregistered fd no longer reported");
    }

    #[test]
    fn recv_buffer_request_is_accepted() {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        set_recv_buffer(sock.as_raw_fd(), 1 << 20).unwrap();
    }

    #[test]
    fn udp_reuseport_shares_a_port_and_delivers_each_datagram_once() {
        let a = bind_udp_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = a.local_addr().unwrap();
        let port_addr = match addr {
            std::net::SocketAddr::V4(v4) => v4,
            std::net::SocketAddr::V6(_) => unreachable!("bound V4"),
        };
        // Second socket on the *same* concrete port — only possible
        // because both were bound with SO_REUSEPORT set first.
        let b = bind_udp_reuseport(port_addr).unwrap();
        assert_eq!(b.local_addr().unwrap(), addr);
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();

        // Many source ports so the kernel's 4-tuple hash gets a chance
        // to spread; each datagram must arrive on exactly one socket.
        let n = 64;
        for _ in 0..n {
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            tx.send_to(b"ping", addr).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut buf = [0u8; 16];
        let mut got = 0;
        while a.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        while b.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, n, "every datagram delivered exactly once");
    }

    #[test]
    fn tcp_reuseport_listeners_share_a_port() {
        let a = bind_tcp_reuseport("127.0.0.1:0".parse().unwrap(), 128).unwrap();
        let addr = a.local_addr().unwrap();
        let port_addr = match addr {
            std::net::SocketAddr::V4(v4) => v4,
            std::net::SocketAddr::V6(_) => unreachable!("bound V4"),
        };
        let b = bind_tcp_reuseport(port_addr, 128).unwrap();
        assert_eq!(b.local_addr().unwrap(), addr);
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();

        // Connections land on exactly one of the listeners.
        let mut accepted = 0;
        let conns: Vec<_> = (0..8)
            .map(|_| std::net::TcpStream::connect(addr).unwrap())
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        while a.accept().is_ok() {
            accepted += 1;
        }
        while b.accept().is_ok() {
            accepted += 1;
        }
        assert_eq!(accepted, conns.len(), "every connection accepted once");
    }

    #[test]
    fn sigterm_pipe_wakes() {
        let (mut rx, tx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        install_sigterm_pipe(tx).unwrap();
        raise_sigterm();
        // The byte may take a scheduling quantum to land; poll briefly.
        let poller = Poller::new().unwrap();
        poller.add(rx.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 5000).unwrap();
        assert!(!events.is_empty(), "SIGTERM self-pipe byte arrived");
        let mut buf = [0u8; 8];
        let n = rx.read(&mut buf).unwrap();
        assert!(n >= 1);
        assert_eq!(buf[0], b'T');
    }
}
