//! The daemon's one event loop.
//!
//! A [`Reactor`] owns everything the ingest loops and the control loop
//! have in common: the [`Poller`], the wake pipe, the shutdown latch,
//! the optional listener, the token → connection table, the per-loop
//! `open_connections`/`loop_events`/`connection_errors` series, and the
//! two phases — serve until shutdown ([`Reactor::serve`]) and drain to
//! quiescence ([`Reactor::drain`]). What a readiness event *means* is the
//! [`Handler`]'s business: the type parameter is dispatched statically,
//! so nothing sits between `epoll_wait` and the bytes' consumer.
//!
//! A per-connection setup error (`set_nonblocking`/`Poller::add`
//! failing for one accepted socket) drops that socket and counts it in
//! `mt_serve_connection_errors_total`; the loop keeps accepting. An
//! `accept` that fails for want of descriptors or socket memory pauses
//! the listener instead: it leaves the poller for [`ACCEPT_BACKOFF`],
//! counted in `mt_serve_accept_paused_total`, so that a readable
//! listener nobody can accept from does not spin the loop.
//!
//! A handler may give its connections an idle timeout
//! ([`Handler::idle_timeout`]): a connection that moves no byte in
//! either direction for that long is closed and counted in
//! `mt_serve_idle_closed_total`. While such a connection is open the
//! loop's wait is bounded by the first idle deadline, so even a wait
//! that would block forever wakes to close it; with none open the wait
//! is left as it is.

use crate::sys::{self, Event, Interest, Poller};
use mt_obs::{Counter, Gauge, MetricsRegistry};
use mt_types::FxHashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-sweep `epoll_wait` timeout during the drain phase, in ms.
const DRAIN_WAIT_MS: i32 = 50;

/// Consecutive drain sweeps that move no bytes before a loop declares
/// its sockets quiescent.
const DRAIN_QUIET_SWEEPS: u32 = 2;

/// How long a listener stays out of the poller after `accept` ran out
/// of descriptors or socket memory: long enough that the loop does
/// other work meanwhile, short enough that accepting resumes soon after
/// descriptors free up.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(200);

/// Registration tokens for a loop's own fds; connections start at
/// [`FIRST_CONN_TOKEN`]. Each loop has its own poller, so the token
/// spaces are independent.
const TOK_WAKE: u64 = 0;
const TOK_DATAGRAM: u64 = 1;
const TOK_LISTENER: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 16;

/// What a connection waits for after its handler ran.
pub(crate) enum Next {
    /// Finished or failed: deregister and close it.
    Close,
    /// More input.
    Read,
    /// Room in the socket's send buffer, to finish a blocked write.
    Write,
}

/// The outcome of one [`Handler::on_ready`] call.
pub(crate) struct Step {
    /// Bytes read plus bytes written: the drain phase's progress signal.
    pub moved: u64,
    /// What the connection waits for next.
    pub next: Next,
}

/// What one kind of loop does with its readiness events.
pub(crate) trait Handler {
    /// Per-connection state kept beside the socket (which the reactor
    /// owns).
    type Conn;

    /// The handler's nonblocking datagram socket, if it has one; the
    /// reactor registers it for reads.
    fn datagram_fd(&self) -> Option<RawFd> {
        None
    }

    /// The datagram socket is readable: consume it to `WouldBlock`.
    /// Returns the bytes received.
    fn on_datagrams(&mut self) -> u64 {
        0
    }

    /// A connection from `peer` was accepted and registered.
    fn on_accept(&mut self, peer: SocketAddr) -> Self::Conn;

    /// `sock` is ready: advance the connection as far as the socket
    /// allows without blocking.
    fn on_ready(&mut self, sock: &TcpStream, conn: &mut Self::Conn) -> Step;

    /// How long a connection may move no byte before the loop closes
    /// it; `None`, the default, keeps idle connections open. Asked on
    /// every sweep; whether it is `None` is fixed at [`Reactor::new`].
    fn idle_timeout(&self) -> Option<Duration> {
        None
    }
}

/// The idle bookkeeping of a loop whose handler sets a timeout.
struct Idle {
    /// Token → when the connection was adopted or last moved a byte.
    last_moved: FxHashMap<u64, Instant>,
    closed: Counter,
}

/// One event loop around a [`Handler`].
pub(crate) struct Reactor<H: Handler> {
    pub(crate) handler: H,
    poller: Poller,
    /// Read end of the wake pipe (the shutdown trigger's, and on the
    /// control loop also the SIGTERM handler's).
    wake: UnixStream,
    latch: Arc<AtomicBool>,
    listener: Option<TcpListener>,
    conns: FxHashMap<u64, (TcpStream, H::Conn)>,
    next_token: u64,
    /// Consecutive sweeps that moved no bytes.
    quiet: u32,
    /// When a listener paused by [`Reactor::pause_accepting`] goes back
    /// into the poller; `None` while it is registered.
    accept_resumes_at: Option<Instant>,
    open_conns: Gauge,
    loop_events: Counter,
    conn_errors: Counter,
    accept_paused: Counter,
    idle: Option<Idle>,
    /// Fault injection, asked after each serve-phase sweep (`"serve"`),
    /// in place of each `accept` (`"listen"`: an `Err` is the accept's
    /// result) and before each connection setup (`"accept"`).
    #[cfg(test)]
    pub(crate) fault: tests::Fault,
}

impl<H: Handler> Reactor<H> {
    /// Builds a loop around `handler`, registering its datagram socket
    /// and `listener` (made nonblocking here), and the loop's three
    /// series under `loop="<label>"`. Also returns the write end of
    /// the loop's wake pipe.
    pub(crate) fn new(
        handler: H,
        listener: Option<TcpListener>,
        latch: Arc<AtomicBool>,
        reg: &MetricsRegistry,
        label: &str,
    ) -> io::Result<(Reactor<H>, UnixStream)> {
        let poller = Poller::new()?;
        if let Some(fd) = handler.datagram_fd() {
            poller.add(fd, TOK_DATAGRAM, Interest::READ)?;
        }
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
        }
        let (wake, wake_tx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        poller.add(wake.as_raw_fd(), TOK_WAKE, Interest::READ)?;
        let reactor = Reactor {
            poller,
            wake,
            latch,
            listener,
            conns: FxHashMap::default(),
            next_token: FIRST_CONN_TOKEN,
            quiet: 0,
            accept_resumes_at: None,
            open_conns: reg.gauge_with(
                "mt_serve_open_connections",
                &[("loop", label)],
                "Currently open connections, by event loop.",
            ),
            loop_events: reg.counter_with(
                "mt_serve_loop_events_total",
                &[("loop", label)],
                "Readiness events handled, by event loop.",
            ),
            conn_errors: reg.counter_with(
                "mt_serve_connection_errors_total",
                &[("loop", label)],
                "Accepted connections dropped because their setup failed, by event loop.",
            ),
            accept_paused: reg.counter_with(
                "mt_serve_accept_paused_total",
                &[("loop", label)],
                "Listener back-offs after accept ran out of descriptors or socket memory, by event loop.",
            ),
            idle: handler.idle_timeout().map(|_| Idle {
                last_moved: FxHashMap::default(),
                closed: reg.counter_with(
                    "mt_serve_idle_closed_total",
                    &[("loop", label)],
                    "Connections closed after moving no byte for the idle timeout, by event loop.",
                ),
            }),
            handler,
            #[cfg(test)]
            fault: Box::new(|_| Ok(())),
        };
        Ok((reactor, wake_tx))
    }

    /// The serve phase: wait and dispatch until a wake byte or the
    /// shutdown latch. `mt_serve_loop_events_total` counts this phase
    /// only.
    pub(crate) fn serve(&mut self) -> io::Result<()> {
        let mut events = Vec::with_capacity(256);
        loop {
            let woken = self.sweep(&mut events, -1)?;
            self.loop_events.add(events.len() as u64);
            #[cfg(test)]
            (self.fault)("serve")?;
            // ordering: Acquire pairs with the trigger's Release;
            // a trigger racing the wake byte is still caught here.
            if woken || self.latch.load(Ordering::Acquire) {
                return Ok(());
            }
        }
    }

    /// The drain phase: adopt what the backlog already holds and stop
    /// accepting, keep sweeping while bytes move in either direction —
    /// until [`DRAIN_QUIET_SWEEPS`] sweeps in a row move none, or
    /// nothing is left that could — then close what remains. The wake
    /// pipe is deregistered first: a late wake byte is no progress and
    /// must not stand in for a quiet sweep's wait.
    pub(crate) fn drain(&mut self) -> io::Result<()> {
        let _ = self.poller.delete(self.wake.as_raw_fd());
        // A connection whose handshake finished before the shutdown is
        // owed its bytes; closing the listener over it would reset it.
        self.accept_pending();
        // Closing the listener also drops it out of the poller.
        self.listener = None;
        self.accept_resumes_at = None;
        let mut events = Vec::with_capacity(256);
        self.quiet = 0;
        while self.quiet < DRAIN_QUIET_SWEEPS
            && (!self.conns.is_empty() || self.handler.datagram_fd().is_some())
        {
            self.sweep(&mut events, DRAIN_WAIT_MS)?;
        }
        // Anything still open is an idle peer; close our side (which
        // also drops the sockets out of the poller).
        self.conns.clear();
        if let Some(idle) = &mut self.idle {
            idle.last_moved.clear();
        }
        self.open_conns.set(0);
        Ok(())
    }

    /// One `epoll_wait` and the dispatch of what it returned, left in
    /// `events`. Returns whether a wake source fired.
    fn sweep(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<bool> {
        events.clear();
        let timeout_ms = self.resume_accepting(timeout_ms);
        let timeout_ms = self.idle_wait(timeout_ms);
        self.poller.wait(events, timeout_ms)?;
        let (mut woken, mut moved) = (false, 0);
        for ev in events.iter() {
            match ev.token {
                TOK_WAKE => {
                    woken = true;
                    // Emptied so later sweeps see only new wakeups.
                    let mut sink = [0u8; 64];
                    while matches!(self.wake.read(&mut sink), Ok(n) if n > 0) {}
                }
                TOK_DATAGRAM => moved += self.handler.on_datagrams(),
                TOK_LISTENER => self.accept_pending(),
                token => moved += self.conn_ready(token, ev.writable),
            }
        }
        self.quiet = if moved > 0 {
            0
        } else {
            self.quiet.saturating_add(1)
        };
        self.close_idle();
        Ok(woken)
    }

    /// Returns the timeout for this sweep's wait: `timeout_ms`, bounded
    /// while a connection is open by the time left until the first idle
    /// deadline.
    fn idle_wait(&self, timeout_ms: i32) -> i32 {
        let (Some(idle), Some(after)) = (&self.idle, self.handler.idle_timeout()) else {
            return timeout_ms;
        };
        match idle.last_moved.values().min() {
            Some(&first) => bounded(timeout_ms, (first + after).saturating_duration_since(now())),
            None => timeout_ms,
        }
    }

    /// Closes, and counts, every connection that has moved no byte for
    /// the handler's idle timeout.
    fn close_idle(&mut self) {
        let (Some(idle), Some(after)) = (&mut self.idle, self.handler.idle_timeout()) else {
            return;
        };
        if idle.last_moved.is_empty() {
            return;
        }
        let at = now();
        let open = self.conns.len();
        idle.last_moved.retain(|token, last| {
            let stale = at.saturating_duration_since(*last) >= after;
            if stale {
                // Closing the socket also drops it out of the poller.
                self.conns.remove(token);
            }
            !stale
        });
        if self.conns.len() < open {
            idle.closed.add((open - self.conns.len()) as u64);
            self.open_conns.set(self.conns.len() as u64);
        }
    }

    /// Accepts every pending connection on the listener. A socket
    /// whose setup fails is dropped and counted; the rest are adopted.
    fn accept_pending(&mut self) {
        while let Some(listener) = &self.listener {
            #[cfg(test)]
            let accepted = (self.fault)("listen").and_then(|()| listener.accept());
            #[cfg(not(test))]
            let accepted = listener.accept();
            match accepted {
                Ok((sock, peer)) => {
                    if self.adopt(sock, peer).is_err() {
                        self.conn_errors.inc();
                    }
                }
                // The backlog still holds the connection, so the
                // level-triggered listener stays readable: left
                // registered, it would wake every wait at once.
                Err(e) if sys::is_resource_exhaustion(&e) => {
                    self.pause_accepting();
                    return;
                }
                // `WouldBlock`: the backlog is empty. Anything else
                // ends the round too; the listener stays registered,
                // so the next sweep resumes.
                Err(_) => return,
            }
        }
    }

    /// Takes the listener out of the poller for [`ACCEPT_BACKOFF`].
    fn pause_accepting(&mut self) {
        if let Some(listener) = &self.listener {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        self.accept_resumes_at = Some(now() + ACCEPT_BACKOFF);
        self.accept_paused.inc();
    }

    /// Puts a paused listener back into the poller once its back-off is
    /// over. Returns the timeout for this sweep's wait: `timeout_ms`,
    /// bounded while the listener is paused by the time left, so that
    /// even a wait that would block forever wakes to re-arm it.
    fn resume_accepting(&mut self, timeout_ms: i32) -> i32 {
        let Some(resume_at) = self.accept_resumes_at else {
            return timeout_ms;
        };
        let left = resume_at.saturating_duration_since(now());
        if !left.is_zero() {
            return bounded(timeout_ms, left);
        }
        self.accept_resumes_at = None;
        if let Some(fd) = self.listener.as_ref().map(AsRawFd::as_raw_fd) {
            if self.poller.add(fd, TOK_LISTENER, Interest::READ).is_err() {
                self.pause_accepting();
                return bounded(timeout_ms, ACCEPT_BACKOFF);
            }
        }
        timeout_ms
    }

    /// Registers one accepted socket and hands its peer to the handler.
    fn adopt(&mut self, sock: TcpStream, peer: SocketAddr) -> io::Result<()> {
        #[cfg(test)]
        (self.fault)("accept")?;
        sock.set_nonblocking(true)?;
        let token = self.next_token;
        self.next_token += 1;
        self.poller.add(sock.as_raw_fd(), token, Interest::READ)?;
        self.conns
            .insert(token, (sock, self.handler.on_accept(peer)));
        if let Some(idle) = &mut self.idle {
            idle.last_moved.insert(token, now());
        }
        self.open_conns.set(self.conns.len() as u64);
        Ok(())
    }

    /// Hands one connection's readiness to the handler and applies its
    /// verdict. Returns the bytes moved.
    fn conn_ready(&mut self, token: u64, writable: bool) -> u64 {
        let Some((sock, conn)) = self.conns.get_mut(&token) else {
            return 0;
        };
        let step = self.handler.on_ready(sock, conn);
        if let Some(idle) = &mut self.idle {
            if matches!(step.next, Next::Close) {
                idle.last_moved.remove(&token);
            } else if step.moved > 0 {
                idle.last_moved.insert(token, now());
            }
        }
        match step.next {
            // Closing the socket also drops it out of the poller.
            Next::Close => {
                self.conns.remove(&token);
                self.open_conns.set(self.conns.len() as u64);
            }
            // Blocked mid-write: also wake on writability from now on.
            Next::Write if !writable => {
                let _ = self
                    .poller
                    .modify(sock.as_raw_fd(), token, Interest::READ_WRITE);
            }
            Next::Write | Next::Read => {}
        }
        step.moved
    }
}

/// `timeout_ms` (-1 = forever) capped at `limit`, rounded up to whole
/// milliseconds: a wait that woke early would only have to wait again.
fn bounded(timeout_ms: i32, limit: Duration) -> i32 {
    let limit_ms = i32::try_from(limit.as_micros().div_ceil(1_000)).unwrap_or(i32::MAX);
    if timeout_ms < 0 {
        limit_ms
    } else {
        timeout_ms.min(limit_ms)
    }
}

/// The reactor's one clock read.
fn now() -> Instant {
    // check: allow(determinism, "the accept back-off's and the idle timeout's deadlines; they decide only when a paused listener is re-armed or an idle connection closed, never what a window holds")
    Instant::now()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Write;
    use std::net::UdpSocket;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A fault hook: given the site, `Err` fails the step there.
    pub(crate) type Fault = Box<dyn FnMut(&str) -> io::Result<()> + Send>;

    /// Size of the response a `!` asks for: several times what loopback
    /// socket buffers hold, so the write blocks mid-response.
    const BIG: usize = 32 << 20;

    /// Echoes every byte back. A `!` in the input is answered with
    /// [`BIG`] bytes instead; a `q` closes the connection.
    #[derive(Default)]
    struct Echo {
        udp: Option<UdpSocket>,
        accepted: u64,
        idle: Option<Duration>,
    }

    /// Bytes owed to the peer, and how many of them are sent.
    #[derive(Default)]
    struct Pending {
        out: Vec<u8>,
        sent: usize,
    }

    impl Handler for Echo {
        type Conn = Pending;

        fn datagram_fd(&self) -> Option<RawFd> {
            self.udp.as_ref().map(AsRawFd::as_raw_fd)
        }

        fn on_datagrams(&mut self) -> u64 {
            let mut buf = [0u8; 64];
            let mut moved = 0;
            while let Some(Ok((n, _))) = self.udp.as_ref().map(|s| s.recv_from(&mut buf)) {
                moved += n as u64;
            }
            moved
        }

        fn on_accept(&mut self, _peer: SocketAddr) -> Pending {
            self.accepted += 1;
            Pending::default()
        }

        fn on_ready(&mut self, mut sock: &TcpStream, conn: &mut Pending) -> Step {
            let mut moved = 0;
            let mut buf = [0u8; 4096];
            loop {
                match sock.read(&mut buf) {
                    Ok(0) => {
                        return Step {
                            moved,
                            next: Next::Close,
                        }
                    }
                    Ok(n) => {
                        moved += n as u64;
                        if buf[..n].contains(&b'q') {
                            return Step {
                                moved,
                                next: Next::Close,
                            };
                        }
                        if buf[..n].contains(&b'!') {
                            conn.out.resize(conn.out.len() + BIG, b'.');
                        } else {
                            conn.out.extend_from_slice(&buf[..n]);
                        }
                    }
                    Err(_) => break,
                }
            }
            while conn.sent < conn.out.len() {
                match sock.write(&conn.out[conn.sent..]) {
                    Ok(n) => {
                        moved += n as u64;
                        conn.sent += n;
                    }
                    Err(_) => {
                        return Step {
                            moved,
                            next: Next::Write,
                        }
                    }
                }
            }
            Step {
                moved,
                next: Next::Read,
            }
        }

        fn idle_timeout(&self) -> Option<Duration> {
            self.idle
        }
    }

    struct Rig {
        reactor: Reactor<Echo>,
        wake_tx: UnixStream,
        latch: Arc<AtomicBool>,
        addr: SocketAddr,
        reg: Arc<MetricsRegistry>,
    }

    fn rig(handler: Echo) -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let latch = Arc::new(AtomicBool::new(false));
        let reg = Arc::new(MetricsRegistry::new());
        let (reactor, wake_tx) =
            Reactor::new(handler, Some(listener), Arc::clone(&latch), &reg, "t").unwrap();
        Rig {
            reactor,
            wake_tx,
            latch,
            addr,
            reg,
        }
    }

    impl Rig {
        /// A client whose connection the reactor has adopted.
        fn connect(&mut self) -> TcpStream {
            let client = TcpStream::connect(self.addr).unwrap();
            self.reactor.sweep(&mut Vec::new(), 5_000).unwrap();
            client
        }

        fn series(&self, name: &str) -> u64 {
            self.reg.snapshot().scalar(name, &[("loop", "t")]).unwrap()
        }
    }

    #[test]
    fn one_readiness_event_adopts_every_pending_connection() {
        let mut rig = rig(Echo::default());
        // connect() returns once the handshake is done, so all eight sit
        // in the backlog behind a single listener event.
        let clients: Vec<_> = (0..8)
            .map(|_| TcpStream::connect(rig.addr).unwrap())
            .collect();
        let mut events = Vec::new();
        rig.reactor.sweep(&mut events, 5_000).unwrap();
        assert_eq!(events.len(), 1, "one listener event");
        assert_eq!(rig.reactor.conns.len(), clients.len());
        assert_eq!(rig.reactor.handler.accepted, 8);
        assert_eq!(rig.series("mt_serve_open_connections"), 8);
    }

    /// `serve()` on another thread; the channel says when it returned.
    fn serve_in_background(mut reactor: Reactor<Echo>) -> mpsc::Receiver<Reactor<Echo>> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            reactor.serve().unwrap();
            // A dropped receiver means the test already failed.
            let _ = tx.send(reactor);
        });
        rx
    }

    #[test]
    fn a_trigger_racing_the_wake_byte_is_caught_by_the_latch() {
        // The latch is set but its wake byte has not landed yet; some
        // other event — a connection — is what ends the wait.
        let rig = rig(Echo::default());
        // ordering: Release pairs with serve()'s Acquire load.
        rig.latch.store(true, Ordering::Release);
        let _client = TcpStream::connect(rig.addr).unwrap();
        let served = serve_in_background(rig.reactor);
        let reactor = served
            .recv_timeout(Duration::from_secs(10))
            .expect("the latch check ends the serve phase without a wake byte");
        assert_eq!(reactor.conns.len(), 1, "the event itself was still handled");
        let events = rig
            .reg
            .snapshot()
            .scalar("mt_serve_loop_events_total", &[("loop", "t")]);
        assert_eq!(events, Some(1), "the serve phase counts its events");
    }

    #[test]
    fn a_wake_byte_alone_ends_the_serve_phase() {
        // The SIGTERM path: a byte on a wake source, latch still unset.
        let rig = rig(Echo::default());
        (&rig.wake_tx).write_all(b"S").unwrap();
        let served = serve_in_background(rig.reactor);
        served
            .recv_timeout(Duration::from_secs(10))
            .expect("the wake byte ends the serve phase");
    }

    #[test]
    fn quiet_sweeps_count_up_and_any_byte_moved_resets_them() {
        let mut rig = rig(Echo::default());
        let mut client = rig.connect();
        let mut events = Vec::new();
        rig.reactor.quiet = 0;
        rig.reactor.sweep(&mut events, 0).unwrap();
        assert_eq!(rig.reactor.quiet, 1);
        client.write_all(b"x").unwrap();
        rig.reactor.sweep(&mut events, 5_000).unwrap();
        assert_eq!(rig.reactor.quiet, 0, "the echo moved bytes");
        rig.reactor.sweep(&mut events, 0).unwrap();
        rig.reactor.sweep(&mut events, 0).unwrap();
        assert_eq!(rig.reactor.quiet, 2);
        // A wake byte is an event, not progress.
        (&rig.wake_tx).write_all(b"S").unwrap();
        assert!(rig.reactor.sweep(&mut events, 5_000).unwrap());
        assert_eq!(rig.reactor.quiet, 3);
    }

    #[test]
    fn the_drain_ends_after_exactly_the_quiet_sweeps() {
        // An open, silent peer: nothing moves, so the drain gives it
        // DRAIN_QUIET_SWEEPS full waits and then closes our side.
        let mut rig = rig(Echo::default());
        let mut client = rig.connect();
        let t0 = std::time::Instant::now();
        rig.reactor.drain().unwrap();
        assert_eq!(rig.reactor.quiet, DRAIN_QUIET_SWEEPS);
        let floor = Duration::from_millis(u64::from(DRAIN_QUIET_SWEEPS) * DRAIN_WAIT_MS as u64);
        assert!(t0.elapsed() >= floor, "each quiet sweep waited its turn");
        assert!(rig.reactor.conns.is_empty());
        assert_eq!(rig.series("mt_serve_open_connections"), 0);
        assert_eq!(client.read(&mut [0u8; 8]).unwrap(), 0, "our side closed");
        assert!(
            TcpStream::connect(rig.addr).is_err(),
            "the listener is gone"
        );
    }

    #[test]
    fn the_drain_skips_the_waits_only_when_nothing_could_move() {
        // No connection, no datagram socket: nothing to wait for.
        let mut idle = rig(Echo::default());
        idle.reactor.drain().unwrap();
        assert_eq!(idle.reactor.quiet, 0, "no sweep ran");

        // A datagram socket can always still receive: it gets its quiet
        // sweeps, and what was queued on it counts as progress.
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        udp.set_nonblocking(true).unwrap();
        let to = udp.local_addr().unwrap();
        let mut rig = rig(Echo {
            udp: Some(udp),
            ..Echo::default()
        });
        UdpSocket::bind("127.0.0.1:0")
            .unwrap()
            .send_to(b"ping", to)
            .unwrap();
        rig.reactor.drain().unwrap();
        assert_eq!(rig.reactor.quiet, DRAIN_QUIET_SWEEPS);
        assert!(
            rig.reactor.handler.on_datagrams() == 0,
            "the drain emptied the socket"
        );
    }

    #[test]
    fn a_connection_the_handler_closes_is_deregistered_and_the_gauge_follows() {
        let mut rig = rig(Echo::default());
        let mut keep = rig.connect();
        let mut quit = rig.connect();
        assert_eq!(rig.series("mt_serve_open_connections"), 2);
        quit.write_all(b"q").unwrap();
        let mut events = Vec::new();
        rig.reactor.sweep(&mut events, 5_000).unwrap();
        assert_eq!(rig.reactor.conns.len(), 1);
        assert_eq!(rig.series("mt_serve_open_connections"), 1);
        assert_eq!(quit.read(&mut [0u8; 8]).unwrap(), 0, "closed, not leaked");
        // The survivor still works, and the closed one raises nothing.
        keep.write_all(b"x").unwrap();
        rig.reactor.sweep(&mut events, 5_000).unwrap();
        assert_eq!(events.len(), 1);
        let mut echoed = [0u8; 1];
        keep.read_exact(&mut echoed).unwrap();
        assert_eq!(&echoed, b"x");
    }

    #[test]
    fn one_bad_accepted_socket_does_not_end_its_loop() {
        let mut rig = rig(Echo::default());
        // The first accepted socket's setup fails; every later one's
        // succeeds.
        let mut armed = true;
        rig.reactor.fault = Box::new(move |site| match site {
            "accept" if std::mem::take(&mut armed) => Err(io::Error::other("setup")),
            _ => Ok(()),
        });
        let mut dropped = TcpStream::connect(rig.addr).unwrap();
        rig.reactor
            .sweep(&mut Vec::new(), 5_000)
            .expect("one bad socket is not a loop error");
        assert!(rig.reactor.conns.is_empty());
        assert_eq!(rig.series("mt_serve_connection_errors_total"), 1);
        assert_eq!(
            dropped.read(&mut [0u8; 8]).unwrap(),
            0,
            "closed, not leaked"
        );

        // The loop keeps accepting, and the next client is served.
        let mut client = rig.connect();
        client.write_all(b"x").unwrap();
        rig.reactor.sweep(&mut Vec::new(), 5_000).unwrap();
        let mut echoed = [0u8; 1];
        client.read_exact(&mut echoed).unwrap();
        assert_eq!(&echoed, b"x");
        assert_eq!(rig.series("mt_serve_connection_errors_total"), 1);
    }

    #[test]
    fn an_exhausted_fd_table_pauses_the_listener_instead_of_spinning() {
        use std::sync::atomic::AtomicU32;
        let mut rig = rig(Echo::default());
        // Every accept fails with EMFILE while `full` is set; `asked`
        // counts the accepts tried.
        let (asked, full) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicBool::new(true)));
        rig.reactor.fault = Box::new({
            let (asked, full) = (Arc::clone(&asked), Arc::clone(&full));
            move |site| {
                if site != "listen" {
                    return Ok(());
                }
                // ordering: Relaxed ×2 — the hook runs on this thread.
                asked.fetch_add(1, Ordering::Relaxed);
                if full.load(Ordering::Relaxed) {
                    Err(io::Error::from_raw_os_error(sys::EMFILE))
                } else {
                    Ok(())
                }
            }
        });
        let mut client = TcpStream::connect(rig.addr).unwrap();
        let mut events = Vec::new();
        // ordering: Relaxed — read on the hook's own thread.
        let asked_now = || asked.load(Ordering::Relaxed);
        while asked_now() == 0 {
            rig.reactor.sweep(&mut events, 5_000).unwrap();
        }
        // The client is still queued, so a registered listener would
        // stay readable and every sweep would try again.
        for _ in 0..10 {
            rig.reactor.sweep(&mut events, 0).unwrap();
        }
        assert_eq!(asked_now(), 1, "the paused listener is not polled");
        assert_eq!(rig.series("mt_serve_accept_paused_total"), 1);
        assert!(rig.reactor.conns.is_empty());

        // Descriptors free up. Even a wait with a long timeout wakes at
        // the re-arm deadline, and the queued client is served.
        // ordering: Relaxed — the hook runs on this thread.
        full.store(false, Ordering::Relaxed);
        let t0 = Instant::now();
        while rig.reactor.handler.accepted == 0 {
            rig.reactor.sweep(&mut events, 60_000).unwrap();
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "woke to re-arm");
        assert_eq!(asked_now(), 3, "one accept, then WouldBlock");
        client.write_all(b"x").unwrap();
        rig.reactor.sweep(&mut events, 5_000).unwrap();
        let mut echoed = [0u8; 1];
        client.read_exact(&mut echoed).unwrap();
        assert_eq!(&echoed, b"x");
        assert_eq!(rig.series("mt_serve_accept_paused_total"), 1);
    }

    #[test]
    fn a_connection_queued_before_shutdown_is_drained() {
        // The handshake is done and the bytes are sent, but no sweep
        // has accepted the connection: it sits in the listener's
        // backlog when the drain begins.
        let mut rig = rig(Echo::default());
        let mut client = TcpStream::connect(rig.addr).unwrap();
        client.write_all(b"late").unwrap();
        rig.reactor.drain().unwrap();
        assert_eq!(rig.reactor.handler.accepted, 1, "adopted, not reset");
        let mut echoed = Vec::new();
        client
            .read_to_end(&mut echoed)
            .expect("the drain closes the connection cleanly");
        assert_eq!(echoed, b"late");
    }

    #[test]
    fn a_slow_reader_of_a_multi_buffer_response_is_not_cut_off_by_the_drain() {
        let mut rig = rig(Echo::default());
        let mut client = rig.connect();
        client.write_all(b"!").unwrap();
        let mut events = Vec::new();
        rig.reactor.sweep(&mut events, 5_000).unwrap();
        let (_, pending) = rig.reactor.conns.values().next().expect("still open");
        assert!(
            0 < pending.sent && pending.sent < BIG,
            "the response blocked mid-write ({} sent)",
            pending.sent
        );

        // The shutdown arrives now. The connection does not finish for
        // many sweeps yet — a rule that counted only finished
        // connections as progress would cut it off after two.
        let reader = std::thread::spawn(move || {
            let (mut got, mut buf) = (0, vec![0u8; 256 << 10]);
            loop {
                match client.read(&mut buf).unwrap() {
                    0 => return got,
                    n => got += n,
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        rig.reactor.drain().unwrap();
        assert_eq!(reader.join().unwrap(), BIG, "the whole response arrived");
    }

    #[test]
    fn an_idle_connection_bounds_the_wait_that_closes_it() {
        // A loop whose handler sets no timeout has no idle series.
        let plain = rig(Echo::default()).reg.snapshot();
        assert_eq!(
            plain.scalar("mt_serve_idle_closed_total", &[("loop", "t")]),
            None
        );

        let after = Duration::from_millis(100);
        let mut rig = rig(Echo {
            idle: Some(after),
            ..Echo::default()
        });
        assert_eq!(rig.reactor.idle_wait(-1), -1, "nothing open: unbounded");
        let mut client = rig.connect();
        let bound = rig.reactor.idle_wait(-1);
        assert!(
            (0..=100).contains(&bound),
            "bounded by the deadline: {bound}"
        );
        assert_eq!(rig.reactor.idle_wait(20), 20, "a shorter wait stands");

        // A wait that would block forever still wakes to close it.
        let (tx, rx) = mpsc::channel();
        let mut reactor = rig.reactor;
        std::thread::spawn(move || {
            while !reactor.conns.is_empty() {
                reactor.sweep(&mut Vec::new(), -1).unwrap();
            }
            let _ = tx.send(reactor);
        });
        let reactor = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the idle deadline ended the wait");
        assert_eq!(client.read(&mut [0u8; 8]).unwrap(), 0, "our side closed");
        assert_eq!(reactor.idle_wait(-1), -1, "nothing open again");
        let snapshot = rig.reg.snapshot();
        let series = |name| snapshot.scalar(name, &[("loop", "t")]);
        assert_eq!(series("mt_serve_idle_closed_total"), Some(1));
        assert_eq!(series("mt_serve_open_connections"), Some(0));
    }
}
