//! The collection daemon: N sharded epoll ingest loops feeding the
//! multi-lane streaming service, plus a dedicated control loop for
//! observability and queries.
//!
//! ## Architecture
//!
//! Every loop is one `Reactor` — poller, wake pipe, listener,
//! connection table, serve and drain phases — around a handler.
//!
//! [`ServeConfig::event_loops`] ingest threads each run a reactor
//! around an `Ipfix` handler: their own `SO_REUSEPORT` UDP socket on
//! the shared ingest port (the kernel hashes datagrams across the
//! sockets by 4-tuple), their own `SO_REUSEPORT` TCP listener on the
//! shared exporter port (the kernel shards incoming connections across
//! the accepting loops), and their own producer lane
//! ([`mt_stream::LaneProducer`]) into the service's ingest queue. At
//! one loop the daemon is the service's single-lane case (plain `std`
//! binds, no `SO_REUSEPORT` needed) — and at every
//! loop count the results are bit-identical to in-process batch
//! ingest, because ordering lives in the service's shared window gate,
//! not in which loop read which byte.
//!
//! Per-peer sessions stay correct without cross-loop coordination: a
//! peer's bytes arrive on one loop at a time (UDP: the kernel's flow
//! hash pins a source address to one socket; TCP: a connection is
//! pinned to the loop that accepted it), and each loop keeps its own
//! collector sessions. If a peer reconnects onto a different loop its
//! lifetime counters keep accumulating — the health path sums sessions
//! by exporter name across loops — while template state never crosses
//! loops (RFC 7011 §10 keeps transport sessions separate).
//!
//! One push down a lane is one socket read's worth: a TCP read of up
//! to 64 KiB, or a UDP *run* — the consecutive datagrams of one peer
//! received in one wake, up to 64 KiB. A run ends early when the socket
//! is empty or the next datagram comes from another peer, which then
//! starts the next run. Each datagram is decoded and rejected on its
//! own, but the run meets the window gate once, so a UDP wake pays one
//! gate pass and one queue hand-off instead of one per datagram.
//!
//! The *control loop* is the reactor around the `Http` handler. It
//! runs on the caller's thread and owns the HTTP
//! listener: `/health`, `/metrics`, and the `/v1` store queries are
//! answered there, never on an ingest loop, so observability stays
//! responsive while every ingest loop is saturated. It is one thread:
//! a `/v1` request that blocked on the store index would stall every
//! request queued behind it. The index therefore sits in an `RwLock`
//! (`serve.index`) that queries take shared, and the window sink — on
//! whichever ingest thread closes the window — takes exclusively only
//! to merge the window in memory; the summary file is written under a
//! shared guard, beside the readers.
//!
//! Backpressure is end to end and per lane: the queue's `Block` policy
//! stalls only the lane that is full — that loop stops reading its
//! sockets, its kernel buffers fill, its TCP senders stall — while the
//! other loops (and the control loop) keep running. UDP exporters see
//! datagram loss at the kernel buffer instead — the transport's
//! documented trade-off.
//!
//! ## Shutdown protocol
//!
//! The daemon has one way to end. Every loop — the control loop on the
//! caller's thread and each ingest loop on a scoped thread — fires the
//! one shutdown trigger ([`ShutdownHandle::shutdown`]: set the latch,
//! wake every loop) when it leaves its serve phase, whatever the
//! reason: a [`ShutdownHandle`], SIGTERM (when
//! [`ServeConfig::catch_sigterm`] is set, its handler writes into the
//! control loop's wake pipe), an I/O error, or a panic (through a drop
//! guard); a loop whose thread cannot be spawned counts as failed. So
//! one loop's exit stops them all. Each loop then drains on its own:
//! (1) it adopts the connections already in its listener's backlog and
//! closes the listener; (2) bounded `epoll_wait` sweeps keep serving
//! its open connections and its UDP socket until no byte moves in
//! either direction for a few sweeps in a row, or nothing is left
//! open; (3) it closes what remains. [`Daemon::run`] joins every loop —
//! the loops are borrowed, so their lanes stay the daemon's whatever
//! their threads did — and finishes the service:
//! [`MultiStreamService::finish`] flushes the queue, folds the tail,
//! closes and persists every open window, and returns the quiescent
//! [`mt_stream::StreamOutput`] whose ledger identities hold exactly.
//! Only then does `run` return the first loop error, if there was one.
//! A panic is an error like any other: a loop's, and one that `finish`
//! re-raises from a failed service (a dead ingest worker, a panicking
//! close; see [`mt_stream::multi`]), whose windows closed before the
//! failure stay persisted.

use crate::events::{EventKind, EventRing};
use crate::http;
use crate::reactor::{Handler, Next, Reactor, Step};
use crate::sys;
use mt_obs::{Counter, Histogram, DEFAULT_TIME_BUCKETS};
use mt_store::{QueryIndex, ResultsStore, StoreConfig, Verdicts, WindowData};
use mt_stream::{ClosedWindow, LaneProducer, MultiStreamService, StreamConfig};
use mt_types::{Asn, Block24, Day, Ipv4, PrefixTrie};
use std::any::Any;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Histogram bounds for per-push ingest and per-query latency, in
/// nanoseconds: a ×2 ladder from 256 ns to 2^30 ns (≈ 1.07 s, a
/// queue-blocked push), so a quantile read off a bucket bound is never
/// more than 2× from the observation it stands for.
pub const INGEST_LATENCY_BUCKETS: [u64; 23] = {
    let mut bounds = [0u64; 23];
    let mut i = 0;
    while i < bounds.len() {
        bounds[i] = 256 << i;
        i += 1;
    }
    bounds
};

/// Listen backlog for the `SO_REUSEPORT` exporter listeners.
const TCP_BACKLOG: u32 = 1024;

/// Bytes one TCP read asks for, and the budget that ends a UDP run:
/// either way one push carries up to this much.
const READ_BYTES: usize = 64 * 1024;

/// The largest UDP payload over IPv4 (65 535 − 8 − 20). Every
/// `recv_from` is handed at least this much room: the kernel silently
/// truncates a datagram into a shorter buffer.
const MAX_DATAGRAM: usize = 65_507;

/// Requested kernel receive-buffer size for each UDP socket, in bytes.
/// Best-effort: the kernel clamps to `net.core.rmem_max`.
const UDP_RECV_BUF: usize = 4 << 20;

/// Daemon configuration. `Default` binds every transport on loopback
/// with OS-assigned ports — query the actual addresses after
/// [`Daemon::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// IPFIX-over-UDP bind address, or `None` to disable the transport.
    pub udp: Option<SocketAddr>,
    /// IPFIX-over-TCP bind address, or `None` to disable the transport.
    pub tcp: Option<SocketAddr>,
    /// HTTP (`/health`, `/metrics`, `/v1`) bind address, or `None` to
    /// disable. Served by the control loop, never an ingest loop.
    pub http: Option<SocketAddr>,
    /// Sharded ingest event loops (0 = one per available core). Above
    /// one, the ingest transports must bind IPv4 addresses — the
    /// `SO_REUSEPORT` shims are IPv4-only.
    pub event_loops: usize,
    /// The streaming service under the loops.
    pub stream: StreamConfig,
    /// Results store to persist closed windows into and serve `/v1/...`
    /// read queries from, or `None` to run without persistence.
    pub store: Option<StoreConfig>,
    /// Whether to install the SIGTERM self-pipe and shut down
    /// gracefully on the signal. Off by default: tests and embedders
    /// usually prefer a [`ShutdownHandle`].
    pub catch_sigterm: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let loopback: SocketAddr = (std::net::Ipv4Addr::LOCALHOST, 0).into();
        ServeConfig {
            udp: Some(loopback),
            tcp: Some(loopback),
            http: Some(loopback),
            event_loops: 0,
            stream: StreamConfig::default(),
            store: None,
            catch_sigterm: false,
        }
    }
}

/// Resolves `event_loops` (0 = auto) to a concrete loop count.
fn resolve_loops(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything a finished daemon run produced.
#[derive(Debug)]
pub struct ServeOutput {
    /// The streaming service's full output (windows, combined reports,
    /// quiescent health snapshot, metrics registry).
    pub stream: mt_stream::StreamOutput,
    /// UDP datagrams received, summed over the ingest loops.
    pub datagrams: u64,
    /// UDP datagrams rejected whole (torn / trailing garbage / bad
    /// header).
    pub datagrams_rejected: u64,
    /// TCP exporter connections accepted over the daemon's life.
    pub tcp_connections: u64,
    /// HTTP requests answered.
    pub http_requests: u64,
    /// Ingest event loops the daemon ran.
    pub event_loops: usize,
}

/// The daemon's one shutdown trigger: the latch and every loop's wake
/// pipe. Safe to fire from any thread, and fired by every loop that
/// leaves its serve phase. [`Daemon::shutdown_handle`] makes as many as
/// are wanted.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    latch: Arc<AtomicBool>,
    wakes: Arc<[UnixStream]>,
}

impl ShutdownHandle {
    /// Requests shutdown and wakes every loop. Only the first call
    /// writes: a loop sees one wake byte, whoever fired.
    pub fn shutdown(&self) {
        // ordering: AcqRel; the Release half pairs with the loops'
        // Acquire loads. The latch only ever goes false→true.
        if !self.latch.swap(true, Ordering::AcqRel) {
            for mut tx in self.wakes.iter() {
                let _ = tx.write(b"S");
            }
        }
    }
}

/// Fires the trigger when dropped, so a loop fires it on every way out
/// of its serve phase, unwinding included.
struct FireOnExit<'a>(&'a ShutdownHandle);

impl Drop for FireOnExit<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// One loop's whole run: serve, fire the trigger, drain. Returns the
/// first error of the two phases.
fn serve_then_drain<H: Handler>(l: &mut Reactor<H>, trigger: &ShutdownHandle) -> io::Result<()> {
    let fire = FireOnExit(trigger);
    let served = l.serve();
    drop(fire);
    served.and(l.drain())
}

/// The daemon's handle on a configured results store: the shared query
/// cache (the window sink updates it from inside the service, the HTTP
/// path reads it) and the query-side metrics.
///
/// `index` is the `serve.index` lock. Every query holds it shared. The
/// window sink — its only writer, serialized by `stream.closer` — holds
/// it exclusively for the in-memory merge of a closed window and then
/// shared while the summary goes to disk, so a request that arrives
/// mid-close waits for a memory merge, never for the disk.
struct StoreRuntime {
    index: Arc<RwLock<QueryIndex>>,
    point_queries: Counter,
    range_queries: Counter,
    query_latency: Histogram,
}

impl StoreRuntime {
    /// Brings up the persistence sink and the query cache: cold-loads
    /// whatever earlier runs persisted, resumes the service's
    /// combination from it, then persists every window the scheduler
    /// closes from here on. A window file that fails validation is
    /// moved to the store's `quarantine/` and counted, and its day
    /// answers as never persisted; a bad summary fails the start. Each
    /// quarantine and each failed persist is also recorded in `events`.
    ///
    /// Returns the runtime and the persist step, which the daemon's
    /// window sink runs on every closed window.
    fn open<F: Fn(Day) -> PrefixTrie<Asn>>(
        cfg: StoreConfig,
        service: &MultiStreamService<F>,
        events: &Arc<EventRing>,
    ) -> io::Result<(StoreRuntime, Persist)> {
        let to_io =
            |e: mt_store::StoreError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let reg = service.registry();
        let slots = Arc::clone(&cfg.slots);
        let results = ResultsStore::open(cfg).map_err(to_io)?;
        let load_time = reg.histogram(
            "mt_store_cold_load_nanoseconds",
            &DEFAULT_TIME_BUCKETS,
            "Wall time of the cold load at start: the summary decoded and each window file's verdicts loaded, quarantines included.",
        );
        let (index, cold) = timed(&load_time, || {
            QueryIndex::cold_load_with(&results, |day, invalid| {
                events.record_error(EventKind::WindowQuarantined, day, invalid);
                reg.counter_with(
                    "mt_store_quarantined_total",
                    &[("reason", invalid.reason())],
                    "Window files that failed validation at start and were moved to quarantine/.",
                )
                .inc();
            })
        })
        .map_err(to_io)?;
        reg.gauge(
            "mt_store_cold_load_windows",
            "Window files the cold load at start loaded (quarantined ones not counted).",
        )
        .set(cold.windows as u64);
        reg.gauge(
            "mt_store_cold_load_bytes",
            "Bytes the cold load at start read and validated: the summary and the window files it loaded.",
        )
        .set(cold.bytes);
        // The combination continues from the persisted summary, so the
        // next close's combined verdicts cover the whole history.
        let summary = index.summary();
        if let (Some(first), Some(last)) = (summary.first_day, summary.last_day) {
            service.resume(&summary.to_stats(&slots), first, last);
        }
        let index = Arc::new(RwLock::new(index));
        let windows_persisted = reg.counter(
            "mt_store_windows_persisted_total",
            "Closed windows persisted to the results store.",
        );
        let bytes_written = reg.counter(
            "mt_store_bytes_written_total",
            "Bytes written to the results store (window and summary files).",
        );
        let persist_errors = reg.counter(
            "mt_store_persist_errors_total",
            "Window persists that failed; the store keeps serving its last good state.",
        );
        let [point_queries, range_queries] = ["point", "range"].map(|kind| {
            reg.counter_with(
                "mt_store_queries_total",
                &[("kind", kind)],
                "Store queries answered, by kind.",
            )
        });
        let [build, write_window, apply, write_summary] =
            ["build", "write_window", "apply", "write_summary"].map(|step| {
                reg.histogram_with(
                    "mt_store_persist_nanoseconds",
                    &[("step", step)],
                    &DEFAULT_TIME_BUCKETS,
                    "Wall time of each step of persisting a closed window, failed or not: build (snapshot its columns), write_window, apply (merge into the query index), write_summary.",
                )
            });
        let sink_index = Arc::clone(&index);
        let sink_events = Arc::clone(events);
        let persist: Persist = Box::new(move |w| {
            let wd = timed(&build, || {
                let verdicts = Verdicts::from_result(w.window, &slots);
                WindowData::build(w.day, w.records, w.stats, verdicts, w.ports, &slots)
            });
            let outcome = (|| {
                let mut n = timed(&write_window, || results.write_window(&wd))?;
                timed(&apply, || {
                    // Everything the merge can be handed ready-made
                    // is made before the exclusive section.
                    let combined = Verdicts::from_result(w.combined, &slots);
                    let window = wd.verdicts.clone();
                    lock_exclusive(&sink_index) // lock: serve.index
                        .apply_verdicts(&wd, window, combined)
                })?;
                // lock: serve.index
                let idx = lock_shared(&sink_index);
                // check: allow(blocking_under_lock, "shared guard: queries keep reading beside the write; this sink is the index's only writer and runs under stream.closer, so the summary cannot change before it is on disk")
                n += timed(&write_summary, || results.write_summary(idx.summary()))?;
                Ok::<u64, mt_store::StoreError>(n)
            })();
            // A failed persist must never take down the
            // collection path; it is counted and the store
            // keeps serving its last good state.
            match outcome {
                Ok(n) => {
                    windows_persisted.inc();
                    bytes_written.add(n);
                }
                Err(e) => {
                    persist_errors.inc();
                    sink_events.record_error(EventKind::PersistFailed, w.day, &e);
                }
            }
        });
        let runtime = StoreRuntime {
            index,
            point_queries,
            range_queries,
            query_latency: reg.histogram(
                "mt_store_query_nanoseconds",
                &INGEST_LATENCY_BUCKETS,
                "Wall time to answer one store query from the in-memory cache.",
            ),
        };
        Ok((runtime, persist))
    }
}

/// The store's step of the window sink: persists one closed window.
type Persist = Box<dyn FnMut(&ClosedWindow<'_>) + Send>;

/// Runs `f`, observing its wall time into `h`.
fn timed<T>(h: &Histogram, f: impl FnOnce() -> T) -> T {
    let _span = h.start_span();
    f()
}

/// Takes the index lock shared, recovering the data from a poisoned
/// lock: the store cache stays serviceable even if a panic unwound
/// mid-update.
fn lock_shared(l: &RwLock<QueryIndex>) -> RwLockReadGuard<'_, QueryIndex> {
    l.read().unwrap_or_else(PoisonError::into_inner) // lock: generic
}

/// Takes the index lock exclusively, with the same poison recovery.
fn lock_exclusive(l: &RwLock<QueryIndex>) -> RwLockWriteGuard<'_, QueryIndex> {
    l.write().unwrap_or_else(PoisonError::into_inner) // lock: generic
}

/// The ingest loops' handler: IPFIX over this loop's UDP socket and
/// accepted TCP exporter streams, pushed down this loop's lane. A TCP
/// connection's state is its session name, `tcp:<peer addr>`.
struct Ipfix<F> {
    udp: Option<UdpSocket>,
    lane: LaneProducer<F>,
    /// `READ_BYTES + MAX_DATAGRAM` long: a TCP read fills at most the
    /// first `READ_BYTES`; a UDP run stays under `READ_BYTES` before
    /// each `recv_from`, so every datagram has room to arrive whole.
    read_buf: Vec<u8>,
    /// End offset in `read_buf` of each datagram of the current run.
    run_ends: Vec<usize>,
    /// The current run's peer and its session name, `udp:<peer addr>`
    /// (kept across runs: a steady peer is named once).
    run_peer: Option<SocketAddr>,
    run_name: String,
    // Shared counters (one handle per loop onto the same cells) …
    datagrams: Counter,
    datagrams_rejected: Counter,
    tcp_conns: Counter,
    // … and this loop's own series.
    ingest_latency: Histogram,
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> Handler for Ipfix<F> {
    type Conn = String;

    fn datagram_fd(&self) -> Option<RawFd> {
        self.udp.as_ref().map(AsRawFd::as_raw_fd)
    }

    /// Receives datagrams into runs and pushes each run as one batch.
    /// A run is consecutive datagrams from one peer; it ends when
    /// `READ_BYTES` have arrived, the socket is empty, or the peer
    /// changes — the differing datagram then starts the next run.
    fn on_datagrams(&mut self) -> u64 {
        let mut moved = 0;
        loop {
            let Some(sock) = &self.udp else { return moved };
            let len = self.run_ends.last().copied().unwrap_or(0);
            match sock.recv_from(&mut self.read_buf[len..]) {
                Ok((n, peer)) => {
                    moved += n as u64;
                    self.datagrams.inc();
                    let mut end = len + n;
                    if self.run_peer != Some(peer) {
                        // The datagram starts the next run.
                        self.push_run();
                        self.read_buf.copy_within(len..end, 0);
                        end = n;
                        self.run_peer = Some(peer);
                        self.run_name = format!("udp:{peer}");
                    }
                    self.run_ends.push(end);
                    if end >= READ_BYTES {
                        self.push_run();
                    }
                }
                // `WouldBlock`: the socket is empty. Any other error
                // (a nonblocking read never sees `EINTR`) also ends
                // this round.
                Err(_) => {
                    self.push_run();
                    return moved;
                }
            }
        }
    }

    fn on_accept(&mut self, peer: SocketAddr) -> String {
        self.tcp_conns.inc();
        format!("tcp:{peer}")
    }

    /// Reads the stream to `WouldBlock`/EOF, pushing each chunk down
    /// this loop's lane.
    fn on_ready(&mut self, mut sock: &TcpStream, peer: &mut String) -> Step {
        let mut moved = 0;
        let next = loop {
            match sock.read(&mut self.read_buf[..READ_BYTES]) {
                Ok(0) => break Next::Close,
                Ok(n) => {
                    moved += n as u64;
                    let span = self.ingest_latency.start_span();
                    self.lane.push_chunk(peer, &self.read_buf[..n]);
                    drop(span);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Next::Read,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break Next::Close,
            }
        };
        Step { moved, next }
    }
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> Ipfix<F> {
    /// Pushes the current run, if any, down the lane as one batch.
    fn push_run(&mut self) {
        if self.run_ends.is_empty() {
            return;
        }
        let mut start = 0;
        let datagrams = self.run_ends.iter().map(|&end| {
            let datagram = &self.read_buf[start..end];
            start = end;
            datagram
        });
        let span = self.ingest_latency.start_span();
        let rejected = self.lane.push_datagrams(&self.run_name, datagrams);
        drop(span);
        self.datagrams_rejected.add(rejected);
        self.run_ends.clear();
    }
}

/// One live HTTP probe connection: request bytes in, response bytes
/// out. `out` is empty until the request head has fully arrived.
#[derive(Default)]
struct HttpConn {
    req: Vec<u8>,
    out: Vec<u8>,
    sent: usize,
}

/// The control loop's handler: the one-request-per-connection HTTP
/// state machine, the routing, and what the routes read — the live
/// service, the store's query cache and the event ring.
struct Http<F> {
    service: MultiStreamService<F>,
    store: Option<StoreRuntime>,
    events: Arc<EventRing>,
    http_conns: Counter,
    http_health: Counter,
    http_metrics: Counter,
    http_store: Counter,
    http_events: Counter,
    http_other: Counter,
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> Handler for Http<F> {
    type Conn = HttpConn;

    fn on_accept(&mut self, _peer: SocketAddr) -> HttpConn {
        self.http_conns.inc();
        HttpConn::default()
    }

    /// Reads until the head completes, builds the response, writes as
    /// far as the socket allows.
    fn on_ready(&mut self, mut sock: &TcpStream, conn: &mut HttpConn) -> Step {
        let mut moved = 0;
        if conn.out.is_empty() {
            let mut eof = false;
            loop {
                let mut buf = [0u8; 4096];
                match sock.read(&mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        moved += n as u64;
                        conn.req.extend_from_slice(&buf[..n]);
                        // Keep reading only while the head is genuinely
                        // incomplete; the parser's bounds make that
                        // state unreachable past the fixed limits, so
                        // the buffer cannot grow without end.
                        if !matches!(http::parse_request(&conn.req), http::Parse::Incomplete) {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            conn.out = match http::parse_request(&conn.req) {
                http::Parse::Complete(r) => self.respond(&r),
                http::Parse::Malformed => {
                    self.http_other.inc();
                    http::bad_request()
                }
                http::Parse::TooLarge => {
                    self.http_other.inc();
                    http::header_too_large()
                }
                http::Parse::Incomplete => {
                    let next = if eof { Next::Close } else { Next::Read };
                    return Step { moved, next };
                }
            };
        }
        let next = loop {
            if conn.sent >= conn.out.len() {
                break Next::Close;
            }
            match sock.write(&conn.out[conn.sent..]) {
                Ok(0) => break Next::Close, // peer gone; nothing more to do
                Ok(n) => {
                    moved += n as u64;
                    conn.sent += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Next::Write,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break Next::Close,
            }
        };
        Step { moved, next }
    }
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> Http<F> {
    /// Builds the response for a parsed request and counts it.
    fn respond(&mut self, req: &http::Request) -> Vec<u8> {
        if req.method != "GET" {
            self.http_other.inc();
            return http::method_not_allowed();
        }
        let (path, query) = http::split_query(&req.path);
        if let Some(addr) = path.strip_prefix("/v1/block/") {
            return self.respond_point(addr);
        }
        if let Some(day) = path
            .strip_prefix("/v1/windows/")
            .and_then(|rest| rest.strip_suffix("/verdicts"))
        {
            return self.respond_range(day, query);
        }
        match path {
            "/health" => {
                self.http_health.inc();
                let health = self.service.health();
                let body = serde_json::to_string(&health).unwrap_or_else(|_| "{}".to_owned());
                let status = if health.failed {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                };
                http::response(status, "application/json", body.as_bytes())
            }
            "/metrics" => {
                self.http_metrics.inc();
                // health() republishes every legacy counter into the
                // registry so the exposition is current.
                let _ = self.service.health();
                let text = self.service.registry().snapshot().render_prometheus_text();
                http::response(
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    text.as_bytes(),
                )
            }
            "/v1/events" => {
                self.http_events.inc();
                let body = self.events.to_json();
                http::response("200 OK", "application/json", body.as_bytes())
            }
            _ => {
                self.http_other.inc();
                http::not_found()
            }
        }
    }

    /// `GET /v1/block/{a.b.c.0}` — point lookup against the summary:
    /// verdict, since-when, traffic profile, top ports.
    fn respond_point(&mut self, addr: &str) -> Vec<u8> {
        self.http_store.inc();
        let Some(store) = &self.store else {
            return http::not_found();
        };
        let Ok(addr) = Ipv4::from_str(addr) else {
            return http::bad_request();
        };
        store.point_queries.inc();
        let span = store.query_latency.start_span();
        let report = lock_shared(&store.index).point(addr); // lock: serve.index
        drop(span);
        let body = serde_json::to_string(&report).unwrap_or_else(|_| "{}".to_owned());
        http::response("200 OK", "application/json", body.as_bytes())
    }

    /// `GET /v1/windows/{day}/verdicts?from=a.b.c.0&to=x.y.z.0` —
    /// range scan over one persisted window's verdicts.
    fn respond_range(&mut self, day: &str, query: &str) -> Vec<u8> {
        self.http_store.inc();
        let Some(store) = &self.store else {
            return http::not_found();
        };
        let Ok(day) = day.parse::<u32>() else {
            return http::bad_request();
        };
        let parse_block = |v: Option<&str>, default: Block24| match v {
            None => Some(default),
            Some(s) => Ipv4::from_str(s).ok().map(Block24::containing),
        };
        let from = parse_block(http::query_param(query, "from"), Block24(0));
        let to = parse_block(http::query_param(query, "to"), Block24(0x00ff_ffff));
        let (Some(from), Some(to)) = (from, to) else {
            return http::bad_request();
        };
        if from > to {
            return http::bad_request();
        }
        store.range_queries.inc();
        let span = store.query_latency.start_span();
        let report = lock_shared(&store.index).range(Day(day), from, to); // lock: serve.index
        drop(span);
        match report {
            Some(report) => {
                let body = serde_json::to_string(&report).unwrap_or_else(|_| "{}".to_owned());
                http::response("200 OK", "application/json", body.as_bytes())
            }
            None => http::not_found(),
        }
    }
}

/// The collection daemon. Bind with [`Daemon::bind`], then [`run`] on
/// a dedicated thread; `run` returns once any loop has left its serve
/// phase (a shutdown trigger, SIGTERM, or a loop's failure), every
/// loop has drained, and the service is finished.
///
/// [`run`]: Daemon::run
pub struct Daemon<F: Fn(Day) -> PrefixTrie<Asn>> {
    /// The ingest loops, one per lane of the service.
    loops: Vec<Reactor<Ipfix<F>>>,
    /// The control loop (runs on the caller's thread); its handler owns
    /// the service.
    control: Reactor<Http<F>>,
    shutdown: ShutdownHandle,
    udp_addr: Option<SocketAddr>,
    tcp_addr: Option<SocketAddr>,
    http_addr: Option<SocketAddr>,
    // Output counters, shared with the ingest loops.
    datagrams: Counter,
    datagrams_rejected: Counter,
    tcp_conns: Counter,
}

/// Pulls the IPv4 address out of `addr`, or explains why the sharded
/// bind cannot use it.
fn require_v4(addr: SocketAddr, what: &str) -> io::Result<SocketAddrV4> {
    match addr {
        SocketAddr::V4(v4) => Ok(v4),
        SocketAddr::V6(_) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what}: SO_REUSEPORT sharding requires an IPv4 bind address (got {addr})"),
        )),
    }
}

/// Binds one `what` socket per loop on `addr` (`None`: the transport
/// is off) and reports the address they share. Loop 0 binds the
/// configured address (which may carry port 0); the rest bind the
/// concrete address it got, sharing the port through `SO_REUSEPORT`.
/// At one loop the plain std bind is used — no socket option needed.
fn bind_per_loop<S>(
    addr: Option<SocketAddr>,
    loops: usize,
    what: &str,
    plain: fn(SocketAddr) -> io::Result<S>,
    reuseport: fn(SocketAddrV4) -> io::Result<S>,
    local_addr: fn(&S) -> io::Result<SocketAddr>,
) -> io::Result<(Vec<Option<S>>, Option<SocketAddr>)> {
    let Some(addr) = addr else {
        return Ok(((0..loops).map(|_| None).collect(), None));
    };
    if loops == 1 {
        let sock = plain(addr)?;
        let bound = local_addr(&sock)?;
        return Ok((vec![Some(sock)], Some(bound)));
    }
    let first = reuseport(require_v4(addr, what)?)?;
    let bound = local_addr(&first)?;
    let shared = require_v4(bound, what)?;
    let mut socks = vec![Some(first)];
    for _ in 1..loops {
        socks.push(Some(reuseport(shared)?));
    }
    Ok((socks, Some(bound)))
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> Daemon<F> {
    /// Binds every configured socket — one UDP socket and one TCP
    /// listener per ingest loop, kernel-sharded via `SO_REUSEPORT` when
    /// there is more than one loop — and starts the streaming service
    /// (ingest workers spawn here). The loops themselves do not run
    /// until [`run`](Self::run).
    pub fn bind(cfg: ServeConfig, rib_of: F) -> io::Result<Daemon<F>> {
        let loops = resolve_loops(cfg.event_loops);
        let (service, lanes) = MultiStreamService::start(cfg.stream.clone(), loops, rib_of);
        let latch = Arc::new(AtomicBool::new(false));
        let reg = Arc::clone(service.registry());

        // The loops share these cells (every loop holds a handle to the
        // same one), so the totals need no post-run merge.
        let datagrams = reg.counter("mt_serve_datagrams_total", "UDP datagrams received.");
        let datagrams_rejected = reg.counter(
            "mt_serve_datagrams_rejected_total",
            "UDP datagrams rejected whole: torn, trailing garbage, or a bad message header.",
        );
        let [tcp_conns, http_conns] = ["tcp", "http"].map(|transport| {
            reg.counter_with(
                "mt_serve_connections_total",
                &[("transport", transport)],
                "Connections accepted, by transport.",
            )
        });
        let [http_health, http_metrics, http_store, http_events, http_other] =
            ["health", "metrics", "store", "events", "other"].map(|endpoint| {
                reg.counter_with(
                    "mt_serve_http_requests_total",
                    &[("endpoint", endpoint)],
                    "HTTP requests answered, by endpoint.",
                )
            });

        let (udp_socks, udp_addr) = bind_per_loop(
            cfg.udp,
            loops,
            "udp",
            UdpSocket::bind,
            sys::bind_udp_reuseport,
            UdpSocket::local_addr,
        )?;
        let (tcp_listeners, tcp_addr) = bind_per_loop(
            cfg.tcp,
            loops,
            "tcp",
            TcpListener::bind,
            |addr| sys::bind_tcp_reuseport(addr, TCP_BACKLOG),
            TcpListener::local_addr,
        )?;

        // One ingest loop per lane, each with its own poller, wake
        // pipe, and per-loop metric series.
        let mut ingest = Vec::with_capacity(loops);
        let mut wakes = Vec::with_capacity(loops + 1);
        for (i, ((lane, udp), tcp)) in lanes
            .into_iter()
            .zip(udp_socks)
            .zip(tcp_listeners)
            .enumerate()
        {
            if let Some(sock) = &udp {
                sock.set_nonblocking(true)?;
                // Best-effort; a clamped buffer only costs UDP loss
                // headroom, never correctness.
                let _ = sys::set_recv_buffer(sock.as_raw_fd(), UDP_RECV_BUF);
            }
            let label = i.to_string();
            let handler = Ipfix {
                udp,
                lane,
                read_buf: vec![0u8; READ_BYTES + MAX_DATAGRAM],
                run_ends: Vec::new(),
                run_peer: None,
                run_name: String::new(),
                datagrams: datagrams.clone(),
                datagrams_rejected: datagrams_rejected.clone(),
                tcp_conns: tcp_conns.clone(),
                ingest_latency: reg.histogram_with(
                    "mt_serve_ingest_nanoseconds",
                    &[("loop", label.as_str())],
                    &INGEST_LATENCY_BUCKETS,
                    "Wall time to push one socket read (a TCP stream chunk, or a UDP run of datagrams from one peer) into the service, by event loop.",
                ),
            };
            let (reactor, wake_tx) = Reactor::new(handler, tcp, Arc::clone(&latch), &reg, &label)?;
            ingest.push(reactor);
            wakes.push(wake_tx);
        }

        let http = cfg.http.map(TcpListener::bind).transpose()?;
        let http_addr = http.as_ref().map(TcpListener::local_addr).transpose()?;
        let events = Arc::new(EventRing::default());
        let (store, mut persist) = match cfg.store {
            Some(store_cfg) => {
                let (runtime, persist) = StoreRuntime::open(store_cfg, &service, &events)?;
                (Some(runtime), Some(persist))
            }
            None => (None, None),
        };
        let [window_tolerance, span_tolerance] = ["window", "span"].map(|scope| {
            reg.gauge_with(
                "mt_pipeline_spoof_tolerance_packets",
                &[("scope", scope)],
                "Sampled source packets per /24 the last close forgave as spoofing: its own window (window) and the combined span (span).",
            )
        });
        let sink_events = Arc::clone(&events);
        service.set_window_sink(Box::new(move |w| {
            window_tolerance.set(w.window.spoof_tolerance);
            span_tolerance.set(w.combined.spoof_tolerance);
            if w.forced {
                let detail = format!(
                    "closed at the end of the run before its watermark passed, {} records",
                    w.records
                );
                sink_events.record(EventKind::WindowForced, w.day, "forced", detail);
            }
            if let Some(persist) = &mut persist {
                persist(&w);
            }
        }));
        let handler = Http {
            service,
            store,
            events,
            http_conns,
            http_health,
            http_metrics,
            http_store,
            http_events,
            http_other,
        };
        let (control, wake_tx) = Reactor::new(handler, http, Arc::clone(&latch), &reg, "control")?;
        if cfg.catch_sigterm {
            sys::install_sigterm_pipe(wake_tx.try_clone()?)?;
        }
        wakes.push(wake_tx);

        Ok(Daemon {
            loops: ingest,
            control,
            shutdown: ShutdownHandle {
                latch,
                wakes: wakes.into(),
            },
            udp_addr,
            tcp_addr,
            http_addr,
            datagrams,
            datagrams_rejected,
            tcp_conns,
        })
    }

    /// The shared UDP ingest address, if the transport is on (all loops
    /// bind the same port).
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// The shared TCP exporter address, if the transport is on.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The HTTP listener's actual bound address, if enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// How many ingest event loops the daemon resolved to.
    pub fn event_loops(&self) -> usize {
        self.loops.len()
    }

    /// A trigger other threads can use to stop the daemon.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(self.shutdown.clone())
    }

    /// The live streaming service (health snapshots mid-run).
    pub fn service(&self) -> &MultiStreamService<F> {
        &self.control.handler.service
    }
}

impl<F: Fn(Day) -> PrefixTrie<Asn> + Send + 'static> Daemon<F> {
    /// Runs the daemon: one scoped thread per ingest loop, the control
    /// loop on the calling thread. Whatever ends the first serve phase
    /// ends them all; then every loop drains and is joined, the service
    /// is finished (the open windows close and persist), and only then
    /// is the first loop error, if any, returned. A panic in a loop or
    /// in the service's `finish` is returned as the run's error.
    pub fn run(mut self) -> io::Result<ServeOutput> {
        let result = std::thread::scope(|s| {
            let mut threads = Vec::with_capacity(self.loops.len());
            for (i, l) in self.loops.iter_mut().enumerate() {
                let spawned = std::thread::Builder::new()
                    .name(format!("mt-serve-loop-{i}"))
                    .spawn_scoped(s, || serve_then_drain(l, &self.shutdown));
                // A loop that never started has left its serve phase.
                threads.push(spawned.inspect_err(|_| self.shutdown.shutdown()));
            }
            let control = catch_unwind(AssertUnwindSafe(|| {
                serve_then_drain(&mut self.control, &self.shutdown)
            }));
            // Every loop is joined; the first error is kept.
            threads
                .into_iter()
                .map(|t| t.and_then(|h| h.join().unwrap_or_else(panicked("ingest loop"))))
                .fold(
                    control.unwrap_or_else(panicked("control loop")),
                    Result::and,
                )
        });
        let event_loops = self.loops.len();
        let lanes = self.loops.into_iter().map(|l| l.handler.lane).collect();
        let http = self.control.handler;
        // A failed service re-raises its panic here (mt-stream's rule),
        // after the windows it closed before the failure were persisted.
        let finished = catch_unwind(AssertUnwindSafe(|| http.service.finish(lanes)));
        let stream = result.and(finished.or_else(panicked("stream service")))?;
        Ok(ServeOutput {
            datagrams: self.datagrams.get(),
            datagrams_rejected: self.datagrams_rejected.get(),
            tcp_connections: self.tcp_conns.get(),
            http_requests: http.http_health.get()
                + http.http_metrics.get()
                + http.http_store.get()
                + http.http_events.get()
                + http.http_other.get(),
            event_loops,
            stream,
        })
    }
}

/// Turns a caught panic of `what` into the run's error.
fn panicked<T>(what: &str) -> impl Fn(Box<dyn Any + Send>) -> io::Result<T> + '_ {
    move |_| Err(io::Error::other(format!("{what} panicked")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{self, http_get};
    use mt_types::{RibIndex, Slot24Index};
    use std::path::PathBuf;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn latency_bounds_rise_by_at_most_two_times() {
        let b = INGEST_LATENCY_BUCKETS;
        assert_eq!(b[0], 256);
        assert!(
            b[b.len() - 1] >= 1_000_000_000,
            "a blocked push still lands in a bucket"
        );
        for pair in b.windows(2) {
            assert!(pair[0] < pair[1] && pair[1] <= 2 * pair[0], "{pair:?}");
        }
    }

    /// A store on a fresh directory over [`replay::default_rib`].
    fn fresh_store(tag: &str) -> StoreConfig {
        let dir = std::env::temp_dir().join(format!("mt-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let slots = Slot24Index::build(&RibIndex::build(&replay::default_rib()));
        StoreConfig {
            dir,
            slots: Arc::new(slots),
        }
    }

    /// The window sink writes the summary file holding `serve.index`
    /// shared. Held here for as long as it takes to ask, that guard
    /// must keep nothing on the control loop waiting: not a `/v1`
    /// lookup, and so not the `/health` and `/metrics` requests queued
    /// on the same thread behind it.
    #[test]
    fn query_is_answered_while_summary_is_written() {
        let store = fresh_store("midwrite");
        let dir = store.dir.clone();
        let cfg = ServeConfig {
            udp: None,
            tcp: None,
            event_loops: 1,
            store: Some(store),
            ..ServeConfig::default()
        };
        let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
        let http = daemon.http_addr().expect("http on");
        let handle = daemon.shutdown_handle().expect("handle");
        let index = Arc::clone(
            &daemon
                .control
                .handler
                .store
                .as_ref()
                .expect("store on")
                .index,
        );
        let runner = std::thread::spawn(move || daemon.run());

        let summary_write_guard = lock_shared(&index);
        for path in ["/v1/block/20.0.0.0", "/health", "/metrics"] {
            let (head, _) = http_get(http, path)
                .unwrap_or_else(|e| panic!("{path} waited for the summary write: {e}"));
            assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
        }
        drop(summary_write_guard);

        handle.shutdown();
        runner.join().expect("join").expect("run");
        std::fs::remove_dir_all(&dir).ok();
    }

    type Rib = fn(Day) -> PrefixTrie<Asn>;

    /// How an armed serve-phase fault ends the loop it sits in.
    #[derive(Clone, Copy, Debug)]
    enum Failure {
        Err,
        Panic,
    }

    /// A one-shot serve-phase fault: once `armed` is set, the loop's
    /// next sweep fails `how`.
    fn serve_fault(armed: &Arc<AtomicBool>, how: Failure) -> crate::reactor::tests::Fault {
        let armed = Arc::clone(armed);
        Box::new(move |site| {
            // ordering: Acquire pairs with the test thread's Release
            // store; the flag is the only thing handed across.
            if site != "serve" || !armed.swap(false, Ordering::Acquire) {
                return Ok(());
            }
            match how {
                Failure::Err => Err(io::Error::other("injected loop failure")),
                Failure::Panic => panic!("injected loop panic"),
            }
        })
    }

    /// A TCP-only daemon over a fresh store whose windows stay open
    /// until the daemon finishes.
    fn store_daemon(tag: &str, event_loops: usize) -> (Daemon<Rib>, PathBuf) {
        let store = fresh_store(tag);
        let dir = store.dir.clone();
        let cfg = ServeConfig {
            udp: None,
            event_loops,
            stream: StreamConfig {
                ingest_threads: 2,
                allowed_lateness: mt_types::SimDuration::days(10),
                ..StreamConfig::default()
            },
            store: Some(store),
            ..ServeConfig::default()
        };
        let rib_of: Rib = |_| replay::default_rib();
        (Daemon::bind(cfg, rib_of).expect("bind"), dir)
    }

    /// Sends one exporter's day 0 over TCP and waits until all of it is
    /// decoded; day 0 stays an open window.
    fn ingest_day_zero(tcp: SocketAddr, http: SocketAddr) {
        let w = replay::Workload {
            exporters: 1,
            days: 1,
            flows_per_exporter_day: 300,
            seed: 0xE817,
        };
        replay::send_tcp(tcp, w.encode_day(0, Day(0), &mut 0, 25)).expect("send day");
        replay::await_decoded(http, w.total_flows()).expect("decoded");
    }

    /// Runs `daemon` on its own thread; the receiver yields what `run`
    /// returned.
    fn run_in_background<F>(daemon: Daemon<F>) -> mpsc::Receiver<io::Result<ServeOutput>>
    where
        F: Fn(Day) -> PrefixTrie<Asn> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(daemon.run()).ok());
        rx
    }

    /// No shutdown trigger is ever fired here: the failed loop alone
    /// must end the run, and the open window must still be persisted.
    #[test]
    fn a_failed_ingest_loop_still_persists_open_windows() {
        for (how, want) in [
            (Failure::Err, "injected loop failure"),
            (Failure::Panic, "ingest loop panicked"),
        ] {
            let (mut daemon, dir) = store_daemon(&format!("ingestfail-{how:?}"), 1);
            let tcp = daemon.tcp_addr().expect("tcp on");
            let http = daemon.http_addr().expect("http on");
            let armed = Arc::new(AtomicBool::new(false));
            daemon.loops[0].fault = serve_fault(&armed, how);
            let ran = run_in_background(daemon);

            ingest_day_zero(tcp, http);
            // ordering: Release pairs with the fault's Acquire swap.
            armed.store(true, Ordering::Release);
            // A new connection wakes the loop into its failing sweep.
            let _wake = TcpStream::connect(tcp).expect("connect");

            let err = ran
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{how:?}: run did not end on its own"))
                .expect_err("the loop's failure is the run's error");
            assert_eq!(err.to_string(), want, "{how:?}");
            assert!(
                dir.join("window-00000.mtw").exists(),
                "{how:?}: the open day was persisted"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_failed_control_loop_stops_the_ingest_loops() {
        for (how, want) in [
            (Failure::Err, "injected loop failure"),
            (Failure::Panic, "control loop panicked"),
        ] {
            let (mut daemon, dir) = store_daemon(&format!("controlfail-{how:?}"), 2);
            let tcp = daemon.tcp_addr().expect("tcp on");
            let http = daemon.http_addr().expect("http on");
            let armed = Arc::new(AtomicBool::new(false));
            daemon.control.fault = serve_fault(&armed, how);
            let ran = run_in_background(daemon);

            ingest_day_zero(tcp, http);
            // ordering: Release pairs with the fault's Acquire swap.
            armed.store(true, Ordering::Release);
            // The request wakes the control loop into its failing sweep;
            // whether it is still answered does not matter here.
            let _ = http_get(http, "/health");

            let err = ran
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("{how:?}: run did not return: {e}"))
                .expect_err("the control loop's failure is the run's error");
            assert_eq!(err.to_string(), want, "{how:?}");
            assert!(
                TcpStream::connect(tcp).is_err(),
                "{how:?}: no ingest loop is left listening"
            );
            assert!(
                dir.join("window-00000.mtw").exists(),
                "{how:?}: the open day was persisted"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A window sink that panics fails the close `finish` runs at
    /// shutdown, under `stream.closer`: `run` returns the panic as its
    /// error instead of unwinding.
    #[test]
    fn a_panicking_close_ends_run_with_an_error() {
        let (daemon, dir) = store_daemon("closepanic", 1);
        let tcp = daemon.tcp_addr().expect("tcp on");
        let http = daemon.http_addr().expect("http on");
        let handle = daemon.shutdown_handle().expect("handle");
        daemon
            .service()
            .set_window_sink(Box::new(|_| panic!("injected sink panic")));
        let ran = run_in_background(daemon);

        ingest_day_zero(tcp, http);
        handle.shutdown();
        let err = ran
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("run did not return: {e}"))
            .expect_err("the failed close is the run's error");
        assert_eq!(err.to_string(), "stream service panicked");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Polls `/metrics` until `line` shows up (or panics after ~10 s).
    fn await_metric(http: SocketAddr, line: &str) {
        for _ in 0..1000 {
            let (_, text) = http_get(http, "/metrics").expect("metrics");
            if text.lines().any(|l| l == line) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("/metrics never showed `{line}`");
    }

    /// The store directory vanishes mid-run: the next close cannot
    /// persist its window. That is a counted error, not a crash — the
    /// index goes on serving the last state that did reach the disk,
    /// and its lock is left unpoisoned.
    #[test]
    fn a_failed_persist_is_counted_and_leaves_the_index_on_its_last_good_state() {
        let store = fresh_store("lostdir");
        let dir = store.dir.clone();
        let daemon = watermark_daemon(store);
        let tcp = daemon.tcp_addr().expect("tcp on");
        let http = daemon.http_addr().expect("http on");
        let handle = daemon.shutdown_handle().expect("handle");
        let index = Arc::clone(
            &daemon
                .control
                .handler
                .store
                .as_ref()
                .expect("store on")
                .index,
        );
        let runner = std::thread::spawn(move || daemon.run());

        let w = replay::Workload {
            exporters: 1,
            days: 3,
            flows_per_exporter_day: 300,
            seed: 0x10_57D1,
        };
        let mut seq = 0;
        let mut send_day = |d: u32| {
            replay::send_tcp(tcp, w.encode_day(0, Day(d), &mut seq, 25)).expect("send day");
        };

        // Day 1 runs past day 0's lateness: window 0 closes and lands.
        send_day(0);
        send_day(1);
        await_metric(http, "mt_store_windows_persisted_total 1");
        let good_point = http_get(http, "/v1/block/20.0.0.0").expect("point");
        assert!(good_point.0.starts_with("HTTP/1.1 200"), "{good_point:?}");
        assert!(good_point.1.contains("\"windows\":1"), "{good_point:?}");
        let good_range = http_get(http, "/v1/windows/0/verdicts").expect("range");
        assert!(good_range.0.starts_with("HTTP/1.1 200"), "{good_range:?}");

        // The directory goes; day 2 closes window 1 into nothing.
        std::fs::remove_dir_all(&dir).expect("remove store dir");
        send_day(2);
        await_metric(http, "mt_store_persist_errors_total 1");
        await_metric(http, "mt_store_windows_persisted_total 1"); // still one

        assert!(
            !index.is_poisoned(),
            "a persist error must not poison serve.index"
        );
        assert_eq!(
            http_get(http, "/v1/block/20.0.0.0").expect("point"),
            good_point,
            "the index serves its last good state"
        );
        assert_eq!(
            http_get(http, "/v1/windows/0/verdicts").expect("range"),
            good_range
        );
        let (lost, _) = http_get(http, "/v1/windows/1/verdicts").expect("range");
        assert!(
            lost.starts_with("HTTP/1.1 404"),
            "window 1 never landed: {lost}"
        );
        let (_, events) = http_get(http, "/v1/events").expect("events");
        let head = r#"{"capacity":256,"dropped":0,"events":[{"seq":0,"kind":"persist_failed","day":1,"reason":"io","#;
        assert!(
            events.starts_with(head),
            "the failed persist is listed: {events}"
        );

        handle.shutdown();
        runner.join().expect("join").expect("run");
        assert!(!index.is_poisoned());
        assert!(!dir.exists(), "nothing recreated the store directory");
    }

    /// A TCP-only daemon over `store` whose windows close two hours
    /// past their day.
    fn watermark_daemon(store: StoreConfig) -> Daemon<Rib> {
        let cfg = ServeConfig {
            udp: None,
            event_loops: 1,
            stream: StreamConfig {
                ingest_threads: 2,
                allowed_lateness: mt_types::SimDuration::hours(2),
                ..StreamConfig::default()
            },
            store: Some(store),
            ..ServeConfig::default()
        };
        let rib_of: Rib = |_| replay::default_rib();
        Daemon::bind(cfg, rib_of).expect("bind")
    }

    /// Day 1 passes day 0's watermark, so window 0 closes on its own;
    /// day 1 is still open when the run ends, and `finish` closes it.
    /// Only that forced close is listed in the ring `/v1/events`
    /// serves.
    #[test]
    fn a_forced_close_is_listed_in_events() {
        let store = fresh_store("forced");
        let dir = store.dir.clone();
        let daemon = watermark_daemon(store);
        let tcp = daemon.tcp_addr().expect("tcp on");
        let http = daemon.http_addr().expect("http on");
        let handle = daemon.shutdown_handle().expect("handle");
        let events = Arc::clone(&daemon.control.handler.events);
        let ran = run_in_background(daemon);

        let w = replay::Workload {
            exporters: 1,
            days: 2,
            flows_per_exporter_day: 300,
            seed: 0xF0_2CED,
        };
        let mut seq = 0;
        for d in 0..2 {
            replay::send_tcp(tcp, w.encode_day(0, Day(d), &mut seq, 25)).expect("send day");
        }
        await_metric(http, "mt_store_windows_persisted_total 1");
        let (_, before) = http_get(http, "/v1/events").expect("events");
        assert!(
            !before.contains("window_forced"),
            "the watermark closed day 0: {before}"
        );

        handle.shutdown();
        ran.recv_timeout(Duration::from_secs(30))
            .expect("run returned")
            .expect("run");
        let after = events.to_json();
        let forced = r#"{"seq":0,"kind":"window_forced","day":1,"reason":"forced","detail":"closed at the end of the run before its watermark passed, 300 records"}"#;
        assert!(
            after.ends_with(&format!("[{forced}]}}")),
            "one forced close, day 1: {after}"
        );
        assert!(dir.join("window-00001.mtw").exists(), "day 1 was persisted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The cold load at start is exported: a store of two good window
    /// files and one damaged one loads two windows, reads the two good
    /// files' bytes, quarantines the third, and times the whole load.
    #[test]
    fn the_cold_load_is_exported() {
        let store = fresh_store("coldload");
        let dir = store.dir.clone();
        let results = ResultsStore::open(store.clone()).expect("open");
        let mut bytes = 0;
        for d in 0..2 {
            let empty = mt_flow::TrafficStats::new();
            let w = WindowData::build(Day(d), 0, &empty, Verdicts::default(), &[], &store.slots);
            bytes += results.write_window(&w).expect("write window");
        }
        std::fs::write(results.window_path(Day(2)), b"not a window").expect("damage");
        let daemon = watermark_daemon(store);
        let http = daemon.http_addr().expect("http on");
        let handle = daemon.shutdown_handle().expect("handle");
        let ran = run_in_background(daemon);

        let (_, text) = http_get(http, "/metrics").expect("metrics");
        for line in [
            "mt_store_cold_load_windows 2".to_owned(),
            format!("mt_store_cold_load_bytes {bytes}"),
            r#"mt_store_quarantined_total{reason="truncated"} 1"#.to_owned(),
            "mt_store_cold_load_nanoseconds_count 1".to_owned(),
        ] {
            assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
        }

        handle.shutdown();
        ran.recv_timeout(Duration::from_secs(30))
            .expect("run returned")
            .expect("run");
        std::fs::remove_dir_all(&dir).ok();
    }
}
