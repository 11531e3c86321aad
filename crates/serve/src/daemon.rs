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
//! A [`ShutdownHandle`] trigger or SIGTERM (when
//! [`ServeConfig::catch_sigterm`] is set) wakes the control loop via a
//! self-pipe. The control loop then broadcasts the shutdown to every
//! ingest loop's wake pipe; each loop independently (1) stops
//! accepting: its listener is deregistered and closed; (2) drains:
//! bounded `epoll_wait` sweeps keep serving its open connections and
//! its UDP socket until no byte moves in either direction for a few
//! sweeps in a row, or nothing is left open; (3) closes what remains.
//! The control loop drains its in-flight HTTP responses the same way,
//! joins the ingest threads, collects their lanes, and finishes the
//! service —
//! [`MultiStreamService::finish`] flushes the queue, folds the tail,
//! closes every open window, and returns the quiescent
//! [`mt_stream::StreamOutput`] whose ledger identities hold exactly.

use crate::http;
use crate::reactor::{Handler, Next, Reactor, Step};
use crate::sys;
use mt_obs::{Counter, Histogram};
use mt_store::{QueryIndex, ResultsStore, StoreConfig, Verdicts, WindowData};
use mt_stream::{LaneProducer, MultiStreamService, StreamConfig};
use mt_types::{Asn, Block24, Day, Ipv4, PrefixTrie};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

/// Histogram bounds for per-push ingest latency, in nanoseconds: fine
/// enough around the sub-100µs hot path for meaningful p50/p99, topping
/// out at 1s for queue-blocked pushes.
pub const INGEST_LATENCY_BUCKETS: [u64; 16] = [
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    5_000_000,
    25_000_000,
    100_000_000,
    1_000_000_000,
];

/// Listen backlog for the `SO_REUSEPORT` exporter listeners.
const TCP_BACKLOG: u32 = 1024;

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

/// A trigger that asks a running daemon to drain and exit; safe to
/// fire from any thread. [`Daemon::shutdown_handle`] makes as many as
/// are wanted.
#[derive(Debug)]
pub struct ShutdownHandle {
    shutdown: Arc<AtomicBool>,
    wake_tx: UnixStream,
}

impl ShutdownHandle {
    /// Requests shutdown and wakes the control loop (which broadcasts
    /// to the ingest loops).
    pub fn shutdown(&self) {
        // ordering: Release pairs with the loops' Acquire loads; the
        // flag is a latch that only ever goes false→true.
        self.shutdown.store(true, Ordering::Release);
        let _ = (&self.wake_tx).write(b"S");
    }
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
    /// closes from here on.
    fn open<F: Fn(Day) -> PrefixTrie<Asn>>(
        cfg: StoreConfig,
        service: &MultiStreamService<F>,
    ) -> io::Result<StoreRuntime> {
        let to_io =
            |e: mt_store::StoreError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let reg = service.registry();
        let slots = Arc::clone(&cfg.slots);
        let results = ResultsStore::open(cfg).map_err(to_io)?;
        let (index, _cold) = QueryIndex::cold_load(&results).map_err(to_io)?;
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
        let sink_index = Arc::clone(&index);
        service.set_window_sink(Box::new(move |w| {
            let verdicts = Verdicts::from_result(w.window, &slots);
            let wd = WindowData::build(w.day, w.records, w.stats, verdicts, w.ports, &slots);
            let outcome = (|| {
                let mut n = results.write_window(&wd)?;
                // Everything the merge can be handed ready-made
                // is made before the exclusive section.
                let combined = Verdicts::from_result(w.combined, &slots);
                let window = wd.verdicts.clone();
                lock_exclusive(&sink_index) // lock: serve.index
                    .apply_verdicts(&wd, window, combined)?;
                // lock: serve.index
                let idx = lock_shared(&sink_index);
                // check: allow(blocking_under_lock, "shared guard: queries keep reading beside the write; this sink is the index's only writer and runs under stream.closer, so the summary cannot change before it is on disk")
                n += results.write_summary(idx.summary())?;
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
                Err(_) => persist_errors.inc(),
            }
        }));
        Ok(StoreRuntime {
            index,
            point_queries,
            range_queries,
            query_latency: reg.histogram(
                "mt_store_query_nanoseconds",
                &INGEST_LATENCY_BUCKETS,
                "Wall time to answer one store query from the in-memory cache.",
            ),
        })
    }
}

/// Takes the index lock shared, recovering the data from a poisoned
/// lock: the store cache stays serviceable even if a panic unwound
/// mid-update.
fn lock_shared(l: &RwLock<QueryIndex>) -> RwLockReadGuard<'_, QueryIndex> {
    // lock: generic
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Takes the index lock exclusively, with the same poison recovery.
fn lock_exclusive(l: &RwLock<QueryIndex>) -> RwLockWriteGuard<'_, QueryIndex> {
    // lock: generic
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The ingest loops' handler: IPFIX over this loop's UDP socket and
/// accepted TCP exporter streams, pushed down this loop's lane. A TCP
/// connection's state is its session name, `tcp:<peer addr>`.
struct Ipfix<F> {
    udp: Option<UdpSocket>,
    lane: LaneProducer<F>,
    read_buf: Vec<u8>,
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

    fn on_datagrams(&mut self) -> u64 {
        let mut moved = 0;
        loop {
            let Some(sock) = &self.udp else { return moved };
            match sock.recv_from(&mut self.read_buf) {
                Ok((n, peer)) => {
                    moved += n as u64;
                    self.datagrams.inc();
                    let name = format!("udp:{peer}");
                    let span = self.ingest_latency.start_span();
                    let accepted = self.lane.push_datagram(&name, &self.read_buf[..n]);
                    drop(span);
                    if !accepted {
                        self.datagrams_rejected.inc();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // `WouldBlock`: the socket is empty. Any other error
                // also ends this round.
                Err(_) => return moved,
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
            match sock.read(&mut self.read_buf) {
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
/// service and the store's query cache.
struct Http<F> {
    service: MultiStreamService<F>,
    store: Option<StoreRuntime>,
    http_conns: Counter,
    http_health: Counter,
    http_metrics: Counter,
    http_store: Counter,
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
                http::response("200 OK", "application/json", body.as_bytes())
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
/// a dedicated thread; `run` returns when a shutdown trigger arrives
/// and every loop's drain completes.
///
/// [`run`]: Daemon::run
pub struct Daemon<F: Fn(Day) -> PrefixTrie<Asn>> {
    /// The ingest loops, one per lane of the service.
    loops: Vec<Reactor<Ipfix<F>>>,
    /// Their wake pipes' write ends, for the shutdown broadcast.
    loop_wake_tx: Vec<UnixStream>,
    /// The control loop (runs on the caller's thread); its handler owns
    /// the service.
    control: Reactor<Http<F>>,
    wake_tx: UnixStream,
    shutdown: Arc<AtomicBool>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
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
        let [http_health, http_metrics, http_store, http_other] =
            ["health", "metrics", "store", "other"].map(|endpoint| {
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
        let mut loop_wake_tx = Vec::with_capacity(loops);
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
                read_buf: vec![0u8; 64 * 1024],
                datagrams: datagrams.clone(),
                datagrams_rejected: datagrams_rejected.clone(),
                tcp_conns: tcp_conns.clone(),
                ingest_latency: reg.histogram_with(
                    "mt_serve_ingest_nanoseconds",
                    &[("loop", label.as_str())],
                    &INGEST_LATENCY_BUCKETS,
                    "Wall time to push one socket read (datagram or stream chunk) into the service, by event loop.",
                ),
            };
            let (reactor, wake_tx) =
                Reactor::new(handler, tcp, Arc::clone(&shutdown), &reg, &label)?;
            ingest.push(reactor);
            loop_wake_tx.push(wake_tx);
        }

        let http = cfg.http.map(TcpListener::bind).transpose()?;
        let http_addr = http.as_ref().map(TcpListener::local_addr).transpose()?;
        let store = match cfg.store {
            Some(store_cfg) => Some(StoreRuntime::open(store_cfg, &service)?),
            None => None,
        };
        let handler = Http {
            service,
            store,
            http_conns,
            http_health,
            http_metrics,
            http_store,
            http_other,
        };
        let (mut control, wake_tx) =
            Reactor::new(handler, http, Arc::clone(&shutdown), &reg, "control")?;
        if cfg.catch_sigterm {
            control.add_wake(sys::install_sigterm_pipe()?)?;
        }

        Ok(Daemon {
            loops: ingest,
            loop_wake_tx,
            control,
            wake_tx,
            shutdown,
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
        Ok(ShutdownHandle {
            shutdown: Arc::clone(&self.shutdown),
            wake_tx: self.wake_tx.try_clone()?,
        })
    }

    /// The live streaming service (health snapshots mid-run).
    pub fn service(&self) -> &MultiStreamService<F> {
        &self.control.handler.service
    }
}

impl<F: Fn(Day) -> PrefixTrie<Asn> + Send + 'static> Daemon<F> {
    /// Runs the daemon: spawns one thread per ingest loop, serves the
    /// control loop on the calling thread until shutdown, then drains
    /// everything and finishes the service.
    pub fn run(mut self) -> io::Result<ServeOutput> {
        let event_loops = self.loops.len();
        let threads: Vec<JoinHandle<io::Result<LaneProducer<F>>>> = self
            .loops
            .drain(..)
            .enumerate()
            .map(|(i, mut l)| {
                std::thread::Builder::new()
                    .name(format!("mt-serve-loop-{i}"))
                    .spawn(move || {
                        l.serve()?;
                        l.drain()?;
                        Ok(l.handler.lane)
                    })
            })
            .collect::<io::Result<_>>()?;

        self.control.serve()?;
        // Broadcast the shutdown to every ingest loop (the SIGTERM path
        // arrives here with the flag still unset).
        // ordering: Release pairs with the loops' Acquire loads.
        self.shutdown.store(true, Ordering::Release);
        for tx in &mut self.loop_wake_tx {
            let _ = tx.write(b"S");
        }
        // Answer in-flight probes while the ingest loops drain in
        // parallel, then collect the lanes.
        self.control.drain()?;
        let mut lanes = Vec::with_capacity(threads.len());
        for t in threads {
            let lane = t
                .join()
                .map_err(|_| io::Error::other("ingest loop panicked"))??;
            lanes.push(lane);
        }
        let http = self.control.handler;
        Ok(ServeOutput {
            datagrams: self.datagrams.get(),
            datagrams_rejected: self.datagrams_rejected.get(),
            tcp_connections: self.tcp_conns.get(),
            http_requests: http.http_health.get()
                + http.http_metrics.get()
                + http.http_store.get()
                + http.http_other.get(),
            event_loops,
            stream: http.service.finish(lanes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{self, http_get};
    use mt_types::{RibIndex, Slot24Index};
    use std::time::Duration;

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
        let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
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

        handle.shutdown();
        runner.join().expect("join").expect("run");
        assert!(!index.is_poisoned());
        assert!(!dir.exists(), "nothing recreated the store directory");
    }
}
