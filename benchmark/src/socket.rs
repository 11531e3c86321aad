//! The socket run: the embedded daemon driven over real loopback
//! sockets, from the first byte written to windows that are persisted
//! and answer `/v1`.
//!
//! Delivery is made deterministic in two ways. Exporter connections
//! are re-made before the timed section until each ingest loop holds
//! one (`SO_REUSEPORT` hashing is otherwise bimodal run to run). And a
//! day only starts once `/health` shows every flow of the previous day
//! gated: the gate counters only republish on `health()`, so the live
//! registry cannot serve as that barrier, and without it one lane runs
//! ahead of the other lane's kernel buffer and a quarter of the
//! records are dropped late.

use crate::alloc;
use crate::gen::DayStream;
use crate::stats::{peak_rss_mib, Cpu};
use crate::trace::Tracer;
use crate::workload::{Fixture, RibFn};
use mt_obs::{Counter, MetricsRegistry};
use mt_serve::Daemon;
use mt_serve::ServeOutput;
use mt_stream::HealthSnapshot;
use mt_types::{Block24, Slot24Index};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// TCP senders write message-aligned pieces of at most this many bytes
/// (the daemon reads into a 64 KiB buffer).
const TCP_PIECE_BYTES: usize = 64 * 1024;
/// UDP credit: datagrams outstanding against `mt_serve_datagrams_total`.
const UDP_CREDIT: u64 = 128;
/// Shortest sleep between credit polls.
const UDP_POLL: Duration = Duration::from_micros(50);
/// Blocks per `/v1/windows/{day}/verdicts` scan.
const RANGE_BLOCKS: u32 = 256;
/// On workloads with no client thread beside ingest, the coordinator
/// itself asks between its polls, waiting this many times a request's
/// latency before the next (a closed loop with think time: it spends
/// 5 % of its time asking), so the samples span the run as the day
/// segments do and the cores are as busy as a user's daemon's.
/// Against a quiet daemon after ingest the same requests spread 20 %
/// run to run: an idle vCPU halts, and whether the request's wake-ups
/// cross cores was settled once per run.
const QUERY_THINK_FACTOR: u32 = 19;
/// ... but this long at least, and at most (a request that arrives
/// while a closing window's summary is written waits 200 ms for the
/// `serve.index` lock; the next must not wait 4 s).
const QUERY_THINK_MIN: Duration = Duration::from_millis(2);
const QUERY_THINK_MAX: Duration = Duration::from_millis(20);
/// Days are delivered but not sampled until this much time has passed
/// (and one day at least): accumulators, pools, the page cache and the
/// store's files are cold at first, and the first seconds run unlike
/// the rest.
const WARMUP_SECONDS: f64 = 2.0;
/// The memory high-water mark is read when this many days have been
/// delivered, the warm-up days included: the daemon keeps every closed
/// window's report (six 2 MiB block sets a day) until it exits, so a
/// peak over the whole run would grow with the number of days, i.e.
/// with throughput.
const RSS_DAYS: u32 = 8;
/// `day` value that tells the senders to exit.
const STOP: u32 = u32::MAX;
/// Longest any single wait on the daemon may take.
const STALL: Duration = Duration::from_secs(30);
/// Default poll interval while waiting on the daemon.
const POLL: Duration = Duration::from_micros(200);
/// Poll interval on the live `mt_store_windows_persisted_total` counter.
const PERSIST_POLL: Duration = Duration::from_millis(1);
/// Poll interval of the `/health` barrier: each poll takes the gate
/// lock the ingest loops are working under.
const HEALTH_POLL: Duration = Duration::from_millis(1);

/// One sampled day segment.
pub struct Segment {
    /// The day's flows divided by first byte written → all flows gated.
    pub flows_per_s: f64,
    /// Whether allocation counting was on.
    pub traced: bool,
    /// Daemon CPU over the segment: process minus harness threads.
    pub daemon_cpu: Cpu,
    /// The window that closed beside it, as `(persisted, ready)` ms
    /// from the crossing record being written: to the live persisted
    /// counter moving, and to `/v1` answering as well.
    pub window_ms: (f64, f64),
    /// Allocations and bytes requested (traced segments only).
    pub allocs: (u64, u64),
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests meanwhile (`steal` in `/proc/stat`).
    pub steal_share: f64,
}

/// A segment whose `steal_share` is above this is set aside.
pub const STEAL_LIMIT: f64 = 0.02;
/// ... unless fewer than this many segments would remain: then the
/// limit is raised to what the least-stolen that many reach.
pub const MIN_CLEAN_SEGMENTS: usize = 5;

/// The samples and counts one socket run measured.
#[derive(Default)]
pub struct Samples {
    /// The sampled day segments, in order.
    pub segments: Vec<Segment>,
    /// Records in one day segment.
    pub flows_per_day: u64,
    /// Closed-loop `/v1` latencies in ns, ascending.
    pub query_ns: Vec<f64>,
    /// Seconds the query client spent waiting for answers.
    pub query_seconds: f64,
    /// Queries answered 200.
    pub queries_ok: u64,
    /// Queries answered anything else, or whose body failed its check.
    pub queries_failed: u64,
    /// Records written to the sockets, the warm-up days' included.
    pub flows_sent: u64,
    /// Day segments driven, the warm-up days included.
    pub days: u32,
    /// `VmHWM` once `RSS_DAYS` days are delivered (or all, if fewer),
    /// MiB.
    pub peak_rss_mib: f64,
    /// `ShutdownHandle::shutdown()` → `Daemon::run()` returned.
    pub drain_s: f64,
}

impl Samples {
    /// The segments the metrics are taken over: those the hypervisor
    /// left alone, or the least-stolen few where too few were. On this
    /// shared host other guests take 10–40 % of the CPUs for minutes at
    /// a time and a stolen segment runs at a third of the speed; it
    /// says nothing about the code.
    pub fn kept(&self) -> Vec<&Segment> {
        let mut shares: Vec<f64> = self.segments.iter().map(|s| s.steal_share).collect();
        shares.sort_by(f64::total_cmp);
        let limit = shares
            .get(MIN_CLEAN_SEGMENTS - 1)
            .or(shares.last())
            .map_or(STEAL_LIMIT, |&fifth| fifth.max(STEAL_LIMIT));
        self.segments
            .iter()
            .filter(|s| s.steal_share <= limit)
            .collect()
    }
}

/// What one socket run produced.
pub struct SocketRun {
    /// What the harness measured.
    pub samples: Samples,
    /// What the daemon returned.
    pub output: ServeOutput,
    /// The exporters' day buffers, handed back for the layer walk.
    pub streams: Vec<DayStream>,
}

/// One HTTP/1.1 GET on a fresh connection (the daemon is
/// `Connection: close`). Returns the status code; the response is left
/// in `buf`.
fn http_get(addr: SocketAddr, path: &str, buf: &mut Vec<u8>) -> std::io::Result<u16> {
    let mut sock = TcpStream::connect(addr)?;
    sock.write_all(format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())?;
    buf.clear();
    sock.read_to_end(buf)?;
    Ok(std::str::from_utf8(buf.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0))
}

/// The body of a response read by [`http_get`].
fn body(buf: &[u8]) -> &str {
    let text = std::str::from_utf8(buf).unwrap_or("");
    text.find("\r\n\r\n").map_or("", |i| &text[i + 4..])
}

fn health(http: SocketAddr, buf: &mut Vec<u8>) -> Result<HealthSnapshot, String> {
    match http_get(http, "/health", buf) {
        Ok(200) => serde_json::from_str(body(buf)).map_err(|e| format!("/health body: {e}")),
        Ok(code) => Err(format!("/health answered {code}")),
        Err(e) => Err(format!("/health: {e}")),
    }
}

/// The day-boundary decode barrier: polls `/health` until `target`
/// records have been gated.
fn wait_gated(http: SocketAddr, target: u64, buf: &mut Vec<u8>) -> Result<HealthSnapshot, String> {
    let t = Instant::now();
    loop {
        let h = health(http, buf)?;
        if h.on_time + h.late + h.dropped_late >= target {
            return Ok(h);
        }
        if t.elapsed() > STALL {
            return Err(format!(
                "stalled: {} of {target} records gated after {STALL:?}",
                h.on_time + h.late + h.dropped_late
            ));
        }
        std::thread::sleep(HEALTH_POLL);
    }
}

/// Polls `done` every `every` until it holds.
fn wait_until(what: &str, every: Duration, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let t = Instant::now();
    while !done() {
        if t.elapsed() > STALL {
            return Err(format!("stalled waiting for {what}"));
        }
        std::thread::sleep(every);
    }
    Ok(())
}

/// Connects `n` exporters, re-making a connection until every ingest
/// loop holds at most one.
fn connect_balanced(
    tcp: SocketAddr,
    reg: &MetricsRegistry,
    n: usize,
    loops: usize,
) -> Result<Vec<TcpStream>, String> {
    let open: Vec<_> = (0..loops)
        .map(|i| reg.gauge_with("mt_serve_open_connections", &[("loop", &i.to_string())], ""))
        .collect();
    let total = || open.iter().map(|g| g.get()).sum::<u64>();
    let mut socks = Vec::with_capacity(n);
    for k in 0..n as u64 {
        let mut tries = 0;
        loop {
            let sock = TcpStream::connect(tcp).map_err(|e| format!("connect exporter: {e}"))?;
            wait_until("the exporter connection to be accepted", POLL, || {
                total() == k + 1
            })?;
            if open.iter().all(|g| g.get() <= 1) {
                socks.push(sock);
                break;
            }
            drop(sock);
            wait_until("the surplus connection to close", POLL, || total() == k)?;
            tries += 1;
            if tries == 64 {
                return Err(format!(
                    "unbalanced placement: no connection landed on a free ingest loop in {tries} tries"
                ));
            }
        }
    }
    Ok(socks)
}

/// Per-sender timestamps (ns since the run's epoch) and CPU, written
/// by the sender between barriers and read by the coordinator after
/// the `done` barrier, which orders them.
#[derive(Default)]
struct SenderSlot {
    first_write_ns: AtomicU64,
    crossing_ns: AtomicU64,
    last_write_ns: AtomicU64,
    cpu: Mutex<Cpu>,
}

/// What the coordinator and the sender threads share.
struct Ctl {
    epoch: Instant,
    /// Released once the coordinator has published `day`; the senders
    /// then re-stamp, untimed.
    go: Barrier,
    /// Released when every sender is re-stamped: the segment starts.
    start: Barrier,
    /// Released when every sender has written its day.
    done: Barrier,
    day: AtomicU32,
    slots: Vec<SenderSlot>,
}

impl Ctl {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

enum Wire {
    Tcp(TcpStream),
    Udp {
        sock: UdpSocket,
        /// Live `mt_serve_datagrams_total`.
        received: Counter,
        sent: u64,
    },
}

impl Wire {
    /// Writes messages `from..to` of `stream`.
    fn send(&mut self, stream: &DayStream, from: usize, to: usize) -> std::io::Result<()> {
        match self {
            Wire::Tcp(sock) => {
                for piece in stream.pieces(from, to, TCP_PIECE_BYTES) {
                    sock.write_all(piece)?;
                }
            }
            Wire::Udp {
                sock,
                received,
                sent,
            } => {
                for m in from..to {
                    while *sent - received.get() >= UDP_CREDIT {
                        std::thread::sleep(UDP_POLL);
                    }
                    sock.send(stream.range(m, m + 1))?;
                    *sent += 1;
                }
            }
        }
        Ok(())
    }
}

/// A sender thread: per day, re-stamp in the untimed gap, then write
/// the day, noting when the first and the crossing message go out.
/// After a failed write it keeps meeting the barriers (sending nothing)
/// so the coordinator is never left waiting, and reports the error at
/// the end. Hands its stream back for the layer walk.
fn sender(
    mut wire: Wire,
    mut stream: DayStream,
    ctl: &Ctl,
    me: usize,
) -> Result<DayStream, String> {
    let slot = &ctl.slots[me];
    let cpu0 = Cpu::thread();
    let mut failed = None;
    loop {
        ctl.go.wait();
        // ordering: SeqCst — published before the `go` barrier.
        let day = ctl.day.load(Ordering::SeqCst);
        if day == STOP {
            return failed.map_or(Ok(stream), Err);
        }
        stream.restamp(day);
        *slot.cpu.lock().expect("cpu slot") = Cpu::thread().since(cpu0);
        ctl.start.wait();
        if failed.is_none() {
            let sent = (|| {
                slot.first_write_ns.store(ctl.now_ns(), Ordering::SeqCst);
                wire.send(&stream, 0, stream.crossing_msg)?;
                slot.crossing_ns.store(ctl.now_ns(), Ordering::SeqCst);
                wire.send(&stream, stream.crossing_msg, stream.messages())
            })();
            failed = sent.err().map(|e| format!("exporter {me} write: {e}"));
        }
        slot.last_write_ns.store(ctl.now_ns(), Ordering::SeqCst);
        *slot.cpu.lock().expect("cpu slot") = Cpu::thread().since(cpu0);
        ctl.done.wait();
    }
}

/// The seeded `/v1` request mix: 90 % point lookups over uniform
/// slots, 10 % `RANGE_BLOCKS`-block scans of one persisted day.
struct QueryMix {
    slots: Arc<Slot24Index>,
    state: u64,
    path: String,
}

impl QueryMix {
    fn new(slots: Arc<Slot24Index>, seed: u64) -> QueryMix {
        QueryMix {
            slots,
            state: seed ^ 0x0071_7565_7279,
            path: String::new(),
        }
    }

    /// Writes the next request path into `self.path`; returns what its
    /// response must name: the scanned day, if it is a scan, and the
    /// block. `days` is the persisted range.
    fn next(&mut self, days: (u32, u32)) -> (Option<u32>, Block24) {
        use std::fmt::Write as _;
        self.state = self.state.wrapping_add(1);
        let h = mt_types::mix::mix3(self.state, 0x51, 0x71);
        let n = self.slots.num_slots().max(1);
        let block = self.slots.block_of((h >> 8) as u32 % n);
        self.path.clear();
        if h.is_multiple_of(10) && days.1 > days.0 {
            let day = days.0 + (h >> 40) as u32 % (days.1 - days.0);
            self.path.push_str(&range_path(day, block));
            (Some(day), block)
        } else {
            let _ = write!(self.path, "/v1/block/{}", block.base());
            (None, block)
        }
    }
}

/// The `RANGE_BLOCKS`-block verdict scan of `day` starting at `from`.
fn range_path(day: u32, from: Block24) -> String {
    format!(
        "/v1/windows/{day}/verdicts?from={}&to={}",
        from.base(),
        Block24(from.0 + RANGE_BLOCKS - 1).base()
    )
}

/// What a query client measured.
#[derive(Default)]
struct QueryLog {
    ns: Vec<f64>,
    ok: u64,
    failed: u64,
    seconds: f64,
}

/// The closed-loop client: one request at a time, connect through last
/// byte. Every 100th response body is checked to name what was asked,
/// and recorded as a `query` span when tracing.
struct QueryClient<'t> {
    http: SocketAddr,
    mix: QueryMix,
    buf: Vec<u8>,
    log: QueryLog,
    tracer: Option<(&'t Tracer, u32)>,
}

impl<'t> QueryClient<'t> {
    fn new(http: SocketAddr, mix: QueryMix, tracer: Option<(&'t Tracer, u32)>) -> Self {
        QueryClient {
            http,
            mix,
            buf: Vec::with_capacity(64 * 1024),
            log: QueryLog::default(),
            tracer,
        }
    }

    /// One request over the persisted range `days`. Returns when it
    /// ended and how long it took.
    fn ask(&mut self, days: (u32, u32)) -> (Instant, Duration) {
        let (range_day, block) = self.mix.next(days);
        let t = Instant::now();
        let status = http_get(self.http, &self.mix.path, &mut self.buf);
        let end = Instant::now();
        let mut good = matches!(status, Ok(200));
        if good && (self.log.ok + self.log.failed).is_multiple_of(100) {
            // A scan must name its day, a lookup its block.
            good = body(&self.buf).contains(&match range_day {
                Some(day) => format!("\"day\":{day}"),
                None => format!("\"block\":\"{}\"", block.base()),
            });
            if let Some((tr, parent)) = self.tracer {
                tr.record(parent, "query", tr.at_ns(t), tr.at_ns(end));
            }
        }
        if good {
            self.log.ok += 1;
            self.log.ns.push((end - t).as_nanos() as f64);
        } else {
            self.log.failed += 1;
        }
        self.log.seconds += (end - t).as_secs_f64();
        (end, end - t)
    }

    /// Asks back to back until `stop` is set, publishing the calling
    /// thread's CPU use to `cpu` every 100 requests for the
    /// coordinator's per-segment account.
    fn run(&mut self, days: impl Fn() -> (u32, u32), stop: &AtomicBool, cpu: &Mutex<Cpu>) {
        let cpu0 = Cpu::thread();
        // ordering: SeqCst — a plain stop flag, set once.
        while !stop.load(Ordering::SeqCst) {
            if (self.log.ok + self.log.failed).is_multiple_of(100) {
                *cpu.lock().expect("client cpu") = Cpu::thread().since(cpu0);
            }
            self.ask(days());
        }
    }

    /// The log, latencies ascending.
    fn finish(mut self) -> QueryLog {
        self.log.ns.sort_by(f64::total_cmp);
        self.log
    }
}

/// The earliest (`u64::min`) or latest (`u64::max`) of one timestamp
/// over all senders.
fn over_senders(ctl: &Ctl, field: fn(&SenderSlot) -> &AtomicU64, pick: fn(u64, u64) -> u64) -> u64 {
    ctl.slots
        .iter()
        // ordering: SeqCst — written before the `done` barrier.
        .map(|s| field(s).load(Ordering::SeqCst))
        .reduce(pick)
        .unwrap_or(0)
}

/// Drives one workload's socket run: the warm-up days, then about
/// `seconds` of sampled day segments (at least two) with the query
/// client beside them, then the drain. With a tracer, odd day segments
/// run with allocation counting on and spans are recorded.
pub fn run(
    daemon: Daemon<RibFn>,
    streams: Vec<DayStream>,
    fixture: &Fixture,
    seconds: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<SocketRun, String> {
    let at = Endpoints {
        http: daemon.http_addr().ok_or("daemon has no http address")?,
        tcp: daemon.tcp_addr().ok_or("daemon has no tcp address")?,
        udp: daemon.udp_addr().ok_or("daemon has no udp address")?,
        loops: daemon.event_loops(),
        reg: Arc::clone(daemon.service().registry()),
    };
    let handle = daemon
        .shutdown_handle()
        .map_err(|e| format!("shutdown handle: {e}"))?;
    let daemon_thread = std::thread::Builder::new()
        .name("mt-daemon".into())
        .spawn(move || daemon.run())
        .map_err(|e| format!("spawn daemon: {e}"))?;

    let driven = drive(fixture, streams, seconds, seed, tracer, &at);

    let t = Instant::now();
    handle.shutdown();
    let output = daemon_thread
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?
        .map_err(|e| format!("daemon run: {e}"));
    let t_end = Instant::now();
    let (mut samples, streams, trace_root) = driven?;
    samples.drain_s = (t_end - t).as_secs_f64();
    if let Some((tr, root, t_start)) = trace_root {
        tr.record(root, "drain", tr.at_ns(t), tr.at_ns(t_end));
        tr.finish(root, 0, "run", tr.at_ns(t_start), tr.at_ns(t_end));
    }
    Ok(SocketRun {
        samples,
        output: output?,
        streams,
    })
}

type Driven<'t> = (Samples, Vec<DayStream>, Option<(&'t Tracer, u32, Instant)>);

/// Where the running daemon listens, and its live registry.
struct Endpoints {
    http: SocketAddr,
    tcp: SocketAddr,
    udp: SocketAddr,
    loops: usize,
    reg: Arc<MetricsRegistry>,
}

/// Everything between the daemon starting and its shutdown: connect,
/// the day segments, the queries.
fn drive<'t>(
    fixture: &Fixture,
    streams: Vec<DayStream>,
    seconds: f64,
    seed: u64,
    tracer: Option<&'t Tracer>,
    at: &Endpoints,
) -> Result<Driven<'t>, String> {
    let Endpoints {
        http,
        tcp,
        udp,
        loops,
        reg,
    } = at;
    let (http, reg) = (*http, reg.as_ref());
    let (kind, slots) = (fixture.kind, &fixture.slots);
    let (records_per_day, first_day) = (fixture.records_per_day, fixture.first_day);
    let persisted = reg.counter("mt_store_windows_persisted_total", "");
    let persist_errors = reg.counter("mt_store_persist_errors_total", "");
    let wires: Vec<Wire> = if kind.is_udp() {
        let sock = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| format!("bind exporter: {e}"))?;
        sock.connect(*udp)
            .map_err(|e| format!("connect exporter: {e}"))?;
        vec![Wire::Udp {
            sock,
            received: reg.counter("mt_serve_datagrams_total", ""),
            sent: 0,
        }]
    } else {
        connect_balanced(*tcp, reg, kind.exporters(), *loops)?
            .into_iter()
            .map(Wire::Tcp)
            .collect()
    };
    let n = wires.len();
    let ctl = Ctl {
        epoch: Instant::now(),
        go: Barrier::new(n + 1),
        start: Barrier::new(n + 1),
        done: Barrier::new(n + 1),
        day: AtomicU32::new(first_day),
        slots: (0..n).map(|_| SenderSlot::default()).collect(),
    };
    let trace_root = tracer.map(|t| (t, t.reserve()));
    let stop_queries = AtomicBool::new(false);
    let client_cpu = Mutex::new(Cpu::default());
    let closed_days = AtomicU32::new(first_day);
    // The persisted days a range scan may ask for.
    let query_days = || {
        if kind.queries_beside() {
            (0, first_day)
        } else {
            // ordering: SeqCst — a plain progress counter.
            (first_day, closed_days.load(Ordering::SeqCst))
        }
    };
    let mut s = Samples {
        flows_per_day: records_per_day,
        ..Samples::default()
    };

    let streams = std::thread::scope(|scope| {
        let ctl = &ctl;
        let senders: Vec<_> = wires
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(me, (wire, stream))| scope.spawn(move || sender(wire, stream, ctl, me)))
            .collect();
        // The client runs on a thread of its own beside ingest, and
        // otherwise stays here, to ask between this thread's polls.
        let mix = QueryMix::new(Arc::clone(slots), seed);
        let (mut light, mut beside) = (Some(QueryClient::new(http, mix, trace_root)), None);
        if kind.queries_beside() {
            let (stop, days, cpu) = (&stop_queries, &query_days, &client_cpu);
            beside = light.take().map(|mut client| {
                scope.spawn(move || {
                    client.run(days, stop, cpu);
                    client
                })
            });
        }

        let mut buf = Vec::with_capacity(16 * 1024);
        let day_loop = (|| -> Result<(), String> {
            let persisted_base = persisted.get();
            let harness_cpu = |own0: Cpu| {
                ctl.slots
                    .iter()
                    .map(|x| *x.cpu.lock().expect("cpu slot"))
                    .fold(Cpu::thread().since(own0), Cpu::plus)
                    .plus(*client_cpu.lock().expect("client cpu"))
            };
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
            let own0 = Cpu::thread();
            // Daemon CPU so far: process minus harness threads.
            let daemon_cpu = || Cpu::process().since(harness_cpu(own0));
            let t_begin = Instant::now();
            // When sampling began; `None` through the warm-up days.
            let mut sampled_since: Option<Instant> = None;
            let mut next_query = Instant::now();
            loop {
                let d = s.days;
                let day = first_day + d;
                let traced = tracer.is_some() && d % 2 == 1;
                ctl.day.store(day, Ordering::SeqCst);
                ctl.go.wait();
                alloc::set_enabled(traced);
                let allocs0 = alloc::totals();
                ctl.start.wait();
                let (cpu0, steal0) = (daemon_cpu(), crate::stats::steal_seconds());

                // While the senders write day `d`, window `d-1` closes:
                // watch it become persisted and queryable. Errors wait
                // for the `done` barrier so the senders stay in step.
                let watched = (|| -> Result<Option<(u64, u64)>, String> {
                    if d == 0 {
                        return Ok(None);
                    }
                    let want = persisted_base + u64::from(d);
                    // Asks once sampling has begun and a window is there
                    // to scan.
                    let mut asker = light.as_mut().filter(|_| sampled_since.is_some());
                    wait_until("the window to persist", PERSIST_POLL, || {
                        let days = query_days();
                        if let Some(client) = asker.as_mut().filter(|_| days.1 > days.0) {
                            if Instant::now() >= next_query {
                                let (end, took) = client.ask(days);
                                next_query = end
                                    + (took * QUERY_THINK_FACTOR)
                                        .clamp(QUERY_THINK_MIN, QUERY_THINK_MAX);
                            }
                        }
                        persisted.get() >= want || persist_errors.get() > 0
                    })?;
                    if persist_errors.get() > 0 {
                        return Err("the daemon failed to persist a window".into());
                    }
                    let t_persisted = ctl.now_ns();
                    let path = range_path(day - 1, slots.block_of(0));
                    let mut status = 0;
                    wait_until("the window to answer /v1", POLL, || {
                        status = http_get(http, &path, &mut buf).unwrap_or(0);
                        status == 200
                    })?;
                    closed_days.store(day, Ordering::SeqCst);
                    Ok(Some((t_persisted, ctl.now_ns())))
                })();
                ctl.done.wait();
                let window = watched?;
                s.flows_sent += records_per_day;
                let h = wait_gated(http, s.flows_sent, &mut buf)?;
                let t_end = ctl.now_ns();
                alloc::set_enabled(false);
                if d <= RSS_DAYS {
                    s.peak_rss_mib = peak_rss_mib();
                }
                if h.dropped_late + h.dropped_backpressure + h.rejected_closed > 0 {
                    return Err(format!(
                        "day {day}: {} records dropped late, {} shed, {} rejected: delivery was not deterministic",
                        h.dropped_late, h.dropped_backpressure, h.rejected_closed
                    ));
                }

                let t_first = over_senders(ctl, |x| &x.first_write_ns, u64::min);
                let t_crossing = over_senders(ctl, |x| &x.crossing_ns, u64::min);
                let t_written = over_senders(ctl, |x| &x.last_write_ns, u64::max);
                let seconds_taken = (t_end - t_first) as f64 / 1e9;
                if sampled_since.is_none() {
                    // A warm-up day: delivered and checked but not
                    // sampled. (No window closes beside the first day,
                    // which runs twice as fast as any later one.)
                    if t_begin.elapsed().as_secs_f64() >= WARMUP_SECONDS.min(seconds) {
                        sampled_since = Some(Instant::now());
                    }
                } else if let Some((t_persisted, t_ready)) = window {
                    let allocs1 = alloc::totals();
                    let since_crossing = |t: u64| t.saturating_sub(t_crossing) as f64 / 1e6;
                    s.segments.push(Segment {
                        flows_per_s: records_per_day as f64 / seconds_taken,
                        traced,
                        daemon_cpu: daemon_cpu().since(cpu0),
                        window_ms: (since_crossing(t_persisted), since_crossing(t_ready)),
                        allocs: (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
                        steal_share: (crate::stats::steal_seconds() - steal0)
                            / (cores * seconds_taken),
                    });
                }
                if let Some((tr, root)) = trace_root {
                    let at = |ns: u64| tr.at_ns(ctl.epoch + Duration::from_nanos(ns));
                    let span = tr.record(root, &format!("day[{d}]"), at(t_first), at(t_end));
                    tr.record(span, "send", at(t_first), at(t_written));
                    tr.record(span, "decode_wait", at(t_written), at(t_end));
                    if let Some((t_persisted, t_ready)) = window {
                        let w = tr.record(
                            root,
                            &format!("window[{}]", d - 1),
                            at(t_crossing),
                            at(t_ready),
                        );
                        tr.record(w, "persisted", at(t_crossing), at(t_persisted));
                        tr.record(w, "http_ready", at(t_persisted), at(t_ready));
                    }
                }
                s.days += 1;
                if sampled_since.is_some_and(|t| t.elapsed().as_secs_f64() >= seconds)
                    && s.segments.len() >= 2
                {
                    break;
                }
            }
            Ok(())
        })();

        // Release the senders whatever happened.
        ctl.day.store(STOP, Ordering::SeqCst);
        ctl.go.wait();
        let streams: Result<Vec<DayStream>, String> = senders
            .into_iter()
            .map(|h| h.join().map_err(|_| "sender panicked".to_owned())?)
            .collect();

        if let Some(thread) = beside {
            stop_queries.store(true, Ordering::SeqCst);
            light = Some(
                thread
                    .join()
                    .map_err(|_| "query client panicked".to_owned())?,
            );
        }
        let log = light.map(QueryClient::finish).unwrap_or_default();
        s.query_ns = log.ns;
        s.query_seconds = log.seconds;
        s.queries_ok = log.ok;
        s.queries_failed = log.failed;
        day_loop?;
        streams
    })?;
    Ok((s, streams, trace_root.map(|(t, root)| (t, root, ctl.epoch))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(steal_share: f64) -> Segment {
        Segment {
            flows_per_s: 1.0,
            traced: false,
            daemon_cpu: Cpu::default(),
            window_ms: (1.0, 2.0),
            allocs: (0, 0),
            steal_share,
        }
    }

    #[test]
    fn stolen_segments_are_set_aside_only_while_enough_remain() {
        let mut s = Samples::default();
        s.segments
            .extend((0..MIN_CLEAN_SEGMENTS).map(|_| segment(0.0)));
        s.segments.push(segment(STEAL_LIMIT * 2.0));
        assert_eq!(s.kept().len(), MIN_CLEAN_SEGMENTS);
        s.segments.push(segment(STEAL_LIMIT * 3.0));
        s.segments.remove(0);
        let kept = s.kept();
        assert_eq!(
            kept.len(),
            MIN_CLEAN_SEGMENTS,
            "too few clean: the least stolen make up the number"
        );
        assert!(kept.iter().all(|x| x.steal_share < STEAL_LIMIT * 3.0));
        assert!(kept.iter().any(|x| x.steal_share > STEAL_LIMIT));
    }

    #[test]
    fn query_mix_is_seeded_and_mostly_point_lookups() {
        let slots = Arc::new(Slot24Index::build(&mt_types::RibIndex::build(
            &mt_serve::replay::default_rib(),
        )));
        let paths = |seed| {
            let mut mix = QueryMix::new(Arc::clone(&slots), seed);
            (0..1_000)
                .map(|_| {
                    let (day, block) = mix.next((3, 9));
                    assert!(day.is_none_or(|d| (3..9).contains(&d)));
                    assert_eq!(block.0 >> 16, 20, "inside the announced /8");
                    mix.path.clone()
                })
                .collect::<Vec<_>>()
        };
        let a = paths(1);
        assert_eq!(a, paths(1));
        assert_ne!(a, paths(2));
        let scans = a.iter().filter(|p| p.starts_with("/v1/windows/")).count();
        assert!((50..200).contains(&scans), "{scans} scans of 1000");
    }
}
