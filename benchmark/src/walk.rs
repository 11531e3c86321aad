//! The layer walk: a single-threaded, in-process pass over the same
//! bytes the socket run sent, one span per layer call per day, then
//! the close steps of each day's window one by one.
//!
//! Each producer-side span covers one layer's public function applied
//! to the whole day, so `duration / records` is that layer's cost per
//! record with nothing else running. The close steps replay what
//! `WindowScheduler::close_with_ports` and the daemon's window sink do,
//! step by step; the same day is then closed through the real
//! `WindowScheduler` with an equivalent sink, so the sum of the steps
//! can be set beside the whole call.

use crate::alloc;
use crate::gen::{DayStream, LATENESS_SECS};
use crate::trace::Tracer;
use crate::workload::{reference_result, SharedRib};
use mt_core::pipeline::{PipelineConfig, PipelineResult};
use mt_core::PipelineEngine;
use mt_flow::sharded::DEFAULT_SHARDS;
use mt_flow::stats::DEFAULT_SIZE_THRESHOLD;
use mt_flow::{FlowRecord, ShardedTrafficStats, StatsLayout, TrafficStats, TrafficView};
use mt_obs::MetricsRegistry;
use mt_store::{codec, QueryIndex, ResultsStore, StoreConfig, StoreError, Verdicts, WindowData};
use mt_stream::{
    BatchPool, BoundedQueue, MultiStreamService, OverflowPolicy, SchedulerConfig, StreamCollector,
    StreamConfig, WindowScheduler, WindowTracker,
};
use mt_types::{Asn, Block24, Block24Set, Day, PrefixTrie, RibIndex, SimDuration, Slot24Index};
use mt_wire::ipfix::{self, IpfixFlow};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bytes per `push_chunk` / `feed_into` call: what the daemon's loops
/// read from a socket at a time.
const CHUNK_BYTES: usize = 64 * 1024;
/// Iterations of the micro-loops (pool, queue, counter, queries),
/// each cut short at `WalkInput::micro_budget`.
const MICRO_ITERS: u32 = 200_000;

/// The store's FNV-1a over the three verdict sets, in address order.
pub fn digest(dark: &Block24Set, unclean: &Block24Set, gray: &Block24Set) -> u64 {
    let mut bytes = Vec::with_capacity(4 * (6 + dark.len() + unclean.len() + gray.len()));
    for (tag, set) in [(1u32, dark), (2, unclean), (3, gray)] {
        codec::put_u32(&mut bytes, tag);
        codec::put_u32(&mut bytes, set.len() as u32);
        set.iter().for_each(|b| codec::put_u32(&mut bytes, b.0));
    }
    codec::fnv1a64(&bytes)
}

/// The digest of a pipeline result's verdicts.
pub fn digest_result(r: &PipelineResult) -> u64 {
    digest(&r.dark, &r.unclean, &r.gray)
}

/// The digest of a persisted window's verdicts.
pub fn digest_window(w: &WindowData, slots: &Slot24Index) -> u64 {
    let (dark, unclean, gray) = w.verdicts.to_sets(slots);
    digest(&dark, &unclean, &gray)
}

/// What the walk needs from the run it follows.
pub struct WalkInput<'a> {
    /// The exporters' day buffers.
    pub streams: Vec<DayStream>,
    /// Per-day RIB provider.
    pub rib_of: SharedRib,
    /// The store's slot index.
    pub slots: Arc<Slot24Index>,
    /// Exporter packet sampling rate.
    pub sampling_rate: u32,
    /// Serial fold of one day's records.
    pub reference: &'a TrafficStats,
    /// First day to stamp the buffers for.
    pub first_day: u32,
    /// Days to walk.
    pub days: u32,
    /// Scratch directory for the walk's two stores.
    pub dir: &'a Path,
    /// The daemon's stream configuration (threads, shards, queue).
    pub stream_cfg: StreamConfig,
    /// The finished daemon's registry, for the mt-obs costs.
    pub daemon_registry: &'a MetricsRegistry,
    /// Longest each micro-loop may run.
    pub micro_budget: std::time::Duration,
}

/// Per-layer values the walk measured, by metric name, plus the close
/// step names in path order for the side-by-side print.
pub struct Walked {
    /// `(metric name, value)`.
    pub values: Vec<(&'static str, f64)>,
    /// `(close step, ms per window)` in path order.
    pub close_steps: Vec<(&'static str, f64)>,
}

/// Collects span durations by name: one `(ns, units of work)` sample
/// per span.
struct Sums<'t> {
    tracer: &'t Tracer,
    micro_budget: std::time::Duration,
    samples: std::collections::BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl Sums<'_> {
    /// Times `f` as a span under `parent`, crediting `units` of work.
    fn span<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        day: u32,
        units: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, ns) = self.tracer.span(parent, &format!("{name}[{day}]"), |_| f());
        self.samples.entry(name).or_default().push((ns, units));
        out
    }

    /// Times a micro-loop as one span: `f(i)` for `i` in `0..max`, cut
    /// short once `micro_budget` has passed (checked every 64 calls).
    fn micro(&mut self, parent: u32, name: &'static str, max: u32, mut f: impl FnMut(u32)) {
        let mut done = 0u32;
        let budget = self.micro_budget;
        let ((), ns) = self.tracer.span(parent, name, |_| {
            let t = Instant::now();
            while done < max && (!done.is_multiple_of(64) || t.elapsed() < budget) {
                f(done);
                done += 1;
            }
        });
        self.samples
            .entry(name)
            .or_default()
            .push((ns, u64::from(done)));
    }

    /// Median over the spans called `name` of `f(ns, units)`.
    fn median_of(&self, name: &str, f: impl Fn(u64, u64) -> f64) -> f64 {
        let v: Vec<f64> = self
            .samples
            .get(name)
            .map(|s| s.iter().map(|&(ns, units)| f(ns, units)).collect())
            .unwrap_or_default();
        crate::stats::median(&v)
    }

    /// Nanoseconds per unit of work: the median over the spans called
    /// `name`.
    fn per_unit(&self, name: &str) -> f64 {
        self.median_of(name, |ns, units| ns as f64 / units.max(1) as f64)
    }

    /// Milliseconds per span: the median over the spans called `name`.
    fn ms_each(&self, name: &str) -> f64 {
        self.median_of(name, |ns, _| ns as f64 / 1e6)
    }
}

/// A vector of capacity `n` whose pages have all been written once:
/// first touches of fresh memory cost microseconds each in a VM and
/// would otherwise be charged to whichever layer fills the vector.
fn touched<T: Clone>(n: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; n];
    v.clear();
    v
}

/// The window sink the daemon installs, rebuilt from the same public
/// calls (`daemon.rs` keeps its own private).
fn persist(
    results: &ResultsStore,
    index: &mut QueryIndex,
    slots: &Slot24Index,
    w: &mt_stream::ClosedWindow<'_>,
) -> Result<u64, StoreError> {
    let verdicts = Verdicts::from_result(w.window, slots);
    let wd = WindowData::build(w.day, w.records, w.stats, verdicts, w.ports, slots);
    let mut n = results.write_window(&wd)?;
    index.apply_window(&wd, w.combined)?;
    n += results.write_summary(index.summary())?;
    Ok(n)
}

fn open_store(dir: &Path, slots: &Arc<Slot24Index>) -> Result<ResultsStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    ResultsStore::open(StoreConfig {
        dir: dir.to_path_buf(),
        slots: Arc::clone(slots),
    })
    .map_err(|e| format!("open walk store: {e}"))
}

/// Runs the walk. Fails if any window's verdict digest differs from
/// the serial reference.
pub fn walk(input: WalkInput<'_>, tracer: &Tracer) -> Result<Walked, String> {
    let WalkInput {
        mut streams,
        rib_of,
        slots,
        sampling_rate,
        reference,
        first_day,
        days,
        dir,
        stream_cfg,
        daemon_registry,
        micro_budget,
    } = input;
    let store_err = |e: StoreError| format!("walk store: {e}");
    let root = tracer.reserve();
    let t_root = tracer.now_ns();
    let mut sums = Sums {
        tracer,
        micro_budget,
        samples: Default::default(),
    };
    let records_per_day: u64 = streams.iter().map(|s| s.records).sum();
    let pipeline_cfg = PipelineConfig::default();
    let walk_registry = MetricsRegistry::new();
    let engine = PipelineEngine::standard().with_registry(&walk_registry);

    // State that lives across the walked days, as in the daemon.
    let mut collectors: Vec<ipfix::Collector> =
        streams.iter().map(|_| ipfix::Collector::new()).collect();
    let mut stream_collector = StreamCollector::new();
    let mut tracker = WindowTracker::new(SimDuration::secs(u64::from(LATENESS_SECS)));
    let steps_store = open_store(&dir.join("steps"), &slots)?;
    let mut steps_index = QueryIndex::new(Arc::clone(&slots));
    let mut cumulative: Option<ShardedTrafficStats> = None;
    let mut union_rib: PrefixTrie<Asn> = PrefixTrie::new();
    let whole_store = Arc::new(open_store(&dir.join("whole"), &slots)?);
    let whole_index = Arc::new(Mutex::new(QueryIndex::new(Arc::clone(&slots))));
    let sink_error = Arc::new(Mutex::new(None::<String>));
    let scheduler_rib = Arc::clone(&rib_of);
    let mut scheduler = WindowScheduler::new(
        move |d| scheduler_rib(d),
        SchedulerConfig {
            sampling_rate,
            pipeline: pipeline_cfg.clone(),
            threads: stream_cfg.pipeline_threads,
        },
    )
    .with_registry(&walk_registry);
    {
        let (store, index, slots, error) = (
            Arc::clone(&whole_store),
            Arc::clone(&whole_index),
            Arc::clone(&slots),
            Arc::clone(&sink_error),
        );
        scheduler.set_sink(Box::new(move |w| {
            let mut index = index.lock().expect("walk index");
            if let Err(e) = persist(&store, &mut index, &slots, &w) {
                *error.lock().expect("walk sink error") = Some(e.to_string());
            }
        }));
    }
    let mut close_allocs = 0u64;
    let mut window_bytes = 0u64;
    let mut live_fold_bytes = 0i64;
    let mut dst_blocks = 0usize;
    let zero_flow = IpfixFlow {
        src: mt_types::Ipv4(0),
        dst: mt_types::Ipv4(0),
        src_port: 0,
        dst_port: 0,
        protocol: 0,
        tcp_flags: 0,
        packets: 0,
        octets: 0,
        start_secs: 0,
    };
    let zero_record = FlowRecord::from_ipfix(&zero_flow);

    for w in 0..days {
        let day = Day(first_day + w);
        for s in &mut streams {
            s.restamp(day.0);
        }
        let day_span = tracer.reserve();
        let t_day = tracer.now_ns();

        // wire: Collector::decode_message, message by message.
        let mut flows: Vec<IpfixFlow> = touched(records_per_day as usize, zero_flow);
        sums.span(
            day_span,
            "wire.decode",
            w,
            records_per_day,
            || -> Result<(), String> {
                for (s, c) in streams.iter().zip(&mut collectors) {
                    for m in 0..s.messages() {
                        c.decode_message(s.range(m, m + 1), &mut flows)
                            .map_err(|e| format!("decode own message: {e}"))?;
                    }
                }
                Ok(())
            },
        )?;
        if flows.len() as u64 != records_per_day {
            return Err(format!(
                "walk decoded {} of {records_per_day} records",
                flows.len()
            ));
        }

        // stream: StreamCollector::feed_into over socket-read-sized chunks.
        let mut fed: Vec<IpfixFlow> = touched(records_per_day as usize, zero_flow);
        sums.span(
            day_span,
            "stream.collector_feed",
            w,
            records_per_day,
            || {
                for (e, s) in streams.iter().enumerate() {
                    let name = format!("walk:{e}");
                    for chunk in s.bytes.chunks(CHUNK_BYTES) {
                        stream_collector.feed_into(&name, chunk, &mut fed);
                    }
                }
            },
        );
        if fed != flows {
            return Err("StreamCollector::feed_into and Collector::decode_message disagree".into());
        }
        drop(fed);

        // flow: FlowRecord::from_ipfix.
        let mut records: Vec<FlowRecord> = touched(records_per_day as usize, zero_record);
        sums.span(day_span, "flow.from_ipfix", w, records_per_day, || {
            records.extend(flows.iter().map(FlowRecord::from_ipfix));
        });
        drop(flows);

        // stream: WindowTracker::observe.
        sums.span(day_span, "stream.gate", w, records_per_day, || {
            for r in &records {
                black_box(tracker.observe(r.start));
            }
            black_box(tracker.take_closable());
        });

        // flow: ShardedTrafficStats::ingest per layout. The map fold
        // goes into one part per ingest worker, batches alternating,
        // so the merge below has the parts the daemon's close has.
        let workers = stream_cfg.ingest_threads.max(1);
        let (mut parts, counted) = alloc::counted(|| {
            sums.span(day_span, "flow.fold_map", w, records_per_day, || {
                let mut parts: Vec<ShardedTrafficStats> = (0..workers)
                    .map(|_| {
                        ShardedTrafficStats::with_layout(
                            DEFAULT_SHARDS,
                            DEFAULT_SIZE_THRESHOLD,
                            StatsLayout::Map,
                        )
                    })
                    .collect();
                for (i, batch) in records.chunks(1_024).enumerate() {
                    for r in batch {
                        parts[i % workers].ingest(r);
                    }
                }
                parts
            })
        });
        live_fold_bytes += counted.live;
        sums.span(day_span, "flow.fold_columnar", w, records_per_day, || {
            let mut stats = ShardedTrafficStats::with_layout(
                DEFAULT_SHARDS,
                DEFAULT_SIZE_THRESHOLD,
                StatsLayout::Columnar(Arc::clone(&slots)),
            );
            for r in &records {
                stats.ingest(r);
            }
            black_box(stats.total_flows());
        });

        // types: RibIndex::lookup and Slot24Index::slot_of per record.
        let day_rib = rib_of(day);
        let rib_index = RibIndex::build(&day_rib);
        sums.span(day_span, "types.rib_lookup", w, records_per_day, || {
            for r in &records {
                black_box(rib_index.lookup(r.dst));
            }
        });
        sums.span(day_span, "types.slot_of", w, records_per_day, || {
            for r in &records {
                black_box(slots.slot_of(Block24::containing(r.dst)));
            }
        });

        // core: the single-thread baseline, and the reference digest.
        let serial = sums.span(day_span, "core.pipeline_serial", w, 1, || {
            reference_result(reference, &day_rib, sampling_rate)
        });
        let want = digest_result(&serial);
        let ports = crate::workload::port_histogram(&records);

        // The close steps, one span each, mirroring close_window →
        // WindowScheduler::close_with_ports → the daemon's sink.
        let close_span = tracer.reserve();
        let t_close = tracer.now_ns();
        let merged = sums.span(close_span, "flow.merge_parts", w, 1, || {
            let mut merged = parts.remove(0);
            for p in &parts {
                merged.merge(p);
            }
            merged
        });
        drop(parts);
        dst_blocks += merged.dst_block_count();
        let for_whole_close = merged.clone();
        let window_result = sums.span(close_span, "core.pipeline", w, 1, || {
            engine.run_sharded(
                &merged,
                &day_rib,
                sampling_rate,
                1,
                &pipeline_cfg,
                stream_cfg.pipeline_threads,
            )
        });
        sums.span(close_span, "core.union_rib", w, 1, || {
            for (prefix, &asn) in day_rib.iter() {
                union_rib.insert(prefix, asn);
            }
        });
        let mut window_stats: Option<ShardedTrafficStats> = None;
        sums.span(
            close_span,
            "flow.merge_cumulative",
            w,
            1,
            || match cumulative.take() {
                None => cumulative = Some(merged),
                Some(mut c) => {
                    c.merge(&merged);
                    window_stats = Some(merged);
                    cumulative = Some(c);
                }
            },
        );
        let all = cumulative.as_ref().expect("set above");
        let combined = sums.span(close_span, "core.combine", w, 1, || {
            engine.run_sharded(
                all,
                &union_rib,
                sampling_rate,
                w + 1,
                &pipeline_cfg,
                stream_cfg.pipeline_threads,
            )
        });
        let wd = sums.span(close_span, "store.build", w, 1, || {
            let verdicts = Verdicts::from_result(&window_result, &slots);
            WindowData::build(
                day,
                records_per_day,
                window_stats.as_ref().unwrap_or(all),
                verdicts,
                &ports,
                &slots,
            )
        });
        window_bytes += sums
            .span(close_span, "store.write_window", w, 1, || {
                steps_store.write_window(&wd)
            })
            .map_err(store_err)?;
        sums.span(close_span, "store.apply_window", w, 1, || {
            steps_index.apply_window(&wd, &combined)
        })
        .map_err(store_err)?;
        sums.span(close_span, "store.write_summary", w, 1, || {
            steps_store.write_summary(steps_index.summary())
        })
        .map_err(store_err)?;
        tracer.finish(
            close_span,
            day_span,
            &format!("close[{w}]"),
            t_close,
            tracer.now_ns(),
        );

        // Steps that run inside the calls above, measured apart.
        sums.span(day_span, "store.encode", w, 1, || {
            black_box(wd.encode().len())
        });
        let mut summary = steps_index.summary().clone();
        // Re-merging the same day is refused by the order gate, so the
        // merge is measured on the next day of the same shape.
        let mut next = wd.clone();
        next.day = Day(day.0 + 1);
        sums.span(day_span, "store.summary_merge", w, 1, || {
            summary.merge_window(&next)
        })
        .map_err(store_err)?;
        drop((summary, next));
        let bytes =
            std::fs::read(steps_store.window_path(day)).map_err(|e| format!("read window: {e}"))?;
        let decoded = sums
            .span(day_span, "store.decode", w, 1, || {
                WindowData::decode(&bytes)
            })
            .map_err(store_err)?;
        // The last close step, out of place because the measurements
        // above still needed the window: what the real close frees
        // before it returns.
        let got_sharded = digest_result(&window_result);
        sums.span(day_span, "stream.release", w, 1, || {
            drop((window_stats, window_result, combined, wd))
        });

        // The same day through the real scheduler, as one call.
        let (closed, counted) = alloc::counted(|| {
            sums.span(day_span, "stream.close", w, 1, || {
                scheduler.close_with_ports(day, records_per_day, for_whole_close, &ports)
            })
        });
        close_allocs += counted.allocations;
        if let Some(e) = sink_error.lock().expect("walk sink error").take() {
            return Err(format!("walk sink: {e}"));
        }
        let reread = whole_store.read_window(day).map_err(store_err)?;
        tracer.finish(
            day_span,
            root,
            &format!("walk[{w}]"),
            t_day,
            tracer.now_ns(),
        );

        for (what, got) in [
            ("sharded window result", got_sharded),
            ("decoded window file", digest_window(&decoded, &slots)),
            ("scheduler window result", digest_result(&closed.0.result)),
            ("scheduler-persisted window", digest_window(&reread, &slots)),
        ] {
            if got != want {
                return Err(format!(
                    "layer walk day {}: {what} digest {got:016x} != serial reference {want:016x}",
                    day.0
                ));
            }
        }
    }

    // stream: pool and queue mechanics, and one in-process service run
    // (one lane, the daemon's worker count, no sockets).
    let pool = BatchPool::new(8);
    pool.put(Vec::with_capacity(1_024));
    sums.micro(root, "stream.pool_cycle", MICRO_ITERS, |_| {
        let mut buf = pool.take();
        buf.push(zero_record);
        pool.put(buf);
    });
    let queue: BoundedQueue<Vec<FlowRecord>> =
        BoundedQueue::with_lanes(stream_cfg.queue_capacity, 1, OverflowPolicy::Block);
    sums.micro(root, "stream.queue_handoff", MICRO_ITERS, |_| {
        let _ = black_box(queue.push_lane(0, Vec::new()));
        black_box(queue.pop());
    });
    let inproc_first = first_day + days;
    let inproc_rib = Arc::clone(&rib_of);
    // Lateness beyond the walked days keeps every window open until
    // `finish`, so the pushes time the producer side alone.
    let inproc_cfg = StreamConfig {
        allowed_lateness: SimDuration::secs(u64::from(days + 1) * 86_400),
        ..stream_cfg.clone()
    };
    let (service, mut lanes) = MultiStreamService::start(inproc_cfg, 1, move |d| inproc_rib(d));
    let inproc_records = records_per_day * u64::from(days);
    let mut push_ns = 0u64;
    let mut inproc_s = 0.0;
    let (output, _) = tracer.span(root, "stream.inproc", |span| {
        let t_inproc = Instant::now();
        for w in 0..days {
            for s in &mut streams {
                s.restamp(inproc_first + w);
            }
            let ((), ns) = tracer.span(span, &format!("stream.push_chunk[{w}]"), |_| {
                for (e, s) in streams.iter().enumerate() {
                    let name = format!("walk:{e}");
                    for chunk in s.bytes.chunks(CHUNK_BYTES) {
                        lanes[0].push_chunk(&name, chunk);
                    }
                }
            });
            push_ns += ns;
        }
        while service.health().ingested < inproc_records {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        inproc_s = t_inproc.elapsed().as_secs_f64();
        service.finish(lanes)
    });
    output
        .health
        .check_invariants()
        .map_err(|e| format!("in-process run: {e}"))?;
    for (w, report) in output.windows.iter().enumerate() {
        let want = digest_result(&reference_result(
            reference,
            &rib_of(report.day),
            sampling_rate,
        ));
        if report.records != records_per_day || digest_result(&report.result) != want {
            return Err(format!(
                "in-process run window {w} differs from the serial reference"
            ));
        }
    }

    // store: cold load and the two queries, in process.
    let (loaded, cold_ns) = tracer.span(root, "store.cold_load", |_| {
        QueryIndex::cold_load(&steps_store)
    });
    let (index, _) = loaded.map_err(store_err)?;
    let n_slots = slots.num_slots().max(1);
    sums.micro(root, "store.point", MICRO_ITERS, |i| {
        let slot = mt_types::mix::mix3(u64::from(i), 7, 9) as u32 % n_slots;
        black_box(index.point(slots.block_of(slot).base()));
    });
    sums.micro(root, "store.range", MICRO_ITERS, |i| {
        let from = slots.block_of(mt_types::mix::mix3(u64::from(i), 3, 5) as u32 % n_slots);
        black_box(index.range(Day(first_day), from, Block24(from.0 + 255)));
    });
    let summary_bytes = std::fs::metadata(steps_store.summary_path()).map_or(0, |m| m.len());

    // obs: what reading and bumping the daemon's instruments costs.
    sums.micro(root, "obs.snapshot", MICRO_ITERS, |_| {
        black_box(daemon_registry.snapshot());
    });
    let snapshot = daemon_registry.snapshot();
    sums.micro(root, "obs.render", MICRO_ITERS, |_| {
        black_box(snapshot.render_prometheus_text().len());
    });
    let counter = walk_registry.counter(
        "mt_benchmark_probe_total",
        "Probe for the cost of one increment.",
    );
    sums.micro(root, "obs.counter_inc", MICRO_ITERS * 50, |_| {
        black_box(&counter).inc()
    });
    tracer.finish(root, 0, "layer_walk", t_root, tracer.now_ns());

    let ms = |name: &str| sums.ms_each(name);
    let close_steps: Vec<(&'static str, f64)> = [
        "flow.merge_parts",
        "core.pipeline",
        "core.union_rib",
        "flow.merge_cumulative",
        "core.combine",
        "store.build",
        "store.write_window",
        "store.apply_window",
        "store.write_summary",
        "stream.release",
    ]
    .into_iter()
    .map(|n| (n, ms(n)))
    .collect();
    let steps_ms: f64 = close_steps.iter().map(|s| s.1).sum();
    // What `close[d]` spent outside every step: its self time.
    let spans = tracer.spans();
    let close_self: Vec<f64> = crate::trace::self_times(&spans)
        .into_iter()
        .zip(&spans)
        .filter(|(_, span)| crate::trace::base_name(&span.name) == "close")
        .map(|((_, ns), _)| ns as f64 / 1e6)
        .collect();
    let mut close_steps = close_steps;
    close_steps.push(("close (self time)", crate::stats::median(&close_self)));
    let batches_per_day = (records_per_day as f64 / 1_024.0).max(1.0);
    // One day's blocking path with nothing overlapping: the
    // producer-side layers per record, then the close steps.
    let producer_ms = (sums.per_unit("stream.collector_feed")
        + sums.per_unit("flow.from_ipfix")
        + sums.per_unit("stream.gate")
        + sums.per_unit("flow.fold_map"))
        * records_per_day as f64
        / 1e6
        + (sums.per_unit("stream.queue_handoff") + sums.per_unit("stream.pool_cycle"))
            * batches_per_day
            / 1e6;
    let values = vec![
        ("wire.decode_ns_per_record", sums.per_unit("wire.decode")),
        (
            "stream.collector_feed_ns_per_record",
            sums.per_unit("stream.collector_feed"),
        ),
        ("stream.gate_ns_per_record", sums.per_unit("stream.gate")),
        (
            "stream.queue_handoff_ns_per_batch",
            sums.per_unit("stream.queue_handoff"),
        ),
        ("stream.pool_cycle_ns", sums.per_unit("stream.pool_cycle")),
        (
            "stream.push_chunk_ns_per_record",
            push_ns as f64 / inproc_records as f64,
        ),
        (
            "stream.inproc_flows_per_s",
            inproc_records as f64 / inproc_s,
        ),
        ("stream.close_ms_per_window", ms("stream.close")),
        ("trace.close_steps_ms_per_window", steps_ms),
        (
            "flow.from_ipfix_ns_per_record",
            sums.per_unit("flow.from_ipfix"),
        ),
        (
            "flow.fold_map_ns_per_record",
            sums.per_unit("flow.fold_map"),
        ),
        (
            "flow.fold_columnar_ns_per_record",
            sums.per_unit("flow.fold_columnar"),
        ),
        (
            "flow.merge_ms_per_window",
            ms("flow.merge_parts") + ms("flow.merge_cumulative"),
        ),
        (
            "flow.bytes_per_block",
            live_fold_bytes.max(0) as f64 / dst_blocks.max(1) as f64,
        ),
        ("core.pipeline_ms_per_window", ms("core.pipeline")),
        (
            "core.pipeline_serial_ms_per_window",
            ms("core.pipeline_serial"),
        ),
        (
            "core.combine_ms_per_window",
            ms("core.union_rib") + ms("core.combine"),
        ),
        ("store.build_ms_per_window", ms("store.build")),
        ("store.encode_ms_per_window", ms("store.encode")),
        ("store.write_window_ms", ms("store.write_window")),
        ("store.summary_merge_ms", ms("store.summary_merge")),
        ("store.write_summary_ms", ms("store.write_summary")),
        ("store.apply_window_ms", ms("store.apply_window")),
        ("store.decode_ms_per_window", ms("store.decode")),
        ("store.cold_load_ms", cold_ns as f64 / 1e6),
        ("store.point_ns", sums.per_unit("store.point")),
        ("store.range_us", sums.per_unit("store.range") / 1e3),
        (
            "store.window_bytes",
            window_bytes as f64 / f64::from(days.max(1)),
        ),
        ("store.summary_bytes", summary_bytes as f64),
        (
            "store.bytes_per_record",
            window_bytes as f64 / (records_per_day * u64::from(days.max(1))) as f64,
        ),
        ("obs.snapshot_us", sums.per_unit("obs.snapshot") / 1e3),
        ("obs.render_us", sums.per_unit("obs.render") / 1e3),
        ("obs.counter_inc_ns", sums.per_unit("obs.counter_inc")),
        ("types.rib_lookup_ns", sums.per_unit("types.rib_lookup")),
        ("types.slot_of_ns", sums.per_unit("types.slot_of")),
        (
            "alloc.count_per_window_close",
            close_allocs as f64 / f64::from(days.max(1)),
        ),
        (
            "trace.producer_share",
            producer_ms / (producer_ms + steps_ms),
        ),
        ("trace.close_share", steps_ms / (producer_ms + steps_ms)),
    ];
    let _ = std::fs::remove_dir_all(dir);
    Ok(Walked {
        values,
        close_steps,
    })
}
