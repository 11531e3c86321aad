//! The window scheduler: per-window pipeline runs and the incremental
//! multi-day combination.
//!
//! When a window closes, the scheduler runs
//! [`PipelineEngine::run_sharded`] over the window's accumulated stats
//! against that day's RIB, and folds the window into the running
//! multi-day state exactly the way `mt_core::combine` defines it:
//! traffic stats merge shard-wise (counters add, host sets union) and
//! the RIB is the *union* of every day's snapshot in the span (a prefix
//! routed on any day of the window counts as routed — step 5 must only
//! reject never-routed space). Both are maintained incrementally, so
//! after each window close the combined K-of-N result is refreshed with
//! one `run_sharded` instead of re-merging the whole history.
//!
//! RIB snapshots come from a caller-supplied provider closure — the
//! scheduler does not depend on `mt-netmodel`; in production the
//! provider would read the day's BGP table dump.

use mt_core::pipeline::{PipelineConfig, PipelineResult};
use mt_core::PipelineEngine;
use mt_flow::ShardedTrafficStats;
use mt_types::{Asn, Day, PrefixTrie};

/// Pipeline parameters shared by every window run.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// The exporters' packet sampling rate (volume scaling).
    pub sampling_rate: u32,
    /// Pipeline thresholds.
    pub pipeline: PipelineConfig,
    /// Worker threads for each `run_sharded` call.
    pub threads: usize,
}

/// One closed window's pipeline output.
#[derive(Debug)]
pub struct WindowReport {
    /// The window's day.
    pub day: Day,
    /// Records ingested into the window.
    pub records: u64,
    /// The single-day pipeline result.
    pub result: PipelineResult,
}

/// The multi-day combined output after a window close.
#[derive(Debug)]
pub struct CombinedReport {
    /// First day of the combined span.
    pub first: Day,
    /// Calendar length of the span in days (gap days included — the
    /// volume cap scales with elapsed time, not with data density).
    pub days: u32,
    /// The combined pipeline result.
    pub result: PipelineResult,
}

/// Everything a window sink sees when one day window closes: the
/// window's own stats, ports, and pipeline result, plus the refreshed
/// multi-day combination. Borrowed — persist what you need and return.
#[derive(Debug)]
pub struct ClosedWindow<'a> {
    /// The window's day.
    pub day: Day,
    /// Records ingested into the window.
    pub records: u64,
    /// The window's accumulated traffic stats.
    pub stats: &'a ShardedTrafficStats,
    /// The window's destination-port histogram, sorted by port.
    pub ports: &'a [(u16, u64)],
    /// The single-day pipeline result.
    pub window: &'a PipelineResult,
    /// The refreshed multi-day combined result.
    pub combined: &'a PipelineResult,
    /// First day of the combined span.
    pub first_day: Day,
    /// Calendar length of the combined span in days.
    pub span_days: u32,
    /// True when the run's end closed the window — `finish` flushing a
    /// day the watermark had not yet passed — rather than the watermark.
    pub forced: bool,
}

/// Observer invoked after every window close — how the results store
/// persists windows without the scheduler depending on mt-store.
pub type WindowSink = Box<dyn FnMut(ClosedWindow<'_>) + Send>;

/// Runs the pipeline per closed window and maintains the incremental
/// multi-day combination.
pub struct WindowScheduler<F> {
    rib_of: F,
    engine: PipelineEngine,
    cfg: SchedulerConfig,
    cumulative: Option<ShardedTrafficStats>,
    union_rib: PrefixTrie<Asn>,
    first_day: Option<Day>,
    last_day: Option<Day>,
    /// Next day whose RIB snapshot must be folded into the union.
    next_rib_day: Day,
    sink: Option<WindowSink>,
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> WindowScheduler<F> {
    /// Creates a scheduler over a per-day RIB provider.
    pub fn new(rib_of: F, cfg: SchedulerConfig) -> Self {
        assert!(cfg.threads >= 1);
        WindowScheduler {
            rib_of,
            engine: PipelineEngine::standard(),
            cfg,
            cumulative: None,
            union_rib: PrefixTrie::new(),
            first_day: None,
            last_day: None,
            next_rib_day: Day(0),
            sink: None,
        }
    }

    /// Continues the multi-day combination from state an earlier run
    /// persisted: `cumulative` holds the merged stats of every window in
    /// `first..=last`. The union RIB is refolded from `first` at the
    /// next close, and later windows must close after `last`.
    pub fn resume(&mut self, cumulative: ShardedTrafficStats, first: Day, last: Day) {
        assert!(self.last_day.is_none(), "resume precedes the first close");
        self.cumulative = Some(cumulative);
        self.first_day = Some(first);
        self.last_day = Some(last);
        self.next_rib_day = first;
    }

    /// Installs an observer invoked after every window close with the
    /// window's stats, ports, and both pipeline results.
    pub fn set_sink(&mut self, sink: WindowSink) {
        self.sink = Some(sink);
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Attaches a metrics registry to the scheduler's pipeline engine:
    /// every window-close and combined run publishes `mt_pipeline_*`
    /// funnel counters and timing histograms into it.
    pub fn with_registry(mut self, registry: &mt_obs::MetricsRegistry) -> Self {
        self.engine = PipelineEngine::standard().with_registry(registry);
        self
    }

    /// Closes the window of `day` with its accumulated stats, returning
    /// the per-window report and the refreshed combined report. `ports`
    /// is the window's destination-port histogram, passed through to
    /// the sink (the scheduler itself never reads it).
    ///
    /// Windows must close in ascending day order (the watermark
    /// guarantees this upstream).
    pub fn close_with_ports(
        &mut self,
        day: Day,
        records: u64,
        stats: ShardedTrafficStats,
        ports: &[(u16, u64)],
    ) -> (WindowReport, CombinedReport) {
        self.close(day, records, stats, ports, false)
    }

    /// [`close_with_ports`](Self::close_with_ports), telling the sink
    /// whether the close was forced ([`ClosedWindow::forced`]).
    pub(crate) fn close(
        &mut self,
        day: Day,
        records: u64,
        stats: ShardedTrafficStats,
        ports: &[(u16, u64)],
        forced: bool,
    ) -> (WindowReport, CombinedReport) {
        if let Some(last) = self.last_day {
            assert!(day > last, "windows must close in ascending day order");
        }
        self.last_day = Some(day);
        let day_rib = (self.rib_of)(day);
        let window_result = self.engine.run_sharded(
            &stats,
            &day_rib,
            self.cfg.sampling_rate,
            1,
            &self.cfg.pipeline,
            self.cfg.threads,
        );

        // Fold the window into the running combination. The union RIB
        // covers every calendar day of the span, including days that
        // produced no window (their space may still have been routed).
        let first = match self.first_day {
            Some(f) => f,
            None => {
                self.first_day = Some(day);
                self.next_rib_day = day;
                day
            }
        };
        while self.next_rib_day <= day {
            if self.next_rib_day == day {
                for (prefix, &asn) in day_rib.iter() {
                    self.union_rib.insert(prefix, asn);
                }
            } else {
                for (prefix, &asn) in (self.rib_of)(self.next_rib_day).iter() {
                    self.union_rib.insert(prefix, asn);
                }
            }
            self.next_rib_day = self.next_rib_day.next();
        }
        // The first window's stats *become* the cumulative state; later
        // windows keep theirs alive past the merge so the sink can
        // still see the window in isolation.
        let mut window_stats: Option<ShardedTrafficStats> = None;
        let cumulative = match self.cumulative.take() {
            None => self.cumulative.insert(stats),
            Some(mut c) => {
                c.merge(&stats);
                window_stats = Some(stats);
                self.cumulative.insert(c)
            }
        };
        let span_days = day.0 - first.0 + 1;
        let combined_result = self.engine.run_sharded(
            cumulative,
            &self.union_rib,
            self.cfg.sampling_rate,
            span_days,
            &self.cfg.pipeline,
            self.cfg.threads,
        );

        if let Some(sink) = &mut self.sink {
            sink(ClosedWindow {
                day,
                records,
                stats: window_stats.as_ref().unwrap_or(cumulative),
                ports,
                window: &window_result,
                combined: &combined_result,
                first_day: first,
                span_days,
                forced,
            });
        }

        (
            WindowReport {
                day,
                records,
                result: window_result,
            },
            CombinedReport {
                first,
                days: span_days,
                result: combined_result,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_flow::FlowRecord;
    use mt_types::{Ipv4, Prefix};

    fn flow(day: Day, dst: u32, packets: u64) -> FlowRecord {
        FlowRecord {
            start: day.start() + mt_types::SimDuration::secs(10),
            src: Ipv4::new(9, 9, 9, 9),
            dst: Ipv4(dst),
            src_port: 40_000,
            dst_port: 23,
            protocol: 6,
            tcp_flags: 2,
            packets,
            octets: packets * 40,
        }
    }

    fn rib(prefixes: &[&str]) -> PrefixTrie<Asn> {
        prefixes
            .iter()
            .map(|p| (p.parse::<Prefix>().unwrap(), Asn(65_000)))
            .collect()
    }

    fn cfg() -> SchedulerConfig {
        SchedulerConfig {
            sampling_rate: 1,
            pipeline: PipelineConfig::default(),
            threads: 2,
        }
    }

    fn day_stats(records: &[FlowRecord]) -> ShardedTrafficStats {
        ShardedTrafficStats::from_records(8, records)
    }

    #[test]
    fn per_window_results_use_the_days_rib() {
        // 20/8 routed only on day 0, 21/8 only on day 1.
        let mut s = WindowScheduler::new(
            |d| {
                if d == Day(0) {
                    rib(&["20.0.0.0/8"])
                } else {
                    rib(&["21.0.0.0/8"])
                }
            },
            cfg(),
        );
        let (w0, _) =
            s.close_with_ports(Day(0), 1, day_stats(&[flow(Day(0), 0x1401_0101, 5)]), &[]);
        assert_eq!(w0.result.dark.len(), 1, "20/8 routed on its day");
        let (w1, c1) =
            s.close_with_ports(Day(1), 1, day_stats(&[flow(Day(1), 0x1501_0101, 5)]), &[]);
        assert_eq!(w1.result.dark.len(), 1, "21/8 routed on its day");
        // Combined: union RIB covers both, both blocks dark over 2 days.
        assert_eq!(c1.days, 2);
        assert_eq!(c1.result.dark.len(), 2);
    }

    #[test]
    fn combined_matches_batch_recombination() {
        let ribs = |_d: Day| rib(&["20.0.0.0/8"]);
        let mut s = WindowScheduler::new(ribs, cfg());
        let day0: Vec<FlowRecord> = (0..30)
            .map(|i| flow(Day(0), 0x1400_0100 + i * 256, 2))
            .collect();
        let day2: Vec<FlowRecord> = (0..30)
            .map(|i| flow(Day(2), 0x1400_4100 + i * 256, 3))
            .collect();
        s.close_with_ports(Day(0), day0.len() as u64, day_stats(&day0), &[]);
        // Day 1 has no window (a gap); the span still counts it.
        let (_, combined) = s.close_with_ports(Day(2), day2.len() as u64, day_stats(&day2), &[]);
        assert_eq!(combined.days, 3, "calendar span includes the gap day");

        let mut all = day0.clone();
        all.extend(day2.iter().cloned());
        let batch_stats = ShardedTrafficStats::from_records(8, &all);
        let batch = PipelineEngine::standard().run_sharded(
            &batch_stats,
            &rib(&["20.0.0.0/8"]),
            1,
            3,
            &PipelineConfig::default(),
            2,
        );
        assert_eq!(combined.result.dark, batch.dark);
        assert_eq!(combined.result.unclean, batch.unclean);
        assert_eq!(combined.result.gray, batch.gray);
        assert_eq!(combined.result.funnel, batch.funnel);
    }

    #[test]
    #[should_panic(expected = "ascending day order")]
    fn out_of_order_close_is_rejected() {
        let mut s = WindowScheduler::new(|_| rib(&["20.0.0.0/8"]), cfg());
        s.close_with_ports(Day(3), 1, day_stats(&[flow(Day(3), 0x1401_0101, 5)]), &[]);
        s.close_with_ports(Day(1), 1, day_stats(&[flow(Day(1), 0x1401_0101, 5)]), &[]);
    }
}
