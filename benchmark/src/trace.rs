//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around the
//! calls into each crate's public functions; they are held in memory
//! and written out when the run ends. A span has a name, a start, an
//! end and the span that caused it (`parent`, 0 for a root).

use serde::Serialize;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Identifier, unique within the run (1-based).
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// `layer.call`, with a `[day]` suffix where it repeats per day.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// `t` as nanoseconds since the epoch.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves an id, so children can name their parent before the
    /// parent's end is known.
    pub fn reserve(&self) -> u32 {
        // ordering: Relaxed — the id only needs to be unique.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn finish(&self, id: u32, parent: u32, name: &str, start_ns: u64, end_ns: u64) {
        self.spans
            .lock()
            .expect("tracer lock: a recording thread panicked")
            .push(Span {
                id,
                parent,
                name: name.to_owned(),
                start_ns,
                end_ns,
            });
    }

    /// Records a finished span with a fresh id.
    pub fn record(&self, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.reserve();
        self.finish(id, parent, name, start_ns, end_ns);
        id
    }

    /// Times `f` as a span; `f` receives the span's id for children.
    /// Returns `f`'s result and the span's duration in nanoseconds.
    pub fn span<T>(&self, parent: u32, name: &str, f: impl FnOnce(u32) -> T) -> (T, u64) {
        let id = self.reserve();
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        self.finish(id, parent, name, start, end);
        (out, end - start)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer lock: a recording thread panicked")
            .clone()
    }
}

/// `name` without its `[day]` suffix.
pub fn base_name(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

/// Self time of each span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<(u32, u64)> {
    let mut child_ns = std::collections::HashMap::<u32, u64>::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            (
                s.id,
                dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::new();
        let root = t.reserve();
        let a = t.record(root, "a[0]", 10, 40);
        t.record(a, "b", 15, 25);
        t.finish(root, 0, "run", 0, 100);
        let spans = t.spans();
        let selfs: std::collections::HashMap<u32, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&root], 70);
        assert_eq!(selfs[&a], 20);
        assert_eq!(base_name("a[0]"), "a");
        let ((), ns) = t.span(0, "timed", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(ns >= 2_000_000);
    }
}
