//! Small numeric and `/proc` helpers shared by the benchmark's files.

/// Median of `values` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` of `sorted` (nearest rank, `q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// `(utime, stime)` in clock ticks from a `/proc/.../stat` file
/// (fields 14 and 15; the comm field may contain spaces, so parsing
/// starts after its closing parenthesis).
fn stat_ticks(path: &str) -> (u64, u64) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (next(), next())
}

/// Linux reports process times in units of `USER_HZ`, which is 100 on
/// every supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds: of the whole process, or of the
/// calling thread only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// Seconds in user mode.
    pub user: f64,
    /// Seconds in kernel mode.
    pub sys: f64,
}

impl Cpu {
    /// CPU used so far by every thread of the process, dead ones too.
    pub fn process() -> Cpu {
        Cpu::from_ticks(stat_ticks("/proc/self/stat"))
    }

    /// CPU used so far by the calling thread.
    pub fn thread() -> Cpu {
        Cpu::from_ticks(stat_ticks("/proc/thread-self/stat"))
    }

    fn from_ticks((u, s): (u64, u64)) -> Cpu {
        Cpu {
            user: u as f64 / TICKS_PER_SEC,
            sys: s as f64 / TICKS_PER_SEC,
        }
    }

    /// `self - earlier`, field-wise.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    /// `self + other`, field-wise.
    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            user: self.user + other.user,
            sys: self.sys + other.sys,
        }
    }

    /// User plus system seconds.
    pub fn total(self) -> f64 {
        self.user + self.sys
    }
}

/// Seconds of CPU the hypervisor gave to other guests so far, summed
/// over this machine's CPUs (`steal` in `/proc/stat`).
pub fn steal_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_SEC)
}

/// The process's peak resident set size so far in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn medians_and_ranks() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50.0);
        assert_eq!(quantile_sorted(&s, 0.99), 99.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        // Burn CPU until the 10 ms tick counter must have moved.
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(100) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        assert!(Cpu::thread().total() > 0.0);
        assert!(Cpu::process().total() >= Cpu::thread().total());
    }
}
