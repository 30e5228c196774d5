//! Sample summaries and process facts.

use std::time::{Duration, Instant};

/// Quantile `q` of ascending `sorted` samples, linearly interpolated
/// between ranks (the "inclusive" method of Python's
/// `statistics.quantiles`); NaN when there are none.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(mut values: Vec<f64>) -> Summary {
        values.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&values, 0.5),
            q1: quantile(&values, 0.25),
            q3: quantile(&values, 0.75),
            n: values.len(),
        }
    }

    /// A single observation (no spread).
    pub fn one(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Latency samples in ns, queried for quantiles in µs.
pub struct Latencies {
    sorted_us: Vec<f64>,
}

impl Latencies {
    pub fn new(ns: &[u64]) -> Latencies {
        let mut sorted_us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
        sorted_us.sort_by(f64::total_cmp);
        Latencies { sorted_us }
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.sorted_us, q)
    }
}

/// Latency samples kept per phase.
pub const RESERVOIR: usize = 1 << 16;

/// A uniform sample of at most `cap` values (Vitter's Algorithm R), so
/// memory stays the same however many values arrive.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: crate::gen::Rng,
    samples: Vec<u64>,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            rng: crate::gen::Rng::new(seed),
            samples: Vec::with_capacity(cap),
        }
    }

    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.samples[j] = v;
            }
        }
    }

    pub fn into_vec(self) -> Vec<u64> {
        self.samples
    }
}

/// Completions counted in consecutive windows of the measured interval.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    start_ns: u64,
    end_ns: u64,
    width_ns: u64,
    counts: Vec<u64>,
}

impl Windows {
    pub fn new(start_ns: u64, end_ns: u64, width: Duration) -> Windows {
        let width_ns = width.as_nanos() as u64;
        let n = (end_ns.saturating_sub(start_ns) / width_ns).max(1) as usize;
        Windows {
            start_ns,
            end_ns,
            width_ns,
            counts: vec![0; n],
        }
    }

    /// Count one completion at `t_ns`; outside the interval it is ignored.
    pub fn add(&mut self, t_ns: u64) {
        if t_ns >= self.start_ns && t_ns < self.end_ns {
            if let Some(c) = self
                .counts
                .get_mut(((t_ns - self.start_ns) / self.width_ns) as usize)
            {
                *c += 1;
            }
        }
    }

    /// Completions per second over the whole interval.
    pub fn rate(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        total as f64 * 1e9 / (self.counts.len() as u64 * self.width_ns) as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Nanoseconds since a fixed start, shared by the threads of one run.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Median over `rounds` of the mean ns per item of `body`, which
/// processes `items` items per call. Each round repeats `body` until it
/// has run for at least `min_round`.
pub fn time_per_item(
    rounds: usize,
    min_round: Duration,
    items: usize,
    mut body: impl FnMut(),
) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed() < min_round || calls == 0 {
                body();
                calls += 1;
            }
            t.elapsed().as_nanos() as f64 / (calls as f64 * items as f64)
        })
        .collect();
    Summary::of(per_round).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_inclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4, method="inclusive") == [2, 3, 4]
        let s = Summary::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn reservoirs_keep_at_most_cap_values_from_the_stream() {
        let mut r = Reservoir::new(100, 1);
        for v in 0..10_000 {
            r.push(v);
        }
        let kept = r.into_vec();
        assert_eq!(kept.len(), 100);
        assert!(kept.iter().all(|&v| v < 10_000));
        // A uniform sample of 0..10000 has its median near 5000.
        let median = Summary::of(kept.iter().map(|&v| v as f64).collect()).median;
        assert!((3_000.0..7_000.0).contains(&median), "{median}");
    }

    #[test]
    fn windows_count_per_second() {
        let mut w = Windows::new(0, 1_000_000_000, Duration::from_millis(500));
        for i in 0..100 {
            w.add(i * 10_000_000); // 100/s for 1 s
        }
        w.add(1_000_000_000);
        assert_eq!(w.rate(), 100.0);
    }
}
