//! The estimator: a preallocated log-linear histogram and the
//! median-over-slices summary every reported timing goes through.
//!
//! It is part of the benchmark's definition (README.md, "Estimator"):
//! a whole-run p99 moves with every disturbance of the host, the median
//! of per-slice p99 only with one that lasts half the run.

/// Sub-buckets per power of two. 128 gives a bucket width of 1/128 of
/// its floor, so reporting the midpoint is off by at most 0.4 %.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) share the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

/// Log-linear histogram of nanosecond values: exact below 128, then
/// 128 equal buckets per octave. `record` never allocates.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        if exp >= MAX_EXP {
            return BUCKETS - 1;
        }
        let sub = (v >> (exp - SUB_BITS)) - SUB;
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Midpoint of bucket `i`.
    fn value_of(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let exp = i / SUB - 1 + SUB_BITS as u64;
        let width = 1u64 << (exp - SUB_BITS as u64);
        let floor = (SUB + i % SUB) * width;
        floor as f64 + (width - 1) as f64 / 2.0
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Hist::bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The value at quantile `q` in `[0, 1]` (nearest-rank); `None` when
    /// nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Some(Hist::value_of(i));
            }
        }
        Some(Hist::value_of(BUCKETS - 1))
    }
}

/// A metric's readings over the slices of one run. The reported value
/// is the median: whatever the program does recurs in every slice, and a
/// disturbance has to hit half of them to move it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// `None` when there is nothing to summarise.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        // Linear interpolation between order statistics.
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Some(Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: v.len(),
        })
    }
}

/// Number of slices a measured run is cut into; even slices measure
/// rate, odd slices measure per-event latency.
pub const SLICES: usize = 80;

/// Per-slice readings of one measured run.
#[derive(Default)]
pub struct SliceLog {
    /// Events per second of each rate slice.
    pub rate: Vec<f64>,
    /// p50 / p99 / p99.9 (ns) of each latency slice.
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    pub p999: Vec<f64>,
}

impl SliceLog {
    pub fn push_rate(&mut self, events: u64, elapsed_ns: u64) {
        self.rate
            .push(events as f64 * 1e9 / elapsed_ns.max(1) as f64);
    }

    /// Folds one latency slice's histogram into the log and clears it.
    pub fn push_latency(&mut self, h: &mut Hist) {
        for (log, q) in [
            (&mut self.p50, 0.50),
            (&mut self.p99, 0.99),
            (&mut self.p999, 0.999),
        ] {
            log.extend(h.quantile(q));
        }
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkd_testkit::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn histogram_percentiles_within_one_percent_of_sorted_vector() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = Hist::new();
        // Log-uniform over 50 ns .. 50 ms: every octave the bench sees.
        let mut v: Vec<u64> = (0..200_000)
            .map(|_| (50.0 * 1e6f64.powf(rng.gen::<f64>())) as u64)
            .collect();
        for &x in &v {
            h.record(x);
        }
        v.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
            let exact = v[rank - 1] as f64;
            let got = h.quantile(q).expect("not empty");
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "q={q}: hist {got} vs sorted {exact}"
            );
        }
    }

    #[test]
    fn histogram_is_exact_for_small_values_and_saturates() {
        let mut h = Hist::new();
        for x in [0, 1, 5, 127] {
            h.record(x);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(127.0));
        h.reset();
        assert_eq!(h.quantile(0.5), None);
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        // The last bucket is the top one of the octave below 2^40.
        assert!(h.quantile(0.5).expect("one sample") > (1u64 << 39) as f64);
    }

    #[test]
    fn slice_median_ignores_disturbed_slices() {
        // 40 rate slices at 1e6 events/s, a quarter of them halved by a
        // noisy neighbour: the estimate does not move, the mean would.
        let mut log = SliceLog::default();
        for i in 0..40u64 {
            let ns = if i % 4 == 3 { 2_000_000 } else { 1_000_000 };
            log.push_rate(1_000, ns);
        }
        let s = Summary::of(&log.rate).expect("40 slices");
        assert_eq!((s.median, s.q3, s.n), (1e6, 1e6, 40));
    }

    #[test]
    fn summary_interpolates_quartiles_and_has_none_for_no_slices() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("11 values");
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!(Summary::of(&[]), None);
    }
}
