//! Order statistics and failure accounting shared by every workload.

/// Nearest-rank percentile `p` (in `(0, 100]`) of the ascending slice
/// `sorted`, with the number of samples ranked strictly beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail latency the benchmark reports, with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// 99, 95 or 90.
    pub percentile: u32,
    /// Samples ranked beyond `value`.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99, p95 and p90 that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than 100 samples
/// no candidate qualifies and p90 is reported; `beyond` then shows the
/// shortfall.
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mut last = None;
    for p in [99u32, 95, 90] {
        let (value, beyond) = percentile(&v, p as f64);
        let t = Tail {
            value,
            percentile: p,
            beyond,
            samples: v.len(),
        };
        if beyond >= TAIL_MIN_BEYOND {
            return t;
        }
        last = Some(t);
    }
    last.expect("three candidates were tried")
}

/// Requests attempted and failed. A failed request is an `ERR` reply,
/// a refusal, a transport error or a reply the correctness gate
/// rejected; each one counts against the requests attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent (or library calls made).
    pub attempted: u64,
    /// Requests that did not produce a correct reply.
    pub failed: u64,
}

impl Tally {
    /// Count one request and whether it produced a correct reply.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), (5.0, 5));
        assert_eq!(percentile(&v, 90.0), (9.0, 1));
        assert_eq!(percentile(&v, 100.0), (10.0, 0));
        assert_eq!(percentile(&v, 1.0), (1.0, 9));
    }

    #[test]
    fn tail_uses_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_falls_back_to_p95_then_p90() {
        // 999 samples: p99 is rank 990, leaving 9 beyond.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.beyond), (95, 49));
        // 200 samples: p99 leaves 2, p95 leaves exactly 10.
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.value, t.beyond), (95, 190.0, 10));
        // 100 samples: only p90 leaves 10.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
    }

    #[test]
    fn tail_below_one_hundred_samples_reports_the_shortfall() {
        let t = tail(&ramp(50));
        assert_eq!(t.percentile, 90);
        assert!(t.beyond < TAIL_MIN_BEYOND);
        assert_eq!(t.beyond, 5);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn failures_count_against_attempted() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_ratio(), 0.25);
        // A refusal from another connection is one more attempt, not a
        // discarded sample.
        let mut refused = Tally::default();
        refused.record(false);
        t.absorb(refused);
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(t.error_ratio(), 0.4);
        assert_eq!(Tally::default().error_ratio(), 0.0);
    }
}
