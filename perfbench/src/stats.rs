//! Order statistics and failure counting for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(xs, n=4)` (its default
//! "exclusive" method), so a spread computed here matches one computed
//! from the printed values.

/// `xs` sorted ascending.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean; 0 when `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// The three cut points of `statistics.quantiles(xs, n=4)`: first
/// quartile, median and third quartile. One sample is its own quartiles;
/// `NaN` when `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..=3i64).zip(out.iter_mut()) {
        // Exact integer rescaling, clamped to 1..len-1 as Python does.
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Percentiles the tail rule chooses from, in hundredths of a percent,
/// highest first.
const TAIL_PERCENTILES: [u64; 7] = [9999, 9990, 9900, 9500, 9000, 7500, 5000];

/// The tail of a latency sample: the highest percentile in
/// [`TAIL_PERCENTILES`] that has at least ten samples beyond it, with its
/// nearest-rank value — p99 from 1000 samples on. Below twenty samples no
/// percentile qualifies, and the maximum is returned as percentile 100.
/// Returns `(percentile, value)`; the value is `NaN` when `xs` is empty.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len() as u64;
    for p in TAIL_PERCENTILES {
        let rank = (p * n).div_ceil(10_000);
        if rank >= 1 && n - rank >= 10 {
            return (p as f64 / 100.0, v[rank as usize - 1]);
        }
    }
    (100.0, v.last().copied().unwrap_or(f64::NAN))
}

/// `num / den`, or 0 when nothing was counted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation, as failed unless `ok`; `why` describes the
    /// failure for the log. Returns `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
        ok
    }

    /// Counts one operation that produced `result`: an error is a failure,
    /// logged after `what`. Returns the value of a success.
    pub fn check_result<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Failed operations as a share of attempted ones.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u32) -> Vec<f64> {
        // Reversed, so every function has to sort.
        (1..=n).rev().map(f64::from).collect()
    }

    #[test]
    fn median_and_mean_of_odd_and_even_samples() {
        assert_eq!(median(&one_to(5)), 3.0);
        assert_eq!(median(&one_to(4)), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&one_to(4)), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(xs, n=4)`.
        assert_eq!(quartiles(&one_to(10)), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&one_to(5)), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        let xs = [8.0, 1.0, 3.0, 6.0, 3.0, 4.0, 5.0, 6.0, 8.0, 7.0];
        assert_eq!(quartiles(&xs), [3.0, 5.5, 7.25]);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly ten beyond it.
        assert_eq!(tail(&one_to(1000)), (99.0, 990.0));
        // 999 samples leave only nine beyond p99, so p95 (rank 950).
        assert_eq!(tail(&one_to(999)), (95.0, 950.0));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&one_to(10_000)), (99.9, 9990.0));
        // 20 samples: p50 is rank 10, ten beyond.
        assert_eq!(tail(&one_to(20)), (50.0, 10.0));
        // Fewer than twenty: no percentile qualifies, the maximum stands in.
        assert_eq!(tail(&one_to(19)), (100.0, 19.0));
        assert_eq!(tail(&[2.5]), (100.0, 2.5));
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!("no message for a pass")));
        assert!(!t.check(false, || "wrong verdict".into()));
        assert_eq!(t.check_result("call 2", Ok::<_, String>(7)), Some(7));
        assert_eq!(
            t.check_result::<u8>("call 3", Err("no answer".into())),
            None
        );
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failures, ["wrong verdict", "call 3: no answer"]);
        assert_eq!(t.failed_frac(), 0.5);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
