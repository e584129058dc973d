//! Wall-clock measurement helpers for the efficiency experiments
//! (Figures 12–14).
//!
//! The paper times only the compression step ("we load and compress
//! trajectories one by one, and only count the running time of the
//! compressing process") and reports the average of three runs.  On runs
//! of a few milliseconds that average moves with whatever else the host
//! does, so [`measure`] runs the work once untimed (a warm-up that also
//! hands back its result), keeps every timed repetition after it, and
//! [`Measurement`] reports their median and interquartile range.

use std::time::{Duration, Instant};

/// Every timed repetition of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The wall-clock time of each repetition, fastest first; never empty.
    pub(crate) runs: Vec<Duration>,
}

impl Measurement {
    /// The `q`-quantile of the runs in seconds, interpolated linearly
    /// between the two nearest ranks.
    fn quantile_secs(&self, q: f64) -> f64 {
        let position = q * (self.runs.len() - 1) as f64;
        let (low, high) = (position.floor() as usize, position.ceil() as usize);
        let (a, b) = (self.runs[low].as_secs_f64(), self.runs[high].as_secs_f64());
        a + (b - a) * (position - low as f64)
    }

    /// Median time in milliseconds.
    pub fn median_millis(&self) -> f64 {
        self.quantile_secs(0.5) * 1e3
    }

    /// Interquartile range (third quartile minus first) in milliseconds.
    pub fn iqr_millis(&self) -> f64 {
        (self.quantile_secs(0.75) - self.quantile_secs(0.25)) * 1e3
    }

    /// Throughput in "work units" per second of median time for `units`
    /// units of work per repetition (typically data points).
    pub fn throughput(&self, units: usize) -> f64 {
        let secs = self.quantile_secs(0.5);
        if secs == 0.0 {
            f64::INFINITY
        } else {
            units as f64 / secs
        }
    }
}

/// Runs `work` once untimed, then `repetitions` timed times (at least
/// one), and returns the warm-up's result with the timings.  Each timed
/// result goes through `std::hint::black_box` so the optimizer cannot
/// elide the work.
pub fn measure<T>(repetitions: u32, mut work: impl FnMut() -> T) -> (T, Measurement) {
    let warm = work();
    let mut runs: Vec<Duration> = (0..repetitions.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(work());
            start.elapsed()
        })
        .collect();
    runs.sort_unstable();
    (warm, Measurement { runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_work_after_a_warm_up() {
        let mut calls = 0;
        let (warm, m) = measure(3, || {
            calls += 1;
            let mut acc = 0u64;
            for i in 0..50_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(calls, 4, "one warm-up and three timed runs");
        assert_eq!(
            warm,
            (0..50_000u64).fold(0u64, |a, i| a.wrapping_add(i * i))
        );
        assert_eq!(m.runs.len(), 3);
        assert!(m.runs.windows(2).all(|w| w[0] <= w[1]));
        assert!(m.median_millis() > 0.0);
        assert!(m.iqr_millis() >= 0.0);
    }

    #[test]
    fn zero_repetitions_clamped_to_one() {
        let (_, m) = measure(0, || 42);
        assert_eq!(m.runs.len(), 1);
        assert_eq!(m.iqr_millis(), 0.0);
    }

    #[test]
    fn median_iqr_and_throughput() {
        let m = Measurement {
            runs: [10, 20, 30, 40, 100].map(Duration::from_millis).to_vec(),
        };
        assert!((m.median_millis() - 30.0).abs() < 1e-9);
        // Quartiles at ranks 1 and 3 of 0..4: 20 ms and 40 ms.
        assert!((m.iqr_millis() - 20.0).abs() < 1e-9);
        assert!((m.throughput(3000) - 100_000.0).abs() < 1e-6);
        let even = Measurement {
            runs: [10, 20].map(Duration::from_millis).to_vec(),
        };
        assert!((even.median_millis() - 15.0).abs() < 1e-9);
        let zero = Measurement {
            runs: vec![Duration::ZERO],
        };
        assert!(zero.throughput(10).is_infinite());
    }
}
