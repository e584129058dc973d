//! Exact statistics over raw samples: percentiles that carry their sample
//! count, ratios that carry their base, and paired differences.
//!
//! Percentiles are read off the sorted samples by nearest rank, never off
//! histogram buckets, and a percentile is only reported when at least
//! [`MIN_TAIL`] samples lie beyond it.

use std::collections::HashMap;
use std::fmt;

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A percentile together with the number of samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was computed over.
    pub count: usize,
}

/// Raw samples, sorted once so several percentiles can be read off them.
#[derive(Debug, Clone, Default)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The `q`-quantile (`0 < q < 1`) by nearest rank.
    ///
    /// # Errors
    ///
    /// When fewer than [`MIN_TAIL`] samples lie beyond the rank: such a
    /// percentile would rest on a handful of outliers and is refused.
    pub fn quantile(&self, q: f64) -> Result<Quantile, String> {
        let n = self.0.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < MIN_TAIL {
            return Err(format!(
                "p{} needs at least {MIN_TAIL} samples beyond it, but only {} of {n} are",
                q * 100.0,
                n.saturating_sub(rank)
            ));
        }
        Ok(Quantile {
            value: self.0[rank - 1],
            count: n,
        })
    }
}

/// Timed phases are reported as the median over this many consecutive
/// slices, so a burst of load from outside the benchmark moves one slice
/// rather than the figure.
pub const SLICES: usize = 5;

/// One slice of a timed phase: how long it lasted, the work it completed
/// and the latencies of the operations it completed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    pub seconds: f64,
    pub work: f64,
    pub latencies: Vec<f64>,
}

/// Merges consecutive units (pipeline passes, ingest waves) into
/// [`SLICES`] slices of near-equal unit count.
pub fn group(units: &[Slice]) -> Vec<Slice> {
    let n = SLICES.min(units.len()).max(1);
    (0..n)
        .map(|g| {
            let part = &units[g * units.len() / n..(g + 1) * units.len() / n];
            Slice {
                seconds: part.iter().map(|u| u.seconds).sum(),
                work: part.iter().map(|u| u.work).sum(),
                latencies: part
                    .iter()
                    .flat_map(|u| u.latencies.iter().copied())
                    .collect(),
            }
        })
        .collect()
}

/// The median of a few repeated trial measurements (not a latency
/// percentile: trials are repeated to damp noise, not sampled).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A ratio that keeps its numerator and denominator, so every printed
/// ratio shows its base.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// `num / den`, or 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// `a[id] − b[id]` for every id present in both, in ascending id order:
/// the per-operation difference between two measurements of the same
/// operation (for example HTTP latency minus direct store latency).
pub fn paired_differences(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<f64> {
    let b: HashMap<u64, f64> = b.iter().copied().collect();
    let mut pairs: Vec<(u64, f64)> = a
        .iter()
        .filter_map(|(id, x)| b.get(id).map(|y| (*id, x - y)))
        .collect();
    pairs.sort_by_key(|(id, _)| *id);
    pairs.into_iter().map(|(_, d)| d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_and_carries_its_count() {
        let samples = Sorted::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(
            samples.quantile(0.5),
            Ok(Quantile {
                value: 500.0,
                count: 1000
            })
        );
        assert_eq!(samples.quantile(0.99).unwrap().value, 990.0);
    }

    #[test]
    fn percentile_without_ten_samples_beyond_it_is_refused() {
        let samples = Sorted::new((1..=999).map(f64::from).collect());
        // Rank 990 of 999 leaves 9 samples beyond the p99.
        assert!(samples.quantile(0.99).is_err());
        assert!(samples.quantile(0.5).is_ok());
        assert!(Sorted::new(Vec::new()).quantile(0.5).is_err());
        assert!(Sorted::new(vec![1.0; 19]).quantile(0.5).is_err());
        assert!(Sorted::new(vec![1.0; 20]).quantile(0.5).is_ok());
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.to_string(), "3/12");
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
    }

    #[test]
    fn paired_differences_match_by_id() {
        let http = [(7, 10.0), (1, 5.0), (3, 8.0)];
        let store = [(3, 2.0), (1, 1.5), (9, 4.0)];
        assert_eq!(paired_differences(&http, &store), vec![3.5, 6.0]);
    }

    #[test]
    fn units_group_into_consecutive_slices() {
        let units: Vec<Slice> = (0..7)
            .map(|i| Slice {
                seconds: 1.0,
                work: f64::from(i),
                latencies: vec![f64::from(i)],
            })
            .collect();
        let slices = group(&units);
        assert_eq!(slices.len(), SLICES);
        let work: Vec<f64> = slices.iter().map(|s| s.work).collect();
        assert_eq!(work, vec![0.0, 1.0, 5.0, 4.0, 11.0]);
        assert_eq!(slices[4].latencies, vec![5.0, 6.0]);
        assert_eq!(group(&units[..2]).len(), 2);
    }

    #[test]
    fn median_of_trials() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
