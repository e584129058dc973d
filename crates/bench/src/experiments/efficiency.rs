//! Efficiency experiments: Figures 12, 13 and 14 of the paper.
//!
//! All three report wall-clock time (milliseconds) of the compression step
//! only, as §6.2.1 describes.  Where the paper averages three runs, each
//! cell here is the median of nine runs after one untimed
//! warm-up, printed with their interquartile range: runs of a few
//! milliseconds on a shared host need both to be compared.

use crate::algorithms::{ablation_algorithms, standard_algorithms};
use crate::datasets::{DatasetRepository, Scale};
use crate::experiments::ExperimentReport;
use traj_data::DatasetKind;
use traj_metrics::evaluate_batch;
use traj_model::BatchSimplifier;

/// Number of timed repetitions per cell (the paper's three are too few
/// for a median and quartiles).
const REPETITIONS: u32 = 9;

/// Figure 12 — running time as a function of the trajectory size
/// `|T| ∈ {2000, …, 10000}` with ζ = 40 m.
pub fn fig12(repo: &DatasetRepository, scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig12",
        "Efficiency vs trajectory size (ζ = 40 m)",
        "|T| (points)",
        "ms",
    );
    let (sizes, count): (Vec<usize>, usize) = match scale {
        Scale::Quick => (vec![2_000, 4_000, 6_000, 8_000, 10_000], 2),
        Scale::Full => (vec![2_000, 4_000, 6_000, 8_000, 10_000], 10),
    };
    let algorithms = standard_algorithms();
    for kind in DatasetKind::ALL {
        for &size in &sizes {
            let data = repo.sized_dataset(kind, count, size);
            for algo in &algorithms {
                let result = evaluate_batch(algo.as_ref(), &data, 40.0, REPETITIONS);
                report.push_timed(kind.name(), algo.name(), size as f64, &result.timing);
            }
        }
    }
    report
}

/// Shared sweep over ζ used by Figures 13 and 14.
fn zeta_sweep(
    id: &str,
    title: &str,
    repo: &DatasetRepository,
    scale: Scale,
    algorithms: &[Box<dyn BatchSimplifier>],
) -> ExperimentReport {
    let mut report = ExperimentReport::new(id, title, "ζ (m)", "ms");
    let zetas: Vec<f64> = match scale {
        Scale::Quick => vec![10.0, 20.0, 40.0, 60.0, 80.0, 100.0],
        Scale::Full => (1..=10).map(|i| i as f64 * 10.0).collect(),
    };
    for kind in DatasetKind::ALL {
        let data = repo.dataset(kind, scale);
        for &zeta in &zetas {
            for algo in algorithms {
                let result = evaluate_batch(algo.as_ref(), &data, zeta, REPETITIONS);
                report.push_timed(kind.name(), algo.name(), zeta, &result.timing);
            }
        }
    }
    report
}

/// Figure 13 — running time as a function of the error bound ζ for DP,
/// FBQS, OPERB and OPERB-A.
pub fn fig13(repo: &DatasetRepository, scale: Scale) -> ExperimentReport {
    zeta_sweep(
        "fig13",
        "Efficiency vs error bound ζ",
        repo,
        scale,
        &standard_algorithms(),
    )
}

/// Figure 14 — running time of the optimization ablation (OPERB vs
/// Raw-OPERB, OPERB-A vs Raw-OPERB-A) as a function of ζ.
pub fn fig14(repo: &DatasetRepository, scale: Scale) -> ExperimentReport {
    zeta_sweep(
        "fig14",
        "Efficiency of the optimization techniques vs ζ",
        repo,
        scale,
        &ablation_algorithms(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetRepository;

    /// A tiny smoke sweep (not the full experiment) to keep the unit test
    /// fast: one dataset, one size, all four standard algorithms.
    #[test]
    fn fig12_smoke() {
        let repo = DatasetRepository::with_seed(3);
        let data = repo.sized_dataset(DatasetKind::Taxi, 1, 400);
        let mut report = ExperimentReport::new("fig12-smoke", "smoke", "|T|", "ms");
        for algo in standard_algorithms() {
            let r = evaluate_batch(algo.as_ref(), &data, 40.0, 1);
            assert!(r.error_bounded(), "{} must be error bounded", algo.name());
            report.push_timed("Taxi", algo.name(), 400.0, &r.timing);
        }
        assert_eq!(report.records.len(), 4);
        assert!(report
            .records
            .iter()
            .all(|r| r.value >= 0.0 && r.iqr.is_some_and(|iqr| iqr >= 0.0)));
    }

    #[test]
    fn zeta_sweep_produces_grid_of_records() {
        // Run the real fig13 sweep on a deliberately tiny repository by
        // shrinking through the quick profile of a single dataset.
        let repo = DatasetRepository::with_seed(4);
        let data = repo.sized_dataset(DatasetKind::SerCar, 1, 300);
        let algos = ablation_algorithms();
        let mut report = ExperimentReport::new("fig14-smoke", "smoke", "ζ", "ms");
        for &zeta in &[20.0, 60.0] {
            for algo in &algos {
                let r = evaluate_batch(algo.as_ref(), &data, zeta, 1);
                report.push_timed("SerCar", algo.name(), zeta, &r.timing);
            }
        }
        assert_eq!(report.parameters(), vec![20.0, 60.0]);
        assert_eq!(report.series().len(), 4);
    }
}
