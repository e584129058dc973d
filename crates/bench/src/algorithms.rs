//! The algorithm roster of the evaluation: the paper compares OPERB and
//! OPERB-A against DP (best compression ratio among existing LS algorithms)
//! and FBQS (fastest existing LS algorithm), and ablates against the
//! optimization-free Raw-OPERB / Raw-OPERB-A.

use operb::{Operb, OperbA};
use traj_baselines::{DouglasPeucker, Fbqs};
use traj_model::BatchSimplifier;

/// A named, boxed batch simplifier.
pub type AlgorithmSet = Vec<Box<dyn BatchSimplifier>>;

/// The four algorithms of the paper's headline comparison
/// (Figures 12, 13, 15, 17, 18): DP, FBQS, OPERB, OPERB-A.
pub fn standard_algorithms() -> AlgorithmSet {
    vec![
        Box::new(DouglasPeucker::new()),
        Box::new(Fbqs::new()),
        Box::new(Operb::new()),
        Box::new(OperbA::new()),
    ]
}

/// The optimization-ablation roster (Figures 14 and 16): OPERB vs Raw-OPERB
/// and OPERB-A vs Raw-OPERB-A.
pub fn ablation_algorithms() -> AlgorithmSet {
    vec![
        Box::new(Operb::raw()),
        Box::new(Operb::new()),
        Box::new(OperbA::raw()),
        Box::new(OperbA::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_have_expected_members() {
        let names: Vec<&str> = standard_algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["DP", "FBQS", "OPERB", "OPERB-A"]);
        let names: Vec<&str> = ablation_algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["Raw-OPERB", "OPERB", "Raw-OPERB-A", "OPERB-A"]);
    }
}
