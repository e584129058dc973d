//! Properties of the trajectory model, checked over seeded random
//! trajectories.  Each property draws its inputs from its own fixed seed
//! stream, so a failure names the case and re-runs identically.

use traj_data::rng::{Rng, SmallRng};
use traj_geo::{DirectedSegment, Point};
use traj_model::{CountingSource, SimplifiedSegment, SimplifiedTrajectory, Trajectory};

/// Cases per property.
const CASES: u64 = 5_000;

/// Runs `property` over [`CASES`] generators seeded from `stream`; the
/// property returns the violated condition, if any.
fn check(stream: u64, mut property: impl FnMut(&mut SmallRng) -> Result<(), String>) {
    for case in 0..CASES {
        let seed = 0x30DE_0000 + stream * 1_000_000 + case;
        if let Err(what) = property(&mut SmallRng::seed_from_u64(seed)) {
            panic!("case {case} (seed {seed:#x}): {what}");
        }
    }
}

/// Fails the property with the condition's source text and the values
/// named after it.
macro_rules! ensure {
    ($cond:expr $(, $value:expr)*) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!(
                concat!("{}", $(" ", stringify!($value), " = {:?}",)*),
                stringify!($cond) $(, $value)*
            ));
        }
    };
}

/// A valid trajectory of 2 to `max_len - 1` points: coordinates within
/// ±10 km, timestamps strictly increasing by 0.01–10 s.
fn monotone_trajectory(rng: &mut SmallRng, max_len: usize) -> Trajectory {
    let len = rng.gen_range(2..max_len);
    let mut t = 0.0;
    let points = (0..len)
        .map(|_| {
            let (x, y) = (rng.gen_range(-1.0e4..1.0e4), rng.gen_range(-1.0e4..1.0e4));
            t += rng.gen_range(0.01..10.0);
            Point::new(x, y, t)
        })
        .collect();
    Trajectory::new(points).expect("timestamps strictly increase by construction")
}

#[test]
fn valid_trajectories_pass_validation() {
    check(1, |rng| {
        let traj = monotone_trajectory(rng, 100);
        // Re-validating the points must succeed and preserve everything.
        let again = Trajectory::new(traj.points().to_vec()).map_err(|e| e.to_string())?;
        ensure!(again == traj);
        ensure!(traj.duration() >= 0.0, traj.duration());
        ensure!(traj.path_length() >= 0.0, traj.path_length());
        ensure!(
            traj.mean_sampling_interval() > 0.0,
            traj.mean_sampling_interval()
        );
        Ok(())
    });
}

#[test]
fn shuffled_timestamps_are_rejected() {
    check(2, |rng| {
        let mut points = monotone_trajectory(rng, 30).points().to_vec();
        // Swap two adjacent timestamps to violate monotonicity.
        let t0 = points[0].t;
        points[0].t = points[1].t;
        points[1].t = t0;
        ensure!(Trajectory::new(points).is_err());
        Ok(())
    });
}

#[test]
fn slices_preserve_points() {
    check(3, |rng| {
        let traj = monotone_trajectory(rng, 60);
        let split = rng.gen_range(0..59usize);
        let last = traj.len() - 1;
        let mid = split.min(last);
        let left = traj.slice(0, mid);
        let right = traj.slice(mid, last);
        ensure!(
            left.len() + right.len() == traj.len() + 1,
            left.len(),
            right.len(),
            traj.len()
        );
        ensure!(left.last() == right.first(), mid);
        ensure!(left.first() == traj.first(), mid);
        ensure!(right.last() == traj.last(), mid);
        Ok(())
    });
}

#[test]
fn single_segment_representation_validates() {
    check(4, |rng| {
        let traj = monotone_trajectory(rng, 80);
        let seg = SimplifiedSegment::new(
            DirectedSegment::new(traj.first(), traj.last()),
            0,
            traj.len() - 1,
        );
        let simp = SimplifiedTrajectory::new(vec![seg], traj.len());
        ensure!(simp.validate() == Ok(()), simp.validate());
        ensure!(simp.compression_ratio() <= 1.0, simp.compression_ratio());
        ensure!(simp.num_shape_points() == 2, simp.num_shape_points());
        // Every index is covered.
        for i in 0..traj.len() {
            ensure!(simp.segments_covering(i).count() == 1, i);
        }
        Ok(())
    });
}

#[test]
fn counting_source_sees_every_point_once() {
    check(5, |rng| {
        let traj = monotone_trajectory(rng, 80);
        let mut src = CountingSource::new(traj.points().to_vec());
        let mut n = 0;
        while src.next_point().is_some() {
            n += 1;
        }
        ensure!(n == traj.len(), n, traj.len());
        ensure!(src.is_single_pass());
        ensure!(src.is_exhaustive());
        Ok(())
    });
}
