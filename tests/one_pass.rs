//! Integration tests of the one-pass / streaming contract: the streaming
//! algorithms read every point exactly once, emit segments incrementally
//! and agree with their batch front ends.

use trajsimp::baselines::{Bqs, Fbqs, OpeningWindow};
use trajsimp::data::{DatasetGenerator, DatasetKind};
use trajsimp::model::{
    BatchSimplifier, CountingSource, SimplifiedTrajectory, StreamingSimplifier, Trajectory,
};
use trajsimp::operb::{Operb, OperbA, OperbAStream, OperbStream};
use trajsimp::pipeline::FleetAlgorithm;

fn sample_trajectory() -> Trajectory {
    DatasetGenerator::for_kind(DatasetKind::Taxi, 99).generate_trajectory(0, 1_500)
}

/// Drives a streaming simplifier from a [`CountingSource`] and returns the
/// assembled output plus the source for read accounting.
fn run_streaming<S: StreamingSimplifier + ?Sized>(
    simplifier: &mut S,
    trajectory: &Trajectory,
) -> (SimplifiedTrajectory, CountingSource) {
    let mut source = CountingSource::new(trajectory.points().to_vec());
    let mut segments = Vec::new();
    while let Some(point) = source.next_point() {
        simplifier.push(point, &mut segments);
    }
    simplifier.finish(&mut segments);
    (
        SimplifiedTrajectory::new(segments, trajectory.len()),
        source,
    )
}

#[test]
fn operb_reads_each_point_exactly_once() {
    let traj = sample_trajectory();
    let (out, source) = run_streaming(&mut OperbStream::new(40.0), &traj);
    assert!(source.is_single_pass(), "OPERB must be one-pass");
    assert_eq!(source.total_reads(), traj.len());
    assert!(out.num_segments() >= 1);
}

#[test]
fn operb_a_reads_each_point_exactly_once() {
    let traj = sample_trajectory();
    let (out, source) = run_streaming(&mut OperbAStream::new(40.0), &traj);
    assert!(source.is_single_pass(), "OPERB-A must be one-pass");
    assert!(out.num_segments() >= 1);
}

#[test]
fn fbqs_reads_each_point_exactly_once() {
    let traj = sample_trajectory();
    let (out, source) = run_streaming(&mut Fbqs::stream(40.0), &traj);
    assert!(source.is_single_pass(), "FBQS must be one-pass");
    assert!(out.num_segments() >= 1);
}

/// The batch front end of every streaming algorithm in the registry.
fn batch_front_end(name: &str) -> Box<dyn BatchSimplifier> {
    match name {
        "operb" => Box::new(Operb::new()),
        "raw-operb" => Box::new(Operb::raw()),
        "operb-a" => Box::new(OperbA::new()),
        "raw-operb-a" => Box::new(OperbA::raw()),
        "opw" => Box::new(OpeningWindow::new()),
        "bqs" => Box::new(Bqs::new()),
        "fbqs" => Box::new(Fbqs::new()),
        other => panic!("no batch front end listed for streaming algorithm '{other}'"),
    }
}

#[test]
fn streaming_and_batch_outputs_agree() {
    // Every streaming name the registry resolves: its per-stream factory,
    // which the pipeline and the CLI run, must equal its batch front end.
    let streaming: Vec<&str> = FleetAlgorithm::all_names()
        .iter()
        .copied()
        .filter(|name| FleetAlgorithm::by_name(name).unwrap().is_streaming())
        .collect();
    assert_eq!(
        streaming,
        [
            "operb",
            "raw-operb",
            "operb-a",
            "raw-operb-a",
            "opw",
            "bqs",
            "fbqs"
        ]
    );
    let traj = sample_trajectory();
    for name in streaming {
        let Some(FleetAlgorithm::Streaming { factory, .. }) = FleetAlgorithm::by_name(name) else {
            unreachable!("filtered to streaming algorithms");
        };
        for zeta in [15.0, 40.0, 80.0] {
            let (streamed, _) = run_streaming(&mut *factory(zeta), &traj);
            let batch = batch_front_end(name)
                .simplify(&traj, zeta)
                .expect("valid input");
            assert_eq!(streamed, batch, "{name} streaming vs batch at ζ = {zeta}");
        }
    }
}

#[test]
fn segments_are_emitted_incrementally_not_only_at_finish() {
    // A one-pass online algorithm must not hold the whole output until the
    // end: on a long trajectory with many turns, segments appear while
    // points are still being pushed.
    let traj = sample_trajectory();
    let mut simplifier = OperbStream::new(20.0);
    let mut segments = Vec::new();
    let mut emitted_before_finish = 0usize;
    for &p in traj.points() {
        simplifier.push(p, &mut segments);
        emitted_before_finish = segments.len();
    }
    simplifier.finish(&mut segments);
    assert!(
        emitted_before_finish > 0,
        "no segment was emitted before finish()"
    );
    assert!(segments.len() >= emitted_before_finish);
}

#[test]
fn streaming_simplifier_is_reusable_across_trajectories() {
    let gen = DatasetGenerator::for_kind(DatasetKind::SerCar, 5);
    let a = gen.generate_trajectory(0, 800);
    let b = gen.generate_trajectory(1, 800);

    let mut stream = OperbAStream::new(30.0);
    let mut out_a = Vec::new();
    for &p in a.points() {
        stream.push(p, &mut out_a);
    }
    stream.finish(&mut out_a);

    let mut out_b = Vec::new();
    for &p in b.points() {
        stream.push(p, &mut out_b);
    }
    stream.finish(&mut out_b);

    // The second run must match a fresh simplifier run on the same data.
    let fresh = OperbA::new().simplify(&b, 30.0).expect("valid input");
    assert_eq!(SimplifiedTrajectory::new(out_b, b.len()), fresh);
}
