//! Pipeline integration: compress a fleet straight into a store.
//!
//! [`FleetStoreSink`] implements [`traj_pipeline::ResultSink`], so the
//! parallel fleet pipeline can hand every closed stream's compressed
//! output directly to a shared [`ShardedStore`] as it finishes — no
//! intermediate collection of the whole fleet, and because the store
//! locks per shard internally, ingest through the sink runs concurrently
//! with query threads reading the same store.
//! [`compress_fleet_into_shared_store`] is the one-call driver.

use traj_model::Trajectory;
use traj_pipeline::{
    compress_fleet_with_sink, DeviceId, FleetAlgorithm, FleetResult, PipelineConfig,
    PipelineReport, ResultSink,
};

use crate::shard::ShardedStore;

/// A [`ResultSink`] that ingests every successful stream result into a
/// [`ShardedStore`], collecting per-device failures instead of aborting
/// the whole fleet run.  Each accepted stream locks only the one shard
/// it hashes to.
pub struct FleetStoreSink<'a> {
    store: &'a ShardedStore,
    zeta: f64,
    originals: std::collections::HashMap<DeviceId, &'a [traj_geo::Point]>,
    ingested: usize,
    failures: Vec<(DeviceId, String)>,
}

impl<'a> FleetStoreSink<'a> {
    /// Creates a sink writing into `store`, recording `zeta` (the error
    /// bound the fleet is being compressed with) on every block.
    pub fn new(store: &'a ShardedStore, zeta: f64) -> Self {
        Self {
            store,
            zeta,
            originals: std::collections::HashMap::new(),
            ingested: 0,
            failures: Vec::new(),
        }
    }

    /// Registers the original trajectories, so every ingest can extend
    /// its block metadata over the actual data points
    /// ([`ShardedStore::ingest_with_original`]) — exact skipping metadata
    /// instead of the shape-point approximation.
    pub fn with_originals(mut self, fleet: &'a [(DeviceId, Trajectory)]) -> Self {
        self.originals = fleet
            .iter()
            .map(|(device, traj)| (*device, traj.points()))
            .collect();
        self
    }

    /// Number of streams successfully ingested.
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Streams that could not be ingested (algorithm error or store
    /// rejection), with the reason.
    pub fn failures(&self) -> &[(DeviceId, String)] {
        &self.failures
    }

    fn ingest(&mut self, result: &FleetResult) -> Result<(), String> {
        let simplified = result.output.as_ref().map_err(|e| e.to_string())?;
        match self.originals.get(&result.device) {
            Some(points) => {
                self.store
                    .ingest_with_original(result.device, points, simplified, self.zeta)
            }
            None => self.store.ingest(result.device, simplified, self.zeta),
        }
        .map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl ResultSink for FleetStoreSink<'_> {
    fn accept(&mut self, result: FleetResult) {
        match self.ingest(&result) {
            Ok(()) => self.ingested += 1,
            Err(reason) => self.failures.push((result.device, reason)),
        }
    }
}

/// Compresses `fleet` through the parallel pipeline and ingests every
/// stream's output into `store` as it completes — safe to run while
/// query threads read the same store (the live-ingest path of `trajsimp
/// serve`).  Returns the pipeline's throughput report and the number of
/// streams ingested.
///
/// # Errors
///
/// The first per-device failure as a human-readable message (the store is
/// left with everything that ingested cleanly before the error).
pub fn compress_fleet_into_shared_store(
    fleet: &[(DeviceId, Trajectory)],
    config: &PipelineConfig,
    algorithm: &FleetAlgorithm,
    store: &ShardedStore,
) -> Result<(PipelineReport, usize), String> {
    let mut sink = FleetStoreSink::new(store, config.epsilon).with_originals(fleet);
    let report = compress_fleet_with_sink(fleet, config, algorithm, &mut sink);
    if let Some((device, reason)) = sink.failures().first() {
        return Err(format!("device {device}: {reason}"));
    }
    let ingested = sink.ingested();
    Ok((report, ingested))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use traj_geo::Point;

    fn fleet(n: usize, points: usize) -> Vec<(DeviceId, Trajectory)> {
        (0..n)
            .map(|d| {
                let traj = Trajectory::new_unchecked(
                    (0..points)
                        .map(|i| {
                            let t = i as f64;
                            Point::new(
                                t * 9.0,
                                d as f64 * 400.0 + ((t + d as f64) * 0.25).sin() * 30.0,
                                t,
                            )
                        })
                        .collect(),
                );
                (d as DeviceId, traj)
            })
            .collect()
    }

    #[test]
    fn fleet_compression_lands_in_the_store() {
        let fleet = fleet(25, 300);
        let algorithm = FleetAlgorithm::by_name("operb").unwrap();
        let config = PipelineConfig::new(20.0)
            .with_workers(4)
            .with_batch_size(64);
        let store = ShardedStore::new(StoreConfig::default(), 4);
        let (report, ingested) =
            compress_fleet_into_shared_store(&fleet, &config, &algorithm, &store).unwrap();
        assert_eq!(ingested, 25);
        assert_eq!(report.total_streams, 25);
        let stats = store.stats();
        assert_eq!(stats.devices, 25);
        assert_eq!(stats.points, 25 * 300);
        assert!(stats.blocks >= 25);
        assert!(
            stats.bytes_per_point() < 24.0,
            "store must beat raw storage, got {} B/pt",
            stats.bytes_per_point()
        );
        // Every device is queryable.
        for (device, _) in &fleet {
            assert!(!store.time_slice(*device, 0.0, 300.0).segments.is_empty());
            assert!(store.position_at(*device, 150.0).is_some());
        }
    }

    #[test]
    fn sink_records_failures_without_aborting() {
        let store = ShardedStore::new(StoreConfig::default(), 1);
        // Pre-fill device 3 with data ending at t = 1000 so the fleet's
        // t ∈ [0, 99] ingest for that device is out of order.
        let late = Trajectory::new_unchecked(vec![
            Point::new(0.0, 0.0, 990.0),
            Point::new(10.0, 0.0, 1000.0),
        ]);
        let algorithm = FleetAlgorithm::by_name("operb").unwrap();
        let config = PipelineConfig::new(20.0).with_workers(2);
        compress_fleet_into_shared_store(&[(3, late)], &config, &algorithm, &store).unwrap();

        let fleet = fleet(5, 100);
        let mut sink = FleetStoreSink::new(&store, 20.0);
        let report = compress_fleet_with_sink(&fleet, &config, &algorithm, &mut sink);
        assert_eq!(report.total_streams, 5);
        assert_eq!(sink.ingested(), 4);
        assert_eq!(sink.failures().len(), 1);
        assert_eq!(sink.failures()[0].0, 3);
        assert!(sink.failures()[0].1.contains("out-of-order"));
        // And the driver surfaces a failure as an error (re-ingesting the
        // same fleet is out of order for every already-stored device).
        let err =
            compress_fleet_into_shared_store(&fleet, &config, &algorithm, &store).unwrap_err();
        assert!(err.contains("out-of-order"), "{err}");
    }
}
