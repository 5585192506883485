//! Fleet determinism: because every session is pinned to one shard and its
//! queue is FIFO, the per-session event stream and final session state are
//! identical whether the fleet runs 1, 2 or 8 workers. Only the global
//! interleaving of *different* sessions' events may vary.

use seqdrift_core::pipeline::PipelineEvent;
use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_fleet::{FleetConfig, FleetEngine, FleetEvent, SessionId};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use std::collections::BTreeMap;

const DIM: usize = 4;
const DEVICES: u64 = 12;
// Long enough that even the latest-drifting device finishes its 200-sample
// reconstruction, so every session ends at rest.
const SAMPLES: usize = 450;

fn sample(rng: &mut Rng, mean: Real) -> Vec<Real> {
    let mut x = vec![0.0; DIM];
    rng.fill_normal(&mut x, mean, 0.05);
    x
}

fn checkpoint() -> Vec<u8> {
    let mut rng = Rng::seed_from(71);
    let train: Vec<Vec<Real>> = (0..100).map(|_| sample(&mut rng, 0.3)).collect();
    let mut model = MultiInstanceModel::new(1, OsElmConfig::new(DIM, 3).with_seed(9)).unwrap();
    model.init_train_class(0, &train).unwrap();
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(1, DIM).with_window(15), &pairs)
        .unwrap()
        .to_bytes()
        .unwrap()
}

/// The per-device streams: a third of the devices drift (at staggered
/// onsets), the rest stay stable. Streams are a pure function of the
/// device id, so every run feeds identical data.
fn device_streams() -> Vec<Vec<Vec<Real>>> {
    (0..DEVICES)
        .map(|dev| {
            let mut rng = Rng::seed_from(1000 + dev);
            let onset = 60 + 10 * dev as usize;
            (0..SAMPLES)
                .map(|t| {
                    let mean = if dev % 3 == 0 && t >= onset { 0.8 } else { 0.3 };
                    sample(&mut rng, mean)
                })
                .collect()
        })
        .collect()
}

/// Runs the whole fleet with the given worker count and returns, per
/// session: the ordered event list and the final serialised state.
fn run_with_workers(
    workers: usize,
    blob: &[u8],
    streams: &[Vec<Vec<Real>>],
) -> BTreeMap<u64, (Vec<PipelineEvent>, Vec<u8>)> {
    let fleet = FleetEngine::new(FleetConfig::new(workers)).unwrap();
    for dev in 0..DEVICES {
        fleet.create_from_bytes(SessionId(dev), blob).unwrap();
    }
    for t in 0..SAMPLES {
        for (dev, stream) in streams.iter().enumerate() {
            fleet
                .feed_blocking(SessionId(dev as u64), &stream[t])
                .unwrap();
        }
    }
    let report = fleet.shutdown();
    let mut out: BTreeMap<u64, (Vec<PipelineEvent>, Vec<u8>)> = BTreeMap::new();
    for (id, pipeline) in &report.sessions {
        out.insert(id.0, (Vec::new(), pipeline.to_bytes().unwrap()));
    }
    for fleet_event in &report.events {
        if let FleetEvent::Pipeline { id, event } = fleet_event {
            out.get_mut(&id.0).unwrap().0.push(*event);
        }
    }
    out
}

#[test]
fn per_session_events_and_state_match_across_worker_counts() {
    let blob = checkpoint();
    let streams = device_streams();

    let one = run_with_workers(1, &blob, &streams);
    let two = run_with_workers(2, &blob, &streams);
    let eight = run_with_workers(8, &blob, &streams);

    // The workload must actually produce events, or this test is vacuous.
    let total_events: usize = one.values().map(|(e, _)| e.len()).sum();
    assert!(total_events >= 4, "only {total_events} events fleet-wide");
    assert_eq!(one.len(), DEVICES as usize);

    for (dev, (events_1, state_1)) in &one {
        let (events_2, state_2) = &two[dev];
        let (events_8, state_8) = &eight[dev];
        assert_eq!(
            events_1, events_2,
            "device {dev}: events differ at 2 workers"
        );
        assert_eq!(
            events_1, events_8,
            "device {dev}: events differ at 8 workers"
        );
        assert_eq!(state_1, state_2, "device {dev}: state differs at 2 workers");
        assert_eq!(state_1, state_8, "device {dev}: state differs at 8 workers");
    }

    // Drifting devices (dev % 3 == 0) must be the only ones with drift
    // events, confirming sessions do not leak into one another.
    for (dev, (events, _)) in &one {
        let drifted = events
            .iter()
            .any(|e| matches!(e, PipelineEvent::DriftDetected { .. }));
        assert_eq!(drifted, dev % 3 == 0, "device {dev} drift status");
    }
}
