//! Fleet throughput: aggregate samples/sec for S concurrent sessions as a
//! function of worker-thread count.
//!
//! The claim under test is multiplexing: the per-sample cost of the paper's
//! detector is small enough that one worker thread serves *many* device
//! sessions (>1 session/thread), and adding workers scales aggregate
//! throughput until the host runs out of cores. Each measurement replays
//! `SAMPLES_PER_SESSION` probe samples into each of `SESSIONS` sessions
//! restored from one calibrated snapshot, then drains via `shutdown()`.

use seqdrift_bench::harness::{bench_batched, section};
use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_fleet::{FleetConfig, FleetEngine, SessionId};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use std::hint::black_box;

const DIM: usize = 38;
const SESSIONS: u64 = 64;
const SAMPLES_PER_SESSION: usize = 100;

fn calibrated_blob() -> Vec<u8> {
    let mut rng = Rng::seed_from(11);
    let train: Vec<Vec<Real>> = (0..80)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.3, 0.05);
            x
        })
        .collect();
    let mut model = MultiInstanceModel::new(1, OsElmConfig::new(DIM, 16).with_seed(1)).unwrap();
    model.init_train_class(0, &train).unwrap();
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
    let pipeline =
        DriftPipeline::calibrate(model, DetectorConfig::new(1, DIM).with_window(32), &pairs)
            .unwrap();
    pipeline.to_bytes().unwrap()
}

fn stream(n: usize) -> Vec<Vec<Real>> {
    let mut rng = Rng::seed_from(13);
    (0..n)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.3, 0.05);
            x
        })
        .collect()
}

fn main() {
    section("fleet_throughput");
    let blob = calibrated_blob();
    let samples = stream(SAMPLES_PER_SESSION);
    let total = SESSIONS * SAMPLES_PER_SESSION as u64;

    for &workers in &[1usize, 2, 4, 8] {
        bench_batched(
            &format!("fleet/{SESSIONS}_sessions_x{SAMPLES_PER_SESSION}/workers_{workers}"),
            Some(total),
            || {
                let fleet =
                    FleetEngine::new(FleetConfig::new(workers).with_queue_capacity(1024)).unwrap();
                for dev in 0..SESSIONS {
                    fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
                }
                fleet
            },
            |fleet| {
                // Round-robin across sessions so every shard's queue stays
                // warm; feed_blocking applies backpressure instead of Busy.
                for x in &samples {
                    for dev in 0..SESSIONS {
                        fleet.feed_blocking(SessionId(dev), x).unwrap();
                    }
                }
                let report = fleet.shutdown();
                assert_eq!(report.metrics.samples_processed, total);
                black_box(report.metrics.samples_processed);
            },
        );
    }
    println!(
        "fleet: {SESSIONS} sessions multiplexed over 1..8 workers \
         ({} sessions/thread at 8 workers)",
        SESSIONS / 8
    );
}
