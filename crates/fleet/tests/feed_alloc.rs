//! Heap allocations on the fleet's feed path, counted by a global
//! allocator.
//!
//! A fed row is copied into its shard's inbox ring, which keeps its
//! high-water capacity, and the worker copies it out into a scratch
//! buffer it reuses. So once the fleet is warm, feeding a quiescent
//! session allocates nothing per row, on the producer's side or the
//! worker's. What remains is the offset query that ends each count (its
//! reply channel and boxed control message) and, with a short checkpoint
//! interval, each checkpoint: one exact-length blob and the `Arc` that
//! shares it.
//!
//! This file is its own test binary with one test, so no other test's
//! allocations are counted.

use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_fleet::{FleetConfig, FleetEngine, SessionId};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and reallocations made by every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps a plain atomic, which never allocates;
// `System` upholds the `GlobalAlloc` contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The NSL-KDD shape: 38 features, 16 hidden nodes, two classes.
const DIM: usize = 38;
const HIDDEN: usize = 16;
const WARM_UP: usize = 500;
const COUNTED: usize = 400;

/// Two class concepts and a stable (drift-free) stream of both.
fn stream(rng: &mut Rng, means: &[Vec<Real>], n: usize) -> Vec<(usize, Vec<Real>)> {
    (0..n)
        .map(|t| {
            let c = t % means.len();
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.0, 0.04);
            for (v, m) in x.iter_mut().zip(&means[c]) {
                *v += m;
            }
            (c, x)
        })
        .collect()
}

fn calibrated(rng: &mut Rng, means: &[Vec<Real>]) -> DriftPipeline {
    let train = stream(rng, means, 160);
    let cfg = OsElmConfig::new(DIM, HIDDEN).with_seed(38);
    let mut model = MultiInstanceModel::new(means.len(), cfg).unwrap();
    for c in 0..means.len() {
        let xs: Vec<Vec<Real>> = train
            .iter()
            .filter(|(l, _)| *l == c)
            .map(|(_, x)| x.clone())
            .collect();
        model.init_train_class(c, &xs).unwrap();
    }
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|(l, x)| (*l, x.as_slice())).collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(2, DIM).with_window(50), &pairs).unwrap()
}

/// Allocations made while `COUNTED` quiescent rows are fed to a warm
/// 1-worker fleet and processed, at the given checkpoint interval.
fn count(checkpoint_interval: u64) -> u64 {
    let mut rng = Rng::seed_from(3816);
    let means: Vec<Vec<Real>> = (0..2)
        .map(|_| {
            let mut m = vec![0.0; DIM];
            rng.fill_uniform(&mut m, 0.15, 0.85);
            m
        })
        .collect();
    let pipeline = calibrated(&mut rng, &means);
    let rows = stream(&mut rng, &means, WARM_UP + COUNTED);
    let fleet = FleetEngine::new(FleetConfig::new(1).with_checkpoint_interval(checkpoint_interval))
        .unwrap();
    let id = SessionId(0);
    fleet.create(id, pipeline).unwrap();
    for (_, x) in &rows[..WARM_UP] {
        fleet.feed_blocking(id, x).unwrap();
    }
    assert_eq!(fleet.samples_processed(id).unwrap(), WARM_UP as u64);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (_, x) in &rows[WARM_UP..] {
        fleet.feed_blocking(id, x).unwrap();
    }
    // The query queues behind every counted row, so when it returns the
    // worker has processed them all.
    let processed = fleet.samples_processed(id).unwrap();
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(processed, (WARM_UP + COUNTED) as u64);
    let report = fleet.shutdown();
    assert_eq!(
        report.metrics.drifts_flagged, 0,
        "the stream must stay quiescent"
    );
    counted
}

#[test]
fn fed_rows_allocate_nothing_and_a_checkpoint_allocates_a_fixed_few() {
    // Without checkpoints: no allocation per row.
    let quiescent = count(1_000_000);
    assert!(
        quiescent < 25,
        "{quiescent} allocations for {COUNTED} quiescent rows"
    );

    // Every 64th sample checkpoints: 7 checkpoints fall among the counted
    // rows (samples 512, 576, ..., 896).
    const INTERVAL: u64 = 64;
    let checkpoints = (WARM_UP + COUNTED) as u64 / INTERVAL - WARM_UP as u64 / INTERVAL;
    let with_checkpoints = count(INTERVAL);
    let per_checkpoint = with_checkpoints.saturating_sub(quiescent) as f64 / checkpoints as f64;
    assert!(
        per_checkpoint <= 4.0,
        "{with_checkpoints} allocations with {checkpoints} checkpoints, \
         {quiescent} without: {per_checkpoint} per checkpoint"
    );
}
