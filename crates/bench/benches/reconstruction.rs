//! Cost of a full model reconstruction (Algorithms 2–4): the amortised
//! price of one detected drift, end to end, plus the per-phase step costs.
//!
//! Not a paper table, but the number a deployment engineer asks next after
//! Table 6: how long is the model "offline" (re-learning) after a drift,
//! and what does each reconstruction phase cost per sample?

use seqdrift_bench::harness::bench_batched;
use seqdrift_bench::{probe, trained_model};
use seqdrift_core::centroid::CentroidSet;
use seqdrift_core::reconstruct::{ReconstructConfig, Reconstructor};
use seqdrift_linalg::{Real, Rng};
use std::hint::black_box;

const DIM: usize = 511;
const N_TOTAL: usize = 200;

fn recon_samples() -> Vec<Vec<Real>> {
    let mut rng = Rng::seed_from(77);
    (0..N_TOTAL)
        .map(|i| {
            let mean = if i % 2 == 0 { 0.45 } else { 0.85 };
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, mean, 0.05);
            x
        })
        .collect()
}

fn previous_centroids() -> CentroidSet {
    let mut set = CentroidSet::zeros(2, DIM);
    set.set_centroid(0, &probe(DIM, 1)).unwrap();
    set.set_centroid(1, &probe(DIM, 2)).unwrap();
    set.set_count(0, 60);
    set.set_count(1, 60);
    set
}

fn main() {
    let samples = recon_samples();
    bench_batched(
        "reconstruction/full_200_samples_511d",
        Some(N_TOTAL as u64),
        || {
            let model = trained_model(DIM, 22, 5);
            let rec = Reconstructor::new(
                ReconstructConfig::new(N_TOTAL)
                    .with_search(20)
                    .with_update(50),
                2,
                DIM,
            )
            .unwrap();
            (model, rec)
        },
        |(mut model, mut rec)| {
            rec.start(&previous_centroids(), &mut model).unwrap();
            for x in &samples {
                let p = model.predict(x).unwrap();
                black_box(rec.step(&mut model, &p, x).unwrap());
            }
        },
    );
}
