//! Table 6 — per-sample execution-time breakdown of the proposed method
//! (511 features, 22 hidden nodes, 2 instances).
//!
//! One bench line per row of the paper's Table 6. The `repro -- table6`
//! binary prints the same breakdown with Pico projections.

use seqdrift_bench::harness::{bench, section};
use seqdrift_bench::{probe, trained_model};
use seqdrift_core::centroid::CentroidSet;
use seqdrift_core::DistanceMetric;
use seqdrift_linalg::Real;
use std::hint::black_box;

const DIM: usize = 511;
const CLASSES: usize = 2;

fn centroids() -> CentroidSet {
    let mut set = CentroidSet::zeros(CLASSES, DIM);
    set.set_centroid(0, &probe(DIM, 10)).unwrap();
    set.set_centroid(1, &probe(DIM, 11)).unwrap();
    set.set_count(0, 60);
    set.set_count(1, 60);
    set
}

fn main() {
    section("table6");
    let x = probe(DIM, 12);

    // Row 1: label prediction (Algorithm 1 line 6).
    let mut model = trained_model(DIM, 22, 13);
    bench("table6/label_prediction", None, || {
        black_box(model.predict(black_box(&x)).unwrap());
    });

    // Row 2: distance computation (Algorithm 1 lines 12-14).
    let trained = centroids();
    let mut test_set = centroids();
    bench("table6/distance_computation", None, || {
        test_set.update(0, black_box(&x)).unwrap();
        black_box(test_set.distance_to(&trained, DistanceMetric::L1));
    });

    // Row 3: model retraining without label prediction (Algorithm 2, 8-9).
    let mut m3 = trained_model(DIM, 22, 14);
    let cor = centroids();
    bench("table6/retraining_without_label_prediction", None, || {
        let label = cor.nearest_label(black_box(&x));
        m3.seq_train_label(label, &x).unwrap();
    });

    // Row 4: model retraining with label prediction (Algorithm 2, 11-12),
    // reusing the prediction's forward pass as the pipeline does.
    let mut m4 = trained_model(DIM, 22, 15);
    bench("table6/retraining_with_label_prediction", None, || {
        let p = m4.predict(black_box(&x)).unwrap();
        m4.seq_train_predicted(&p, p.label, &x).unwrap();
    });

    // Row 5: label coordinates initialisation (Algorithm 3).
    let mut cor5 = centroids();
    let mut tmp = vec![0.0; DIM];
    bench("table6/label_coordinates_initialization", None, || {
        let baseline = cor5.pairwise_distance_sum();
        let mut best: Option<(usize, Real)> = None;
        for cls in 0..CLASSES {
            tmp.copy_from_slice(cor5.centroid(cls).unwrap());
            cor5.set_centroid(cls, &x).unwrap();
            let d = cor5.pairwise_distance_sum();
            cor5.set_centroid(cls, &tmp).unwrap();
            if d > baseline && best.is_none_or(|(_, bd)| d > bd) {
                best = Some((cls, d));
            }
        }
        black_box(best);
    });

    // Row 6: label coordinates update (Algorithm 4).
    let mut cor6 = centroids();
    bench("table6/label_coordinates_update", None, || {
        let label = cor6.nearest_label(black_box(&x));
        cor6.update(label, &x).unwrap();
    });
}
