//! Internal diagnostic: prints the quantities the detection dynamics hinge
//! on (Eq. 1 threshold, class-shift L1 magnitudes, drift-distance
//! trajectories, per-method delays). Not part of the reproduction surface;
//! useful when tuning the synthetic datasets.

use seqdrift_core::centroid::CentroidSet;
use seqdrift_core::threshold::calibrate_drift_threshold;
use seqdrift_core::DistanceMetric;
use seqdrift_datasets::fan::FanScenario;
use seqdrift_eval::experiments::{fan_dataset, nslkdd_dataset, Scale};
use seqdrift_eval::methods::MethodSpec;
use seqdrift_eval::runner::{run_method, RunOptions};
use seqdrift_linalg::{vector, Real};

fn centroid_of(rows: &[&[Real]]) -> Vec<Real> {
    let mut m = vec![0.0; rows[0].len()];
    for r in rows {
        vector::axpy(1.0, r, &mut m);
    }
    vector::scale(1.0 / rows.len() as Real, &mut m);
    m
}

fn main() {
    // ---- fan ----
    for scenario in [
        FanScenario::Sudden,
        FanScenario::Gradual,
        FanScenario::Reoccurring,
    ] {
        let d = fan_dataset(scenario);
        let pairs: Vec<(usize, &[Real])> =
            d.train.iter().map(|s| (s.label, s.x.as_slice())).collect();
        let trained = CentroidSet::from_labeled(d.classes, d.dim(), &pairs).unwrap();
        let theta = calibrate_drift_threshold(&trained, &pairs, DistanceMetric::L1, 1.0).unwrap();
        // Damaged-segment centroid distance from trained.
        let seg: Vec<&[Real]> = match scenario {
            FanScenario::Sudden => d.test[200..600].iter().map(|s| s.x.as_slice()).collect(),
            FanScenario::Gradual => d.test[600..].iter().map(|s| s.x.as_slice()).collect(),
            FanScenario::Reoccurring => d.test[120..170].iter().map(|s| s.x.as_slice()).collect(),
        };
        let seg_centroid = centroid_of(&seg);
        let diff = vector::dist_l1(&seg_centroid, trained.centroid(0).unwrap());
        println!(
            "{:?}: theta_drift = {theta:.2}, damaged diff = {diff:.2}, ratio = {:.2}",
            scenario,
            diff / theta
        );
        for w in [10usize, 50, 150] {
            let r = run_method(
                &MethodSpec::Proposed { window: w },
                &d,
                &RunOptions {
                    hidden: 22,
                    seed: 42,
                    accuracy_window: 100,
                },
            );
            println!(
                "  W={w}: delay {:?}, detections {:?}, fp {}",
                r.delay, r.detections, r.false_positives
            );
        }
    }

    // ---- nsl-kdd ----
    let d = nslkdd_dataset(Scale::Quick);
    let pairs: Vec<(usize, &[Real])> = d.train.iter().map(|s| (s.label, s.x.as_slice())).collect();
    let trained = CentroidSet::from_labeled(d.classes, d.dim(), &pairs).unwrap();
    let theta = calibrate_drift_threshold(&trained, &pairs, DistanceMetric::L1, 1.0).unwrap();
    let post: Vec<&[Real]> = d.test[d.drift_start..]
        .iter()
        .map(|s| s.x.as_slice())
        .collect();
    let post_centroid = centroid_of(&post);
    let d0 = vector::dist_l1(&post_centroid, trained.centroid(0).unwrap());
    let d1 = vector::dist_l1(&post_centroid, trained.centroid(1).unwrap());
    println!("nslkdd: theta = {theta:.2}, post-mix diff to c0 = {d0:.2}, to c1 = {d1:.2}");
    for spec in [
        MethodSpec::Proposed { window: 100 },
        MethodSpec::BaselineNoDetect,
        MethodSpec::QuantTree {
            batch: 160,
            bins: 32,
        },
        MethodSpec::Spll { batch: 160 },
        MethodSpec::Onlad { forgetting: 0.97 },
    ] {
        let r = run_method(
            &spec,
            &d,
            &RunOptions {
                hidden: 22,
                seed: 42,
                accuracy_window: 500,
            },
        );
        println!(
            "  {}: acc {:.1}%, delay {:?}, fp {}, detections {:?}",
            r.method,
            r.accuracy_pct(),
            r.delay,
            r.false_positives,
            &r.detections[..r.detections.len().min(6)]
        );
    }
}
