//! Table 6 — per-sample execution-time breakdown of the proposed method.
//!
//! Measures the six operations of Algorithms 1–4 in isolation on the fan
//! configuration (511 features, 22 hidden nodes, 2 instances — the Pico
//! demo's shape), on the host, and projects onto the Pico with the edgesim
//! slowdown model. The paper's structural claims — label prediction
//! dominates; the detection-specific operations (distance computation,
//! coordinate updates) cost *less* than one prediction; retraining with
//! label prediction ≈ prediction + retraining without — are
//! projection-invariant. Row 4 runs the pipeline's path, where training
//! reuses the prediction's forward pass, as the paper's firmware does.

use crate::report::Table;
use seqdrift_core::centroid::CentroidSet;
use seqdrift_core::DistanceMetric;
use seqdrift_edgesim::{TimingProjection, PICO};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use std::time::{Duration, Instant};

/// Feature count of the fan configuration.
pub const DIM: usize = 511;
/// Hidden nodes (paper: 22).
pub const HIDDEN: usize = 22;
/// Instances (the multi-instance model of the Pico demo).
pub const CLASSES: usize = 2;

/// Times `f` over `reps` calls, returning the mean duration.
fn time_op(reps: usize, mut f: impl FnMut()) -> Duration {
    // Warm-up pass keeps first-touch page faults out of the measurement.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed() / reps as u32
}

/// Measures the six Table 6 operations. `reps` trades precision for time
/// (tests use a small value; the repro binary a large one).
pub fn measure(reps: usize, seed: u64) -> Vec<TimingProjection> {
    let mut rng = Rng::seed_from(seed);
    // Model setup: two instances on 511-dim data.
    let mut model =
        MultiInstanceModel::new(CLASSES, OsElmConfig::new(DIM, HIDDEN).with_seed(seed)).unwrap();
    let make_blob = |mean: Real, rng: &mut Rng| -> Vec<Vec<Real>> {
        (0..60)
            .map(|_| {
                let mut x = vec![0.0; DIM];
                rng.fill_normal(&mut x, mean, 0.05);
                x
            })
            .collect()
    };
    let blob0 = make_blob(0.3, &mut rng);
    let blob1 = make_blob(0.7, &mut rng);
    model.init_train_class(0, &blob0).unwrap();
    model.init_train_class(1, &blob1).unwrap();

    let mut trained = CentroidSet::zeros(CLASSES, DIM);
    trained.set_centroid(0, &blob0[0]).unwrap();
    trained.set_centroid(1, &blob1[0]).unwrap();
    trained.set_count(0, 60);
    trained.set_count(1, 60);
    let mut test_set = trained.clone();

    let mut x = vec![0.0; DIM];
    rng.fill_normal(&mut x, 0.4, 0.1);

    let mut out = Vec::new();

    // 1. Label prediction (Algorithm 1 line 6).
    let mut m1 = model.clone();
    out.push(TimingProjection::new(
        "Label prediction",
        time_op(reps, || {
            std::hint::black_box(m1.predict(&x).unwrap());
        }),
    ));

    // 2. Distance computation (Algorithm 1 line 14) + centroid update.
    out.push(TimingProjection::new(
        "Distance computation",
        time_op(reps, || {
            test_set.update(0, &x).unwrap();
            std::hint::black_box(test_set.distance_to(&trained, DistanceMetric::L1));
        }),
    ));

    // 3. Model retraining without label prediction (Algorithm 2 lines 8–9).
    let mut m3 = model.clone();
    let cor = trained.clone();
    out.push(TimingProjection::new(
        "Model retraining without label prediction",
        time_op(reps, || {
            let label = cor.nearest_label(&x);
            m3.seq_train_label(label, &x).unwrap();
        }),
    ));

    // 4. Model retraining with label prediction (Algorithm 2 lines 11–12),
    // on the pipeline's path: the update reuses the prediction's forward
    // pass, so this row costs about row 1 plus the update alone.
    let mut m4 = model.clone();
    out.push(TimingProjection::new(
        "Model retraining with label prediction",
        time_op(reps, || {
            let p = m4.predict(&x).unwrap();
            m4.seq_train_predicted(&p, p.label, &x).unwrap();
        }),
    ));

    // 5. Label coordinates initialisation (Algorithm 3): for each class,
    // trial-replace the coordinate and evaluate the pairwise spread.
    let mut cor5 = trained.clone();
    let mut tmp = vec![0.0; DIM];
    out.push(TimingProjection::new(
        "Label coordinates initialization",
        time_op(reps, || {
            let baseline = cor5.pairwise_distance_sum();
            let mut best: Option<(usize, Real)> = None;
            for c in 0..CLASSES {
                tmp.copy_from_slice(cor5.centroid(c).unwrap());
                cor5.set_centroid(c, &x).unwrap();
                let d = cor5.pairwise_distance_sum();
                cor5.set_centroid(c, &tmp).unwrap();
                if d > baseline && best.is_none_or(|(_, bd)| d > bd) {
                    best = Some((c, d));
                }
            }
            std::hint::black_box(best);
        }),
    ));

    // 6. Label coordinates update (Algorithm 4).
    let mut cor6 = trained.clone();
    out.push(TimingProjection::new(
        "Label coordinates update",
        time_op(reps, || {
            let label = cor6.nearest_label(&x);
            cor6.update(label, &x).unwrap();
        }),
    ));

    out
}

/// Builds Table 6 with both projection models: the wall-clock slowdown
/// (every op scaled identically) and the analytic flop model (each op
/// scaled by its own arithmetic — closer to how an FPU-less MCU actually
/// reweights the rows; see `seqdrift_edgesim::flops`).
pub fn run(_scale: super::Scale) -> Vec<Table> {
    use seqdrift_edgesim::flops::TABLE6_OPS;
    let reps = 200;
    let measurements = measure(reps, 42);
    let mut t = Table::new(
        "Table 6: execution time breakdown for 1 sample (host-measured, Pico projected)",
        &[
            "operation",
            "host (µs)",
            "Pico wall-clock model (ms)",
            "Pico flop model (ms)",
        ],
    );
    for (m, op) in measurements.iter().zip(TABLE6_OPS.iter()) {
        debug_assert_eq!(m.label, op.label());
        let flop_ms =
            seqdrift_edgesim::project_op(*op, CLASSES as u64, DIM as u64, HIDDEN as u64, &PICO)
                .as_secs_f64()
                * 1e3;
        t.push_row(vec![
            m.label.clone(),
            format!("{:.1}", m.host.as_secs_f64() * 1e6),
            format!("{:.2}", m.on_ms(&PICO)),
            format!("{flop_ms:.2}"),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn med(reps: usize) -> Vec<TimingProjection> {
        measure(reps, 7)
    }

    #[test]
    fn six_operations_measured() {
        let m = med(10);
        assert_eq!(m.len(), 6);
        for t in &m {
            assert!(t.host.as_nanos() > 0, "{} measured as zero", t.label);
        }
    }

    #[test]
    fn detection_ops_cheaper_than_prediction() {
        // The paper's headline for Table 6: "the additional computation
        // time for the concept drift detection is less than the label
        // prediction time". Median of 3 to de-noise.
        let mut ratios_dist = Vec::new();
        let mut ratios_upd = Vec::new();
        for _ in 0..3 {
            let m = med(30);
            let get = |needle: &str| -> f64 {
                m.iter()
                    .find(|t| t.label.contains(needle))
                    .unwrap()
                    .host
                    .as_secs_f64()
            };
            let pred = get("Label prediction");
            ratios_dist.push(get("Distance computation") / pred);
            ratios_upd.push(get("coordinates update") / pred);
        }
        ratios_dist.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ratios_upd.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            ratios_dist[1] < 1.0,
            "distance computation {}x of prediction",
            ratios_dist[1]
        );
        assert!(
            ratios_upd[1] < 1.0,
            "coordinate update {}x of prediction",
            ratios_upd[1]
        );
    }

    #[test]
    fn retraining_with_prediction_costs_more_than_without() {
        let mut ratios = Vec::new();
        for _ in 0..3 {
            let m = med(30);
            let get = |needle: &str| -> f64 {
                m.iter()
                    .find(|t| t.label.contains(needle))
                    .unwrap()
                    .host
                    .as_secs_f64()
            };
            ratios.push(get("with label prediction") / get("without label prediction"));
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            ratios[1] > 1.0,
            "with-prediction retraining not slower: {}x",
            ratios[1]
        );
    }

    #[test]
    fn table_renders() {
        let tables = run(super::super::Scale::Quick);
        assert_eq!(tables[0].len(), 6);
    }
}
