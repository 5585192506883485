//! Same-bits oracles for the one-forward-pass training path.
//!
//! `MultiInstanceModel::seq_train_predicted` reuses the hidden activation
//! and reconstruction a prediction left behind, writes the new `β` into a
//! second buffer and commits by swapping, and `scores_into` interleaves the
//! instances' distance sums. All of it promises the bits of the plain
//! path. The references below are that plain path as it stood before:
//! `seq_train` recomputing `h` and `βᵀh`, backing up and restoring both
//! `P` and `β`, and one `predict_into` plus one distance per instance. They
//! are kept verbatim as the oracle and run on copies of the same state.

use crate::autoencoder::{Autoencoder, ScoreMetric};
use crate::multi_instance::MultiInstanceModel;
use crate::oselm::{OsElm, OsElmConfig};
use crate::{ModelError, Result};
use seqdrift_linalg::{vector, Matrix, Real, Rng};

/// The state `seq_train` touches, advanced by the pre-change algorithm.
struct Reference {
    /// Supplies the frozen hidden layer (`W`, `b` never change).
    net: OsElm,
    p: Matrix,
    beta: Matrix,
    seen: u64,
    rejected: u32,
}

impl Reference {
    fn of(net: &OsElm) -> Self {
        Reference {
            net: net.clone(),
            p: net.p().clone(),
            beta: net.beta().clone(),
            seen: net.samples_seen(),
            rejected: net.rejected_updates(),
        }
    }

    /// `OsElm::seq_train` as it was: copy `P` and `β`, recompute `h` and
    /// `βᵀh`, update both in place, scan both, copy back on rejection.
    fn seq_train(&mut self, x: &[Real], t: &[Real]) -> Result<()> {
        let cfg = self.net.config().clone();
        let backup_p = self.p.clone();
        let backup_beta = self.beta.clone();
        let seen_before = self.seen;
        let mut h = vec![0.0; cfg.hidden_dim];
        let mut err = vec![0.0; cfg.output_dim];
        let mut ph = vec![0.0; cfg.hidden_dim];
        let mut hp = vec![0.0; cfg.hidden_dim];
        let result = (|| -> Result<()> {
            self.net.hidden_into(x, &mut h)?;
            self.beta.tr_matvec_into(&h, &mut err)?;
            for (e, &ti) in err.iter_mut().zip(t.iter()) {
                *e = ti - *e;
            }
            self.p.matvec_into(&h, &mut ph)?;
            self.p.tr_matvec_into(&h, &mut hp)?;
            match cfg.forgetting {
                None => {
                    let denom = 1.0 + vector::dot(&h, &ph);
                    if denom <= 0.0 || !denom.is_finite() {
                        return Err(ModelError::Linalg(
                            seqdrift_linalg::LinalgError::NotPositiveDefinite,
                        ));
                    }
                    self.p.add_outer(-1.0 / denom, &ph, &hp)?;
                }
                Some(alpha) => {
                    let denom = alpha + vector::dot(&h, &ph);
                    if denom <= 0.0 || !denom.is_finite() {
                        return Err(ModelError::Linalg(
                            seqdrift_linalg::LinalgError::NotPositiveDefinite,
                        ));
                    }
                    self.p.add_outer(-1.0 / denom, &ph, &hp)?;
                    self.p.scale(1.0 / alpha);
                }
            }
            self.p.matvec_into(&h, &mut ph)?;
            self.beta.add_outer(1.0, &ph, &err)?;
            self.seen += 1;
            Ok(())
        })();
        let why = match result {
            Ok(()) => {
                let trace: Real = (0..cfg.hidden_dim).map(|i| self.p.get(i, i)).sum();
                let sane = trace.is_finite()
                    && trace <= OsElm::P_TRACE_BOUND
                    && self.p.as_slice().iter().all(|v| v.is_finite())
                    && self.beta.as_slice().iter().all(|v| v.is_finite());
                if sane {
                    self.rejected = 0;
                    return Ok(());
                }
                "update produced non-finite or divergent P/beta"
            }
            Err(ModelError::Linalg(seqdrift_linalg::LinalgError::NotPositiveDefinite)) => {
                "gain denominator not positive-finite"
            }
            Err(e) => return Err(e),
        };
        self.p = backup_p;
        self.beta = backup_beta;
        self.seen = seen_before;
        self.rejected += 1;
        if self.rejected >= OsElm::MAX_REJECTED_UPDATES {
            self.rejected = 0;
            let lambda = if cfg.lambda > 0.0 { cfg.lambda } else { 1.0 };
            self.p.fill_zero();
            for i in 0..cfg.hidden_dim {
                self.p.set(i, i, 1.0 / lambda);
            }
        }
        Err(ModelError::RejectedUpdate(why))
    }

    fn assert_matches(&self, net: &OsElm, what: &str) {
        assert_same_bits(net.p().as_slice(), self.p.as_slice(), &format!("{what}: P"));
        assert_same_bits(
            net.beta().as_slice(),
            self.beta.as_slice(),
            &format!("{what}: beta"),
        );
        assert_eq!(net.samples_seen(), self.seen, "{what}: samples_seen");
        assert_eq!(net.rejected_updates(), self.rejected, "{what}: rejected");
    }
}

/// `Autoencoder::score` as it was: one `predict_into`, one distance.
fn reference_score(inst: &Autoencoder, x: &[Real]) -> Real {
    let mut net = inst.network().clone();
    let mut recon = vec![0.0; x.len()];
    net.predict_into(x, &mut recon).unwrap();
    let d = x.len() as Real;
    match inst.metric() {
        ScoreMetric::MeanSquared => vector::dist_l2_sq(&recon, x) / d,
        ScoreMetric::MeanAbsolute => vector::dist_l1(&recon, x) / d,
    }
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves the
/// payload of a NaN produced by arithmetic unspecified.
fn assert_same_bits(got: &[Real], want: &[Real], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:e} ({:#x}), reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn blob(rng: &mut Rng, dim: usize, mean: Real) -> Vec<Real> {
    let mut x = vec![0.0; dim];
    rng.fill_normal(&mut x, mean, 0.1);
    x
}

/// A `classes`-instance model with instance `c` trained around `0.2 + 0.3c`.
fn trained(
    classes: usize,
    dim: usize,
    hidden: usize,
    forgetting: Option<Real>,
) -> MultiInstanceModel {
    let mut rng = Rng::seed_from(hidden as u64 * 31 + classes as u64);
    let mut cfg = OsElmConfig::new(dim, hidden).with_seed(dim as u64);
    cfg.forgetting = forgetting;
    let mut m = MultiInstanceModel::new(classes, cfg).unwrap();
    for c in 0..classes {
        let xs: Vec<Vec<Real>> = (0..30)
            .map(|_| blob(&mut rng, dim, 0.2 + 0.3 * c as Real))
            .collect();
        m.init_train_class(c, &xs).unwrap();
    }
    m
}

/// Predict-then-train, reusing the prediction, against the old
/// `seq_train` on a copy: every update, every hidden width mod 4, with and
/// without forgetting, training the winner and a label that did not win.
#[test]
fn seq_train_predicted_matches_the_old_seq_train() {
    for forgetting in [None, Some(0.95)] {
        for hidden in [8, 9, 10, 11, 20, 21, 22, 23] {
            let mut m = trained(2, 13, hidden, forgetting);
            let mut refs: Vec<Reference> = (0..2)
                .map(|c| Reference::of(m.instance(c).unwrap().network()))
                .collect();
            let mut rng = Rng::seed_from(hidden as u64);
            for step in 0..60 {
                let x = blob(&mut rng, 13, 0.2 + 0.01 * step as Real);
                let p = m.predict(&x).unwrap();
                assert!(m.is_current(&p));
                // Every third update trains the other instance, as
                // reconstruction's distance-labelled phase does.
                let label = if step % 3 == 2 { 1 - p.label } else { p.label };
                let got = m.seq_train_predicted(&p, label, &x);
                let want = refs[label].seq_train(&x, &x);
                let what = format!("H = {hidden}, forgetting {forgetting:?}, step {step}");
                assert_eq!(got, want, "{what}");
                for (c, r) in refs.iter().enumerate() {
                    r.assert_matches(m.instance(c).unwrap().network(), &format!("{what}, {c}"));
                }
            }
        }
    }
}

/// The full path (`seq_train` computing its own `h` and `βᵀh`) also keeps
/// the old bits.
#[test]
fn uncached_seq_train_matches_the_old_seq_train() {
    for forgetting in [None, Some(0.9)] {
        for hidden in [4, 5, 6, 7] {
            let mut net = trained(1, 9, hidden, forgetting)
                .instance(0)
                .unwrap()
                .network()
                .clone();
            let mut reference = Reference::of(&net);
            let mut rng = Rng::seed_from(7 + hidden as u64);
            for step in 0..40 {
                let x = blob(&mut rng, 9, 0.5);
                let what = format!("H = {hidden}, forgetting {forgetting:?}, step {step}");
                assert_eq!(net.seq_train(&x, &x), reference.seq_train(&x, &x), "{what}");
                reference.assert_matches(&net, &what);
            }
        }
    }
}

/// An input-to-output network (not an autoencoder), trained, and
/// primed by one prediction of `x` into the returned `y`.
fn primed(hidden: usize, forgetting: Option<Real>, x: &[Real]) -> (OsElm, Vec<Real>) {
    let mut rng = Rng::seed_from(3);
    let mut cfg = OsElmConfig::new(x.len(), hidden)
        .with_output_dim(6)
        .with_seed(11);
    cfg.forgetting = forgetting;
    let mut net = OsElm::new(cfg).unwrap();
    let xs: Vec<Vec<Real>> = (0..30).map(|_| blob(&mut rng, x.len(), 0.5)).collect();
    let ts: Vec<Vec<Real>> = (0..30).map(|_| blob(&mut rng, 6, 0.0)).collect();
    net.init_train(&xs, &ts).unwrap();
    let mut y = vec![0.0; 6];
    net.predict_into(x, &mut y).unwrap();
    (net, y)
}

/// Rejections: a non-finite residual and a divergent or indefinite
/// `P`. `β` stays bit-identical (nothing of the spare buffer shows),
/// `P` is restored, and after three rejections in a row `P` re-seeds —
/// all exactly as the old path did.
#[test]
fn rejected_updates_leave_beta_untouched_and_match_the_old_path() {
    let x: Vec<Real> = (0..7).map(|i| 0.1 * i as Real).collect();
    for bad in [Real::NAN, Real::INFINITY, Real::NEG_INFINITY] {
        for at in [0, 3, 5] {
            let (mut net, mut y) = primed(10, None, &x);
            let mut reference = Reference::of(&net);
            let beta_before = net.beta().as_slice().to_vec();
            let mut t = vec![0.25; 6];
            t[at] = bad;
            let got = net.seq_train_predicted(&x, &t, &mut y);
            assert_eq!(got, reference.seq_train(&x, &t));
            assert!(matches!(got, Err(ModelError::RejectedUpdate(_))), "{got:?}");
            assert_same_bits(net.beta().as_slice(), &beta_before, "beta after rejection");
            reference.assert_matches(&net, &format!("{bad} in err at {at}"));
            // A clean update afterwards overwrites the whole spare buffer:
            // no residue of the rejected β may show.
            let t = vec![0.25; 6];
            assert_eq!(net.seq_train(&x, &t), reference.seq_train(&x, &t));
            reference.assert_matches(&net, &format!("update after {bad} at {at}"));
        }
    }

    // Divergence: `P` at the edge of the trace bound, forgetting α = 0.5
    // doubling it on every update. Indefinite: `P = -I` makes the gain
    // denominator negative.
    let hidden = 8;
    let scales = [
        (OsElm::P_TRACE_BOUND * 0.9 / hidden as Real, Some(0.5)),
        (-1.0, None),
    ];
    for (scale, forgetting) in scales {
        let (net, _) = primed(hidden, forgetting, &x);
        let mut p = Matrix::zeros(hidden, hidden);
        for i in 0..hidden {
            p.set(i, i, scale);
        }
        let mut net = OsElm::from_parts(
            net.config().clone(),
            net.weights().as_slice().to_vec(),
            net.biases().to_vec(),
            p.as_slice().to_vec(),
            net.beta().as_slice().to_vec(),
            true,
            net.samples_seen(),
        )
        .unwrap();
        let mut reference = Reference::of(&net);
        let beta_before = net.beta().as_slice().to_vec();
        let t = vec![0.25; 6];
        for attempt in 0..OsElm::MAX_REJECTED_UPDATES {
            let mut y = vec![0.0; 6];
            net.predict_into(&x, &mut y).unwrap();
            let got = net.seq_train_predicted(&x, &t, &mut y);
            assert!(matches!(got, Err(ModelError::RejectedUpdate(_))), "{got:?}");
            assert_eq!(got, reference.seq_train(&x, &t));
            assert_same_bits(net.beta().as_slice(), &beta_before, "beta");
            reference.assert_matches(&net, &format!("P scale {scale}, attempt {attempt}"));
        }
        // The third rejection re-seeded P to I/λ.
        let lambda = net.config().lambda;
        for i in 0..hidden {
            for j in 0..hidden {
                assert_eq!(net.p().get(i, j), if i == j { 1.0 / lambda } else { 0.0 });
            }
        }
    }
}

/// `scores_into` against one old-style `score` per instance, for
/// C = 1..=5 with mixed metrics (odd C leaves one instance unpaired).
#[test]
fn scores_into_matches_one_score_per_instance() {
    let mut rng = Rng::seed_from(0x5C0E);
    for classes in 1..=5 {
        for dim in [1, 6, 31] {
            let instances = (0..classes)
                .map(|c| {
                    let metric = if c % 3 == 1 {
                        ScoreMetric::MeanAbsolute
                    } else {
                        ScoreMetric::MeanSquared
                    };
                    let cfg = OsElmConfig::new(dim, 5).with_seed(c as u64 + 40);
                    let mut ae = Autoencoder::new(cfg).unwrap().with_metric(metric);
                    let xs: Vec<Vec<Real>> = (0..20).map(|_| blob(&mut rng, dim, 0.5)).collect();
                    ae.init_train(&xs).unwrap();
                    ae
                })
                .collect();
            let mut m = MultiInstanceModel::from_instances(instances).unwrap();
            for _ in 0..10 {
                let x = blob(&mut rng, dim, 0.5);
                let mut got = vec![Real::NAN; classes];
                m.scores_into(&x, &mut got).unwrap();
                let want: Vec<Real> = (0..classes)
                    .map(|c| reference_score(m.instance(c).unwrap(), &x))
                    .collect();
                assert_same_bits(&got, &want, &format!("C = {classes}, dim {dim}"));
            }
        }
    }
}

/// A prediction is reused only while nothing has touched the model:
/// every kind of mutation, and every other model, makes it stale, and the
/// stale path still trains with the old bits.
#[test]
fn stale_predictions_are_never_reused() {
    let x: Vec<Real> = (0..13).map(|i| 0.2 + 0.01 * i as Real).collect();
    let other: Vec<Real> = x.iter().map(|v| v + 0.3).collect();
    type Mutation = fn(&mut MultiInstanceModel, &[Real]);
    let mutations: [(&str, Mutation); 10] = [
        ("predict", |m, y| {
            m.predict(y).unwrap();
        }),
        ("scores_into", |m, y| {
            m.scores_into(y, &mut [0.0; 2]).unwrap();
        }),
        ("seq_train_label", |m, y| m.seq_train_label(0, y).unwrap()),
        ("seq_train_predicted", |m, y| {
            let p = m.predict(y).unwrap();
            m.seq_train_predicted(&p, 1, y).unwrap();
        }),
        ("seq_train_closest", |m, y| {
            m.seq_train_closest(y).unwrap();
        }),
        ("init_train_class", |m, y| {
            m.init_train_class(0, &[y.to_vec(), y.to_vec()]).unwrap()
        }),
        ("init_train_labeled", |m, y| {
            m.init_train_labeled(&[(0, y.to_vec()), (1, y.to_vec())])
                .unwrap()
        }),
        ("reset_plasticity", |m, _| m.reset_plasticity().unwrap()),
        ("instance_mut", |m, _| {
            m.instance_mut(1).unwrap();
        }),
        ("replace with a clone", |m, _| *m = m.clone()),
    ];
    for (what, mutate) in mutations {
        let mut m = trained(2, 13, 9, None);
        let stale = m.predict(&x).unwrap();
        mutate(&mut m, &other);
        assert!(!m.is_current(&stale), "{what}: prediction still current");
        let mut reference = Reference::of(m.instance(stale.label).unwrap().network());
        let got = m.seq_train_predicted(&stale, stale.label, &x);
        assert_eq!(got, reference.seq_train(&x, &x), "{what}");
        reference.assert_matches(m.instance(stale.label).unwrap().network(), what);
    }

    // A prediction from one model is never current on another, however
    // the other was made.
    let mut a = trained(2, 13, 9, None);
    let p = a.predict(&x).unwrap();
    let merged = a.merge_with(&[&a.clone()]).unwrap();
    let rebuilt = MultiInstanceModel::from_instances(
        (0..2).map(|c| a.instance(c).unwrap().clone()).collect(),
    )
    .unwrap();
    for (what, b) in [
        ("clone", a.clone()),
        ("merge", merged),
        ("from_instances", rebuilt),
    ] {
        assert!(!b.is_current(&p), "{what}");
    }
    assert!(a.is_current(&p));
}
