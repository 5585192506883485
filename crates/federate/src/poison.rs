//! Seeded deterministic model-poisoning injector — the federation
//! counterpart of the fleet's `FaultInjector`, the server's `ChaosProxy`
//! and the store's `FaultVfs`.
//!
//! Every corruption a [`PoisonInjector`] applies is *statistically
//! plausible*: finite, positive-definite, within the trace bound, fresh
//! — it sails through every overt health gate the federator runs. Only
//! the robust two-pass merge (deviation scoring against the geometric-
//! median centre) can tell it from an honest contribution. That is the
//! point: the injector exists to prove the robust path has teeth, with
//! corruption decisions pure in `(seed, session, round)` so a poisoning
//! scenario replays bit-identically from its seed.
//!
//! Four corruption shapes, mirroring real adversarial / broken devices:
//!
//! * **Scaled β** — the output weights multiplied by a constant factor: a
//!   miscalibrated sensor whose readings are consistently off-scale.
//! * **Rotated Gram** — `P → G P Gᵀ` by Givens rotations (SPD and trace
//!   preserved), with `β` rotated to match: internally consistent
//!   statistics that describe a feature space nobody else lives in.
//! * **Slow bias** — a per-round ramp added to `β`: the stealthy
//!   poisoner that starts under every threshold and grows.
//! * **Colluding** — a β shift derived from the *seed only*, shared by
//!   every colluding victim: coordinated devices that agree with each
//!   other, hoping to out-vote the honest majority.

use seqdrift_linalg::rng::mix64;
use seqdrift_linalg::{Matrix, Real, Rng};
use seqdrift_oselm::{Autoencoder, MultiInstanceModel, OsElm};
use std::collections::BTreeMap;

/// How one victim session corrupts its contributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoisonMode {
    /// Multiply `β` by this factor.
    ScaledBeta(Real),
    /// Conjugate `P` (and rotate `β`) by seeded Givens rotations.
    RotatedGram,
    /// Add a seeded unit direction to `β`, scaled up every round.
    SlowBias,
    /// Add the fleet-wide colluder shift (derived from the seed only) to
    /// `β`, so all colluders move together.
    Colluding,
}

impl std::fmt::Display for PoisonMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoisonMode::ScaledBeta(factor) => write!(f, "scaled-beta x{factor:.2}"),
            PoisonMode::RotatedGram => write!(f, "rotated-gram"),
            PoisonMode::SlowBias => write!(f, "slow-bias ramp"),
            PoisonMode::Colluding => write!(f, "colluding shift"),
        }
    }
}

/// Deterministic model-poisoning plan over a set of victim sessions.
#[derive(Debug, Clone)]
pub struct PoisonInjector {
    seed: u64,
    victims: BTreeMap<u64, PoisonMode>,
}

/// Splitmix-style mixer so per-(session, round) randomness is
/// independent of victim iteration order.
fn mix(seed: u64, session: u64, round: u64) -> u64 {
    mix64(
        seed.wrapping_add(session.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    )
}

impl PoisonInjector {
    /// Builds an injector from an explicit victim plan.
    pub fn new(seed: u64, plan: Vec<(u64, PoisonMode)>) -> Self {
        PoisonInjector {
            seed,
            victims: plan.into_iter().collect(),
        }
    }

    /// Derives a poisoning plan from a seed: 10–20% of `sessions` become
    /// victims (at least one), each with a seeded corruption mode.
    /// Identical `(seed, sessions)` always derive the identical plan.
    pub fn from_seed(seed: u64, sessions: &[u64]) -> Self {
        let mut rng = Rng::seed_from(seed ^ 0x5E0D_F00D);
        let fraction = 0.10 + rng.uniform() * 0.10;
        let count =
            ((sessions.len() as Real * fraction).round() as usize).clamp(1, sessions.len().max(1));
        let mut pool: Vec<u64> = sessions.to_vec();
        let mut victims = BTreeMap::new();
        for _ in 0..count {
            if pool.is_empty() {
                break;
            }
            let idx = rng.below(pool.len() as u64) as usize;
            let session = pool.swap_remove(idx);
            let mode = match rng.below(4) {
                0 => PoisonMode::ScaledBeta(2.0 + rng.uniform() * 4.0),
                1 => PoisonMode::RotatedGram,
                2 => PoisonMode::SlowBias,
                _ => PoisonMode::Colluding,
            };
            victims.insert(session, mode);
        }
        PoisonInjector { seed, victims }
    }

    /// The seed this plan derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Victim sessions, ascending.
    pub fn victims(&self) -> Vec<u64> {
        self.victims.keys().copied().collect()
    }

    /// The full plan.
    pub fn plan(&self) -> &BTreeMap<u64, PoisonMode> {
        &self.victims
    }

    /// One victim per line, for CLI output.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (session, mode) in &self.victims {
            out.push_str(&format!("  session {session}: {mode}\n"));
        }
        out
    }

    /// Corrupts a victim's contribution for `round`. Returns `None` for
    /// non-victims (the model passes through untouched) and for
    /// corruption shapes that degenerate on this model (never expected
    /// for initialised contributors). Pure in `(seed, session, round)`
    /// and the input model.
    pub fn corrupt(
        &self,
        session: u64,
        round: u64,
        model: &MultiInstanceModel,
    ) -> Option<MultiInstanceModel> {
        let mode = *self.victims.get(&session)?;
        let mut rng = Rng::seed_from(mix(self.seed, session, round));
        let mut instances = Vec::with_capacity(model.classes());
        for label in 0..model.classes() {
            let inst = model.instance(label).ok()?;
            let net = inst.network();
            let corrupted = match mode {
                PoisonMode::ScaledBeta(factor) => scale_beta(net, factor),
                PoisonMode::RotatedGram => rotate_gram(net, &mut rng),
                PoisonMode::SlowBias => shift_beta(net, &mut rng, 0.25 * (round + 1) as Real),
                PoisonMode::Colluding => {
                    // The shift direction comes from the seed alone, so
                    // every colluder (and every round) pushes the merge
                    // toward the same wrong model.
                    let mut shared = Rng::seed_from(mix(self.seed, 0, 0) ^ 0xC011_0DE5);
                    shift_beta(net, &mut shared, 1.5)
                }
            }?;
            instances.push(Autoencoder::from_network(corrupted, inst.metric()).ok()?);
        }
        MultiInstanceModel::from_instances(instances).ok()
    }
}

/// Rebuilds a network with new `P`/`β` buffers, preserving the frozen
/// hidden layer and sample count — exactly what a lying device would
/// transmit.
fn rebuild(net: &OsElm, p: Vec<Real>, beta: Vec<Real>) -> Option<OsElm> {
    OsElm::from_parts(
        net.config().clone(),
        net.weights().as_slice().to_vec(),
        net.biases().to_vec(),
        p,
        beta,
        true,
        net.samples_seen(),
    )
    .ok()
}

fn scale_beta(net: &OsElm, factor: Real) -> Option<OsElm> {
    let beta: Vec<Real> = net.beta().as_slice().iter().map(|v| v * factor).collect();
    rebuild(net, net.p().as_slice().to_vec(), beta)
}

/// `β += dir * magnitude * ‖β‖ / ‖dir‖` with `dir` drawn from `rng`.
fn shift_beta(net: &OsElm, rng: &mut Rng, magnitude: Real) -> Option<OsElm> {
    let beta = net.beta().as_slice();
    let beta_norm = beta.iter().map(|v| v * v).sum::<Real>().sqrt().max(1e-3);
    let mut dir: Vec<Real> = vec![0.0; beta.len()];
    rng.fill_normal(&mut dir, 0.0, 1.0);
    let dir_norm = dir.iter().map(|v| v * v).sum::<Real>().sqrt().max(1e-12);
    let scale = magnitude * beta_norm / dir_norm;
    let shifted: Vec<Real> = beta.iter().zip(&dir).map(|(v, d)| v + d * scale).collect();
    rebuild(net, net.p().as_slice().to_vec(), shifted)
}

/// `P → G P Gᵀ`, `β → G β` for a handful of seeded Givens rotations.
/// Symmetry, positive-definiteness and the trace are all preserved — the
/// statistics are internally consistent, just not about the data anyone
/// else saw.
fn rotate_gram(net: &OsElm, rng: &mut Rng) -> Option<OsElm> {
    let mut p = net.p().clone();
    let mut beta = net.beta().clone();
    let n = p.shape().0;
    if n < 2 {
        return None;
    }
    let rotations = 2 + (rng.below(3) as usize);
    for _ in 0..rotations {
        let i = rng.below(n as u64) as usize;
        let mut j = rng.below((n - 1) as u64) as usize;
        if j >= i {
            j += 1;
        }
        let theta = rng.uniform_range(0.6, 2.5);
        givens_conjugate(&mut p, i, j, theta);
        givens_rows(&mut beta, i, j, theta);
    }
    rebuild(net, p.as_slice().to_vec(), beta.as_slice().to_vec())
}

/// Applies the Givens rotation `G(i, j, θ)` to rows `i`,`j` of `m`.
fn givens_rows(m: &mut Matrix, i: usize, j: usize, theta: Real) {
    let (c, s) = (theta.cos(), theta.sin());
    let cols = m.shape().1;
    for col in 0..cols {
        let (a, b) = (m.get(i, col), m.get(j, col));
        m.set(i, col, c * a - s * b);
        m.set(j, col, s * a + c * b);
    }
}

/// `m → G m Gᵀ`: the row rotation followed by the matching column
/// rotation.
fn givens_conjugate(m: &mut Matrix, i: usize, j: usize, theta: Real) {
    givens_rows(m, i, j, theta);
    let (c, s) = (theta.cos(), theta.sin());
    let rows = m.shape().0;
    for row in 0..rows {
        let (a, b) = (m.get(row, i), m.get(row, j));
        m.set(row, i, c * a - s * b);
        m.set(row, j, s * a + c * b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::cholesky::Cholesky;
    use seqdrift_oselm::OsElmConfig;

    fn trained() -> MultiInstanceModel {
        let mut rng = Rng::seed_from(5);
        let rows: Vec<Vec<Real>> = (0..80)
            .map(|_| {
                let mut x = vec![0.0; 4];
                rng.fill_normal(&mut x, 0.3, 0.05);
                x
            })
            .collect();
        let mut m = MultiInstanceModel::new(1, OsElmConfig::new(4, 3).with_seed(1)).unwrap();
        m.init_train_class(0, &rows).unwrap();
        m
    }

    /// `--poison 99` replays the same attack only while the plan and the
    /// per-(session, round) seeds stay fixed.
    #[test]
    fn seed_99_replays_the_documented_plan() {
        let eight: Vec<u64> = (0..8).collect();
        let plan = PoisonInjector::from_seed(99, &eight);
        assert_eq!(
            format!("{:?}", plan.plan()),
            "{3: RotatedGram, 6: Colluding}"
        );
        let fifty: Vec<u64> = (0..50).collect();
        assert_eq!(
            format!("{:?}", PoisonInjector::from_seed(99, &fifty).plan()),
            "{0: Colluding, 16: SlowBias, 19: Colluding, 20: SlowBias, 24: RotatedGram, \
             25: RotatedGram, 32: Colluding, 40: SlowBias, 41: SlowBias, 44: Colluding}"
        );
        assert_eq!(
            [mix(99, 0, 0), mix(99, 3, 2), mix(7, 41, 0)],
            [
                0x79ce_5dc9_7509_c089,
                0x6c41_b6e4_8539_d61f,
                0xa4d4_f048_89d2_0de1,
            ]
        );
    }

    #[test]
    fn plans_are_deterministic_and_bounded() {
        let sessions: Vec<u64> = (0..50).collect();
        let a = PoisonInjector::from_seed(77, &sessions);
        let b = PoisonInjector::from_seed(77, &sessions);
        assert_eq!(a.plan(), b.plan());
        let n = a.victims().len();
        assert!(
            (5..=10).contains(&n),
            "10-20% of 50 sessions, got {n}: {:?}",
            a.victims()
        );
        let c = PoisonInjector::from_seed(78, &sessions);
        assert_ne!(a.plan(), c.plan(), "different seeds, different plans");
        assert!(!a.describe().is_empty());
    }

    #[test]
    fn corruption_is_pure_in_seed_session_round() {
        let model = trained();
        let inj = PoisonInjector::new(9, vec![(3, PoisonMode::RotatedGram)]);
        let x = inj.corrupt(3, 2, &model).unwrap();
        let y = inj.corrupt(3, 2, &model).unwrap();
        let (nx, ny) = (
            x.instance(0).unwrap().network(),
            y.instance(0).unwrap().network(),
        );
        assert_eq!(nx.p().as_slice(), ny.p().as_slice());
        assert_eq!(nx.beta().as_slice(), ny.beta().as_slice());
        // Non-victims pass through.
        assert!(inj.corrupt(4, 2, &model).is_none());
    }

    #[test]
    fn corruptions_pass_overt_gates() {
        let model = trained();
        let net = model.instance(0).unwrap().network();
        let honest_trace: Real = (0..net.p().shape().0).map(|i| net.p().get(i, i)).sum();
        for (idx, mode) in [
            PoisonMode::ScaledBeta(4.0),
            PoisonMode::RotatedGram,
            PoisonMode::SlowBias,
            PoisonMode::Colluding,
        ]
        .into_iter()
        .enumerate()
        {
            let inj = PoisonInjector::new(100 + idx as u64, vec![(1, mode)]);
            let poisoned = inj.corrupt(1, 0, &model).unwrap();
            let pn = poisoned.instance(0).unwrap().network();
            assert!(
                pn.p().as_slice().iter().all(|v| v.is_finite()),
                "{mode}: P must stay finite"
            );
            assert!(
                pn.beta().as_slice().iter().all(|v| v.is_finite()),
                "{mode}: beta must stay finite"
            );
            assert!(
                Cholesky::factor(pn.p()).is_ok(),
                "{mode}: P must stay positive definite"
            );
            let trace: Real = (0..pn.p().shape().0).map(|i| pn.p().get(i, i)).sum();
            assert!(
                trace <= honest_trace * 2.0,
                "{mode}: trace must stay in the honest range"
            );
            assert_eq!(pn.samples_seen(), net.samples_seen(), "{mode}: looks fresh");
            // And the corruption actually changed the statistics.
            let changed = pn.beta().as_slice() != net.beta().as_slice()
                || pn.p().as_slice() != net.p().as_slice();
            assert!(changed, "{mode}: must actually corrupt");
        }
    }

    #[test]
    fn slow_bias_ramps_with_round() {
        let model = trained();
        let inj = PoisonInjector::new(11, vec![(2, PoisonMode::SlowBias)]);
        let honest = model.instance(0).unwrap().network().beta().clone();
        let dist = |m: &MultiInstanceModel| -> Real {
            m.instance(0)
                .unwrap()
                .network()
                .beta()
                .as_slice()
                .iter()
                .zip(honest.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<Real>()
                .sqrt()
        };
        let early = dist(&inj.corrupt(2, 0, &model).unwrap());
        let late = dist(&inj.corrupt(2, 7, &model).unwrap());
        assert!(late > early * 2.0, "ramp: early {early}, late {late}");
    }

    #[test]
    fn colluders_share_their_shift() {
        let model = trained();
        let inj = PoisonInjector::new(
            13,
            vec![(1, PoisonMode::Colluding), (2, PoisonMode::Colluding)],
        );
        let a = inj.corrupt(1, 0, &model).unwrap();
        let b = inj.corrupt(2, 3, &model).unwrap();
        assert_eq!(
            a.instance(0).unwrap().network().beta().as_slice(),
            b.instance(0).unwrap().network().beta().as_slice(),
            "colluders submit the same wrong beta regardless of session/round"
        );
    }
}
