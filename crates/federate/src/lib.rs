#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # seqdrift-federate
//!
//! Cooperative cross-session model merging for the fleet — the
//! fleet-level extension of the paper's on-device pipeline (ROADMAP open
//! item 4). Because OS-ELM is linear in its sufficient statistics, model
//! replicas that diverged by sequential training can be fused
//! *analytically* (Ito et al., arXiv 2002.12301): no gradients, no
//! retraining, one closed-form solve. A drift learned by one device
//! (detected, reconstructed) is propagated to its peers before their own
//! detectors have to fire, cutting the fleet-wide adaptation delay.
//!
//! A [`Federator`] drives rounds against a running
//! [`seqdrift_fleet::FleetEngine`]:
//!
//! 1. **Collect** — snapshot every registered session through the shard
//!    FIFOs (so each snapshot lands at a well-defined stream point) and
//!    decode its model.
//! 2. **Gate** — quarantined or `Degraded` sessions are rejected
//!    (counted in `contributions_rejected`); mid-reconstruction sessions
//!    are skipped for the round; sessions whose model still equals the
//!    current fleet baseline have nothing to contribute and are skipped;
//!    contributors lagging the freshest contributor by more than
//!    [`STALENESS_BOUND`] trained samples are rejected.
//! 3. **Score (Byzantine-robust two-pass)** — with
//!    `FederationConfig::robust` on, each surviving contributor's
//!    stacked (U, c) sufficient statistics are scored against the
//!    iteratively-reweighted geometric-median robust centre
//!    ([`seqdrift_linalg::robust`]); only contributors within
//!    [`DEVIATION_BOUND`] are re-admitted. Outlier verdicts feed a durable
//!    per-session [`ReputationBook`] (exponential trust decay, clean-
//!    round recovery); sessions below the trust floor are excluded from
//!    merging — but still scored, so a repaired device recovers. On
//!    outlier-free rounds every contributor is re-admitted and the merge
//!    below is **bit-identical** to the plain path: robustness costs
//!    nothing when nobody is lying.
//! 4. **Merge** — the admitted models are fused with the baseline by
//!    [`MultiInstanceModel::merge_with`], which validates
//!    positive-definiteness and finiteness exactly like `seq_train`'s
//!    transactional path; a merge that fails validation rejects the
//!    whole round, emits `FleetEvent::MergeRoundRejected`, and leaves
//!    the baseline untouched (blast radius zero).
//! 5. **Redistribute** — the merged model is installed into every
//!    healthy session through the same FIFOs ([`FleetEngine`
//!    `install_model`](seqdrift_fleet::FleetEngine::install_model)), and
//!    becomes the new baseline.
//! 6. **Persist** — the merged generation and the updated reputation
//!    book are flushed to the durable store, so a resume after power
//!    loss restores the fleet-wide model *and* the fleet's memory of who
//!    not to trust.
//!
//! Every step is observable through the fleet metrics (`merge_rounds`,
//! `contributions_accepted`, the per-reason `rejected_*` counters,
//! `redistributions`) and the fleet event log.
//!
//! The [`PoisonInjector`] is the proof harness: seeded, deterministic
//! model corruption that passes every overt gate and is caught only by
//! the robust pass. `seqdrift fleet --poison SEED` wires it in.

mod poison;
mod reputation;

pub use poison::{PoisonInjector, PoisonMode};
pub use reputation::{ReputationBook, TRUST_DECAY, TRUST_FLOOR, TRUST_RECOVERY};

use seqdrift_core::{CoreError, DriftPipeline};
use seqdrift_fleet::{
    FederationConfig, FleetEngine, FleetError, MergeRejectReason, RejectReasons, SessionId,
    SessionStatus,
};
use seqdrift_linalg::cholesky::spd_inverse;
use seqdrift_linalg::robust::{deviation_scores, geometric_median};
use seqdrift_linalg::{Matrix, Real};
use seqdrift_oselm::{ModelError, MultiInstanceModel};

/// Maximum per-instance trained-sample lag, against the freshest
/// contributor, that a contribution may have; anything staler is
/// rejected for the round.
pub const STALENESS_BOUND: u64 = 100_000;

/// Deviation-score bound (normalized Frobenius distance from the robust
/// centre; honest contributors cluster near 1) above which a
/// contribution is rejected as an outlier.
pub const DEVIATION_BOUND: Real = 8.0;

/// Federation failures.
#[derive(Debug)]
pub enum FederateError {
    /// The engine was built without `FleetConfig::federation`.
    Disabled,
    /// The reference model blob did not decode.
    BadReference(CoreError),
    /// A fleet control operation failed in a way that is not part of the
    /// per-session gating contract (e.g. the engine is shutting down).
    Fleet(FleetError),
    /// Serialising the merged generation failed.
    Persist(CoreError),
}

impl std::fmt::Display for FederateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederateError::Disabled => {
                write!(f, "federation is not enabled on this fleet engine")
            }
            FederateError::BadReference(e) => write!(f, "reference model rejected: {e}"),
            FederateError::Fleet(e) => write!(f, "fleet operation failed: {e}"),
            FederateError::Persist(e) => write!(f, "persisting merged model failed: {e}"),
        }
    }
}

impl std::error::Error for FederateError {}

impl From<FleetError> for FederateError {
    fn from(e: FleetError) -> Self {
        FederateError::Fleet(e)
    }
}

/// What one federation round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundSummary {
    /// A merged model was produced, redistributed and adopted as the new
    /// baseline.
    pub merged: bool,
    /// Contributions accepted into the merge.
    pub accepted: u64,
    /// Contributions rejected by gating (quarantined, degraded, stale,
    /// outlier, distrusted) or discarded because the merge itself failed
    /// validation. Always equals `reject_reasons.total()`.
    pub rejected: u64,
    /// Per-reason breakdown of `rejected`.
    pub reject_reasons: RejectReasons,
    /// Sessions skipped without prejudice: mid-reconstruction, vanished
    /// mid-round, or bit-identical to the baseline (nothing to
    /// contribute).
    pub skipped: u64,
    /// Sessions the merged model was installed into.
    pub redistributed: u64,
    /// Durable federated generation written, when the engine has a state
    /// dir and the write succeeded.
    pub persisted_generation: Option<u64>,
}

/// Drives federation rounds against one [`FleetEngine`].
///
/// The federator owns the fleet-wide *baseline*: the model every healthy
/// session is expected to hold between rounds. Sessions whose snapshot
/// differs from the baseline have learned something (a reconstruction
/// after drift) and become contributors; after a successful merge the
/// merged model is the new baseline, so the next round starts from a
/// clean slate and never double-counts a contribution.
pub struct Federator {
    cfg: FederationConfig,
    /// Decoded reference pipeline, reused as the serialisation vehicle
    /// for durable merged generations (model swapped in, then encoded).
    reference: DriftPipeline,
    /// The current fleet-wide model.
    baseline: MultiInstanceModel,
    /// Fleet-wide `samples_processed` at the last round, for
    /// interval-based polling.
    last_round_at: u64,
    rounds_run: u64,
    /// Rounds attempted (successful or not) — the `round` coordinate the
    /// poison injector's deterministic corruption keys on.
    rounds_attempted: u64,
    /// Durable per-session trust, restored from the store at build.
    reputation: ReputationBook,
    /// Seeded deterministic model poisoning, for chaos testing only.
    poison: Option<PoisonInjector>,
}

impl Federator {
    /// Builds a federator for `engine` from the fleet's reference model
    /// blob (the calibrated pipeline the sessions were created from).
    /// When the engine's durable store holds a persisted federated
    /// generation, its model is restored as the baseline — the
    /// power-loss resume path for the fleet-wide model.
    pub fn new(engine: &FleetEngine, reference_blob: &[u8]) -> Result<Federator, FederateError> {
        let cfg = *engine.federation().ok_or(FederateError::Disabled)?;
        let reference =
            DriftPipeline::from_bytes(reference_blob).map_err(FederateError::BadReference)?;
        let baseline = match engine.load_federated()? {
            Some(blob) => DriftPipeline::from_bytes(&blob)
                .map_err(FederateError::BadReference)?
                .model()
                .clone(),
            None => reference.model().clone(),
        };
        Ok(Federator {
            cfg,
            reference,
            baseline,
            last_round_at: 0,
            rounds_run: 0,
            rounds_attempted: 0,
            reputation: ReputationBook::from_entries(engine.load_reputations()),
            poison: None,
        })
    }

    /// Arms a seeded deterministic [`PoisonInjector`]: victim sessions'
    /// contributions are corrupted before gating each round, exactly as
    /// an adversarial device would submit them. Chaos testing only.
    pub fn with_poison(mut self, injector: PoisonInjector) -> Self {
        self.poison = Some(injector);
        self
    }

    /// The active federation settings.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// Rounds that produced a merged model so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// The durable per-session trust book.
    pub fn reputation(&self) -> &ReputationBook {
        &self.reputation
    }

    /// The current fleet-wide baseline model.
    pub fn baseline(&self) -> &MultiInstanceModel {
        &self.baseline
    }

    /// Interval-gated round: runs [`Federator::run_round`] when at least
    /// `FederationConfig::interval` fleet-wide samples were processed
    /// since the last round (or since construction). Returns `None` when
    /// the interval has not elapsed. This is what background pollers
    /// call on a timer.
    pub fn maybe_round(
        &mut self,
        engine: &FleetEngine,
    ) -> Result<Option<RoundSummary>, FederateError> {
        let processed = engine.metrics().samples_processed;
        if processed.saturating_sub(self.last_round_at) < self.cfg.interval {
            return Ok(None);
        }
        self.run_round(engine).map(Some)
    }

    /// Runs one federation round now: collect, gate, merge,
    /// redistribute, persist. Infallible per-session outcomes (a session
    /// quarantined mid-round, a reconstruction in progress) are absorbed
    /// into the [`RoundSummary`] counts; only engine-level failures
    /// (shutdown races, store decode of the federator's own state)
    /// surface as errors.
    pub fn run_round(&mut self, engine: &FleetEngine) -> Result<RoundSummary, FederateError> {
        let round_index = self.rounds_attempted;
        self.rounds_attempted += 1;
        let mut summary = RoundSummary::default();
        let mut rejects = RejectReasons::default();
        // Collect + health-gate. Quarantine verdicts come from the
        // registry (pre-seeded from the store ledger at open), degraded
        // health from the snapshot itself.
        let mut candidates: Vec<(SessionId, MultiInstanceModel)> = Vec::new();
        for (id, status) in engine.session_statuses() {
            if matches!(status, SessionStatus::Quarantined(_)) {
                rejects.health += 1;
                continue;
            }
            let blob = match engine.snapshot(id) {
                Ok(blob) => blob,
                // Quarantined between listing and snapshot.
                Err(FleetError::SessionQuarantined(_)) => {
                    rejects.health += 1;
                    continue;
                }
                // Evicted mid-round.
                Err(FleetError::UnknownSession(_)) => {
                    summary.skipped += 1;
                    continue;
                }
                Err(e) => return Err(FederateError::Fleet(e)),
            };
            let pipeline = match DriftPipeline::from_bytes(&blob) {
                Ok(p) => p,
                // A snapshot that does not decode is a poisoned
                // contribution, not a federator failure.
                Err(_) => {
                    rejects.health += 1;
                    continue;
                }
            };
            // A half-retrained model is never merged: a session still
            // reconstructing gets another chance next round.
            if pipeline.is_reconstructing() {
                summary.skipped += 1;
                continue;
            }
            if pipeline.health() != seqdrift_core::PipelineHealth::Healthy {
                rejects.health += 1;
                continue;
            }
            let mut model = pipeline.model().clone();
            // Poison injection point: an armed injector replaces a victim
            // session's contribution *after* the health gates — exactly
            // what an adversarial device that keeps its pipeline healthy
            // would submit — and before the baseline-equality check, so a
            // poisoned session always presents as a contributor.
            if let Some(injector) = &self.poison {
                if let Some(poisoned) = injector.corrupt(id.0, round_index, &model) {
                    model = poisoned;
                }
            }
            if models_equal(&model, &self.baseline) {
                // Still on the baseline: nothing learned, nothing to
                // contribute, nothing to install later either (it
                // already holds the model every session will converge
                // to only if a merge happens this round).
                summary.skipped += 1;
                continue;
            }
            candidates.push((id, model));
        }
        // Staleness gate: contributors lagging the freshest candidate by
        // more than the bound carry statistics too old to trust.
        if let Some(freshest) = candidates.iter().map(|(_, m)| model_age(m)).max() {
            candidates.retain(|(_, m)| {
                let keep = freshest - model_age(m) <= STALENESS_BOUND;
                if !keep {
                    rejects.staleness += 1;
                }
                keep
            });
        }
        // Contributors that cleared every overt gate — the candidate
        // count reported when the round is rejected wholesale.
        let considered = candidates.len() as u64;
        // Robust two-pass: score against the geometric-median centre,
        // re-admit only contributors within the deviation bound, and
        // settle trust. On outlier-free rounds every candidate survives
        // and the merge below is bit-identical to the plain path.
        if self.cfg.robust && !candidates.is_empty() {
            candidates = self.robust_admit(engine, candidates, &mut rejects);
        }
        if candidates.is_empty() {
            summary.rejected = rejects.total();
            summary.reject_reasons = rejects;
            engine.record_federation_round(false, 0, rejects);
            if considered > 0 {
                engine
                    .record_merge_round_rejected(considered, MergeRejectReason::TooFewContributors);
            }
            self.persist_reputation(engine);
            self.last_round_at = engine.metrics().samples_processed;
            return Ok(summary);
        }
        // Closed-form merge, transactionally validated. A rejected merge
        // discards the whole round: the baseline and every session stay
        // exactly as they were.
        let models: Vec<&MultiInstanceModel> = candidates.iter().map(|(_, m)| m).collect();
        let merged = match self.baseline.merge_with(&models) {
            Ok(m) => m,
            Err(ModelError::RejectedUpdate(_)) | Err(ModelError::Linalg(_)) => {
                rejects.non_pd += candidates.len() as u64;
                summary.rejected = rejects.total();
                summary.reject_reasons = rejects;
                engine.record_federation_round(false, 0, rejects);
                engine.record_merge_round_rejected(considered, MergeRejectReason::FailedValidation);
                self.persist_reputation(engine);
                self.last_round_at = engine.metrics().samples_processed;
                return Ok(summary);
            }
            // Shape/config mismatches mean the fleet was fed sessions
            // from a different reference — a caller bug worth surfacing.
            Err(e) => {
                return Err(FederateError::Persist(CoreError::Model(e)));
            }
        };
        summary.accepted = candidates.len() as u64;
        summary.merged = true;
        // Redistribute through the shard FIFOs: every healthy session —
        // contributors included — adopts the merged model, so after the
        // round the whole fleet sits on the new baseline. Sessions that
        // refuse (reconstruction started since the snapshot) or vanished
        // are left for the next round.
        for (id, status) in engine.session_statuses() {
            if matches!(status, SessionStatus::Quarantined(_)) {
                continue;
            }
            match engine.install_model(id, merged.clone()) {
                Ok(()) => summary.redistributed += 1,
                Err(FleetError::Core(_))
                | Err(FleetError::UnknownSession(_))
                | Err(FleetError::SessionQuarantined(_)) => {}
                Err(e) => return Err(FederateError::Fleet(e)),
            }
        }
        // Durable merged generation: encode through the reference
        // pipeline so the blob is a full, restorable checkpoint.
        self.reference
            .install_model(merged.clone())
            .map_err(FederateError::Persist)?;
        let blob = self.reference.to_bytes().map_err(FederateError::Persist)?;
        summary.persisted_generation = engine.persist_federated(&blob);
        self.baseline = merged;
        self.rounds_run += 1;
        summary.rejected = rejects.total();
        summary.reject_reasons = rejects;
        engine.record_federation_round(true, summary.accepted, rejects);
        self.persist_reputation(engine);
        self.last_round_at = engine.metrics().samples_processed;
        Ok(summary)
    }

    /// Two-pass Byzantine-robust admission. Pass one computes the robust
    /// centre — the iteratively-reweighted geometric median of every
    /// scoreable contributor's stacked `[U | c]` sufficient statistics,
    /// anchored by the current baseline. Pass two re-admits only the
    /// trusted contributors whose deviation score clears the configured
    /// bound. Verdicts feed the reputation book: outliers decay, clean
    /// contributors recover, and sessions below the trust floor are
    /// excluded from the merge but still scored so they can earn their
    /// way back in.
    ///
    /// The centre is used only for scoring — the merge itself always runs
    /// the unchanged `merge_with` path over the admitted set, so an
    /// outlier-free round is bit-identical to the non-robust path.
    fn robust_admit(
        &mut self,
        engine: &FleetEngine,
        candidates: Vec<(SessionId, MultiInstanceModel)>,
        rejects: &mut RejectReasons,
    ) -> Vec<(SessionId, MultiInstanceModel)> {
        // Trust gate: distrusted sessions never reach the merge, but keep
        // their models around so the round can still score them.
        let mut trusted: Vec<(SessionId, MultiInstanceModel)> = Vec::new();
        let mut excluded: Vec<(SessionId, MultiInstanceModel)> = Vec::new();
        for (id, model) in candidates {
            if self.reputation.is_trusted(id.0) {
                trusted.push((id, model));
            } else {
                rejects.low_trust += 1;
                engine.record_low_trust_exclusion(id, self.reputation.trust(id.0));
                excluded.push((id, model));
            }
        }
        let Ok(base_stats) = stacked_stats(&self.baseline) else {
            // The baseline's own statistics failing to invert would mean
            // a corrupt fleet model; `merge_with`'s validation is the
            // authority on that — admit everything and let it decide.
            return trusted;
        };
        // Stats matrix per scoreable model: baseline anchor at index 0,
        // then the trusted candidates, then the excluded ones.
        let mut stats: Vec<Matrix> = vec![base_stats];
        let mut keep: Vec<(SessionId, MultiInstanceModel)> = Vec::new();
        for (id, model) in trusted {
            match stacked_stats(&model) {
                Ok(s) => {
                    stats.push(s);
                    keep.push((id, model));
                }
                // Statistics that do not invert are overtly broken, not
                // merely suspicious.
                Err(()) => {
                    rejects.non_pd += 1;
                    self.reputation.record_outlier(id.0);
                }
            }
        }
        let mut excluded_idx: Vec<(SessionId, Option<usize>)> = Vec::new();
        for (id, model) in &excluded {
            match stacked_stats(model) {
                Ok(s) => {
                    stats.push(s);
                    excluded_idx.push((*id, Some(stats.len() - 1)));
                }
                Err(()) => excluded_idx.push((*id, None)),
            }
        }
        let refs: Vec<&Matrix> = stats.iter().collect();
        let scores = match geometric_median(&refs, 128)
            .and_then(|centre| deviation_scores(&refs, &centre))
        {
            Ok(scores) => scores,
            // Robustness is best-effort: every input here is finite, so a
            // kernel failure is effectively unreachable — fall back to
            // the plain admission set rather than stalling the fleet.
            Err(_) => return keep,
        };
        let mut admitted = Vec::with_capacity(keep.len());
        for (i, (id, model)) in keep.into_iter().enumerate() {
            // Index 0 is the baseline anchor; candidate i sits at i + 1.
            if scores[i + 1] <= DEVIATION_BOUND {
                self.reputation.record_clean(id.0);
                admitted.push((id, model));
            } else {
                rejects.deviation += 1;
                self.reputation.record_outlier(id.0);
            }
        }
        // Excluded sessions are scored for trust recovery only.
        for (id, idx) in excluded_idx {
            match idx {
                Some(i) if scores[i] <= DEVIATION_BOUND => {
                    self.reputation.record_clean(id.0);
                }
                _ => self.reputation.record_outlier(id.0),
            }
        }
        admitted
    }

    /// Flushes the reputation book when it changed. A write that was
    /// buffered (degraded durability) or failed leaves the book dirty, so
    /// the next round retries; an engine without a durable store keeps
    /// the book in memory only.
    fn persist_reputation(&mut self, engine: &FleetEngine) {
        if !self.reputation.is_dirty() {
            return;
        }
        if engine
            .persist_reputations(self.reputation.entries())
            .is_some()
        {
            self.reputation.mark_persisted();
        }
    }
}

/// Stacked sufficient statistics `[U | c]` of a model: per label,
/// `U = P⁻¹` (the regularised Gram matrix) and `c = U·β` (the
/// normal-equation right-hand side), stacked vertically across labels
/// into one `(classes·hidden) × (hidden + output)` matrix. One matrix
/// per contributor lets the robust kernels score a contribution
/// atomically across all of its class instances — and because
/// `merge_with` averages exactly these statistics, distance in this
/// space is distance in what the merge actually consumes.
fn stacked_stats(model: &MultiInstanceModel) -> Result<Matrix, ()> {
    let classes = model.classes();
    if classes == 0 {
        return Err(());
    }
    let (hd, od) = {
        let net_ref = model.instance(0).map_err(|_| ())?.network();
        (net_ref.p().shape().0, net_ref.beta().shape().1)
    };
    let mut out = Matrix::zeros(classes * hd, hd + od);
    for label in 0..classes {
        let instance = model.instance(label).map_err(|_| ())?;
        let net = instance.network();
        let u = spd_inverse(net.p()).map_err(|_| ())?;
        let c = u.matmul(net.beta()).map_err(|_| ())?;
        if u.shape() != (hd, hd) || c.shape() != (hd, od) {
            return Err(());
        }
        for r in 0..hd {
            for col in 0..hd {
                out.set(label * hd + r, col, u.get(r, col));
            }
            for col in 0..od {
                out.set(label * hd + r, hd + col, c.get(r, col));
            }
        }
    }
    // Non-finite statistics would poison the geometric median for every
    // honest contributor; reject them here so only their owner pays.
    if out.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(());
    }
    Ok(out)
}

/// Bitwise model equality over the trained state: per-instance `β`, `P`
/// and sample counts. The frozen hidden layers are identical by
/// construction for sessions sharing a reference, so comparing the
/// mutable state is exact — a session whose pipeline never trained
/// between rounds (the paper's evaluation mode freezes the model outside
/// reconstructions) compares equal to the baseline.
fn models_equal(a: &MultiInstanceModel, b: &MultiInstanceModel) -> bool {
    if a.classes() != b.classes() {
        return false;
    }
    (0..a.classes()).all(|label| match (a.instance(label), b.instance(label)) {
        (Ok(ia), Ok(ib)) => {
            let (na, nb) = (ia.network(), ib.network());
            na.samples_seen() == nb.samples_seen()
                && na.beta().as_slice() == nb.beta().as_slice()
                && na.p().as_slice() == nb.p().as_slice()
        }
        _ => false,
    })
}

/// Total trained samples across a model's instances — the freshness
/// measure for the staleness gate.
fn model_age(m: &MultiInstanceModel) -> u64 {
    (0..m.classes())
        .filter_map(|label| m.instance(label).ok())
        .map(|i| i.samples_seen())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::{Real, Rng};
    use seqdrift_oselm::OsElmConfig;

    fn blob(n: usize, dim: usize, mean: Real, seed: u64) -> Vec<Vec<Real>> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut x = vec![0.0; dim];
                rng.fill_normal(&mut x, mean, 0.05);
                x
            })
            .collect()
    }

    fn trained_model(seed: u64) -> MultiInstanceModel {
        let mut m = MultiInstanceModel::new(1, OsElmConfig::new(4, 3).with_seed(seed)).unwrap();
        m.init_train_class(0, &blob(60, 4, 0.3, 5)).unwrap();
        m
    }

    #[test]
    fn models_equal_is_bitwise_on_trained_state() {
        let a = trained_model(1);
        let b = a.clone();
        assert!(models_equal(&a, &b));
        let mut c = a.clone();
        c.seq_train_label(0, &blob(1, 4, 0.3, 6)[0]).unwrap();
        assert!(!models_equal(&a, &c));
        // Different class counts never compare equal.
        let mut two = MultiInstanceModel::new(2, OsElmConfig::new(4, 3).with_seed(1)).unwrap();
        two.init_train_class(0, &blob(60, 4, 0.3, 5)).unwrap();
        two.init_train_class(1, &blob(60, 4, 0.7, 7)).unwrap();
        assert!(!models_equal(&a, &two));
    }

    #[test]
    fn model_age_sums_instance_sample_counts() {
        let mut m = trained_model(2);
        let before = model_age(&m);
        for x in &blob(10, 4, 0.3, 8) {
            m.seq_train_label(0, x).unwrap();
        }
        assert_eq!(model_age(&m), before + 10);
    }

    /// A session still reconstructing at a round is skipped and its
    /// half-retrained model stays out of the merge: the merged model is
    /// exactly the merge of the two sessions that finished.
    #[test]
    fn a_mid_reconstruction_session_is_skipped_and_left_out_of_the_merge() {
        use seqdrift_core::DetectorConfig;
        use seqdrift_fleet::{FederationConfig, FleetConfig, SessionId};
        let train = blob(120, 4, 0.3, 5);
        let mut model = MultiInstanceModel::new(1, OsElmConfig::new(4, 3).with_seed(3)).unwrap();
        model.init_train_class(0, &train).unwrap();
        let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
        let reference =
            DriftPipeline::calibrate(model, DetectorConfig::new(1, 4).with_window(20), &pairs)
                .unwrap();
        let blob_ref = reference.to_bytes().unwrap();
        let federation = FederationConfig::default().with_robust(false);
        let engine = FleetEngine::new(FleetConfig::new(2).with_federation(federation)).unwrap();
        // Sessions 0 and 1 drift and finish reconstructing; session 2
        // drifts too but is mid-way through its 200-sample rebuild.
        for (s, rows) in [(0u64, 400), (1, 400), (2, 120)] {
            engine.create_from_bytes(SessionId(s), &blob_ref).unwrap();
            for x in &blob(rows, 4, 0.9, 50 + s) {
                engine.feed_blocking(SessionId(s), x).unwrap();
            }
        }
        let snapshot = |s| DriftPipeline::from_bytes(&engine.snapshot(SessionId(s)).unwrap());
        let finished: Vec<MultiInstanceModel> = (0..2)
            .map(|s| {
                let p = snapshot(s).unwrap();
                assert!(!p.is_reconstructing(), "session {s} still reconstructing");
                p.model().clone()
            })
            .collect();
        assert!(snapshot(2).unwrap().is_reconstructing());
        let expected = reference
            .model()
            .merge_with(&finished.iter().collect::<Vec<_>>())
            .unwrap();

        let mut fed = Federator::new(&engine, &blob_ref).unwrap();
        let summary = fed.run_round(&engine).unwrap();
        assert!(summary.merged);
        assert_eq!((summary.accepted, summary.skipped), (2, 1), "{summary:?}");
        assert!(models_equal(fed.baseline(), &expected));
        engine.shutdown();
    }

    #[test]
    fn federator_requires_federation_enabled() {
        let engine = FleetEngine::new(seqdrift_fleet::FleetConfig::new(1)).unwrap();
        assert!(matches!(
            Federator::new(&engine, &[]),
            Err(FederateError::Disabled)
        ));
        engine.shutdown();
    }
}
