//! Core OS-ELM implementation.
//!
//! An ELM is a single-hidden-layer network `x -> g(W x + b) -> β` where
//! `W, b` are random and frozen; training fits only `β` by least squares.
//! OS-ELM (Liang et al. 2006) maintains the regularised normal-equation
//! inverse `P = (Hᵀ H + λI)⁻¹` recursively so new samples update `β`
//! without revisiting old data:
//!
//! ```text
//! P    <- P - (P hᵀ)(h P) / (1 + h P hᵀ)          (batch size 1)
//! β    <- β + (P hᵀ)(t - h β)
//! ```
//!
//! With the ONLAD forgetting factor `α ∈ (0, 1]` the update becomes
//!
//! ```text
//! P    <- (1/α) · [ P - (P hᵀ)(h P) / (α + h P hᵀ) ]
//! β    <- β + (P hᵀ)(t - h β)
//! ```
//!
//! which geometrically down-weights old samples (α = 1 recovers plain
//! OS-ELM). Both paths are allocation-free per sample: all scratch lives in
//! the struct.

use crate::{Activation, ModelError, Result};
use seqdrift_linalg::{cholesky, vector, Matrix, Real};

/// Configuration for an [`OsElm`] network.
#[derive(Debug, Clone, PartialEq)]
pub struct OsElmConfig {
    /// Input dimensionality (number of input-layer nodes).
    pub input_dim: usize,
    /// Hidden-layer width.
    pub hidden_dim: usize,
    /// Output dimensionality. Defaults to `input_dim` (autoencoder shape,
    /// which is how the paper uses OS-ELM throughout).
    pub output_dim: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// Seed for the random (frozen) input weights.
    pub seed: u64,
    /// Tikhonov regularisation added to the initial Gram matrix. Keeps the
    /// initial solve well-posed even when the initial batch is small, at the
    /// cost of a tiny bias; the MCU firmware needs this because it cannot
    /// afford a large initial batch.
    pub lambda: Real,
    /// ONLAD forgetting factor `α ∈ (0, 1]`; `None` means plain OS-ELM.
    pub forgetting: Option<Real>,
    /// Input weights and biases are drawn uniformly from
    /// `[-weight_scale, weight_scale]`.
    pub weight_scale: Real,
}

impl OsElmConfig {
    /// Autoencoder-shaped config: `output_dim == input_dim`.
    pub fn new(input_dim: usize, hidden_dim: usize) -> Self {
        OsElmConfig {
            input_dim,
            hidden_dim,
            output_dim: input_dim,
            activation: Activation::Sigmoid,
            seed: 0xE1A0_5EED,
            lambda: 0.05,
            forgetting: None,
            weight_scale: 1.0,
        }
    }

    /// Overrides the output dimensionality (non-autoencoder use).
    pub fn with_output_dim(mut self, output_dim: usize) -> Self {
        self.output_dim = output_dim;
        self
    }

    /// Overrides the hidden activation.
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Overrides the weight seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the regularisation strength.
    pub fn with_lambda(mut self, lambda: Real) -> Self {
        self.lambda = lambda;
        self
    }

    /// Enables the ONLAD forgetting mechanism with factor `alpha`.
    pub fn with_forgetting(mut self, alpha: Real) -> Self {
        self.forgetting = Some(alpha);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.input_dim == 0 || self.hidden_dim == 0 || self.output_dim == 0 {
            return Err(ModelError::InvalidConfig("zero layer dimension"));
        }
        if self.lambda.is_nan() || self.lambda < 0.0 {
            return Err(ModelError::InvalidConfig("lambda must be >= 0"));
        }
        if let Some(a) = self.forgetting {
            if a.is_nan() || a <= 0.0 || a > 1.0 {
                return Err(ModelError::InvalidConfig(
                    "forgetting factor must be in (0, 1]",
                ));
            }
        }
        if self.weight_scale.is_nan() || self.weight_scale <= 0.0 {
            return Err(ModelError::InvalidConfig("weight_scale must be > 0"));
        }
        Ok(())
    }
}

/// An OS-ELM network with frozen random input weights.
#[derive(Debug, Clone)]
pub struct OsElm {
    cfg: OsElmConfig,
    /// Input weights, `hidden_dim x input_dim`.
    w: Matrix,
    /// Hidden biases, length `hidden_dim`.
    b: Vec<Real>,
    /// Recursive inverse Gram matrix `P`, `hidden_dim x hidden_dim`.
    p: Matrix,
    /// Output weights `β`, `hidden_dim x output_dim`.
    beta: Matrix,
    initialized: bool,
    samples_seen: u64,
    // Per-sample scratch (never reallocated after construction).
    scratch_h: Vec<Real>,
    scratch_ph: Vec<Real>,
    scratch_hp: Vec<Real>,
    /// Output buffer of `prediction_error`, and of `seq_train`'s `βᵀh`,
    /// which the update overwrites with the residual.
    scratch_out: Vec<Real>,
    // Transactional-update state (runtime only, never persisted): the
    // pre-update copy of P for rollback, the second β buffer an update is
    // written into (committed by a swap), and the consecutive-rejection
    // counter that triggers plasticity re-seeding.
    backup_p: Vec<Real>,
    spare_beta: Matrix,
    rejected_updates: u32,
}

impl OsElm {
    /// Builds a network with freshly drawn random input weights.
    pub fn new(cfg: OsElmConfig) -> Result<Self> {
        cfg.validate()?;
        let mut rng = seqdrift_linalg::Rng::seed_from(cfg.seed);
        let mut w = Matrix::zeros(cfg.hidden_dim, cfg.input_dim);
        let s = cfg.weight_scale;
        for v in w.as_mut_slice() {
            *v = rng.uniform_range(-s, s);
        }
        let mut b = vec![0.0; cfg.hidden_dim];
        rng.fill_uniform(&mut b, -s, s);
        Ok(OsElm {
            p: Matrix::zeros(cfg.hidden_dim, cfg.hidden_dim),
            beta: Matrix::zeros(cfg.hidden_dim, cfg.output_dim),
            w,
            b,
            initialized: false,
            samples_seen: 0,
            scratch_h: vec![0.0; cfg.hidden_dim],
            scratch_ph: vec![0.0; cfg.hidden_dim],
            scratch_hp: vec![0.0; cfg.hidden_dim],
            scratch_out: vec![0.0; cfg.output_dim],
            backup_p: vec![0.0; cfg.hidden_dim * cfg.hidden_dim],
            spare_beta: Matrix::zeros(cfg.hidden_dim, cfg.output_dim),
            rejected_updates: 0,
            cfg,
        })
    }

    /// Hard ceiling on `trace(P)` after a sequential update. A fresh
    /// regularised `P = I/λ` with the workspace's defaults has trace
    /// `H/λ ≈ 10³`; a healthy recursive update only *contracts* `P`, so a
    /// trace beyond this bound means the rank-1 step has diverged.
    pub const P_TRACE_BOUND: Real = 1e8;

    /// Consecutive rejected sequential updates after which [`OsElm`] gives
    /// up on the current `P` and re-seeds it via
    /// [`OsElm::reset_plasticity`] (β keeps its warm start).
    pub const MAX_REJECTED_UPDATES: u32 = 3;

    /// The configuration this network was built with.
    pub fn config(&self) -> &OsElmConfig {
        &self.cfg
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.cfg.input_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.cfg.output_dim
    }

    /// Hidden-layer width.
    pub fn hidden_dim(&self) -> usize {
        self.cfg.hidden_dim
    }

    /// Whether [`OsElm::init_train`] has run.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Total samples consumed (initial + sequential).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Computes the hidden activation `h = g(W x + b)` into `out`.
    pub fn hidden_into(&self, x: &[Real], out: &mut [Real]) -> Result<()> {
        if x.len() != self.cfg.input_dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.cfg.input_dim,
                got: x.len(),
            });
        }
        self.w.matvec_into(x, out)?;
        for (h, &bi) in out.iter_mut().zip(self.b.iter()) {
            *h += bi;
        }
        self.cfg.activation.apply_slice(out);
        Ok(())
    }

    /// Initial (batch) training on `xs` with targets `ts`.
    ///
    /// Solves `β = (H₀ᵀH₀ + λI)⁻¹ H₀ᵀ T₀` once via Cholesky and stores the
    /// inverse `P` for subsequent sequential updates. Replaces any previous
    /// training state (this is exactly what the paper's model
    /// *reconstruction* relies on — see `seqdrift-core`).
    pub fn init_train(&mut self, xs: &[Vec<Real>], ts: &[Vec<Real>]) -> Result<()> {
        if xs.is_empty() || xs.len() != ts.len() {
            return Err(ModelError::InvalidConfig(
                "init_train: empty input or mismatched target count",
            ));
        }
        let need = if self.cfg.lambda > 0.0 {
            1
        } else {
            self.cfg.hidden_dim
        };
        if xs.len() < need {
            return Err(ModelError::TooFewSamples {
                got: xs.len(),
                need,
            });
        }
        let n = xs.len();
        let hdim = self.cfg.hidden_dim;
        // H: n x hidden.
        let mut h = Matrix::zeros(n, hdim);
        for (i, x) in xs.iter().enumerate() {
            let row = h.row_mut(i);
            // Cannot call self.hidden_into while h is mutably borrowed from
            // self-owned scratch, so inline the same computation.
            if x.len() != self.cfg.input_dim {
                return Err(ModelError::DimensionMismatch {
                    expected: self.cfg.input_dim,
                    got: x.len(),
                });
            }
            self.w.matvec_into(x, row)?;
            for (hv, &bi) in row.iter_mut().zip(self.b.iter()) {
                *hv += bi;
            }
            self.cfg.activation.apply_slice(row);
        }
        // T: n x output.
        let mut t = Matrix::zeros(n, self.cfg.output_dim);
        for (i, ti) in ts.iter().enumerate() {
            if ti.len() != self.cfg.output_dim {
                return Err(ModelError::DimensionMismatch {
                    expected: self.cfg.output_dim,
                    got: ti.len(),
                });
            }
            t.row_mut(i).copy_from_slice(ti);
        }
        // Gram = HᵀH + λI.
        let mut gram = Matrix::zeros(hdim, hdim);
        h.tr_matmul_into(&h, &mut gram)?;
        for i in 0..hdim {
            gram.set(i, i, gram.get(i, i) + self.cfg.lambda);
        }
        // P = Gram⁻¹ (Cholesky; LU fallback for the λ=0 edge where rounding
        // can nudge an eigenvalue below zero).
        self.p = match seqdrift_linalg::cholesky::spd_inverse(&gram) {
            Ok(p) => p,
            Err(_) => seqdrift_linalg::solve::inverse(&gram)?,
        };
        // β = P Hᵀ T.
        let mut ht_t = Matrix::zeros(hdim, self.cfg.output_dim);
        h.tr_matmul_into(&t, &mut ht_t)?;
        self.p.matmul_into(&ht_t, &mut self.beta)?;
        self.initialized = true;
        self.samples_seen = n as u64;
        Ok(())
    }

    /// One sequential training step on `(x, t)` with batch size 1.
    ///
    /// Allocation-free; errors if the model has not been initially trained.
    ///
    /// The update is *transactional*: after the rank-1 step the new `P`/`β`
    /// are validated (every entry finite, `trace(P)` within
    /// [`OsElm::P_TRACE_BOUND`]). An update that fails validation — or whose
    /// gain denominator was not positive-finite — is rolled back so the
    /// model is bit-identical to its pre-call state, and
    /// [`ModelError::RejectedUpdate`] is returned. After
    /// [`OsElm::MAX_REJECTED_UPDATES`] *consecutive* rejections `P` is
    /// re-seeded to `I/λ` (β keeps its warm start) so an ill-conditioned
    /// inverse-Gram state cannot freeze the model forever.
    pub fn seq_train(&mut self, x: &[Real], t: &[Real]) -> Result<()> {
        self.check_trainable(t)?;
        let mut h = std::mem::take(&mut self.scratch_h);
        let mut y = std::mem::take(&mut self.scratch_out);
        let forward = self
            .hidden_into(x, &mut h)
            .and_then(|()| self.beta.tr_matvec_into(&h, &mut y).map_err(Into::into));
        self.scratch_h = h;
        let result = forward.and_then(|()| self.update(&mut y, t));
        self.scratch_out = y;
        result
    }

    /// [`OsElm::seq_train`] for the `x` that the last
    /// [`OsElm::predict_into`] on this network scored into `y`, with no
    /// training or prediction since: it reuses the hidden activation that
    /// call left in the scratch buffer and `y = βᵀh`, instead of computing
    /// both again, and leaves the residual `t - y` in `y`. The caller
    /// guarantees that contract; debug builds check it against a fresh
    /// recomputation, bit for bit.
    pub(crate) fn seq_train_predicted(
        &mut self,
        x: &[Real],
        t: &[Real],
        y: &mut [Real],
    ) -> Result<()> {
        self.check_trainable(t)?;
        if cfg!(debug_assertions) {
            let mut h = vec![0.0; self.cfg.hidden_dim];
            let mut fresh = vec![0.0; self.cfg.output_dim];
            self.hidden_into(x, &mut h)?;
            self.beta.tr_matvec_into(&h, &mut fresh)?;
            let same = |a: &[Real], b: &[Real]| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(u, v)| u.to_bits() == v.to_bits() || (u.is_nan() && v.is_nan()))
            };
            assert!(
                same(&h, &self.scratch_h) && same(&fresh, y),
                "seq_train_predicted: the cached prediction is not the one for this x"
            );
        }
        self.update(y, t)
    }

    fn check_trainable(&self, t: &[Real]) -> Result<()> {
        if !self.initialized {
            return Err(ModelError::NotInitialized);
        }
        if t.len() != self.cfg.output_dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.cfg.output_dim,
                got: t.len(),
            });
        }
        Ok(())
    }

    /// The transactional rank-1 step for the `h` in the scratch buffer and
    /// `y = βᵀh` computed with the current `β`; `y` is turned into the
    /// residual `t - y` in place.
    ///
    /// `P` is updated in place after a copy into `backup_p`; the new `β` is
    /// written into `spare_beta` in one pass that also scans it for
    /// non-finite entries, and a commit swaps the two buffers. A rejected
    /// update restores `P` and leaves `β` untouched.
    fn update(&mut self, err: &mut [Real], t: &[Real]) -> Result<()> {
        let h = std::mem::take(&mut self.scratch_h);
        let mut ph = std::mem::take(&mut self.scratch_ph);
        let mut hp = std::mem::take(&mut self.scratch_hp);
        let mut backup_p = std::mem::take(&mut self.backup_p);
        backup_p.copy_from_slice(self.p.as_slice());
        // err = t - h β   (computed with the *old* β).
        for (e, &ti) in err.iter_mut().zip(t) {
            *e = ti - *e;
        }

        // Ok(whether every entry of the new β is finite).
        let step = (|| -> Result<bool> {
            // P update (plain or forgetting; plain is α = 1 without the
            // final scaling).
            self.p.matvec_into(&h, &mut ph)?;
            self.p.tr_matvec_into(&h, &mut hp)?;
            let alpha = self.cfg.forgetting.unwrap_or(1.0);
            let denom = alpha + vector::dot(&h, &ph);
            if denom <= 0.0 || !denom.is_finite() {
                return Err(ModelError::Linalg(
                    seqdrift_linalg::LinalgError::NotPositiveDefinite,
                ));
            }
            self.p.add_outer(-1.0 / denom, &ph, &hp)?;
            if let Some(alpha) = self.cfg.forgetting {
                self.p.scale(1.0 / alpha);
            }
            // β_new = β + (P_new hᵀ) ⊗ err, into the spare buffer.
            self.p.matvec_into(&h, &mut ph)?;
            Ok(self.beta.add_outer_into(&ph, err, &mut self.spare_beta)?)
        })();

        self.scratch_h = h;
        self.scratch_ph = ph;
        self.scratch_hp = hp;
        let result = match step {
            Ok(beta_finite) if is_sane(&self.p, beta_finite) => {
                std::mem::swap(&mut self.beta, &mut self.spare_beta);
                self.samples_seen += 1;
                self.rejected_updates = 0;
                Ok(())
            }
            Ok(_) => {
                self.reject_update(&backup_p, "update produced non-finite or divergent P/beta")
            }
            Err(ModelError::Linalg(seqdrift_linalg::LinalgError::NotPositiveDefinite)) => {
                self.reject_update(&backup_p, "gain denominator not positive-finite")
            }
            Err(e) => Err(e),
        };
        self.backup_p = backup_p;
        result
    }

    /// Restores `P` from its pre-update copy (`β` was never overwritten),
    /// bumps the consecutive-rejection counter (re-seeding `P = I/λ` once
    /// it reaches [`OsElm::MAX_REJECTED_UPDATES`]) and reports the
    /// rejection.
    fn reject_update(&mut self, backup_p: &[Real], why: &'static str) -> Result<()> {
        self.p.as_mut_slice().copy_from_slice(backup_p);
        self.rejected_updates += 1;
        if self.rejected_updates >= Self::MAX_REJECTED_UPDATES {
            self.rejected_updates = 0;
            self.reset_plasticity()?;
        }
        Err(ModelError::RejectedUpdate(why))
    }

    /// Consecutive sequential updates rejected since the last committed
    /// update (resets to zero on commit or on plasticity re-seeding).
    pub fn rejected_updates(&self) -> u32 {
        self.rejected_updates
    }

    /// Predicts the output for `x` into `out` (allocation-free).
    pub fn predict_into(&mut self, x: &[Real], out: &mut [Real]) -> Result<()> {
        if !self.initialized {
            return Err(ModelError::NotInitialized);
        }
        if out.len() != self.cfg.output_dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.cfg.output_dim,
                got: out.len(),
            });
        }
        let mut h = std::mem::take(&mut self.scratch_h);
        let result = self
            .hidden_into(x, &mut h)
            .and_then(|()| self.beta.tr_matvec_into(&h, out).map_err(Into::into));
        self.scratch_h = h;
        result
    }

    /// Predicts the output for `x`, allocating the result.
    pub fn predict(&mut self, x: &[Real]) -> Result<Vec<Real>> {
        let mut out = vec![0.0; self.cfg.output_dim];
        self.predict_into(x, &mut out)?;
        Ok(out)
    }

    /// Mean-squared error between the prediction for `x` and target `t`.
    pub fn prediction_error(&mut self, x: &[Real], t: &[Real]) -> Result<Real> {
        if t.len() != self.cfg.output_dim {
            return Err(ModelError::DimensionMismatch {
                expected: self.cfg.output_dim,
                got: t.len(),
            });
        }
        let mut out = std::mem::take(&mut self.scratch_out);
        let result = self
            .predict_into(x, &mut out)
            .map(|()| vector::dist_l2_sq(&out, t) / t.len() as Real);
        self.scratch_out = out;
        result
    }

    /// Restores training plasticity without touching the learned weights:
    /// `P` is reset to its regularised fresh state `(1/λ)·I` while `β`
    /// stays as a warm start.
    ///
    /// After thousands of sequential updates `P` contracts toward zero and
    /// the per-sample gain `P hᵀ` becomes negligible — the model is
    /// effectively frozen. Model *reconstruction* (Algorithm 2 of the
    /// paper) needs the instance to re-learn a new concept sequentially, so
    /// the pipeline calls this when reconstruction starts.
    pub fn reset_plasticity(&mut self) -> Result<()> {
        if !self.initialized {
            return Err(ModelError::NotInitialized);
        }
        let lambda = if self.cfg.lambda > 0.0 {
            self.cfg.lambda
        } else {
            1.0
        };
        self.p.fill_zero();
        for i in 0..self.cfg.hidden_dim {
            self.p.set(i, i, 1.0 / lambda);
        }
        Ok(())
    }

    /// Number of trainable/stored scalar parameters, broken down by buffer.
    /// Used by `seqdrift-edgesim` for the Table 4 memory accounting.
    pub fn param_counts(&self) -> OsElmParamCounts {
        OsElmParamCounts {
            w: self.w.len(),
            b: self.b.len(),
            p: self.p.len(),
            beta: self.beta.len(),
        }
    }

    /// Direct read access to `β` (testing / serialisation).
    pub fn beta(&self) -> &Matrix {
        &self.beta
    }

    /// Direct read access to `P` (testing / serialisation).
    pub fn p(&self) -> &Matrix {
        &self.p
    }

    /// Direct read access to the frozen input weights (serialisation).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Direct read access to the hidden biases (serialisation).
    pub fn biases(&self) -> &[Real] {
        &self.b
    }

    /// Reassembles a model from raw state (deserialisation). Every buffer
    /// length is validated against the config before construction.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        cfg: OsElmConfig,
        w: Vec<Real>,
        b: Vec<Real>,
        p: Vec<Real>,
        beta: Vec<Real>,
        initialized: bool,
        samples_seen: u64,
    ) -> Result<OsElm> {
        cfg.validate()?;
        let (hd, id, od) = (cfg.hidden_dim, cfg.input_dim, cfg.output_dim);
        // Checked arithmetic: dims may come from an untrusted blob, and a
        // wrapping product could make a mismatched buffer look right.
        let (Some(w_len), Some(p_len), Some(beta_len)) =
            (hd.checked_mul(id), hd.checked_mul(hd), hd.checked_mul(od))
        else {
            return Err(ModelError::InvalidConfig(
                "from_parts: dimension product overflows",
            ));
        };
        if w.len() != w_len || b.len() != hd || p.len() != p_len || beta.len() != beta_len {
            return Err(ModelError::InvalidConfig(
                "from_parts: buffer length does not match config",
            ));
        }
        let w = Matrix::from_vec(hd, id, w).expect("length checked");
        let p = Matrix::from_vec(hd, hd, p).expect("length checked");
        let beta = Matrix::from_vec(hd, od, beta).expect("length checked");
        Ok(OsElm {
            w,
            b,
            p,
            beta,
            initialized,
            samples_seen,
            scratch_h: vec![0.0; hd],
            scratch_ph: vec![0.0; hd],
            scratch_hp: vec![0.0; hd],
            scratch_out: vec![0.0; od],
            backup_p: vec![0.0; p_len],
            spare_beta: Matrix::zeros(hd, od),
            rejected_updates: 0,
            cfg,
        })
    }

    /// Closed-form federated merge (Ito et al., arXiv 2002.12301, applied
    /// to the recursive form the paper uses): fuses this network with
    /// `contributors` trained from the *same* frozen hidden layer by
    /// combining their sufficient statistics rather than their weights.
    ///
    /// For each network, `U = P⁻¹ = HᵀH + λI` is the regularised Gram
    /// matrix of everything it has seen and `c = U β = HᵀT` the matching
    /// normal-equation right-hand side. Both are additive across sample
    /// sets, so the merge solves the pooled normal equations
    /// `β* = (Σ U)⁻¹ (Σ c)` over base + contributors. Statistics the
    /// participants share (the common reference they all started from)
    /// are counted once per participant, which anchors the blend toward
    /// the reference model — deliberate conservatism for a fleet merge,
    /// where one eccentric contributor should pull, not teleport, the
    /// merged model. The merged state stores the *mean* of the `U`s (and
    /// of the `c`s) instead of the sum — `β*` is unchanged, but the
    /// merged `P` keeps the same magnitude scale as its inputs, so
    /// repeated merge rounds cannot drive `trace(P)` toward the
    /// [`OsElm::P_TRACE_BOUND`] divergence guard from above or freeze the
    /// model's plasticity from below.
    ///
    /// Validation mirrors `seq_train`'s transactional path: every `U_i`
    /// must factor positive-definite, the merged Gram must factor
    /// positive-definite, and the resulting `P`/`β` must be entirely
    /// finite with `trace(P)` within [`OsElm::P_TRACE_BOUND`] — otherwise
    /// the merge returns [`ModelError::RejectedUpdate`] and `self` is
    /// untouched (the merge never mutates, it returns a new network).
    ///
    /// Requirements: all networks initialised, configs identical, and
    /// bit-identical `W`/`b` (the statistics only compose against one
    /// shared random hidden layer).
    pub fn merge_with(&self, contributors: &[&OsElm]) -> Result<OsElm> {
        if contributors.is_empty() {
            return Err(ModelError::InvalidConfig("merge_with: no contributors"));
        }
        if !self.initialized {
            return Err(ModelError::NotInitialized);
        }
        for c in contributors {
            if !c.initialized {
                return Err(ModelError::NotInitialized);
            }
            if c.cfg != self.cfg {
                return Err(ModelError::InvalidConfig(
                    "merge_with: contributor config differs from base",
                ));
            }
            if c.w.as_slice() != self.w.as_slice() || c.b != self.b {
                return Err(ModelError::InvalidConfig(
                    "merge_with: contributor hidden layer differs from base",
                ));
            }
        }
        let (hd, od) = (self.cfg.hidden_dim, self.cfg.output_dim);
        // U_i = P_i⁻¹ and c_i = U_i β_i for the base and every contributor.
        // spd_inverse validates each P_i positive-definite on the way.
        let mut grams: Vec<Matrix> = Vec::with_capacity(contributors.len() + 1);
        let mut rhs_mean = Matrix::zeros(hd, od);
        let scale = 1.0 / (contributors.len() + 1) as Real;
        for net in std::iter::once(&self).chain(contributors.iter()) {
            let u = cholesky::spd_inverse(&net.p)?;
            let c = u.matmul(&net.beta)?;
            for (acc, &v) in rhs_mean.as_mut_slice().iter_mut().zip(c.as_slice()) {
                *acc += v * scale;
            }
            grams.push(u);
        }
        let gram_refs: Vec<&Matrix> = grams.iter().collect();
        let u_merged = cholesky::spd_mean(&gram_refs)?;
        let p = cholesky::spd_inverse(&u_merged)?;
        let beta = p.matmul(&rhs_mean)?;
        // Commit gate, exactly as seq_train's post-update validation.
        if !is_sane(&p, vector::all_finite(beta.as_slice())) {
            return Err(ModelError::RejectedUpdate(
                "merge produced non-finite or divergent P/beta",
            ));
        }
        let samples_seen = std::iter::once(self.samples_seen)
            .chain(contributors.iter().map(|c| c.samples_seen))
            .max()
            .unwrap_or(self.samples_seen);
        OsElm::from_parts(
            self.cfg.clone(),
            self.w.as_slice().to_vec(),
            self.b.clone(),
            p.as_slice().to_vec(),
            beta.as_slice().to_vec(),
            true,
            samples_seen,
        )
    }
}

/// The commit gate of every `P`/`β` state change: `β` entirely finite
/// (`beta_finite`, scanned by the caller), and `P` entirely finite with
/// `trace(P)` finite within [`OsElm::P_TRACE_BOUND`].
fn is_sane(p: &Matrix, beta_finite: bool) -> bool {
    let trace: Real = (0..p.rows()).map(|i| p.get(i, i)).sum();
    beta_finite
        && trace.is_finite()
        && trace <= OsElm::P_TRACE_BOUND
        && vector::all_finite(p.as_slice())
}

/// Scalar-count breakdown of an OS-ELM's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsElmParamCounts {
    /// Input weight count (`hidden x input`).
    pub w: usize,
    /// Bias count (`hidden`).
    pub b: usize,
    /// Inverse-Gram count (`hidden x hidden`).
    pub p: usize,
    /// Output weight count (`hidden x output`).
    pub beta: usize,
}

impl OsElmParamCounts {
    /// Total scalars.
    pub fn total(&self) -> usize {
        self.w + self.b + self.p + self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::Rng;

    fn toy_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<Real>> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut x = vec![0.0; dim];
                rng.fill_uniform(&mut x, 0.0, 1.0);
                x
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(OsElm::new(OsElmConfig::new(0, 4)).is_err());
        assert!(OsElm::new(OsElmConfig::new(4, 0)).is_err());
        assert!(OsElm::new(OsElmConfig::new(4, 2).with_forgetting(0.0)).is_err());
        assert!(OsElm::new(OsElmConfig::new(4, 2).with_forgetting(1.5)).is_err());
        assert!(OsElm::new(OsElmConfig::new(4, 2).with_forgetting(1.0)).is_ok());
        assert!(OsElm::new(OsElmConfig::new(4, 2).with_lambda(-1.0)).is_err());
    }

    #[test]
    fn untrained_model_rejects_use() {
        let mut m = OsElm::new(OsElmConfig::new(3, 2)).unwrap();
        assert!(!m.is_initialized());
        assert_eq!(
            m.predict(&[0.0; 3]).unwrap_err(),
            ModelError::NotInitialized
        );
        assert_eq!(
            m.seq_train(&[0.0; 3], &[0.0; 3]).unwrap_err(),
            ModelError::NotInitialized
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut m = OsElm::new(OsElmConfig::new(3, 2)).unwrap();
        let xs = toy_data(10, 3, 1);
        m.init_train(&xs, &xs).unwrap();
        assert!(matches!(
            m.predict(&[0.0; 4]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            m.seq_train(&[0.0; 3], &[0.0; 4]),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn same_seed_same_weights() {
        let a = OsElm::new(OsElmConfig::new(5, 3).with_seed(9)).unwrap();
        let b = OsElm::new(OsElmConfig::new(5, 3).with_seed(9)).unwrap();
        assert_eq!(a.w, b.w);
        assert_eq!(a.b, b.b);
        let c = OsElm::new(OsElmConfig::new(5, 3).with_seed(10)).unwrap();
        assert_ne!(a.w, c.w);
    }

    #[test]
    fn init_train_fits_training_data() {
        // An autoencoder with ample hidden capacity should reconstruct its
        // own (few) training points well.
        let xs = toy_data(8, 4, 2);
        let mut m = OsElm::new(OsElmConfig::new(4, 16).with_lambda(1e-4)).unwrap();
        m.init_train(&xs, &xs).unwrap();
        for x in &xs {
            let err = m.prediction_error(x, x).unwrap();
            assert!(err < 1e-3, "reconstruction error {err}");
        }
    }

    #[test]
    fn sequential_equals_batch_training() {
        // Core OS-ELM theorem: init on A then seq over B gives the same β as
        // init on A ∪ B (identical λ). Verified to f32 tolerance.
        let all = toy_data(60, 5, 3);
        let (a, b) = all.split_at(30);

        let cfg = OsElmConfig::new(5, 8).with_seed(11).with_lambda(0.1);
        let mut seq = OsElm::new(cfg.clone()).unwrap();
        seq.init_train(a, a).unwrap();
        for x in b {
            seq.seq_train(x, x).unwrap();
        }

        let mut batch = OsElm::new(cfg).unwrap();
        batch.init_train(&all, &all).unwrap();

        assert!(seq.beta().approx_eq(batch.beta(), 5e-2), "max diff {}", {
            let (s, b) = (seq.beta().as_slice(), batch.beta().as_slice());
            s.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, Real::max)
        });
    }

    #[test]
    fn seq_training_reduces_error_on_new_concept() {
        // Train on one blob, then stream a different blob: error on the new
        // blob must drop as the model adapts.
        let old = toy_data(40, 4, 4);
        let mut m = OsElm::new(OsElmConfig::new(4, 10).with_seed(5)).unwrap();
        m.init_train(&old, &old).unwrap();

        let mut rng = Rng::seed_from(99);
        let make_new = |rng: &mut Rng| {
            let mut x = vec![0.0; 4];
            rng.fill_normal(&mut x, 3.0, 0.1);
            x
        };
        let probe = make_new(&mut rng);
        let before = m.prediction_error(&probe, &probe).unwrap();
        for _ in 0..200 {
            let x = make_new(&mut rng);
            m.seq_train(&x, &x).unwrap();
        }
        let after = m.prediction_error(&probe, &probe).unwrap();
        assert!(
            after < before * 0.5,
            "error did not drop: before {before}, after {after}"
        );
    }

    #[test]
    fn forgetting_adapts_faster_than_plain() {
        // After a concept switch, α < 1 should reach low error on the new
        // concept in fewer updates than plain OS-ELM trained identically.
        let old = toy_data(50, 3, 6);
        let cfg = OsElmConfig::new(3, 8).with_seed(21);
        let mut plain = OsElm::new(cfg.clone()).unwrap();
        let mut forget = OsElm::new(cfg.with_forgetting(0.9)).unwrap();
        plain.init_train(&old, &old).unwrap();
        forget.init_train(&old, &old).unwrap();

        let mut rng = Rng::seed_from(7);
        let mut probe_sum_plain = 0.0;
        let mut probe_sum_forget = 0.0;
        for _ in 0..60 {
            let mut x = vec![0.0; 3];
            rng.fill_normal(&mut x, 2.0, 0.05);
            plain.seq_train(&x, &x).unwrap();
            forget.seq_train(&x, &x).unwrap();
            probe_sum_plain += plain.prediction_error(&x, &x).unwrap();
            probe_sum_forget += forget.prediction_error(&x, &x).unwrap();
        }
        assert!(
            probe_sum_forget < probe_sum_plain,
            "forgetting {probe_sum_forget} vs plain {probe_sum_plain}"
        );
    }

    #[test]
    fn forgetting_alpha_one_matches_plain_oselm() {
        let data = toy_data(30, 4, 8);
        let (a, b) = data.split_at(15);
        let cfg = OsElmConfig::new(4, 6).with_seed(13);
        let mut plain = OsElm::new(cfg.clone()).unwrap();
        let mut alpha1 = OsElm::new(cfg.with_forgetting(1.0)).unwrap();
        plain.init_train(a, a).unwrap();
        alpha1.init_train(a, a).unwrap();
        for x in b {
            plain.seq_train(x, x).unwrap();
            alpha1.seq_train(x, x).unwrap();
        }
        assert!(plain.beta().approx_eq(alpha1.beta(), 1e-4));
    }

    #[test]
    fn init_train_resets_previous_state() {
        let xs1 = toy_data(20, 3, 10);
        let xs2 = toy_data(20, 3, 20);
        let cfg = OsElmConfig::new(3, 5).with_seed(1);
        let mut twice = OsElm::new(cfg.clone()).unwrap();
        twice.init_train(&xs1, &xs1).unwrap();
        twice.init_train(&xs2, &xs2).unwrap();
        let mut once = OsElm::new(cfg).unwrap();
        once.init_train(&xs2, &xs2).unwrap();
        assert!(twice.beta().approx_eq(once.beta(), 1e-5));
        assert_eq!(twice.samples_seen(), 20);
    }

    #[test]
    fn param_counts_match_shapes() {
        let m = OsElm::new(OsElmConfig::new(38, 22)).unwrap();
        let pc = m.param_counts();
        assert_eq!(pc.w, 22 * 38);
        assert_eq!(pc.b, 22);
        assert_eq!(pc.p, 22 * 22);
        assert_eq!(pc.beta, 22 * 38);
        assert_eq!(pc.total(), 22 * 38 * 2 + 22 + 484);
    }

    #[test]
    fn identity_activation_solves_linear_regression() {
        // With identity activation OS-ELM is recursive ridge regression on
        // the random feature z = Wx + b; fitting a linear target must give
        // near-zero residual once hidden_dim >= input_dim.
        let xs = toy_data(50, 3, 30);
        let ts: Vec<Vec<Real>> = xs
            .iter()
            .map(|x| vec![2.0 * x[0] - x[1] + 0.5 * x[2]])
            .collect();
        let cfg = OsElmConfig::new(3, 6)
            .with_output_dim(1)
            .with_activation(Activation::Identity)
            .with_lambda(1e-5)
            .with_seed(77);
        let mut m = OsElm::new(cfg).unwrap();
        m.init_train(&xs, &ts).unwrap();
        for (x, t) in xs.iter().zip(ts.iter()) {
            let err = m.prediction_error(x, t).unwrap();
            // f32 Cholesky on a near-collinear random-feature Gram matrix
            // leaves a small residual; exactness holds only in f64.
            assert!(err < 0.05, "residual {err}");
        }
    }

    #[test]
    fn too_few_samples_without_regularisation() {
        let xs = toy_data(3, 4, 40);
        let mut m = OsElm::new(OsElmConfig::new(4, 8).with_lambda(0.0)).unwrap();
        assert!(matches!(
            m.init_train(&xs, &xs),
            Err(ModelError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn predict_into_is_allocation_free_shape_checked() {
        let xs = toy_data(10, 3, 50);
        let mut m = OsElm::new(OsElmConfig::new(3, 4)).unwrap();
        m.init_train(&xs, &xs).unwrap();
        let mut out = vec![0.0; 2];
        assert!(matches!(
            m.predict_into(&xs[0], &mut out),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejected_update_rolls_back_bit_identically() {
        let xs = toy_data(30, 3, 60);
        let mut m = OsElm::new(OsElmConfig::new(3, 4).with_seed(9)).unwrap();
        m.init_train(&xs, &xs).unwrap();
        let p_before = m.p().as_slice().to_vec();
        let beta_before = m.beta().as_slice().to_vec();
        let seen_before = m.samples_seen();
        // A NaN input poisons h, err and the denominator; the transactional
        // layer must reject and leave the model untouched.
        let bad = vec![Real::NAN; 3];
        let res = m.seq_train(&bad, &bad);
        assert!(matches!(res, Err(ModelError::RejectedUpdate(_))), "{res:?}");
        assert_eq!(m.p().as_slice(), &p_before[..]);
        assert_eq!(m.beta().as_slice(), &beta_before[..]);
        assert_eq!(m.samples_seen(), seen_before);
        assert_eq!(m.rejected_updates(), 1);
        // A clean sample afterwards trains normally and clears the counter.
        m.seq_train(&xs[0], &xs[0]).unwrap();
        assert_eq!(m.rejected_updates(), 0);
        assert_eq!(m.samples_seen(), seen_before + 1);
    }

    /// The commit gate applied to a network's committed state.
    fn state_is_sane(m: &OsElm) -> bool {
        is_sane(&m.p, vector::all_finite(m.beta.as_slice()))
    }

    #[test]
    fn sanity_scan_rejects_one_non_finite_entry_anywhere_in_p_or_beta() {
        let xs = toy_data(40, 5, 62);
        let mut m = OsElm::new(OsElmConfig::new(5, 7).with_seed(3)).unwrap();
        m.init_train(&xs, &xs).unwrap();
        assert!(state_is_sane(&m));
        for bad in [Real::NAN, Real::INFINITY, Real::NEG_INFINITY] {
            for in_p in [true, false] {
                let n = if in_p {
                    m.p.as_slice().len()
                } else {
                    m.beta.as_slice().len()
                };
                // First, middle, last, plus an off-diagonal entry of P that
                // the trace check cannot see.
                for at in [0, n / 2, n - 1, 1] {
                    let slot = if in_p {
                        &mut m.p.as_mut_slice()[at]
                    } else {
                        &mut m.beta.as_mut_slice()[at]
                    };
                    let kept = std::mem::replace(slot, bad);
                    let sane = state_is_sane(&m);
                    if in_p {
                        m.p.as_mut_slice()[at] = kept;
                    } else {
                        m.beta.as_mut_slice()[at] = kept;
                    }
                    assert!(
                        !sane,
                        "{bad} at {at} of {}",
                        if in_p { "P" } else { "beta" }
                    );
                    assert!(state_is_sane(&m));
                }
            }
        }
    }

    #[test]
    fn consecutive_rejections_reseed_plasticity() {
        let xs = toy_data(30, 3, 61);
        let mut m = OsElm::new(OsElmConfig::new(3, 4).with_seed(9)).unwrap();
        m.init_train(&xs, &xs).unwrap();
        let bad = vec![Real::INFINITY; 3];
        for _ in 0..OsElm::MAX_REJECTED_UPDATES {
            assert!(matches!(
                m.seq_train(&bad, &bad),
                Err(ModelError::RejectedUpdate(_))
            ));
        }
        // The counter wrapped and P was re-seeded to I/λ.
        assert_eq!(m.rejected_updates(), 0);
        let lambda = m.config().lambda;
        for i in 0..m.hidden_dim() {
            for j in 0..m.hidden_dim() {
                let expect = if i == j { 1.0 / lambda } else { 0.0 };
                assert_eq!(m.p().get(i, j), expect);
            }
        }
        // Still trainable after the re-seed.
        m.seq_train(&xs[1], &xs[1]).unwrap();
        assert!(m.p().as_slice().iter().all(|v| v.is_finite()));
    }

    /// Builds sibling networks from one initial batch, then trains each
    /// sibling sequentially on its own shard.
    fn federated_siblings(shards: &[Vec<Vec<Real>>]) -> Vec<OsElm> {
        let init = toy_data(40, 3, 70);
        let base = {
            let mut m = OsElm::new(OsElmConfig::new(3, 5).with_seed(11)).unwrap();
            m.init_train(&init, &init).unwrap();
            m
        };
        shards
            .iter()
            .map(|shard| {
                let mut m = base.clone();
                for x in shard {
                    m.seq_train(x, x).unwrap();
                }
                m
            })
            .collect()
    }

    #[test]
    fn merge_recovers_joint_training_solution() {
        // Two siblings each see half the extra data; merging them must
        // approximate one network that saw all of it sequentially.
        let shard_a = toy_data(60, 3, 71);
        let shard_b = toy_data(60, 3, 72);
        let nets = federated_siblings(&[shard_a.clone(), shard_b.clone(), vec![]]);
        let (a, b, base) = (&nets[0], &nets[1], &nets[2]);

        let merged = base.merge_with(&[a, b]).unwrap();
        assert!(merged.is_initialized());
        assert_eq!(merged.samples_seen(), a.samples_seen());
        assert_eq!(merged.weights().as_slice(), base.weights().as_slice());

        let mut joint = base.clone();
        for x in shard_a.iter().chain(shard_b.iter()) {
            joint.seq_train(x, x).unwrap();
        }
        // The pooled normal equations count the shared initial batch once
        // per participant, so the merge is an anchored blend rather than
        // the exact joint solution — but it must land far closer to the
        // joint solution than the stale base does.
        let dist = |a: &OsElm, b: &OsElm| -> Real {
            a.beta()
                .as_slice()
                .iter()
                .zip(b.beta().as_slice())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<Real>()
                .sqrt()
        };
        let merged_err = dist(&merged, &joint);
        let base_err = dist(base, &joint);
        assert!(
            merged_err < base_err * 0.5,
            "merged {merged_err} vs base {base_err}"
        );
        // Averaged Gram fusion: the merged P stays on the inputs' scale.
        let trace = |n: &OsElm| (0..n.hidden_dim()).map(|i| n.p().get(i, i)).sum::<Real>();
        assert!(trace(&merged) <= trace(base) * 1.5 + 1.0);
    }

    #[test]
    fn merge_is_deterministic_and_does_not_mutate_base() {
        let nets = federated_siblings(&[toy_data(30, 3, 73), toy_data(30, 3, 74)]);
        let (a, b) = (&nets[0], &nets[1]);
        let a_p = a.p().as_slice().to_vec();
        let m1 = a.merge_with(&[b]).unwrap();
        let m2 = a.merge_with(&[b]).unwrap();
        assert_eq!(m1.p().as_slice(), m2.p().as_slice());
        assert_eq!(m1.beta().as_slice(), m2.beta().as_slice());
        assert_eq!(a.p().as_slice(), &a_p[..]);
    }

    #[test]
    fn merge_rejects_incompatible_contributors() {
        let nets = federated_siblings(&[toy_data(20, 3, 75)]);
        let base = &nets[0];
        assert!(matches!(
            base.merge_with(&[]),
            Err(ModelError::InvalidConfig(_))
        ));
        // Different seed => different frozen hidden layer.
        let xs = toy_data(40, 3, 76);
        let mut other_layer = OsElm::new(OsElmConfig::new(3, 5).with_seed(12)).unwrap();
        other_layer.init_train(&xs, &xs).unwrap();
        assert!(matches!(
            base.merge_with(&[&other_layer]),
            Err(ModelError::InvalidConfig(_))
        ));
        // Uninitialised contributor.
        let raw = OsElm::new(OsElmConfig::new(3, 5).with_seed(11)).unwrap();
        assert!(matches!(
            base.merge_with(&[&raw]),
            Err(ModelError::NotInitialized)
        ));
    }

    #[test]
    fn merge_rejects_poisoned_contributor_statistics() {
        let nets = federated_siblings(&[toy_data(20, 3, 77), toy_data(20, 3, 78)]);
        let (base, clean) = (&nets[0], &nets[1]);
        // Forge a contributor whose P carries a NaN: the PD validation in
        // the Gram inversion must reject the merge outright.
        let mut p = clean.p().as_slice().to_vec();
        p[0] = Real::NAN;
        let poisoned = OsElm::from_parts(
            clean.config().clone(),
            clean.weights().as_slice().to_vec(),
            clean.biases().to_vec(),
            p,
            clean.beta().as_slice().to_vec(),
            true,
            clean.samples_seen(),
        )
        .unwrap();
        assert!(matches!(
            base.merge_with(&[&poisoned]),
            Err(ModelError::Linalg(_))
        ));
    }
}
