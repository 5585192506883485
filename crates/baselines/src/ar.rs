//! AR(p)-residual drift detector (cf. arXiv 2203.04769): fit an
//! autoregressive model to a rolling window of a scalar signal by least
//! squares, then run a Page–Hinkley test on the one-step-ahead prediction
//! residuals.
//!
//! The intuition: while the stream is stationary, an AR(p) model learned on
//! recent history predicts the next value well and the residual magnitude
//! hovers around a stable baseline. Concept drift changes the generating
//! process, the stale coefficients start mispredicting, and the residual
//! mean rises — exactly the one-sided change Page–Hinkley detects with O(1)
//! state. Total memory is the rolling window plus `p + 1` coefficients, so
//! the detector stays in the same lightweight class as the paper's method.
//!
//! The fit solves the normal equations with a ridge-stabilised Cholesky
//! factorisation — `p` is tiny (2–8), so a refit is O(window · p²) and is
//! amortised by only refitting every `REFIT_EVERY` (20) samples.

use std::collections::VecDeque;

use seqdrift_linalg::cholesky::Cholesky;
use seqdrift_linalg::{Matrix, Real};

use crate::page_hinkley::PageHinkley;

/// Refit cadence in samples.
const REFIT_EVERY: usize = 20;

/// Configuration for [`ArResidual`].
#[derive(Debug, Clone)]
pub struct ArResidualConfig {
    /// Autoregressive order `p` (how many lagged values feed the predictor).
    pub order: usize,
    /// Rolling-window length the model is fitted on.
    pub window: usize,
    /// Page–Hinkley magnitude tolerance δ on the residual stream.
    pub delta: Real,
    /// Page–Hinkley detection threshold λ.
    pub lambda: Real,
    /// Ridge term added to the normal-equation diagonal for stability.
    pub ridge: Real,
}

impl ArResidualConfig {
    /// Defaults tuned alongside the other extension baselines: AR(3) on a
    /// 200-sample window, refit every 20 samples.
    pub fn new(order: usize, window: usize) -> Self {
        assert!(order >= 1, "AR order must be at least 1");
        assert!(
            window >= 4 * order,
            "window must be at least 4x the AR order"
        );
        ArResidualConfig {
            order,
            window,
            delta: 0.005,
            lambda: 1.5,
            ridge: 1e-4,
        }
    }

    /// Overrides the Page–Hinkley thresholds.
    pub fn with_thresholds(mut self, delta: Real, lambda: Real) -> Self {
        self.delta = delta;
        self.lambda = lambda;
        self
    }
}

/// AR(p)-residual drift detector: least-squares AR fit on a rolling window,
/// Page–Hinkley on the one-step-ahead residuals.
#[derive(Debug, Clone)]
pub struct ArResidual {
    cfg: ArResidualConfig,
    /// Rolling history, most recent at the back.
    history: VecDeque<Real>,
    /// `[intercept, a_1 .. a_p]`; `a_1` multiplies the most recent lag.
    coeffs: Option<Vec<Real>>,
    ph: PageHinkley,
    since_fit: usize,
}

impl ArResidual {
    /// Creates a detector from a configuration.
    pub fn new(cfg: ArResidualConfig) -> Self {
        let ph = PageHinkley::new(cfg.delta, cfg.lambda);
        let history = VecDeque::with_capacity(cfg.window + 1);
        ArResidual {
            cfg,
            history,
            coeffs: None,
            ph,
            since_fit: 0,
        }
    }

    /// The fitted coefficients `[intercept, a_1 .. a_p]`, once enough data
    /// has been seen.
    pub fn coefficients(&self) -> Option<&[Real]> {
        self.coeffs.as_deref()
    }

    /// Current Page–Hinkley statistic on the residual stream.
    pub fn statistic(&self) -> Real {
        self.ph.statistic()
    }

    /// Feeds one observation; returns `true` when residual drift is
    /// detected. Non-finite observations are ignored.
    pub fn push(&mut self, x: Real) -> bool {
        if !x.is_finite() {
            return false;
        }
        let p = self.cfg.order;
        // Residual against the current model before updating history.
        let mut fired = false;
        if let Some(c) = &self.coeffs {
            if self.history.len() >= p {
                let mut pred = c[0];
                for (lag, coef) in c[1..].iter().enumerate() {
                    // lag 0 = most recent value.
                    pred += coef * self.history[self.history.len() - 1 - lag];
                }
                fired = self.ph.push((x - pred).abs());
            }
        }
        self.history.push_back(x);
        while self.history.len() > self.cfg.window {
            self.history.pop_front();
        }
        self.since_fit += 1;
        let warm = self.history.len() >= (2 * p + 8).min(self.cfg.window);
        if warm && (self.coeffs.is_none() || self.since_fit >= REFIT_EVERY) {
            if let Some(c) = self.fit() {
                self.coeffs = Some(c);
                self.since_fit = 0;
            }
        }
        fired
    }

    /// Resets the detector (model, window, and PH state), e.g. after the
    /// downstream model is rebuilt on the new concept.
    pub fn reset(&mut self) {
        self.history.clear();
        self.coeffs = None;
        self.ph.reset();
        self.since_fit = 0;
    }

    /// Number of `Real` scalars kept resident: rolling window + coefficients
    /// + PH state. Drives the Table 4 style memory comparison.
    pub fn memory_scalars(&self) -> usize {
        self.cfg.window + (self.cfg.order + 1) + 4
    }

    /// Least-squares AR(p) fit with intercept on the rolling window, solved
    /// via ridge-stabilised normal equations. Returns `None` when the
    /// window is too short or the solve fails.
    fn fit(&self) -> Option<Vec<Real>> {
        let p = self.cfg.order;
        let n = self.history.len();
        if n < p + 2 {
            return None;
        }
        let hist: Vec<Real> = self.history.iter().copied().collect();
        let rows = n - p;
        let d = p + 1;
        // Accumulate X^T X and X^T y directly; X rows are [1, x_{t-1}, ..,
        // x_{t-p}] predicting y = x_t.
        let mut xtx = Matrix::zeros(d, d);
        let mut xty = vec![0.0 as Real; d];
        let mut row = vec![0.0 as Real; d];
        for t in p..n {
            row[0] = 1.0;
            for lag in 0..p {
                row[1 + lag] = hist[t - 1 - lag];
            }
            let y = hist[t];
            for i in 0..d {
                xty[i] += row[i] * y;
                for j in 0..d {
                    let v = xtx.get(i, j) + row[i] * row[j];
                    xtx.set(i, j, v);
                }
            }
        }
        // Ridge scaled to the data magnitude keeps near-constant windows
        // solvable without biasing healthy fits.
        let scale = (xtx.get(0, 0) / rows as Real).max(1.0);
        for i in 0..d {
            let v = xtx.get(i, i) + self.cfg.ridge * scale * rows as Real;
            xtx.set(i, i, v);
        }
        let chol = Cholesky::factor(&xtx).ok()?;
        let mut coeffs = vec![0.0 as Real; d];
        chol.solve_into(&xty, &mut coeffs).ok()?;
        coeffs.iter().all(|c| c.is_finite()).then_some(coeffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::Rng;

    fn detector() -> ArResidual {
        ArResidual::new(ArResidualConfig::new(3, 200).with_thresholds(0.02, 3.0))
    }

    /// Generates an AR(2) process x_t = c + a1 x_{t-1} + a2 x_{t-2} + noise.
    fn ar2(c: Real, a1: Real, a2: Real, noise: Real, n: usize, rng: &mut Rng) -> Vec<Real> {
        let mut out = vec![c, c];
        for t in 2..n {
            let x = c + a1 * out[t - 1] + a2 * out[t - 2] + rng.normal(0.0, noise);
            out.push(x);
        }
        out
    }

    #[test]
    fn stable_on_stationary_ar_process() {
        let mut rng = Rng::seed_from(11);
        let mut det = detector();
        for x in ar2(0.3, 0.5, -0.2, 0.05, 4000, &mut rng) {
            assert!(!det.push(x), "false positive on stationary stream");
        }
    }

    #[test]
    fn recovers_ar2_coefficients() {
        let mut rng = Rng::seed_from(12);
        let mut det = ArResidual::new(ArResidualConfig::new(2, 400).with_thresholds(0.5, 500.0));
        for x in ar2(0.2, 0.6, -0.3, 0.2, 1000, &mut rng) {
            det.push(x);
        }
        let c = det.coefficients().expect("no fit after 1000 samples");
        assert!((c[1] - 0.6).abs() < 0.1, "a1 = {}", c[1]);
        assert!((c[2] + 0.3).abs() < 0.1, "a2 = {}", c[2]);
    }

    #[test]
    fn detects_process_change() {
        let mut rng = Rng::seed_from(13);
        let mut det = detector();
        for x in ar2(0.3, 0.5, -0.2, 0.05, 2000, &mut rng) {
            assert!(!det.push(x));
        }
        // The generating process changes: different level and dynamics.
        let mut delay = None;
        for (i, x) in ar2(1.5, -0.4, 0.1, 0.05, 1200, &mut rng)
            .into_iter()
            .enumerate()
        {
            if det.push(x) {
                delay = Some(i);
                break;
            }
        }
        let d = delay.expect("process change not detected");
        assert!(d < 600, "detection delay {d}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut rng = Rng::seed_from(14);
        let mut det = detector();
        for x in ar2(0.3, 0.5, -0.2, 0.05, 500, &mut rng) {
            det.push(x);
        }
        assert!(det.coefficients().is_some());
        det.reset();
        assert!(det.coefficients().is_none());
        assert_eq!(det.statistic(), 0.0);
    }

    #[test]
    fn non_finite_inputs_are_ignored() {
        let mut rng = Rng::seed_from(15);
        let mut det = detector();
        for x in ar2(0.3, 0.5, -0.2, 0.05, 500, &mut rng) {
            det.push(x);
        }
        let stat = det.statistic();
        for bad in [Real::NAN, Real::INFINITY, Real::NEG_INFINITY] {
            assert!(!det.push(bad));
        }
        assert_eq!(det.statistic(), stat);
    }

    #[test]
    fn memory_footprint_is_window_dominated() {
        let det = ArResidual::new(ArResidualConfig::new(4, 256));
        assert_eq!(det.memory_scalars(), 256 + 5 + 4);
    }
}
