//! Page–Hinkley test: sequential detection of an increase in the mean of a
//! univariate stream (Page 1954; the streaming form popularised by Gama's
//! drift-adaptation survey, which the paper cites as \[8\]).
//!
//! Extension baseline: can watch any scalar statistic — e.g. the anomaly
//! score of the discriminative model — with O(1) state.

use seqdrift_linalg::Real;

/// Page–Hinkley change detector (one-sided: detects mean increases).
#[derive(Debug, Clone)]
pub struct PageHinkley {
    /// Magnitude tolerance δ: deviations below this do not accumulate.
    delta: Real,
    /// Detection threshold λ on the accumulated deviation.
    lambda: Real,
    /// Optional forgetting of the running mean (1.0 = plain mean).
    alpha: Real,
    n: u64,
    mean: Real,
    cumulative: Real,
    minimum: Real,
}

impl PageHinkley {
    /// Creates a detector with tolerance `delta` and threshold `lambda`.
    pub fn new(delta: Real, lambda: Real) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        PageHinkley {
            delta,
            lambda,
            alpha: 1.0,
            n: 0,
            mean: 0.0,
            cumulative: 0.0,
            minimum: 0.0,
        }
    }

    /// Sets the running-mean forgetting factor (`(0, 1]`, 1 = no
    /// forgetting).
    pub fn with_alpha(mut self, alpha: Real) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        self.alpha = alpha;
        self
    }

    /// Observations consumed since the last reset.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current PH statistic (accumulated deviation minus its minimum).
    pub fn statistic(&self) -> Real {
        self.cumulative - self.minimum
    }

    /// Feeds one observation; returns `true` when a change is detected.
    ///
    /// Non-finite observations are ignored: the running mean is an
    /// exponential average, so a single NaN would poison it (and every
    /// later statistic) permanently.
    pub fn push(&mut self, x: Real) -> bool {
        if !x.is_finite() {
            return false;
        }
        self.n += 1;
        // Running (optionally fading) mean.
        self.mean += (x - self.mean) / (self.n as Real).min(1.0 / (1.0 - self.alpha + 1e-12));
        self.cumulative = self.alpha * self.cumulative + (x - self.mean - self.delta);
        self.minimum = self.minimum.min(self.cumulative);
        self.statistic() > self.lambda
    }

    /// Resets all state.
    pub fn reset(&mut self) {
        let (d, l, a) = (self.delta, self.lambda, self.alpha);
        *self = PageHinkley::new(d, l).with_alpha(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::Rng;

    #[test]
    fn stable_on_stationary_stream() {
        let mut ph = PageHinkley::new(0.1, 50.0);
        let mut rng = Rng::seed_from(1);
        for _ in 0..5000 {
            assert!(!ph.push(rng.normal(1.0, 0.2)));
        }
    }

    #[test]
    fn detects_mean_increase() {
        let mut ph = PageHinkley::new(0.1, 30.0);
        let mut rng = Rng::seed_from(2);
        for _ in 0..1000 {
            assert!(!ph.push(rng.normal(1.0, 0.2)));
        }
        let mut detected = None;
        for i in 0..1000 {
            if ph.push(rng.normal(2.0, 0.2)) {
                detected = Some(i);
                break;
            }
        }
        let d = detected.expect("increase not detected");
        assert!(d < 200, "delay {d}");
    }

    #[test]
    fn one_sided_ignores_decrease() {
        let mut ph = PageHinkley::new(0.1, 30.0);
        let mut rng = Rng::seed_from(3);
        for _ in 0..1000 {
            ph.push(rng.normal(2.0, 0.2));
        }
        for _ in 0..1000 {
            assert!(!ph.push(rng.normal(0.5, 0.2)));
        }
    }

    #[test]
    fn larger_lambda_is_slower() {
        let delay = |lambda: Real| -> usize {
            let mut ph = PageHinkley::new(0.05, lambda);
            let mut rng = Rng::seed_from(4);
            for _ in 0..500 {
                ph.push(rng.normal(1.0, 0.1));
            }
            for i in 0..5000 {
                if ph.push(rng.normal(1.8, 0.1)) {
                    return i;
                }
            }
            5000
        };
        assert!(delay(10.0) < delay(100.0));
    }

    #[test]
    fn non_finite_values_do_not_poison_the_mean() {
        let mut ph = PageHinkley::new(0.1, 30.0);
        let mut rng = Rng::seed_from(6);
        for _ in 0..1000 {
            assert!(!ph.push(rng.normal(1.0, 0.2)));
        }
        let (n, stat) = (ph.count(), ph.statistic());
        for bad in [Real::NAN, Real::INFINITY, Real::NEG_INFINITY] {
            assert!(!ph.push(bad));
        }
        assert_eq!(ph.count(), n);
        assert_eq!(ph.statistic(), stat);
        assert!(ph.statistic().is_finite());
        let mut detected = false;
        for _ in 0..1000 {
            detected |= ph.push(rng.normal(2.0, 0.2));
        }
        assert!(detected, "increase after NaN burst never detected");
    }

    #[test]
    fn reset_clears_statistic() {
        let mut ph = PageHinkley::new(0.0, 5.0);
        let mut rng = Rng::seed_from(5);
        for _ in 0..100 {
            ph.push(rng.normal(3.0, 0.5));
        }
        ph.reset();
        assert_eq!(ph.count(), 0);
        assert_eq!(ph.statistic(), 0.0);
    }
}
