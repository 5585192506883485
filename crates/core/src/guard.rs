//! Per-sample input guard: the pipeline's first line of defence against
//! hostile sensor streams.
//!
//! The paper assumes clean streams; real edge deployments do not get them.
//! A single NaN reaching the Sherman–Morrison `P` update corrupts the model
//! permanently, a huge-but-finite reading (1e30) overflows the `f32`
//! reconstruction error to infinity, and a stuck sensor replaying one frame
//! forever silently drags every running centroid toward the frozen value.
//! [`SampleGuard`] validates each raw sample *before* it touches any model
//! state and applies a configurable [`GuardPolicy`]:
//!
//! * [`GuardPolicy::Reject`] — refuse the sample with a typed error; the
//!   pipeline state is untouched (the conservative default, and the PR 1/2
//!   behaviour for non-finite input).
//! * [`GuardPolicy::Clamp`] — sanitize in place: NaN → 0, ±∞ and
//!   out-of-range magnitudes → ±`magnitude_limit`; processing continues on
//!   the sanitized copy.
//! * [`GuardPolicy::ImputeLast`] — replace each bad feature with its value
//!   from the last good sample (falls back to rejection until one exists).
//!
//! Independently of the policy, a run of more than `stuck_threshold`
//! *bit-identical* consecutive samples is always rejected (imputing a stuck
//! frame would just replay it), and dimension mismatches are always
//! rejected. Every decision increments a [`GuardCounters`] field so
//! operators can see *what* the stream did, not just that something
//! happened.

use crate::{CoreError, Result};
use seqdrift_linalg::Real;

/// What to do with a sample that fails validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// Refuse the sample with a typed error; no state is touched.
    #[default]
    Reject,
    /// Replace bad features with 0 (NaN) or ±`magnitude_limit` (overflow)
    /// and continue on the sanitized copy.
    Clamp,
    /// Replace bad features with their value from the last good sample;
    /// rejects like [`GuardPolicy::Reject`] until a good sample exists.
    ImputeLast,
}

impl core::str::FromStr for GuardPolicy {
    type Err = &'static str;

    fn from_str(s: &str) -> core::result::Result<Self, Self::Err> {
        match s {
            "reject" => Ok(GuardPolicy::Reject),
            "clamp" => Ok(GuardPolicy::Clamp),
            "impute" | "impute-last" => Ok(GuardPolicy::ImputeLast),
            _ => Err("expected one of: reject, clamp, impute"),
        }
    }
}

impl core::fmt::Display for GuardPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            GuardPolicy::Reject => "reject",
            GuardPolicy::Clamp => "clamp",
            GuardPolicy::ImputeLast => "impute",
        })
    }
}

/// Guard configuration carried by
/// [`PipelineConfig`](crate::pipeline::PipelineConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Policy applied to samples with non-finite or oversized features.
    pub policy: GuardPolicy,
    /// Features with `|v|` beyond this are treated as invalid: their square
    /// (reconstruction error, Welford variance) would overflow `f32`. The
    /// default `1e12` keeps squares (~1e24) comfortably finite while never
    /// rejecting plausible physical sensor readings.
    pub magnitude_limit: Real,
    /// Reject the sample once more than this many bit-identical consecutive
    /// raw samples have arrived (`0` disables stuck detection).
    pub stuck_threshold: u64,
    /// Consecutive clean samples after which a degraded pipeline reports
    /// recovery (see
    /// [`PipelineHealth`](crate::pipeline::PipelineHealth)).
    pub recover_after: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            policy: GuardPolicy::Reject,
            magnitude_limit: 1e12,
            stuck_threshold: 0,
            recover_after: 8,
        }
    }
}

impl GuardConfig {
    /// Default configuration (policy `Reject`, limit `1e12`, stuck
    /// detection off, recovery after 8 clean samples).
    pub fn new() -> Self {
        GuardConfig::default()
    }

    /// Sets the policy for invalid features.
    pub fn with_policy(mut self, policy: GuardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the magnitude limit beyond which a finite feature is invalid.
    pub fn with_magnitude_limit(mut self, limit: Real) -> Self {
        self.magnitude_limit = limit;
        self
    }

    /// Sets the stuck-sensor run threshold (`0` disables).
    pub fn with_stuck_threshold(mut self, k: u64) -> Self {
        self.stuck_threshold = k;
        self
    }

    /// Sets how many consecutive clean samples clear a degraded state.
    pub fn with_recover_after(mut self, n: u64) -> Self {
        self.recover_after = n;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !self.magnitude_limit.is_finite() || self.magnitude_limit <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "guard magnitude_limit must be finite and > 0",
            ));
        }
        if self.recover_after == 0 {
            return Err(CoreError::InvalidConfig("guard recover_after must be >= 1"));
        }
        Ok(())
    }
}

/// Per-pipeline tallies of everything the guard saw and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardCounters {
    /// Samples containing at least one NaN/±∞ feature.
    pub non_finite: u64,
    /// Samples containing an oversized (finite but beyond the magnitude
    /// limit) feature and no non-finite one.
    pub oversized: u64,
    /// Samples with the wrong dimensionality.
    pub dim_mismatch: u64,
    /// Samples rejected as part of a stuck-sensor run.
    pub stuck: u64,
    /// Samples repaired (clamped or imputed) and processed.
    pub sanitized: u64,
    /// Samples refused outright.
    pub rejected: u64,
}

/// Verdict for a sample the guard allowed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// The sample passed validation untouched.
    Clean,
    /// The sample was repaired per the policy; process the buffer, not the
    /// original.
    Sanitized,
}

/// Stateful per-pipeline sample validator.
#[derive(Debug, Clone)]
pub struct SampleGuard {
    cfg: GuardConfig,
    dim: usize,
    counters: GuardCounters,
    /// Last sample that passed (possibly after repair); imputation source.
    last_good: Vec<Real>,
    /// Last raw sample, for bitwise stuck-run comparison.
    last_raw: Vec<Real>,
    /// Length of the current bit-identical run (1 = not repeating).
    run_len: u64,
}

impl SampleGuard {
    /// Builds a guard for `dim`-feature samples.
    pub fn new(cfg: GuardConfig, dim: usize) -> Result<Self> {
        cfg.validate()?;
        Ok(SampleGuard {
            cfg,
            dim,
            counters: GuardCounters::default(),
            last_good: Vec::new(),
            last_raw: Vec::new(),
            run_len: 0,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// The lifetime tallies.
    pub fn counters(&self) -> GuardCounters {
        self.counters
    }

    /// Validates `x`. On `Ok(Clean)` the caller processes `x` itself; on
    /// `Ok(Sanitized)` the repaired sample has been written to `buf` and the
    /// caller must process that instead. `Err` means the sample is refused
    /// and no model state may be touched.
    pub fn admit(&mut self, x: &[Real], buf: &mut Vec<Real>) -> Result<GuardVerdict> {
        if x.len() != self.dim {
            self.counters.dim_mismatch += 1;
            self.counters.rejected += 1;
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        // Stuck-run tracking compares raw bits: NaN payloads compare equal
        // to themselves, so a sensor stuck on NaN still counts as stuck.
        let same = self.last_raw.len() == x.len()
            && self
                .last_raw
                .iter()
                .zip(x.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if same {
            self.run_len += 1;
        } else {
            self.run_len = 1;
            self.last_raw.clear();
            self.last_raw.extend_from_slice(x);
        }
        if self.cfg.stuck_threshold > 0 && self.run_len > self.cfg.stuck_threshold {
            self.counters.stuck += 1;
            self.counters.rejected += 1;
            return Err(CoreError::StuckSensor { run: self.run_len });
        }
        // Feature validation: non-finite dominates oversized for counting
        // and error reporting (the first offending feature wins). A
        // branch-free screen runs first, and only a row it flags pays for
        // the exact scan. The screen flags exactly the rows the scan does:
        // NaN fails every `<=`, and capping the limit at `Real::MAX` keeps
        // a limit of +inf (or NaN, which the scan never exceeds) from
        // admitting ±inf.
        let limit = self.cfg.magnitude_limit.min(Real::MAX);
        let screened_clean = x.iter().fold(true, |ok, &v| ok & (v.abs() <= limit));
        let mut first_bad: Option<usize> = None;
        let mut any_non_finite = false;
        if !screened_clean {
            for (i, &v) in x.iter().enumerate() {
                let bad = !v.is_finite() || v.abs() > self.cfg.magnitude_limit;
                if bad {
                    if first_bad.is_none() {
                        first_bad = Some(i);
                    }
                    if !v.is_finite() {
                        any_non_finite = true;
                    }
                }
            }
        }
        let Some(first) = first_bad else {
            self.last_good.clear();
            self.last_good.extend_from_slice(x);
            return Ok(GuardVerdict::Clean);
        };
        if any_non_finite {
            self.counters.non_finite += 1;
        } else {
            self.counters.oversized += 1;
        }
        let refuse = |guard: &mut Self| {
            guard.counters.rejected += 1;
            if any_non_finite {
                // Report the first *non-finite* feature for parity with the
                // pre-guard NonFiniteInput contract.
                let feature = x.iter().position(|v| !v.is_finite()).unwrap_or(first);
                Err(CoreError::NonFiniteInput { feature })
            } else {
                Err(CoreError::OversizedInput { feature: first })
            }
        };
        match self.cfg.policy {
            GuardPolicy::Reject => refuse(self),
            GuardPolicy::ImputeLast if self.last_good.is_empty() => refuse(self),
            GuardPolicy::Clamp => {
                buf.clear();
                let limit = self.cfg.magnitude_limit;
                buf.extend(x.iter().map(|&v| {
                    if v.is_nan() {
                        0.0
                    } else {
                        v.clamp(-limit, limit)
                    }
                }));
                self.counters.sanitized += 1;
                self.last_good.clear();
                self.last_good.extend_from_slice(buf);
                Ok(GuardVerdict::Sanitized)
            }
            GuardPolicy::ImputeLast => {
                buf.clear();
                let limit = self.cfg.magnitude_limit;
                buf.extend(x.iter().enumerate().map(|(i, &v)| {
                    if !v.is_finite() || v.abs() > limit {
                        self.last_good[i]
                    } else {
                        v
                    }
                }));
                self.counters.sanitized += 1;
                self.last_good.clear();
                self.last_good.extend_from_slice(buf);
                Ok(GuardVerdict::Sanitized)
            }
        }
    }

    /// Replaces the configuration (counters and imputation state persist).
    pub(crate) fn set_config(&mut self, cfg: GuardConfig) -> Result<()> {
        cfg.validate()?;
        self.cfg = cfg;
        Ok(())
    }

    /// Reassembles a guard from persisted state (deserialisation).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: GuardConfig,
        dim: usize,
        counters: GuardCounters,
        last_good: Vec<Real>,
        last_raw: Vec<Real>,
        run_len: u64,
    ) -> Result<Self> {
        cfg.validate()?;
        if !(last_good.is_empty() || last_good.len() == dim)
            || !(last_raw.is_empty() || last_raw.len() == dim)
        {
            return Err(CoreError::InvalidConfig(
                "guard state length does not match dimension",
            ));
        }
        Ok(SampleGuard {
            cfg,
            dim,
            counters,
            last_good,
            last_raw,
            run_len,
        })
    }

    /// Imputation source (persistence).
    pub(crate) fn last_good(&self) -> &[Real] {
        &self.last_good
    }

    /// Last raw sample (persistence).
    pub(crate) fn last_raw(&self) -> &[Real] {
        &self.last_raw
    }

    /// Current identical-run length (persistence).
    pub(crate) fn run_len(&self) -> u64 {
        self.run_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SampleGuard::admit` as it was before the branch-free screen: the
    /// exact per-feature scan on every row. Kept verbatim as the oracle.
    fn reference_admit(
        g: &mut SampleGuard,
        x: &[Real],
        buf: &mut Vec<Real>,
    ) -> Result<GuardVerdict> {
        if x.len() != g.dim {
            g.counters.dim_mismatch += 1;
            g.counters.rejected += 1;
            return Err(CoreError::DimensionMismatch {
                expected: g.dim,
                got: x.len(),
            });
        }
        // Stuck-run tracking compares raw bits: NaN payloads compare equal
        // to themselves, so a sensor stuck on NaN still counts as stuck.
        let same = g.last_raw.len() == x.len()
            && g.last_raw
                .iter()
                .zip(x.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if same {
            g.run_len += 1;
        } else {
            g.run_len = 1;
            g.last_raw.clear();
            g.last_raw.extend_from_slice(x);
        }
        if g.cfg.stuck_threshold > 0 && g.run_len > g.cfg.stuck_threshold {
            g.counters.stuck += 1;
            g.counters.rejected += 1;
            return Err(CoreError::StuckSensor { run: g.run_len });
        }
        // Feature validation: non-finite dominates oversized for counting
        // and error reporting (the first offending feature wins).
        let mut first_bad: Option<usize> = None;
        let mut any_non_finite = false;
        for (i, &v) in x.iter().enumerate() {
            let bad = !v.is_finite() || v.abs() > g.cfg.magnitude_limit;
            if bad {
                if first_bad.is_none() {
                    first_bad = Some(i);
                }
                if !v.is_finite() {
                    any_non_finite = true;
                }
            }
        }
        let Some(first) = first_bad else {
            g.last_good.clear();
            g.last_good.extend_from_slice(x);
            return Ok(GuardVerdict::Clean);
        };
        if any_non_finite {
            g.counters.non_finite += 1;
        } else {
            g.counters.oversized += 1;
        }
        let refuse = |guard: &mut SampleGuard| {
            guard.counters.rejected += 1;
            if any_non_finite {
                // Report the first *non-finite* feature for parity with the
                // pre-guard NonFiniteInput contract.
                let feature = x.iter().position(|v| !v.is_finite()).unwrap_or(first);
                Err(CoreError::NonFiniteInput { feature })
            } else {
                Err(CoreError::OversizedInput { feature: first })
            }
        };
        match g.cfg.policy {
            GuardPolicy::Reject => refuse(g),
            GuardPolicy::ImputeLast if g.last_good.is_empty() => refuse(g),
            GuardPolicy::Clamp => {
                buf.clear();
                let limit = g.cfg.magnitude_limit;
                buf.extend(x.iter().map(|&v| {
                    if v.is_nan() {
                        0.0
                    } else {
                        v.clamp(-limit, limit)
                    }
                }));
                g.counters.sanitized += 1;
                g.last_good.clear();
                g.last_good.extend_from_slice(buf);
                Ok(GuardVerdict::Sanitized)
            }
            GuardPolicy::ImputeLast => {
                buf.clear();
                let limit = g.cfg.magnitude_limit;
                buf.extend(x.iter().enumerate().map(|(i, &v)| {
                    if !v.is_finite() || v.abs() > limit {
                        g.last_good[i]
                    } else {
                        v
                    }
                }));
                g.counters.sanitized += 1;
                g.last_good.clear();
                g.last_good.extend_from_slice(buf);
                Ok(GuardVerdict::Sanitized)
            }
        }
    }

    /// The screened `admit` against the exact scan on every row: same
    /// verdicts, counters, reported feature, repaired buffer and guard
    /// state, for NaN, ±inf and oversized values at the first, middle and
    /// last feature, under every policy, and with no magnitude limit.
    #[test]
    fn screened_admit_matches_the_exact_scan() {
        let dim = 37;
        let specials = [
            Real::NAN,
            -Real::NAN,
            Real::INFINITY,
            Real::NEG_INFINITY,
            2e12,
            -2e12,
            Real::MAX,
            1e12,
            -0.0,
        ];
        let policies = [
            GuardPolicy::Reject,
            GuardPolicy::Clamp,
            GuardPolicy::ImputeLast,
        ];
        for policy in policies {
            for limit in [1e12, Real::INFINITY] {
                // An unbounded limit cannot pass `validate`, but the screen
                // must still agree with the scan there.
                let mut screened = SampleGuard::new(GuardConfig::new(), dim).unwrap();
                screened.cfg = GuardConfig::new()
                    .with_policy(policy)
                    .with_stuck_threshold(2)
                    .with_magnitude_limit(limit);
                let mut exact = screened.clone();
                let (mut buf_s, mut buf_e) = (Vec::new(), Vec::new());
                let mut rows: Vec<Vec<Real>> = Vec::new();
                for (k, &bad) in specials.iter().enumerate() {
                    for at in [0, dim / 2, dim - 1] {
                        let mut x: Vec<Real> = (0..dim).map(|i| (i + k) as Real * 0.5).collect();
                        x[at] = bad;
                        rows.push(x.clone());
                        // A second bad feature of the other kind.
                        x[(at + 5) % dim] = if bad.is_finite() { Real::NAN } else { 3e12 };
                        rows.push(x);
                    }
                    rows.push((0..dim).map(|i| i as Real - 3.0).collect());
                }
                // A stuck run of a bad row.
                rows.extend(std::iter::repeat_n(rows[0].clone(), 3));
                let bits = |v: &[Real]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                for (n, x) in rows.iter().enumerate() {
                    let got = screened.admit(x, &mut buf_s);
                    let want = reference_admit(&mut exact, x, &mut buf_e);
                    let what = format!("{policy}, limit {limit}, row {n}");
                    assert_eq!(got, want, "{what}");
                    assert_eq!(screened.counters, exact.counters, "{what}");
                    assert_eq!(screened.run_len, exact.run_len, "{what}");
                    assert_eq!(bits(&buf_s), bits(&buf_e), "{what}");
                    assert_eq!(bits(&screened.last_good), bits(&exact.last_good), "{what}");
                    assert_eq!(bits(&screened.last_raw), bits(&exact.last_raw), "{what}");
                }
            }
        }
    }

    fn guard(policy: GuardPolicy) -> SampleGuard {
        SampleGuard::new(
            GuardConfig::new()
                .with_policy(policy)
                .with_stuck_threshold(3),
            3,
        )
        .unwrap()
    }

    #[test]
    fn clean_samples_pass_untouched() {
        let mut g = guard(GuardPolicy::Reject);
        let mut buf = Vec::new();
        for i in 0..5 {
            let x = [i as Real, 1.0, -2.0];
            assert_eq!(g.admit(&x, &mut buf).unwrap(), GuardVerdict::Clean);
        }
        assert_eq!(g.counters(), GuardCounters::default());
    }

    #[test]
    fn reject_reports_first_non_finite_feature() {
        let mut g = guard(GuardPolicy::Reject);
        let mut buf = Vec::new();
        let x = [1.0, Real::NAN, Real::INFINITY];
        assert_eq!(
            g.admit(&x, &mut buf).unwrap_err(),
            CoreError::NonFiniteInput { feature: 1 }
        );
        let c = g.counters();
        assert_eq!((c.non_finite, c.rejected), (1, 1));
    }

    #[test]
    fn oversized_is_its_own_error_and_counter() {
        let mut g = guard(GuardPolicy::Reject);
        let mut buf = Vec::new();
        let x = [1.0, 1e30, 0.0];
        assert_eq!(
            g.admit(&x, &mut buf).unwrap_err(),
            CoreError::OversizedInput { feature: 1 }
        );
        let c = g.counters();
        assert_eq!((c.oversized, c.non_finite, c.rejected), (1, 0, 1));
    }

    #[test]
    fn clamp_repairs_in_place() {
        let mut g = guard(GuardPolicy::Clamp);
        let mut buf = Vec::new();
        let x = [Real::NAN, -Real::INFINITY, 1e30];
        assert_eq!(g.admit(&x, &mut buf).unwrap(), GuardVerdict::Sanitized);
        assert_eq!(buf, vec![0.0, -1e12, 1e12]);
        assert_eq!(g.counters().sanitized, 1);
    }

    #[test]
    fn impute_uses_last_good_and_rejects_before_one_exists() {
        let mut g = guard(GuardPolicy::ImputeLast);
        let mut buf = Vec::new();
        // No last-good yet: behaves like Reject.
        assert!(g.admit(&[Real::NAN, 0.0, 0.0], &mut buf).is_err());
        assert_eq!(
            g.admit(&[1.0, 2.0, 3.0], &mut buf).unwrap(),
            GuardVerdict::Clean
        );
        assert_eq!(
            g.admit(&[Real::NAN, 9.0, Real::INFINITY], &mut buf)
                .unwrap(),
            GuardVerdict::Sanitized
        );
        assert_eq!(buf, vec![1.0, 9.0, 3.0]);
        // The repaired sample becomes the new imputation source.
        assert_eq!(
            g.admit(&[Real::NAN, 0.0, 0.0], &mut buf).unwrap(),
            GuardVerdict::Sanitized
        );
        assert_eq!(buf, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn stuck_runs_are_rejected_past_threshold() {
        let mut g = guard(GuardPolicy::Clamp);
        let mut buf = Vec::new();
        let x = [0.5, 0.5, 0.5];
        for _ in 0..3 {
            assert!(g.admit(&x, &mut buf).is_ok());
        }
        assert_eq!(
            g.admit(&x, &mut buf).unwrap_err(),
            CoreError::StuckSensor { run: 4 }
        );
        // A different sample resets the run.
        assert!(g.admit(&[0.5, 0.5, 0.6], &mut buf).is_ok());
        assert!(g.admit(&x, &mut buf).is_ok());
        let c = g.counters();
        assert_eq!((c.stuck, c.rejected), (1, 1));
    }

    #[test]
    fn stuck_detection_disabled_by_default() {
        let mut g = SampleGuard::new(GuardConfig::new(), 2).unwrap();
        let mut buf = Vec::new();
        for _ in 0..100 {
            assert!(g.admit(&[1.0, 1.0], &mut buf).is_ok());
        }
        assert_eq!(g.counters().stuck, 0);
    }

    #[test]
    fn dimension_mismatch_always_rejects() {
        for policy in [
            GuardPolicy::Reject,
            GuardPolicy::Clamp,
            GuardPolicy::ImputeLast,
        ] {
            let mut g = guard(policy);
            let mut buf = Vec::new();
            assert!(matches!(
                g.admit(&[1.0, 2.0], &mut buf),
                Err(CoreError::DimensionMismatch {
                    expected: 3,
                    got: 2
                })
            ));
            assert_eq!(g.counters().dim_mismatch, 1);
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(GuardConfig::new()
            .with_magnitude_limit(0.0)
            .validate()
            .is_err());
        assert!(GuardConfig::new()
            .with_magnitude_limit(Real::NAN)
            .validate()
            .is_err());
        assert!(GuardConfig::new().with_recover_after(0).validate().is_err());
        assert!(GuardConfig::new().validate().is_ok());
    }

    #[test]
    fn policy_parses_from_cli_spellings() {
        assert_eq!(
            "reject".parse::<GuardPolicy>().unwrap(),
            GuardPolicy::Reject
        );
        assert_eq!("clamp".parse::<GuardPolicy>().unwrap(), GuardPolicy::Clamp);
        assert_eq!(
            "impute".parse::<GuardPolicy>().unwrap(),
            GuardPolicy::ImputeLast
        );
        assert_eq!(
            "impute-last".parse::<GuardPolicy>().unwrap(),
            GuardPolicy::ImputeLast
        );
        assert!("yolo".parse::<GuardPolicy>().is_err());
    }
}
