//! Synthetic cooling-fan vibration spectra.
//!
//! The paper's cooling-fan dataset \[16\] contains 511-bin frequency spectra
//! (1–511 Hz) of healthy and damaged fans measured by an industrial
//! accelerometer in silent and noisy environments. This module synthesises
//! physically-plausible equivalents:
//!
//! * a healthy fan is a harmonic series of its rotation fundamental with a
//!   broadband noise floor;
//! * **hole damage** unbalances the rotor: a strong 1x amplitude boost, a
//!   half-order sub-harmonic, and a raised floor;
//! * **chip damage** (one blade edge chipped) is milder: a moderate 1x
//!   boost with asymmetric sidebands around the fundamental;
//! * a **noisy environment** adds a ventilation-fan interference band.
//!
//! The three test scenarios follow §4.1.2 exactly: sudden (hole damage from
//! sample 120), gradual (chip damage mixing in over samples 120–600), and
//! reoccurring (chip damage only during samples 120–170). Training data is
//! a healthy fan in a silent environment. The discriminative model for this
//! dataset has a single class (anomaly detection against one normal
//! pattern), so every sample is labelled 0 and ground truth lives in the
//! drift indices.

use crate::drift::DriftSchedule;
use crate::stream::{DriftDataset, Sample};
use seqdrift_linalg::{Real, Rng};

/// Number of spectrum bins (1 Hz .. 511 Hz).
pub const SPECTRUM_BINS: usize = 511;

/// Mechanical condition of the fan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanCondition {
    /// Healthy fan.
    Normal,
    /// Holes drilled in a blade (strong radial unbalance).
    HoleDamage,
    /// Chipped blade edge (mild unbalance).
    ChipDamage,
}

/// Acoustic environment of the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Environment {
    /// Silent room.
    Silent,
    /// Near a ventilation fan (interference band).
    Noisy,
}

/// Configuration for the fan-spectrum generator.
#[derive(Debug, Clone)]
pub struct FanConfig {
    /// Rotation fundamental in Hz (= bin index).
    pub fundamental_hz: Real,
    /// Number of harmonics in the series.
    pub harmonics: usize,
    /// Base peak amplitude.
    pub base_amplitude: Real,
    /// Per-harmonic geometric decay.
    pub harmonic_decay: Real,
    /// Broadband noise-floor level.
    pub noise_floor: Real,
    /// Number of training samples (healthy, silent).
    pub n_train: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FanConfig {
    fn default() -> Self {
        FanConfig {
            fundamental_hz: 43.0,
            harmonics: 10,
            base_amplitude: 0.35,
            harmonic_decay: 0.62,
            noise_floor: 0.02,
            // The paper does not state its fan training-set size; 60
            // healthy spectra reproduce the delay dynamics of Table 3
            // (the running-mean weight `num` must be small enough that a
            // 50-sample damage burst can move the test centroid past the
            // Eq. 1 threshold).
            n_train: 60,
            seed: 0xFA_2025,
        }
    }
}

/// Draws one spectrum for the given condition/environment.
pub fn spectrum(
    cfg: &FanConfig,
    condition: FanCondition,
    environment: Environment,
    rng: &mut Rng,
) -> Vec<Real> {
    let mut s = vec![0.0; SPECTRUM_BINS];
    // Broadband noise floor (rectified Gaussian), raised for hole damage.
    let floor = match condition {
        FanCondition::HoleDamage => cfg.noise_floor * 2.0,
        _ => cfg.noise_floor,
    };
    for v in &mut s {
        *v = (rng.normal(floor, floor * 0.3)).abs();
    }
    // Small run-to-run speed wobble shifts every peak coherently.
    let f0 = cfg.fundamental_hz + rng.normal(0.0, 0.15);
    let amp_jitter = 1.0 + rng.normal(0.0, 0.05);

    // 1x amplitude multiplier encodes the unbalance severity.
    let one_x_boost = match condition {
        FanCondition::Normal => 1.0,
        FanCondition::ChipDamage => 2.4,
        FanCondition::HoleDamage => 3.2,
    };

    for k in 1..=cfg.harmonics {
        let freq = f0 * k as Real;
        if freq >= SPECTRUM_BINS as Real {
            break;
        }
        let mut amp = cfg.base_amplitude * cfg.harmonic_decay.powi(k as i32 - 1) * amp_jitter;
        if k == 1 {
            amp *= one_x_boost;
        }
        // Damaged blades redistribute energy: higher harmonics weaken.
        if condition != FanCondition::Normal && k >= 3 {
            amp *= 0.7;
        }
        add_peak(&mut s, freq, amp, 1.6);
    }

    match condition {
        FanCondition::HoleDamage => {
            // Half-order sub-harmonic from looseness/unbalance interplay,
            // plus 2x sidebands — the severe damage signature.
            add_peak(&mut s, f0 * 0.5, cfg.base_amplitude * 1.5, 2.0);
            add_peak(&mut s, f0 * 2.0 - 4.0, cfg.base_amplitude * 0.9, 1.6);
            add_peak(&mut s, f0 * 2.0 + 4.0, cfg.base_amplitude * 0.7, 1.6);
        }
        FanCondition::ChipDamage => {
            // Asymmetric sidebands around the fundamental plus a broadband
            // turbulence band from the disturbed airflow over the chipped
            // edge.
            add_peak(&mut s, f0 - 5.0, cfg.base_amplitude * 1.9, 1.4);
            add_peak(&mut s, f0 + 5.0, cfg.base_amplitude * 1.3, 1.4);
            for v in s.iter_mut().skip(150).take(150) {
                *v += 0.035;
            }
        }
        FanCondition::Normal => {}
    }

    if environment == Environment::Noisy {
        // Ventilation-fan interference band around 290–340 Hz.
        add_peak(&mut s, 295.0 + rng.normal(0.0, 1.0), 0.30, 4.0);
        add_peak(&mut s, 333.0 + rng.normal(0.0, 1.0), 0.22, 4.0);
        for v in s.iter_mut().skip(250).take(120) {
            *v += 0.02;
        }
    }

    // Clamp into [0, 1] like a normalised accelerometer FFT.
    for v in &mut s {
        *v = v.clamp(0.0, 1.0);
    }
    s
}

/// Adds a Gaussian-shaped peak centred at `freq` (Hz == bin).
fn add_peak(s: &mut [Real], freq: Real, amp: Real, width: Real) {
    if freq < 0.0 {
        return;
    }
    let lo = ((freq - 4.0 * width).floor().max(0.0)) as usize;
    let hi = (((freq + 4.0 * width).ceil()) as usize).min(s.len().saturating_sub(1));
    for (i, v) in s.iter_mut().enumerate().take(hi + 1).skip(lo) {
        let d = (i as Real - freq) / width;
        *v += amp * (-0.5 * d * d).exp();
    }
}

/// Which of the paper's three fan test scenarios to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanScenario {
    /// Hole damage appears suddenly at sample 120 (silent environment).
    Sudden,
    /// Chip damage mixes in gradually over samples 120–600.
    Gradual,
    /// Chip damage appears during samples 120–170, then the healthy
    /// pattern reoccurs.
    Reoccurring,
}

impl FanScenario {
    /// The drift schedule of this scenario over a 700-sample stream.
    pub fn schedule(self) -> DriftSchedule {
        match self {
            FanScenario::Sudden => DriftSchedule::sudden(120),
            FanScenario::Gradual => DriftSchedule::gradual(120, 600),
            FanScenario::Reoccurring => DriftSchedule::reoccurring(120, 170),
        }
    }

    /// The damaged condition used after the drift.
    pub fn damaged_condition(self) -> FanCondition {
        match self {
            FanScenario::Sudden => FanCondition::HoleDamage,
            _ => FanCondition::ChipDamage,
        }
    }
}

/// Test-stream length for all fan scenarios (Table 5: 700 samples).
pub const FAN_TEST_LEN: usize = 700;

/// Generates a full fan dataset for one scenario.
pub fn generate(cfg: &FanConfig, scenario: FanScenario, environment: Environment) -> DriftDataset {
    let mut rng = Rng::seed_from(cfg.seed);
    let mut train = Vec::with_capacity(cfg.n_train);
    for _ in 0..cfg.n_train {
        train.push(Sample::new(
            spectrum(cfg, FanCondition::Normal, Environment::Silent, &mut rng),
            0,
        ));
    }

    let schedule = scenario.schedule();
    let damaged = scenario.damaged_condition();
    let mut test = Vec::with_capacity(FAN_TEST_LEN);
    for t in 0..FAN_TEST_LEN {
        let (use_new, morph) = schedule.resolve(t, &mut rng);
        debug_assert!(morph.is_none(), "fan scenarios never morph");
        let condition = if use_new {
            damaged
        } else {
            FanCondition::Normal
        };
        test.push(Sample::new(
            spectrum(cfg, condition, environment, &mut rng),
            0,
        ));
    }

    let name = match scenario {
        FanScenario::Sudden => "fan-sudden",
        FanScenario::Gradual => "fan-gradual",
        FanScenario::Reoccurring => "fan-reoccurring",
    };
    DriftDataset {
        name: name.into(),
        train,
        test,
        drift_start: schedule.start,
        drift_end: if schedule.end > schedule.start {
            Some(schedule.end)
        } else {
            None
        },
        classes: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::vector;

    fn mean_spectrum(cfg: &FanConfig, c: FanCondition, e: Environment, n: usize) -> Vec<Real> {
        let mut rng = Rng::seed_from(9);
        let mut m = vec![0.0; SPECTRUM_BINS];
        for _ in 0..n {
            let s = spectrum(cfg, c, e, &mut rng);
            vector::axpy(1.0, &s, &mut m);
        }
        vector::scale(1.0 / n as Real, &mut m);
        m
    }

    #[test]
    fn spectrum_has_correct_bins_and_range() {
        let cfg = FanConfig::default();
        let mut rng = Rng::seed_from(1);
        let s = spectrum(&cfg, FanCondition::Normal, Environment::Silent, &mut rng);
        assert_eq!(s.len(), 511);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn healthy_spectrum_peaks_at_harmonics() {
        let cfg = FanConfig::default();
        let m = mean_spectrum(&cfg, FanCondition::Normal, Environment::Silent, 40);
        // Fundamental bin (43) should dominate its neighbourhood baseline.
        let peak = m[43];
        let baseline = m[100]; // between harmonics 2 and 3
        assert!(peak > 5.0 * baseline, "peak {peak} vs baseline {baseline}");
        // Second harmonic present.
        assert!(m[86] > 3.0 * baseline);
    }

    #[test]
    fn hole_damage_boosts_fundamental_and_subharmonic() {
        let cfg = FanConfig::default();
        let healthy = mean_spectrum(&cfg, FanCondition::Normal, Environment::Silent, 40);
        let damaged = mean_spectrum(&cfg, FanCondition::HoleDamage, Environment::Silent, 40);
        assert!(damaged[43] > 1.5 * healthy[43], "1x not boosted");
        // Sub-harmonic at ~21 Hz appears only for hole damage.
        assert!(damaged[21] > healthy[21] + 0.2, "sub-harmonic missing");
    }

    #[test]
    fn chip_damage_is_milder_than_hole_damage() {
        let cfg = FanConfig::default();
        let healthy = mean_spectrum(&cfg, FanCondition::Normal, Environment::Silent, 40);
        let chip = mean_spectrum(&cfg, FanCondition::ChipDamage, Environment::Silent, 40);
        let hole = mean_spectrum(&cfg, FanCondition::HoleDamage, Environment::Silent, 40);
        let dist_chip = vector::dist_l2(&chip, &healthy);
        let dist_hole = vector::dist_l2(&hole, &healthy);
        assert!(
            dist_hole > dist_chip,
            "hole {dist_hole} should move further than chip {dist_chip}"
        );
        assert!(dist_chip > 0.1, "chip damage indistinguishable");
    }

    #[test]
    fn noisy_environment_adds_interference_band() {
        let cfg = FanConfig::default();
        let silent = mean_spectrum(&cfg, FanCondition::Normal, Environment::Silent, 40);
        let noisy = mean_spectrum(&cfg, FanCondition::Normal, Environment::Noisy, 40);
        assert!(noisy[295] > silent[295] + 0.1);
        assert!(noisy[333] > silent[333] + 0.05);
        // Low-frequency region unaffected.
        assert!((noisy[43] - silent[43]).abs() < 0.1);
    }

    #[test]
    fn sudden_scenario_shape() {
        let cfg = FanConfig {
            n_train: 50,
            ..FanConfig::default()
        };
        let d = generate(&cfg, FanScenario::Sudden, Environment::Silent);
        d.validate().unwrap();
        assert_eq!(d.test.len(), 700);
        assert_eq!(d.drift_start, 120);
        assert_eq!(d.drift_end, None);
        assert_eq!(d.classes, 1);
        // Post-drift samples differ strongly from pre-drift ones.
        let pre = &d.test[60].x;
        let post = &d.test[400].x;
        assert!(vector::dist_l2(pre, post) > 0.3);
    }

    #[test]
    fn gradual_scenario_mixes_during_transition() {
        let cfg = FanConfig {
            n_train: 50,
            ..FanConfig::default()
        };
        let d = generate(&cfg, FanScenario::Gradual, Environment::Silent);
        assert_eq!(d.drift_start, 120);
        assert_eq!(d.drift_end, Some(600));
        // Early transition mostly healthy, late mostly damaged: compare the
        // fundamental-bin mean (damage boosts it).
        let avg_f0 = |range: std::ops::Range<usize>| -> Real {
            let n = range.len() as Real;
            d.test[range].iter().map(|s| s.x[43]).sum::<Real>() / n
        };
        let early = avg_f0(120..220);
        let late = avg_f0(500..600);
        assert!(late > early, "late {late} <= early {early}");
    }

    #[test]
    fn reoccurring_scenario_returns_to_normal() {
        let cfg = FanConfig {
            n_train: 50,
            ..FanConfig::default()
        };
        let d = generate(&cfg, FanScenario::Reoccurring, Environment::Silent);
        assert_eq!(d.drift_start, 120);
        assert_eq!(d.drift_end, Some(170));
        let avg_f0 = |range: std::ops::Range<usize>| -> Real {
            let n = range.len() as Real;
            d.test[range].iter().map(|s| s.x[43]).sum::<Real>() / n
        };
        let before = avg_f0(0..120);
        let during = avg_f0(120..170);
        let after = avg_f0(200..700);
        assert!(during > before + 0.1, "during {during} vs before {before}");
        assert!(
            (after - before).abs() < 0.1,
            "after {after} vs before {before}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FanConfig {
            n_train: 20,
            ..FanConfig::default()
        };
        let a = generate(&cfg, FanScenario::Sudden, Environment::Silent);
        let b = generate(&cfg, FanScenario::Sudden, Environment::Silent);
        assert_eq!(a.test, b.test);
    }
}
