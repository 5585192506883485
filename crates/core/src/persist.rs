//! Pipeline persistence: checkpoint the full detection state for device
//! reboot recovery.
//!
//! An edge device loses power; on restart it should resume with its
//! *adapted* model and centroids, not refit from scratch (the training
//! data is long gone). [`DriftPipeline::to_bytes`] captures every state a
//! pipeline can be in between two samples, and [`DriftPipeline::from_bytes`]
//! restores it bit for bit, so a restored pipeline continues exactly like
//! the uninterrupted one.
//!
//! Two payload kinds share one layout:
//!
//! - **At rest** (kind 16): no detection window open and no
//!   reconstruction running. The model, the detector's trained/test
//!   centroid sets, all thresholds, the guard, the reconstruction schedule
//!   and the sample counters.
//! - **In motion** (kind 17): the kind-16 body followed by one tagged
//!   section. Either Algorithm 1's open window (`win`; `checking` is
//!   implied by the tag), or a running reconstruction: Algorithms 2–4's
//!   coordinates `cor`, `seeded`, `count` and the `θ_drift` accumulator.
//!   The reconstruction's label-alignment reference is not written: it is
//!   the detector's trained set, which the body already holds.

use crate::centroid::{CentroidSet, Recency};
use crate::detector::{CentroidDetector, DetectorConfig, DistanceMetric};
use crate::guard::{GuardConfig, GuardCounters, GuardPolicy, SampleGuard};
use crate::pipeline::{DegradeReason, DriftPipeline, PipelineConfig, PipelineHealth};
use crate::reconstruct::{ReconstructConfig, Reconstructor};
use crate::threshold::DriftThresholdCalibrator;
use crate::{CoreError, Result};
use seqdrift_linalg::stats::Welford;
use seqdrift_linalg::wire::{
    reals_len, u64s_len, Reader, WireError, Writer, HEADER_BYTES, REAL_BYTES,
};
use seqdrift_oselm::persist::{
    multi_instance_body_len, read_multi_instance_body, write_multi_instance_body,
};

/// Payload kind of a pipeline at rest.
const KIND_PIPELINE: u16 = 16;
/// Payload kind of a pipeline with a window open or a reconstruction
/// running: the kind-16 body plus one [`Motion`] section.
const KIND_PIPELINE_IN_MOTION: u16 = 17;
/// [`Motion`] tag: a detection window is open.
const TAG_WINDOW: u8 = 1;
/// [`Motion`] tag: a reconstruction is running.
const TAG_RECONSTRUCTION: u8 = 2;

/// What an in-motion blob adds to the at-rest body.
enum Motion {
    AtRest,
    /// Algorithm 1's open window, `win` samples in.
    Window(usize),
    /// Algorithms 2–4 mid-way.
    Reconstruction {
        cor: CentroidSet,
        seeded: usize,
        count: usize,
        calibrator: DriftThresholdCalibrator,
    },
}

fn wire_err(e: WireError) -> CoreError {
    CoreError::InvalidConfig(match e {
        WireError::BadMagic => "persist: bad magic",
        WireError::UnsupportedVersion(_) => "persist: unsupported version",
        WireError::WrongKind { .. } => "persist: wrong payload kind",
        WireError::Truncated => "persist: truncated blob",
        WireError::Invalid(w) => w,
    })
}

fn write_centroid_set(w: &mut Writer, s: &CentroidSet) {
    w.u64(s.classes() as u64);
    w.u64(s.dim() as u64);
    for c in 0..s.classes() {
        w.reals(s.centroid(c).expect("class in range"));
    }
    w.u64s(s.counts());
}

/// Bytes [`write_centroid_set`] writes for `s`.
fn centroid_set_len(s: &CentroidSet) -> usize {
    8 + 8 + s.classes() * reals_len(s.dim()) + u64s_len(s.classes())
}

fn read_centroid_set(r: &mut Reader<'_>) -> Result<CentroidSet> {
    let classes = r.u64().map_err(wire_err)? as usize;
    let dim = r.u64().map_err(wire_err)? as usize;
    if classes == 0 || classes > 65_536 || dim == 0 || dim > 16_777_216 {
        return Err(CoreError::InvalidConfig("persist: centroid set shape"));
    }
    // Bound the allocation by the bytes actually present: a length-lying
    // blob could otherwise pass the sanity caps above (up to ~10^12
    // scalars) and make `zeros` reserve gigabytes before any row read
    // fails. Each of `classes` rows needs a length prefix plus `dim`
    // scalars, so a legitimate blob has at least this many bytes left.
    let min_bytes = (classes as u64)
        .checked_mul(8 + (dim as u64) * core::mem::size_of::<seqdrift_linalg::Real>() as u64)
        .ok_or(CoreError::InvalidConfig("persist: centroid set shape"))?;
    if min_bytes > r.remaining() as u64 {
        return Err(CoreError::InvalidConfig("persist: truncated blob"));
    }
    let mut set = CentroidSet::zeros(classes, dim);
    for c in 0..classes {
        let row = r.reals().map_err(wire_err)?;
        if row.len() != dim {
            return Err(CoreError::InvalidConfig("persist: centroid row length"));
        }
        set.set_centroid(c, &row)?;
    }
    let counts = r.u64s().map_err(wire_err)?;
    if counts.len() != classes {
        return Err(CoreError::InvalidConfig("persist: counts length"));
    }
    for (c, &n) in counts.iter().enumerate() {
        set.set_count(c, n);
    }
    Ok(set)
}

fn write_detector_config(w: &mut Writer, cfg: &DetectorConfig) {
    w.u64(cfg.classes as u64);
    w.u64(cfg.dim as u64);
    w.u64(cfg.window as u64);
    w.real(cfg.theta_error);
    w.real(cfg.theta_drift);
    w.u8(match cfg.metric {
        DistanceMetric::L1 => 0,
        DistanceMetric::L2 => 1,
    });
    match cfg.recency {
        Recency::RunningMean => w.u8(0),
        Recency::Ewma(a) => {
            w.u8(1);
            w.real(a);
        }
    }
}

/// Bytes [`write_detector_config`] writes for `cfg`.
fn detector_config_len(cfg: &DetectorConfig) -> usize {
    let recency = match cfg.recency {
        Recency::RunningMean => 1,
        Recency::Ewma(_) => 1 + REAL_BYTES,
    };
    3 * 8 + 2 * REAL_BYTES + 1 + recency
}

fn read_detector_config(r: &mut Reader<'_>) -> Result<DetectorConfig> {
    let classes = r.u64().map_err(wire_err)? as usize;
    let dim = r.u64().map_err(wire_err)? as usize;
    let window = r.u64().map_err(wire_err)? as usize;
    let theta_error = r.real().map_err(wire_err)?;
    let theta_drift = r.real().map_err(wire_err)?;
    let metric = match r.u8().map_err(wire_err)? {
        0 => DistanceMetric::L1,
        1 => DistanceMetric::L2,
        _ => return Err(CoreError::InvalidConfig("persist: metric tag")),
    };
    let recency = match r.u8().map_err(wire_err)? {
        0 => Recency::RunningMean,
        1 => Recency::Ewma(r.real().map_err(wire_err)?),
        _ => return Err(CoreError::InvalidConfig("persist: recency tag")),
    };
    Ok(DetectorConfig {
        classes,
        dim,
        window,
        theta_error,
        theta_drift,
        metric,
        recency,
    })
}

fn write_motion(w: &mut Writer, p: &DriftPipeline) {
    let det = p.detector();
    if det.is_checking() {
        w.u8(TAG_WINDOW);
        w.u64(det.window_fill() as u64);
    } else if p.is_reconstructing() {
        let r = p.reconstructor();
        debug_assert_eq!(
            r.previous(),
            det.trained_centroids(),
            "the alignment reference is the trained set throughout a reconstruction"
        );
        w.u8(TAG_RECONSTRUCTION);
        write_centroid_set(w, r.coordinates());
        w.u64(r.seeded() as u64);
        w.u64(r.count() as u64);
        let (n, mean, m2) = r.calibrator().welford().parts();
        w.u64(n);
        w.u64(mean.to_bits());
        w.u64(m2.to_bits());
    }
}

/// Bytes [`write_motion`] writes for `p`.
fn motion_len(p: &DriftPipeline) -> usize {
    if p.detector().is_checking() {
        1 + 8
    } else if p.is_reconstructing() {
        1 + centroid_set_len(p.reconstructor().coordinates()) + 2 * 8 + 3 * 8
    } else {
        0
    }
}

fn read_motion(r: &mut Reader<'_>) -> Result<Motion> {
    match r.u8().map_err(wire_err)? {
        TAG_WINDOW => Ok(Motion::Window(r.u64().map_err(wire_err)? as usize)),
        TAG_RECONSTRUCTION => {
            let cor = read_centroid_set(r)?;
            let seeded = r.u64().map_err(wire_err)? as usize;
            let count = r.u64().map_err(wire_err)? as usize;
            let n = r.u64().map_err(wire_err)?;
            let mean = f64::from_bits(r.u64().map_err(wire_err)?);
            let m2 = f64::from_bits(r.u64().map_err(wire_err)?);
            let welford = Welford::from_parts(n, mean, m2)
                .ok_or(CoreError::InvalidConfig("persist: calibrator state"))?;
            Ok(Motion::Reconstruction {
                cor,
                seeded,
                count,
                calibrator: DriftThresholdCalibrator::from_welford(welford),
            })
        }
        _ => Err(CoreError::InvalidConfig("persist: motion tag")),
    }
}

impl DriftPipeline {
    /// Serialises the pipeline's whole state: model, detector (config,
    /// trained/test centroid sets and the open window, if any), pipeline
    /// and reconstruction configs, a running reconstruction, the guard and
    /// the processed-sample counter. The event log is diagnostic and not
    /// persisted. A pipeline at rest writes kind 16, any other state
    /// kind 17 (see the module docs).
    ///
    /// Always `Ok`: every state serialises.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let cfg = self.config();
        let det = self.detector();
        let in_motion = det.is_checking() || self.is_reconstructing();
        let kind = if in_motion {
            KIND_PIPELINE_IN_MOTION
        } else {
            KIND_PIPELINE
        };
        let mut w = Writer::with_capacity(kind, self.encoded_len());
        // Pipeline-level config.
        write_detector_config(&mut w, det.config());
        w.u64(cfg.reconstruct.n_search as u64);
        w.u64(cfg.reconstruct.n_update as u64);
        w.u64(cfg.reconstruct.n_total as u64);
        w.real(cfg.reconstruct.z);
        w.u8(u8::from(cfg.reconstruct.align_labels));
        w.real(cfg.error_quantile);
        w.real(cfg.error_margin);
        w.real(cfg.z);
        w.u8(u8::from(cfg.train_on_stable));
        // Guard config + state and the health machine.
        w.u8(match cfg.guard.policy {
            GuardPolicy::Reject => 0,
            GuardPolicy::Clamp => 1,
            GuardPolicy::ImputeLast => 2,
        });
        w.real(cfg.guard.magnitude_limit);
        w.u64(cfg.guard.stuck_threshold);
        w.u64(cfg.guard.recover_after);
        w.u8(match self.health() {
            PipelineHealth::Healthy => 0,
            PipelineHealth::Degraded(DegradeReason::InputFault) => 1,
            PipelineHealth::Degraded(DegradeReason::NumericalFault) => 2,
        });
        w.u64(self.clean_streak());
        let gc = self.guard_counters();
        w.u64(gc.non_finite);
        w.u64(gc.oversized);
        w.u64(gc.dim_mismatch);
        w.u64(gc.stuck);
        w.u64(gc.sanitized);
        w.u64(gc.rejected);
        w.reals(self.guard_last_good());
        w.reals(self.guard_last_raw());
        w.u64(self.guard_run_len());
        // Detector state.
        write_centroid_set(&mut w, det.trained_centroids());
        write_centroid_set(&mut w, det.test_centroids());
        w.u64(det.samples_seen());
        w.u64(self.samples_processed());
        // Model.
        write_multi_instance_body(&mut w, self.model());
        write_motion(&mut w, self);
        Ok(w.into_bytes())
    }

    /// The exact length of [`DriftPipeline::to_bytes`]'s blob, field for
    /// field, so the blob is written with one allocation.
    fn encoded_len(&self) -> usize {
        let det = self.detector();
        let config =
            detector_config_len(det.config()) + 3 * 8 + REAL_BYTES + 1 + 3 * REAL_BYTES + 1;
        let guard = 1
            + REAL_BYTES
            + 2 * 8
            + 1
            + 8
            + 6 * 8
            + reals_len(self.guard_last_good().len())
            + reals_len(self.guard_last_raw().len())
            + 8;
        let detector = centroid_set_len(det.trained_centroids())
            + centroid_set_len(det.test_centroids())
            + 2 * 8;
        HEADER_BYTES
            + config
            + guard
            + detector
            + multi_instance_body_len(self.model())
            + motion_len(self)
    }

    /// Restores a pipeline written by [`DriftPipeline::to_bytes`], in
    /// whatever state it was written.
    pub fn from_bytes(data: &[u8]) -> Result<DriftPipeline> {
        let (mut r, in_motion) = match Reader::new(data, KIND_PIPELINE) {
            Ok(r) => (r, false),
            Err(WireError::WrongKind {
                got: KIND_PIPELINE_IN_MOTION,
                ..
            }) => (
                Reader::new(data, KIND_PIPELINE_IN_MOTION).map_err(wire_err)?,
                true,
            ),
            Err(e) => return Err(wire_err(e)),
        };
        let det_cfg = read_detector_config(&mut r)?;
        let n_search = r.u64().map_err(wire_err)? as usize;
        let n_update = r.u64().map_err(wire_err)? as usize;
        let n_total = r.u64().map_err(wire_err)? as usize;
        let recon_z = r.real().map_err(wire_err)?;
        let align_labels = r.u8().map_err(wire_err)? != 0;
        let error_quantile = r.real().map_err(wire_err)?;
        let error_margin = r.real().map_err(wire_err)?;
        let z = r.real().map_err(wire_err)?;
        let train_on_stable = r.u8().map_err(wire_err)? != 0;
        let guard_policy = match r.u8().map_err(wire_err)? {
            0 => GuardPolicy::Reject,
            1 => GuardPolicy::Clamp,
            2 => GuardPolicy::ImputeLast,
            _ => return Err(CoreError::InvalidConfig("persist: guard policy tag")),
        };
        let magnitude_limit = r.real().map_err(wire_err)?;
        let stuck_threshold = r.u64().map_err(wire_err)?;
        let recover_after = r.u64().map_err(wire_err)?;
        let health = match r.u8().map_err(wire_err)? {
            0 => PipelineHealth::Healthy,
            1 => PipelineHealth::Degraded(DegradeReason::InputFault),
            2 => PipelineHealth::Degraded(DegradeReason::NumericalFault),
            _ => return Err(CoreError::InvalidConfig("persist: health tag")),
        };
        let clean_streak = r.u64().map_err(wire_err)?;
        let guard_counters = GuardCounters {
            non_finite: r.u64().map_err(wire_err)?,
            oversized: r.u64().map_err(wire_err)?,
            dim_mismatch: r.u64().map_err(wire_err)?,
            stuck: r.u64().map_err(wire_err)?,
            sanitized: r.u64().map_err(wire_err)?,
            rejected: r.u64().map_err(wire_err)?,
        };
        let guard_last_good = r.reals().map_err(wire_err)?;
        let guard_last_raw = r.reals().map_err(wire_err)?;
        let guard_run_len = r.u64().map_err(wire_err)?;
        let trained = read_centroid_set(&mut r)?;
        let test = read_centroid_set(&mut r)?;
        let det_samples = r.u64().map_err(wire_err)?;
        let samples_processed = r.u64().map_err(wire_err)?;
        let model = read_multi_instance_body(&mut r)?;
        let motion = if in_motion {
            read_motion(&mut r)?
        } else {
            Motion::AtRest
        };
        r.finish().map_err(wire_err)?;

        let mut recon_cfg = ReconstructConfig::new(n_total)
            .with_search(n_search)
            .with_update(n_update)
            .with_z(recon_z);
        if !align_labels {
            recon_cfg = recon_cfg.without_label_alignment();
        }
        let guard_cfg = GuardConfig {
            policy: guard_policy,
            magnitude_limit,
            stuck_threshold,
            recover_after,
        };
        let cfg = PipelineConfig::new(det_cfg.clone())
            .with_reconstruct(recon_cfg)
            .with_error_quantile(error_quantile)
            .with_error_margin(error_margin)
            .with_z(z)
            .with_train_on_stable(train_on_stable)
            .with_guard(guard_cfg);

        // A running reconstruction was started by the window that just
        // closed full, so its detector holds `win == window`.
        let (checking, win) = match motion {
            Motion::AtRest => (false, 0),
            Motion::Window(win) => (true, win),
            Motion::Reconstruction { .. } => (false, det_cfg.window),
        };
        // The detector checks the config against the restored sets before
        // the config sizes any allocation.
        let detector =
            CentroidDetector::restore(det_cfg.clone(), trained, test, det_samples, checking, win)?;
        let reconstructor = match motion {
            Motion::Reconstruction {
                cor,
                seeded,
                count,
                calibrator,
            } => Reconstructor::resume(
                recon_cfg,
                detector.trained_centroids().clone(),
                cor,
                seeded,
                count,
                calibrator,
            )?,
            _ => Reconstructor::new(recon_cfg, det_cfg.classes, det_cfg.dim)?,
        };
        let guard = SampleGuard::from_parts(
            guard_cfg,
            det_cfg.dim,
            guard_counters,
            guard_last_good,
            guard_last_raw,
            guard_run_len,
        )?;
        DriftPipeline::from_restored_parts(
            model,
            detector,
            reconstructor,
            cfg,
            samples_processed,
            guard,
            health,
            clean_streak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::{Real, Rng};
    use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

    fn blob(rng: &mut Rng, dim: usize, mean: Real) -> Vec<Real> {
        let mut x = vec![0.0; dim];
        rng.fill_normal(&mut x, mean, 0.05);
        x
    }

    fn build_pipeline(rng: &mut Rng) -> DriftPipeline {
        let dim = 5;
        let class0: Vec<Vec<Real>> = (0..80).map(|_| blob(rng, dim, 0.2)).collect();
        let class1: Vec<Vec<Real>> = (0..80).map(|_| blob(rng, dim, 0.8)).collect();
        let mut model = MultiInstanceModel::new(2, OsElmConfig::new(dim, 4).with_seed(3)).unwrap();
        model.init_train_class(0, &class0).unwrap();
        model.init_train_class(1, &class1).unwrap();
        let pairs: Vec<(usize, &[Real])> = class0
            .iter()
            .map(|x| (0usize, x.as_slice()))
            .chain(class1.iter().map(|x| (1usize, x.as_slice())))
            .collect();
        let det = DetectorConfig::new(2, dim).with_window(20);
        DriftPipeline::calibrate(model, det, &pairs).unwrap()
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identically() {
        let mut rng = Rng::seed_from(1);
        let mut p = build_pipeline(&mut rng);
        // Warm it up so detector state is non-trivial.
        for i in 0..150 {
            let mean = if i % 2 == 0 { 0.2 } else { 0.8 };
            p.process(&blob(&mut rng, 5, mean)).unwrap();
        }
        let bytes = p.to_bytes().unwrap();
        let mut restored = DriftPipeline::from_bytes(&bytes).unwrap();
        assert_eq!(restored.samples_processed(), p.samples_processed());
        assert_eq!(
            restored.detector().config().theta_drift,
            p.detector().config().theta_drift
        );
        assert_eq!(
            restored.detector().test_centroids(),
            p.detector().test_centroids()
        );
        // Both continue in lockstep over the same future stream.
        let mut rng_a = Rng::seed_from(2);
        let mut rng_b = Rng::seed_from(2);
        for i in 0..300 {
            let mean = if i % 2 == 0 { 0.5 } else { 1.1 };
            let a = p.process(&blob(&mut rng_a, 5, mean)).unwrap();
            let b = restored.process(&blob(&mut rng_b, 5, mean)).unwrap();
            assert_eq!(a.predicted_label, b.predicted_label, "diverged at {i}");
            assert_eq!(a.drift_detected, b.drift_detected, "diverged at {i}");
        }
    }

    #[test]
    fn guard_state_and_health_roundtrip() {
        let mut rng = Rng::seed_from(21);
        let mut p = build_pipeline(&mut rng);
        p.set_guard_config(
            crate::GuardConfig::new()
                .with_policy(crate::GuardPolicy::ImputeLast)
                .with_stuck_threshold(6)
                .with_recover_after(4),
        )
        .unwrap();
        // Accumulate guard state: a clean sample, then a repaired one.
        let good = blob(&mut rng, 5, 0.2);
        p.process(&good).unwrap();
        let mut bad = good.clone();
        bad[2] = Real::NAN;
        let out = p.process(&bad).unwrap();
        assert!(out.sanitized);
        assert_eq!(
            p.health(),
            crate::PipelineHealth::Degraded(crate::pipeline::DegradeReason::InputFault)
        );

        let restored = DriftPipeline::from_bytes(&p.to_bytes().unwrap()).unwrap();
        assert_eq!(restored.health(), p.health());
        assert_eq!(restored.guard_counters(), p.guard_counters());
        assert_eq!(restored.guard_config(), p.guard_config());
        assert_eq!(restored.guard_last_good(), p.guard_last_good());
        // last_raw holds the NaN-laced sample; compare bit patterns (NaN
        // never compares equal to itself).
        let bits = |xs: &[Real]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(restored.guard_last_raw()), bits(p.guard_last_raw()));
        assert_eq!(restored.guard_run_len(), p.guard_run_len());
        assert_eq!(restored.clean_streak(), p.clean_streak());
        // The full blob is still bit-stable across a save/restore/save.
        assert_eq!(restored.to_bytes().unwrap(), p.to_bytes().unwrap());
    }

    #[test]
    fn corrupted_pipeline_blob_rejected() {
        let mut rng = Rng::seed_from(9);
        let p = build_pipeline(&mut rng);
        let bytes = p.to_bytes().unwrap();
        assert!(DriftPipeline::from_bytes(&bytes[..bytes.len() - 5]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'Q';
        assert!(DriftPipeline::from_bytes(&bad).is_err());
        let mut long = bytes;
        long.push(1);
        assert!(DriftPipeline::from_bytes(&long).is_err());
    }
}
