//! Input synthesis: per-session scenario streams and the reference blob.
//!
//! Every input is a pure function of the workload's [`Spec`] and the run
//! seed, produced through `seqdrift-scenario` so the streams are the same
//! ones `seqdrift fleet --scenario` and `seqdrift load --scenario` replay.
//! The program under test only ever sees the rows and the reference blob.

use std::time::Instant;

use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_linalg::Real;
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use seqdrift_scenario::{Scenario, ScenarioPlayer};

/// Shape of a workload's input streams and of the reference it starts from.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Scenario name.
    pub name: &'static str,
    /// Sessions (streams) synthesized.
    pub sessions: usize,
    /// Features per row.
    pub dim: usize,
    /// OS-ELM hidden nodes.
    pub hidden: usize,
    /// Algorithm 1 window `W`.
    pub window: usize,
    /// Training rows per class for the reference calibration.
    pub train: usize,
    /// Rows per session stream; the workloads cycle it.
    pub samples: usize,
    /// The new concept is in force on `[start, end)`, shifted by
    /// `stagger * session`.
    pub start: usize,
    /// See `start`.
    pub end: usize,
    /// Per-session onset offset.
    pub stagger: usize,
    /// Mean shift of the new concept on every feature.
    pub magnitude: f64,
}

/// The paper's own device case (Table 6 shape): 511 features, 22 hidden.
pub const DEVICE: Spec = Spec {
    name: "device-511",
    sessions: 8,
    dim: 511,
    hidden: 22,
    window: 50,
    train: 200,
    samples: 6_000,
    start: 1_500,
    end: 3_500,
    stagger: 0,
    magnitude: 0.5,
};

/// The fleet streams: small rows, one staggered reoccurring drift per
/// 4,000-row cycle with at least 1,500 rows of runway after each onset.
pub const FLEET: Spec = Spec {
    name: "fleet-38",
    sessions: 64,
    dim: 38,
    hidden: 16,
    window: 32,
    train: 100,
    samples: 4_000,
    start: 1_000,
    end: 2_500,
    stagger: 15,
    magnitude: 0.3,
};

/// Classes in every workload scenario.
pub const CLASSES: usize = 2;

/// Synthesized rows, labels and the calibrated reference.
pub struct Inputs {
    /// The shape these inputs follow.
    pub spec: Spec,
    /// Per session, `samples * dim` row-major features.
    pub rows: Vec<Vec<Real>>,
    /// Per session, the ground-truth label of every row.
    pub labels: Vec<Vec<u8>>,
    /// `DriftPipeline::to_bytes` of the calibrated reference.
    pub reference: Vec<u8>,
    /// Seconds spent in `ScenarioPlayer` (streams and training pairs).
    pub synth_s: f64,
    /// Seconds spent training and calibrating the reference.
    pub calibrate_s: f64,
}

impl Spec {
    /// The `.sqsc` text of this workload at `seed`.
    pub fn scenario_text(&self, seed: u64) -> String {
        format!(
            "sqsc 1\nname {}\nkind synthetic\nseed {seed}\nsessions {}\ndim {}\nclasses {CLASSES}\n\
             train {}\nsamples {}\nnoise 0.05\ndrift reoccurring start {} end {} magnitude {}\nstagger {}\n",
            self.name,
            self.sessions,
            self.dim,
            self.train,
            self.samples,
            self.start,
            self.end,
            self.magnitude,
            self.stagger
        )
    }

    /// Drift onsets of `session` within one cycle of its stream: the new
    /// concept arriving, then the old one returning.
    pub fn onsets(&self, session: usize) -> [usize; 2] {
        let off = session * self.stagger;
        [self.start + off, self.end + off]
    }
}

impl Inputs {
    /// Synthesizes the streams of `spec` at `seed` and calibrates the
    /// reference from the scenario's training split.
    pub fn synthesize(spec: Spec, seed: u64) -> Result<Inputs, String> {
        let t = Instant::now();
        let scenario = Scenario::parse(&spec.scenario_text(seed)).map_err(|e| e.to_string())?;
        let player = ScenarioPlayer::new(scenario, None).map_err(|e| e.to_string())?;
        let mut rows = Vec::with_capacity(spec.sessions);
        let mut labels = Vec::with_capacity(spec.sessions);
        for s in 0..spec.sessions as u64 {
            let stream = player.labeled_stream(s).map_err(|e| e.to_string())?;
            let mut flat = Vec::with_capacity(stream.len() * spec.dim);
            let mut ls = Vec::with_capacity(stream.len());
            for sample in stream {
                flat.extend_from_slice(&sample.x);
                ls.push(sample.label as u8);
            }
            rows.push(flat);
            labels.push(ls);
        }
        let pairs = player.train_pairs().map_err(|e| e.to_string())?;
        let synth_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut model = MultiInstanceModel::new(
            CLASSES,
            OsElmConfig::new(spec.dim, spec.hidden).with_seed(seed),
        )
        .map_err(|e| e.to_string())?;
        let mut buckets: Vec<Vec<Vec<Real>>> = vec![Vec::new(); CLASSES];
        for (label, x) in &pairs {
            buckets[*label].push(x.clone());
        }
        for (label, bucket) in buckets.iter().enumerate() {
            model
                .init_train_class(label, bucket)
                .map_err(|e| e.to_string())?;
        }
        let refs: Vec<(usize, &[Real])> = pairs.iter().map(|(l, x)| (*l, x.as_slice())).collect();
        let det = DetectorConfig::new(CLASSES, spec.dim).with_window(spec.window);
        let reference = DriftPipeline::calibrate_with(model, det, &refs, None)
            .and_then(|p| p.to_bytes())
            .map_err(|e| e.to_string())?;
        let calibrate_s = t.elapsed().as_secs_f64();
        Ok(Inputs {
            spec,
            rows,
            labels,
            reference,
            synth_s,
            calibrate_s,
        })
    }

    /// Row `i` of `session`'s stream, cycling.
    pub fn row(&self, session: usize, i: u64) -> &[Real] {
        let d = self.spec.dim;
        let k = (i % self.spec.samples as u64) as usize;
        &self.rows[session][k * d..(k + 1) * d]
    }

    /// Ground-truth label of row `i` of `session`'s stream, cycling.
    pub fn label(&self, session: usize, i: u64) -> usize {
        self.labels[session][(i % self.spec.samples as u64) as usize] as usize
    }

    /// FNV-1a digest of every row, label and the reference: a different
    /// seed must change it.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for (rows, labels) in self.rows.iter().zip(&self.labels) {
            rows.iter()
                .for_each(|v| v.to_bits().to_le_bytes().into_iter().for_each(&mut eat));
            labels.iter().copied().for_each(&mut eat);
        }
        self.reference.iter().copied().for_each(&mut eat);
        h
    }
}
