//! Deterministic scenario playback.
//!
//! Every synthetic stream is a pure function of `(scenario, session id)`:
//! the player derives one RNG per purpose (concepts, training split, each
//! session stream) via a splitmix64 mix of the master seed, so the produced
//! vectors are bit-identical regardless of worker count, feed interleaving,
//! or which consumer (eval / fleet / load) asks for them.

use std::path::{Path, PathBuf};

use seqdrift_datasets::synth::ClassConcept;
use seqdrift_datasets::{DriftDataset, DriftSchedule, Sample};
use seqdrift_linalg::rng::splitmix64;
use seqdrift_linalg::{Real, Rng};

use crate::model::*;
use crate::{Result, ScenarioError};

/// Domain-separation tags for derived seeds.
const TAG_CONCEPTS: u64 = 0x5351_5343_0001;
const TAG_TRAIN: u64 = 0x5351_5343_0002;
const TAG_SESSION: u64 = 0x5351_5343_0003;

fn derive(seed: u64, tag: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag ^ splitmix64(salt)))
}

/// Rows loaded from a recorded bundle.
struct RecordedData {
    reference: Option<Vec<u8>>,
    /// `(session id, flattened rows)` in manifest order.
    streams: Vec<(u64, Vec<Vec<Real>>)>,
}

/// Plays a scenario back as per-session sample streams.
pub struct ScenarioPlayer {
    scenario: Scenario,
    recorded: Option<RecordedData>,
}

impl ScenarioPlayer {
    /// Loads a scenario file and, for recorded scenarios, its data bundle
    /// (paths resolved relative to the file's directory).
    pub fn from_file(path: &Path) -> Result<ScenarioPlayer> {
        let scenario = Scenario::load(path)?;
        let base = path.parent().map(Path::to_path_buf);
        ScenarioPlayer::new(scenario, base.as_deref())
    }

    /// Wraps an already-parsed scenario. `base` is the directory recorded
    /// bundle files are resolved against; synthetic scenarios ignore it.
    pub fn new(scenario: Scenario, base: Option<&Path>) -> Result<ScenarioPlayer> {
        let recorded = match &scenario.body {
            ScenarioBody::Synthetic(_) => None,
            ScenarioBody::Recorded(spec) => {
                let base = base.ok_or_else(|| {
                    ScenarioError::Invalid(
                        "recorded scenario needs a base directory for its data files".into(),
                    )
                })?;
                Some(load_bundle(spec, base)?)
            }
        };
        Ok(ScenarioPlayer { scenario, recorded })
    }

    /// The scenario being played.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.scenario.name
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        match &self.scenario.body {
            ScenarioBody::Synthetic(s) => s.dim,
            ScenarioBody::Recorded(r) => r.dim,
        }
    }

    /// Session ids, in playback order.
    pub fn sessions(&self) -> Vec<u64> {
        match &self.scenario.body {
            ScenarioBody::Synthetic(s) => (0..s.sessions as u64).collect(),
            ScenarioBody::Recorded(r) => r.sessions.iter().map(|s| s.id).collect(),
        }
    }

    /// Reference model blob of a recorded bundle (`None` for synthetic
    /// scenarios or bundles recorded without one).
    pub fn reference_model(&self) -> Option<&[u8]> {
        self.recorded.as_ref().and_then(|r| r.reference.as_deref())
    }

    /// Per-session drift schedule (synthetic only): session `s` is staggered
    /// `s * stagger` samples after session 0.
    pub fn schedule_for(&self, session: u64) -> Result<DriftSchedule> {
        let s = self.scenario.synthetic()?;
        let off = session as usize * s.stagger;
        Ok(match s.drift.kind {
            DriftKind::Sudden => DriftSchedule::sudden(s.drift.start + off),
            DriftKind::Gradual => DriftSchedule::gradual(s.drift.start + off, s.drift.end + off),
            DriftKind::Incremental => {
                DriftSchedule::incremental(s.drift.start + off, s.drift.end + off)
            }
            DriftKind::Reoccurring => {
                DriftSchedule::reoccurring(s.drift.start + off, s.drift.end + off)
            }
        })
    }

    /// Old/new concept pairs, one per class (synthetic only).
    fn concepts(&self) -> Result<Vec<(ClassConcept, ClassConcept)>> {
        let s = self.scenario.synthetic()?;
        let mut rng = Rng::seed_from(derive(s.seed, TAG_CONCEPTS, 0));
        let all_dims: Vec<usize> = (0..s.dim).collect();
        Ok((0..s.classes)
            .map(|_| {
                let old = ClassConcept::random_pattern(s.dim, 0.2, 0.8, s.noise, &mut rng);
                let new = old.shifted(&all_dims, s.drift.magnitude);
                (old, new)
            })
            .collect())
    }

    /// Labelled training pairs drawn from the old concepts (synthetic only),
    /// grouped class-major: all of class 0, then class 1, ...
    pub fn train_pairs(&self) -> Result<Vec<(usize, Vec<Real>)>> {
        let s = self.scenario.synthetic()?;
        let concepts = self.concepts()?;
        let mut rng = Rng::seed_from(derive(s.seed, TAG_TRAIN, 0));
        let mut out = Vec::with_capacity(s.classes * s.train);
        for (label, (old, _)) in concepts.iter().enumerate() {
            for _ in 0..s.train {
                out.push((label, old.sample(&mut rng)));
            }
        }
        Ok(out)
    }

    /// Stream length for a session under the traffic mix.
    pub fn stream_len(&self, session: u64) -> usize {
        match &self.scenario.body {
            ScenarioBody::Synthetic(s) => {
                if (session as usize) < s.traffic.hot {
                    s.samples
                } else {
                    s.traffic.idle
                }
            }
            ScenarioBody::Recorded(r) => r
                .sessions
                .iter()
                .find(|x| x.id == session)
                .map(|x| x.rows)
                .unwrap_or(0),
        }
    }

    /// The labelled stream for a session (synthetic only — recorded bundles
    /// carry no ground-truth labels).
    pub fn labeled_stream(&self, session: u64) -> Result<Vec<Sample>> {
        let s = self.scenario.synthetic()?;
        if session as usize >= s.sessions {
            return Err(ScenarioError::Invalid(format!(
                "session {session} out of range (scenario has {})",
                s.sessions
            )));
        }
        let concepts = self.concepts()?;
        let schedule = self.schedule_for(session)?;
        let n = self.stream_len(session);
        let mut rng = Rng::seed_from(derive(s.seed, TAG_SESSION, session.wrapping_add(1)));
        let mut out = Vec::with_capacity(n);
        for t in 0..n {
            let label = rng.below(s.classes as u64) as usize;
            let (old, new) = &concepts[label];
            let (use_new, morph) = schedule.resolve(t, &mut rng);
            let x = match morph {
                Some(m) => ClassConcept::lerp(old, new, m).sample(&mut rng),
                None if use_new => new.sample(&mut rng),
                None => old.sample(&mut rng),
            };
            out.push(Sample::new(x, label));
        }
        Ok(out)
    }

    /// The feature-only stream for a session. For synthetic scenarios this
    /// is the labelled stream with labels dropped (bit-identical features);
    /// for recorded scenarios, the replayed rows.
    pub fn stream(&self, session: u64) -> Result<Vec<Vec<Real>>> {
        match &self.scenario.body {
            ScenarioBody::Synthetic(_) => Ok(self
                .labeled_stream(session)?
                .into_iter()
                .map(|s| s.x)
                .collect()),
            ScenarioBody::Recorded(_) => {
                let rec = self.recorded.as_ref().ok_or_else(|| {
                    ScenarioError::Invalid("recorded scenario loaded without bundle".into())
                })?;
                rec.streams
                    .iter()
                    .find(|(id, _)| *id == session)
                    .map(|(_, rows)| rows.clone())
                    .ok_or_else(|| {
                        ScenarioError::Invalid(format!("session {session} not in recorded bundle"))
                    })
            }
        }
    }

    /// Builds an eval-ready [`DriftDataset`] for one session (synthetic
    /// only): training split from the old concepts, test stream following
    /// the session's staggered schedule.
    pub fn dataset(&self, session: u64) -> Result<DriftDataset> {
        let s = self.scenario.synthetic()?;
        let schedule = self.schedule_for(session)?;
        let test = self.labeled_stream(session)?;
        if test.is_empty() {
            return Err(ScenarioError::Invalid(format!(
                "session {session} has an empty stream (idle traffic); no dataset to build"
            )));
        }
        let train = self
            .train_pairs()?
            .into_iter()
            .map(|(label, x)| Sample::new(x, label))
            .collect();
        Ok(DriftDataset {
            name: format!("{}-s{session}", self.scenario.name),
            train,
            test,
            drift_start: schedule.start,
            drift_end: (schedule.end > schedule.start).then_some(schedule.end),
            classes: s.classes,
        })
    }
}

/// Parses one bundle CSV row file: `rows` lines of `dim` comma-separated
/// floats (no header). Floats are written with Rust's shortest round-trip
/// formatting, so replay reproduces the recorded bits exactly.
fn parse_rows(text: &str, dim: usize, file: &str) -> Result<Vec<Vec<Real>>> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut row = Vec::with_capacity(dim);
        for tok in line.split(',') {
            let v: Real = tok.trim().parse().map_err(|_| {
                ScenarioError::Invalid(format!("{file}:{}: '{tok}' is not a number", i + 1))
            })?;
            row.push(v);
        }
        if row.len() != dim {
            return Err(ScenarioError::Invalid(format!(
                "{file}:{}: expected {dim} values, found {}",
                i + 1,
                row.len()
            )));
        }
        out.push(row);
    }
    Ok(out)
}

fn load_bundle(spec: &RecordedSpec, base: &Path) -> Result<RecordedData> {
    let resolve = |rel: &str| -> PathBuf { base.join(rel) };
    let reference = match &spec.reference {
        Some(rel) => {
            let p = resolve(rel);
            Some(
                std::fs::read(&p)
                    .map_err(|e| ScenarioError::Io(format!("{}: {e}", p.display())))?,
            )
        }
        None => None,
    };
    let mut streams = Vec::with_capacity(spec.sessions.len());
    for sess in &spec.sessions {
        let p = resolve(&sess.file);
        let text = std::fs::read_to_string(&p)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", p.display())))?;
        let rows = parse_rows(&text, spec.dim, &sess.file)?;
        if rows.len() != sess.rows {
            return Err(ScenarioError::Invalid(format!(
                "{}: manifest says {} rows, file has {}",
                sess.file,
                sess.rows,
                rows.len()
            )));
        }
        streams.push((sess.id, rows));
    }
    Ok(RecordedData { reference, streams })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `.sqsc` seed replays the same streams only while these
    /// derived seeds stay fixed.
    #[test]
    fn derived_seeds_replay_the_documented_values() {
        let got = [
            derive(9, TAG_CONCEPTS, 0),
            derive(9, TAG_TRAIN, 0),
            derive(9, TAG_SESSION, 1),
            derive(42, TAG_SESSION, 6),
            derive(0, 0, 0),
        ];
        assert_eq!(
            got,
            [
                0x297d_6095_bfb7_1996,
                0x2678_bac0_8402_bd3b,
                0xf4ec_d5ca_d72d_ffd3,
                0xed72_4e74_a4cd_8200,
                0x2382_75bc_38fc_be91,
            ]
        );
    }
}
