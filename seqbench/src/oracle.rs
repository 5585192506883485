//! Output checks against an independent oracle: a plain single-threaded
//! `DriftPipeline` replay of exactly the rows a session received, plus the
//! quality figures (accuracy, detection delay, operation mix) computed from
//! pipeline outputs.

use seqdrift_core::pipeline::PipelineOutput;
use seqdrift_core::DriftPipeline;
use seqdrift_edgesim::flops::Table6Op;

use crate::inputs::{Inputs, CLASSES};

/// Label-permutation-aware accuracy, computed the way `crates/eval` does:
/// the stream splits into epochs at each completed reconstruction and each
/// epoch scores its better labelling (direct or swapped, two classes).
#[derive(Debug, Default, Clone, Copy)]
pub struct PermAccuracy {
    correct: u64,
    total: u64,
    epoch_direct: u64,
    epoch_n: u64,
}

impl PermAccuracy {
    /// Scores one prediction in the current epoch.
    pub fn push(&mut self, truth: usize, predicted: Option<usize>) {
        self.epoch_n += 1;
        if predicted == Some(truth) {
            self.epoch_direct += 1;
        }
    }

    /// Ends the epoch after a completed reconstruction.
    pub fn close_epoch(&mut self) {
        self.correct += self.epoch_direct.max(self.epoch_n - self.epoch_direct);
        self.total += self.epoch_n;
        self.epoch_direct = 0;
        self.epoch_n = 0;
    }

    /// Adds another stream's figures, its open epoch closed.
    pub fn merge(&mut self, other: &PermAccuracy) {
        self.correct += other.correct + other.epoch_direct.max(other.epoch_n - other.epoch_direct);
        self.total += other.total + other.epoch_n;
    }

    /// Accuracy so far, the open epoch included (0 when empty).
    pub fn value(&self) -> f64 {
        let open = self.epoch_direct.max(self.epoch_n - self.epoch_direct);
        let n = self.total + self.epoch_n;
        if n == 0 {
            return 0.0;
        }
        (self.correct + open) as f64 / n as f64
    }
}

/// Operation mix of the samples a pipeline processed, priced with the
/// Table 6 flop counts, and the share of reconstruction outputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpMix {
    flops: u128,
    samples: u64,
    recon_outputs: u64,
    /// Reconstruction step of the running reconstruction (0 = none).
    step: usize,
}

impl OpMix {
    /// Accounts one processed sample. `was_recon` and `was_checking` are
    /// the pipeline's `is_reconstructing()` and `detector().is_checking()`
    /// just before the call.
    pub fn observe(
        &mut self,
        p: &DriftPipeline,
        hidden: usize,
        was_recon: bool,
        was_checking: bool,
        out: &PipelineOutput,
    ) {
        let (c, d, h) = (CLASSES as u64, p.model().dim() as u64, hidden as u64);
        let cost = |op: Table6Op| u128::from(op.flops(c, d, h));
        let r = p.config().reconstruct;
        self.samples += 1;
        if out.reconstructing {
            self.recon_outputs += 1;
        }
        self.flops += cost(Table6Op::LabelPrediction);
        if was_recon {
            self.step += 1;
            let k = self.step;
            if k <= r.n_search {
                self.flops += cost(Table6Op::CoordInit);
            }
            if k <= r.n_update {
                self.flops += cost(Table6Op::CoordUpdate);
            } else if k <= r.n_total / 2 {
                self.flops += cost(Table6Op::RetrainWithoutPrediction);
            } else {
                self.flops += cost(Table6Op::RetrainWithPrediction);
            }
            return;
        }
        if was_checking || out.score >= p.detector().config().theta_error {
            self.flops += cost(Table6Op::DistanceComputation);
        }
        if out.drift_detected {
            self.step = 0;
        }
    }

    /// Mean flops per processed sample.
    pub fn flops_per_sample(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.flops as f64 / self.samples as f64
    }

    /// Share of outputs with `reconstructing == true`.
    pub fn recon_share(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.recon_outputs as f64 / self.samples as f64
    }
}

/// Quality figures of one session's replayed prefix.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Accuracy over the prefix.
    pub accuracy: PermAccuracy,
    /// Operation mix over the prefix.
    pub ops: OpMix,
}

/// A finished replay.
#[derive(Debug)]
pub struct Replay {
    /// Final pipeline state.
    pub pipeline: DriftPipeline,
    /// Stream indices where a drift was flagged.
    pub detections: Vec<u64>,
    /// Quality over the first `prefix` rows.
    pub quality: Quality,
}

/// Replays the first `n` rows of `session` (cycling its stream) through a
/// fresh `DriftPipeline::from_bytes(reference)`.
pub fn replay(inputs: &Inputs, session: usize, n: u64, prefix: u64) -> Result<Replay, String> {
    let mut p = DriftPipeline::from_bytes(&inputs.reference).map_err(|e| e.to_string())?;
    let mut detections = Vec::new();
    let mut quality = Quality::default();
    for i in 0..n {
        let was_recon = p.is_reconstructing();
        let was_checking = p.detector().is_checking();
        let out = p
            .process(inputs.row(session, i))
            .map_err(|e| format!("session {session}: replay rejected row {i}: {e}"))?;
        if out.drift_detected {
            detections.push(i);
        }
        if i < prefix {
            quality
                .accuracy
                .push(inputs.label(session, i), out.predicted_label);
            quality
                .ops
                .observe(&p, inputs.spec.hidden, was_recon, was_checking, &out);
            if was_recon && !p.is_reconstructing() {
                quality.accuracy.close_epoch();
            }
        }
        // The fleet's workers drain events after every sample; so does
        // the replay, so the two final states compare field for field.
        p.drain_events();
    }
    Ok(Replay {
        pipeline: p,
        detections,
        quality,
    })
}

/// Whether two pipelines hold the same state. `Debug` prints every field
/// and every float in shortest round-trip form, so equal text means
/// bit-identical state, mid-reconstruction states included (which
/// `to_bytes` refuses).
pub fn same_state(a: &DriftPipeline, b: &DriftPipeline) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Checks a system's final state for `session` against a replay of the
/// `n` rows it was sent, and that it flagged drifts at the same indices.
/// Returns the replay.
pub fn check_session(
    inputs: &Inputs,
    session: usize,
    n: u64,
    system: &DriftPipeline,
    system_detections: Option<&[u64]>,
    prefix: u64,
) -> Result<Replay, String> {
    let r = replay(inputs, session, n, prefix)?;
    if system.samples_processed() != n {
        return Err(format!(
            "session {session}: system applied {} rows, {n} were sent",
            system.samples_processed()
        ));
    }
    if !same_state(system, &r.pipeline) {
        return Err(format!(
            "session {session}: final state differs from a single-threaded replay of its {n} rows"
        ));
    }
    if let Some(d) = system_detections {
        if d != r.detections.as_slice() {
            return Err(format!(
                "session {session}: drifts flagged at {d:?}, replay flags {:?}",
                r.detections
            ));
        }
    }
    Ok(r)
}

/// Onsets of `session` (stream coordinates, cycling) below `n`.
pub fn onsets(inputs: &Inputs, session: usize, n: u64) -> Vec<u64> {
    let cycle = inputs.spec.samples as u64;
    let [a, b] = inputs.spec.onsets(session).map(|o| o as u64);
    (0..n.div_ceil(cycle))
        .flat_map(|c| [c * cycle + a, c * cycle + b])
        .filter(|&o| o < n)
        .collect()
}

/// Requires exactly one detection between consecutive onsets and none
/// before the first. The last onset's window may still be open at `n`, so
/// it needs at most one.
pub fn one_detection_per_onset(detections: &[u64], onsets: &[u64], n: u64) -> Result<(), String> {
    let first = onsets.first().copied().unwrap_or(n);
    if let Some(d) = detections.iter().find(|&&d| d < first) {
        return Err(format!(
            "drift flagged at {d}, before the first onset at {first}"
        ));
    }
    for (k, &o) in onsets.iter().enumerate() {
        let next = onsets.get(k + 1).copied();
        let end = next.unwrap_or(n);
        let hits = detections.iter().filter(|&&d| d >= o && d < end).count();
        if hits > 1 || (hits == 0 && next.is_some()) {
            return Err(format!("{hits} detections between onsets {o} and {end}"));
        }
    }
    Ok(())
}

/// Sum and count of delays from each onset below `limit` to the first
/// detection before the next onset.
pub fn delays(detections: &[u64], onsets: &[u64], limit: u64) -> (u64, u64) {
    let mut sum = 0;
    let mut count = 0;
    for (k, &o) in onsets.iter().enumerate().filter(|(_, &o)| o < limit) {
        let end = onsets.get(k + 1).copied().unwrap_or(u64::MAX);
        if let Some(d) = detections.iter().find(|&&d| d >= o && d < end) {
            sum += d - o;
            count += 1;
        }
    }
    (sum, count)
}

/// The sessions an oracle replays: `k` distinct ids of `0..sessions`
/// picked by `seed`, ascending.
pub fn pick_sessions(seed: u64, sessions: usize, k: usize) -> Vec<usize> {
    let mut z = seed ^ 0x5eed_ba5e_0c1e_0001;
    let mut out: Vec<usize> = Vec::with_capacity(k);
    while out.len() < k.min(sessions) {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let s = ((x ^ (x >> 31)) % sessions as u64) as usize;
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Inputs, FLEET};
    use seqdrift_fleet::{FleetConfig, FleetEngine, SessionId};
    use seqdrift_linalg::Real;

    /// Nudges one feature of one row by one ulp: the smallest perturbation a
    /// replay must still catch.
    fn nudge(x: Real) -> Real {
        Real::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn perturbed_replay_is_caught() {
        let inputs = Inputs::synthesize(FLEET, 5).unwrap();
        let (session, n) = (3usize, 3_000u64);
        let fleet = FleetEngine::new(FleetConfig::new(2)).unwrap();
        fleet
            .create_from_bytes(SessionId(session as u64), &inputs.reference)
            .unwrap();
        for i in 0..n {
            fleet
                .feed_blocking(SessionId(session as u64), inputs.row(session, i))
                .unwrap();
        }
        let report = fleet.shutdown();
        let system = &report.sessions[0].1;
        check_session(&inputs, session, n, system, None, n).unwrap();

        let mut perturbed = Inputs::synthesize(FLEET, 5).unwrap();
        let dim = perturbed.spec.dim;
        let cell = 1_234 * dim + 7;
        perturbed.rows[session][cell] = nudge(perturbed.rows[session][cell]);
        let err = check_session(&perturbed, session, n, system, None, n).unwrap_err();
        assert!(err.contains("session 3"), "{err}");
        // One row short is caught too.
        assert!(check_session(&inputs, session, n - 1, system, None, n).is_err());
    }

    #[test]
    fn detection_rule() {
        let onsets = [100, 300, 500];
        assert!(one_detection_per_onset(&[140, 330], &onsets, 520).is_ok());
        assert!(one_detection_per_onset(&[140, 330, 530], &onsets, 600).is_ok());
        assert!(one_detection_per_onset(&[90, 140, 330], &onsets, 520).is_err());
        assert!(one_detection_per_onset(&[140], &onsets, 520).is_err());
        assert!(one_detection_per_onset(&[140, 150, 330], &onsets, 520).is_err());
        assert_eq!(delays(&[140, 330, 530], &onsets, 400), (70, 2));
    }

    #[test]
    fn accuracy_scores_each_epoch_best_labelling() {
        let mut a = PermAccuracy::default();
        for _ in 0..10 {
            a.push(0, Some(0));
        }
        a.close_epoch();
        for _ in 0..10 {
            a.push(0, Some(1));
        }
        assert_eq!(a.value(), 1.0);
        a.push(1, Some(1));
        assert!((a.value() - 20.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn session_picks_are_distinct_and_seeded() {
        let a = pick_sessions(1, 64, 4);
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, pick_sessions(1, 64, 4));
        assert_ne!(a, pick_sessions(2, 64, 4));
        assert_eq!(pick_sessions(9, 2, 4), vec![0, 1]);
    }
}
