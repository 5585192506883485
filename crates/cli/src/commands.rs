//! Subcommand implementations.

use crate::args::{FleetArgs, InfoArgs, LoadArgs, RunArgs, ServeArgs, SynthArgs, TrainArgs};
use seqdrift_core::pipeline::PipelineEvent;
use seqdrift_core::{
    CoreError, DetectorConfig, DriftPipeline, GuardConfig, GuardPolicy, PipelineConfig,
};
use seqdrift_datasets::fan::{self, FanConfig, FanScenario};
use seqdrift_datasets::nslkdd::{self, NslKddConfig};
use seqdrift_datasets::{loader, DriftDataset, Sample};
use seqdrift_federate::{Federator, PoisonInjector};
use seqdrift_fleet::{
    FaultInjector, FederationConfig, FleetConfig, FleetEngine, FleetError, FleetEvent,
    MetricsSnapshot, RecoveryReport, SessionId, ShutdownReport,
};
use seqdrift_linalg::Real;
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use seqdrift_scenario::{GuardMode, ScenarioPlayer};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

type Out<'a> = &'a mut dyn Write;

fn fail(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Durability summary for `fleet`/`serve` shutdown output: checkpoint
/// flushes, then health. Degrade/recover transitions strictly alternate,
/// so a surplus of degrades means the run ended still degraded.
fn durability_lines(m: &MetricsSnapshot, out: Out<'_>) {
    writeln!(
        out,
        "durability: {} checkpoint flush(es) ({} superseded before reaching disk), \
         {} flush failure(s)",
        m.durable_flushes, m.checkpoints_superseded, m.durable_flush_failures
    )
    .ok();
    let health = if m.durability_degraded > m.durability_recovered {
        "DEGRADED"
    } else {
        "DURABLE"
    };
    writeln!(
        out,
        "durability health: {health} ({} degrade(s), {} recovery(ies), \
         {} write(s) buffered, {} retry attempt(s))",
        m.durability_degraded,
        m.durability_recovered,
        m.durable_flushes_buffered,
        m.durable_flush_retries
    )
    .ok();
}

/// Merges the `--guard-policy` / `--stuck-threshold` flags into `base`;
/// `None` when neither flag was given (keep whatever the checkpoint says).
fn guard_override(
    base: GuardConfig,
    policy: Option<GuardPolicy>,
    stuck: Option<u64>,
) -> Option<GuardConfig> {
    if policy.is_none() && stuck.is_none() {
        return None;
    }
    let mut g = base;
    if let Some(p) = policy {
        g.policy = p;
    }
    if let Some(k) = stuck {
        g.stuck_threshold = k;
    }
    Some(g)
}

/// Trains one OS-ELM autoencoder per class on its rows of `pairs`, then
/// calibrates a drift pipeline over all of them (with `guard` in place
/// of the default input guard).
fn calibrate_labelled(
    pairs: &[(usize, &[Real])],
    elm: OsElmConfig,
    det: DetectorConfig,
    guard: Option<GuardConfig>,
) -> Result<DriftPipeline, String> {
    let mut model =
        MultiInstanceModel::new(det.classes, elm).map_err(|e| fail("building model", e))?;
    let mut buckets: Vec<Vec<Vec<Real>>> = vec![Vec::new(); det.classes];
    for &(label, x) in pairs {
        buckets[label].push(x.to_vec());
    }
    for (label, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            return Err(format!("class {label} has no training samples"));
        }
        model
            .init_train_class(label, bucket)
            .map_err(|e| fail("initial training", e))?;
    }
    let cfg = guard.map(|g| PipelineConfig::new(det.clone()).with_guard(g));
    DriftPipeline::calibrate_with(model, det, pairs, cfg).map_err(|e| fail("calibration", e))
}

/// `seqdrift train`: calibrate from labelled CSV, checkpoint to disk.
pub fn train(a: &TrainArgs, out: Out<'_>) -> Result<(), String> {
    let samples = loader::load_csv(&a.csv, a.has_header, a.label_last)
        .map_err(|e| fail("reading training CSV", e))?;
    if samples.is_empty() {
        return Err("training CSV contains no rows".into());
    }
    let classes = samples.iter().map(|s| s.label).max().unwrap_or(0) + 1;
    let dim = samples[0].dim();
    writeln!(
        out,
        "loaded {} samples, {dim} features, {classes} classes",
        samples.len()
    )
    .ok();

    let pairs: Vec<(usize, &[Real])> = samples.iter().map(|s| (s.label, s.x.as_slice())).collect();
    let pipeline = calibrate_labelled(
        &pairs,
        OsElmConfig::new(dim, a.hidden).with_seed(a.seed),
        DetectorConfig::new(classes, dim).with_window(a.window),
        guard_override(GuardConfig::new(), a.guard_policy, a.stuck_threshold),
    )?;
    let g = pipeline.guard_config();
    writeln!(
        out,
        "guard: policy {}, stuck threshold {}",
        g.policy, g.stuck_threshold
    )
    .ok();
    writeln!(
        out,
        "calibrated: theta_drift = {:.4}, theta_error = {:.6}, window = {}",
        pipeline.detector().config().theta_drift,
        pipeline.detector().config().theta_error,
        a.window
    )
    .ok();

    let bytes = pipeline.to_bytes().map_err(|e| fail("serialising", e))?;
    seqdrift_store::atomic_write(&a.out, &bytes).map_err(|e| fail("writing checkpoint", e))?;
    writeln!(out, "wrote {} bytes to {}", bytes.len(), a.out.display()).ok();
    Ok(())
}

/// `seqdrift run`: stream an unlabelled CSV through a checkpoint.
pub fn run_stream(a: &RunArgs, out: Out<'_>) -> Result<(), String> {
    let blob = std::fs::read(&a.model).map_err(|e| fail("reading checkpoint", e))?;
    let roster = Roster::csv(&a.csv, a.has_header, a.label_last, vec![0])?;
    let mut pipeline = roster.reference(&blob)?;

    if let Some(g) = guard_override(*pipeline.guard_config(), a.guard_policy, a.stuck_threshold) {
        pipeline
            .set_guard_config(g)
            .map_err(|e| fail("applying guard override", e))?;
        writeln!(
            out,
            "guard override: policy {}, stuck threshold {}",
            g.policy, g.stuck_threshold
        )
        .ok();
    }

    let start_index = pipeline.samples_processed();
    let counters_before = pipeline.guard_counters();
    let mut detections = 0usize;
    let mut guard_rejected = 0u64;
    for x in roster.rows[0].chunks_exact(roster.dim) {
        // A guard rejection drops the sample and keeps streaming; anything
        // else (I/O-level corruption, invalid state) still aborts the run.
        let o = match pipeline.process(x) {
            Ok(o) => o,
            Err(
                e @ (CoreError::NonFiniteInput { .. }
                | CoreError::OversizedInput { .. }
                | CoreError::StuckSensor { .. }),
            ) => {
                guard_rejected += 1;
                if guard_rejected <= 10 {
                    writeln!(
                        out,
                        "stream position {}: sample rejected by guard ({e})",
                        pipeline.samples_processed()
                    )
                    .ok();
                }
                continue;
            }
            Err(e) => return Err(fail("processing sample", e)),
        };
        if o.drift_detected {
            detections += 1;
            let top: Vec<String> = pipeline
                .detector()
                .dimension_contributions(3)
                .into_iter()
                .map(|(d, v)| format!("f{d} ({v:.3})"))
                .collect();
            writeln!(
                out,
                "sample {}: DRIFT detected (distance {:.4}; top features {}); reconstructing",
                pipeline.samples_processed() - 1,
                o.drift_distance,
                top.join(", ")
            )
            .ok();
        }
    }
    if guard_rejected > 10 {
        writeln!(
            out,
            "({} further guard rejection(s) not shown)",
            guard_rejected - 10
        )
        .ok();
    }
    writeln!(
        out,
        "processed {} samples (stream positions {}..{}), {detections} drift(s)",
        pipeline.samples_processed() - start_index,
        start_index,
        pipeline.samples_processed()
    )
    .ok();
    let sanitized = pipeline.guard_counters().sanitized - counters_before.sanitized;
    if guard_rejected > 0 || sanitized > 0 {
        writeln!(
            out,
            "guard: {guard_rejected} sample(s) rejected, {sanitized} repaired (health {:?})",
            pipeline.health()
        )
        .ok();
    }

    if let Some(events_path) = &a.events {
        let mut csv = String::from("event,stream_index,value\n");
        for e in pipeline.events() {
            let (kind, index, value) = match e {
                PipelineEvent::DriftDetected { index, dist } => ("drift", index, dist.to_string()),
                PipelineEvent::Reconstructed {
                    index,
                    new_theta_drift,
                } => ("reconstructed", index, new_theta_drift.to_string()),
                PipelineEvent::Degraded { index, reason } => {
                    ("degraded", index, reason.to_string())
                }
                PipelineEvent::Recovered { index } => ("recovered", index, String::new()),
            };
            csv.push_str(&format!("{kind},{index},{value}\n"));
        }
        seqdrift_store::atomic_write(events_path, csv.as_bytes())
            .map_err(|e| fail("writing events CSV", e))?;
        writeln!(out, "events written to {}", events_path.display()).ok();
    }

    if let Some(out_path) = &a.out {
        let bytes = pipeline.to_bytes().map_err(|e| fail("serialising", e))?;
        seqdrift_store::atomic_write(out_path, &bytes)
            .map_err(|e| fail("writing checkpoint", e))?;
        writeln!(out, "adapted checkpoint written to {}", out_path.display()).ok();
    }
    Ok(())
}

/// `seqdrift info`: describe a checkpoint.
pub fn info(a: &InfoArgs, out: Out<'_>) -> Result<(), String> {
    let blob = std::fs::read(&a.model).map_err(|e| fail("reading checkpoint", e))?;
    let pipeline = DriftPipeline::from_bytes(&blob).map_err(|e| fail("decoding checkpoint", e))?;
    let det = pipeline.detector().config();
    writeln!(
        out,
        "checkpoint: {} ({} bytes)",
        a.model.display(),
        blob.len()
    )
    .ok();
    writeln!(
        out,
        "model: {} classes x {} features, {} hidden nodes",
        det.classes,
        det.dim,
        pipeline
            .model()
            .instance(0)
            .map(|i| i.network().hidden_dim())
            .unwrap_or(0)
    )
    .ok();
    writeln!(
        out,
        "detector: window = {}, theta_drift = {:.4}, theta_error = {:.6}, metric = {:?}",
        det.window, det.theta_drift, det.theta_error, det.metric
    )
    .ok();
    writeln!(
        out,
        "history: {} samples processed, detector has seen {}",
        pipeline.samples_processed(),
        pipeline.detector().samples_seen()
    )
    .ok();
    for c in 0..det.classes {
        writeln!(
            out,
            "  class {c}: trained count {}, test count {}",
            pipeline.detector().trained_centroids().count(c),
            pipeline.detector().test_centroids().count(c)
        )
        .ok();
    }
    Ok(())
}

/// The sessions `run`, `fleet` and `load` stream, loaded the same way for
/// every command and free of any checkpoint.
struct Roster {
    /// Session ids, in feed order.
    sessions: Vec<u64>,
    /// One source per entry of `sessions`: its `dim`-wide rows back to
    /// back. Row `i` is sample `i` of that session.
    rows: Vec<Arc<Vec<Real>>>,
    /// Features per row.
    dim: usize,
    /// Name of the `.sqsc` scenario the roster came from.
    scenario: Option<String>,
}

impl Roster {
    /// `--csv`: every session replays the same rows.
    fn csv(path: &Path, header: bool, labelled: bool, sessions: Vec<u64>) -> Result<Self, String> {
        let samples =
            loader::load_csv(path, header, labelled).map_err(|e| fail("reading stream CSV", e))?;
        let dim = match samples.first() {
            None => return Err("stream CSV contains no rows".into()),
            Some(first) if first.dim() == 0 => {
                return Err("stream CSV has no feature columns".into())
            }
            Some(first) => first.dim(),
        };
        let rows = Arc::new(samples.iter().flat_map(|s| s.x.iter().copied()).collect());
        Ok(Roster {
            rows: vec![rows; sessions.len()],
            sessions,
            dim,
            scenario: None,
        })
    }

    /// `--scenario`: each session streams its own rows of the `.sqsc`
    /// file (synthesized from the scenario seed, or recorded off a live
    /// server). The player stays available for the file's plan lines.
    fn scenario(path: &Path) -> Result<(Self, ScenarioPlayer), String> {
        let player = ScenarioPlayer::from_file(path).map_err(|e| fail("loading scenario", e))?;
        let sessions = player.sessions();
        let rows = sessions
            .iter()
            .map(|&id| player.stream(id).map(|rows| Arc::new(rows.concat())))
            .collect::<Result<_, _>>()
            .map_err(|e| fail("synthesizing stream", e))?;
        let roster = Roster {
            sessions,
            rows,
            dim: player.dim(),
            scenario: Some(player.name().to_string()),
        };
        Ok((roster, player))
    }

    /// Rows over every session.
    fn total_rows(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum::<usize>() / self.dim
    }

    /// Decodes the checkpoint the sessions start from; it must take rows
    /// as wide as the roster's.
    fn reference(&self, blob: &[u8]) -> Result<DriftPipeline, String> {
        let reference =
            DriftPipeline::from_bytes(blob).map_err(|e| fail("decoding checkpoint", e))?;
        let expected = reference.detector().config().dim;
        if expected != self.dim {
            let what = match self.scenario {
                Some(_) => "scenario streams",
                None => "stream has",
            };
            return Err(format!(
                "{what} {} features but the checkpoint expects {expected}",
                self.dim
            ));
        }
        Ok(reference)
    }
}

/// Replays `roster` through `engine`: creates every session from `blob`,
/// then feeds the sessions their rows t-major, so they interleave the way
/// live ingest would. A session in `existing` is not created: it already
/// holds that many samples (`u64::MAX` leaves it out), and its rows
/// before them are not fed again. With `drift = (at, step, shift)`,
/// session `d` gets `shift` added to every feature from row
/// `at + d * step` on. `federator` runs a merge round whenever its
/// interval of rows has been fed.
fn replay(
    engine: &FleetEngine,
    roster: &Roster,
    blob: &[u8],
    existing: &HashMap<u64, u64>,
    drift: Option<(usize, usize, Real)>,
    mut federator: Option<&mut Federator>,
) -> Result<(), String> {
    for &id in &roster.sessions {
        if !existing.contains_key(&id) {
            engine
                .create_from_bytes(SessionId(id), blob)
                .map_err(|e| fail("creating session", e))?;
        }
    }
    // Federation rounds trigger at deterministic stream positions: this
    // feeder-side counter of delivered rows decides the boundaries, not
    // the worker-side `samples_processed` gauge (which races with the
    // shards and made `--federate --inject-faults` replays diverge).
    // Snapshots travel through the shard FIFOs behind every sample and
    // fault already enqueued, so a fixed boundary sees a fixed model.
    let mut fed_since_round: u64 = 0;
    let mut scratch = Vec::new();
    let dim = roster.dim;
    let max_len = roster.rows.iter().map(|r| r.len() / dim).max().unwrap_or(0);
    for t in 0..max_len {
        for (d, (&id, rows)) in roster.sessions.iter().zip(&roster.rows).enumerate() {
            let Some(mut x) = rows.get(t * dim..(t + 1) * dim) else {
                continue;
            };
            if existing.get(&id).is_some_and(|&done| (t as u64) < done) {
                continue;
            }
            if let Some((_, _, shift)) = drift.filter(|&(at, step, _)| t >= at + d * step) {
                scratch.clear();
                scratch.extend(x.iter().map(|&v| v + shift));
                x = &scratch;
            }
            // A quarantined device stays quarantined for the rest of the
            // replay; the fleet keeps serving every other device. The
            // attempt still counts towards the round boundary: attempts
            // are deterministic, outcomes race with the verdict.
            match engine.feed_blocking(SessionId(id), x) {
                Ok(()) | Err(FleetError::SessionQuarantined(_)) => {}
                Err(e) => return Err(fail("feeding sample", e)),
            }
            fed_since_round += 1;
        }
        if let Some(f) = federator.as_deref_mut() {
            if fed_since_round >= f.config().interval {
                fed_since_round = 0;
                f.run_round(engine)
                    .map_err(|e| fail("federation round", e))?;
            }
        }
    }
    Ok(())
}

/// One `fleet` run as the CSV or the scenario front end resolved it. The
/// engine sizing and the state dir come from the flags.
struct FleetPlan {
    roster: Roster,
    /// `(at, step, shift)` of the CSV front end's injected drift.
    drift: Option<(usize, usize, Real)>,
    /// The checkpoint every created session starts from.
    blob: Vec<u8>,
    /// `blob`, decoded.
    reference: DriftPipeline,
    /// Guard configuration to write into `blob` before any session exists.
    guard: Option<GuardConfig>,
    /// Label of the line that reports `guard`.
    guard_line: &'static str,
    /// Seed of the fleet fault-injection plan.
    fault_seed: Option<u64>,
    /// Fleet-wide samples between merge rounds; `None` disables federation.
    federate: Option<u64>,
    /// Seed of the model-poisoning plan (needs federation).
    poison: Option<u64>,
    /// The line announcing the run once its sessions exist.
    banner: String,
}

/// `seqdrift fleet`: replay a CSV (`--csv`) or a `.sqsc` scenario
/// (`--scenario`) across simulated devices through one fleet engine.
pub fn fleet(a: &FleetArgs, out: Out<'_>) -> Result<(), String> {
    let plan = match (&a.scenario, &a.csv, &a.model) {
        (Some(scenario), _, _) => scenario_plan(a, scenario)?,
        (None, Some(csv), Some(model)) => csv_plan(a, csv, model)?,
        _ => return Err("fleet needs --csv with --model, or --scenario".into()),
    };
    run_fleet(a, plan, out)
}

/// `--csv`: every device replays one CSV from one checkpoint. Device
/// `d`'s rows gain `--drift-shift` from row `drift_at + d * drift_step`
/// on, so detections stagger across the fleet.
fn csv_plan(a: &FleetArgs, csv: &Path, model: &Path) -> Result<FleetPlan, String> {
    let blob = std::fs::read(model).map_err(|e| fail("reading checkpoint", e))?;
    let sessions = (0..a.sessions as u64).collect();
    let roster = Roster::csv(csv, a.has_header, a.label_last, sessions)?;
    let reference = roster.reference(&blob)?;
    Ok(FleetPlan {
        roster,
        drift: a
            .drift_at
            .map(|at| (at, a.drift_step, a.drift_shift as Real)),
        guard: guard_override(*reference.guard_config(), a.guard_policy, a.stuck_threshold),
        guard_line: "guard override",
        blob,
        reference,
        fault_seed: a.inject_faults,
        federate: a.federate.then_some(a.federate_interval),
        poison: a.poison,
        banner: format!(
            "fleet: {} sessions over {} workers (queue capacity {})",
            a.sessions, a.workers, a.queue
        ),
    })
}

/// `--scenario`: the `.sqsc` file supplies the session roster, each
/// session's stream, and the guard, fleet-fault, poison and federation
/// plans. `--guard-policy`, `--stuck-threshold`, `--federate` and
/// `--poison` override the file.
fn scenario_plan(a: &FleetArgs, path: &Path) -> Result<FleetPlan, String> {
    let (roster, player) = Roster::scenario(path)?;
    let synth = player.scenario().synthetic().ok();

    // Reference checkpoint: an explicit --model wins; recorded bundles
    // carry the blob they were served from; synthetic scenarios calibrate
    // one from their own deterministic training split.
    let blob = match &a.model {
        Some(m) => std::fs::read(m).map_err(|e| fail("reading checkpoint", e))?,
        None => match player.reference_model() {
            Some(b) => b.to_vec(),
            None => scenario_reference(&player)?,
        },
    };
    let reference = roster.reference(&blob)?;

    let spec_guard = synth.and_then(|s| s.guard.as_ref());
    let policy = a
        .guard_policy
        .or(spec_guard.map(|g| guard_mode_to_policy(g.mode)));
    let stuck = a
        .stuck_threshold
        .or(spec_guard.and_then(|g| g.stuck.map(|k| k as u64)));
    Ok(FleetPlan {
        banner: format!(
            "scenario '{}': {} session(s) over {} workers, {} total samples",
            player.name(),
            roster.sessions.len(),
            a.workers,
            roster.total_rows()
        ),
        roster,
        drift: None,
        guard: guard_override(*reference.guard_config(), policy, stuck),
        guard_line: "guard",
        blob,
        reference,
        fault_seed: synth.and_then(|s| s.faults.fleet),
        federate: a
            .federate
            .then_some(a.federate_interval)
            .or(synth.and_then(|s| s.federate)),
        poison: a.poison.or(synth.and_then(|s| s.faults.poison)),
    })
}

/// Adds the durable state dir and federation rounds `fleet` and `serve`
/// share to `cfg`, announcing each.
fn with_state_and_federation(
    mut cfg: FleetConfig,
    state_dir: Option<&Path>,
    federate: Option<u64>,
    out: Out<'_>,
) -> FleetConfig {
    if let Some(dir) = state_dir {
        cfg = cfg.with_state_dir(dir);
        writeln!(out, "durable state store: {}", dir.display()).ok();
    }
    if let Some(interval) = federate {
        cfg = cfg.with_federation(FederationConfig::default().with_interval(interval));
        writeln!(
            out,
            "federation: merge round every {interval} fleet-wide samples"
        )
        .ok();
    }
    cfg
}

/// Runs a [`FleetPlan`]: starts the engine, re-homes or keeps what a
/// previous run left in the state dir, creates the remaining sessions,
/// and feeds every session the rows it has not processed yet, with
/// federation rounds in between.
fn run_fleet(a: &FleetArgs, mut plan: FleetPlan, out: Out<'_>) -> Result<(), String> {
    // The override is written into the reference checkpoint so every
    // session clones the overridden configuration.
    if let Some(g) = plan.guard {
        plan.reference
            .set_guard_config(g)
            .map_err(|e| fail("applying guard override", e))?;
        plan.blob = plan
            .reference
            .to_bytes()
            .map_err(|e| fail("serialising", e))?;
        writeln!(
            out,
            "{}: policy {}, stuck threshold {}",
            plan.guard_line, g.policy, g.stuck_threshold
        )
        .ok();
    }

    let mut cfg = FleetConfig::new(a.workers).with_queue_capacity(a.queue);
    if let Some(seed) = plan.fault_seed {
        let injector = FaultInjector::from_seed(seed, plan.roster.sessions.len() as u64);
        writeln!(out, "fault plan (seed {seed}):").ok();
        for line in injector.describe().lines() {
            writeln!(out, "  {line}").ok();
        }
        cfg = cfg.with_fault_injector(injector);
    }
    let cfg = with_state_and_federation(cfg, a.state_dir.as_deref(), plan.federate, out);
    let engine = FleetEngine::new(cfg).map_err(|e| fail("starting fleet", e))?;
    if let Some(rec) = engine.recovery_report() {
        recovery_line(&rec, out);
    }

    // Sessions re-homed from the store (or still quarantined in its
    // ledger) must not be re-created from the reference checkpoint: a
    // fresh create() would discard the survivor — or lift the verdict.
    let mut existing = HashMap::new();
    if a.resume {
        let resumed = engine
            .resume()
            .map_err(|e| fail("resuming from state dir", e))?;
        if resumed.is_empty() {
            writeln!(out, "resume: no surviving sessions in the state dir").ok();
        }
        for &(id, samples_processed) in &resumed {
            writeln!(
                out,
                "resumed device {} at its sample {samples_processed}",
                id.0
            )
            .ok();
            existing.insert(id.0, samples_processed);
        }
    }
    for (id, reason) in engine.quarantined_sessions() {
        writeln!(
            out,
            "device {}: quarantined by a previous run ({reason})",
            id.0
        )
        .ok();
        existing.entry(id.0).or_insert(0);
    }
    writeln!(out, "{}", plan.banner).ok();
    let mut federator = plan
        .federate
        .map(|_| Federator::new(&engine, &plan.blob))
        .transpose()
        .map_err(|e| fail("starting federation", e))?;
    if let Some(seed) = plan.poison {
        if let Some(f) = federator.take() {
            let injector = PoisonInjector::from_seed(seed, &plan.roster.sessions);
            writeln!(out, "poison plan (seed {seed}):").ok();
            for line in injector.describe().lines() {
                writeln!(out, "  {line}").ok();
            }
            federator = Some(f.with_poison(injector));
        }
    }

    replay(
        &engine,
        &plan.roster,
        &plan.blob,
        &existing,
        plan.drift,
        federator.as_mut(),
    )?;
    let report = engine.shutdown();
    report_fleet_shutdown(
        &report,
        plan.federate.is_some(),
        plan.fault_seed.is_some(),
        a.state_dir.is_some(),
        out,
    );
    Ok(())
}

/// Federation totals of a `fleet` or `serve` run.
fn federation_line(m: &MetricsSnapshot, out: Out<'_>) {
    writeln!(
        out,
        "federation: {} merge round(s) ({} rejected wholesale), {} contribution(s) \
         accepted, {} rejected ({} health, {} stale, {} non-PD, {} outlier, \
         {} low-trust), {} redistribution(s)",
        m.merge_rounds,
        m.merge_rounds_rejected,
        m.contributions_accepted,
        m.contributions_rejected,
        m.rejected_health,
        m.rejected_staleness,
        m.rejected_non_pd,
        m.rejected_deviation,
        m.rejected_low_trust,
        m.redistributions
    )
    .ok();
}

/// What the durable store's open-time scan found, for `fleet` and `serve`.
fn recovery_line(rec: &RecoveryReport, out: Out<'_>) {
    writeln!(
        out,
        "state recovery: {} session(s) restored ({} generation(s) kept, \
         {} corrupt frame(s) dropped, {} stale temp(s) swept)",
        rec.sessions_recovered,
        rec.generations_kept,
        rec.corrupt_frames_dropped,
        rec.stale_temps_deleted
    )
    .ok();
}

/// Prints a fleet [`ShutdownReport`]: drained events, aggregate metrics,
/// and the federation / fault-tolerance / durability summaries the run's
/// flags make relevant.
fn report_fleet_shutdown(
    report: &ShutdownReport,
    federate: bool,
    faults: bool,
    durable: bool,
    out: Out<'_>,
) {
    for event in &report.events {
        let line = match event {
            FleetEvent::Pipeline { id, event } => match event {
                PipelineEvent::DriftDetected { index, dist } => {
                    format!(
                        "device {}: DRIFT at its sample {index} (distance {dist:.4})",
                        id.0
                    )
                }
                PipelineEvent::Reconstructed {
                    index,
                    new_theta_drift,
                } => format!(
                    "device {}: reconstructed at its sample {index} \
                     (new theta_drift {new_theta_drift:.4})",
                    id.0
                ),
                PipelineEvent::Degraded { index, reason } => {
                    format!("device {}: DEGRADED at its sample {index} ({reason})", id.0)
                }
                PipelineEvent::Recovered { index } => {
                    format!("device {}: recovered at its sample {index}", id.0)
                }
            },
            FleetEvent::SessionPanicked { id, at_delivery } => {
                format!("device {}: PANIC at delivery {at_delivery} (caught)", id.0)
            }
            FleetEvent::SessionRestored {
                id,
                resumed_at_sample,
                restarts_in_window,
            } => format!(
                "device {}: restored from checkpoint at sample {resumed_at_sample} \
                 (restart {restarts_in_window} in window)",
                id.0
            ),
            FleetEvent::SessionQuarantined { id, reason } => {
                format!("device {}: QUARANTINED ({reason})", id.0)
            }
            FleetEvent::DurabilityDegraded { reason } => {
                format!("durability: DEGRADED ({reason})")
            }
            FleetEvent::DurabilityRestored {
                flushed_checkpoints,
                drained_ledger_writes,
            } => format!(
                "durability: restored ({flushed_checkpoints} buffered checkpoint(s) \
                 flushed, {drained_ledger_writes} ledger write(s) drained)"
            ),
            FleetEvent::MergeRoundRejected { candidates, reason } => {
                format!("federation: merge round REJECTED ({candidates} candidate(s), {reason})")
            }
            FleetEvent::SessionExcludedLowTrust { id, trust } => format!(
                "device {}: excluded from merging (trust {trust:.3} below floor)",
                id.0
            ),
        };
        writeln!(out, "{line}").ok();
    }
    let m = &report.metrics;
    writeln!(
        out,
        "fleet done: {} sessions, {} samples processed, {} drift(s), \
         {} reconstruction(s), {} busy rejection(s)",
        report.sessions.len(),
        m.samples_processed,
        m.drifts_flagged,
        m.reconstructions_completed,
        m.busy_rejections
    )
    .ok();
    if federate {
        federation_line(m, out);
    }
    if faults || m.panics_caught > 0 {
        writeln!(
            out,
            "fault tolerance: {} panic(s) caught, {} restore(s), {} quarantined",
            m.panics_caught, m.sessions_restored, m.sessions_quarantined
        )
        .ok();
    }
    if m.sessions_degraded > 0 || m.samples_sanitized > 0 {
        writeln!(
            out,
            "guard: {} degraded episode(s), {} recovery(ies), {} sample(s) repaired, \
             {} sample(s) dropped",
            m.sessions_degraded, m.sessions_recovered, m.samples_sanitized, m.samples_dropped
        )
        .ok();
    }
    if durable {
        durability_lines(m, out);
    }
    if !report.quarantined.is_empty() {
        for (id, reason) in &report.quarantined {
            writeln!(out, "quarantined at shutdown: device {} ({reason})", id.0).ok();
        }
    }
}

/// Maps a scenario guard mode onto the core guard policy.
fn guard_mode_to_policy(mode: GuardMode) -> GuardPolicy {
    match mode {
        GuardMode::Reject => GuardPolicy::Reject,
        GuardMode::Clamp => GuardPolicy::Clamp,
        GuardMode::ImputeLast => GuardPolicy::ImputeLast,
    }
}

/// Calibrates a reference pipeline from a synthetic scenario's own
/// training split: the same deterministic samples every consumer (eval,
/// fleet, load `--verify`) derives from the scenario seed.
fn scenario_reference(player: &ScenarioPlayer) -> Result<Vec<u8>, String> {
    let s = player
        .scenario()
        .synthetic()
        .map_err(|e| fail("deriving a reference model", e))?;
    let pairs = player
        .train_pairs()
        .map_err(|e| fail("synthesizing training data", e))?;
    let pairs: Vec<(usize, &[Real])> = pairs.iter().map(|(l, x)| (*l, x.as_slice())).collect();
    let pipeline = calibrate_labelled(
        &pairs,
        OsElmConfig::new(s.dim, 22.min(s.train.max(4))).with_seed(s.seed),
        DetectorConfig::new(s.classes, s.dim).with_window(100),
        None,
    )?;
    pipeline
        .to_bytes()
        .map_err(|e| fail("serialising reference model", e))
}

/// Process-wide Ctrl-C flag: the handler only sets this; the accept loop
/// polls it and performs the graceful drain on the main thread.
static SIGINT_SEEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Installs a SIGINT handler that flips [`SIGINT_SEEN`], using the libc
/// `signal` entry point std already links — no new dependency. Returns
/// whether installation succeeded.
#[cfg(unix)]
fn install_sigint_handler() -> bool {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single relaxed atomic store.
        SIGINT_SEEN.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIG_ERR: usize = usize::MAX;
    // SAFETY: `signal` is the POSIX libc function; the handler does
    // nothing beyond an atomic store, which is async-signal-safe.
    unsafe { signal(SIGINT, on_sigint as *const () as usize) != SIG_ERR }
}

#[cfg(not(unix))]
fn install_sigint_handler() -> bool {
    false
}

/// `seqdrift serve`: run the TCP ingest server until Ctrl-C, then drain
/// gracefully (flushing durable state when `--state-dir` is set).
pub fn serve(a: &ServeArgs, out: Out<'_>) -> Result<(), String> {
    if install_sigint_handler() {
        writeln!(out, "press Ctrl-C to drain and exit").ok();
    } else {
        writeln!(
            out,
            "warning: no SIGINT handler on this platform; kill to stop"
        )
        .ok();
    }
    serve_with_stop(a, out, &SIGINT_SEEN)
}

/// The body of `serve`, stoppable through any flag — unit tests and the
/// e2e suite drive it with their own `AtomicBool` instead of a signal.
pub fn serve_with_stop(
    a: &ServeArgs,
    out: Out<'_>,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<(), String> {
    use seqdrift_server::{AdmissionConfig, Server, ServerConfig};
    use std::time::Duration;

    let fleet_cfg = with_state_and_federation(
        FleetConfig::new(a.workers)
            .with_queue_capacity(a.queue)
            .with_feed_timeout(Duration::from_millis(a.feed_timeout_ms)),
        a.state_dir.as_deref(),
        a.federate.then_some(a.federate_interval),
        out,
    );
    let mut cfg = ServerConfig::new(fleet_cfg)
        .with_idle_timeout(Duration::from_millis(a.idle_timeout_ms))
        .with_admission(AdmissionConfig {
            max_connections: a.max_conns,
            per_ip_accepts_per_sec: a.accept_rate,
            max_bytes_in_flight: a.inflight_cap,
            handshake_timeout: Duration::from_millis(a.handshake_timeout_ms),
            ..AdmissionConfig::default()
        });
    if let Some(model) = &a.model {
        let blob = std::fs::read(model).map_err(|e| fail("reading checkpoint", e))?;
        cfg = cfg.with_reference(blob);
    }
    if let Some(dir) = &a.record {
        cfg = cfg.with_record(dir.clone());
        writeln!(out, "recording ingest to {}", dir.display()).ok();
    }
    let server = Server::bind(&a.listen, cfg).map_err(|e| fail("binding server", e))?;
    if let Some(rec) = server.recovery_report() {
        recovery_line(&rec, out);
    }
    let addr = server.local_addr();
    writeln!(
        out,
        "listening on {addr} ({} workers, queue {}, idle timeout {} ms)",
        a.workers, a.queue, a.idle_timeout_ms
    )
    .ok();
    if let Some(port_file) = &a.port_file {
        seqdrift_store::atomic_write(port_file, addr.to_string().as_bytes())
            .map_err(|e| fail("writing port file", e))?;
    }

    let report = server.run(|| stop.load(std::sync::atomic::Ordering::Relaxed));

    for &(id, samples) in &report.resumed {
        writeln!(out, "resumed device {id} at its sample {samples}").ok();
    }
    let n = &report.net;
    writeln!(
        out,
        "net: {} connection(s) accepted ({} idle-evicted, {} protocol-dropped), \
         {} frame(s) in / {} out, {} NACK(s), {} BUSY repl(ies)",
        n.connections_accepted,
        n.connections_evicted_idle,
        n.connections_dropped_protocol,
        n.frames_rx,
        n.frames_tx,
        n.nacks_sent,
        n.busy_replies
    )
    .ok();
    writeln!(
        out,
        "resilience: {} reconnect(s) resumed {} sample(s); admission shed {} \
         connection(s)/frame(s), {} handshake timeout(s)",
        n.reconnects, n.resumed_samples, n.admission_rejections, n.handshake_timeouts
    )
    .ok();
    let m = &report.fleet.metrics;
    writeln!(
        out,
        "fleet: {} session(s) drained, {} sample(s) processed, {} drift(s), \
         {} reconstruction(s)",
        report.fleet.sessions.len(),
        m.samples_processed,
        m.drifts_flagged,
        m.reconstructions_completed
    )
    .ok();
    if a.federate {
        federation_line(m, out);
    }
    if a.state_dir.is_some() {
        durability_lines(m, out);
    }
    for (id, reason) in &report.fleet.quarantined {
        writeln!(out, "quarantined: device {} ({reason})", id.0).ok();
    }
    match &report.recording {
        Some(Ok(manifest)) => {
            writeln!(out, "recorded scenario bundle: {}", manifest.display()).ok();
        }
        Some(Err(e)) => {
            writeln!(out, "recording FAILED: {e}").ok();
        }
        None => {}
    }
    writeln!(out, "drained; bye").ok();
    Ok(())
}

/// `seqdrift load`: multi-threaded load generator. Each simulated device
/// is one reconnecting client: it HELLOs its own session, streams its rows
/// of the roster in batches from the sample the server already holds, and
/// records the latency of every batch, from its first send to its ACK.
pub fn load(a: &LoadArgs, out: Out<'_>) -> Result<(), String> {
    use crate::bench_json::{latency_percentiles, merge_into_file, IngestEntry};
    use seqdrift_server::{
        ChaosConfig, ChaosProxy, ClientError, ReconnectPolicy, ResilientClient, StreamReport,
    };
    use std::time::{Duration, Instant};

    // With `--csv` every device replays the same stream; with
    // `--scenario` each device streams its own session of the file, the
    // bench entry is attributed to the scenario, and a `faults chaos
    // SEED` line stands in for `--chaos --chaos-seed SEED`.
    let (roster, chaos_seed) = match (&a.scenario, &a.csv) {
        (Some(path), _) => {
            let (roster, player) = Roster::scenario(path)?;
            let chaos = player.scenario().synthetic().ok();
            (roster, chaos.and_then(|s| s.faults.chaos))
        }
        (None, Some(csv)) => {
            let sessions = (0..a.sessions as u64).map(|d| a.session0 + d).collect();
            let roster = Roster::csv(csv, a.has_header, a.label_last, sessions)?;
            (roster, a.chaos.then_some(a.chaos_seed))
        }
        (None, None) => return Err("load needs --csv or --scenario".into()),
    };
    // `--verify` replays the roster locally from the checkpoint the
    // server serves.
    let reference = match &a.model {
        Some(model) if a.verify => {
            let blob = std::fs::read(model).map_err(|e| fail("reading checkpoint", e))?;
            roster.reference(&blob)?;
            Some(blob)
        }
        _ if a.verify => return Err("--verify requires --model".into()),
        _ => None,
    };
    let (dim, n_devices, total_rows_all) = (roster.dim, roster.sessions.len(), roster.total_rows());
    match &roster.scenario {
        Some(name) => writeln!(
            out,
            "scenario '{name}': {total_rows_all} rows x {dim} features over {n_devices} \
             device(s), {} rows/frame, target {}",
            a.batch, a.addr
        )
        .ok(),
        None => writeln!(
            out,
            "loaded {} rows x {dim} features; {n_devices} device(s), {} rows/frame, target {}",
            total_rows_all / n_devices.max(1),
            a.batch,
            a.addr
        )
        .ok(),
    };

    struct DeviceRun {
        session: u64,
        total_rows: u64,
        resume_from: u64,
        report: StreamReport,
        /// Reconnects over the device's life, its snapshot's included.
        reconnects: u64,
        /// `--verify`: the session's checkpoint.
        snapshot: Option<Vec<u8>>,
        victim: bool,
    }

    // Chaos mode: a deterministic fault-injection proxy sits in front of
    // the server, and the first `victims` devices are routed through it;
    // the rest dial the server directly so the run also measures
    // collateral damage on healthy traffic.
    let chaos_proxy = chaos_seed
        .map(|seed| {
            use std::net::ToSocketAddrs;
            let upstream = a
                .addr
                .to_socket_addrs()
                .map_err(|e| fail("resolving server address", e))?
                .next()
                .ok_or("server address resolved to nothing")?;
            ChaosProxy::spawn(upstream, ChaosConfig::all_faults(seed))
                .map_err(|e| fail("starting chaos proxy", e))
        })
        .transpose()?;
    let victims = chaos_seed.map_or(0, |_| a.chaos_victims.unwrap_or(n_devices.div_ceil(2)));
    if let (Some(seed), Some(proxy)) = (chaos_seed, &chaos_proxy) {
        writeln!(
            out,
            "chaos: seed {seed}, every fault family armed; {victims} victim device(s) via {}",
            proxy.local_addr()
        )
        .ok();
    }

    let policy = ReconnectPolicy {
        max_attempts: 12,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(500),
        seed: chaos_seed.unwrap_or(ReconnectPolicy::default().seed),
    };
    let wall = Instant::now();
    let mut handles = Vec::new();
    for (d, (&session, rows)) in roster.sessions.iter().zip(&roster.rows).enumerate() {
        let rows = Arc::clone(rows);
        let proxy = chaos_proxy.as_ref().filter(|_| d < victims);
        let target = proxy.map_or_else(|| a.addr.clone(), |p| p.local_addr().to_string());
        let victim = proxy.is_some();
        let (batch_rows, want_snapshot) = (a.batch, a.verify);
        let stall_timeout = a.busy_stall_timeout.map(Duration::from_secs);
        handles.push(std::thread::spawn(move || -> Result<DeviceRun, String> {
            let err =
                |what: &'static str| move |e: ClientError| format!("device {session}: {what}: {e}");
            let mut rc = ResilientClient::new(&*target, session, dim as u32, policy)
                .map_err(err("connect"))?;
            if victim {
                // Short read timeout so a blackholed reply surfaces as a
                // reconnect instead of a long hang.
                rc.read_timeout = Some(Duration::from_secs(2));
            }
            if let Some(t) = stall_timeout {
                rc.busy_stall_timeout = t;
            }
            let resume_from = rc.hello().map_err(err("hello"))?;
            // Row `i` of `rows` is sample `i` of the session, so the
            // client skips the rows any HELLO, first or after a
            // reconnect, acknowledged: after a server restart the
            // session's durable state already reflects them.
            let report = rc.run_stream(&rows, batch_rows).map_err(err("stream"))?;
            let snapshot = want_snapshot
                .then(|| rc.snapshot())
                .transpose()
                .map_err(err("snapshot"))?;
            let run = DeviceRun {
                session,
                total_rows: (rows.len() / dim) as u64,
                resume_from,
                report,
                reconnects: rc.total_reconnects,
                snapshot,
                victim,
            };
            rc.bye().map_err(err("bye"))?;
            Ok(run)
        }));
    }
    // Join every device and keep going on failure: a crashed device must
    // not hide the other devices' outcomes — each failure is surfaced in
    // the final summary, and the run as a whole errors at the end.
    let mut runs = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(run)) => runs.push(run),
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push("device thread panicked".into()),
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();
    for f in &failures {
        writeln!(out, "device FAILED: {f}").ok();
    }

    // Rows sent, samples/sec and batch RTT p50/p99 (us) over the runs
    // `pick` selects.
    type Stats = (u64, f64, f64, f64);
    let stats = |pick: &dyn Fn(&DeviceRun) -> bool| -> Stats {
        let sent: u64 = runs
            .iter()
            .filter(|r| pick(r))
            .map(|r| r.total_rows.saturating_sub(r.resume_from))
            .sum();
        let mut lat: Vec<f64> = runs
            .iter()
            .filter(|r| pick(r))
            .flat_map(|r| r.report.latencies_us.iter().map(|&us| us as f64))
            .collect();
        let (p50, p99) = latency_percentiles(&mut lat);
        let rate = if elapsed > 0.0 {
            sent as f64 / elapsed
        } else {
            0.0
        };
        (sent, rate, p50, p99)
    };
    let all = stats(&|_| true);
    let (sent_rows, samples_per_sec, p50_us, p99_us) = all;
    let busy: u64 = runs.iter().map(|r| r.report.busy_retries).sum();
    for r in &runs {
        if r.resume_from > 0 {
            writeln!(
                out,
                "device {}: resumed at its sample {}, replayed the remaining {}",
                r.session,
                r.resume_from,
                r.total_rows.saturating_sub(r.resume_from)
            )
            .ok();
        }
    }
    writeln!(
        out,
        "sent {sent_rows} rows in {elapsed:.3} s: {samples_per_sec:.0} samples/sec, \
         batch RTT p50 {p50_us:.1} us / p99 {p99_us:.1} us, {busy} BUSY retr(ies)",
    )
    .ok();

    // Per-group stats (healthy vs victim) for chaos runs.
    let groups: Vec<(&str, Stats)> = [("healthy", false), ("victim", true)]
        .into_iter()
        .filter(|&(_, victim)| chaos_seed.is_some() && runs.iter().any(|r| r.victim == victim))
        .map(|(tag, victim)| (tag, stats(&|r| r.victim == victim)))
        .collect();
    if chaos_seed.is_some() {
        let reconnects: u64 = runs.iter().map(|r| r.reconnects).sum();
        let replayed: u64 = runs.iter().map(|r| r.report.replayed_rows).sum();
        let recovered: u64 = runs.iter().map(|r| r.report.recovered_rows).sum();
        let (faults, conns) = chaos_proxy
            .as_ref()
            .map(|p| (p.events().len(), p.connections()))
            .unwrap_or((0, 0));
        writeln!(
            out,
            "chaos: {faults} fault(s) injected over {conns} proxied connection(s); \
             {reconnects} reconnect(s), {replayed} row(s) replayed, \
             {recovered} acked-but-unseen row(s) recovered via resume offsets"
        )
        .ok();
        for (tag, (sent, _, p50, p99)) in &groups {
            writeln!(
                out,
                "chaos {tag}: {sent} row(s), batch RTT p50 {p50:.1} us / p99 {p99:.1} us"
            )
            .ok();
        }
    }

    if let Some(json_path) = &a.bench_json {
        let batch = a.batch;
        let named: Vec<(String, Stats)> = if chaos_seed.is_some() {
            groups
                .iter()
                .map(|&(tag, g)| (format!("chaos_{tag}_sessions_{n_devices}_batch_{batch}"), g))
                .collect()
        } else {
            let name = match &roster.scenario {
                Some(name) => format!("scenario_{name}_sessions_{n_devices}_batch_{batch}"),
                None => format!("load_sessions_{n_devices}_batch_{batch}"),
            };
            vec![(name, all)]
        };
        let entries: Vec<(String, IngestEntry)> = named
            .into_iter()
            .map(|(name, (sent, rate, p50, p99))| {
                let entry = IngestEntry {
                    samples_per_sec: rate,
                    p50_us: p50,
                    p99_us: p99,
                    samples: sent,
                    unit: None,
                    scenario: roster.scenario.clone(),
                };
                (name, entry)
            })
            .collect();
        merge_into_file(json_path, &entries).map_err(|e| fail("writing bench JSON", e))?;
        writeln!(out, "bench results merged into {}", json_path.display()).ok();
    }

    if !failures.is_empty() {
        return Err(format!(
            "{} of {n_devices} device(s) failed; first failure: {}",
            failures.len(),
            failures[0]
        ));
    }

    if let Some(blob) = reference {
        // Replay the same rows through an in-process fleet and compare
        // each session's snapshot: the networked path must be
        // bit-identical to local execution. A resumed session started from
        // durable state this replay cannot rebuild from the reference
        // alone: it is left out.
        let local = FleetEngine::new(FleetConfig::new(n_devices.min(4)))
            .map_err(|e| fail("starting verification fleet", e))?;
        let resumed: HashMap<u64, u64> = runs
            .iter()
            .filter(|r| r.resume_from > 0)
            .map(|r| (r.session, u64::MAX))
            .collect();
        replay(&local, &roster, &blob, &resumed, None, None)?;
        let mut identical = 0usize;
        for r in runs.iter().filter(|r| r.resume_from == 0) {
            let here = local
                .snapshot(SessionId(r.session))
                .map_err(|e| fail("snapshotting the local replay", e))?;
            if r.snapshot.as_ref() != Some(&here) {
                return Err(format!(
                    "device {}: networked state DIVERGED from local replay",
                    r.session
                ));
            }
            identical += 1;
        }
        local.shutdown();
        let mut line = format!("verify: {identical} device(s) bit-identical to local replay");
        if !resumed.is_empty() {
            line += &format!(" ({} resumed device(s) skipped)", resumed.len());
        }
        writeln!(out, "{line}").ok();
    }
    Ok(())
}

fn write_csv(path: &std::path::Path, samples: &[Sample], with_label: bool) -> Result<(), String> {
    let mut text = String::new();
    for s in samples {
        let row: Vec<String> = s.x.iter().map(|v| format!("{v}")).collect();
        text.push_str(&row.join(","));
        if with_label {
            text.push_str(&format!(",{}", s.label));
        }
        text.push('\n');
    }
    seqdrift_store::atomic_write(path, text.as_bytes()).map_err(|e| fail("writing CSV", e))
}

/// `seqdrift synth`: export a synthetic dataset to CSV.
pub fn synth(a: &SynthArgs, out: Out<'_>) -> Result<(), String> {
    let dataset: DriftDataset = match a.dataset.as_str() {
        "nslkdd" => {
            let mut cfg = if a.quick {
                NslKddConfig::quick()
            } else {
                NslKddConfig::default()
            };
            if let Some(seed) = a.seed {
                cfg.seed = seed;
            }
            nslkdd::generate(&cfg)
        }
        "fan-sudden" | "fan-gradual" | "fan-reoccurring" => {
            let scenario = match a.dataset.as_str() {
                "fan-sudden" => FanScenario::Sudden,
                "fan-gradual" => FanScenario::Gradual,
                _ => FanScenario::Reoccurring,
            };
            let mut cfg = FanConfig::default();
            if let Some(seed) = a.seed {
                cfg.seed = seed;
            }
            fan::generate(&cfg, scenario, fan::Environment::Silent)
        }
        other => {
            return Err(format!(
                "unknown dataset {other:?}; expected nslkdd, fan-sudden, fan-gradual or \
                 fan-reoccurring"
            ))
        }
    };
    std::fs::create_dir_all(&a.out).map_err(|e| fail("creating output dir", e))?;
    write_csv(&a.out.join("train.csv"), &dataset.train, true)?;
    write_csv(&a.out.join("test.csv"), &dataset.test, true)?;
    writeln!(
        out,
        "{}: wrote {} train + {} test samples to {} (drift at test sample {})",
        dataset.name,
        dataset.train.len(),
        dataset.test.len(),
        a.out.display(),
        dataset.drift_start
    )
    .ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Cli, Command};
    use seqdrift_linalg::Rng;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("seqdrift-cli-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a small labelled two-blob CSV and returns its path.
    fn labelled_csv(
        dir: &std::path::Path,
        n: usize,
        mean_shift: f32,
        seed: u64,
    ) -> std::path::PathBuf {
        let mut rng = Rng::seed_from(seed);
        let mut text = String::from("f0,f1,f2,f3,class\n");
        for i in 0..n {
            let (mean, label) = if i % 2 == 0 {
                (0.2 + mean_shift, "normal")
            } else {
                (0.8 + mean_shift, "attack")
            };
            let mut x = vec![0.0 as Real; 4];
            rng.fill_normal(&mut x, mean as Real, 0.05);
            text.push_str(&format!("{},{},{},{},{label}\n", x[0], x[1], x[2], x[3]));
        }
        let path = dir.join(format!("data-{seed}.csv"));
        std::fs::write(&path, text).unwrap();
        path
    }

    /// Features-only CSV (no label column, no header).
    fn stream_csv(dir: &std::path::Path, n: usize, shift: f32, seed: u64) -> std::path::PathBuf {
        let mut rng = Rng::seed_from(seed);
        let mut text = String::new();
        for i in 0..n {
            let mean = if i % 2 == 0 { 0.2 + shift } else { 0.8 + shift };
            let mut x = vec![0.0 as Real; 4];
            rng.fill_normal(&mut x, mean as Real, 0.05);
            let row: Vec<String> = x.iter().map(|v| v.to_string()).collect();
            text.push_str(&row.join(","));
            text.push('\n');
        }
        let path = dir.join(format!("stream-{seed}.csv"));
        std::fs::write(&path, text).unwrap();
        path
    }

    fn exec(line: &str) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let cli = Cli::parse(&argv).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        crate::run(&cli, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn train_run_info_end_to_end() {
        let dir = tmpdir("e2e");
        let train_csv = labelled_csv(&dir, 200, 0.0, 1);
        let model = dir.join("model.sqdm");

        let out = exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        assert!(out.contains("calibrated"), "{out}");
        assert!(model.exists());

        // Stable stream: no drift.
        let stable = stream_csv(&dir, 150, 0.0, 2);
        let updated = dir.join("updated.sqdm");
        let out = exec(&format!(
            "run --csv {} --model {} --out {} --no-header",
            stable.display(),
            model.display(),
            updated.display()
        ))
        .unwrap();
        assert!(out.contains("0 drift(s)"), "{out}");
        assert!(updated.exists());

        // Shifted stream through the *updated* checkpoint: drift detected.
        let shifted = stream_csv(&dir, 900, 0.3, 3);
        let events = dir.join("events.csv");
        let out = exec(&format!(
            "run --csv {} --model {} --events {} --no-header",
            shifted.display(),
            updated.display(),
            events.display()
        ))
        .unwrap();
        assert!(out.contains("DRIFT detected"), "{out}");
        let events_text = std::fs::read_to_string(&events).unwrap();
        assert!(events_text.contains("drift,"), "{events_text}");

        // Info on the original checkpoint.
        let out = exec(&format!("info --model {}", model.display())).unwrap();
        assert!(out.contains("2 classes x 4 features"), "{out}");
        assert!(out.contains("window = 20"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_staggers_drift_across_devices() {
        let dir = tmpdir("fleet");
        let train_csv = labelled_csv(&dir, 200, 0.0, 11);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();

        // Clean replay: no injected drift, no detections.
        let stream = stream_csv(&dir, 120, 0.0, 12);
        let out = exec(&format!(
            "fleet --csv {} --model {} --sessions 6 --workers 2 --no-header",
            stream.display(),
            model.display()
        ))
        .unwrap();
        assert!(out.contains("6 sessions over 2 workers"), "{out}");
        assert!(out.contains("0 drift(s)"), "{out}");
        assert!(out.contains("720 samples processed"), "{out}");

        // Injected drift: every device detects, onsets staggered.
        let long = stream_csv(&dir, 600, 0.0, 13);
        let out = exec(&format!(
            "fleet --csv {} --model {} --sessions 4 --workers 2 \
             --drift-at 100 --drift-step 50 --drift-shift 0.4 --no-header",
            long.display(),
            model.display()
        ))
        .unwrap();
        assert!(out.contains("4 drift(s)"), "{out}");
        for d in 0..4 {
            assert!(out.contains(&format!("device {d}: DRIFT")), "{out}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn federate_with_fault_injection_replays_identically() {
        let dir = tmpdir("fleet-fed-faults");
        let train_csv = labelled_csv(&dir, 200, 0.0, 41);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        let stream = stream_csv(&dir, 400, 0.0, 42);
        // Drift makes sessions contribute, faults make sessions fail, and
        // federation rounds interleave with both. Round boundaries come
        // from the feeder-side counter, so the same seed must replay the
        // same rounds against the same models — the whole run is
        // line-for-line reproducible (only event interleaving may vary).
        let line = format!(
            "fleet --csv {} --model {} --sessions 6 --workers 3 --no-header \
             --drift-at 60 --drift-step 20 --drift-shift 0.4 \
             --inject-faults 7 --federate --federate-interval 300",
            stream.display(),
            model.display()
        );
        let sorted = |out: &str| {
            let mut lines: Vec<&str> = out.lines().collect();
            lines.sort_unstable();
            lines.join("\n")
        };
        let first = exec(&line).unwrap();
        let second = exec(&line).unwrap();
        assert!(first.contains("federation:"), "{first}");
        assert!(first.contains("fault plan (seed 7):"), "{first}");
        assert_eq!(
            sorted(&first),
            sorted(&second),
            "a seeded --federate --inject-faults replay must be deterministic"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_poison_flag_reports_the_plan_and_survives_the_attack() {
        let dir = tmpdir("fleet-poison");
        let train_csv = labelled_csv(&dir, 200, 0.0, 51);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        let stream = stream_csv(&dir, 300, 0.0, 52);
        let out = exec(&format!(
            "fleet --csv {} --model {} --sessions 8 --workers 2 --no-header \
             --drift-at 50 --drift-step 10 --drift-shift 0.4 \
             --federate --federate-interval 400 --poison 99",
            stream.display(),
            model.display()
        ))
        .unwrap();
        assert!(out.contains("poison plan (seed 99):"), "{out}");
        assert!(out.contains("session "), "{out}");
        assert!(out.contains("federation:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_state_dir_persists_and_resumes_sessions() {
        let dir = tmpdir("fleet-durable");
        let train_csv = labelled_csv(&dir, 200, 0.0, 31);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        let stream = stream_csv(&dir, 120, 0.0, 32);
        let state = dir.join("state");

        // First run populates the store (and reports the flushes).
        let out = exec(&format!(
            "fleet --csv {} --model {} --sessions 4 --workers 2 --no-header --state-dir {}",
            stream.display(),
            model.display(),
            state.display()
        ))
        .unwrap();
        assert!(out.contains("durable state store:"), "{out}");
        assert!(!out.contains("durability: 0 checkpoint flush(es)"), "{out}");
        assert!(out.contains("flush failure(s)"), "{out}");

        // Second run resumes every device instead of re-creating it.
        let out = exec(&format!(
            "fleet --csv {} --model {} --sessions 4 --workers 2 --no-header \
             --state-dir {} --resume",
            stream.display(),
            model.display(),
            state.display()
        ))
        .unwrap();
        for d in 0..4 {
            assert!(
                out.contains(&format!("resumed device {d} at its sample")),
                "{out}"
            );
        }
        assert!(out.contains("4 sessions over 2 workers"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn guard_flags_reject_and_repair_hostile_streams() {
        let dir = tmpdir("guard");
        let train_csv = labelled_csv(&dir, 200, 0.0, 21);
        let model = dir.join("model.sqdm");
        let out = exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20 --stuck-threshold 4",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        assert!(
            out.contains("guard: policy reject, stuck threshold 4"),
            "{out}"
        );

        // Hostile stream the CSV loader admits (all finite): oversized rows
        // plus a stuck-sensor run longer than the threshold.
        let clean = |i: usize| {
            if i.is_multiple_of(2) {
                "0.2,0.21,0.19,0.2\n"
            } else {
                "0.8,0.79,0.81,0.8\n"
            }
        };
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(clean(i));
        }
        text.push_str("1e30,1e30,1e30,1e30\n2e30,2e30,2e30,2e30\n3e30,3e30,3e30,3e30\n");
        for _ in 0..6 {
            text.push_str("9,9,9,9\n");
        }
        for i in 0..20 {
            text.push_str(clean(i));
        }
        let hostile = dir.join("hostile.csv");
        std::fs::write(&hostile, &text).unwrap();

        // Default policy (reject): 3 oversized + 2 over-threshold stuck rows
        // are dropped, the stream keeps going, and the run still succeeds.
        let events = dir.join("events.csv");
        let out = exec(&format!(
            "run --csv {} --model {} --events {} --no-header",
            hostile.display(),
            model.display(),
            events.display()
        ))
        .unwrap();
        assert!(out.contains("rejected by guard"), "{out}");
        assert!(
            out.contains("guard: 5 sample(s) rejected, 0 repaired"),
            "{out}"
        );
        let events_text = std::fs::read_to_string(&events).unwrap();
        assert!(events_text.contains("degraded,"), "{events_text}");
        assert!(events_text.contains("recovered,"), "{events_text}");

        // Clamp override: oversized rows are repaired in place; only the
        // stuck run is still dropped.
        let out = exec(&format!(
            "run --csv {} --model {} --guard-policy clamp --no-header",
            hostile.display(),
            model.display()
        ))
        .unwrap();
        assert!(out.contains("guard override: policy clamp"), "{out}");
        assert!(
            out.contains("guard: 2 sample(s) rejected, 3 repaired"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_dimension_mismatch() {
        let dir = tmpdir("dims");
        let train_csv = labelled_csv(&dir, 100, 0.0, 4);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 4 --window 10",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        // 3-column stream against a 4-feature model.
        let bad = dir.join("bad.csv");
        std::fs::write(&bad, "1,2,3\n4,5,6\n").unwrap();
        let err = exec(&format!(
            "run --csv {} --model {} --no-header",
            bad.display(),
            model.display()
        ))
        .unwrap_err();
        assert!(err.contains("expects 4"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_exports_datasets() {
        let dir = tmpdir("synth");
        let out = exec(&format!(
            "synth --dataset fan-sudden --out {}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("drift at test sample 120"), "{out}");
        let test_csv = std::fs::read_to_string(dir.join("test.csv")).unwrap();
        assert_eq!(test_csv.lines().count(), 700);
        // 511 features + label column.
        assert_eq!(test_csv.lines().next().unwrap().split(',').count(), 512);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_rejects_unknown_dataset() {
        let dir = tmpdir("synth-bad");
        let err = exec(&format!("synth --dataset mnist --out {}", dir.display())).unwrap_err();
        assert!(err.contains("unknown dataset"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_load_round_trip_with_verify() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = tmpdir("serve-load");
        let train_csv = labelled_csv(&dir, 200, 0.0, 41);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        let stream = stream_csv(&dir, 60, 0.0, 42);
        let port_file = dir.join("port.txt");
        let bench_json = dir.join("BENCH_ingest.json");

        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            let args = Cli::parse(&argv_vec(&format!(
                "serve --model {} --listen 127.0.0.1:0 --workers 2 --port-file {}",
                model.display(),
                port_file.display()
            )))
            .unwrap();
            std::thread::spawn(move || {
                let Command::Serve(a) = args.command else {
                    panic!("not serve")
                };
                let mut buf = Vec::new();
                let r = serve_with_stop(&a, &mut buf, &stop);
                (r, String::from_utf8(buf).unwrap())
            })
        };
        let addr = wait_for_port_file(&port_file);

        let out = exec(&format!(
            "load --csv {} --addr {addr} --sessions 3 --batch 8 --no-header \
             --bench-json {} --verify --model {}",
            stream.display(),
            bench_json.display(),
            model.display()
        ))
        .unwrap();
        assert!(out.contains("sent 180 rows"), "{out}");
        assert!(
            out.contains("verify: 3 device(s) bit-identical to local replay"),
            "{out}"
        );
        let json = std::fs::read_to_string(&bench_json).unwrap();
        assert!(json.contains("load_sessions_3_batch_8"), "{json}");

        stop.store(true, Ordering::Relaxed);
        let (result, served) = server.join().unwrap();
        result.unwrap();
        assert!(served.contains("listening on"), "{served}");
        assert!(served.contains("180 sample(s) processed"), "{served}");
        assert!(served.contains("drained; bye"), "{served}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_scenario_is_deterministic() {
        let dir = tmpdir("fleet-scn");
        let sqsc = dir.join("drill.sqsc");
        std::fs::write(
            &sqsc,
            "sqsc 1\nname drill\nkind synthetic\nseed 9\nsessions 3\ndim 4\nclasses 2\n\
             train 40\nsamples 160\nnoise 0.05\ndrift sudden start 80 magnitude 0.8\n\
             stagger 10\n",
        )
        .unwrap();
        let line = format!("fleet --scenario {} --workers 2", sqsc.display());
        let sorted = |out: &str| {
            let mut lines: Vec<&str> = out.lines().collect();
            lines.sort_unstable();
            lines.join("\n")
        };
        let first = exec(&line).unwrap();
        let second = exec(&line).unwrap();
        assert!(
            first.contains("scenario 'drill': 3 session(s) over 2 workers, 480 total samples"),
            "{first}"
        );
        assert!(first.contains("480 samples processed"), "{first}");
        assert_eq!(
            sorted(&first),
            sorted(&second),
            "same .sqsc must replay identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_records_a_replayable_bundle() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = tmpdir("serve-record");
        let train_csv = labelled_csv(&dir, 200, 0.0, 61);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        let stream = stream_csv(&dir, 60, 0.0, 62);
        let port_file = dir.join("port.txt");
        let rec_dir = dir.join("incident-7");

        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            let args = Cli::parse(&argv_vec(&format!(
                "serve --model {} --listen 127.0.0.1:0 --workers 2 --port-file {} --record {}",
                model.display(),
                port_file.display(),
                rec_dir.display()
            )))
            .unwrap();
            std::thread::spawn(move || {
                let Command::Serve(a) = args.command else {
                    panic!("not serve")
                };
                let mut buf = Vec::new();
                let r = serve_with_stop(&a, &mut buf, &stop);
                (r, String::from_utf8(buf).unwrap())
            })
        };
        let addr = wait_for_port_file(&port_file);
        exec(&format!(
            "load --csv {} --addr {addr} --sessions 2 --batch 8 --no-header",
            stream.display()
        ))
        .unwrap();
        stop.store(true, Ordering::Relaxed);
        let (result, served) = server.join().unwrap();
        result.unwrap();
        assert!(served.contains("recorded scenario bundle:"), "{served}");

        // The bundle replays through the scenario fleet path: the
        // recorded reference model is embedded, so no --model is needed.
        let manifest = rec_dir.join("scenario.sqsc");
        assert!(manifest.exists(), "bundle manifest missing");
        let out = exec(&format!("fleet --scenario {}", manifest.display())).unwrap();
        assert!(out.contains("scenario 'incident-7': 2 session(s)"), "{out}");
        assert!(out.contains("120 samples processed"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_scenario_takes_its_chaos_seed_from_the_faults_line() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = tmpdir("load-scenario-chaos");
        let train_csv = labelled_csv(&dir, 200, 0.0, 71);
        let model = dir.join("model.sqdm");
        exec(&format!(
            "train --csv {} --out {} --label-last --hidden 6 --window 20",
            train_csv.display(),
            model.display()
        ))
        .unwrap();
        let sqsc = dir.join("storm.sqsc");
        std::fs::write(
            &sqsc,
            "sqsc 1\nname storm\nkind synthetic\nseed 5\nsessions 4\ndim 4\nclasses 2\n\
             train 40\nsamples 60\ndrift sudden start 1000 magnitude 0.8\nfaults chaos 9\n",
        )
        .unwrap();
        let port_file = dir.join("port.txt");
        std::fs::remove_file(&port_file).ok();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            let args = Cli::parse(&argv_vec(&format!(
                "serve --model {} --listen 127.0.0.1:0 --workers 2 --port-file {}",
                model.display(),
                port_file.display()
            )))
            .unwrap();
            std::thread::spawn(move || {
                let Command::Serve(a) = args.command else {
                    panic!("not serve")
                };
                serve_with_stop(&a, &mut Vec::new(), &stop)
            })
        };
        let addr = wait_for_port_file(&port_file);
        let out = exec(&format!(
            "load --scenario {} --addr {addr} --batch 8",
            sqsc.display()
        ))
        .unwrap();
        assert!(
            out.contains("chaos: seed 9, every fault family armed; 2 victim device(s)"),
            "{out}"
        );
        assert!(out.contains("chaos victim: "), "{out}");
        assert!(out.contains("sent 240 rows"), "{out}");
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn argv_vec(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn wait_for_port_file(path: &std::path::Path) -> String {
        for _ in 0..400 {
            if let Ok(addr) = std::fs::read_to_string(path) {
                if !addr.is_empty() {
                    return addr;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server never wrote {}", path.display());
    }

    #[test]
    fn a_stream_without_feature_columns_is_an_error() {
        let dir = tmpdir("no-features");
        let labels_only = dir.join("labels.csv");
        std::fs::write(&labels_only, "0\n1\n").unwrap();
        let err = exec(&format!(
            "load --csv {} --label-last --no-header --addr 127.0.0.1:1",
            labels_only.display()
        ))
        .unwrap_err();
        assert!(err.contains("no feature columns"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_rejects_missing_file() {
        let err =
            exec("train --csv /nonexistent/x.csv --out /tmp/m.sqdm --label-last").unwrap_err();
        assert!(err.contains("reading training CSV"), "{err}");
    }
}
