//! End-to-end federation: cooperative cross-session model merging over a
//! fleet, spanning linalg -> oselm -> core -> fleet -> federate through
//! the facade crate.
//!
//! The headline scenario injects drift into 10% of a 50-session fleet,
//! merges the vanguard sessions' reconstructed models, redistributes the
//! result, and measures how much sooner the remaining 90% adapt when the
//! new concept finally reaches them.

use seqdrift::core::pipeline::PipelineEvent;
use seqdrift::core::{DetectorConfig, DriftPipeline};
use seqdrift::prelude::*;
use seqdrift_cli::bench_json::{latency_percentiles, merge_into_file, parse, IngestEntry};

const DIM: usize = 6;
const SESSIONS: u64 = 50;
const VANGUARDS: u64 = 5; // the injected 10%
const PHASE1: usize = 400; // drifted samples fed to each vanguard
const HORIZON: usize = 400; // phase-2 samples fed to each laggard
const NEW_MEAN: Real = 0.9; // post-drift concept (trained concept is 0.3)

fn sample(rng: &mut Rng, mean: Real) -> Vec<Real> {
    let mut x = vec![0.0; DIM];
    rng.fill_normal(&mut x, mean, 0.05);
    x
}

/// Calibrate a single-class pipeline on a stable blob and serialise it.
fn checkpoint() -> Vec<u8> {
    let mut rng = Rng::seed_from(99);
    let train: Vec<Vec<Real>> = (0..120).map(|_| sample(&mut rng, 0.3)).collect();
    let mut model = MultiInstanceModel::new(1, OsElmConfig::new(DIM, 4).with_seed(3)).unwrap();
    model.init_train_class(0, &train).unwrap();
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
    let cfg = DetectorConfig::new(1, DIM).with_window(20);
    DriftPipeline::calibrate(model, cfg, &pairs)
        .unwrap()
        .to_bytes()
        .unwrap()
}

/// Per-laggard adaptation delay after phase-2 onset, in samples: 0 when
/// the session never even flags drift (the redistributed model already
/// fits the new concept), the reconstruction-completion index when it
/// adapts, and the full horizon when it detects but never finishes.
fn laggard_delays(events: &[FleetEvent]) -> Vec<f64> {
    let mut detected = std::collections::BTreeMap::new();
    let mut reconstructed = std::collections::BTreeMap::new();
    for e in events {
        if let FleetEvent::Pipeline { id, event } = e {
            if id.0 < VANGUARDS {
                continue;
            }
            match event {
                PipelineEvent::DriftDetected { index, .. } => {
                    detected.entry(id.0).or_insert(*index);
                }
                PipelineEvent::Reconstructed { index, .. } => {
                    reconstructed.entry(id.0).or_insert(*index);
                }
                _ => {}
            }
        }
    }
    (VANGUARDS..SESSIONS)
        .map(|id| {
            if !detected.contains_key(&id) {
                0.0
            } else {
                reconstructed
                    .get(&id)
                    .map(|&r| r as f64)
                    .unwrap_or(HORIZON as f64)
            }
        })
        .collect()
}

/// One full scenario: vanguards learn the new concept in phase 1, an
/// optional merge round propagates it, and phase 2 streams the new
/// concept to every laggard. Returns the laggard delays.
fn run_scenario(merge: bool) -> Vec<f64> {
    let blob = checkpoint();
    let mut cfg = FleetConfig::new(4);
    if merge {
        cfg = cfg.with_federation(FederationConfig::default());
    }
    let fleet = FleetEngine::new(cfg).unwrap();
    for dev in 0..SESSIONS {
        fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
    }

    // Phase 1: only the vanguards see the new concept; everyone else is
    // idle, so their models stay bit-identical to the baseline.
    let mut rng = Rng::seed_from(4242);
    for _ in 0..PHASE1 {
        for dev in 0..VANGUARDS {
            let x = sample(&mut rng, NEW_MEAN);
            fleet.feed_blocking(SessionId(dev), &x).unwrap();
        }
    }
    // FIFO barrier: `feed_blocking` returns at enqueue, so wait until each
    // vanguard's worker has processed every sample fed above before
    // draining the events they produced.
    for dev in 0..VANGUARDS {
        fleet.samples_processed(SessionId(dev)).unwrap();
    }
    let phase1_events = fleet.drain_events();
    let adapted: std::collections::BTreeSet<u64> = phase1_events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Pipeline {
                id,
                event: PipelineEvent::Reconstructed { .. },
            } => Some(id.0),
            _ => None,
        })
        .collect();
    assert_eq!(
        adapted.len(),
        VANGUARDS as usize,
        "every vanguard must reconstruct in phase 1: {adapted:?}"
    );

    if merge {
        let mut federator = Federator::new(&fleet, &blob).unwrap();
        let round = federator.run_round(&fleet).unwrap();
        assert!(round.merged, "round should merge: {round:?}");
        assert_eq!(round.accepted, VANGUARDS, "{round:?}");
        assert_eq!(round.rejected, 0, "{round:?}");
        assert_eq!(round.redistributed, SESSIONS, "{round:?}");
        let m = fleet.metrics();
        assert_eq!(m.merge_rounds, 1);
        assert_eq!(m.contributions_accepted, VANGUARDS);
        assert_eq!(m.redistributions, SESSIONS);
    }

    // Phase 2: the new concept reaches the other 90% of the fleet.
    let mut rng = Rng::seed_from(777);
    for _ in 0..HORIZON {
        for dev in VANGUARDS..SESSIONS {
            let x = sample(&mut rng, NEW_MEAN);
            fleet.feed_blocking(SessionId(dev), &x).unwrap();
        }
    }
    let report = fleet.shutdown();
    assert_eq!(report.sessions.len(), SESSIONS as usize);
    laggard_delays(&report.events)
}

/// The acceptance scenario: with merging on, the mean adaptation delay
/// across the uninjected 90% of the fleet is strictly lower than the
/// merge-off baseline. Both runs go through the `BENCH_ingest.json`
/// ingest schema, into a scratch file so a test run leaves the tracked
/// artefact alone, with `unit: "samples"` declaring the honest semantics:
/// `samples_per_sec` carries the mean adaptation delay *in samples*, and
/// `p50_us`/`p99_us` the delay percentiles in the same unit.
#[test]
fn federated_merging_cuts_reconstruction_delay_for_the_fleet() {
    let mut off = run_scenario(false);
    let mut on = run_scenario(true);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mean_off, mean_on) = (mean(&off), mean(&on));

    // The baseline fleet must genuinely re-learn the concept (every
    // laggard pays detection + reconstruction), otherwise the comparison
    // is vacuous.
    assert!(
        mean_off > 100.0,
        "merge-off laggards should pay a real reconstruction delay, got {mean_off}"
    );
    assert!(
        mean_on < mean_off,
        "merging must strictly lower the mean adaptation delay: on {mean_on} vs off {mean_off}"
    );

    let (off_p50, off_p99) = latency_percentiles(&mut off);
    let (on_p50, on_p99) = latency_percentiles(&mut on);
    let path = std::env::temp_dir().join(format!(
        "seqdrift-federate-bench-{}.json",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let merged = merge_into_file(
        &path,
        &[
            (
                "federate50_delay_merge_off".to_string(),
                IngestEntry {
                    samples_per_sec: mean_off,
                    p50_us: off_p50,
                    p99_us: off_p99,
                    samples: SESSIONS - VANGUARDS,
                    unit: Some("samples".to_string()),
                    scenario: None,
                },
            ),
            (
                "federate50_delay_merge_on".to_string(),
                IngestEntry {
                    samples_per_sec: mean_on,
                    p50_us: on_p50,
                    p99_us: on_p99,
                    samples: SESSIONS - VANGUARDS,
                    unit: Some("samples".to_string()),
                    scenario: None,
                },
            ),
        ],
    )
    .unwrap();
    let written = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        merged.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        written["federate50_delay_merge_on"].unit.as_deref(),
        Some("samples")
    );
}

/// Drives one session through detection + reconstruction on the new
/// concept with a per-session stream, so contributor state is identical
/// across runs regardless of which other sessions exist.
fn adapt_session(fleet: &FleetEngine, dev: u64) {
    let mut rng = Rng::seed_from(10_000 + dev);
    for _ in 0..PHASE1 {
        let x = sample(&mut rng, NEW_MEAN);
        fleet.feed_blocking(SessionId(dev), &x).unwrap();
    }
}

/// Poison gating: a contributor driven `Degraded` by a NaN burst after
/// reconstructing has its pending contribution dropped (and counted in
/// `contributions_rejected`), and the merged model the healthy
/// contributors receive is bit-identical to a run where the poisoned
/// session never existed.
#[test]
fn degraded_contributor_is_rejected_and_cannot_perturb_the_merge() {
    let run = |with_victim: bool| -> (Vec<u8>, u64, u64) {
        let blob = checkpoint();
        let fleet =
            FleetEngine::new(FleetConfig::new(2).with_federation(FederationConfig::default()))
                .unwrap();
        for dev in 0..2 {
            fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
            adapt_session(&fleet, dev);
        }
        if with_victim {
            fleet.create_from_bytes(SessionId(2), &blob).unwrap();
            adapt_session(&fleet, 2);
            // Mid-round NaN burst: the guard degrades the session, so its
            // freshly reconstructed model is a pending contribution that
            // must now be dropped.
            let poison = vec![Real::NAN; DIM];
            for _ in 0..3 {
                fleet.feed_blocking(SessionId(2), &poison).unwrap();
            }
        }
        let mut federator = Federator::new(&fleet, &blob).unwrap();
        let round = federator.run_round(&fleet).unwrap();
        assert!(round.merged, "{round:?}");
        assert_eq!(round.accepted, 2, "{round:?}");
        if with_victim {
            assert_eq!(round.rejected, 1, "victim must be gated out: {round:?}");
        } else {
            assert_eq!(round.rejected, 0, "{round:?}");
        }
        let snap = fleet.snapshot(SessionId(0)).unwrap();
        let m = fleet.metrics();
        let (accepted, rejected) = (m.contributions_accepted, m.contributions_rejected);
        fleet.shutdown();
        (snap, accepted, rejected)
    };

    let (clean, clean_acc, clean_rej) = run(false);
    let (poisoned, pois_acc, pois_rej) = run(true);
    assert_eq!((clean_acc, clean_rej), (2, 0));
    assert_eq!((pois_acc, pois_rej), (2, 1));
    assert_eq!(
        clean, poisoned,
        "a rejected contributor must not alter the merged model by a single bit"
    );
}

/// A merge round rejected wholesale must be loud: `run_round` emits
/// `FleetEvent::MergeRoundRejected` (and bumps `merge_rounds_rejected`)
/// instead of failing silently, both when the merged result fails
/// validation and when the robust pass leaves too few contributors.
#[test]
fn wholesale_merge_rejection_emits_a_fleet_event() {
    let run = |robust: bool| -> (RoundSummary, Vec<FleetEvent>, u64) {
        let blob = checkpoint();
        let fleet = FleetEngine::new(
            FleetConfig::new(1).with_federation(FederationConfig::default().with_robust(robust)),
        )
        .unwrap();
        fleet.create_from_bytes(SessionId(0), &blob).unwrap();
        adapt_session(&fleet, 0);
        // A NaN-beta contribution passes every health gate (the pipeline
        // itself is untouched) but can never merge.
        let mut federator =
            Federator::new(&fleet, &blob)
                .unwrap()
                .with_poison(PoisonInjector::new(
                    1,
                    vec![(0, PoisonMode::ScaledBeta(Real::NAN))],
                ));
        let round = federator.run_round(&fleet).unwrap();
        let events = fleet.drain_events();
        let rejected_rounds = fleet.metrics().merge_rounds_rejected;
        fleet.shutdown();
        (round, events, rejected_rounds)
    };

    // Robust off: the poison reaches the merge, whose validation rejects
    // the whole round.
    let (round, events, rejected_rounds) = run(false);
    assert!(!round.merged, "{round:?}");
    assert_eq!(round.reject_reasons.non_pd, 1, "{round:?}");
    assert_eq!(rejected_rounds, 1);
    assert!(
        events.iter().any(|e| matches!(
            e,
            FleetEvent::MergeRoundRejected {
                candidates: 1,
                reason: MergeRejectReason::FailedValidation,
            }
        )),
        "validation failure must surface as an event: {events:?}"
    );

    // Robust on: the same contribution is caught individually by the
    // scoring pass, leaving too few contributors — still a wholesale
    // rejection, still surfaced.
    let (round, events, rejected_rounds) = run(true);
    assert!(!round.merged, "{round:?}");
    assert_eq!(round.reject_reasons.non_pd, 1, "{round:?}");
    assert_eq!(rejected_rounds, 1);
    assert!(
        events.iter().any(|e| matches!(
            e,
            FleetEvent::MergeRoundRejected {
                candidates: 1,
                reason: MergeRejectReason::TooFewContributors,
            }
        )),
        "an emptied round must surface as an event: {events:?}"
    );
}

/// Durable merged generations: a federator built against a resumed
/// engine restores the last merged model as its baseline, so a power
/// loss never regresses the fleet-wide model.
#[test]
fn merged_generation_survives_restart() {
    let dir = std::env::temp_dir().join(format!("seqdrift-federate-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let blob = checkpoint();
    let cfg = || {
        FleetConfig::new(2)
            .with_federation(FederationConfig::default())
            .with_state_dir(&dir)
    };
    let fleet = FleetEngine::new(cfg()).unwrap();
    fleet.create_from_bytes(SessionId(0), &blob).unwrap();
    adapt_session(&fleet, 0);
    let mut federator = Federator::new(&fleet, &blob).unwrap();
    let round = federator.run_round(&fleet).unwrap();
    assert!(round.merged, "{round:?}");
    assert_eq!(
        round.persisted_generation,
        Some(1),
        "first merged generation must be flushed: {round:?}"
    );
    let merged_beta: Vec<Real> = federator
        .baseline()
        .instance(0)
        .unwrap()
        .network()
        .beta()
        .as_slice()
        .to_vec();
    fleet.shutdown();

    // "Power loss": a brand-new engine and federator over the same state
    // dir. The restored baseline is the merged model, not the reference.
    let fleet2 = FleetEngine::new(cfg()).unwrap();
    let federator2 = Federator::new(&fleet2, &blob).unwrap();
    let restored_beta = federator2.baseline().instance(0).unwrap().network().beta();
    assert_eq!(restored_beta.as_slice(), merged_beta.as_slice());
    let reference_beta = DriftPipeline::from_bytes(&blob)
        .unwrap()
        .model()
        .instance(0)
        .unwrap()
        .network()
        .beta()
        .clone();
    assert_ne!(
        restored_beta.as_slice(),
        reference_beta.as_slice(),
        "restored baseline should be the merged model, not the reference"
    );
    fleet2.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
