//! Byzantine-robust federation under seeded model poisoning: a 50-session
//! fleet where 16% of the contributors submit deterministically corrupted
//! models that pass every overt health gate, spanning linalg -> oselm ->
//! core -> fleet -> federate through the facade crate.
//!
//! The headline scenario proves three properties at once: the robust
//! merge converges **bit-identically** to the clean-merge baseline, a
//! poisoned model is never redistributed to any session, and the laggard
//! adaptation-delay win of federation (the `federate50_delay_merge_on`
//! envelope in `BENCH_ingest.json`) survives the attack. The negative
//! control re-runs the same seed with robust merging disabled and shows
//! the baseline demonstrably corrupted — the injector has teeth.

use seqdrift::core::pipeline::PipelineEvent;
use seqdrift::core::{DetectorConfig, DriftPipeline};
use seqdrift::prelude::*;

const DIM: usize = 6;
const SESSIONS: u64 = 50;
const VANGUARDS: u64 = 12; // honest sessions that learn the new concept
const PHASE1: usize = 400; // drifted samples fed to each vanguard
const HORIZON: usize = 400; // phase-2 samples fed to each laggard
const NEW_MEAN: Real = 0.9; // post-drift concept (trained concept is 0.3)
const POISON_SEED: u64 = 0xBAD5EED;
/// Mean laggard adaptation delay, in samples, of the merge-on federation
/// run recorded as `federate50_delay_merge_on` in `BENCH_ingest.json`.
const MERGE_ON_ENVELOPE: f64 = 70.0;

/// The 8 poisoned laggards (16% of the fleet), covering every corruption
/// mode whose signature is visible in a single round. The slow-bias ramp
/// gets its own multi-round scenario below.
fn victims() -> Vec<(u64, PoisonMode)> {
    vec![
        (40, PoisonMode::ScaledBeta(2.5)),
        (41, PoisonMode::ScaledBeta(4.0)),
        (42, PoisonMode::ScaledBeta(5.5)),
        (43, PoisonMode::RotatedGram),
        (44, PoisonMode::RotatedGram),
        (45, PoisonMode::Colluding),
        (46, PoisonMode::Colluding),
        (47, PoisonMode::Colluding),
    ]
}

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

/// Drives one session through detection + reconstruction on the new
/// concept with a per-session stream, so contributor state is identical
/// across runs regardless of what the other sessions are doing.
fn adapt_session(fleet: &FleetEngine, dev: u64) {
    let mut rng = Rng::seed_from(10_000 + dev);
    for _ in 0..PHASE1 {
        let x = sample(&mut rng, NEW_MEAN);
        fleet.feed_blocking(SessionId(dev), &x).unwrap();
    }
}

/// Per-laggard adaptation delay after phase-2 onset, in samples (same
/// semantics as the PR 6 federation e2e).
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

struct Outcome {
    round: RoundSummary,
    /// Snapshot of an honest laggard right after the round — the model
    /// the fleet actually redistributed.
    honest_snap: Vec<u8>,
    /// Snapshot of a poisoned laggard right after the round.
    victim_snap: Vec<u8>,
    /// Trust of every poisoned session after the round.
    victim_trust: Vec<Real>,
    delays: Vec<f64>,
}

/// One full scenario: 12 vanguards learn the new concept, one federation
/// round merges and redistributes, phase 2 streams the new concept to the
/// laggards. With `poison` the 8 victims submit corrupted contributions
/// to that round.
fn run_scenario(poison: bool, robust: bool) -> Outcome {
    let blob = checkpoint();
    let fleet = FleetEngine::new(
        FleetConfig::new(4).with_federation(FederationConfig::default().with_robust(robust)),
    )
    .unwrap();
    for dev in 0..SESSIONS {
        fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
    }
    for dev in 0..VANGUARDS {
        adapt_session(&fleet, dev);
    }
    // Quiesce: a snapshot request drains each vanguard's FIFO behind the
    // samples above, so the event log is complete before we assert on it
    // (feed_blocking returns at enqueue, not at processing).
    for dev in 0..VANGUARDS {
        let _ = fleet.snapshot(SessionId(dev));
    }
    let adapted: std::collections::BTreeSet<u64> = fleet
        .drain_events()
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

    let mut federator = Federator::new(&fleet, &blob).unwrap();
    if poison {
        federator = federator.with_poison(PoisonInjector::new(POISON_SEED, victims()));
    }
    let round = federator.run_round(&fleet).unwrap();
    assert!(round.merged, "the round must still merge: {round:?}");
    let honest_snap = fleet.snapshot(SessionId(20)).unwrap();
    let victim_snap = fleet.snapshot(SessionId(45)).unwrap();
    let victim_trust = victims()
        .iter()
        .map(|&(id, _)| federator.reputation().trust(id))
        .collect();

    let mut rng = Rng::seed_from(777);
    for _ in 0..HORIZON {
        for dev in VANGUARDS..SESSIONS {
            let x = sample(&mut rng, NEW_MEAN);
            fleet.feed_blocking(SessionId(dev), &x).unwrap();
        }
    }
    let report = fleet.shutdown();
    assert_eq!(report.sessions.len(), SESSIONS as usize);
    Outcome {
        round,
        honest_snap,
        victim_snap,
        victim_trust,
        delays: laggard_delays(&report.events),
    }
}

/// The acceptance scenario: with 16% of the fleet poisoned, the robust
/// merge rejects every corrupted contribution, converges bit-identically
/// to the clean-merge baseline, never hands a poisoned model to any
/// session, decays every victim's trust — and keeps the laggard
/// adaptation delay inside the PR 6 merge-on envelope.
#[test]
fn poisoned_fleet_converges_to_the_clean_baseline() {
    let clean = run_scenario(false, true);
    assert_eq!(clean.round.accepted, VANGUARDS, "{:?}", clean.round);
    assert_eq!(clean.round.rejected, 0, "{:?}", clean.round);

    let poisoned = run_scenario(true, true);
    assert_eq!(
        poisoned.round.accepted, VANGUARDS,
        "all honest vanguards must survive the robust pass: {:?}",
        poisoned.round
    );
    let rr = poisoned.round.reject_reasons;
    assert_eq!(
        rr.deviation + rr.non_pd,
        victims().len() as u64,
        "every poisoned contribution must be rejected: {:?}",
        poisoned.round
    );
    assert_eq!(poisoned.round.rejected, rr.total(), "{:?}", poisoned.round);
    assert_eq!(
        poisoned.round.redistributed, SESSIONS,
        "{:?}",
        poisoned.round
    );

    // The merged model the fleet redistributed is bit-identical to the
    // clean-merge baseline: the attack contributed exactly nothing, and
    // no session — victim or honest — ever held a poisoned model.
    assert_eq!(
        poisoned.honest_snap, clean.honest_snap,
        "robust merge must converge bit-identically to the clean baseline"
    );
    assert_eq!(
        poisoned.victim_snap, clean.honest_snap,
        "a poisoned session must be re-seeded with the clean merged model"
    );

    // Every victim's trust decayed from the default 1.0.
    for (&(id, _), &trust) in victims().iter().zip(&poisoned.victim_trust) {
        assert!(
            trust < 1.0,
            "victim {id} should have lost trust, still at {trust}"
        );
    }

    // The point of federating at all — the laggard adaptation-delay win —
    // must survive the attack. Compare against the recorded merge-on
    // envelope (delay means, in samples).
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let poisoned_mean = mean(&poisoned.delays);
    assert!(
        poisoned_mean <= MERGE_ON_ENVELOPE * 1.5 + 8.0,
        "poisoned-fleet laggard delay {poisoned_mean} blew the merge-on envelope {MERGE_ON_ENVELOPE}"
    );
    // And it must not be worse than this run's own clean fleet either.
    let clean_mean = mean(&clean.delays);
    assert!(
        poisoned_mean <= clean_mean * 1.5 + 8.0,
        "poisoned delay {poisoned_mean} vs clean delay {clean_mean}"
    );
}

/// The negative control: the same seed with robust merging disabled must
/// demonstrably corrupt the fleet baseline — otherwise the headline test
/// proves nothing about the injector.
#[test]
fn without_robust_merging_the_same_seed_corrupts_the_baseline() {
    let clean = run_scenario(false, true);
    let off = run_scenario(true, false);
    assert_eq!(
        off.round.accepted,
        VANGUARDS + victims().len() as u64,
        "without the robust pass every poisoned contribution is admitted: {:?}",
        off.round
    );
    assert_ne!(
        off.honest_snap, clean.honest_snap,
        "the poisoned merge must corrupt the redistributed model"
    );
    // Quantify: the merged beta the fleet received differs materially,
    // not by a rounding artefact.
    let beta_of = |blob: &[u8]| -> Vec<Real> {
        DriftPipeline::from_bytes(blob)
            .unwrap()
            .model()
            .instance(0)
            .unwrap()
            .network()
            .beta()
            .as_slice()
            .to_vec()
    };
    let (clean_beta, off_beta) = (beta_of(&clean.honest_snap), beta_of(&off.honest_snap));
    let norm = |v: &[Real]| v.iter().map(|x| x * x).sum::<Real>().sqrt();
    let diff: Vec<Real> = clean_beta
        .iter()
        .zip(&off_beta)
        .map(|(a, b)| a - b)
        .collect();
    let rel = norm(&diff) / norm(&clean_beta).max(Real::MIN_POSITIVE);
    assert!(
        rel > 1e-2,
        "poisoning should shift the merged beta materially, got relative diff {rel}"
    );
}

/// The slow-bias ramp: a victim whose corruption starts tiny and grows
/// each round. The robust pass flags it once the ramp clears the
/// deviation bound, its trust then decays below the floor, and from that
/// point it is excluded from merging entirely (and the exclusion is
/// surfaced as a fleet event) — while the honest sessions keep merging
/// every single round.
#[test]
fn slow_bias_attacker_loses_trust_and_is_excluded() {
    let blob = checkpoint();
    let fleet =
        FleetEngine::new(FleetConfig::new(2).with_federation(FederationConfig::default())).unwrap();
    for dev in 0..4 {
        fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
    }
    let mut federator = Federator::new(&fleet, &blob)
        .unwrap()
        .with_poison(PoisonInjector::new(5, vec![(3, PoisonMode::SlowBias)]));

    let mut rng = Rng::seed_from(31337);
    let mut saw_deviation = false;
    let mut saw_low_trust = false;
    for _ in 0..12 {
        // Hand every honest session a freshly (and slightly differently)
        // trained divergence from the baseline so each round has honest
        // contributors; the victim never trains, its divergence is pure
        // poison.
        for dev in 0..3u64 {
            let mut m = federator.baseline().clone();
            for _ in 0..8 {
                let x = sample(&mut rng, NEW_MEAN);
                m.seq_train_label(0, &x).unwrap();
            }
            fleet.install_model(SessionId(dev), m).unwrap();
        }
        let round = federator.run_round(&fleet).unwrap();
        assert!(
            round.merged,
            "honest contributors must keep merging: {round:?}"
        );
        assert_eq!(round.accepted, 3, "{round:?}");
        saw_deviation |= round.reject_reasons.deviation > 0;
        saw_low_trust |= round.reject_reasons.low_trust > 0;
    }
    assert!(
        saw_deviation,
        "the ramp must eventually clear the deviation bound"
    );
    assert!(
        saw_low_trust,
        "repeated outlier rounds must push the victim below the trust floor"
    );
    let trust = federator.reputation().trust(3);
    assert!(
        trust < 0.3,
        "victim trust should sit below the floor: {trust}"
    );
    let excluded = fleet.drain_events().into_iter().any(|e| {
        matches!(
            e,
            FleetEvent::SessionExcludedLowTrust { id, .. } if id.0 == 3
        )
    });
    assert!(excluded, "the exclusion must be surfaced as a fleet event");
    fleet.shutdown();
}

/// Reputation durability: trust verdicts survive a kill-and-resume. A
/// federator rebuilt over the same state dir restores the book through
/// `Store::open`'s recovery scan, so an adversarial device cannot launder
/// its history through a process restart.
#[test]
fn reputation_survives_restart() {
    let dir = std::env::temp_dir().join(format!("seqdrift-poison-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let blob = checkpoint();
    let cfg = || {
        FleetConfig::new(2)
            .with_federation(FederationConfig::default())
            .with_state_dir(&dir)
    };
    let fleet = FleetEngine::new(cfg()).unwrap();
    for dev in 0..3 {
        fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
    }
    adapt_session(&fleet, 0);
    adapt_session(&fleet, 1);
    let mut federator = Federator::new(&fleet, &blob)
        .unwrap()
        .with_poison(PoisonInjector::new(
            9,
            vec![(2, PoisonMode::ScaledBeta(50.0))],
        ));
    let round = federator.run_round(&fleet).unwrap();
    assert!(round.merged, "{round:?}");
    assert_eq!(round.reject_reasons.deviation, 1, "{round:?}");
    let decayed = federator.reputation().trust(2);
    assert!(decayed < 1.0);
    fleet.shutdown();

    // "Power loss": a brand-new engine and federator over the same state
    // dir restore the decayed trust, not the default 1.0.
    let fleet2 = FleetEngine::new(cfg()).unwrap();
    let federator2 = Federator::new(&fleet2, &blob).unwrap();
    assert_eq!(
        federator2.reputation().trust(2),
        decayed,
        "the reputation book must survive restart bit-exactly"
    );
    fleet2.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
