//! Scenario format tests: seeded round-trip property loop, hostile and
//! truncated input rejection (with line numbers), playback determinism, and
//! recorded-bundle round-trips.

use seqdrift_linalg::Rng;
use seqdrift_scenario::{
    DriftKind, DriftSpec, FaultsSpec, GuardMode, GuardSpec, Recording, Scenario, ScenarioBody,
    ScenarioError, ScenarioPlayer, SynthSpec, TrafficSpec,
};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sqsc_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Draws a random-but-valid synthetic scenario from a seeded RNG.
fn random_scenario(rng: &mut Rng) -> Scenario {
    let sessions = 1 + rng.below(8) as usize;
    let kind = match rng.below(4) {
        0 => DriftKind::Sudden,
        1 => DriftKind::Gradual,
        2 => DriftKind::Incremental,
        _ => DriftKind::Reoccurring,
    };
    let start = 10 + rng.below(200) as usize;
    let end = start + 1 + rng.below(200) as usize;
    let guard = match rng.below(4) {
        0 => None,
        1 => Some(GuardSpec {
            mode: GuardMode::Reject,
            stuck: None,
        }),
        2 => Some(GuardSpec {
            mode: GuardMode::Clamp,
            stuck: Some(1 + rng.below(16) as usize),
        }),
        _ => Some(GuardSpec {
            mode: GuardMode::ImputeLast,
            stuck: Some(1 + rng.below(16) as usize),
        }),
    };
    let maybe = |rng: &mut Rng| -> Option<u64> { (rng.below(2) == 0).then(|| rng.next_u64() >> 1) };
    let hot = 1 + rng.below(sessions as u64) as usize;
    Scenario {
        name: format!("prop-{}", rng.below(1_000_000)),
        body: ScenarioBody::Synthetic(SynthSpec {
            seed: rng.next_u64(),
            sessions,
            dim: 1 + rng.below(16) as usize,
            classes: 1 + rng.below(4) as usize,
            train: 1 + rng.below(64) as usize,
            samples: 1 + rng.below(512) as usize,
            noise: 0.01 + 0.1 * rng.uniform(),
            drift: DriftSpec {
                kind,
                start,
                end: if kind == DriftKind::Sudden {
                    start
                } else {
                    end
                },
                magnitude: rng.uniform_range(-2.0, 2.0),
            },
            stagger: rng.below(40) as usize,
            traffic: TrafficSpec {
                hot,
                idle: rng.below(20) as usize,
            },
            guard,
            faults: FaultsSpec {
                fleet: maybe(rng),
                chaos: maybe(rng),
                poison: maybe(rng),
            },
            federate: maybe(rng),
        }),
    }
}

#[test]
fn render_parse_roundtrip_property_loop() {
    let mut rng = Rng::seed_from(0x5C5C_0001);
    for case in 0..250 {
        let s = random_scenario(&mut rng);
        let text = s.render();
        let back = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: canonical text failed to parse: {e}\n{text}"));
        assert_eq!(back, s, "case {case}: round-trip mismatch\n{text}");
        // Render is a fixed point: render(parse(render(s))) == render(s).
        assert_eq!(back.render(), text, "case {case}: render not canonical");
    }
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let text = "\n# header comment\nsqsc 1\n\nname demo # trailing comment\nkind synthetic\nseed 7\nsessions 2\ndim 3\nclasses 2\ntrain 10\nsamples 50\ndrift sudden start 20 magnitude 1.5\n";
    let s = Scenario::parse(text).unwrap();
    assert_eq!(s.name, "demo");
    let spec = s.synthetic().unwrap();
    assert_eq!(spec.sessions, 2);
    assert_eq!(spec.drift.kind, DriftKind::Sudden);
}

/// Each hostile input must be rejected with the expected 1-based line number.
#[test]
fn hostile_inputs_rejected_with_line_numbers() {
    let cases: &[(&str, usize, &str)] = &[
        ("", 1, "empty"),
        ("bogus 1\n", 1, "bad magic"),
        ("sqsc 2\n", 1, "unsupported version"),
        ("sqsc one\n", 1, "non-numeric version"),
        ("sqsc 1\nname a\nkind alien\n", 3, "bad kind"),
        ("sqsc 1\nname a\nname b\n", 3, "duplicate key"),
        ("sqsc 1\nname a\nwibble 3\n", 3, "unknown directive"),
        ("sqsc 1\nname a\nkind synthetic\nseed -4\n", 4, "negative seed"),
        ("sqsc 1\nname a\nkind synthetic\nseed 1\nsessions two\n", 5, "non-numeric"),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\ndrift gradual start 50 end 40 magnitude 1\n",
            5,
            "end before start",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\ndrift gradual start 10 magnitude 1\n",
            5,
            "gradual missing end",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\ndrift sideways start 10 magnitude 1\n",
            5,
            "unknown drift kind",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\nsessions 2\ndim 3\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1\nnoise nan\n",
            11,
            "non-finite noise",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\nsessions 2\ndim 0\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1\n",
            6,
            "zero dim",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\nsessions 2\ndim 3\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1\ntraffic hot 5 idle 0\n",
            11,
            "hot exceeds sessions",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\nsessions 2\ndim 3\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1\nguard shrug\n",
            11,
            "unknown guard mode",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\nsessions 2\ndim 3\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1\nfaults gremlin 5\n",
            11,
            "unknown fault family",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\nsessions 2\ndim 3\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1 extra\n",
            10,
            "trailing token",
        ),
        (
            "sqsc 1\nname a\nkind synthetic\nseed 1\nsessions 2\ndim 3\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1\nsession 0 rows 3 file x.csv\n",
            11,
            "recorded key in synthetic",
        ),
        (
            "sqsc 1\nname a\nkind recorded\ndim 3\nseed 9\nsession 0 rows 3 file x.csv\n",
            5,
            "synthetic key in recorded",
        ),
        ("sqsc 1\nname a\nkind recorded\ndim 3\n", 4, "recorded without sessions"),
        (
            "sqsc 1\nname a\nkind recorded\ndim 3\nsession 0 rows 3 file x.csv\nsession 0 rows 2 file y.csv\n",
            6,
            "duplicate session id",
        ),
    ];
    for (text, want_line, what) in cases {
        match Scenario::parse(text) {
            Err(ScenarioError::Parse { line, msg }) => {
                assert_eq!(
                    line, *want_line,
                    "{what}: expected error on line {want_line}, got line {line} ({msg})"
                );
                // Display must surface the line number for operators.
                let shown = ScenarioError::Parse { line, msg }.to_string();
                assert!(
                    shown.starts_with(&format!("line {want_line}:")),
                    "{what}: {shown}"
                );
            }
            Err(other) => panic!("{what}: expected Parse error, got {other}"),
            Ok(_) => panic!("{what}: hostile input was accepted"),
        }
    }
}

/// Truncated files (cut off mid-way) are rejected, pointing at the last
/// meaningful line.
#[test]
fn truncated_input_rejected() {
    let full = "sqsc 1\nname cut\nkind synthetic\nseed 1\nsessions 2\ndim 3\nclasses 1\ntrain 5\nsamples 9\ndrift sudden start 2 magnitude 1\n";
    assert!(Scenario::parse(full).is_ok());
    // Drop lines from the end one at a time; every prefix must fail.
    let lines: Vec<&str> = full.lines().collect();
    for keep in 1..lines.len() {
        let partial = lines[..keep].join("\n");
        let e = Scenario::parse(&partial).expect_err("truncated input accepted");
        match e {
            ScenarioError::Parse { line, ref msg } => {
                assert_eq!(line, keep, "truncation at {keep} lines: wrong line ({msg})");
                assert!(
                    msg.contains("missing required key"),
                    "unexpected msg: {msg}"
                );
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }
}

#[test]
fn playback_is_deterministic_and_label_consistent() {
    let text = "sqsc 1\nname det\nkind synthetic\nseed 99\nsessions 3\ndim 5\nclasses 2\ntrain 20\nsamples 120\nnoise 0.07\ndrift gradual start 30 end 80 magnitude 1.2\nstagger 10\ntraffic hot 2 idle 15\n";
    let s = Scenario::parse(text).unwrap();
    let p1 = ScenarioPlayer::new(s.clone(), None).unwrap();
    let p2 = ScenarioPlayer::new(s, None).unwrap();
    assert_eq!(p1.sessions(), vec![0, 1, 2]);
    for sid in p1.sessions() {
        let a = p1.stream(sid).unwrap();
        let b = p2.stream(sid).unwrap();
        assert_eq!(
            a, b,
            "session {sid}: streams differ across player instances"
        );
        // Features of the labelled stream are bit-identical to stream().
        let labelled = p1.labeled_stream(sid).unwrap();
        let feats: Vec<Vec<f32>> = labelled.iter().map(|s| s.x.clone()).collect();
        assert_eq!(a, feats, "session {sid}: labelled features diverge");
    }
    // Traffic mix: hot sessions get `samples`, idle get `idle`.
    assert_eq!(p1.stream(0).unwrap().len(), 120);
    assert_eq!(p1.stream(1).unwrap().len(), 120);
    assert_eq!(p1.stream(2).unwrap().len(), 15);
    // Stagger shifts the schedule.
    assert_eq!(p1.schedule_for(0).unwrap().start, 30);
    assert_eq!(p1.schedule_for(2).unwrap().start, 50);
    // Sessions are decorrelated: same length, different content.
    assert_ne!(p1.stream(0).unwrap(), p1.stream(1).unwrap());
    // Datasets validate and reuse the same bits.
    let d = p1.dataset(0).unwrap();
    d.validate().unwrap();
    assert_eq!(d.test.len(), 120);
    assert_eq!(d.train.len(), 40);
    assert_eq!(d.drift_start, 30);
}

#[test]
fn recorded_bundle_roundtrips_bit_exact() {
    let dir = tmpdir("bundle");
    let mut rec = Recording::new("incident 7/a");
    rec.set_dim(3);
    rec.set_reference(vec![1, 2, 3, 9]);
    let mut rng = Rng::seed_from(0xB0B);
    let mut want: Vec<(u64, Vec<f32>)> = Vec::new();
    for sid in [0u64, 4, 9] {
        let mut flat = Vec::new();
        for _ in 0..17 {
            for _ in 0..3 {
                flat.push(rng.normal(0.0, 1.0));
            }
        }
        rec.push_rows(sid, &flat);
        rec.push_event(5 * sid, sid, "hello", 0);
        rec.push_event(5 * sid + 1, sid, "samples", 17);
        want.push((sid, flat));
    }
    let manifest = rec.write_bundle(&dir).unwrap();
    assert_eq!(manifest, dir.join("scenario.sqsc"));

    let player = ScenarioPlayer::from_file(&manifest).unwrap();
    assert_eq!(player.name(), "incident-7-a");
    assert_eq!(player.dim(), 3);
    assert_eq!(player.sessions(), vec![0, 4, 9]);
    assert_eq!(player.reference_model(), Some(&[1u8, 2, 3, 9][..]));
    for (sid, flat) in &want {
        let rows = player.stream(*sid).unwrap();
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        assert_eq!(&got, flat, "session {sid}: replay is not bit-exact");
    }
    // Labels are unavailable for recorded scenarios.
    assert!(player.labeled_stream(0).is_err());
    // The log was written and is readable.
    let log = std::fs::read_to_string(dir.join("ingest.log")).unwrap();
    assert!(log.lines().count() >= 7, "log too short:\n{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_recording_refuses_to_write() {
    let dir = tmpdir("empty");
    let rec = Recording::new("nothing");
    assert!(rec.write_bundle(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
