//! `seqdrift fleet` end to end, through the library entry point.
//!
//! **Golden transcripts.** The CSV and `.sqsc` front ends of `fleet`
//! promise the same output for the same flags whatever code path runs
//! them. The digests below were recorded once from a build that predates
//! the shared fleet executor, and every later build must reproduce them.
//! Each case runs the command through the library entry point, sorts the
//! output lines (devices report events in a racy interleaving; each line
//! is deterministic), normalises what legitimately varies between runs,
//! and folds the result into one FNV-1a digest:
//! - the state-dir path becomes `<state>`;
//! - the checkpoint flush line keeps only the number of checkpoints
//!   taken, and the recovery line drops its count of generations kept:
//!   how many checkpoints the write-behind flusher coalesced, and so
//!   how many generations reached disk, depends on disk timing.
//!
//! A digest mismatch means a line changed; the failure prints the
//! normalised transcript. Do not edit the constants; they are only ever
//! re-recorded for a deliberate change of output.
//!
//! **Durable state.** Both front ends resume sessions from `--state-dir`
//! and keep a quarantine verdict a previous run persisted there.

use seqdrift::prelude::*;
use seqdrift_cli::Cli;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seqdrift-cli-fleet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn exec(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cli = Cli::parse(&argv).unwrap();
    let mut buf = Vec::new();
    seqdrift_cli::run(&cli, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Two-blob rows around 0.2 / 0.8 (plus `shift`), with a class label
/// when `labelled`.
fn blob_csv(path: &Path, n: usize, seed: u64, labelled: bool) {
    let mut rng = Rng::seed_from(seed);
    let mut text = String::new();
    for i in 0..n {
        let mean = if i % 2 == 0 { 0.2 } else { 0.8 };
        let mut x = vec![0.0 as Real; 4];
        rng.fill_normal(&mut x, mean, 0.05);
        let row: Vec<String> = x.iter().map(|v| v.to_string()).collect();
        text.push_str(&row.join(","));
        if labelled {
            text.push_str(if i % 2 == 0 { ",0" } else { ",1" });
        }
        text.push('\n');
    }
    std::fs::write(path, text).unwrap();
}

/// A trained 4-feature checkpoint, a 400-row stream and a hostile stream
/// (oversized rows and a stuck run the CSV loader still admits).
struct Fixture {
    dir: PathBuf,
    model: PathBuf,
    stream: PathBuf,
    hostile: PathBuf,
}

fn fixture(name: &str) -> Fixture {
    let dir = tmp_dir(name);
    let train = dir.join("train.csv");
    blob_csv(&train, 200, 1, true);
    let model = dir.join("model.sqdm");
    exec(&format!(
        "train --csv {} --out {} --label-last --no-header --hidden 6 --window 20",
        train.display(),
        model.display()
    ));
    let stream = dir.join("stream.csv");
    blob_csv(&stream, 400, 2, false);
    let hostile = dir.join("hostile.csv");
    let rows = std::fs::read_to_string(&stream).unwrap();
    let mut text = String::new();
    for (i, row) in rows.lines().take(160).enumerate() {
        text.push_str(row);
        text.push('\n');
        if i == 60 {
            text.push_str("1e30,1e30,1e30,1e30\n2e30,2e30,2e30,2e30\n");
        }
        if i == 100 {
            for _ in 0..6 {
                text.push_str("9,9,9,9\n");
            }
        }
    }
    std::fs::write(&hostile, text).unwrap();
    Fixture {
        dir,
        model,
        stream,
        hostile,
    }
}

fn normalise(out: &str, state: Option<&Path>) -> String {
    let mut lines: Vec<String> = out
        .lines()
        .map(|l| {
            let l = match state {
                Some(dir) => l.replace(&dir.display().to_string(), "<state>"),
                None => l.to_string(),
            };
            flushes_taken(&l)
                .or_else(|| generations_dropped(&l))
                .unwrap_or(l)
        })
        .collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// `durability: N checkpoint flush(es) (K superseded ...), F flush
/// failure(s)` becomes `durability: N+K checkpoint(s), F flush failure(s)`.
fn flushes_taken(line: &str) -> Option<String> {
    let rest = line.strip_prefix("durability: ")?;
    let (flushed, rest) = rest.split_once(" checkpoint flush(es) (")?;
    let (superseded, rest) = rest.split_once(" superseded before reaching disk), ")?;
    let taken = flushed.parse::<u64>().ok()? + superseded.parse::<u64>().ok()?;
    Some(format!("durability: {taken} checkpoint(s), {rest}"))
}

/// `state recovery: ... (G generation(s) kept, ...` loses its `G`.
fn generations_dropped(line: &str) -> Option<String> {
    let (head, rest) = line.split_once(" restored (")?;
    let (_, tail) = rest.split_once(" generation(s) kept")?;
    Some(format!("{head} restored (generation(s) kept{tail}"))
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(name: &str, out: &str, state: Option<&Path>, golden: u64) {
    let text = normalise(out, state);
    let digest = fnv1a(&text);
    assert_eq!(digest, golden, "{name}: transcript changed:\n{text}");
}

#[test]
fn fleet_csv_transcripts_are_unchanged() {
    let f = fixture("csv");
    let base = format!(
        "fleet --csv {} --model {} --no-header",
        f.stream.display(),
        f.model.display()
    );
    let cases: [(&str, String, u64); 5] = [
        (
            "clean",
            format!("{base} --sessions 6 --workers 2"),
            0x195a_6236_1262_7f77,
        ),
        (
            "drift",
            format!(
                "{base} --sessions 4 --workers 2 --drift-at 100 --drift-step 50 --drift-shift 0.4"
            ),
            0xc6ff_e64b_c39a_884b,
        ),
        (
            "faults+federate",
            format!(
                "{base} --sessions 6 --workers 3 --drift-at 60 --drift-step 20 --drift-shift 0.4 \
                 --inject-faults 7 --federate --federate-interval 300"
            ),
            0xd73a_b8b0_39c7_b1cd,
        ),
        (
            "poison",
            format!(
                "{base} --sessions 8 --workers 2 --drift-at 50 --drift-step 10 --drift-shift 0.4 \
                 --federate --federate-interval 400 --poison 99"
            ),
            0x30ad_9485_7c8b_aeb4,
        ),
        (
            "guard",
            format!(
                "fleet --csv {} --model {} --no-header --sessions 3 --workers 2 \
                 --guard-policy clamp --stuck-threshold 3",
                f.hostile.display(),
                f.model.display()
            ),
            0x27fe_a10b_59e6_ad1e,
        ),
    ];
    for (name, line, golden) in &cases {
        check(name, &exec(line), None, *golden);
    }

    let state = f.dir.join("state");
    let line = format!(
        "{base} --sessions 4 --workers 2 --drift-at 100 --state-dir {}",
        state.display()
    );
    check(
        "state-dir",
        &exec(&line),
        Some(&state),
        0x36a1_b7ae_93b8_09f8,
    );
    // Re-recorded when `--resume` stopped feeding re-homed sessions their
    // stream again from row 0: the resumed sessions sit at the end of it.
    check(
        "resume",
        &exec(&format!("{line} --resume")),
        Some(&state),
        0xb7c4_4c71_a9dc_b7e8,
    );
    std::fs::remove_dir_all(&f.dir).ok();
}

/// A drill with every plan line the fleet reads: guard, fleet faults,
/// poison and federation.
const DRILL: &str = "sqsc 1\nname golden\nkind synthetic\nseed 9\nsessions 6\ndim 4\n\
classes 2\ntrain 40\nsamples 400\nnoise 0.05\ndrift sudden start 80 magnitude 0.8\n\
stagger 10\nguard clamp stuck 5\nfaults fleet 7\nfaults poison 3\nfederate 300\n";

#[test]
fn fleet_scenario_transcripts_are_unchanged() {
    let dir = tmp_dir("scenario");
    let sqsc = dir.join("drill.sqsc");
    std::fs::write(&sqsc, DRILL).unwrap();
    let line = format!("fleet --scenario {} --workers 3", sqsc.display());
    check("drill", &exec(&line), None, 0xe978_6dda_ec83_8c0c);
    let line = format!(
        "{line} --guard-policy reject --stuck-threshold 4 --federate --federate-interval 200"
    );
    check("drill+overrides", &exec(&line), None, 0xb63d_0c94_2e6a_d33d);
    std::fs::remove_dir_all(&dir).ok();
}

/// `fleet --scenario` with `--state-dir`, then again with `--resume`:
/// the second run re-homes every session instead of re-creating it.
#[test]
fn scenario_fleet_resumes_every_session_from_the_state_dir() {
    let dir = tmp_dir("scenario-resume");
    let sqsc = dir.join("drill.sqsc");
    std::fs::write(&sqsc, DRILL).unwrap();
    let state = dir.join("state");
    let line = format!(
        "fleet --scenario {} --workers 3 --state-dir {}",
        sqsc.display(),
        state.display()
    );
    let first = exec(&line);
    assert!(first.contains("durable state store:"), "{first}");
    let second = exec(&format!("{line} --resume"));
    assert!(
        second.contains("state recovery: 6 session(s) restored"),
        "{second}"
    );
    for id in 0..6 {
        assert!(
            second.contains(&format!("resumed device {id} at its sample")),
            "{second}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Persists a quarantine verdict for session `victim` in `state`: the
/// session panics on its sixth sample with no restart budget left.
fn quarantine(state: &Path, model: &Path, victim: u64) {
    let blob = std::fs::read(model).unwrap();
    let injector = FaultInjector::new(vec![Fault::PanicOnSample {
        session: victim,
        nth: 5,
    }]);
    let fleet = FleetEngine::new(
        FleetConfig::new(1)
            .with_state_dir(state)
            .with_restart_budget(0, 1024)
            .with_fault_injector(injector),
    )
    .unwrap();
    fleet.create_from_bytes(SessionId(victim), &blob).unwrap();
    for _ in 0..10 {
        match fleet.feed_blocking(SessionId(victim), &[0.2; 4]) {
            Ok(()) | Err(FleetError::SessionQuarantined(_)) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while fleet.quarantined_sessions().is_empty() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(fleet.quarantined_sessions().len(), 1);
    fleet.shutdown();
}

/// A verdict persisted by an earlier run survives both front ends: the
/// session is neither re-created from the reference nor fed, and the run
/// still reports it quarantined at shutdown.
#[test]
fn both_front_ends_keep_a_persisted_quarantine_verdict() {
    let f = fixture("quarantine");
    let sqsc = f.dir.join("drill.sqsc");
    std::fs::write(&sqsc, DRILL).unwrap();
    let runs = [
        (
            "csv",
            format!(
                "fleet --csv {} --model {} --no-header --sessions 4 --workers 2",
                f.stream.display(),
                f.model.display()
            ),
        ),
        (
            "scenario",
            format!("fleet --scenario {} --workers 3", sqsc.display()),
        ),
    ];
    for (name, line) in runs {
        let state = f.dir.join(format!("state-{name}"));
        quarantine(&state, &f.model, 2);
        for resume in ["", " --resume"] {
            let out = exec(&format!("{line} --state-dir {}{resume}", state.display()));
            assert!(
                out.contains("device 2: quarantined by a previous run"),
                "{name}{resume}: {out}"
            );
            assert!(
                out.contains("quarantined at shutdown: device 2 "),
                "{name}{resume}: {out}"
            );
        }
    }
    std::fs::remove_dir_all(&f.dir).ok();
}

/// `--resume` feeds each re-homed session from its checkpoint on: this
/// run processes exactly the rows its sessions had not yet seen, and no
/// session reports a drift before the sample it resumed at.
#[test]
fn resumed_sessions_are_fed_from_their_checkpoint() {
    let dir = tmp_dir("resume-offset");
    let sqsc = dir.join("drill.sqsc");
    std::fs::write(&sqsc, DRILL).unwrap();
    let state = dir.join("state");
    let line = format!(
        "fleet --scenario {} --workers 3 --state-dir {}",
        sqsc.display(),
        state.display()
    );
    exec(&line);
    let out = exec(&format!("{line} --resume"));
    let mut resumed_at = std::collections::HashMap::new();
    let mut processed = None;
    for l in out.lines() {
        if let Some(rest) = l.strip_prefix("resumed device ") {
            let (id, at) = rest.split_once(" at its sample ").unwrap();
            resumed_at.insert(id.to_string(), at.parse::<u64>().unwrap());
        }
        if let Some(rest) = l.strip_prefix("fleet done: 6 sessions, ") {
            let (n, _) = rest.split_once(" samples processed").unwrap();
            processed = Some(n.parse::<u64>().unwrap());
        }
    }
    assert_eq!(resumed_at.len(), 6, "{out}");
    let unseen: u64 = resumed_at.values().map(|at| 400 - at).sum();
    assert_eq!(processed, Some(unseen), "{out}");
    for l in out.lines() {
        let Some(rest) = l.strip_prefix("device ") else {
            continue;
        };
        if let Some((id, rest)) = rest.split_once(": DRIFT at its sample ") {
            let (at, _) = rest.split_once(' ').unwrap();
            assert!(
                at.parse::<u64>().unwrap() >= resumed_at[id],
                "device {id} drifted before its resume point:\n{out}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A row the input guard refuses still advances the resume offset. In
/// the drill, device 4's NaN burst costs it three rows, yet `--resume`
/// re-homes it at the end of its 400-row stream, so no row is fed twice.
#[test]
fn guard_rejected_rows_count_towards_the_resume_offset() {
    let dir = tmp_dir("resume-rejected");
    let sqsc = dir.join("drill.sqsc");
    std::fs::write(&sqsc, DRILL).unwrap();
    let state = dir.join("state");
    let line = format!(
        "fleet --scenario {} --workers 3 --state-dir {}",
        sqsc.display(),
        state.display()
    );
    exec(&line);
    let out = exec(&format!("{line} --resume"));
    assert!(
        out.lines()
            .any(|l| l == "resumed device 4 at its sample 400"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
