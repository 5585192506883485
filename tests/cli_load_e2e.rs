//! `seqdrift load` end to end, against an in-process `serve`.
//!
//! **Golden transcripts.** `load` promises the same output for the same
//! flags whatever code path runs its devices. The digests below were
//! recorded once from a build in which `load` kept its own stream
//! loaders, device bodies and verification replay, and every later build
//! must reproduce them. Each case starts a fresh server, runs `load`
//! through the library entry point, sorts the output lines, normalises
//! what legitimately varies between runs, and folds the result into one
//! FNV-1a digest:
//! - the server and proxy addresses become `<addr>`, the scratch
//!   directory `<dir>`;
//! - every number that carries a time or a rate (elapsed seconds,
//!   samples/sec, RTT percentiles), a BUSY retry count or a fault,
//!   reconnect or replay count of the chaos proxy becomes `<n>`.
//!
//! A digest mismatch means a line changed; the failure prints the
//! normalised transcript. Do not edit the constants; they are only ever
//! re-recorded for a deliberate change of output.

use seqdrift::prelude::*;
use seqdrift_cli::commands::serve_with_stop;
use seqdrift_cli::{Cli, Command};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdrift-cli-load-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn exec(line: &str) -> Result<String, String> {
    let cli = Cli::parse(&argv(line)).unwrap();
    let mut buf = Vec::new();
    let r = seqdrift_cli::run(&cli, &mut buf);
    let out = String::from_utf8(buf).unwrap();
    r.map(|()| out.clone()).map_err(|e| format!("{e}\n{out}"))
}

/// Two-blob rows around 0.2 / 0.8, with a class label when `labelled`.
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

/// A trained 4-feature checkpoint and a 120-row stream.
fn fixture(name: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = tmp_dir(name);
    let train = dir.join("train.csv");
    blob_csv(&train, 200, 1, true);
    let model = dir.join("model.sqdm");
    exec(&format!(
        "train --csv {} --out {} --label-last --no-header --hidden 6 --window 20",
        train.display(),
        model.display()
    ))
    .unwrap();
    let stream = dir.join("stream.csv");
    blob_csv(&stream, 120, 2, false);
    (dir, model, stream)
}

/// Runs `load <args> --addr <server>` against a fresh in-process server
/// serving `model`, stops the server, and returns `load`'s outcome.
fn against_server(dir: &Path, model: &Path, args: &str) -> Result<String, String> {
    let port_file = dir.join("port.txt");
    std::fs::remove_file(&port_file).ok();
    let Command::Serve(serve) = Cli::parse(&argv(&format!(
        "serve --model {} --listen 127.0.0.1:0 --workers 2 --port-file {}",
        model.display(),
        port_file.display()
    )))
    .unwrap()
    .command
    else {
        panic!("not serve")
    };
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_with_stop(&serve, &mut Vec::new(), &stop))
    };
    let mut addr = String::new();
    for _ in 0..1000 {
        addr = std::fs::read_to_string(&port_file).unwrap_or_default();
        if !addr.is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");
    let out = exec(&format!("load {args} --addr {addr}"));
    stop.store(true, Ordering::Relaxed);
    server.join().unwrap().unwrap();
    out.map(|o| o.replace(&addr, "<addr>"))
}

/// Suffixes whose preceding number carries a time, a rate, a BUSY retry
/// count or a chaos fault/reconnect/replay count.
const VOLATILE: [&str; 9] = [
    " s:",
    " samples/sec",
    " us",
    " BUSY",
    " fault(s)",
    " proxied",
    " reconnect(s)",
    " row(s) replayed",
    " acked-but-unseen",
];

fn mask_numbers(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        let len = rest[start..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len() - start);
        let after = &rest[start + len..];
        out.push_str(&rest[..start]);
        if VOLATILE.iter().any(|s| after.starts_with(s)) {
            out.push_str("<n>");
        } else {
            out.push_str(&rest[start..start + len]);
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

fn normalise(out: &str, dir: &Path) -> String {
    let dir = dir.display().to_string();
    let mut lines: Vec<String> = out
        .lines()
        .map(|l| {
            let l = l.replace(&dir, "<dir>");
            // The chaos proxy listens on an ephemeral loopback port.
            let l = match l.split_once(" via 127.0.0.1:") {
                Some((head, _)) => format!("{head} via <addr>"),
                None => l,
            };
            mask_numbers(&l)
        })
        .collect();
    lines.sort_unstable();
    lines.join("\n")
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(name: &str, out: &str, dir: &Path, golden: u64) {
    let text = normalise(out, dir);
    let digest = fnv1a(&text);
    assert_eq!(digest, golden, "{name}: transcript changed:\n{text}");
}

/// A 4-session drill whose streams end at a quiescent point against the
/// fixture's checkpoint: every reconstruction has finished.
const SETTLED: &str = "sqsc 1\nname settled\nkind synthetic\nseed 5\nsessions 4\ndim 4\n\
classes 2\ntrain 40\nsamples 400\ndrift sudden start 1000 magnitude 0.8\n";

#[test]
fn load_transcripts_are_unchanged() {
    let (dir, model, stream) = fixture("golden");
    let sqsc = dir.join("settled.sqsc");
    std::fs::write(&sqsc, SETTLED).unwrap();
    let verify = format!("--verify --model {}", model.display());
    let cases: [(&str, String, u64); 3] = [
        (
            "csv+bench",
            format!(
                "--csv {} --no-header --sessions 3 --batch 8 {verify} --bench-json {}",
                stream.display(),
                dir.join("BENCH.json").display()
            ),
            0x1fba_cead_b53c_fb45,
        ),
        (
            "scenario",
            format!("--scenario {} --batch 8 {verify}", sqsc.display()),
            0x5941_6155_c6fa_aefe,
        ),
        (
            "chaos",
            format!(
                "--csv {} --no-header --sessions 4 --batch 8 --chaos --chaos-seed 9 {verify}",
                stream.display()
            ),
            0xdf8c_2cd5_fa74_f70b,
        ),
    ];
    for (name, args, golden) in &cases {
        let out = against_server(&dir, &model, args).unwrap();
        check(name, &out, &dir, *golden);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A 4-session drill whose streams end while every session is still
/// reconstructing after a drift.
const MIDWAY: &str = "sqsc 1\nname midway\nkind synthetic\nseed 5\nsessions 4\ndim 4\n\
classes 2\ntrain 40\nsamples 60\ndrift sudden start 30 magnitude 0.8\n";

/// A session still inside its reconstruction at end of stream
/// checkpoints like any other, on the server and in the local replay
/// alike, so `--verify` compares its whole state bit for bit.
#[test]
fn verify_matches_sessions_that_end_mid_reconstruction() {
    let (dir, model, _) = fixture("midway");
    let sqsc = dir.join("midway.sqsc");
    std::fs::write(&sqsc, MIDWAY).unwrap();
    let out = against_server(
        &dir,
        &model,
        &format!(
            "--scenario {} --batch 8 --verify --model {}",
            sqsc.display(),
            model.display()
        ),
    )
    .unwrap();
    assert!(!out.contains("FAILED"), "{out}");
    assert!(
        out.lines()
            .any(|l| l == "verify: 4 device(s) bit-identical to local replay"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
