//! Runs every workload at `--scale 0.005` with the output oracle on and
//! checks that each prints every metric `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::process::Command;

use seqbench::json::Json;
use seqbench::report::{END_TO_END, PER_LAYER};
use seqbench::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn code_declares_the_metrics_benchmark_json_declares() {
    let bench = benchmark_json();
    let pairs = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&bench, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), pairs(&PER_LAYER));
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let bench = benchmark_json();
    let e2e = declared(&bench, "end_to_end");
    let layer = declared(&bench, "per_layer");
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for w in WORKLOADS {
        let out = Command::new(env!("CARGO_BIN_EXE_seqbench"))
            .args([
                "--workload",
                w,
                "--seed",
                "3",
                "--seconds",
                "10",
                "--scale",
                "0.005",
            ])
            .args(["--trace", "1", "--out"])
            .arg(&out_dir)
            .output()
            .expect("seqbench runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{w} failed: {}\n{stdout}",
            String::from_utf8_lossy(&out.stderr)
        );
        for (name, unit) in e2e.iter().chain(&layer) {
            let printed = stdout.lines().any(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                f.len() == 4
                    && f[0] == w
                    && f[1] == name
                    && f[2].parse::<f64>().is_ok()
                    && f[3] == unit
            });
            assert!(
                printed,
                "{w} does not print `{name} <value> {unit}`:\n{stdout}"
            );
        }
        let result =
            Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{w}"
        );
        assert!(result
            .get("attempted")
            .and_then(Json::as_f64)
            .is_some_and(|a| a >= 1.0));
        let keys: BTreeSet<&str> = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: BTreeSet<&str> = layer.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            keys, want,
            "{w}: a traced run reports exactly the per-layer metrics"
        );
        assert!(
            out_dir.join(format!("{w}-3.spans.tsv")).exists(),
            "{w}: no spans file"
        );
    }
}
