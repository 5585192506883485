//! `seqbench`: one workload per invocation, or a set of runs, or a
//! comparison of two sets. Run with no arguments for usage.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use seqbench::alloc::Counting;
use seqbench::json::Json;
use seqbench::{compare, Opts, WORKLOADS};

#[global_allocator]
static ALLOC: Counting = Counting;

const USAGE: &str = "\
usage:
  seqbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--scale X] [--out DIR]
      run one workload in this process; prints `workload metric value unit`
      lines and, last, one JSON result line
  seqbench run --seed N [--workload NAME] [--runs R] [--seconds S] [--trace]
               [--scale X] [--out FILE]
      run each workload (or NAME) R times with seeds N, N+1, ..., each in its
      own child process, and write the results to FILE
      (default target/seqbench/run-N.json)
  seqbench compare A.json B.json [--bench BENCHMARK.json]
      medians, quartiles and a verdict per (workload, metric)

workloads: device-511, fleet-mem, fleet-durable, net-ingest";

/// Measured seconds when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    scale: Option<f64>,
    out: Option<PathBuf>,
    runs: Option<u64>,
    bench: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut i = 0;
    let value = |i: usize| {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[i]))
    };
    while i < args.len() {
        let bad = |e: &dyn std::fmt::Display| format!("{}: {e}", args[i]);
        match args[i].as_str() {
            "--workload" => a.workload = Some(value(i)?),
            "--seed" => a.seed = Some(value(i)?.parse().map_err(|e| bad(&e))?),
            "--seconds" => a.seconds = Some(value(i)?.parse().map_err(|e| bad(&e))?),
            "--scale" => a.scale = Some(value(i)?.parse().map_err(|e| bad(&e))?),
            "--runs" => a.runs = Some(value(i)?.parse().map_err(|e| bad(&e))?),
            "--out" => a.out = Some(value(i)?.into()),
            "--bench" => a.bench = Some(value(i)?.into()),
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => i += 1,
                    Some("1") => {
                        a.trace = true;
                        i += 1;
                    }
                    _ => a.trace = true,
                }
                i += 1;
                continue;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => {
                a.positional.push(word.to_string());
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    if a.seconds
        .is_some_and(|s| s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
        || a.scale
            .is_some_and(|s| s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(a)
}

fn opts(a: &Args, out_dir: PathBuf) -> Result<Opts, String> {
    Ok(Opts {
        seed: a.seed.ok_or("--seed is required")?,
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
        scale: a.scale.unwrap_or(1.0),
        trace: a.trace,
        out_dir,
    })
}

fn default_out_dir() -> PathBuf {
    PathBuf::from("target").join("seqbench")
}

/// Runs one workload in this process.
fn one(a: &Args) -> Result<ExitCode, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let o = opts(a, a.out.clone().unwrap_or_else(default_out_dir))?;
    let outcome = seqbench::run_workload(name, &o)?;
    outcome.print();
    Ok(if outcome.mismatch.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs every requested workload and seed in a child process each and
/// writes the result set.
fn run(a: &Args) -> Result<ExitCode, String> {
    let o = opts(a, default_out_dir())?;
    let workloads: Vec<&str> = match a.workload.as_deref() {
        Some(w) if WORKLOADS.contains(&w) => vec![w],
        Some(w) => return Err(format!("unknown workload '{w}'")),
        None => WORKLOADS.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for w in &workloads {
        for r in 0..a.runs.unwrap_or(1) {
            let seed = o.seed + r;
            let mut child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &o.seconds.to_string(),
                    "--scale",
                    &o.scale.to_string(),
                ])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let mut last = None;
            if let Some(stdout) = child.stdout.take() {
                for line in BufReader::new(stdout).lines() {
                    let line = line.map_err(|e| e.to_string())?;
                    if let Some(prev) = last.replace(line) {
                        println!("{prev}");
                    }
                }
            }
            let status = child.wait().map_err(|e| e.to_string())?;
            let result = last.as_deref().map(Json::parse);
            match (status.success(), result) {
                (true, Some(Ok(result))) => {
                    runs.push(Json::Obj(vec![
                        ("workload".into(), Json::Str(w.to_string())),
                        ("seed".into(), Json::Num(seed as f64)),
                        ("traced".into(), Json::Bool(o.trace)),
                        ("result".into(), result),
                    ]));
                    println!("{w} seed {seed}: ok");
                }
                (_, result) => {
                    all_ok = false;
                    if let Some(Ok(r)) = result {
                        println!("{r}");
                    }
                    println!("{w} seed {seed}: FAILED ({status})");
                }
            }
        }
    }
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| default_out_dir().join(format!("run-{}.json", o.seed)));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let set = Json::Obj(vec![("runs".into(), Json::Arr(runs))]);
    std::fs::write(&path, format!("{set}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_sets(a: &Args) -> Result<ExitCode, String> {
    let [_, pa, pb] = a.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let bench = a
        .bench
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let (report, ok) = compare::compare(
        &read_json(pa.as_ref())?,
        &read_json(pb.as_ref())?,
        &read_json(&bench)?,
    )?;
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|a| match a.positional.first().map(String::as_str) {
        None if a.workload.is_some() => one(&a),
        Some("run") if a.positional.len() == 1 => run(&a),
        Some("compare") => compare_sets(&a),
        _ => Err(USAGE.to_string()),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("seqbench: {e}");
            ExitCode::from(2)
        }
    }
}
