//! Dependency-free argument parsing.
//!
//! Flags are `--name value` pairs (plus boolean `--label-last` /
//! `--no-header`); the first positional token selects the subcommand.
//! Hand-rolled rather than pulling a parser crate: the grammar is tiny and
//! the workspace keeps its dependency set minimal (DESIGN.md §5).

use seqdrift_core::GuardPolicy;
use std::path::PathBuf;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Calibrate a pipeline from labelled CSV and checkpoint it.
    Train(TrainArgs),
    /// Stream unlabelled CSV through a checkpoint.
    Run(RunArgs),
    /// Describe a checkpoint.
    Info(InfoArgs),
    /// Export a synthetic dataset to CSV.
    Synth(SynthArgs),
    /// Replay one CSV across many simulated devices through a fleet engine.
    Fleet(FleetArgs),
    /// Serve a fleet over TCP (the `SQNP` network ingest protocol).
    Serve(ServeArgs),
    /// Multi-threaded load generator replaying a CSV against a server.
    Load(LoadArgs),
}

/// Arguments of `seqdrift train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Labelled training CSV.
    pub csv: PathBuf,
    /// Checkpoint output path.
    pub out: PathBuf,
    /// Whether the final CSV column is the class label.
    pub label_last: bool,
    /// Whether the CSV has a header row.
    pub has_header: bool,
    /// OS-ELM hidden width.
    pub hidden: usize,
    /// Detection window size `W`.
    pub window: usize,
    /// Weight seed.
    pub seed: u64,
    /// Input-guard policy baked into the checkpoint (`reject` | `clamp` |
    /// `impute`); omit for the default (`reject`).
    pub guard_policy: Option<GuardPolicy>,
    /// Stuck-sensor run threshold baked into the checkpoint (0 disables).
    pub stuck_threshold: Option<u64>,
}

/// Arguments of `seqdrift run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Stream CSV (features only, unless `label_last` strips a trailing
    /// label column — e.g. when replaying a `synth` export).
    pub csv: PathBuf,
    /// Checkpoint to load.
    pub model: PathBuf,
    /// Where to write the adapted checkpoint (optional).
    pub out: Option<PathBuf>,
    /// Where to write a per-event CSV (optional).
    pub events: Option<PathBuf>,
    /// Whether the CSV has a header row.
    pub has_header: bool,
    /// Strip a trailing label column before streaming (ground truth is
    /// never shown to the detector).
    pub label_last: bool,
    /// Override the checkpoint's guard policy for this run.
    pub guard_policy: Option<GuardPolicy>,
    /// Override the checkpoint's stuck-sensor threshold for this run.
    pub stuck_threshold: Option<u64>,
}

/// Arguments of `seqdrift info`.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoArgs {
    /// Checkpoint to describe.
    pub model: PathBuf,
}

/// Arguments of `seqdrift synth`.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthArgs {
    /// Dataset name: `nslkdd`, `fan-sudden`, `fan-gradual`,
    /// `fan-reoccurring`.
    pub dataset: String,
    /// Output directory (receives `train.csv` and `test.csv`).
    pub out: PathBuf,
    /// Generator seed override.
    pub seed: Option<u64>,
    /// Use the shortened quick-scale stream.
    pub quick: bool,
}

/// Arguments of `seqdrift fleet`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    /// Stream CSV replayed to every simulated device (exactly one of
    /// `--csv` and `--scenario` is required).
    pub csv: Option<PathBuf>,
    /// Declarative `.sqsc` scenario driving per-session streams, session
    /// count, guard, faults, and federation (synthetic or a recorded
    /// bundle manifest).
    pub scenario: Option<PathBuf>,
    /// Checkpoint cloned into every session. Required with `--csv`;
    /// optional with `--scenario` (synthetic scenarios calibrate a
    /// reference from their own training split, recorded bundles carry
    /// the blob they were served from).
    pub model: Option<PathBuf>,
    /// Number of simulated devices (sessions).
    pub sessions: usize,
    /// Worker threads (shards).
    pub workers: usize,
    /// Per-shard ingress queue capacity, in sample rows.
    pub queue: usize,
    /// Stream index at which device 0's injected drift begins (omit for a
    /// clean replay with no injected drift).
    pub drift_at: Option<usize>,
    /// Per-device stagger added to the drift onset (device `d` drifts at
    /// `drift_at + d * drift_step`).
    pub drift_step: usize,
    /// Additive feature shift applied once a device has drifted.
    pub drift_shift: f32,
    /// Whether the CSV has a header row.
    pub has_header: bool,
    /// Strip a trailing label column before streaming.
    pub label_last: bool,
    /// Seed for a deterministic fault-injection plan (panic, NaN burst,
    /// corrupt checkpoint, slow session spread over the sessions); omit
    /// for a fault-free run.
    pub inject_faults: Option<u64>,
    /// Override every session's guard policy for this run.
    pub guard_policy: Option<GuardPolicy>,
    /// Override every session's stuck-sensor threshold for this run.
    pub stuck_threshold: Option<u64>,
    /// Root of the crash-safe durable state store: checkpoints and
    /// quarantine verdicts survive power loss, and `--resume` re-homes
    /// surviving sessions from it.
    pub state_dir: Option<PathBuf>,
    /// Resume surviving sessions from `--state-dir` before replaying
    /// (requires `--state-dir`).
    pub resume: bool,
    /// Enable cooperative cross-session model merging: healthy sessions
    /// whose models diverged from the fleet baseline (a reconstruction
    /// after drift) are merged in closed form and the merged model is
    /// redistributed to every healthy session.
    pub federate: bool,
    /// Fleet-wide processed-sample interval between merge rounds.
    pub federate_interval: u64,
    /// Seed for a deterministic model-poisoning plan: a seeded fraction
    /// of the sessions submit corrupted contributions every merge round
    /// (scaled β, rotated Gram, slow bias ramp, colluding group). Chaos
    /// testing for the Byzantine-robust merge; requires `--federate`.
    pub poison: Option<u64>,
}

/// Arguments of `seqdrift serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Reference checkpoint: sessions HELLOed for the first time are
    /// created from it. Omit to serve only sessions resumed from
    /// `--state-dir` (at least one of the two is required).
    pub model: Option<PathBuf>,
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub listen: String,
    /// Worker threads (shards).
    pub workers: usize,
    /// Per-shard ingress queue capacity, in sample rows.
    pub queue: usize,
    /// Blocking-feed deadline in milliseconds before a BUSY reply.
    pub feed_timeout_ms: u64,
    /// Root of the crash-safe durable state store; a graceful drain
    /// (Ctrl-C) flushes every session's final state here.
    pub state_dir: Option<PathBuf>,
    /// Idle-connection eviction timeout in milliseconds.
    pub idle_timeout_ms: u64,
    /// Write the bound address to this file once listening (atomic
    /// write); lets scripts discover an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Enable cooperative cross-session model merging (requires
    /// `--model`, the fleet's reference checkpoint).
    pub federate: bool,
    /// Fleet-wide processed-sample interval between merge rounds.
    pub federate_interval: u64,
    /// Admission: cap on concurrently open connections (0 = unlimited).
    pub max_conns: usize,
    /// Admission: sustained accepts/sec tolerated per source IP
    /// (0 = unlimited).
    pub accept_rate: f64,
    /// Admission: cap on sample bytes concurrently in flight across all
    /// connections (0 = unlimited).
    pub inflight_cap: u64,
    /// Admission: a connection must complete its first HELLO within this
    /// many milliseconds (0 disables the deadline).
    pub handshake_timeout_ms: u64,
    /// Record live ingest into this directory: every accepted sample row
    /// plus connection events, written at drain as a replayable `.sqsc`
    /// bundle (`seqdrift fleet --scenario <dir>/scenario.sqsc`).
    pub record: Option<PathBuf>,
}

/// Arguments of `seqdrift load`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadArgs {
    /// Stream CSV replayed by every simulated device (exactly one of
    /// `--csv` and `--scenario` is required).
    pub csv: Option<PathBuf>,
    /// Declarative `.sqsc` scenario: each device streams its own
    /// per-session synthesized stream and the bench entry is named after
    /// the scenario. Its `faults chaos SEED` line stands in for
    /// `--chaos --chaos-seed SEED`.
    pub scenario: Option<PathBuf>,
    /// Server address (`host:port`).
    pub addr: String,
    /// Simulated devices, one connection + session each.
    pub sessions: usize,
    /// Rows per SAMPLE frame.
    pub batch: usize,
    /// First session id (devices use `session0 .. session0+sessions`).
    pub session0: u64,
    /// Where to merge machine-readable results (samples/sec, p50/p99).
    pub bench_json: Option<PathBuf>,
    /// After the replay, fetch each session's snapshot over the wire and
    /// check it is bit-identical to a local replay of the same stream
    /// (requires `--model`, the same checkpoint the server serves).
    pub verify: bool,
    /// Reference checkpoint for `--verify`.
    pub model: Option<PathBuf>,
    /// Whether the CSV has a header row.
    pub has_header: bool,
    /// Strip a trailing label column before streaming.
    pub label_last: bool,
    /// Seconds of zero-progress BUSY replies before a device gives up
    /// (`Client::busy_stall_timeout`); omit for the client default.
    pub busy_stall_timeout: Option<u64>,
    /// Route a subset of devices through an in-process fault-injection
    /// proxy (`ChaosProxy`) and report healthy/victim latency separately.
    pub chaos: bool,
    /// Seed for the deterministic chaos fault schedule: the same seed
    /// replays the same faults against the same connections.
    pub chaos_seed: u64,
    /// How many devices are routed through the proxy (the rest connect
    /// directly); omit for half the fleet.
    pub chaos_victims: Option<usize>,
}

/// Parse failures (each carries the message shown to the user).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
seqdrift — lightweight sequential concept-drift detection

USAGE:
  seqdrift train --csv <file> --out <model.sqdm> [--label-last] [--no-header]
                 [--hidden 22] [--window 100] [--seed 42]
                 [--guard-policy reject|clamp|impute] [--stuck-threshold K]
  seqdrift run   --csv <file> --model <model.sqdm> [--out <updated.sqdm>]
                 [--events <events.csv>] [--no-header] [--label-last]
                 [--guard-policy reject|clamp|impute] [--stuck-threshold K]
  seqdrift info  --model <model.sqdm>
  seqdrift synth --dataset <nslkdd|fan-sudden|fan-gradual|fan-reoccurring>
                 --out <dir> [--seed N] [--quick]
  seqdrift fleet (--csv <file> --model <model.sqdm> | --scenario <file.sqsc>)
                 [--model <model.sqdm>] [--sessions 8] [--workers 4]
                 [--queue 256] [--drift-at N] [--drift-step 25]
                 [--drift-shift 0.3] [--inject-faults SEED]
                 [--guard-policy reject|clamp|impute] [--stuck-threshold K]
                 [--state-dir <dir>] [--resume]
                 [--federate] [--federate-interval 2048] [--poison SEED]
                 [--no-header] [--label-last]
                 With --state-dir, both --csv and --scenario runs keep every
                 session's checkpoints and quarantine verdicts on disk: a
                 quarantined session stays quarantined in later runs, and
                 --resume re-homes the surviving sessions, feeding each its
                 stream from the sample its checkpoint holds.
  seqdrift serve [--model <model.sqdm>] [--listen 127.0.0.1:4747] [--workers 4]
                 [--queue 256] [--feed-timeout-ms 10000] [--state-dir <dir>]
                 [--idle-timeout-ms 30000] [--port-file <path>]
                 [--federate] [--federate-interval 2048]
                 [--max-conns 1024] [--accept-rate PER_IP_PER_SEC]
                 [--inflight-cap BYTES] [--handshake-timeout-ms 10000]
                 [--record <dir>]
  seqdrift load  (--csv <file> | --scenario <file.sqsc>) --addr <host:port>
                 [--sessions 4] [--batch 16]
                 [--session0 0] [--bench-json BENCH_ingest.json]
                 [--verify --model <model.sqdm>] [--busy-stall-timeout SECS]
                 [--chaos] [--chaos-seed 42] [--chaos-victims N]
                 [--no-header] [--label-last]
                 With --scenario, a 'faults chaos SEED' line acts as
                 --chaos --chaos-seed SEED (half the devices are victims).
                 --verify compares every device's checkpoint, mid-
                 reconstruction or not, with a local replay.
";

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Collects `--flag value` pairs and boolean flags from `argv`.
struct Flags {
    pairs: std::collections::HashMap<String, String>,
    bools: std::collections::HashSet<String>,
}

const BOOL_FLAGS: [&str; 7] = [
    "--chaos",
    "--federate",
    "--label-last",
    "--no-header",
    "--quick",
    "--resume",
    "--verify",
];

impl Flags {
    fn parse(argv: &[String]) -> Result<Flags, ParseError> {
        let mut pairs = std::collections::HashMap::new();
        let mut bools = std::collections::HashSet::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if !a.starts_with("--") {
                return Err(err(format!("unexpected positional argument {a:?}")));
            }
            if BOOL_FLAGS.contains(&a.as_str()) {
                bools.insert(a.clone());
                i += 1;
                continue;
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| err(format!("flag {a} needs a value")))?;
            if pairs.insert(a.clone(), value.clone()).is_some() {
                return Err(err(format!("flag {a} given twice")));
            }
            i += 2;
        }
        Ok(Flags { pairs, bools })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        self.pairs.remove(name)
    }

    fn required(&mut self, name: &str) -> Result<String, ParseError> {
        self.take(name)
            .ok_or_else(|| err(format!("missing required flag {name}")))
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, ParseError> {
        match self.take(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("flag {name}: cannot parse {v:?}"))),
        }
    }

    /// An optional number; a malformed one reads `NAME: cannot parse "v"`.
    fn maybe_number<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, ParseError> {
        self.take(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| err(format!("{name}: cannot parse {v:?}")))
            })
            .transpose()
    }

    fn boolean(&mut self, name: &str) -> bool {
        self.bools.remove(name)
    }

    fn optional<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, ParseError>
    where
        T::Err: std::fmt::Display,
    {
        match self.take(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|e| err(format!("{name}: {e}"))),
        }
    }

    fn finish(self) -> Result<(), ParseError> {
        if let Some(k) = self.pairs.keys().next() {
            return Err(err(format!("unknown flag {k}")));
        }
        if let Some(k) = self.bools.iter().next() {
            return Err(err(format!("flag {k} not valid for this command")));
        }
        Ok(())
    }
}

impl Cli {
    /// Parses a full argv (excluding the binary name).
    pub fn parse(argv: &[String]) -> Result<Cli, ParseError> {
        let (cmd, rest) = argv
            .split_first()
            .ok_or_else(|| err(format!("no command given\n\n{USAGE}")))?;
        let mut flags = Flags::parse(rest)?;
        let command = match cmd.as_str() {
            "train" => {
                let a = TrainArgs {
                    csv: flags.required("--csv")?.into(),
                    out: flags.required("--out")?.into(),
                    label_last: flags.boolean("--label-last"),
                    has_header: !flags.boolean("--no-header"),
                    hidden: flags.number("--hidden", 22usize)?,
                    window: flags.number("--window", 100usize)?,
                    seed: flags.number("--seed", 42u64)?,
                    guard_policy: flags.optional("--guard-policy")?,
                    stuck_threshold: flags.optional("--stuck-threshold")?,
                };
                if a.hidden == 0 || a.window == 0 {
                    return Err(err("--hidden and --window must be positive"));
                }
                Command::Train(a)
            }
            "run" => Command::Run(RunArgs {
                csv: flags.required("--csv")?.into(),
                model: flags.required("--model")?.into(),
                out: flags.take("--out").map(Into::into),
                events: flags.take("--events").map(Into::into),
                has_header: !flags.boolean("--no-header"),
                label_last: flags.boolean("--label-last"),
                guard_policy: flags.optional("--guard-policy")?,
                stuck_threshold: flags.optional("--stuck-threshold")?,
            }),
            "fleet" => {
                let a = FleetArgs {
                    csv: flags.take("--csv").map(Into::into),
                    scenario: flags.take("--scenario").map(Into::into),
                    model: flags.take("--model").map(Into::into),
                    sessions: flags.number("--sessions", 8usize)?,
                    workers: flags.number("--workers", 4usize)?,
                    queue: flags.number("--queue", 256usize)?,
                    drift_at: flags.maybe_number("--drift-at")?,
                    drift_step: flags.number("--drift-step", 25usize)?,
                    drift_shift: flags.number("--drift-shift", 0.3f32)?,
                    has_header: !flags.boolean("--no-header"),
                    label_last: flags.boolean("--label-last"),
                    inject_faults: flags.maybe_number("--inject-faults")?,
                    guard_policy: flags.optional("--guard-policy")?,
                    stuck_threshold: flags.optional("--stuck-threshold")?,
                    state_dir: flags.take("--state-dir").map(Into::into),
                    resume: flags.boolean("--resume"),
                    federate: flags.boolean("--federate"),
                    federate_interval: flags.number("--federate-interval", 2048u64)?,
                    poison: flags.maybe_number("--poison")?,
                };
                if a.sessions == 0 || a.workers == 0 || a.queue == 0 {
                    return Err(err("--sessions, --workers and --queue must be positive"));
                }
                match (&a.csv, &a.scenario) {
                    (None, None) => return Err(err("fleet needs --csv or --scenario")),
                    (Some(_), Some(_)) => {
                        return Err(err("--csv and --scenario are mutually exclusive"));
                    }
                    (Some(_), None) if a.model.is_none() => {
                        return Err(err("--csv requires --model (the session checkpoint)"));
                    }
                    _ => {}
                }
                if a.scenario.is_some() && a.drift_at.is_some() {
                    return Err(err(
                        "--drift-at conflicts with --scenario (the scenario owns the drift plan)",
                    ));
                }
                if a.scenario.is_some() && a.inject_faults.is_some() {
                    return Err(err(
                        "--inject-faults conflicts with --scenario (use a 'faults fleet SEED' line)",
                    ));
                }
                if a.resume && a.state_dir.is_none() {
                    return Err(err("--resume requires --state-dir"));
                }
                if a.federate_interval == 0 {
                    return Err(err("--federate-interval must be positive"));
                }
                if a.poison.is_some() && !a.federate {
                    return Err(err("--poison requires --federate"));
                }
                Command::Fleet(a)
            }
            "serve" => {
                let a = ServeArgs {
                    model: flags.take("--model").map(Into::into),
                    listen: flags
                        .take("--listen")
                        .unwrap_or_else(|| "127.0.0.1:4747".to_string()),
                    workers: flags.number("--workers", 4usize)?,
                    queue: flags.number("--queue", 256usize)?,
                    feed_timeout_ms: flags.number("--feed-timeout-ms", 10_000u64)?,
                    state_dir: flags.take("--state-dir").map(Into::into),
                    idle_timeout_ms: flags.number("--idle-timeout-ms", 30_000u64)?,
                    port_file: flags.take("--port-file").map(Into::into),
                    federate: flags.boolean("--federate"),
                    federate_interval: flags.number("--federate-interval", 2048u64)?,
                    max_conns: flags.number("--max-conns", 1024usize)?,
                    accept_rate: flags.number("--accept-rate", 0.0f64)?,
                    inflight_cap: flags.number("--inflight-cap", 256u64 << 20)?,
                    handshake_timeout_ms: flags.number("--handshake-timeout-ms", 10_000u64)?,
                    record: flags.take("--record").map(Into::into),
                };
                if a.workers == 0 || a.queue == 0 {
                    return Err(err("--workers and --queue must be positive"));
                }
                if a.accept_rate < 0.0 || !a.accept_rate.is_finite() {
                    return Err(err("--accept-rate must be a finite non-negative number"));
                }
                if a.model.is_none() && a.state_dir.is_none() {
                    return Err(err("serve needs --model and/or --state-dir"));
                }
                if a.federate && a.model.is_none() {
                    return Err(err("--federate requires --model (the fleet reference)"));
                }
                if a.federate_interval == 0 {
                    return Err(err("--federate-interval must be positive"));
                }
                Command::Serve(a)
            }
            "load" => {
                let a = LoadArgs {
                    csv: flags.take("--csv").map(Into::into),
                    scenario: flags.take("--scenario").map(Into::into),
                    addr: flags.required("--addr")?,
                    sessions: flags.number("--sessions", 4usize)?,
                    batch: flags.number("--batch", 16usize)?,
                    session0: flags.number("--session0", 0u64)?,
                    bench_json: flags.take("--bench-json").map(Into::into),
                    verify: flags.boolean("--verify"),
                    model: flags.take("--model").map(Into::into),
                    has_header: !flags.boolean("--no-header"),
                    label_last: flags.boolean("--label-last"),
                    busy_stall_timeout: flags.optional("--busy-stall-timeout")?,
                    chaos: flags.boolean("--chaos"),
                    chaos_seed: flags.number("--chaos-seed", 42u64)?,
                    chaos_victims: flags.optional("--chaos-victims")?,
                };
                if a.sessions == 0 || a.batch == 0 {
                    return Err(err("--sessions and --batch must be positive"));
                }
                match (&a.csv, &a.scenario) {
                    (None, None) => return Err(err("load needs --csv or --scenario")),
                    (Some(_), Some(_)) => {
                        return Err(err("--csv and --scenario are mutually exclusive"));
                    }
                    _ => {}
                }
                if a.scenario.is_some() && a.chaos {
                    return Err(err(
                        "--chaos conflicts with --scenario (use a 'faults chaos SEED' line)",
                    ));
                }
                if a.verify && a.model.is_none() {
                    return Err(err("--verify requires --model"));
                }
                if a.busy_stall_timeout == Some(0) {
                    return Err(err("--busy-stall-timeout must be positive"));
                }
                if !a.chaos && a.chaos_victims.is_some() {
                    return Err(err("--chaos-victims requires --chaos"));
                }
                if a.chaos_victims.is_some_and(|v| v == 0 || v > a.sessions) {
                    return Err(err("--chaos-victims must be in 1..=sessions"));
                }
                Command::Load(a)
            }
            "info" => Command::Info(InfoArgs {
                model: flags.required("--model")?.into(),
            }),
            "synth" => Command::Synth(SynthArgs {
                dataset: flags.required("--dataset")?,
                out: flags.required("--out")?.into(),
                seed: flags.maybe_number("--seed")?,
                quick: flags.boolean("--quick"),
            }),
            "--help" | "-h" | "help" => return Err(err(USAGE)),
            other => return Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
        };
        flags.finish()?;
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_train_with_defaults() {
        let cli = Cli::parse(&argv("train --csv a.csv --out m.sqdm --label-last")).unwrap();
        match cli.command {
            Command::Train(a) => {
                assert_eq!(a.csv, PathBuf::from("a.csv"));
                assert!(a.label_last);
                assert!(a.has_header);
                assert_eq!(a.hidden, 22);
                assert_eq!(a.window, 100);
                assert_eq!(a.seed, 42);
                assert_eq!(a.guard_policy, None);
                assert_eq!(a.stuck_threshold, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_train_overrides() {
        let cli = Cli::parse(&argv(
            "train --csv a.csv --out m.sqdm --hidden 8 --window 25 --seed 7 --no-header \
             --guard-policy clamp --stuck-threshold 5",
        ))
        .unwrap();
        match cli.command {
            Command::Train(a) => {
                assert_eq!((a.hidden, a.window, a.seed), (8, 25, 7));
                assert!(!a.has_header);
                assert!(!a.label_last);
                assert_eq!(a.guard_policy, Some(GuardPolicy::Clamp));
                assert_eq!(a.stuck_threshold, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_run_and_optionals() {
        let cli = Cli::parse(&argv("run --csv s.csv --model m.sqdm")).unwrap();
        match cli.command {
            Command::Run(a) => {
                assert_eq!(a.out, None);
                assert_eq!(a.events, None);
                assert!(!a.label_last);
            }
            other => panic!("{other:?}"),
        }
        let cli = Cli::parse(&argv(
            "run --csv s.csv --model m.sqdm --out u.sqdm --events e.csv \
             --guard-policy impute --stuck-threshold 3",
        ))
        .unwrap();
        match cli.command {
            Command::Run(a) => {
                assert_eq!(a.out, Some(PathBuf::from("u.sqdm")));
                assert_eq!(a.events, Some(PathBuf::from("e.csv")));
                assert_eq!(a.guard_policy, Some(GuardPolicy::ImputeLast));
                assert_eq!(a.stuck_threshold, Some(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Cli::parse(&argv("")).is_err());
        assert!(Cli::parse(&argv("frobnicate")).is_err());
        assert!(Cli::parse(&argv("train --csv a.csv")).is_err()); // missing --out
        assert!(Cli::parse(&argv("train --csv a.csv --out m --hidden zero")).is_err());
        assert!(Cli::parse(&argv("train --csv a.csv --out m --unknown x")).is_err());
        assert!(Cli::parse(&argv("info --model m --quick")).is_err()); // bool not valid here
        assert!(Cli::parse(&argv("train --csv a.csv --csv b.csv --out m")).is_err());
        assert!(Cli::parse(&argv("train --csv")).is_err()); // dangling flag
        assert!(Cli::parse(&argv("train stray --csv a.csv --out m")).is_err());
        let e = Cli::parse(&argv("run --csv s --model m --guard-policy drop")).unwrap_err();
        assert!(e.0.contains("reject, clamp, impute"), "{e}");
        assert!(Cli::parse(&argv("run --csv s --model m --stuck-threshold -1")).is_err());
    }

    #[test]
    fn help_is_an_error_carrying_usage() {
        let e = Cli::parse(&argv("--help")).unwrap_err();
        assert!(e.0.contains("USAGE"));
    }

    #[test]
    fn parses_fleet() {
        let cli = Cli::parse(&argv("fleet --csv s.csv --model m.sqdm")).unwrap();
        match cli.command {
            Command::Fleet(a) => {
                assert_eq!(a.csv, Some(PathBuf::from("s.csv")));
                assert_eq!(a.scenario, None);
                assert_eq!(a.model, Some(PathBuf::from("m.sqdm")));
                assert_eq!((a.sessions, a.workers, a.queue), (8, 4, 256));
                assert_eq!(a.drift_at, None);
                assert_eq!(a.drift_step, 25);
                assert!(a.has_header);
                assert_eq!(a.inject_faults, None);
                assert_eq!(a.guard_policy, None);
                assert_eq!(a.stuck_threshold, None);
                assert_eq!(a.state_dir, None);
                assert!(!a.resume);
                assert!(!a.federate);
                assert_eq!(a.federate_interval, 2048);
            }
            other => panic!("{other:?}"),
        }
        let cli = Cli::parse(&argv(
            "fleet --csv s.csv --model m.sqdm --sessions 32 --workers 2 --queue 16 \
             --drift-at 100 --drift-step 10 --drift-shift 0.5 --inject-faults 99 --no-header \
             --guard-policy reject --stuck-threshold 8 --state-dir state --resume",
        ))
        .unwrap();
        match cli.command {
            Command::Fleet(a) => {
                assert_eq!((a.sessions, a.workers, a.queue), (32, 2, 16));
                assert_eq!(a.drift_at, Some(100));
                assert_eq!((a.drift_step, a.drift_shift), (10, 0.5));
                assert!(!a.has_header);
                assert_eq!(a.inject_faults, Some(99));
                assert_eq!(a.guard_policy, Some(GuardPolicy::Reject));
                assert_eq!(a.stuck_threshold, Some(8));
                assert_eq!(a.state_dir, Some(PathBuf::from("state")));
                assert!(a.resume);
            }
            other => panic!("{other:?}"),
        }
        assert!(Cli::parse(&argv("fleet --csv s.csv --model m --workers 0")).is_err());
        assert!(Cli::parse(&argv("fleet --csv s.csv --model m --inject-faults x")).is_err());
        // --resume without --state-dir is meaningless.
        assert!(Cli::parse(&argv("fleet --csv s.csv --model m --resume")).is_err());
    }

    #[test]
    fn parses_federation_flags() {
        let cli = Cli::parse(&argv(
            "fleet --csv s.csv --model m.sqdm --federate --federate-interval 64",
        ))
        .unwrap();
        match cli.command {
            Command::Fleet(a) => {
                assert!(a.federate);
                assert_eq!(a.federate_interval, 64);
                assert_eq!(a.poison, None);
            }
            other => panic!("{other:?}"),
        }
        let cli = Cli::parse(&argv(
            "fleet --csv s.csv --model m.sqdm --federate --poison 7",
        ))
        .unwrap();
        match cli.command {
            Command::Fleet(a) => {
                assert_eq!(a.poison, Some(7));
            }
            other => panic!("{other:?}"),
        }
        // Poisoning corrupts merge contributions; without merging there
        // is nothing to poison.
        assert!(Cli::parse(&argv("fleet --csv s --model m --poison 7")).is_err());
        assert!(Cli::parse(&argv("fleet --csv s --model m --federate --poison x")).is_err());
        let cli = Cli::parse(&argv("serve --model m.sqdm --federate")).unwrap();
        match cli.command {
            Command::Serve(a) => {
                assert!(a.federate);
                assert_eq!(a.federate_interval, 2048);
            }
            other => panic!("{other:?}"),
        }
        // Federation needs the reference checkpoint to decode merged
        // generations from; state-dir-only serving cannot enable it.
        assert!(Cli::parse(&argv("serve --state-dir s --federate")).is_err());
        assert!(Cli::parse(&argv("fleet --csv s --model m --federate-interval 0")).is_err());
    }

    #[test]
    fn parses_serve() {
        let cli = Cli::parse(&argv("serve --model m.sqdm")).unwrap();
        match cli.command {
            Command::Serve(a) => {
                assert_eq!(a.model, Some(PathBuf::from("m.sqdm")));
                assert_eq!(a.listen, "127.0.0.1:4747");
                assert_eq!((a.workers, a.queue), (4, 256));
                assert_eq!(a.feed_timeout_ms, 10_000);
                assert_eq!(a.idle_timeout_ms, 30_000);
                assert_eq!(a.state_dir, None);
                assert_eq!(a.port_file, None);
                assert_eq!(a.max_conns, 1024);
                assert_eq!(a.accept_rate, 0.0);
                assert_eq!(a.inflight_cap, 256 << 20);
                assert_eq!(a.handshake_timeout_ms, 10_000);
            }
            other => panic!("{other:?}"),
        }
        let cli = Cli::parse(&argv(
            "serve --state-dir state --listen 0.0.0.0:0 --workers 2 --queue 8 \
             --feed-timeout-ms 50 --idle-timeout-ms 500 --port-file p.txt \
             --max-conns 3 --accept-rate 2.5 --inflight-cap 65536 \
             --handshake-timeout-ms 250",
        ))
        .unwrap();
        match cli.command {
            Command::Serve(a) => {
                assert_eq!(a.model, None);
                assert_eq!(a.state_dir, Some(PathBuf::from("state")));
                assert_eq!(a.listen, "0.0.0.0:0");
                assert_eq!((a.workers, a.queue), (2, 8));
                assert_eq!((a.feed_timeout_ms, a.idle_timeout_ms), (50, 500));
                assert_eq!(a.port_file, Some(PathBuf::from("p.txt")));
                assert_eq!(a.max_conns, 3);
                assert_eq!(a.accept_rate, 2.5);
                assert_eq!(a.inflight_cap, 65_536);
                assert_eq!(a.handshake_timeout_ms, 250);
            }
            other => panic!("{other:?}"),
        }
        // Neither a reference checkpoint nor resumable state: nothing to serve.
        assert!(Cli::parse(&argv("serve")).is_err());
        assert!(Cli::parse(&argv("serve --model m --workers 0")).is_err());
        assert!(Cli::parse(&argv("serve --model m --accept-rate -1")).is_err());
        assert!(Cli::parse(&argv("serve --model m --accept-rate nan")).is_err());
    }

    #[test]
    fn parses_load() {
        let cli = Cli::parse(&argv("load --csv s.csv --addr 127.0.0.1:4747")).unwrap();
        match cli.command {
            Command::Load(a) => {
                assert_eq!(a.csv, Some(PathBuf::from("s.csv")));
                assert_eq!(a.scenario, None);
                assert_eq!(a.addr, "127.0.0.1:4747");
                assert_eq!((a.sessions, a.batch, a.session0), (4, 16, 0));
                assert!(!a.verify);
                assert_eq!(a.bench_json, None);
                assert!(a.has_header);
                assert_eq!(a.busy_stall_timeout, None);
                assert!(!a.chaos);
                assert_eq!(a.chaos_seed, 42);
                assert_eq!(a.chaos_victims, None);
            }
            other => panic!("{other:?}"),
        }
        let cli = Cli::parse(&argv(
            "load --csv s.csv --addr h:1 --sessions 8 --batch 4 --session0 100 \
             --bench-json B.json --verify --model m.sqdm --no-header --label-last \
             --busy-stall-timeout 5",
        ))
        .unwrap();
        match cli.command {
            Command::Load(a) => {
                assert_eq!((a.sessions, a.batch, a.session0), (8, 4, 100));
                assert_eq!(a.bench_json, Some(PathBuf::from("B.json")));
                assert!(a.verify && a.label_last && !a.has_header);
                assert_eq!(a.model, Some(PathBuf::from("m.sqdm")));
                assert_eq!(a.busy_stall_timeout, Some(5));
            }
            other => panic!("{other:?}"),
        }
        assert!(Cli::parse(&argv("load --csv s.csv")).is_err()); // missing --addr
        assert!(Cli::parse(&argv("load --csv s --addr h:1 --verify")).is_err());
        assert!(Cli::parse(&argv("load --csv s --addr h:1 --batch 0")).is_err());
        assert!(Cli::parse(&argv("load --csv s --addr h:1 --busy-stall-timeout 0")).is_err());
        assert!(Cli::parse(&argv("load --csv s --addr h:1 --busy-stall-timeout x")).is_err());
    }

    #[test]
    fn parses_scenario_flags() {
        let cli = Cli::parse(&argv("fleet --scenario drill.sqsc")).unwrap();
        match cli.command {
            Command::Fleet(a) => {
                assert_eq!(a.scenario, Some(PathBuf::from("drill.sqsc")));
                assert_eq!(a.csv, None);
                assert_eq!(a.model, None);
            }
            other => panic!("{other:?}"),
        }
        let cli = Cli::parse(&argv("load --scenario drill.sqsc --addr h:1")).unwrap();
        match cli.command {
            Command::Load(a) => {
                assert_eq!(a.scenario, Some(PathBuf::from("drill.sqsc")));
                assert_eq!(a.csv, None);
            }
            other => panic!("{other:?}"),
        }
        let cli = Cli::parse(&argv("serve --model m.sqdm --record out/dir")).unwrap();
        match cli.command {
            Command::Serve(a) => assert_eq!(a.record, Some(PathBuf::from("out/dir"))),
            other => panic!("{other:?}"),
        }
        // Exactly one stream source; the scenario owns drift/fault plans.
        assert!(Cli::parse(&argv("fleet")).is_err());
        assert!(Cli::parse(&argv("fleet --csv s.csv")).is_err()); // csv needs --model
        assert!(Cli::parse(&argv("fleet --csv s.csv --model m --scenario d.sqsc")).is_err());
        assert!(Cli::parse(&argv("fleet --scenario d.sqsc --drift-at 5")).is_err());
        assert!(Cli::parse(&argv("fleet --scenario d.sqsc --inject-faults 1")).is_err());
        assert!(Cli::parse(&argv("load --addr h:1")).is_err());
        assert!(Cli::parse(&argv("load --csv s --scenario d.sqsc --addr h:1")).is_err());
        assert!(Cli::parse(&argv("load --scenario d.sqsc --addr h:1 --chaos")).is_err());
        // Scenario-mode overrides that stay legal: guard and federation.
        assert!(Cli::parse(&argv(
            "fleet --scenario d.sqsc --guard-policy clamp --federate"
        ))
        .is_ok());
    }

    #[test]
    fn parses_chaos_flags() {
        let cli = Cli::parse(&argv(
            "load --csv s.csv --addr h:1 --sessions 8 --chaos --chaos-seed 7 --chaos-victims 3",
        ))
        .unwrap();
        match cli.command {
            Command::Load(a) => {
                assert!(a.chaos);
                assert_eq!(a.chaos_seed, 7);
                assert_eq!(a.chaos_victims, Some(3));
            }
            other => panic!("{other:?}"),
        }
        // Victim count without the mode, or out of range, is rejected.
        assert!(Cli::parse(&argv("load --csv s --addr h:1 --chaos-victims 2")).is_err());
        assert!(Cli::parse(&argv(
            "load --csv s --addr h:1 --sessions 2 --chaos --chaos-victims 3"
        ))
        .is_err());
        assert!(Cli::parse(&argv("load --csv s --addr h:1 --chaos --chaos-victims 0")).is_err());
    }

    #[test]
    fn parses_synth() {
        let cli = Cli::parse(&argv(
            "synth --dataset fan-sudden --out data --seed 9 --quick",
        ))
        .unwrap();
        match cli.command {
            Command::Synth(a) => {
                assert_eq!(a.dataset, "fan-sudden");
                assert_eq!(a.seed, Some(9));
                assert!(a.quick);
            }
            other => panic!("{other:?}"),
        }
    }
}
