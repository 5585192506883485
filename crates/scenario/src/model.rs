//! Scenario data model and canonical serializer.

use seqdrift_linalg::Real;

use crate::{Result, ScenarioError};

/// The only `.sqsc` format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// A parsed scenario: a name plus either a synthetic recipe or a recorded
/// bundle manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name; used for bench-entry attribution and derived dataset
    /// names. Single token (no whitespace).
    pub name: String,
    /// Kind-specific payload.
    pub body: ScenarioBody,
}

/// Synthetic recipe or recorded-bundle manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioBody {
    /// Streams synthesized deterministically from a seed.
    Synthetic(SynthSpec),
    /// Streams replayed from files captured off a live server.
    Recorded(RecordedSpec),
}

/// Deterministic synthesis recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Number of sessions (ids `0..sessions`).
    pub sessions: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of class labels.
    pub classes: usize,
    /// Training samples per class (drawn from the old concepts).
    pub train: usize,
    /// Stream length for each *hot* session.
    pub samples: usize,
    /// Concept noise (per-dimension standard deviation).
    pub noise: Real,
    /// Drift shape, schedule, and magnitude.
    pub drift: DriftSpec,
    /// Per-session onset offset: session `s` drifts `s * stagger` samples
    /// later than session 0.
    pub stagger: usize,
    /// Hot/idle traffic mix.
    pub traffic: TrafficSpec,
    /// Input guard policy the consumer should apply (optional).
    pub guard: Option<GuardSpec>,
    /// Fault-injection seeds (optional per family).
    pub faults: FaultsSpec,
    /// Federation round interval in samples (optional).
    pub federate: Option<u64>,
}

/// Drift shape × schedule × magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSpec {
    /// Drift shape (Figure 1 of the paper).
    pub kind: DriftKind,
    /// First affected sample index (before per-session stagger).
    pub start: usize,
    /// End of the transition (exclusive). Equal to `start` for sudden.
    pub end: usize,
    /// Mean shift applied to every feature dimension of the new concept.
    pub magnitude: Real,
}

/// The four drift shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Instant switch at `start`.
    Sudden,
    /// Probabilistic mixture ramping over `[start, end)`.
    Gradual,
    /// Continuous morph over `[start, end)`.
    Incremental,
    /// New concept only within `[start, end)`, old returns afterwards.
    Reoccurring,
}

impl DriftKind {
    /// Canonical lowercase keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            DriftKind::Sudden => "sudden",
            DriftKind::Gradual => "gradual",
            DriftKind::Incremental => "incremental",
            DriftKind::Reoccurring => "reoccurring",
        }
    }

    /// Parses a keyword.
    pub fn from_keyword(s: &str) -> Option<DriftKind> {
        Some(match s {
            "sudden" => DriftKind::Sudden,
            "gradual" => DriftKind::Gradual,
            "incremental" => DriftKind::Incremental,
            "reoccurring" => DriftKind::Reoccurring,
            _ => return None,
        })
    }
}

/// Hot/idle traffic mix: the first `hot` sessions stream the full
/// `samples`-length stream, the rest stream `idle` samples (possibly zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSpec {
    /// Number of hot sessions (`<= sessions`).
    pub hot: usize,
    /// Stream length for idle sessions.
    pub idle: usize,
}

/// Input guard policy to apply on the consumer side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardSpec {
    /// Guard mode.
    pub mode: GuardMode,
    /// Stuck-sensor run length limit (optional).
    pub stuck: Option<usize>,
}

/// Guard modes mirroring `seqdrift_core::GuardPolicy` without depending on
/// the core crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardMode {
    /// Drop malformed samples.
    Reject,
    /// Clamp out-of-range values.
    Clamp,
    /// Impute the last seen value.
    ImputeLast,
}

impl GuardMode {
    /// Canonical keyword (matches `seqdrift_core::GuardPolicy`'s `FromStr`).
    pub fn keyword(self) -> &'static str {
        match self {
            GuardMode::Reject => "reject",
            GuardMode::Clamp => "clamp",
            GuardMode::ImputeLast => "impute",
        }
    }

    /// Parses a keyword.
    pub fn from_keyword(s: &str) -> Option<GuardMode> {
        Some(match s {
            "reject" => GuardMode::Reject,
            "clamp" => GuardMode::Clamp,
            "impute" => GuardMode::ImputeLast,
            _ => return None,
        })
    }
}

/// Per-family fault-injection seeds. `None` disables the family.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultsSpec {
    /// Fleet fault plan seed (`FaultInjector::from_seed`).
    pub fleet: Option<u64>,
    /// Network chaos proxy seed (`load --scenario`).
    pub chaos: Option<u64>,
    /// Model-poisoning injector seed.
    pub poison: Option<u64>,
}

impl FaultsSpec {
    /// True when no fault family is armed.
    pub fn is_empty(&self) -> bool {
        self.fleet.is_none() && self.chaos.is_none() && self.poison.is_none()
    }
}

/// Manifest of a recorded ingest bundle. File paths are relative to the
/// `.sqsc` file's directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedSpec {
    /// Feature dimensionality of the recorded rows.
    pub dim: usize,
    /// Reference model blob the sessions were created from (optional).
    pub reference: Option<String>,
    /// Ingest event log (informational; not needed for replay).
    pub log: Option<String>,
    /// Per-session row files, in recorded order.
    pub sessions: Vec<RecordedSession>,
}

/// One recorded session: id, row count, and data file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedSession {
    /// Wire session id.
    pub id: u64,
    /// Number of rows in `file`.
    pub rows: usize,
    /// Relative path to the CSV row file.
    pub file: String,
}

impl Scenario {
    /// Reads and parses a scenario file.
    pub fn load(path: &std::path::Path) -> Result<Scenario> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
        Scenario::parse(&text)
    }

    /// Parses scenario text. See [`crate::parse`].
    pub fn parse(text: &str) -> Result<Scenario> {
        crate::parse::parse(text)
    }

    /// Serializes to the canonical form; `parse(render(s)) == s`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("sqsc {FORMAT_VERSION}\n"));
        out.push_str(&format!("name {}\n", self.name));
        match &self.body {
            ScenarioBody::Synthetic(s) => {
                out.push_str("kind synthetic\n");
                out.push_str(&format!("seed {}\n", s.seed));
                out.push_str(&format!("sessions {}\n", s.sessions));
                out.push_str(&format!("dim {}\n", s.dim));
                out.push_str(&format!("classes {}\n", s.classes));
                out.push_str(&format!("train {}\n", s.train));
                out.push_str(&format!("samples {}\n", s.samples));
                out.push_str(&format!("noise {}\n", s.noise));
                match s.drift.kind {
                    DriftKind::Sudden => out.push_str(&format!(
                        "drift sudden start {} magnitude {}\n",
                        s.drift.start, s.drift.magnitude
                    )),
                    k => out.push_str(&format!(
                        "drift {} start {} end {} magnitude {}\n",
                        k.keyword(),
                        s.drift.start,
                        s.drift.end,
                        s.drift.magnitude
                    )),
                }
                if s.stagger != 0 {
                    out.push_str(&format!("stagger {}\n", s.stagger));
                }
                if s.traffic.hot != s.sessions || s.traffic.idle != 0 {
                    out.push_str(&format!(
                        "traffic hot {} idle {}\n",
                        s.traffic.hot, s.traffic.idle
                    ));
                }
                if let Some(g) = &s.guard {
                    out.push_str(&format!("guard {}", g.mode.keyword()));
                    if let Some(k) = g.stuck {
                        out.push_str(&format!(" stuck {k}"));
                    }
                    out.push('\n');
                }
                for (family, seed) in [
                    ("fleet", s.faults.fleet),
                    ("chaos", s.faults.chaos),
                    ("poison", s.faults.poison),
                ] {
                    if let Some(seed) = seed {
                        out.push_str(&format!("faults {family} {seed}\n"));
                    }
                }
                if let Some(interval) = s.federate {
                    out.push_str(&format!("federate {interval}\n"));
                }
            }
            ScenarioBody::Recorded(r) => {
                out.push_str("kind recorded\n");
                out.push_str(&format!("dim {}\n", r.dim));
                if let Some(p) = &r.reference {
                    out.push_str(&format!("reference {p}\n"));
                }
                if let Some(p) = &r.log {
                    out.push_str(&format!("log {p}\n"));
                }
                for sess in &r.sessions {
                    out.push_str(&format!(
                        "session {} rows {} file {}\n",
                        sess.id, sess.rows, sess.file
                    ));
                }
            }
        }
        out
    }

    /// The synthetic spec, or an error for recorded scenarios.
    pub fn synthetic(&self) -> Result<&SynthSpec> {
        match &self.body {
            ScenarioBody::Synthetic(s) => Ok(s),
            ScenarioBody::Recorded(_) => Err(ScenarioError::Invalid(format!(
                "scenario '{}' is recorded, not synthetic",
                self.name
            ))),
        }
    }

    /// The recorded spec, or an error for synthetic scenarios.
    pub fn recorded(&self) -> Result<&RecordedSpec> {
        match &self.body {
            ScenarioBody::Recorded(r) => Ok(r),
            ScenarioBody::Synthetic(_) => Err(ScenarioError::Invalid(format!(
                "scenario '{}' is synthetic, not recorded",
                self.name
            ))),
        }
    }
}
