//! Hand-rolled line-oriented parser for `.sqsc` scenario text.
//!
//! Grammar (one directive per line; `#` starts a comment; blank lines are
//! ignored):
//!
//! ```text
//! sqsc 1                                   # version header, must be first
//! name <token>
//! kind synthetic | recorded
//! # synthetic:
//! seed <u64>        sessions <n>   dim <n>   classes <n>
//! train <n>         samples <n>    noise <float>
//! drift <kind> start <n> [end <n>] magnitude <float>
//! stagger <n>       traffic hot <n> idle <n>
//! guard <mode> [stuck <n>]
//! faults <fleet|chaos|poison> <u64>
//! federate <n>
//! # recorded:
//! dim <n>   reference <file>   log <file>
//! session <id> rows <n> file <file>
//! ```
//!
//! Every error carries the 1-based line number of the offending line;
//! truncated input (missing required keys) reports the last meaningful line.

use seqdrift_linalg::Real;

use crate::model::*;
use crate::{Result, ScenarioError};

fn err(line: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse {
        line,
        msg: msg.into(),
    }
}

/// One `key` slot: remembers the line it was set on so duplicates and
/// semantic errors can point at it.
struct Slot<T> {
    value: Option<(usize, T)>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot { value: None }
    }
}

impl<T> Slot<T> {
    fn set(&mut self, line: usize, key: &str, v: T) -> Result<()> {
        if let Some((prev, _)) = &self.value {
            return Err(err(
                line,
                format!("duplicate key '{key}' (first on line {prev})"),
            ));
        }
        self.value = Some((line, v));
        Ok(())
    }

    fn get(&self) -> Option<&T> {
        self.value.as_ref().map(|(_, v)| v)
    }

    fn line(&self) -> Option<usize> {
        self.value.as_ref().map(|(l, _)| *l)
    }

    fn require(&self, last_line: usize, key: &str) -> Result<&T> {
        self.get().ok_or_else(|| {
            err(
                last_line,
                format!("truncated scenario: missing required key '{key}'"),
            )
        })
    }
}

struct Tokens<'a> {
    line: usize,
    toks: std::slice::Iter<'a, &'a str>,
}

impl<'a> Tokens<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str> {
        self.toks
            .next()
            .copied()
            .ok_or_else(|| err(self.line, format!("expected {what}, found end of line")))
    }

    fn usize(&mut self, what: &str) -> Result<usize> {
        let t = self.next(what)?;
        t.parse().map_err(|_| {
            err(
                self.line,
                format!("{what}: '{t}' is not a non-negative integer"),
            )
        })
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let t = self.next(what)?;
        t.parse().map_err(|_| {
            err(
                self.line,
                format!("{what}: '{t}' is not a non-negative integer"),
            )
        })
    }

    fn real(&mut self, what: &str) -> Result<Real> {
        let t = self.next(what)?;
        let v: Real = t
            .parse()
            .map_err(|_| err(self.line, format!("{what}: '{t}' is not a number")))?;
        if !v.is_finite() {
            return Err(err(self.line, format!("{what}: '{t}' must be finite")));
        }
        Ok(v)
    }

    fn keyword(&mut self, what: &str, expected: &str) -> Result<()> {
        let t = self.next(what)?;
        if t != expected {
            return Err(err(
                self.line,
                format!("expected '{expected}', found '{t}'"),
            ));
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        if let Some(t) = self.toks.next() {
            return Err(err(self.line, format!("unexpected trailing token '{t}'")));
        }
        Ok(())
    }
}

/// Parses scenario text into a [`Scenario`].
pub fn parse(text: &str) -> Result<Scenario> {
    // Lex: strip comments/blanks, keep (line_no, tokens).
    let mut lines: Vec<(usize, Vec<&str>)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let meat = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let toks: Vec<&str> = meat.split_whitespace().collect();
        if !toks.is_empty() {
            lines.push((i + 1, toks));
        }
    }
    let last_line = lines.last().map(|(l, _)| *l).unwrap_or(1);

    let mut it = lines.iter();

    // Version header.
    let (vline, vtoks) = it
        .next()
        .ok_or_else(|| err(1, "empty scenario: missing 'sqsc' version header"))?;
    {
        let mut t = Tokens {
            line: *vline,
            toks: vtoks.iter(),
        };
        let magic = t.next("'sqsc' header")?;
        if magic != "sqsc" {
            return Err(err(
                *vline,
                format!("expected 'sqsc' version header, found '{magic}'"),
            ));
        }
        let version: u32 = {
            let tok = t.next("format version")?;
            tok.parse()
                .map_err(|_| err(*vline, format!("format version: '{tok}' is not an integer")))?
        };
        if version != FORMAT_VERSION {
            return Err(err(
                *vline,
                format!("unsupported format version {version} (this build reads version {FORMAT_VERSION})"),
            ));
        }
        t.finish()?;
    }

    // Accumulators.
    let mut name: Slot<String> = Slot::default();
    let mut kind: Slot<String> = Slot::default();
    let mut seed: Slot<u64> = Slot::default();
    let mut sessions: Slot<usize> = Slot::default();
    let mut dim: Slot<usize> = Slot::default();
    let mut classes: Slot<usize> = Slot::default();
    let mut train: Slot<usize> = Slot::default();
    let mut samples: Slot<usize> = Slot::default();
    let mut noise: Slot<Real> = Slot::default();
    let mut drift: Slot<DriftSpec> = Slot::default();
    let mut stagger: Slot<usize> = Slot::default();
    let mut traffic: Slot<TrafficSpec> = Slot::default();
    let mut guard: Slot<GuardSpec> = Slot::default();
    let mut federate: Slot<u64> = Slot::default();
    let mut reference: Slot<String> = Slot::default();
    let mut log: Slot<String> = Slot::default();
    let mut fault_fleet: Slot<u64> = Slot::default();
    let mut fault_chaos: Slot<u64> = Slot::default();
    let mut fault_poison: Slot<u64> = Slot::default();
    let mut rec_sessions: Vec<(usize, RecordedSession)> = Vec::new();

    for (line, toks) in it {
        let line = *line;
        let mut t = Tokens {
            line,
            toks: toks.iter(),
        };
        let key = t.next("directive")?;
        match key {
            "sqsc" => return Err(err(line, "duplicate 'sqsc' version header")),
            "name" => name.set(line, key, t.next("scenario name")?.to_string())?,
            "kind" => {
                let k = t.next("'synthetic' or 'recorded'")?;
                if k != "synthetic" && k != "recorded" {
                    return Err(err(
                        line,
                        format!("kind must be 'synthetic' or 'recorded', found '{k}'"),
                    ));
                }
                kind.set(line, key, k.to_string())?;
            }
            "seed" => seed.set(line, key, t.u64("seed")?)?,
            "sessions" => sessions.set(line, key, t.usize("sessions")?)?,
            "dim" => dim.set(line, key, t.usize("dim")?)?,
            "classes" => classes.set(line, key, t.usize("classes")?)?,
            "train" => train.set(line, key, t.usize("train")?)?,
            "samples" => samples.set(line, key, t.usize("samples")?)?,
            "noise" => noise.set(line, key, t.real("noise")?)?,
            "drift" => {
                let kw = t.next("drift kind")?;
                let dk = DriftKind::from_keyword(kw).ok_or_else(|| {
                    err(
                        line,
                        format!(
                            "unknown drift kind '{kw}' (sudden, gradual, incremental, reoccurring)"
                        ),
                    )
                })?;
                t.keyword("'start'", "start")?;
                let start = t.usize("drift start")?;
                let end = if dk == DriftKind::Sudden {
                    start
                } else {
                    t.keyword("'end'", "end")?;
                    let end = t.usize("drift end")?;
                    if end <= start {
                        return Err(err(
                            line,
                            format!("drift end {end} must be greater than start {start}"),
                        ));
                    }
                    end
                };
                t.keyword("'magnitude'", "magnitude")?;
                let magnitude = t.real("drift magnitude")?;
                drift.set(
                    line,
                    key,
                    DriftSpec {
                        kind: dk,
                        start,
                        end,
                        magnitude,
                    },
                )?;
            }
            "stagger" => stagger.set(line, key, t.usize("stagger")?)?,
            "traffic" => {
                t.keyword("'hot'", "hot")?;
                let hot = t.usize("hot session count")?;
                t.keyword("'idle'", "idle")?;
                let idle = t.usize("idle sample count")?;
                traffic.set(line, key, TrafficSpec { hot, idle })?;
            }
            "guard" => {
                let kw = t.next("guard mode")?;
                let mode = GuardMode::from_keyword(kw).ok_or_else(|| {
                    err(
                        line,
                        format!("unknown guard mode '{kw}' (reject, clamp, impute)"),
                    )
                })?;
                let stuck = if t.toks.clone().next().is_some() {
                    t.keyword("'stuck'", "stuck")?;
                    Some(t.usize("stuck limit")?)
                } else {
                    None
                };
                guard.set(line, key, GuardSpec { mode, stuck })?;
            }
            "faults" => {
                let family = t.next("fault family")?;
                let fseed = t.u64("fault seed")?;
                let slot = match family {
                    "fleet" => &mut fault_fleet,
                    "chaos" => &mut fault_chaos,
                    "poison" => &mut fault_poison,
                    other => {
                        return Err(err(
                            line,
                            format!("unknown fault family '{other}' (fleet, chaos, poison)"),
                        ))
                    }
                };
                slot.set(line, &format!("faults {family}"), fseed)?;
            }
            "federate" => federate.set(line, key, t.u64("federate interval")?)?,
            "reference" => reference.set(line, key, t.next("reference file")?.to_string())?,
            "log" => log.set(line, key, t.next("log file")?.to_string())?,
            "session" => {
                let id = t.u64("session id")?;
                t.keyword("'rows'", "rows")?;
                let rows = t.usize("row count")?;
                t.keyword("'file'", "file")?;
                let file = t.next("row file")?.to_string();
                if rec_sessions.iter().any(|(_, s)| s.id == id) {
                    return Err(err(line, format!("duplicate session id {id}")));
                }
                rec_sessions.push((line, RecordedSession { id, rows, file }));
            }
            other => return Err(err(line, format!("unknown directive '{other}'"))),
        }
        t.finish()?;
    }

    // Assemble.
    let name_v = name.require(last_line, "name")?.clone();
    let kind_v = kind.require(last_line, "kind")?.clone();

    let forbid = |slot_line: Option<usize>, key: &str, kind: &str| -> Result<()> {
        match slot_line {
            Some(l) => Err(err(
                l,
                format!("key '{key}' is not valid in a {kind} scenario"),
            )),
            None => Ok(()),
        }
    };

    if kind_v == "synthetic" {
        forbid(reference.line(), "reference", "synthetic")?;
        forbid(log.line(), "log", "synthetic")?;
        if let Some((l, _)) = rec_sessions.first() {
            return Err(err(
                *l,
                "key 'session' is not valid in a synthetic scenario",
            ));
        }
        let sessions_v = *sessions.require(last_line, "sessions")?;
        let dim_v = *dim.require(last_line, "dim")?;
        let classes_v = *classes.require(last_line, "classes")?;
        let train_v = *train.require(last_line, "train")?;
        let samples_v = *samples.require(last_line, "samples")?;
        let drift_v = drift.require(last_line, "drift")?.clone();
        for (slot_line, key, v) in [
            (sessions.line(), "sessions", sessions_v),
            (dim.line(), "dim", dim_v),
            (classes.line(), "classes", classes_v),
            (train.line(), "train", train_v),
            (samples.line(), "samples", samples_v),
        ] {
            if v == 0 {
                // slot_line is always Some here: the value was required above.
                return Err(err(
                    slot_line.unwrap_or(last_line),
                    format!("{key} must be at least 1"),
                ));
            }
        }
        let noise_v = noise.get().copied().unwrap_or(0.05);
        if noise_v <= 0.0 {
            return Err(err(
                noise.line().unwrap_or(last_line),
                "noise must be positive",
            ));
        }
        let traffic_v = traffic.get().cloned().unwrap_or(TrafficSpec {
            hot: sessions_v,
            idle: 0,
        });
        if traffic_v.hot > sessions_v {
            return Err(err(
                traffic.line().unwrap_or(last_line),
                format!(
                    "traffic hot {} exceeds sessions {sessions_v}",
                    traffic_v.hot
                ),
            ));
        }
        Ok(Scenario {
            name: name_v,
            body: ScenarioBody::Synthetic(SynthSpec {
                seed: *seed.require(last_line, "seed")?,
                sessions: sessions_v,
                dim: dim_v,
                classes: classes_v,
                train: train_v,
                samples: samples_v,
                noise: noise_v,
                drift: drift_v,
                stagger: stagger.get().copied().unwrap_or(0),
                traffic: traffic_v,
                guard: guard.get().cloned(),
                faults: FaultsSpec {
                    fleet: fault_fleet.get().copied(),
                    chaos: fault_chaos.get().copied(),
                    poison: fault_poison.get().copied(),
                },
                federate: federate.get().copied(),
            }),
        })
    } else {
        for (slot_line, key) in [
            (seed.line(), "seed"),
            (sessions.line(), "sessions"),
            (classes.line(), "classes"),
            (train.line(), "train"),
            (samples.line(), "samples"),
            (noise.line(), "noise"),
            (drift.line(), "drift"),
            (stagger.line(), "stagger"),
            (traffic.line(), "traffic"),
            (guard.line(), "guard"),
            (federate.line(), "federate"),
            (fault_fleet.line(), "faults fleet"),
            (fault_chaos.line(), "faults chaos"),
            (fault_poison.line(), "faults poison"),
        ] {
            forbid(slot_line, key, "recorded")?;
        }
        let dim_v = *dim.require(last_line, "dim")?;
        if dim_v == 0 {
            return Err(err(
                dim.line().unwrap_or(last_line),
                "dim must be at least 1",
            ));
        }
        if rec_sessions.is_empty() {
            return Err(err(
                last_line,
                "truncated scenario: recorded scenario needs at least one 'session' line",
            ));
        }
        Ok(Scenario {
            name: name_v,
            body: ScenarioBody::Recorded(RecordedSpec {
                dim: dim_v,
                reference: reference.get().cloned(),
                log: log.get().cloned(),
                sessions: rec_sessions.into_iter().map(|(_, s)| s).collect(),
            }),
        })
    }
}
