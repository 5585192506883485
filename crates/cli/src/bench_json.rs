//! Machine-readable benchmark results: a tiny hand-rolled JSON emitter
//! and a restricted parser, so `seqdrift load` can merge its entries into
//! `BENCH_ingest.json` and CI can track the perf trajectory across PRs
//! without any external crates.
//!
//! The schema is deliberately flat:
//!
//! ```json
//! {
//!   "entries": {
//!     "fleet_ingest_w4": { "samples_per_sec": 1234.5, "p50_us": 11.0,
//!                          "p99_us": 42.0, "samples": 6400 }
//!   }
//! }
//! ```
//!
//! [`merge_into_file`] re-reads an existing file so different producers
//! update their own entries without clobbering each other; a file that
//! fails the restricted parse is replaced rather than trusted.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One ingest measurement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestEntry {
    /// Sustained throughput over the measured run.
    pub samples_per_sec: f64,
    /// Median per-batch round-trip latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-batch round-trip latency, microseconds.
    pub p99_us: f64,
    /// Total sample rows measured.
    pub samples: u64,
    /// What the three value fields measure when they are *not* the
    /// default throughput/latency: e.g. the federation delay entries set
    /// `unit: Some("samples")` because they carry adaptation delays in
    /// samples through the same schema. `None` means the canonical
    /// samples/sec + microsecond semantics. Files written before this
    /// field existed parse as `None`, and entries with `None` render
    /// without the field, so old and new files interoperate.
    pub unit: Option<String>,
    /// Name of the `.sqsc` scenario that produced this entry, when the run
    /// was scenario-driven (`seqdrift load --scenario`). `None` for ad-hoc
    /// runs; absent-field files parse as `None`, same as `unit`.
    pub scenario: Option<String>,
}

/// Serialises entries as the canonical `BENCH_ingest.json` document.
/// Keys are emitted in sorted order so diffs are stable.
pub fn render(entries: &BTreeMap<String, IngestEntry>) -> String {
    let mut out = String::from("{\n  \"entries\": {\n");
    let mut first = true;
    for (name, e) in entries {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let unit = match &e.unit {
            Some(u) => format!(", \"unit\": \"{}\"", escape(u)),
            None => String::new(),
        };
        let scenario = match &e.scenario {
            Some(s) => format!(", \"scenario\": \"{}\"", escape(s)),
            None => String::new(),
        };
        out.push_str(&format!(
            "    \"{}\": {{ \"samples_per_sec\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"samples\": {}{}{} }}",
            escape(name),
            e.samples_per_sec,
            e.p50_us,
            e.p99_us,
            e.samples,
            unit,
            scenario
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Merges `new_entries` into the file at `path` (replacing same-named
/// entries, keeping the rest) and rewrites it through
/// [`seqdrift_store::atomic_write`], so a writer killed mid-write leaves
/// the previous document intact rather than a torn one that the next merge
/// would discard. An unreadable or unparseable existing file is discarded
/// and replaced.
pub fn merge_into_file(
    path: &Path,
    new_entries: &[(String, IngestEntry)],
) -> io::Result<BTreeMap<String, IngestEntry>> {
    let mut entries = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse(&s))
        .unwrap_or_default();
    for (name, e) in new_entries {
        entries.insert(name.clone(), e.clone());
    }
    seqdrift_store::atomic_write(path, render(&entries).as_bytes())?;
    Ok(entries)
}

/// Percentile helpers for latency series (sorts in place). Returns
/// `(p50, p99)` in the same unit as the input; empty input gives zeros.
pub fn latency_percentiles(latencies: &mut [f64]) -> (f64, f64) {
    if latencies.is_empty() {
        return (0.0, 0.0);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // Nearest-rank definition: the smallest value with at least q·N
    // observations at or below it.
    let pick = |q: f64| {
        let rank = ((latencies.len() as f64 * q).ceil() as usize).max(1);
        latencies[rank.min(latencies.len()) - 1]
    };
    (pick(0.50), pick(0.99))
}

fn escape(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect()
}

/// Restricted parser for exactly the document shape [`render`] emits
/// (whitespace-insensitive). Anything else returns `None` and the caller
/// starts a fresh file — the parser never needs to be general.
pub fn parse(text: &str) -> Option<BTreeMap<String, IngestEntry>> {
    let mut t = Tokens::new(text);
    t.expect('{')?;
    let key = t.string()?;
    if key != "entries" {
        return None;
    }
    t.expect(':')?;
    t.expect('{')?;
    let mut out = BTreeMap::new();
    if t.peek() == Some('}') {
        t.expect('}')?;
        t.expect('}')?;
        return Some(out);
    }
    loop {
        let name = t.string()?;
        t.expect(':')?;
        t.expect('{')?;
        let mut entry = IngestEntry::default();
        loop {
            let field = t.string()?;
            t.expect(':')?;
            match field.as_str() {
                "samples_per_sec" => entry.samples_per_sec = t.number()?,
                "p50_us" => entry.p50_us = t.number()?,
                "p99_us" => entry.p99_us = t.number()?,
                "samples" => entry.samples = t.number()? as u64,
                "unit" => entry.unit = Some(t.string()?),
                "scenario" => entry.scenario = Some(t.string()?),
                _ => return None,
            }
            match t.next_ch()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
        out.insert(name, entry);
        match t.next_ch()? {
            ',' => continue,
            '}' => break,
            _ => return None,
        }
    }
    t.expect('}')?;
    Some(out)
}

struct Tokens<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl<'a> Tokens<'a> {
    fn new(s: &'a str) -> Self {
        Tokens {
            chars: s.chars().peekable(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.peek().copied()
    }

    fn next_ch(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.next()
    }

    fn expect(&mut self, want: char) -> Option<()> {
        (self.next_ch()? == want).then_some(())
    }

    fn string(&mut self) -> Option<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(out),
                '\\' => match self.chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + self.chars.next()?.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let mut buf = String::new();
        while matches!(
            self.chars.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')
        ) {
            buf.push(self.chars.next()?);
        }
        buf.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tput: f64) -> IngestEntry {
        IngestEntry {
            samples_per_sec: tput,
            p50_us: 12.34,
            p99_us: 99.9,
            samples: 6400,
            unit: None,
            scenario: None,
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut entries = BTreeMap::new();
        entries.insert("fleet_ingest_w4".to_string(), entry(1234.5));
        entries.insert("load_s8".to_string(), entry(999.0));
        let text = render(&entries);
        assert_eq!(parse(&text).unwrap(), entries);
    }

    #[test]
    fn empty_document_roundtrips() {
        let entries = BTreeMap::new();
        assert_eq!(parse(&render(&entries)).unwrap(), entries);
    }

    #[test]
    fn unit_field_roundtrips_and_old_files_still_parse() {
        let mut entries = BTreeMap::new();
        let mut delay = entry(219.0);
        delay.unit = Some("samples".to_string());
        entries.insert("federate50_delay_merge_off".to_string(), delay);
        entries.insert("load_s8".to_string(), entry(999.0));
        let text = render(&entries);
        assert!(text.contains("\"unit\": \"samples\""), "{text}");
        assert_eq!(parse(&text).unwrap(), entries);

        // A document written before the unit field existed parses with
        // `unit: None` for every entry.
        let legacy = "{ \"entries\": { \"a\": { \"samples_per_sec\": 1.0, \
                      \"p50_us\": 2.00, \"p99_us\": 3.00, \"samples\": 4 } } }";
        let parsed = parse(legacy).unwrap();
        assert_eq!(parsed["a"].unit, None);
        assert_eq!(parsed["a"].samples, 4);
    }

    #[test]
    fn scenario_field_roundtrips_and_old_files_still_parse() {
        let mut entries = BTreeMap::new();
        let mut attributed = entry(512.0);
        attributed.scenario = Some("gradual-wave".to_string());
        entries.insert("scenario_gradual-wave_sessions_4".to_string(), attributed);
        entries.insert("load_s8".to_string(), entry(999.0));
        let text = render(&entries);
        assert!(text.contains("\"scenario\": \"gradual-wave\""), "{text}");
        assert_eq!(parse(&text).unwrap(), entries);

        // Entries can carry both unit and scenario.
        let mut both = entry(7.0);
        both.unit = Some("samples".to_string());
        both.scenario = Some("s1".to_string());
        let mut m = BTreeMap::new();
        m.insert("x".to_string(), both);
        assert_eq!(parse(&render(&m)).unwrap(), m);

        // Pre-scenario documents parse with `scenario: None`.
        let legacy = "{ \"entries\": { \"a\": { \"samples_per_sec\": 1.0, \
                      \"p50_us\": 2.00, \"p99_us\": 3.00, \"samples\": 4 } } }";
        assert_eq!(parse(legacy).unwrap()["a"].scenario, None);
    }

    #[test]
    fn merge_preserves_other_entries_and_replaces_same_named() {
        let dir = std::env::temp_dir().join(format!("seqdrift-benchjson-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_ingest.json");
        let _ = std::fs::remove_file(&path);

        merge_into_file(&path, &[("a".into(), entry(1.0)), ("b".into(), entry(2.0))]).unwrap();
        let merged = merge_into_file(&path, &[("b".into(), entry(3.0))]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged["a"].samples_per_sec, 1.0);
        assert_eq!(merged["b"].samples_per_sec, 3.0);

        // A corrupt file is replaced, not trusted.
        std::fs::write(&path, "{ not json").unwrap();
        let merged = merge_into_file(&path, &[("c".into(), entry(4.0))]).unwrap();
        assert_eq!(merged.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn percentiles_pick_expected_ranks() {
        let mut lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let (p50, p99) = latency_percentiles(&mut lat);
        assert_eq!(p50, 50.0);
        assert_eq!(p99, 99.0);
        let (z50, z99) = latency_percentiles(&mut []);
        assert_eq!((z50, z99), (0.0, 0.0));
    }
}
