//! `seqbench compare A.json B.json`: medians, quartiles and a verdict per
//! (workload, metric) against the bounds in `BENCHMARK.json`.

use crate::json::Json;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Reads the `end_to_end` and `per_layer` declarations of a
/// `BENCHMARK.json` document.
pub fn declared(bench: &Json) -> Result<Vec<Declared>, String> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let items = bench
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no '{section}' list"))?;
        for m in items {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let (Some(name), Some(unit), Some(better)) =
                (field("name"), field("unit"), field("better"))
            else {
                return Err(format!("BENCHMARK.json: malformed entry in '{section}'"));
            };
            out.push(Declared {
                name,
                unit,
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// Quartiles `[q1, median, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default 'exclusive' method)
/// gives them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => None,
        1 => Some([d[0]; 3]),
        ld => {
            let (n, m) = (4i64, ld as i64 + 1);
            let mut q = [0.0; 3];
            for (i, slot) in (1i64..).zip(q.iter_mut()) {
                let j = (i * m / n).clamp(1, ld as i64 - 1);
                // Negative when `j` was clamped up, as in Python.
                let delta = (i * m - j * n) as f64;
                let j = j as usize;
                *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
            }
            Some(q)
        }
    }
}

/// Outcome of comparing set B against baseline set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than A's own spread.
    Improved,
    /// B is no worse than the bound allows.
    WithinBound,
    /// B is worse by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, so the data cannot tell.
    Unresolved,
    /// Per-layer metric: reported, never judged.
    NoBound,
}

impl Verdict {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::NoBound => "no bound",
        }
    }
}

/// The judgement of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Judged {
    /// Quartiles of A.
    pub a: [f64; 3],
    /// Quartiles of B.
    pub b: [f64; 3],
    /// B's median change against A's, as a share of A's median, signed so
    /// that positive is worse.
    pub worse_by: f64,
    /// The larger of the two sets' quartile distance over its median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn rel(x: f64, base: f64) -> f64 {
    if base.abs() > 0.0 {
        x / base.abs()
    } else {
        x
    }
}

/// Judges set `b` against baseline `a`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> Option<Judged> {
    let (qa, qb) = (quartiles(a)?, quartiles(b)?);
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * rel(qb[1] - qa[1], qa[1]);
    let spread_a = rel(qa[2] - qa[0], qa[1]);
    let spread = spread_a.max(rel(qb[2] - qb[0], qb[1]));
    let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let every_b_better = if lower_is_better {
        hi(b) < lo(a)
    } else {
        lo(b) > hi(a)
    };
    let verdict = match bound {
        None => Verdict::NoBound,
        Some(bound) if spread > bound && !every_b_better => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Regressed,
        Some(_) if -worse_by > spread_a => Verdict::Improved,
        Some(_) => Verdict::WithinBound,
    };
    Some(Judged {
        a: qa,
        b: qb,
        worse_by,
        spread,
        verdict,
    })
}

/// Values of `metric` per workload in a result set
/// (`{"runs": [{"workload", "seed", "result": {...}}]}`).
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Workloads present in a result set, in first-seen order.
fn workloads(set: &Json) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in set.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !out.iter().any(|x| x == w) {
                out.push(w.to_string());
            }
        }
    }
    out
}

/// Compares two result sets; returns the report text and whether every
/// bounded metric is improved or within its bound.
pub fn compare(a: &Json, b: &Json, bench: &Json) -> Result<(String, bool), String> {
    let decl = declared(bench)?;
    let mut out = String::new();
    let mut ok = true;
    let fmt = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
    for w in workloads(a) {
        for d in &decl {
            let (va, vb) = (values(a, &w, &d.name), values(b, &w, &d.name));
            let Some(j) = judge(&va, &vb, d.lower_is_better, d.bound) else {
                continue;
            };
            if matches!(j.verdict, Verdict::Regressed | Verdict::Unresolved) {
                ok = false;
            }
            let bound = d
                .bound
                .map_or("-".to_string(), |x| format!("{:.1}%", x * 100.0));
            out.push_str(&format!(
                "{w} {} ({}): A {} (n={}) B {} (n={}) worse by {:+.2}% spread {:.2}% bound {bound} -> {}\n",
                d.name,
                d.unit,
                fmt(j.a),
                va.len(),
                fmt(j.b),
                vb.len(),
                j.worse_by * 100.0,
                j.spread * 100.0,
                j.verdict.label()
            ));
        }
    }
    if out.is_empty() {
        return Err("the two sets share no (workload, metric) pair".into());
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = |v: [f64; 5], lower: bool| judge(&a, &v, lower, Some(0.05)).unwrap().verdict;
        assert_eq!(
            b([101.0, 102.0, 100.0, 101.5, 100.5], true),
            Verdict::WithinBound
        );
        assert_eq!(
            b([120.0, 121.0, 119.0, 120.5, 119.5], true),
            Verdict::Regressed
        );
        assert_eq!(b([80.0, 81.0, 79.0, 80.5, 79.5], true), Verdict::Improved);
        // Higher-is-better flips the sign.
        assert_eq!(b([80.0, 81.0, 79.0, 80.5, 79.5], false), Verdict::Regressed);
        // A spread wider than the bound cannot tell.
        assert_eq!(
            b([60.0, 140.0, 100.0, 70.0, 130.0], true),
            Verdict::Unresolved
        );
        // Unless every run of B reads better than every run of A; it is an
        // improvement only by more than A's own spread.
        let a_noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        let j = |v: [f64; 5]| judge(&a_noisy, &v, true, Some(0.05)).unwrap().verdict;
        assert_eq!(j([40.0, 41.0, 42.0, 43.0, 44.0]), Verdict::WithinBound);
        assert_eq!(j([10.0, 11.0, 12.0, 13.0, 14.0]), Verdict::Improved);
        assert_eq!(judge(&a, &a, true, None).unwrap().verdict, Verdict::NoBound);
    }
}
