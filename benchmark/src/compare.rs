//! `--compare A.json B.json`: per workload and end-to-end metric, is B better,
//! worse, within its bound, or unresolved? Used for the A/A acceptance check
//! and for before/after tables.

use std::collections::BTreeMap;

use serde::Value;

use crate::spec::{Better, MetricDef, END_TO_END};
use crate::stats::{iqr, median};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound: the comparison cannot
    /// tell "unchanged" from "regressed".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare medians `a` (base) and `b` (candidate) of one metric, each with
/// its inter-quartile spread.
pub fn verdict(def: &MetricDef, a: f64, a_spread: f64, b: f64, b_spread: f64) -> Verdict {
    if !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return Verdict::Unresolved;
    }
    if a_spread.max(b_spread) / a.abs() > def.bound {
        return Verdict::Unresolved;
    }
    // Positive when the candidate is worse.
    let worsening = match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worsening > def.bound {
        Verdict::Worse
    } else if worsening < -def.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One workload's samples in a results file: a metric's value per run, and
/// the failed share.
#[derive(Default)]
struct Samples {
    values: BTreeMap<String, Vec<f64>>,
    slice_spread: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// Read a results file: `{"runs": [{"workload", "traced", "attempted",
/// "failed", "metrics": {name: {"value", "spread"}}}]}`. Several runs of one
/// workload (repeats, seeds) pool into one sample per metric.
fn load(path: &str) -> Result<BTreeMap<String, Samples>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Arr(runs)) = root.get("runs") else {
        return Err(format!("{path}: no `runs` array"));
    };
    let mut out: BTreeMap<String, Samples> = BTreeMap::new();
    for run in runs {
        if matches!(run.get("traced"), Some(Value::Bool(true))) {
            continue;
        }
        let Some(Value::Str(workload)) = run.get("workload") else {
            return Err(format!("{path}: a run has no workload name"));
        };
        let s = out.entry(workload.clone()).or_default();
        s.attempted += num(run.get("attempted")).unwrap_or(0.0) as u64;
        s.failed += num(run.get("failed")).unwrap_or(0.0) as u64;
        if let Some(Value::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = num(m.get("value")) {
                    s.values.entry(name.clone()).or_default().push(v);
                }
                if let Some(sp) = num(m.get("spread")) {
                    let worst = s.slice_spread.entry(name.clone()).or_insert(0.0);
                    *worst = worst.max(sp);
                }
            }
        }
    }
    Ok(out)
}

impl Samples {
    /// Median over runs, and the spread: between runs when there are
    /// several, else the within-run spread over slices.
    fn summary(&self, metric: &str) -> Option<(f64, f64)> {
        let values = self.values.get(metric)?;
        let spread = if values.len() >= 2 {
            iqr(values)
        } else {
            self.slice_spread.get(metric).copied().unwrap_or(0.0)
        };
        Some((median(values), spread))
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Print the comparison table; `Ok(true)` when nothing got worse.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for (workload, sa) in &a {
        let Some(sb) = b.get(workload) else {
            println!("{workload:<16} missing from {b_path}");
            clean = false;
            continue;
        };
        for def in &END_TO_END {
            let (Some((va, spa)), Some((vb, spb))) = (sa.summary(def.name), sb.summary(def.name))
            else {
                continue;
            };
            let v = verdict(def, va, spa, vb, spb);
            clean &= v != Verdict::Worse;
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.3}  {} ({} is better, bound {:.0}%, {})",
                workload,
                def.name,
                va,
                vb,
                vb / va,
                v.label(),
                def.better.as_str(),
                def.bound * 100.0,
                def.unit
            );
        }
        let (fa, fb) = (sa.failed_share(), sb.failed_share());
        if fb > fa {
            println!("{workload:<16} failed share rose from {fa:.6} to {fb:.6}");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = def(Better::Lower, 0.10);
        assert_eq!(
            verdict(&lower, 100.0, 1.0, 105.0, 1.0),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&lower, 100.0, 1.0, 111.0, 1.0), Verdict::Worse);
        assert_eq!(verdict(&lower, 100.0, 1.0, 85.0, 1.0), Verdict::Better);
        let higher = def(Better::Higher, 0.07);
        assert_eq!(verdict(&higher, 1000.0, 5.0, 900.0, 5.0), Verdict::Worse);
        assert_eq!(verdict(&higher, 1000.0, 5.0, 1100.0, 5.0), Verdict::Better);
        assert_eq!(
            verdict(&higher, 1000.0, 5.0, 950.0, 5.0),
            Verdict::WithinBound
        );
    }

    #[test]
    fn wide_spread_or_missing_numbers_are_unresolved() {
        let lower = def(Better::Lower, 0.10);
        assert_eq!(
            verdict(&lower, 100.0, 11.0, 150.0, 1.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower, 100.0, 1.0, 100.0, 12.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower, f64::NAN, 0.0, 1.0, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&lower, 0.0, 0.0, 1.0, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn files_compare_by_pooled_runs() {
        let dir = crate::host::out_dir().join(format!("cmp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, ops: [f64; 3], failed: u64| {
            let runs: Vec<String> = ops
                .iter()
                .map(|o| {
                    format!(
                        "{{\"workload\":\"serve_sat\",\"traced\":false,\"attempted\":100,\
                         \"failed\":{failed},\"metrics\":{{\"ops_per_s\":{{\"value\":{o},\"spread\":1.0}}}}}}"
                    )
                })
                .collect();
            let path = dir.join(name);
            std::fs::write(&path, format!("{{\"runs\":[{}]}}", runs.join(","))).unwrap();
            path.to_string_lossy().into_owned()
        };
        let base = write("a.json", [1000.0, 1010.0, 990.0], 0);
        let same = write("b.json", [1005.0, 995.0, 1000.0], 0);
        let slow = write("c.json", [600.0, 605.0, 595.0], 0);
        let broken = write("d.json", [1000.0, 1010.0, 990.0], 3);
        assert_eq!(compare_files(&base, &same), Ok(true));
        assert_eq!(compare_files(&base, &slow), Ok(false));
        assert_eq!(compare_files(&base, &broken), Ok(false));
        assert!(compare_files(&base, "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
