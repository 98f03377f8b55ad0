//! `exawind-e2e compare A.json B.json`: the A/B tool. One row per
//! (end-to-end metric, workload) with both medians and quartiles, the
//! ratio with its base, and a verdict against the benchmark's bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::Json;

use crate::metrics::{self, MetricDef, END_TO_END};
use crate::stats::quartiles;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge side B against base A. `bound` is the share of A's median by
/// which B's may be worse.
pub fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: f64) -> Verdict {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    let sign = if higher_better { -1.0 } else { 1.0 };
    let worse_by = sign * (b2 - a2) / a2.abs();
    if worse_by > bound {
        return Verdict::Worse;
    }
    let spread = ((a3 - a1) / a2.abs()).max((b3 - b1) / b2.abs());
    if spread > bound {
        // Unresolved unless every run of B reads better than every run of A.
        let b_worst = b.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
        let a_best = a.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
        return if b_worst < a_best {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The runs of one set file, by workload.
#[derive(Default)]
struct Set {
    /// workload → metric → one value per telemetry-off run, in file order.
    e2e: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (workload, seed) → exact per-layer counts of the traced run.
    exact: BTreeMap<(String, u64), BTreeMap<String, f64>>,
    /// workload → (failed, attempted, incorrect runs).
    failures: BTreeMap<String, (u64, u64, u64)>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .as_obj()
        .and_then(|o| o.get("runs"))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: not a set file (no \"runs\" array)"))?;
    let mut set = Set::default();
    for run in runs {
        let bad = || format!("{path}: malformed run entry");
        let o = run.as_obj().ok_or_else(bad)?;
        let workload = o
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(bad)?
            .to_string();
        let traced = o.get("trace").and_then(Json::as_bool).ok_or_else(bad)?;
        let seed = o.get("seed").and_then(Json::as_u64).ok_or_else(bad)?;
        let metrics = o.get("metrics").and_then(Json::as_obj).ok_or_else(bad)?;
        let value = |m: &Json| {
            m.as_obj()
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        let f = set.failures.entry(workload.clone()).or_default();
        f.0 += o.get("failed").and_then(Json::as_u64).ok_or_else(bad)?;
        f.1 += o.get("attempted").and_then(Json::as_u64).ok_or_else(bad)?;
        f.2 += u64::from(!o.get("correct").and_then(Json::as_bool).ok_or_else(bad)?);
        if traced {
            let counts = set.exact.entry((workload, seed)).or_default();
            for (name, m) in metrics {
                if metrics::find(name).is_some_and(|d| d.exact) {
                    counts.insert(name.clone(), value(m).unwrap_or(f64::NAN));
                }
            }
        } else {
            let by_metric = set.e2e.entry(workload).or_default();
            for (name, m) in metrics {
                by_metric
                    .entry(name.clone())
                    .or_default()
                    .push(value(m).ok_or_else(bad)?);
            }
        }
    }
    Ok(set)
}

/// Bounds by metric name: the compiled table, overridden by the
/// `end_to_end` list of a `BENCHMARK.json`.
fn bounds(benchmark_json: Option<&str>) -> Result<BTreeMap<String, f64>, String> {
    let mut out: BTreeMap<String, f64> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.bound))
        .collect();
    if let Some(path) = benchmark_json {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = doc
            .as_obj()
            .and_then(|o| o.get("end_to_end"))
            .and_then(Json::as_arr);
        for m in list.ok_or_else(|| format!("{path}: no end_to_end list"))? {
            let o = m
                .as_obj()
                .ok_or_else(|| format!("{path}: malformed end_to_end entry"))?;
            if let (Some(name), Some(bound)) = (
                o.get("name").and_then(Json::as_str),
                o.get("bound").and_then(Json::as_f64),
            ) {
                out.insert(name.to_string(), bound);
            }
        }
    }
    Ok(out)
}

/// `step_s_p10(turbine_r1) / (2 · step_s_p10(turbine_r2))`, one value per
/// round the set holds of both.
fn scaling_eff(set: &Set) -> Vec<f64> {
    let p10 = |w: &str| {
        set.e2e
            .get(w)
            .and_then(|m| m.get("step_s_p10"))
            .cloned()
            .unwrap_or_default()
    };
    p10("turbine_r1")
        .iter()
        .zip(p10("turbine_r2"))
        .map(|(r1, r2)| r1 / (2.0 * r2))
        .collect()
}

/// Outcome of a comparison: the table, and whether B may be accepted.
pub struct Comparison {
    pub table: String,
    pub worse: usize,
    pub unresolved: usize,
    /// More failed steps or incorrect runs in B than in A.
    pub more_failures: bool,
    /// Exact-count layer metrics that differ between the sets.
    pub count_mismatches: Vec<String>,
}

impl Comparison {
    pub fn acceptable(&self) -> bool {
        self.worse == 0 && !self.more_failures && self.count_mismatches.is_empty()
    }
}

pub fn compare_files(
    a_path: &str,
    b_path: &str,
    benchmark_json: Option<&str>,
) -> Result<Comparison, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(benchmark_json)?;
    let mut cmp = Comparison {
        table: String::new(),
        worse: 0,
        unresolved: 0,
        more_failures: false,
        count_mismatches: Vec::new(),
    };
    let t = &mut cmp.table;
    let _ = writeln!(t, "A = {a_path} (base)    B = {b_path}");
    let _ = writeln!(
        t,
        "{:<24} {:<20} {:>5} | {:>11} {:>11} {:>11} {:>3} | {:>11} {:>11} {:>11} {:>3} | {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A q1", "A median", "A q3", "n", "B q1", "B median", "B q3", "n", "B/A", "bound"
    );
    let mut row = |workload: &str, def: &MetricDef, bound: f64, va: &[f64], vb: &[f64]| {
        let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(va), quartiles(vb));
        let v = verdict(va, vb, def.higher_better, bound);
        let _ = writeln!(
            t,
            "{workload:<24} {:<20} {:>5} | {a1:>11.5} {a2:>11.5} {a3:>11.5} {:>3} | {b1:>11.5} {b2:>11.5} {b3:>11.5} {:>3} | {:>8.4} {bound:>6.3}  {}",
            def.name,
            def.unit,
            va.len(),
            vb.len(),
            b2 / a2,
            v.label()
        );
        v
    };
    let mut verdicts = Vec::new();
    for (workload, by_metric) in &a.e2e {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                by_metric.get(def.name),
                b.e2e.get(workload).and_then(|m| m.get(def.name)),
            ) else {
                continue;
            };
            verdicts.push(row(workload, def, bounds[def.name], va, vb));
        }
    }
    let (ea, eb) = (scaling_eff(&a), scaling_eff(&b));
    if !ea.is_empty() && !eb.is_empty() {
        // A ratio of two step times: it takes the step time's bound.
        let bound = bounds["step_s_p10"];
        let def = MetricDef {
            name: "strong_scaling_eff_r2",
            unit: "ratio",
            higher_better: true,
            bound,
            exact: false,
        };
        verdicts.push(row("turbine_r2", &def, bound, &ea, &eb));
    }
    cmp.worse = verdicts.iter().filter(|v| **v == Verdict::Worse).count();
    cmp.unresolved = verdicts
        .iter()
        .filter(|v| **v == Verdict::Unresolved)
        .count();

    for (workload, &(fa, na, ia)) in &a.failures {
        let Some(&(fb, nb, ib)) = b.failures.get(workload) else {
            continue;
        };
        let frac = |f: u64, n: u64| f as f64 / n.max(1) as f64;
        let _ = writeln!(t, "{workload:<24} steps_failed_frac      A {fa}/{na}  B {fb}/{nb}    incorrect runs  A {ia}  B {ib}");
        cmp.more_failures |= frac(fb, nb) > frac(fa, na) || ib > ia;
    }
    for (key, ca) in &a.exact {
        let Some(cb) = b.exact.get(key) else { continue };
        for (name, va) in ca {
            if cb.get(name).is_some_and(|vb| vb != va) {
                cmp.count_mismatches.push(format!(
                    "{} seed {} {name}: A {va} B {}",
                    key.0, key.1, cb[name]
                ));
            }
        }
    }
    let _ = writeln!(
        t,
        "{} worse, {} unresolved, exact counts {}",
        cmp.worse,
        cmp.unresolved,
        if cmp.count_mismatches.is_empty() {
            "identical".to_string()
        } else {
            format!("DIFFER:\n  {}", cmp.count_mismatches.join("\n  "))
        }
    );
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 3 % slower with a 7 % bound: within.
        assert_eq!(
            verdict(&a, &a.map(|x| x * 1.03), false, 0.07),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&a, &a.map(|x| x * 1.10), false, 0.07),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &a.map(|x| x * 0.90), false, 0.07),
            Verdict::Better
        );
        // For a higher-is-better metric the directions flip.
        assert_eq!(
            verdict(&a, &a.map(|x| x * 0.90), true, 0.07),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &a.map(|x| x * 1.10), true, 0.07),
            Verdict::Better
        );
        // Spread wider than the bound: unresolved, unless B wins every pairing.
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(verdict(&noisy, &noisy, false, 0.07), Verdict::Unresolved);
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x * 0.5), false, 0.07),
            Verdict::Better
        );
        // A single sample per side has no spread.
        assert_eq!(verdict(&[1.0], &[1.05], false, 0.07), Verdict::WithinBound);
    }

    fn set_file(dir: &std::path::Path, name: &str, step: f64, failed: u64, iters: f64) -> String {
        let run = |workload: &str, p10: f64| {
            format!(
                r#"{{"workload":"{workload}","seed":1,"trace":false,"correct":true,"attempted":10,"failed":{failed},"metrics":{{"step_s_p10":{{"value":{p10},"unit":"s"}}}}}}"#
            )
        };
        let traced = format!(
            r#"{{"workload":"turbine_r2","seed":1,"trace":true,"correct":true,"attempted":10,"failed":0,"metrics":{{"krylov.gmres_iters_per_step.momentum":{{"value":{iters},"unit":"count"}},"amg.vcycle_s":{{"value":{step},"unit":"s"}}}}}}"#
        );
        let text = format!(
            r#"{{"runs":[{},{},{traced}]}}"#,
            run("turbine_r2", step),
            run("turbine_r1", 1.5)
        );
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compare_flags_regressions_failures_and_count_drift() {
        let dir = std::env::temp_dir().join(format!("exawind-e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = set_file(&dir, "a.json", 1.0, 0, 70.0);
        let same = compare_files(&base, &set_file(&dir, "b.json", 1.02, 0, 70.0), None).unwrap();
        assert!(same.acceptable(), "{}", same.table);
        assert!(
            same.table.contains("strong_scaling_eff_r2"),
            "{}",
            same.table
        );
        let slow = compare_files(&base, &set_file(&dir, "c.json", 1.4, 0, 70.0), None).unwrap();
        assert!(!slow.acceptable() && slow.worse >= 1, "{}", slow.table);
        let failing = compare_files(&base, &set_file(&dir, "d.json", 1.0, 1, 70.0), None).unwrap();
        assert!(failing.more_failures && !failing.acceptable());
        let drift = compare_files(&base, &set_file(&dir, "e.json", 1.0, 0, 71.0), None).unwrap();
        assert_eq!(drift.count_mismatches.len(), 1, "{}", drift.table);
        assert!(compare_files(&base, "/nonexistent.json", None).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
