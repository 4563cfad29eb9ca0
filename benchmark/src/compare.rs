//! `benchmark compare A B`: two `--out` files, one run per line, compared
//! metric by metric and workload by workload.
//!
//! For every end-to-end metric it prints both medians, the change, the
//! benchmark's bound and a verdict: `within`, `regressed` (worse by more
//! than the bound) or `unresolved` (the run-to-run spread on either side is
//! wider than the bound, so the runs cannot tell). Any increase in failed
//! records is `regressed`. Per-layer metrics have no bound; they are listed
//! as `same` or `moved`, which on two sets of runs of the same code checks
//! that the deterministic counters repeat exactly. The same command serves
//! the A/A check and a parent-against-change comparison.

use serde_json::Value;

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::Workload;

/// The verdict on one end-to-end metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B is worse (negative: better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges B's runs of one bounded metric against A's.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let bound = def.bound?;
    let (ma, mb) = (median(a)?, median(b)?);
    let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    Some(if widest > bound {
        Verdict::Unresolved
    } else if worse_by(def, ma, mb) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    })
}

/// The runs of one `--out` file.
fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::parse_value(l).map_err(|e| format!("{path}: {e:?}")))
        .collect()
}

/// Every run's value of `section.metric` for `workload`.
fn values(runs: &[Value], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(
            |run| match &run["workloads"][workload][section][metric]["value"] {
                Value::Number(n) => Some(n.as_f64()),
                _ => None,
            },
        )
        .collect()
}

fn failed_total(runs: &[Value], workload: &str) -> Option<u64> {
    let counts: Vec<u64> = runs
        .iter()
        .filter_map(|run| match &run["workloads"][workload]["failed"] {
            Value::Number(n) => n.as_u64(),
            _ => None,
        })
        .collect();
    (!counts.is_empty()).then(|| counts.iter().sum())
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "A = {path_a} ({} runs), B = {path_b} ({} runs)",
        a.len(),
        b.len()
    );
    println!(
        "  {:<34} {:>14} {:>14} {:>9} {:>7} verdict [unit]",
        "metric", "median A", "median B", "change", "bound"
    );
    let mut clean = true;
    for workload in Workload::ALL.map(Workload::name) {
        println!("== {workload} ==");
        if let (Some(fa), Some(fb)) = (failed_total(&a, workload), failed_total(&b, workload)) {
            let verdict = if fb > fa {
                clean = false;
                Verdict::Regressed
            } else {
                Verdict::Within
            };
            println!(
                "  {:<34} {:>14} {:>14} {:>9} {:>7} {}",
                "failed",
                fa,
                fb,
                "",
                "0",
                verdict.as_str()
            );
        }
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for def in defs {
                let va = values(&a, workload, section, def.name);
                let vb = values(&b, workload, section, def.name);
                let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                    continue;
                };
                let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
                let (bound, verdict) = match judge(def, &va, &vb) {
                    Some(v) => {
                        clean &= v != Verdict::Regressed;
                        (
                            format!("{:.0}%", def.bound.unwrap_or(0.0) * 100.0),
                            v.as_str(),
                        )
                    }
                    None if ma == mb => (String::new(), "same"),
                    None => (String::new(), "moved"),
                };
                println!(
                    "  {:<34} {:>14.4} {:>14.4} {:>+8.2}% {:>7} {} [{}]",
                    def.name,
                    ma,
                    mb,
                    delta * 100.0,
                    bound,
                    verdict,
                    def.unit
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn verdicts() {
        let rps = find("records_per_s").unwrap(); // higher is better, 20 %
        let p50 = find("latency_p50_ms").unwrap(); // lower is better, 20 %
        assert_eq!(judge(rps, &[100.0], &[85.0]), Some(Verdict::Within));
        assert_eq!(judge(rps, &[100.0], &[75.0]), Some(Verdict::Regressed));
        assert_eq!(judge(rps, &[100.0], &[150.0]), Some(Verdict::Within));
        assert_eq!(judge(p50, &[10.0], &[11.5]), Some(Verdict::Within));
        assert_eq!(judge(p50, &[10.0], &[12.5]), Some(Verdict::Regressed));
        // A spread wider than the bound cannot resolve a 20 % question.
        let noisy = [6.0, 10.0, 14.0, 8.0, 12.0];
        assert_eq!(judge(p50, &noisy, &noisy), Some(Verdict::Unresolved));
        // Per-layer metrics have no bound and get no verdict.
        assert_eq!(
            judge(find("smt.checks_per_char").unwrap(), &[1.0], &[2.0]),
            None
        );
    }

    #[test]
    fn values_are_read_per_workload_and_run() {
        let run = |v: f64| {
            serde_json::parse_value(&format!(
                r#"{{"workloads":{{"serve_open":{{"failed":1,"end_to_end":{{"latency_p50_ms":{{"value":{v},"unit":"ms"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let runs = [run(8.5), run(9.5)];
        assert_eq!(
            values(&runs, "serve_open", "end_to_end", "latency_p50_ms"),
            vec![8.5, 9.5]
        );
        assert!(values(&runs, "impute_fresh", "end_to_end", "latency_p50_ms").is_empty());
        assert_eq!(failed_total(&runs, "serve_open"), Some(2));
        assert_eq!(failed_total(&runs, "impute_fresh"), None);
    }
}
