//! Turns what the passes measured into the declared metrics, prints them by
//! name with their units, and renders the result line and the `--out`
//! document.

use serde_json::{json, Value};

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{peak_rss_mb, percentile, sorted};
use crate::workloads::{Pass, TracedRun, Workload};

/// One workload's results. A metric is `None` when it could not be
/// measured (a percentile with too thin a tail).
pub struct Report {
    pub workload: Workload,
    pub end_to_end: Option<Vec<(&'static MetricDef, Option<f64>)>>,
    pub per_layer: Option<Vec<(&'static MetricDef, Option<f64>)>>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV fingerprint of the first `fingerprint_records` verified outputs,
    /// in record order.
    pub fingerprint: String,
    pub fingerprint_records: usize,
    /// The latency samples behind the percentiles.
    pub latencies_ms: Vec<f64>,
    /// A smoke run is too short for the tail percentiles; it is judged on
    /// verification alone.
    pub smoke: bool,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced pass, in declaration order.
pub fn end_to_end(pass: &Pass, setup_s: f64) -> Vec<(&'static MetricDef, Option<f64>)> {
    let lat = sorted(pass.latencies_ms.clone());
    let ok = pass.ok() as f64;
    END_TO_END
        .iter()
        .map(|def| {
            let value = match def.name {
                "setup_s" => Some(setup_s),
                "records_per_s" => Some(ratio(ok, pass.wall_s)),
                "latency_p50_ms" => percentile(&lat, 0.50),
                "latency_p90_ms" => percentile(&lat, 0.90),
                "cpu_ms_per_record" => Some(ratio(pass.cpu_s * 1e3, ok)),
                "peak_rss_mb" => Some(peak_rss_mb()),
                other => unreachable!("undeclared end-to-end metric `{other}`"),
            };
            (def, value)
        })
        .collect()
}

/// The per-layer metrics of a traced run, in declaration order. Times come
/// from the spans, counts from `DecodeStats` and `ServeMetrics`.
pub fn per_layer(run: &TracedRun) -> Vec<(&'static MetricDef, Option<f64>)> {
    let records = run.traced.attempted as f64;
    let self_ns = run.tracer.self_times();
    let self_of = |name: &str| self_ns.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let count_of = |name: &str| self_ns.get(name).map_or(0.0, |&(_, n)| n as f64);
    // Every span is the record span or beneath it, so the self times sum to
    // the wall time of all records.
    let record_ns: f64 = self_ns.values().map(|&(ns, _)| ns as f64).sum();
    let us_per_record = |name: &str| ratio(self_of(name) / 1e3, records);
    let gaps = sorted(
        run.tracer
            .forward_gaps_ns()
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect(),
    );

    let stats = &run.untraced.stats;
    let chars = (stats.tokens - stats.forced_tokens) as f64;
    let per_char = |n: u64| ratio(n as f64, chars);

    let socket = run.socket.as_ref();
    let side = socket.and_then(|p| p.serve.as_ref());
    let server = side.map(|s| s.metrics).unwrap_or_default();
    // The server's own pool where there is one, the in-process pool's
    // counters otherwise (zero for the unpooled workloads).
    let (hits, misses, evictions) = match side {
        Some(_) => (server.pool_hits, server.pool_misses, server.pool_evictions),
        None => (stats.pool_hits, stats.pool_misses, stats.pool_evictions),
    };
    let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 0.50);
    let inproc_p50 = p50(&run.untraced.latencies_ms);
    let socket_p50 = socket.and_then(|p| p50(&p.latencies_ms));
    // The serve-edge metrics read zero on the offline workloads.
    let serve_only = |v: Option<f64>| if socket.is_some() { v } else { Some(0.0) };

    PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.name {
                "lm.forward_calls_per_record" => Some(ratio(count_of("lm.forward"), records)),
                "lm.forward_us_per_call" => {
                    Some(ratio(self_of("lm.forward") / 1e3, count_of("lm.forward")))
                }
                "lm.forward_share" => Some(ratio(self_of("lm.forward"), record_ns)),
                "rules.ground_us_per_record" => Some(us_per_record("rules.ground")),
                "rules.ground_share" => Some(ratio(self_of("rules.ground"), record_ns)),
                "smt.first_check_us_per_record" => Some(us_per_record("smt.first_check")),
                "smt.checks_per_char" => Some(per_char(stats.solver_checks)),
                "smt.pivots_per_char" => Some(per_char(stats.solver_pivots)),
                "smt.bnb_nodes_per_char" => Some(per_char(stats.solver_bnb_nodes)),
                "smt.props_per_char" => Some(per_char(stats.theory_propagations)),
                "smt.explanations_per_char" => Some(per_char(stats.theory_explanations)),
                "smt.memo_hits_per_char" => Some(per_char(stats.theory_memo_hits)),
                "smt.encode_hit_rate" => Some(ratio(
                    stats.encode_cache_hits as f64,
                    (stats.encode_cache_hits + stats.encode_cache_misses) as f64,
                )),
                "smt.bounds_us_per_var" => Some(run.bounds_us_per_var),
                "core.gap_us_p50" => percentile(&gaps, 0.50),
                "core.gap_us_p95" => percentile(&gaps, 0.95),
                "core.constraint_share" => Some(ratio(self_of("core.decode"), record_ns)),
                "core.rollback_us_per_record" => Some(us_per_record("core.rollback")),
                "core.pool_cycle_us_per_record" => {
                    Some(us_per_record("core.pool_acquire") + us_per_record("core.pool_release"))
                }
                "core.pool_hit_rate" => Some(ratio(hits as f64, (hits + misses) as f64)),
                "core.pool_evictions" => Some(evictions as f64),
                "core.chars_per_record" => Some(ratio(chars, run.untraced.ok() as f64)),
                "core.checks_saved_per_char" => Some(per_char(stats.solver_checks_saved)),
                "core.cache_hits_per_char" => Some(per_char(stats.cache_hits)),
                "core.forced_share" => Some(per_char(stats.forced_choices)),
                "core.intervention_share" => Some(per_char(stats.interventions)),
                "serve.ping_rtt_us_p50" => serve_only(side.and_then(|s| p50(&s.ping_rtts_us))),
                "serve.inproc_ms_p50" => serve_only(inproc_p50),
                "serve.wait_ms_p50" => serve_only(socket_p50.zip(inproc_p50).map(|(s, i)| s - i)),
                "serve.parse_us_per_line" => Some(run.parse_us_per_line),
                "serve.completed" => Some(server.completed as f64),
                "serve.failed" => Some(server.failed as f64),
                "serve.rejected" => Some(server.rejected as f64),
                "serve.late_ms_p95" => match side {
                    Some(s) if !s.late_ms.is_empty() => {
                        percentile(&sorted(s.late_ms.clone()), 0.95)
                    }
                    _ => Some(0.0),
                },
                "serve.backlog_end" => Some(side.map_or(0.0, |s| s.backlog_end as f64)),
                "trace.coverage_share" => Some(1.0 - ratio(self_of("record"), record_ns)),
                "trace.overhead_share" => Some(ratio(run.traced.wall_s, run.untraced.wall_s) - 1.0),
                other => unreachable!("undeclared per-layer metric `{other}`"),
            };
            (def, value)
        })
        .collect()
}

impl Report {
    /// Whether every record verified and every declared metric was
    /// measured.
    pub fn correct(&self) -> bool {
        let measured = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .flatten()
            .all(|(_, v)| v.is_some());
        self.failed == 0 && (measured || self.smoke)
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "== {} == attempted {} failed {} failed_share {:.4} latency samples {} \
             fingerprint {} (first {} outputs)",
            self.workload.name(),
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64),
            self.latencies_ms.len(),
            self.fingerprint,
            self.fingerprint_records,
        );
        for (def, value) in self.end_to_end.iter().chain(&self.per_layer).flatten() {
            match value {
                Some(v) => println!("  {:<34} {:>14.4} {}", def.name, v, def.unit),
                None => println!(
                    "  {:<34} {:>14} {} (too few samples beyond it)",
                    def.name, "n/a", def.unit
                ),
            }
        }
    }

    fn metrics_value(metrics: &[(&'static MetricDef, Option<f64>)]) -> Value {
        Value::Object(
            metrics
                .iter()
                .filter_map(|(def, v)| {
                    let entry = json!({ "value": (*v)?, "unit": def.unit });
                    Some((def.name.to_string(), entry))
                })
                .collect(),
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<_> = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .flatten()
            .copied()
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Self::metrics_value(&metrics)
        })
        .to_string()
    }

    /// This workload's entry in the `--out` document, per-record latencies
    /// included.
    pub fn to_value(&self) -> Value {
        let section = |m: &Option<Vec<_>>| m.as_deref().map_or(Value::Null, Self::metrics_value);
        json!({
            "end_to_end": section(&self.end_to_end),
            "per_layer": section(&self.per_layer),
            "attempted": self.attempted,
            "failed": self.failed,
            "fingerprint": self.fingerprint,
            "fingerprint_records": self.fingerprint_records as u64,
            "latencies_ms": self.latencies_ms
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn names(metrics: &[(&'static MetricDef, Option<f64>)]) -> Vec<&'static str> {
        metrics.iter().map(|(d, _)| d.name).collect()
    }

    fn pass(n: usize) -> Pass {
        Pass {
            latencies_ms: (0..n).map(|i| 1.0 + i as f64).collect(),
            wall_s: 2.0,
            cpu_s: 1.0,
            attempted: n as u64,
            ..Pass::default()
        }
    }

    #[test]
    fn every_declared_metric_is_emitted_exactly_once() {
        let e2e = end_to_end(&pass(400), 6.5);
        assert_eq!(names(&e2e), END_TO_END.map(|d| d.name));
        assert!(e2e.iter().all(|(_, v)| v.is_some_and(|v| v > 0.0)));

        let run = TracedRun {
            socket: None,
            untraced: pass(40),
            traced: pass(40),
            tracer: Tracer::new(0),
            bounds_us_per_var: 1.0,
            parse_us_per_line: 1.0,
        };
        assert_eq!(names(&per_layer(&run)), PER_LAYER.map(|d| d.name));
    }

    #[test]
    fn a_thin_tail_is_reported_as_unmeasured_not_as_a_number() {
        let e2e = end_to_end(&pass(99), 6.5);
        let p90 = e2e
            .iter()
            .find(|(d, _)| d.name == "latency_p90_ms")
            .unwrap();
        assert_eq!(p90.1, None);
        let report = Report {
            workload: Workload::ImputeFresh,
            end_to_end: Some(e2e),
            per_layer: None,
            attempted: 99,
            failed: 0,
            fingerprint: String::new(),
            fingerprint_records: 0,
            latencies_ms: Vec::new(),
            smoke: false,
        };
        assert!(!report.correct());
        let line = serde_json::parse_value(&report.result_line()).unwrap();
        assert_eq!(line["correct"], Value::Bool(false));
        assert_eq!(line["metrics"]["latency_p90_ms"], Value::Null);
        assert_ne!(line["metrics"]["latency_p50_ms"], Value::Null);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let report = Report {
            workload: Workload::SynthReuse,
            end_to_end: Some(end_to_end(&pass(400), 6.5)),
            per_layer: None,
            attempted: 400,
            failed: 0,
            fingerprint: String::new(),
            fingerprint_records: 0,
            latencies_ms: Vec::new(),
            smoke: false,
        };
        let Value::Object(fields) = serde_json::parse_value(&report.result_line()).unwrap() else {
            panic!("result line is a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, Value::Bool(true));
    }
}
