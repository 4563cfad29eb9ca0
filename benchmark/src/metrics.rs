//! The metric and workload names the benchmark emits, with units, the
//! better direction and (end to end) the regression bound. `BENCHMARK.json`
//! declares the same table; a unit test holds the two together.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is the share of the baseline's median by
/// which an end-to-end metric may worsen before `compare` calls it
/// regressed; per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off. Each bound is
/// at least three times the widest run-to-run spread seen across ten seeds on
/// the two-core reference box (README.md, "Latest results").
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("records_per_s", "1/s", Higher, 0.20),
    e2e("latency_p50_ms", "ms", Lower, 0.20),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_record", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer metrics, from the traced pass and the deterministic
/// counters. README.md says which end-to-end metric each should move and on
/// which workload.
pub const PER_LAYER: [MetricDef; 37] = [
    layer("lm.forward_calls_per_record", "count", Lower),
    layer("lm.forward_us_per_call", "us", Lower),
    layer("lm.forward_share", "share", Lower),
    layer("rules.ground_us_per_record", "us", Lower),
    layer("rules.ground_share", "share", Lower),
    layer("smt.first_check_us_per_record", "us", Lower),
    layer("smt.checks_per_char", "count", Lower),
    layer("smt.pivots_per_char", "count", Lower),
    layer("smt.bnb_nodes_per_char", "count", Lower),
    layer("smt.props_per_char", "count", Lower),
    layer("smt.explanations_per_char", "count", Lower),
    layer("smt.memo_hits_per_char", "count", Higher),
    layer("smt.encode_hit_rate", "share", Higher),
    layer("smt.bounds_us_per_var", "us", Lower),
    layer("core.gap_us_p50", "us", Lower),
    layer("core.gap_us_p95", "us", Lower),
    layer("core.constraint_share", "share", Lower),
    layer("core.rollback_us_per_record", "us", Lower),
    layer("core.pool_cycle_us_per_record", "us", Lower),
    layer("core.pool_hit_rate", "share", Higher),
    layer("core.pool_evictions", "count", Lower),
    layer("core.chars_per_record", "count", Lower),
    layer("core.checks_saved_per_char", "count", Higher),
    layer("core.cache_hits_per_char", "count", Higher),
    layer("core.forced_share", "share", Higher),
    layer("core.intervention_share", "share", Lower),
    layer("serve.ping_rtt_us_p50", "us", Lower),
    layer("serve.inproc_ms_p50", "ms", Lower),
    layer("serve.wait_ms_p50", "ms", Lower),
    layer("serve.parse_us_per_line", "us", Lower),
    layer("serve.completed", "count", Higher),
    layer("serve.failed", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.late_ms_p95", "ms", Lower),
    layer("serve.backlog_end", "count", Lower),
    layer("trace.coverage_share", "share", Higher),
    layer("trace.overhead_share", "share", Lower),
];

/// Looks a declared metric up by name.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde_json::Value;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        match &v[key] {
            Value::String(s) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match &v[key] {
            Value::Array(a) => a,
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in Workload::ALL
            .map(Workload::name)
            .into_iter()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "bad name `{name}`");
            assert!(seen.insert(name), "`{name}` is declared twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_this_table() {
        let m = manifest();
        let workloads: Vec<&str> = items(&m, "workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = items(&m, key);
            assert_eq!(declared.len(), defs.len(), "{key}: metric count");
            for (d, def) in declared.iter().zip(defs) {
                assert!(name_ok(str_of(d, "name")));
                assert_eq!(str_of(d, "name"), def.name);
                assert_eq!(str_of(d, "unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(str_of(d, "better"), better, "{}", def.name);
                match (&d["bound"], def.bound) {
                    (Value::Number(n), Some(b)) => assert_eq!(n.as_f64(), b, "{}", def.name),
                    (Value::Null, None) => {}
                    (other, b) => panic!("{}: bound {other:?} vs {b:?}", def.name),
                }
            }
        }
    }
}
