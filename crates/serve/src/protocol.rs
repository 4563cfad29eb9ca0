//! The line-delimited JSON wire protocol.
//!
//! One request per line, one JSON object per line back. Responses carry no
//! cost counters by default, so a request's terminal response is a pure
//! function of `(op, coarse, rules, seed)` — byte-identical no matter when
//! the request arrived or which lanes decoded beside it. (Chunk *events*
//! are timing-dependent in their boundaries, never in their concatenation.)
//!
//! Requests:
//!
//! ```json
//! {"op":"impute","id":7,"coarse":[100,8,0,0,0,0],"seed":42,"stream":true,"rules":"rule r1: ..."}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! `id` names the request in its responses (default 0); `seed` pins the
//! sampling RNG stream (default: derived from `id` via the same splitmix64
//! record seeding the batch paths use); `stream` opts into chunk events;
//! `rules` overrides the server's rule set with an inline DSL program.
//! `coarse` entries are counts in `0..=`[`MAX_COARSE`]; anything else is a
//! `bad_request`. A line longer than [`MAX_LINE_BYTES`] or not UTF-8 is
//! answered with `bad_request` and ends the connection.
//!
//! Responses:
//!
//! ```json
//! {"id":7,"ok":true,"text":"20,15,25,30,10.","values":[20,15,25,30,10]}
//! {"id":7,"ok":false,"error":"overloaded","queue_cap":512}
//! {"id":7,"event":"chunk","text":"20,1"}
//! ```
//!
//! Error codes: `overloaded` (queue full — retry later), `shutting_down`
//! (server draining), `bad_request` (unparseable line / bad fields, with
//! `detail`), and the decode failures `unsat_rules`, `dead_end`,
//! `missing_char`, `internal` (with `detail`).

use lejit_core::DecodeError;
use lejit_telemetry::CoarseSignals;
use serde_json::Value;

/// Largest accepted `coarse` entry. The fields are per-window byte and
/// packet counts; 2⁴⁰ is far above any real window and a factor of 2²³
/// below `i64::MAX`, so grounding (sums of six entries times rule
/// coefficients) stays in range while those coefficients are small — true
/// of the server rule set and of mined ones. It does not cover an inline
/// `rules` override that writes a huge constant itself.
pub const MAX_COARSE: i64 = 1 << 40;

/// Longest accepted request line, newline excluded (inline rule sets are a
/// few KiB).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Decode one window under the rules.
    Impute(ImputeRequest),
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Begin graceful drain.
    Shutdown,
}

/// The fields of an `impute` request.
#[derive(Clone, Debug, PartialEq)]
pub struct ImputeRequest {
    /// Client-chosen response correlation id (defaults to 0).
    pub id: u64,
    /// The six coarse window aggregates.
    pub coarse: CoarseSignals,
    /// Explicit sampling seed; `None` derives one from `id`.
    pub seed: Option<u64>,
    /// Whether to emit chunk events as lanes produce text.
    pub stream: bool,
    /// Inline rule-set override (LeJIT DSL source), if any.
    pub rules: Option<String>,
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Parses one request line. Errors are human-readable `bad_request`
/// details, not panics — a malformed line must never take the reader down.
pub fn parse_line(line: &str) -> Result<Op, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let op = match &v["op"] {
        Value::String(s) => s.clone(),
        Value::Null => return Err("missing field `op`".to_string()),
        _ => return Err("field `op` must be a string".to_string()),
    };
    match op.as_str() {
        "ping" => Ok(Op::Ping),
        "stats" => Ok(Op::Stats),
        "shutdown" => Ok(Op::Shutdown),
        "impute" => {
            let id = as_u64(&v["id"]).unwrap_or(0);
            let coarse = match &v["coarse"] {
                Value::Array(items) if items.len() == 6 => {
                    let mut vals = [0i64; 6];
                    for (slot, item) in vals.iter_mut().zip(items) {
                        let entry = match item {
                            Value::Number(n) => n.as_i64(),
                            _ => None,
                        };
                        match entry {
                            Some(x) if (0..=MAX_COARSE).contains(&x) => *slot = x,
                            Some(_) => {
                                return Err(format!("`coarse` entries must be in 0..={MAX_COARSE}"))
                            }
                            None => return Err("`coarse` entries must be integers".to_string()),
                        }
                    }
                    CoarseSignals(vals)
                }
                _ => return Err("`coarse` must be an array of 6 integers".to_string()),
            };
            let seed = as_u64(&v["seed"]);
            let stream = as_bool(&v["stream"]).unwrap_or(false);
            let rules = match &v["rules"] {
                Value::String(s) => Some(s.clone()),
                Value::Null => None,
                _ => return Err("`rules` must be a string".to_string()),
            };
            Ok(Op::Impute(ImputeRequest {
                id,
                coarse,
                seed,
                stream,
                rules,
            }))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: u64) -> Value {
    Value::Number(serde_json::Number::UInt(n))
}

fn render(v: &Value) -> String {
    // The vendored serializer only fails on non-finite floats; none of the
    // protocol values carry floats, so fall back to `null` rather than
    // panicking in the response path.
    serde_json::to_string(v).unwrap_or_else(|_| "null".to_string())
}

/// A successful decode response.
pub fn render_ok(id: u64, text: &str, values: &[i64]) -> String {
    let vals = Value::Array(
        values
            .iter()
            .map(|&x| Value::Number(serde_json::Number::Int(x)))
            .collect(),
    );
    render(&obj(vec![
        ("id", num(id)),
        ("ok", Value::Bool(true)),
        ("text", Value::String(text.to_string())),
        ("values", vals),
    ]))
}

/// A decode-failure response with the typed error code.
pub fn render_decode_err(id: u64, err: &DecodeError) -> String {
    let code = match err {
        DecodeError::UnsatRules => "unsat_rules",
        DecodeError::DeadEnd { .. } => "dead_end",
        DecodeError::MissingChar(_) => "missing_char",
        DecodeError::Internal(_) => "internal",
    };
    render(&obj(vec![
        ("id", num(id)),
        ("ok", Value::Bool(false)),
        ("error", Value::String(code.to_string())),
        ("detail", Value::String(err.to_string())),
    ]))
}

/// The typed overload (admission-refused) response.
pub fn render_overloaded(id: u64, queue_cap: usize) -> String {
    render(&obj(vec![
        ("id", num(id)),
        ("ok", Value::Bool(false)),
        ("error", Value::String("overloaded".to_string())),
        ("queue_cap", num(queue_cap as u64)),
    ]))
}

/// The draining-refusal response.
pub fn render_shutting_down(id: u64) -> String {
    render(&obj(vec![
        ("id", num(id)),
        ("ok", Value::Bool(false)),
        ("error", Value::String("shutting_down".to_string())),
    ]))
}

/// A malformed-request response.
pub fn render_bad_request(detail: &str) -> String {
    render(&obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::String("bad_request".to_string())),
        ("detail", Value::String(detail.to_string())),
    ]))
}

/// A streamed partial-output event.
pub fn render_chunk(id: u64, delta: &str) -> String {
    render(&obj(vec![
        ("id", num(id)),
        ("event", Value::String("chunk".to_string())),
        ("text", Value::String(delta.to_string())),
    ]))
}

/// The `ping` response.
pub fn render_pong() -> String {
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("pong", Value::Bool(true)),
    ]))
}

/// The `shutdown` acknowledgement.
pub fn render_drain_ack() -> String {
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("draining", Value::Bool(true)),
    ]))
}

/// The `stats` response.
#[allow(clippy::too_many_arguments)]
pub fn render_stats(
    completed: u64,
    failed: u64,
    rejected: u64,
    queue_depth: usize,
    pool_hits: u64,
    pool_misses: u64,
    pool_evictions: u64,
) -> String {
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("completed", num(completed)),
        ("failed", num(failed)),
        ("rejected", num(rejected)),
        ("queue_depth", num(queue_depth as u64)),
        ("pool_hits", num(pool_hits)),
        ("pool_misses", num(pool_misses)),
        ("pool_evictions", num(pool_evictions)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_impute_request() {
        let op = parse_line(
            r#"{"op":"impute","id":7,"coarse":[100,8,0,70,12,0],"seed":42,"stream":true}"#,
        )
        .unwrap();
        let Op::Impute(req) = op else {
            panic!("expected impute")
        };
        assert_eq!(req.id, 7);
        assert_eq!(req.coarse.0, [100, 8, 0, 70, 12, 0]);
        assert_eq!(req.seed, Some(42));
        assert!(req.stream);
        assert_eq!(req.rules, None);
    }

    #[test]
    fn optional_fields_default() {
        let op = parse_line(r#"{"op":"impute","coarse":[1,2,3,4,5,6]}"#).unwrap();
        let Op::Impute(req) = op else {
            panic!("expected impute")
        };
        assert_eq!(req.id, 0);
        assert_eq!(req.seed, None);
        assert!(!req.stream);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"id":3}"#).is_err());
        assert!(parse_line(r#"{"op":"impute","coarse":[1,2]}"#).is_err());
        assert!(parse_line(r#"{"op":"teleport"}"#).is_err());
    }

    #[test]
    fn coarse_entries_outside_the_count_range_are_rejected() {
        let line = |x: i64| format!(r#"{{"op":"impute","coarse":[{x},8,0,70,12,0]}}"#);
        for bad in [-1, MAX_COARSE + 1, i64::MAX, i64::MIN, i64::MIN + 1] {
            let err = parse_line(&line(bad)).unwrap_err();
            assert!(err.contains("0..="), "{bad}: {err}");
        }
        for good in [0, MAX_COARSE] {
            assert!(parse_line(&line(good)).is_ok(), "{good}");
        }
    }

    #[test]
    fn responses_render_deterministically() {
        assert_eq!(
            render_ok(3, "1,2.", &[1, 2]),
            r#"{"id":3,"ok":true,"text":"1,2.","values":[1,2]}"#
        );
        assert_eq!(
            render_overloaded(9, 128),
            r#"{"id":9,"ok":false,"error":"overloaded","queue_cap":128}"#
        );
        assert_eq!(
            render_chunk(4, "20,"),
            r#"{"id":4,"event":"chunk","text":"20,"}"#
        );
    }
}
