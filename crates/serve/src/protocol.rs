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
//! `rules` overrides the server's rule set with an inline DSL program,
//! which must fit the server's window and `i64` arithmetic
//! (`check_inline_rules`). `coarse` entries are counts in
//! `0..=`[`MAX_COARSE`]; anything else is a `bad_request`. A line longer
//! than [`MAX_LINE_BYTES`] or not UTF-8 is answered with `bad_request` and
//! ends the connection.
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
use lejit_rules::{Expr, Pred, RuleSet};
use lejit_telemetry::CoarseSignals;
use serde_json::Value;

/// Largest accepted `coarse` entry. The fields are per-window byte and
/// packet counts; 2⁴⁰ is far above any real window and a factor of 2²³
/// below `i64::MAX`, so grounding (sums of six entries times rule
/// coefficients) stays in range while those coefficients are small — true
/// of the server rule set and of mined ones. An inline `rules` override
/// writes its own coefficients; `check_inline_rules` bounds those against
/// this cap before the request is queued.
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

/// The bounds [`check_inline_rules`] holds an inline rule set to.
struct RuleBounds {
    /// Magnitude of one fine step: the bandwidth, and at least 1 so that a
    /// step's coefficient is bounded along with its value.
    fine: i128,
    /// Fine steps per window.
    steps: i128,
}

impl RuleBounds {
    /// Largest magnitude a comparison's two sides may reach together: what
    /// `i64` holds, less the 1 a strict comparison and the 1 a negated atom
    /// add.
    const LIMIT: i128 = i64::MAX as i128 - 2;

    fn within(m: i128) -> Result<i128, String> {
        if m <= Self::LIMIT {
            Ok(m)
        } else {
            Err("constants overflow 64-bit arithmetic".to_string())
        }
    }

    /// The largest magnitude `e` can take with cancellation ignored: `|c|`
    /// per constant, [`MAX_COARSE`] per coarse field, the bandwidth per fine
    /// step, sums added and products multiplied. Each subexpression is held
    /// to the limit on its own, because grounding folds it before its parent
    /// scales or cancels it — which also keeps these `i128` products (two
    /// factors of at most 2⁶³) in range.
    fn magnitude(&self, e: &Expr) -> Result<i128, String> {
        Self::within(match e {
            Expr::Const(n) => i128::from(*n).abs(),
            Expr::Coarse(_) => i128::from(MAX_COARSE),
            Expr::FineAt(k) if i128::try_from(*k).map_or(true, |k| k >= self.steps) => {
                return Err(format!(
                    "fine[{k}] is outside the {}-step window",
                    self.steps
                ));
            }
            Expr::FineAt(_)
            | Expr::FineVar
            | Expr::FineVarPlus(_)
            | Expr::MaxFine
            | Expr::MinFine => self.fine,
            Expr::SumFine => self.fine.saturating_mul(self.steps),
            Expr::Add(kids) => kids.iter().try_fold(0i128, |sum, k| {
                Ok::<_, String>(sum.saturating_add(self.magnitude(k)?))
            })?,
            Expr::Sub(a, b) => self.magnitude(a)? + self.magnitude(b)?,
            Expr::MulConst(c, inner) => i128::from(*c).abs() * self.magnitude(inner)?,
        })
    }

    fn check(&self, p: &Pred) -> Result<(), String> {
        match p {
            Pred::Cmp(_, a, b) => Self::within(self.magnitude(a)? + self.magnitude(b)?).map(drop),
            Pred::And(kids) | Pred::Or(kids) => kids.iter().try_for_each(|k| self.check(k)),
            Pred::Not(x) | Pred::ForallT(x) | Pred::ExistsT(x) => self.check(x),
            Pred::Implies(a, b) => {
                self.check(a)?;
                self.check(b)
            }
        }
    }
}

/// Refuses an inline rule set the shard threads could not ground without a
/// panic: a `fine[k]` past the window, or a comparison whose sides can leave
/// `i64` (what the grammar itself cannot ground, `parse_rules` has already
/// refused). Every value that
/// constant folding, `mul_const` or the `lhs - rhs <= 0` normal form
/// produces from a comparison is a signed partial sum of the terms
/// `RuleBounds::magnitude` adds up, so bounding that sum keeps all of them
/// representable. (The `i128` rationals inside simplex are not covered.)
pub(crate) fn check_inline_rules(
    rules: &RuleSet,
    window_len: usize,
    bandwidth: i64,
) -> Result<(), String> {
    let bounds = RuleBounds {
        fine: i128::from(bandwidth.max(1)),
        steps: i128::try_from(window_len).unwrap_or(i128::MAX),
    };
    rules.rules.iter().try_for_each(|rule| {
        bounds
            .check(&rule.pred)
            .map_err(|e| format!("rule `{}`: {e}", rule.name))
    })
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
    fn inline_rules_are_bounded_by_what_i64_grounding_can_hold() {
        let check = |src: &str| check_inline_rules(&lejit_rules::parse_rules(src).unwrap(), 5, 60);
        // Exactly at the limit and one past it: a coarse field weighs
        // MAX_COARSE, a fine step the bandwidth, sum(fine) five of them.
        let room = RuleBounds::LIMIT as i64;
        for (lhs, weight) in [
            ("total_ingress", MAX_COARSE),
            ("fine[4]", 60),
            ("sum(fine)", 300),
            ("2 * (fine[0] - drops)", 2 * (60 + MAX_COARSE)),
        ] {
            let rule = |c: i64| format!("rule x: {lhs} <= {c};");
            assert_eq!(check(&rule(room - weight)), Ok(()), "{lhs}");
            let err = check(&rule(room - weight + 1)).unwrap_err();
            assert!(
                err.contains("rule `x`") && err.contains("overflow"),
                "{err}"
            );
        }
        // Held per subexpression, not only per comparison: grounding folds
        // the inner sum before the zero drops it.
        let max = i64::MAX;
        assert!(check(&format!("rule x: 0 * ({max} + {max}) >= 0;")).is_err());
        assert!(check(&format!(
            "rule x: {max} * ({max} * ({max} * fine[0])) >= 0;"
        ))
        .is_err());
        // A coefficient is bounded even where the bandwidth is zero.
        let rules = lejit_rules::parse_rules(&format!("rule x: {max} * fine[0] >= 0;")).unwrap();
        assert!(check_inline_rules(&rules, 5, 0).is_err());
        // Window and shape.
        assert!(check("rule x: fine[5] >= 0;")
            .unwrap_err()
            .contains("fine[5]"));
        assert!(check("rule x: forall t: fine[t+9] >= fine[t];").is_ok());
        assert!(check("rule x: ecn_bytes > 0 => max(fine) >= 45;").is_ok());
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
