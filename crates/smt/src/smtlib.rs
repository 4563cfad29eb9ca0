//! A text frontend for the solver: an SMT-LIB 2 *subset* parser and script
//! runner.
//!
//! Makes the solver usable standalone (and testable against hand-written
//! problems) without going through the rule DSL. Supported forms:
//!
//! ```text
//! (declare-const x Int)              ; bounded via :lo/:hi annotations, or
//! (declare-const x (Int 0 60))       ; the shorthand bounded-int sort
//! (declare-const b Bool)
//! (assert <term>)
//! (push) (pop)
//! (check-sat)                        ; prints sat/unsat/unknown
//! (get-value (x y))                  ; after sat
//! (minimize x) (maximize x)
//! (get-stats)                        ; non-standard: per-check cost profile
//! ```
//!
//! Terms: integer literals, declared constants, `(+ …)`, `(- a b)`,
//! `(- a)`, `(* c t)` with a literal coefficient, comparisons
//! `< <= > >= = distinct`, and booleans `and or not => true false ite`-free.
//!
//! Unbounded `Int` constants default to a wide-but-finite range
//! (±2³¹), since the decision procedure requires finite branching.

#![expect(
    clippy::indexing_slicing,
    reason = "the s-expression reader indexes the script's bytes below the loop guard `i < bytes.len()`, and slices between two such positions"
)]
#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the reader's stack starts with one frame and only a `)` with a parent pops, so it is never empty; the final pop follows the length-1 check"
)]

use std::fmt;

use crate::solver::{SatResult, Solver};
use crate::term::{Sort, TermId, VarId};

/// Default bounds for plain `Int` declarations.
const DEFAULT_LO: i64 = -(1 << 31);
/// Default bounds for plain `Int` declarations.
const DEFAULT_HI: i64 = 1 << 31;

/// An S-expression.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Sexp {
    Atom(String),
    List(Vec<Sexp>),
}

/// A parse or execution error with position info.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmtLibError {
    /// Byte offset (parse errors) or 0 (execution errors).
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SmtLibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "smtlib error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SmtLibError {}

fn err(offset: usize, message: impl Into<String>) -> SmtLibError {
    SmtLibError {
        offset,
        message: message.into(),
    }
}

/// Tokenizes and parses all top-level S-expressions.
fn parse_sexps(src: &str) -> Result<Vec<Sexp>, SmtLibError> {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut stack: Vec<Vec<Sexp>> = vec![Vec::new()];
    while i < bytes.len() {
        match bytes[i] as char {
            c if c.is_whitespace() => i += 1,
            ';' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                stack.push(Vec::new());
                i += 1;
            }
            ')' => {
                let done = stack.pop().ok_or_else(|| err(i, "unbalanced `)`"))?;
                let parent = stack.last_mut().ok_or_else(|| err(i, "unbalanced `)`"))?;
                parent.push(Sexp::List(done));
                i += 1;
            }
            _ => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_whitespace() || c == '(' || c == ')' || c == ';' {
                        break;
                    }
                    i += 1;
                }
                stack
                    .last_mut()
                    .expect("stack never empty")
                    .push(Sexp::Atom(src[start..i].to_string()));
            }
        }
    }
    if stack.len() != 1 {
        return Err(err(src.len(), "unbalanced `(`"));
    }
    Ok(stack.pop().unwrap())
}

/// The outcome of running a script: every line of output the script
/// produced (`sat`, values, objective results, …).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScriptOutput {
    /// One entry per output-producing command, in order.
    pub lines: Vec<String>,
}

/// Runs an SMT-LIB-subset script against a fresh [`Solver`].
pub fn run_script(src: &str) -> Result<ScriptOutput, SmtLibError> {
    let sexps = parse_sexps(src)?;
    let mut solver = Solver::new();
    let mut out = ScriptOutput::default();
    for form in sexps {
        exec(&mut solver, &form, &mut out)?;
    }
    Ok(out)
}

fn atom(s: &Sexp) -> Option<&str> {
    match s {
        Sexp::Atom(a) => Some(a),
        Sexp::List(_) => None,
    }
}

fn exec(solver: &mut Solver, form: &Sexp, out: &mut ScriptOutput) -> Result<(), SmtLibError> {
    let Sexp::List(items) = form else {
        return Err(err(0, format!("expected a command list, found {form:?}")));
    };
    let head = items
        .first()
        .and_then(atom)
        .ok_or_else(|| err(0, "empty command"))?;
    match head {
        "declare-const" | "declare-fun" => {
            // (declare-const x Int) | (declare-const x (Int lo hi)) |
            // (declare-fun x () Int)
            let name = items
                .get(1)
                .and_then(atom)
                .ok_or_else(|| err(0, "declare-const needs a name"))?;
            let sort = match head {
                "declare-const" => items.get(2),
                _ => {
                    // declare-fun must have an empty argument list.
                    match items.get(2) {
                        Some(Sexp::List(args)) if args.is_empty() => {}
                        _ => return Err(err(0, "only zero-arity declare-fun is supported")),
                    }
                    items.get(3)
                }
            }
            .ok_or_else(|| err(0, "declaration needs a sort"))?;
            match sort {
                Sexp::Atom(s) if s == "Int" => {
                    solver.int_var(name, DEFAULT_LO, DEFAULT_HI);
                }
                Sexp::Atom(s) if s == "Bool" => {
                    solver.bool_var(name);
                }
                Sexp::List(parts) => {
                    // (Int lo hi)
                    let ok = parts.len() == 3 && atom(&parts[0]) == Some("Int");
                    if !ok {
                        return Err(err(0, "expected (Int lo hi)"));
                    }
                    let lo = parse_int(&parts[1])?;
                    let hi = parse_int(&parts[2])?;
                    if lo > hi {
                        return Err(err(0, "empty bounded-int range"));
                    }
                    solver.int_var(name, lo, hi);
                }
                other => return Err(err(0, format!("unsupported sort {other:?}"))),
            }
        }
        "assert" => {
            let t = items.get(1).ok_or_else(|| err(0, "assert needs a term"))?;
            let term = build_term(solver, t)?;
            if solver.pool().sort_of(term) != Sort::Bool {
                return Err(err(0, "assert needs a boolean term"));
            }
            solver.assert(term);
        }
        "push" => solver.push(),
        "pop" => {
            if solver.num_frames() == 0 {
                return Err(err(0, "pop without matching push"));
            }
            solver.pop();
        }
        "check-sat" => {
            let result = solver
                .check()
                .map_err(|e| err(0, format!("check-sat failed: {e}")))?;
            let line = match result {
                SatResult::Sat => "sat",
                SatResult::Unsat => "unsat",
                SatResult::Unknown => "unknown",
            };
            out.lines.push(line.to_string());
        }
        "get-value" => {
            let Some(Sexp::List(names)) = items.get(1) else {
                return Err(err(0, "get-value needs a list of constants"));
            };
            let model = solver
                .model()
                .cloned()
                .ok_or_else(|| err(0, "get-value before a sat check-sat"))?;
            let mut parts = Vec::new();
            for n in names {
                let name = atom(n).ok_or_else(|| err(0, "get-value: expected a name"))?;
                let v = lookup(solver, name)?;
                let rendered = match solver.pool().var_info(v).sort {
                    Sort::Int => model
                        .int_value(v)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".to_string()),
                    Sort::Bool => model.bool_value(v).to_string(),
                };
                parts.push(format!("({name} {rendered})"));
            }
            out.lines.push(format!("({})", parts.join(" ")));
        }
        "minimize" | "maximize" => {
            let name = items
                .get(1)
                .and_then(atom)
                .ok_or_else(|| err(0, "objective needs a constant name"))?;
            let v = lookup(solver, name)?;
            let result = if head == "minimize" {
                solver.minimize(v)
            } else {
                solver.maximize(v)
            };
            let result = result.map_err(|e| err(0, format!("objective failed: {e}")))?;
            out.lines.push(match result {
                Some(x) => format!("({head} {name} {x})"),
                None => format!("({head} {name} unsat)"),
            });
        }
        "get-stats" => {
            // Non-standard: the solver's per-check cost profile (DPLL(T)
            // checks, warm-tableau work, cache traffic) as one
            // `(:key value …)` attribute line, in the spirit of Z3's
            // `(get-info :all-statistics)`.
            let s = solver.stats();
            out.lines.push(format!(
                "(:checks {} :searches {} :implicant-answers {} \
                 :spine-answers {} :walks {} :theory-checks {} :theory-conflicts {} \
                 :theory-propagations {} \
                 :theory-explanations {} :tableau-builds {} :slack-rows {} \
                 :slack-row-hits {} :pivots {} :bnb-nodes {} \
                 :encode-cache {}/{})",
                s.checks,
                s.searches,
                s.implicant_answers,
                s.spine_answers,
                s.walks,
                s.theory_checks,
                s.theory_conflicts,
                s.theory_propagations,
                s.theory_explanations,
                s.tableau_builds,
                s.slack_rows_built,
                s.slack_row_hits,
                s.pivots,
                s.bnb_nodes,
                s.encode_cache_hits,
                s.encode_cache_hits + s.encode_cache_misses,
            ));
        }
        "set-logic" | "set-option" | "set-info" | "exit" => {} // accepted, ignored
        other => return Err(err(0, format!("unsupported command `{other}`"))),
    }
    Ok(())
}

fn lookup(solver: &Solver, name: &str) -> Result<VarId, SmtLibError> {
    solver
        .pool()
        .find_var(name)
        .ok_or_else(|| err(0, format!("undeclared constant `{name}`")))
}

fn parse_int(s: &Sexp) -> Result<i64, SmtLibError> {
    match s {
        Sexp::Atom(a) => a
            .parse::<i64>()
            .map_err(|e| err(0, format!("bad integer `{a}`: {e}"))),
        // SMT-LIB negative literals: (- 5)
        Sexp::List(parts) if parts.len() == 2 && atom(&parts[0]) == Some("-") => {
            Ok(-parse_int(&parts[1])?)
        }
        other => Err(err(0, format!("expected integer, found {other:?}"))),
    }
}

fn build_term(solver: &mut Solver, s: &Sexp) -> Result<TermId, SmtLibError> {
    match s {
        Sexp::Atom(a) => {
            if a == "true" {
                return Ok(solver.pool_mut().tt());
            }
            if a == "false" {
                return Ok(solver.pool_mut().ff());
            }
            if let Ok(n) = a.parse::<i64>() {
                return Ok(solver.int(n));
            }
            let v = lookup(solver, a)?;
            Ok(solver.var(v))
        }
        Sexp::List(items) => {
            let head = items
                .first()
                .and_then(atom)
                .ok_or_else(|| err(0, "empty term"))?;
            let args: Vec<&Sexp> = items[1..].iter().collect();
            let need = |n: usize| -> Result<(), SmtLibError> {
                if args.len() == n {
                    Ok(())
                } else {
                    Err(err(0, format!("`{head}` expects {n} arguments")))
                }
            };
            match head {
                "+" => {
                    let kids: Vec<TermId> = args
                        .iter()
                        .map(|a| build_term(solver, a))
                        .collect::<Result<_, _>>()?;
                    Ok(solver.add(&kids))
                }
                "-" => match args.len() {
                    1 => {
                        let t = build_term(solver, args[0])?;
                        Ok(solver.mul_const(-1, t))
                    }
                    2 => {
                        let a = build_term(solver, args[0])?;
                        let b = build_term(solver, args[1])?;
                        Ok(solver.sub(a, b))
                    }
                    _ => Err(err(0, "`-` expects 1 or 2 arguments")),
                },
                "*" => {
                    need(2)?;
                    let a = build_term(solver, args[0])?;
                    let b = build_term(solver, args[1])?;
                    match (solver.pool().as_int_const(a), solver.pool().as_int_const(b)) {
                        (Some(c), _) => Ok(solver.mul_const(c, b)),
                        (_, Some(c)) => Ok(solver.mul_const(c, a)),
                        _ => Err(err(
                            0,
                            "`*` needs a literal coefficient (linear arithmetic)",
                        )),
                    }
                }
                "<" | "<=" | ">" | ">=" | "=" | "distinct" => {
                    need(2)?;
                    let a = build_term(solver, args[0])?;
                    let b = build_term(solver, args[1])?;
                    // `=` over booleans is iff; over ints it is equality.
                    if head == "=" && solver.pool().sort_of(a) == Sort::Bool {
                        return Ok(solver.pool_mut().iff(a, b));
                    }
                    Ok(match head {
                        "<" => solver.lt(a, b),
                        "<=" => solver.le(a, b),
                        ">" => solver.gt(a, b),
                        ">=" => solver.ge(a, b),
                        "=" => solver.eq(a, b),
                        _ => solver.ne(a, b),
                    })
                }
                "and" | "or" => {
                    let kids: Vec<TermId> = args
                        .iter()
                        .map(|a| build_term(solver, a))
                        .collect::<Result<_, _>>()?;
                    Ok(if head == "and" {
                        solver.and(&kids)
                    } else {
                        solver.or(&kids)
                    })
                }
                "not" => {
                    need(1)?;
                    let t = build_term(solver, args[0])?;
                    Ok(solver.not(t))
                }
                "=>" => {
                    need(2)?;
                    let a = build_term(solver, args[0])?;
                    let b = build_term(solver, args[1])?;
                    Ok(solver.implies(a, b))
                }
                other => Err(err(0, format!("unsupported operator `{other}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_and_values() {
        let out = run_script(
            "(declare-const x (Int 0 10))
             (declare-const y (Int 0 10))
             (assert (= (+ x y) 7))
             (assert (>= x 5))
             (check-sat)
             (get-value (x y))",
        )
        .unwrap();
        assert_eq!(out.lines[0], "sat");
        // Parse back the values and verify the constraints.
        let vals: Vec<i64> = out.lines[1]
            .split(|c: char| !c.is_ascii_digit() && c != '-')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0] + vals[1], 7);
        assert!(vals[0] >= 5);
    }

    #[test]
    fn unsat_detection() {
        let out = run_script(
            "(declare-const x (Int 0 10))
             (assert (> x 4))
             (assert (< x 3))
             (check-sat)",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["unsat"]);
    }

    #[test]
    fn push_pop_scoping() {
        let out = run_script(
            "(declare-const x (Int 0 10))
             (assert (<= x 5))
             (check-sat)
             (push)
             (assert (>= x 6))
             (check-sat)
             (pop)
             (check-sat)",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["sat", "unsat", "sat"]);
    }

    #[test]
    fn objectives() {
        let out = run_script(
            "(declare-const x (Int 0 60))
             (declare-const y (Int 0 60))
             (assert (= (+ x y) 100))
             (minimize x)
             (maximize x)",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["(minimize x 40)", "(maximize x 60)"]);
    }

    #[test]
    fn booleans_and_implication() {
        let out = run_script(
            "(declare-const b Bool)
             (declare-const x (Int 0 10))
             (assert (=> b (>= x 7)))
             (assert b)
             (check-sat)
             (minimize x)",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["sat", "(minimize x 7)"]);
    }

    #[test]
    fn negative_literals_and_arith() {
        let out = run_script(
            "(declare-const x (Int (- 10) 10))
             (assert (= (* 2 x) (- 0 8)))
             (check-sat)
             (get-value (x))",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["sat", "((x -4))"]);
    }

    #[test]
    fn distinct_and_iff() {
        let out = run_script(
            "(declare-const a Bool)
             (declare-const b Bool)
             (assert (= a b))
             (assert a)
             (check-sat)
             (get-value (b))",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["sat", "((b true))"]);
        let out = run_script(
            "(declare-const x (Int 0 1))
             (declare-const y (Int 0 1))
             (assert (distinct x y))
             (assert (= x 1))
             (check-sat)
             (get-value (y))",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["sat", "((y 0))"]);
    }

    #[test]
    fn declare_fun_zero_arity() {
        let out = run_script(
            "(set-logic QF_LIA)
             (declare-fun x () (Int 0 5))
             (assert (>= x 5))
             (check-sat)
             (get-value (x))",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["sat", "((x 5))"]);
    }

    #[test]
    fn comments_are_ignored() {
        let out = run_script(
            "; a header comment
             (declare-const x (Int 0 3)) ; trailing
             (check-sat)",
        )
        .unwrap();
        assert_eq!(out.lines, vec!["sat"]);
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_script("(assert (> x 0))")
            .unwrap_err()
            .message
            .contains("undeclared"));
        assert!(run_script("(pop)").unwrap_err().message.contains("pop"));
        assert!(run_script("(declare-const x Real)")
            .unwrap_err()
            .message
            .contains("sort"));
        assert!(run_script("(declare-const x (Int 0 10)) (assert (* x x))")
            .unwrap_err()
            .message
            .contains("coefficient"));
        assert!(run_script("(foo)")
            .unwrap_err()
            .message
            .contains("unsupported command"));
        assert!(run_script("((").unwrap_err().message.contains("unbalanced"));
        assert!(run_script(")").unwrap_err().message.contains("unbalanced"));
    }

    #[test]
    fn get_stats_reports_cost_profile() {
        let out = run_script(
            "(declare-const x (Int 0 60))
             (declare-const y (Int 0 60))
             (assert (= (+ x y) 100))
             (check-sat)
             (check-sat)
             (get-stats)",
        )
        .unwrap();
        assert_eq!(out.lines[0], "sat");
        let stats = &out.lines[2];
        // The first `check-sat` was answered by the spine — the sum the
        // assertion forces, its model walked once — and the second met the
        // implicant of that model.
        assert!(
            stats.starts_with(
                "(:checks 2 :searches 0 :implicant-answers 1 :spine-answers 1 :walks 1 "
            ),
            "{stats}"
        );
        for key in [
            ":theory-checks",
            ":theory-propagations",
            ":theory-explanations",
            ":tableau-builds",
            ":pivots",
            ":bnb-nodes",
            ":encode-cache",
        ] {
            assert!(stats.contains(key), "missing {key} in {stats}");
        }
    }

    #[test]
    fn get_value_before_sat_errors() {
        let e = run_script("(declare-const x (Int 0 1)) (get-value (x))").unwrap_err();
        assert!(e.message.contains("before"));
    }

    #[test]
    fn assert_nonboolean_errors() {
        let e = run_script("(declare-const x (Int 0 1)) (assert (+ x 1))").unwrap_err();
        assert!(e.message.contains("boolean"));
    }
}
