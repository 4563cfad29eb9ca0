//! The differential harness of the standing implicant: one seeded script of
//! `push` / `assert` / `fix` / `retract` and range queries against one
//! long-lived [`Solver`], every answer checked three ways —
//!
//! * against brute force over the whole box (three integers in `[0, 19]`
//!   and one Boolean), which knows nothing of the solver;
//! * against a fresh `Solver` rebuilt from the live assertions for that one
//!   query, whose first check is always a search;
//! * every `Sat` model evaluated against every live assertion, and every
//!   `Unsat` required to have come from a search or a spine refutation —
//!   never from the implicant.
//!
//! Formulas are rule-shaped: bounded sums, `max`/`min` thresholds,
//! implications between them, windows (a disjunction of ranges, up to six
//! disjoint ones as a decoder's exact probe sends them), pure
//! conjunctions (a box bound beside a bounded sum), which the spine takes
//! whole, and now and then the Boolean variable, under which no implicant
//! can stand.
//!
//! Shared, by `#[path]`, between `crates/smt/tests/implicant_differential.rs`
//! (the proptest) and the root package's `tests/implicant_differential.rs`
//! (a fixed slice of seeds that tier-1 runs).

use lejit_smt::{SatResult, Solver, TermId, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VARS: usize = 3;
const HI: i64 = 19;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Cmp {
    Le,
    Ge,
    Eq,
}

impl Cmp {
    fn holds(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Le => a <= b,
            Cmp::Ge => a >= b,
            Cmp::Eq => a == b,
        }
    }
}

#[derive(Clone, Debug)]
enum Rule {
    /// `sum(vars) ⋈ c`; over one variable, a bound or a fix.
    Sum(Vec<usize>, Cmp, i64),
    /// `max(vars) ⋈ c`, `⋈` one of `<=`, `>=`.
    Max(Vec<usize>, Cmp, i64),
    /// `min(vars) ⋈ c`, likewise.
    Min(Vec<usize>, Cmp, i64),
    Implies(Box<Rule>, Box<Rule>),
    Any(Vec<Rule>),
    All(Vec<Rule>),
    /// The Boolean variable.
    Flag,
}

impl Rule {
    fn range(var: usize, a: i64, b: i64) -> Rule {
        Rule::All(vec![
            Rule::Sum(vec![var], Cmp::Ge, a),
            Rule::Sum(vec![var], Cmp::Le, b),
        ])
    }

    fn holds(&self, x: &[i64; VARS], flag: bool) -> bool {
        let pick = |vars: &[usize]| -> Vec<i64> { vars.iter().map(|&v| x[v]).collect() };
        match self {
            Rule::Sum(vars, cmp, c) => cmp.holds(pick(vars).iter().sum(), *c),
            Rule::Max(vars, cmp, c) => cmp.holds(pick(vars).into_iter().max().unwrap(), *c),
            Rule::Min(vars, cmp, c) => cmp.holds(pick(vars).into_iter().min().unwrap(), *c),
            Rule::Implies(a, b) => !a.holds(x, flag) || b.holds(x, flag),
            Rule::Any(rules) => rules.iter().any(|r| r.holds(x, flag)),
            Rule::All(rules) => rules.iter().all(|r| r.holds(x, flag)),
            Rule::Flag => flag,
        }
    }

    fn build(&self, s: &mut Solver, vars: &[VarId], flag: VarId) -> TermId {
        let terms = |s: &mut Solver, picked: &[usize]| -> Vec<TermId> {
            picked.iter().map(|&v| s.var(vars[v])).collect()
        };
        match self {
            Rule::Sum(picked, cmp, c) => {
                let ts = terms(s, picked);
                let (sum, c) = (s.add(&ts), s.int(*c));
                match cmp {
                    Cmp::Le => s.le(sum, c),
                    Cmp::Ge => s.ge(sum, c),
                    Cmp::Eq => s.eq(sum, c),
                }
            }
            Rule::Max(picked, cmp, c) => {
                let (ts, c) = (terms(s, picked), s.int(*c));
                match cmp {
                    Cmp::Ge => s.pool_mut().max_ge(&ts, c),
                    _ => s.pool_mut().max_le(&ts, c),
                }
            }
            Rule::Min(picked, cmp, c) => {
                let (ts, c) = (terms(s, picked), s.int(*c));
                match cmp {
                    Cmp::Ge => s.pool_mut().min_ge(&ts, c),
                    _ => s.pool_mut().min_le(&ts, c),
                }
            }
            Rule::Implies(a, b) => {
                let (a, b) = (a.build(s, vars, flag), b.build(s, vars, flag));
                s.implies(a, b)
            }
            Rule::Any(rules) => {
                let ts: Vec<TermId> = rules.iter().map(|r| r.build(s, vars, flag)).collect();
                s.or(&ts)
            }
            Rule::All(rules) => {
                let ts: Vec<TermId> = rules.iter().map(|r| r.build(s, vars, flag)).collect();
                s.and(&ts)
            }
            Rule::Flag => s.var(flag),
        }
    }
}

fn some_vars(rng: &mut StdRng) -> Vec<usize> {
    let mut vars: Vec<usize> = (0..VARS).filter(|_| rng.random_bool(0.7)).collect();
    if vars.is_empty() {
        vars.push(rng.random_range(0..VARS));
    }
    vars
}

/// A threshold rule over the series, as a grounded mined rule reads.
fn threshold(rng: &mut StdRng) -> Rule {
    let vars = some_vars(rng);
    let n = vars.len() as i64;
    match rng.random_range(0..6) {
        0 => Rule::Sum(vars, Cmp::Le, rng.random_range(HI / 2..=n * HI)),
        1 => Rule::Sum(vars, Cmp::Ge, rng.random_range(0..=n * HI / 2)),
        2 => Rule::Max(vars, Cmp::Ge, rng.random_range(1..=HI)),
        3 => Rule::Max(vars, Cmp::Le, rng.random_range(HI / 2..=HI)),
        4 => Rule::Min(vars, Cmp::Le, rng.random_range(0..=HI / 2)),
        _ => Rule::Min(vars, Cmp::Ge, rng.random_range(0..=HI / 2)),
    }
}

fn rule(rng: &mut StdRng) -> Rule {
    match rng.random_range(0..12) {
        0..=4 => threshold(rng),
        5 => {
            let n = VARS as i64;
            Rule::Sum(
                (0..VARS).collect(),
                Cmp::Eq,
                rng.random_range(n..=n * HI / 2),
            )
        }
        6 | 7 => Rule::Implies(Box::new(threshold(rng)), Box::new(threshold(rng))),
        8 => Rule::Any(vec![threshold(rng), threshold(rng)]),
        9 => Rule::Implies(Box::new(Rule::Flag), Box::new(threshold(rng))),
        _ => {
            let var = rng.random_range(0..VARS);
            let a = rng.random_range(0..=HI / 2);
            let vars = some_vars(rng);
            let n = vars.len() as i64;
            Rule::All(vec![
                Rule::range(var, a, rng.random_range(a..=HI)),
                Rule::Sum(vars, Cmp::Le, rng.random_range(HI / 2..=n * HI)),
            ])
        }
    }
}

/// A window query: the decimal extensions of a prefix, as the transition
/// system asks for them.
fn window(rng: &mut StdRng) -> Rule {
    let var = rng.random_range(0..VARS);
    let ranges = (0..rng.random_range(1..=3))
        .map(|_| {
            let a = rng.random_range(0..=HI);
            Rule::range(var, a, rng.random_range(a..=HI))
        })
        .collect();
    Rule::Any(ranges)
}

/// Up to six disjoint, non-adjacent ranges of `var`, ascending: the shape
/// of the exact window probe a decoder sends when its interval knowledge
/// cannot answer.
fn disjoint_windows(rng: &mut StdRng, var: usize) -> Rule {
    let mut ranges = Vec::new();
    let mut a = rng.random_range(0..=HI / 2);
    for _ in 0..rng.random_range(1..=6) {
        if a > HI {
            break;
        }
        let b = rng.random_range(a..=(a + 3).min(HI));
        ranges.push(Rule::range(var, a, b));
        a = b + rng.random_range(2..=4);
    }
    Rule::Any(ranges)
}

/// The live assertions frame by frame (the root first), the long-lived
/// solver that has seen every step of the script, and brute force's view.
struct World {
    frames: Vec<Vec<Rule>>,
    /// The live solver's term for every live assertion, frame by frame.
    terms: Vec<Vec<TermId>>,
    live: Solver,
    vars: Vec<VarId>,
    flag: VarId,
    /// Every point of the box the live assertions admit.
    feasible: Vec<([i64; VARS], bool)>,
    tally: Tally,
}

/// Who answered the script's queries: the live solver's counters, the
/// spine's answers to `check_assuming` by verdict, and how many of those
/// the spine gave while it held literals that the live fixes derived from
/// a disjunction (an implication's consequent, say).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub searches: u64,
    pub implicant_answers: u64,
    pub spine_sat: u64,
    pub spine_unsat: u64,
    pub spine_pinned: u64,
}

fn declare(s: &mut Solver) -> (Vec<VarId>, VarId) {
    let vars = (0..VARS)
        .map(|v| s.int_var(&format!("x{v}"), 0, HI))
        .collect();
    (vars, s.bool_var("flag"))
}

impl World {
    fn new() -> World {
        let mut live = Solver::new();
        let (vars, flag) = declare(&mut live);
        let mut w = World {
            frames: vec![Vec::new()],
            terms: vec![Vec::new()],
            live,
            vars,
            flag,
            feasible: Vec::new(),
            tally: Tally::default(),
        };
        w.recount();
        w
    }

    fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.frames.iter().flatten()
    }

    fn recount(&mut self) {
        let mut feasible = Vec::new();
        let mut x = [0i64; VARS];
        'odometer: loop {
            for flag in [false, true] {
                if self.rules().all(|r| r.holds(&x, flag)) {
                    feasible.push((x, flag));
                }
            }
            for digit in x.iter_mut() {
                if *digit < HI {
                    *digit += 1;
                    continue 'odometer;
                }
                *digit = 0;
            }
            break;
        }
        self.feasible = feasible;
    }

    /// The feasible values of `var` among the points `also` admits, ascending.
    fn projection(&self, var: usize, also: &[Rule]) -> Vec<i64> {
        let mut values: Vec<i64> = self
            .feasible
            .iter()
            .filter(|(x, flag)| also.iter().all(|r| r.holds(x, *flag)))
            .map(|(x, _)| x[var])
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// A solver that has seen nothing but the live assertions.
    fn fresh(&self) -> (Solver, Vec<VarId>, VarId) {
        let mut s = Solver::new();
        let (vars, flag) = declare(&mut s);
        for (depth, frame) in self.frames.iter().enumerate() {
            if depth > 0 {
                s.push();
            }
            for r in frame {
                let t = r.build(&mut s, &vars, flag);
                s.assert(t);
            }
        }
        (s, vars, flag)
    }

    fn assert(&mut self, r: Rule) {
        let t = r.build(&mut self.live, &self.vars, self.flag);
        self.live.assert(t);
        self.frames.last_mut().unwrap().push(r);
        self.terms.last_mut().unwrap().push(t);
        self.recount();
    }

    /// The live solver's model satisfies every live assertion, the declared
    /// bounds and `also`; it is a point brute force found.
    fn check_model(&mut self, also: &[Rule], what: &str) {
        let model = self.live.model().expect("Sat without a model").clone();
        let mut x = [0i64; VARS];
        for (slot, &v) in x.iter_mut().zip(&self.vars) {
            *slot = model.int_value(v).expect("integer missing from the model");
            assert!(
                (0..=HI).contains(slot),
                "{what}: {v:?} = {slot} out of bounds"
            );
        }
        for &t in self.terms.iter().flatten() {
            assert_eq!(
                model.eval_bool(self.live.pool(), t),
                Ok(true),
                "{what}: model {x:?} breaks live assertion {}",
                self.live.pool().display(t)
            );
        }
        let flag = model.bool_value(self.flag);
        assert!(
            self.rules().chain(also).all(|r| r.holds(&x, flag)),
            "{what}: model {x:?}, flag {flag}, is not a point of the box"
        );
    }

    /// `check_assuming` over `also`, live against fresh against brute force.
    fn query(&mut self, also: &[Rule], what: &str) {
        let expected = if self.projection(0, also).is_empty() {
            SatResult::Unsat
        } else {
            SatResult::Sat
        };
        let (mut fresh, vars, flag) = self.fresh();
        let assumptions: Vec<TermId> = also
            .iter()
            .map(|r| r.build(&mut fresh, &vars, flag))
            .collect();
        assert_eq!(
            fresh.check_assuming(&assumptions),
            Ok(expected),
            "{what} (fresh)"
        );
        let assumptions: Vec<TermId> = also
            .iter()
            .map(|r| r.build(&mut self.live, &self.vars, self.flag))
            .collect();
        let before = self.live.stats();
        assert_eq!(
            self.live.check_assuming(&assumptions),
            Ok(expected),
            "{what}"
        );
        let after = self.live.stats();
        let by_spine = after.spine_answers > before.spine_answers;
        self.tally.spine_pinned += after.pinned_spine_answers - before.pinned_spine_answers;
        match expected {
            SatResult::Sat => {
                self.tally.spine_sat += u64::from(by_spine);
                self.check_model(also, what);
            }
            _ => {
                self.tally.spine_unsat += u64::from(by_spine);
                assert!(
                    by_spine || after.searches > before.searches,
                    "{what}: Unsat from neither a search nor a spine refutation"
                );
            }
        }
    }

    fn step(&mut self, rng: &mut StdRng, i: usize) {
        let var = rng.random_range(0..VARS);
        let v = self.vars[var];
        let values = self.projection(var, &[]);
        let hull = values.first().copied().zip(values.last().copied());
        match rng.random_range(0..14) {
            0 if self.frames.len() < 4 => {
                self.live.push();
                self.frames.push(Vec::new());
                self.terms.push(Vec::new());
            }
            1 if self.frames.len() > 1 => {
                self.live.retract();
                self.frames.pop();
                self.terms.pop();
                self.recount();
            }
            0..=2 => self.assert(rule(rng)),
            // A fix: mostly to a value that is still feasible, as a decode
            // would; now and then to any value.
            3 | 4 => {
                let value = if values.is_empty() || rng.random_bool(0.15) {
                    rng.random_range(0..=HI)
                } else {
                    values[rng.random_range(0..values.len())]
                };
                self.assert(Rule::Sum(vec![var], Cmp::Eq, value));
            }
            5 => self.query(&[], &format!("step {i}: check")),
            6 => self.query(&[window(rng)], &format!("step {i}: window")),
            7 => {
                let a = rng.random_range(0..=HI);
                let also = [
                    Rule::range(var, a, rng.random_range(a..=HI)),
                    threshold(rng),
                ];
                self.query(&also, &format!("step {i}: probe"));
            }
            8 | 9 => {
                let what = format!("step {i}: bounds(x{var})");
                let (mut fresh, vars, _) = self.fresh();
                let fresh = fresh.bounds(vars[var]).unwrap().map(|b| (b.lo, b.hi));
                assert_eq!(fresh, hull, "{what} (fresh)");
                let b = self.live.bounds(v).unwrap();
                assert_eq!(b.as_ref().map(|b| (b.lo, b.hi)), hull, "{what}");
                for w in b.map(|b| b.witnesses).unwrap_or_default() {
                    assert!(values.contains(&w), "{what}: witness {w} is infeasible");
                }
            }
            10 => self.query(
                &[disjoint_windows(rng, var)],
                &format!("step {i}: windows(x{var})"),
            ),
            11 | 12 => {
                let a = rng.random_range(0..=HI);
                let b = rng.random_range(a..=HI);
                let inside: Vec<i64> = values
                    .iter()
                    .copied()
                    .filter(|w| (a..=b).contains(w))
                    .collect();
                let known: Vec<i64> = inside
                    .iter()
                    .copied()
                    .filter(|_| rng.random_bool(0.3))
                    .collect();
                let what = format!("step {i}: feasible_values_in(x{var}, {a}, {b}, {known:?})");
                let (mut fresh, vars, _) = self.fresh();
                assert_eq!(
                    fresh.feasible_values_in(vars[var], a, b, &known),
                    Ok(Some(inside.clone())),
                    "{what} (fresh)"
                );
                assert_eq!(
                    self.live.feasible_values_in(v, a, b, &known),
                    Ok(Some(inside)),
                    "{what}"
                );
            }
            _ => {
                let what = format!("step {i}: minimize / maximize(x{var})");
                assert_eq!(self.live.minimize(v), Ok(hull.map(|h| h.0)), "{what}");
                assert_eq!(self.live.maximize(v), Ok(hull.map(|h| h.1)), "{what}");
            }
        }
    }
}

/// Runs the script `seed` names for `steps` steps; panics, naming the step,
/// on the first answer that differs. Returns who answered, so a caller can
/// tell the implicant, the spine and the search all ran.
pub fn run(seed: u64, steps: usize) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new();
    for i in 0..steps {
        world.step(&mut rng, i);
    }
    let stats = world.live.stats();
    assert_eq!(
        stats.checks,
        stats.searches + stats.implicant_answers + stats.spine_answers
    );
    Tally {
        searches: stats.searches,
        implicant_answers: stats.implicant_answers,
        ..world.tally
    }
}
