//! Long-lived-session flatness: per-cycle SAT cost must not grow with the
//! number of `push`/`assert`/`check`/`pop` cycles a warm solver has served.
//!
//! This pins the pooled-session contract behind `SessionPool` (PR 8): a
//! solver handed out warm over and over must charge each cycle for the
//! *live* assertion set only, not for its history. The leak this guards
//! against had four independent causes, each fixed in the SAT core or the
//! Tseitin encoder:
//!
//! 1. branching on variables that occur in no live clause (retired frames'
//!    orphans) — gated by per-variable live-occurrence counts;
//! 2. theory blocking lemmas pinning retired frames' atom variables —
//!    lemmas are now guarded by the innermost frame selector;
//! 3. permanent definitional (Tseitin) clauses keeping every atom ever
//!    encoded assignable — definitional clauses are now scoped to the frame
//!    that introduced them and re-emitted on cache hit when that frame is
//!    gone (keyed by never-reused frame *generation ids*, since selector
//!    variables are recycled);
//! 4. selector-variable churn growing the branching order forever —
//!    selectors are recycled through a free list on retraction.
//!
//! The cycle formulas deliberately *revisit* earlier constants so the
//! encode-cache-hit + re-emission path (the soundness-critical half of fix
//! 3) fires, and the test cross-checks every Sat model against the asserted
//! term so a stale-definition unsoundness fails loudly, not silently.

use lejit_smt::{SatResult, Solver};

#[test]
fn per_cycle_sat_cost_is_flat_across_pooled_reuse() {
    let mut s = Solver::new();
    let vars: Vec<_> = (0..5).map(|t| s.int_var(&format!("f{t}"), 0, 60)).collect();
    let terms: Vec<_> = vars.iter().map(|&v| s.var(v)).collect();
    let total = s.add(&terms);
    let hundred = s.int(100);
    let sum_eq = s.eq(total, hundred);
    s.assert(sum_eq);

    const CYCLES: usize = 40;
    let mut deltas = Vec::with_capacity(CYCLES);
    let mut prev = s.sat_stats();
    for round in 0..CYCLES {
        s.push();
        // Distinct-but-recurring constants: rounds 0..8 populate the encode
        // cache, later rounds hit it from frames whose originals are long
        // retracted, forcing definitional-clause re-emission.
        let c1 = s.int((round % 8) as i64 + 10);
        let c2 = s.int((round % 5) as i64 + 20);
        let eq1 = s.eq(terms[round % 5], c1);
        let eq2 = s.eq(terms[(round + 1) % 5], c2);
        let disj = s.or(&[eq1, eq2]);
        s.assert(disj);
        assert_eq!(s.check().unwrap(), SatResult::Sat, "round {round}");
        let model = s.model().unwrap().clone();
        assert!(
            model.eval_bool(s.pool(), disj).unwrap() && model.eval_bool(s.pool(), sum_eq).unwrap(),
            "round {round}: model violates a live assertion — stale \
             definitional clauses are satisfying the formula variable"
        );
        s.pop();
        let now = s.sat_stats();
        deltas.push((now.decisions - prev.decisions) + (now.propagations - prev.propagations));
        prev = now;
    }

    // Steady state: the costliest late cycle must stay within a small
    // constant factor of the post-warm-up baseline. Before the fixes above,
    // per-cycle decisions grew linearly with round number (every retired
    // frame's variables stayed branchable), so late cycles blow far past
    // any constant multiple of the early ones.
    let baseline = *deltas[3..11].iter().max().unwrap();
    let late = *deltas[CYCLES - 8..].iter().max().unwrap();
    assert!(
        late <= baseline.saturating_mul(3).max(64),
        "late-cycle SAT work {late} exceeds 3x the warm-up high-water mark \
         {baseline}: retired frames are leaking into live search \
         (deltas: {deltas:?})"
    );
}
