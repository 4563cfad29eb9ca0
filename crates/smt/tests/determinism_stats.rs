//! Determinism regression test for the L1 lint family.
//!
//! The solver must be a pure function of its inputs: two runs of the same
//! workload in fresh processes-worth of state must take byte-identical
//! search paths. Hash-keyed containers would break this — `HashMap`'s
//! per-instance `RandomState` reorders iteration run to run, which changes
//! clause/atom ordering, which changes the CDCL search trajectory even when
//! the final verdicts agree. Clippy (`disallowed_types`, listed in
//! clippy.toml) rules such containers out statically; this test samples the
//! same invariant dynamically by
//! comparing *search statistics*, which are far more ordering-sensitive
//! than verdicts: identical conflict/decision/propagation counts mean the
//! two runs explored the same tree in the same order.

use lejit_smt::{SatResult, Solver};

/// One representative workload: the paper's R1/R2 ruleset plus derived
/// queries (optimization, bounds, assumption probes) that exercise the SAT
/// core, the simplex, branch-and-bound, and the blocking-clause loop.
///
/// It doubles as the consult-on-change differential: in a debug build every
/// theory consult re-derives each candidate's entailment from the standing
/// bounds and asserts the cached verdict equals it, so this workload's
/// propagated-literal sets are checked against a full rescan at each of
/// its consults (and must be non-empty, see `theory_propagations` below).
fn run_workload() -> (Vec<String>, lejit_smt::SolverStats, lejit_smt::SatStats) {
    let mut s = Solver::new();
    let vars: Vec<_> = (0..5).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
    let terms: Vec<_> = vars.iter().map(|&v| s.var(v)).collect();
    let total = s.add(&terms);
    let hundred = s.int(100);
    let sum_eq = s.eq(total, hundred);
    s.assert(sum_eq);
    // A disjunctive constraint so the SAT core actually branches.
    let thirty = s.int(30);
    let branches: Vec<_> = terms.iter().map(|&t| s.ge(t, thirty)).collect();
    let any_big = s.or(&branches);
    s.assert(any_big);

    let mut log = Vec::new();
    log.push(format!("{:?}", s.check().unwrap()));
    log.push(format!("{:?}", s.minimize(vars[0]).unwrap()));
    log.push(format!("{:?}", s.maximize(vars[0]).unwrap()));
    log.push(format!("{:?}", s.bounds(vars[1]).unwrap()));
    for (t, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
        let c = s.int(val);
        let eq = s.eq(terms[t], c);
        s.assert(eq);
    }
    log.push(format!("{:?}", s.check().unwrap()));
    log.push(format!("{:?}", s.minimize(vars[3]).unwrap()));
    log.push(format!("{:?}", s.maximize(vars[3]).unwrap()));
    let c = s.int(41);
    let probe = s.eq(terms[3], c);
    log.push(format!("{:?}", s.check_assuming(&[probe]).unwrap()));
    // Two disjunctions are no probe the implicant or the spine takes: a
    // search, which encodes them over the atoms `any_big` encoded already.
    let ten = s.int(10);
    let small: Vec<_> = terms[3..].iter().map(|&t| s.le(t, ten)).collect();
    let any_small = s.or(&small);
    let late_big = s.or(&branches[3..]);
    log.push(format!(
        "{:?}",
        s.check_assuming(&[late_big, any_small]).unwrap()
    ));
    assert_eq!(s.check().unwrap(), SatResult::Sat);
    if let Some(m) = s.model() {
        let assignment: Vec<i64> = vars.iter().map(|&v| m.int_value(v).unwrap()).collect();
        log.push(format!("{assignment:?}"));
    }
    (log, s.stats(), s.sat_stats())
}

#[test]
fn identical_statistics_across_runs() {
    let (log1, stats1, sat1) = run_workload();
    let (log2, stats2, sat2) = run_workload();
    assert_eq!(log1, log2, "query answers diverged between identical runs");
    assert_eq!(
        stats1, stats2,
        "DPLL(T) statistics diverged: the solver searched differently"
    );
    assert_eq!(
        sat1, sat2,
        "CDCL statistics diverged: conflict/decision/propagation order is \
         run-dependent (hash-ordering leak?)"
    );
    // The workload must be non-trivial, or the comparison proves nothing.
    assert!(
        sat1.propagations > 0,
        "workload never exercised the SAT core"
    );
    assert!(
        stats1.theory_checks > 0,
        "workload never reached the theory"
    );
    // The per-check cost profile must be exercised too, so the equality
    // above covers the warm-started theory backend's counters and not just
    // zeros: the tableau was built and pivoted, and a slack row was shared.
    assert!(stats1.tableau_builds > 0, "tableau was never built");
    assert!(
        stats1.tableau_vars > 0,
        "no variables mirrored into tableau"
    );
    assert!(stats1.slack_rows_built > 0, "no slack rows interned");
    assert!(stats1.pivots > 0, "simplex never pivoted");
    assert!(
        stats1.slack_row_hits > 0,
        "the sum atoms `≤ 100` and `≥ 100` never shared one slack row"
    );
    // Fixing i0..i2 entails the polarity of the `i_t >= 30` branch atoms,
    // so the default-on theory propagation must fire — and its counters,
    // being part of `stats`, are covered by the equality checks above.
    assert!(
        stats1.theory_propagations > 0,
        "bound-entailed branch atoms were never theory-propagated"
    );
    assert!(
        stats1.encode_cache_hits > 0 && stats1.encode_cache_misses > 0,
        "Tseitin encode cache was not exercised on both paths"
    );
}

/// The workload's counters, pinned: which answer path took each query and
/// what each path cost. Two runs agreeing (above) says nothing of a change
/// that moves both alike; a change to how the solver reads its implicant
/// that keeps these numbers has kept every literal the implicant holds,
/// since the implicant decides which probes it answers and how the theory
/// pivots under them. Re-capture only with a stated reason.
#[test]
fn the_workload_counters_match_the_golden() {
    let (_, s, _) = run_workload();
    assert_eq!(
        (s.checks, s.searches, s.implicant_answers, s.spine_answers),
        (42, 3, 34, 5),
        "checks, searches, implicant answers, spine answers"
    );
    assert_eq!(
        (s.theory_checks, s.theory_conflicts, s.pivots, s.bnb_nodes),
        (4, 1, 13, 55),
        "theory checks, theory conflicts, pivots, B&B nodes"
    );
    assert_eq!(
        (s.theory_propagations, s.theory_explanations),
        (10, 0),
        "theory propagations, explanations"
    );
    assert_eq!(
        (s.encode_cache_hits, s.encode_cache_misses),
        (2, 24),
        "encode-cache hits, misses"
    );
    assert_eq!(s.walks, 8, "justification walks");
}
