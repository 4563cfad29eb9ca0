//! Theory-backend microbenchmarks: the warm-started persistent
//! [`TheorySession`] against the historical rebuild-per-check behaviour
//! (still available as the stateless [`check_conjunction`] oracle), plus
//! the solver-level probe loop the decoder actually drives.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lejit_smt::{
    check_conjunction, LinAtom, LinExpr, SatResult, Solver, TermPool, TheoryConfig, TheorySession,
    VarId,
};

/// `Σ cᵢ·xᵢ + k ≤ 0` over the given vars.
fn atom(rows: &[(VarId, i64)], constant: i64) -> LinAtom {
    let mut e = LinExpr::constant(constant);
    for &(v, c) in rows {
        e.add_term(v, c);
    }
    LinAtom { expr: e }
}

/// The paper's R1/R2 system as a DPLL(T)-shaped check sequence: the sum
/// equality plus progressively fixed prefix values, then a sweep of probes
/// on the next variable — the conjunctions a decoding step issues.
fn paper_check_sequence() -> (TermPool, Vec<Vec<LinAtom>>) {
    let mut pool = TermPool::new();
    let vars: Vec<VarId> = (0..5)
        .map(|t| pool.int_var(&format!("i{t}"), 0, 60))
        .collect();
    let all: Vec<(VarId, i64)> = vars.iter().map(|&v| (v, 1)).collect();
    let neg: Vec<(VarId, i64)> = vars.iter().map(|&v| (v, -1)).collect();
    let mut base = vec![atom(&all, -100), atom(&neg, 100)];
    let mut checks = vec![base.clone()];
    for (t, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
        base.push(atom(&[(vars[t], 1)], -val));
        base.push(atom(&[(vars[t], -1)], val));
        checks.push(base.clone());
    }
    // Probe sweep on i3: exactly-k conjunctions for k across the range.
    for k in (0..=45).step_by(5) {
        let mut probe = base.clone();
        probe.push(atom(&[(vars[3], 1)], -k));
        probe.push(atom(&[(vars[3], -1)], k));
        checks.push(probe);
    }
    (pool, checks)
}

fn bench_theory_warm_start(c: &mut Criterion) {
    let (pool, checks) = paper_check_sequence();
    let config = TheoryConfig::default();
    let mut g = c.benchmark_group("theory_warm_start");
    g.bench_function("fresh_tableau_per_check", |b| {
        b.iter(|| {
            for atoms in &checks {
                black_box(check_conjunction(&pool, atoms, config).unwrap());
            }
        })
    });
    g.bench_function("warm_session_across_checks", |b| {
        // One persistent session, as owned by a production `Solver`: rows
        // intern on the first pass, later iterations ride the warm basis.
        let mut session = TheorySession::new();
        let checks: Vec<Vec<(u32, bool)>> = checks
            .iter()
            .map(|atoms| {
                atoms
                    .iter()
                    .map(|a| (session.add_atom(&pool, a).unwrap(), true))
                    .collect()
            })
            .collect();
        b.iter(|| {
            for lits in &checks {
                black_box(session.check(&pool, lits, config).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_solver_probe_loop(c: &mut Criterion) {
    // The decoder-shaped workload one level up: a warm `Solver` sweeping
    // value probes through `check_assuming`, every check hitting the
    // persistent theory backend.
    let mut s = Solver::new();
    let vars: Vec<_> = (0..5).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
    let terms: Vec<_> = vars.iter().map(|&v| s.var(v)).collect();
    let total = s.add(&terms);
    let hundred = s.int(100);
    let eq = s.eq(total, hundred);
    s.assert(eq);
    let probes: Vec<_> = (0..=60)
        .step_by(4)
        .map(|k| {
            let ck = s.int(k);
            s.eq(terms[3], ck)
        })
        .collect();
    let mut g = c.benchmark_group("theory_warm_start");
    g.bench_function("solver_probe_sweep", |b| {
        b.iter(|| {
            for &p in &probes {
                let r = s.check_assuming(&[p]).unwrap();
                black_box(matches!(r, SatResult::Sat));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_theory_warm_start, bench_solver_probe_loop);
criterion_main!(benches);
