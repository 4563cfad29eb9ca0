//! Walkthrough of the paper's Fig. 1b and Fig. 2, step by step.
//!
//! Reconstructs the running example: imputing `[I_0, …, I_4]` with
//! TotalIngress = 100, Congestion (ECN) = 8, BW = 60 under rules R1–R3, and
//! prints the solver's feasible regions plus the character-level transition
//! system at each step.
//!
//! Run with: `cargo run --release --example walkthrough`

use lejit::core::schema::DecodeSchema;
use lejit::core::{allowed_chars, JitSession, Lookahead, VarState};
use lejit::rules::{ground_rule, parse_rules, GroundCtx};
use lejit::telemetry::CoarseField;

fn main() {
    println!("=== LeJIT walkthrough: Fig. 1b / Fig. 2 ===\n");
    println!("Window T = 5, BW = 60, TotalIngress = 100, Congestion = 8");
    println!("R1: forall t: 0 <= I_t <= 60");
    println!("R2: sum I_t == 100");
    println!("R3: Congestion > 0 => max I_t >= 30\n");

    // Build the session: coarse signals as constants, I_0..I_4 as variables.
    let schema = DecodeSchema::fine_series(5, 60);
    let mut session = JitSession::new(&schema);
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 30;",
    )
    .unwrap();
    {
        let solver = session.solver_mut();
        let mut coarse_vals = [0i64; 6];
        coarse_vals[CoarseField::TotalIngress.index()] = 100;
        coarse_vals[CoarseField::EcnBytes.index()] = 8;
        let coarse: Vec<_> = CoarseField::ALL
            .into_iter()
            .map(|f| solver.int(coarse_vals[f.index()]))
            .collect();
        let fine: Vec<_> = (0..5)
            .map(|t| {
                let v = solver.pool().find_var(&format!("fine{t}")).unwrap();
                solver.var(v)
            })
            .collect();
        let ctx = GroundCtx {
            coarse: coarse.try_into().unwrap(),
            fine,
        };
        for r in &rules.rules {
            let g = ground_rule(solver.pool_mut(), &ctx, r);
            solver.assert(g);
        }
    }

    // Step 1 (paper ①): the LLM has produced I_0 = 20, I_1 = 15, I_2 = 25.
    println!("① LLM generates I_0 = 20, I_1 = 15, I_2 = 25 (all within their");
    println!("   feasible regions, so LeJIT does not intervene).");
    for (k, v) in [(0usize, 20i64), (1, 15), (2, 25)] {
        session.fix(k, v);
    }

    // Step 2 (paper ②): the solver computes the feasible region for I_3.
    let (lo, hi) = session.hull(3).expect("satisfiable");
    println!("\n② Solver computes the feasible region for I_3: [{lo}, {hi}]");
    println!("   (naively [0, 60], but R2 with I_4 <= 60 caps it at 40 — the");
    println!("   solver *looked ahead* to keep a path to a valid output)");

    // Step 3 (paper ③): the character-level transition system (Fig. 2).
    println!("\n③ Character-level transition system for I_3 (Fig. 2):");
    let spec = schema.variables()[3].clone();
    let mut state = VarState::start();
    let opts = allowed_chars(&mut session, 3, &spec, &state, Lookahead::Full);
    println!(
        "   state \"\"  -> digits {:?}, terminator: {}",
        opts.digits, opts.terminator
    );
    assert!(state.push(3));
    let opts = allowed_chars(&mut session, 3, &spec, &state, Lookahead::Full);
    println!(
        "   state \"3\" -> digits {:?}, terminator: {}",
        opts.digits, opts.terminator
    );
    println!("   (after '3' every extension 30..39 lies inside [0, 40], so all");
    println!("    digits survive; contrast state \"4\", where only '0' does:)");
    let mut st4 = lejit::core::VarState::start();
    assert!(st4.push(4));
    let opts4 = allowed_chars(&mut session, 3, &spec, &st4, Lookahead::Full);
    println!(
        "   state \"4\" -> digits {:?}, terminator: {}",
        opts4.digits, opts4.terminator
    );
    assert!(state.push(9));
    let opts = allowed_chars(&mut session, 3, &spec, &state, Lookahead::Full);
    println!(
        "   state \"39\" -> digits {:?}, terminator: {} (value 39 commits)",
        opts.digits, opts.terminator
    );

    // Step 4 (paper ④): the LLM emits I_3 = 39.
    session.fix(3, 39);
    println!("\n④ LLM (guided) emits I_3 = 39 — guaranteed rule-consistent.");

    // Step 5 (paper ⑤): only a single value remains for I_4.
    let (lo4, hi4) = session.hull(4).expect("satisfiable");
    println!("\n⑤ Feasible region for I_4: [{lo4}, {hi4}] — the aggregation rule R2");
    println!("   leaves a single valid value; the transition system forces it:");
    let spec4 = schema.variables()[4].clone();
    let opts = allowed_chars(&mut session, 4, &spec4, &VarState::start(), Lookahead::Full);
    println!(
        "   state \"\" -> digits {:?}, terminator: {}",
        opts.digits, opts.terminator
    );
    assert_eq!((lo4, hi4), (1, 1));
    println!("\nFinal imputed series: [20, 15, 25, 39, 1] — sum = 100, max = 39 >= 30.");
    println!(
        "All of R1–R3 hold by construction. ({} solver checks issued)",
        session.solver().stats().checks
    );
}
