//! A fixed slice of the solver's implicant differential
//! (`crates/smt/tests/implicant_differential.rs` is the proptest over the
//! same harness): sixteen seeded scripts of `push` / `assert` / `fix` /
//! `retract` and range queries against one long-lived solver, every answer
//! equal to brute force's and to a fresh solver's. Here so that the root
//! package's own suite, which is what tier-1 runs, exercises the answer
//! paths every decode now takes.

#[path = "../crates/smt/tests/support/script.rs"]
mod script;

#[test]
fn sixteen_seeded_scripts_answer_like_a_fresh_solver_and_like_brute_force() {
    let mut ran = [false; 4];
    for seed in 0..16 {
        let t = script::run(seed, 40);
        for (ran, n) in
            ran.iter_mut()
                .zip([t.searches, t.implicant_answers, t.spine_sat, t.spine_unsat])
        {
            *ran |= n > 0;
        }
    }
    // The search, the implicant and both spine verdicts all answered.
    assert_eq!(ran, [true; 4]);
}
