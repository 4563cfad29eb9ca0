//! A fixed slice of the solver's implicant differential
//! (`crates/smt/tests/implicant_differential.rs` is the proptest over the
//! same harness): sixteen seeded scripts of `push` / `assert` / `fix` /
//! `retract` and range queries against one long-lived solver, every answer
//! equal to brute force's and to a fresh solver's. Here so that the root
//! package's own suite, which is what tier-1 runs, exercises the answer
//! path every decode now takes.

#[path = "../crates/smt/tests/support/script.rs"]
mod script;

#[test]
fn sixteen_seeded_scripts_answer_like_a_fresh_solver_and_like_brute_force() {
    for seed in 0..16 {
        script::run(seed, 40);
    }
}
