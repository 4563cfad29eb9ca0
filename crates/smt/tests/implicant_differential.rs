//! The standing implicant changes who answers a query, never the answer:
//! random scripts of `push` / `assert` / `fix` / `retract` and range queries
//! against one long-lived solver, every verdict, hull, gap list and
//! enumerated set equal to brute force's and to a fresh solver's, every
//! `Sat` model evaluated against every live assertion, no `Unsat` without a
//! search. The harness is `support/script.rs`; the root package runs a
//! fixed slice of the same seeds (`tests/implicant_differential.rs`).

use proptest::prelude::*;

#[path = "support/script.rs"]
mod script;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_long_lived_solver_answers_like_a_fresh_one_and_like_brute_force(seed in 0u64..1 << 40) {
        script::run(seed, 48);
    }
}

#[test]
fn the_scripts_exercise_the_implicant_and_the_search() {
    // The differential above proves nothing if every query is a search (or
    // none is): over a few scripts both answer paths must carry real load.
    let (searches, answers) = (0..12u64)
        .map(|seed| script::run(seed, 48))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(searches > 100, "{searches} searches");
    assert!(
        answers > searches,
        "{answers} implicant answers for {searches} searches"
    );
}
