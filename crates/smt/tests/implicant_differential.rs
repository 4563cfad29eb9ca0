//! The standing implicant and the spine change who answers a query, never
//! the answer: random scripts of `push` / `assert` / `fix` / `retract` and
//! range queries against one long-lived solver, every verdict, hull
//! and enumerated set equal to brute force's and to a fresh solver's,
//! every `Sat` model evaluated against every live assertion, no `Unsat`
//! from the implicant. The harness is `support/script.rs`; the root package runs a
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
    // none is): over a few scripts every answer path must carry real load —
    // the search, the implicant, and the spine with both of its verdicts,
    // some of them given with literals the fixes derived on the spine.
    let tally =
        (0..12u64)
            .map(|seed| script::run(seed, 48))
            .fold(script::Tally::default(), |a, b| script::Tally {
                searches: a.searches + b.searches,
                implicant_answers: a.implicant_answers + b.implicant_answers,
                spine_sat: a.spine_sat + b.spine_sat,
                spine_unsat: a.spine_unsat + b.spine_unsat,
                spine_pinned: a.spine_pinned + b.spine_pinned,
            });
    assert!(tally.searches > 100, "{tally:?}");
    assert!(tally.implicant_answers > tally.searches, "{tally:?}");
    assert!(tally.spine_sat > 0 && tally.spine_unsat > 0, "{tally:?}");
    assert!(tally.spine_pinned > 0, "{tally:?}");
}
