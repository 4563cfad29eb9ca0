//! One minimal violation per lint this crate's root denies, each under
//! `#[expect]`: if a lint, or a list in clippy.toml, stops firing, the
//! expectation goes unfulfilled and `cargo clippy -- -D warnings` fails.
//! Compiled only by clippy (`#[cfg(clippy)]`).
#![allow(dead_code)]

#[expect(clippy::disallowed_methods)]
fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

// The vendored `rand` has no entropy source (`thread_rng`, `from_entropy`),
// so std's per-process hasher seed is the ambient randomness left to ban.
#[expect(clippy::disallowed_types)]
fn ambient_randomness() -> std::hash::RandomState {
    std::hash::RandomState::new()
}
