//! One minimal violation per lint this crate's root denies, each under
//! `#[expect]`: if a lint, or a list in clippy.toml, stops firing, the
//! expectation goes unfulfilled and `cargo clippy -- -D warnings` fails.
//! Compiled only by clippy (`#[cfg(clippy)]`).
#![allow(dead_code)]

#[expect(clippy::disallowed_types)]
use std::collections::HashMap as Map;

#[expect(clippy::disallowed_types)]
fn hash_collection() -> std::collections::HashSet<u32> {
    std::collections::HashSet::new()
}

#[expect(clippy::disallowed_types)]
fn hash_collection_via_alias() -> Map<u32, u32> {
    Map::new()
}

#[expect(clippy::unwrap_used)]
fn unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::indexing_slicing)]
fn index(xs: &[u32]) -> u32 {
    xs[0]
}

#[expect(clippy::panic)]
fn panics() {
    panic!("canary")
}

#[expect(clippy::float_arithmetic)]
fn f64_in_smt(x: f64) -> f64 {
    x * 2.0
}

#[expect(clippy::arithmetic_side_effects)]
fn unchecked_i64_add(a: i64, b: i64) -> i64 {
    a + b
}
