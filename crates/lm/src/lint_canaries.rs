//! One minimal violation per lint this crate's root denies, each under
//! `#[expect]`: if a lint, or a list in clippy.toml, stops firing, the
//! expectation goes unfulfilled and `cargo clippy -- -D warnings` fails.
//! Compiled only by clippy (`#[cfg(clippy)]`).
#![allow(dead_code)]

#[expect(clippy::float_cmp)]
fn compares_floats(x: f32, y: f32) -> bool {
    x == y
}

#[expect(clippy::cast_possible_truncation)]
fn float_to_int(x: f32) -> i64 {
    (x * 2.0) as i64
}
