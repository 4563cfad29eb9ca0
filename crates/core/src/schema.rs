//! Decode schemas: the structure of one output record.
//!
//! A schema is an alternation of *forced literals* (separators, field keys)
//! and *numeric variables* emitted digit by digit. LeJIT bridges the
//! "granularity mismatch" between the LM (characters) and the solver
//! (variables) by walking this schema: literals are forced verbatim,
//! variables run through the character-level transition system.

#![expect(
    clippy::panic,
    clippy::expect_used,
    reason = "max_digits/fine_series/coarse_record assert schema-shape preconditions, and terminator_of's panics are unreachable after DecodeSchema::validate, which every session constructor runs first"
)]

/// A numeric variable to be generated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarSpec {
    /// Variable name (matches the solver declaration).
    pub name: String,
    /// Inclusive lower bound (also the solver declaration's bound).
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl VarSpec {
    /// Maximum number of decimal digits a value in `[lo, hi]` can need.
    ///
    /// # Panics
    /// Panics if `lo < 0` (the text encoding has no sign character).
    pub fn max_digits(&self) -> usize {
        assert!(self.lo >= 0, "negative values are not encodable");
        let hi = self.hi.max(0);
        if hi == 0 {
            1
        } else {
            (hi.ilog10() + 1) as usize
        }
    }
}

/// One element of a decode schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaItem {
    /// Characters forced verbatim (field keys, separators, terminator).
    Literal(String),
    /// A numeric variable generated digit by digit.
    Variable(VarSpec),
}

/// The full decode schema for one output record.
#[derive(Clone, Debug, Default)]
pub struct DecodeSchema {
    /// The alternating items. Every variable must be followed (not
    /// necessarily immediately) by a literal, whose first character acts as
    /// the variable's terminator.
    pub items: Vec<SchemaItem>,
}

impl DecodeSchema {
    /// Builds the imputation schema: `v0 , v1 , … , v{n-1} .` — the fine
    /// series, comma-separated, dot-terminated (matching
    /// `lejit_telemetry::encode_imputation_example`).
    pub fn fine_series(window_len: usize, bandwidth: i64) -> DecodeSchema {
        assert!(window_len > 0);
        let mut items = Vec::new();
        for t in 0..window_len {
            items.push(SchemaItem::Variable(VarSpec {
                name: format!("fine{t}"),
                lo: 0,
                hi: bandwidth,
            }));
            items.push(SchemaItem::Literal(
                if t + 1 == window_len { "." } else { "," }.to_string(),
            ));
        }
        DecodeSchema { items }
    }

    /// Builds the synthesis schema: `K=vK;…;K=vK.` over named fields with
    /// per-field bounds (matching `lejit_telemetry::encode_synthesis_example`).
    pub fn coarse_record(fields: &[(char, String, i64)]) -> DecodeSchema {
        assert!(!fields.is_empty());
        let mut items = Vec::new();
        for (i, (key, name, hi)) in fields.iter().enumerate() {
            items.push(SchemaItem::Literal(format!("{key}=")));
            items.push(SchemaItem::Variable(VarSpec {
                name: name.clone(),
                lo: 0,
                hi: *hi,
            }));
            items.push(SchemaItem::Literal(
                if i + 1 == fields.len() { "." } else { ";" }.to_string(),
            ));
        }
        DecodeSchema { items }
    }

    /// The variables of the schema, in emission order.
    pub fn variables(&self) -> Vec<&VarSpec> {
        self.items
            .iter()
            .filter_map(|i| match i {
                SchemaItem::Variable(v) => Some(v),
                SchemaItem::Literal(_) => None,
            })
            .collect()
    }

    /// The terminator character of the `k`-th variable: the first character
    /// of the next literal after it.
    ///
    /// # Panics
    /// Panics if the schema has no literal after that variable (invalid
    /// schema) or `k` is out of range.
    pub fn terminator_of(&self, k: usize) -> char {
        let mut seen = 0usize;
        let mut found = false;
        for item in &self.items {
            match item {
                SchemaItem::Variable(_) => {
                    if found {
                        panic!("schema has adjacent variables without separator");
                    }
                    if seen == k {
                        found = true;
                    }
                    seen += 1;
                }
                SchemaItem::Literal(s) => {
                    if found {
                        return s.chars().next().expect("empty literal");
                    }
                }
            }
        }
        panic!("variable {k} has no terminator literal");
    }

    /// Validates structural invariants (every variable has a terminator,
    /// no empty literals). Returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let mut pending_var: Option<&str> = None;
        for item in &self.items {
            match item {
                SchemaItem::Literal(s) => {
                    if s.is_empty() {
                        return Err("empty literal".to_string());
                    }
                    pending_var = None;
                }
                SchemaItem::Variable(v) => {
                    if let Some(prev) = pending_var {
                        return Err(format!(
                            "variables `{prev}` and `{}` are adjacent without a separator",
                            v.name
                        ));
                    }
                    if v.lo < 0 || v.lo > v.hi {
                        return Err(format!("variable `{}` has invalid bounds", v.name));
                    }
                    pending_var = Some(&v.name);
                }
            }
        }
        if let Some(name) = pending_var {
            return Err(format!("variable `{name}` has no terminator literal"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_digits() {
        let v = |hi| VarSpec {
            name: "x".into(),
            lo: 0,
            hi,
        };
        assert_eq!(v(0).max_digits(), 1);
        assert_eq!(v(9).max_digits(), 1);
        assert_eq!(v(10).max_digits(), 2);
        assert_eq!(v(99).max_digits(), 2);
        assert_eq!(v(100).max_digits(), 3);
    }

    #[test]
    fn fine_series_schema_shape() {
        let s = DecodeSchema::fine_series(3, 60);
        assert!(s.validate().is_ok());
        assert_eq!(s.variables().len(), 3);
        assert_eq!(s.terminator_of(0), ',');
        assert_eq!(s.terminator_of(1), ',');
        assert_eq!(s.terminator_of(2), '.');
    }

    #[test]
    fn coarse_record_schema_shape() {
        let fields = vec![
            ('T', "total_ingress".to_string(), 300i64),
            ('E', "ecn_bytes".to_string(), 100),
        ];
        let s = DecodeSchema::coarse_record(&fields);
        assert!(s.validate().is_ok());
        assert_eq!(s.variables().len(), 2);
        assert_eq!(s.terminator_of(0), ';');
        assert_eq!(s.terminator_of(1), '.');
        match &s.items[0] {
            SchemaItem::Literal(l) => assert_eq!(l, "T="),
            other => panic!("expected literal, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_broken_schemas() {
        let bad = DecodeSchema {
            items: vec![SchemaItem::Variable(VarSpec {
                name: "x".into(),
                lo: 0,
                hi: 9,
            })],
        };
        assert!(bad.validate().unwrap_err().contains("no terminator"));

        let adjacent = DecodeSchema {
            items: vec![
                SchemaItem::Variable(VarSpec {
                    name: "x".into(),
                    lo: 0,
                    hi: 9,
                }),
                SchemaItem::Variable(VarSpec {
                    name: "y".into(),
                    lo: 0,
                    hi: 9,
                }),
                SchemaItem::Literal(".".into()),
            ],
        };
        assert!(adjacent.validate().unwrap_err().contains("adjacent"));

        let badbounds = DecodeSchema {
            items: vec![
                SchemaItem::Variable(VarSpec {
                    name: "x".into(),
                    lo: 5,
                    hi: 2,
                }),
                SchemaItem::Literal(".".into()),
            ],
        };
        assert!(badbounds.validate().unwrap_err().contains("bounds"));
    }
}
