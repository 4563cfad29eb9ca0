//! # LeJIT — Just-in-Time Logic Enforcement
//!
//! A from-scratch Rust reproduction of *"Just-in-Time Logic Enforcement: A
//! new paradigm of combining statistical and symbolic reasoning for network
//! management"* (Hè & Apostolaki, HotNets '25).
//!
//! LeJIT interleaves an SMT solver into a language model's token-by-token
//! inference: before each character is emitted, the solver computes which
//! characters can still lead to a rule-compliant output, the model's logits
//! are masked accordingly, and sampling renormalizes over the survivors.
//! Outputs are *guaranteed* rule-compliant while the model's learned
//! distribution is preserved wherever the rules permit — and the same
//! trained model is repurposed across tasks by swapping rule sets.
//!
//! This façade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`smt`] | From-scratch QF-LIA SMT solver (CDCL + exact-rational simplex + branch-and-bound) |
//! | [`lm`] | Tiny char-level GPT (tape autograd, AdamW), n-gram LM, sampling hooks |
//! | [`rules`] | Rule AST + DSL + SMT grounding + NetNomos-style miner |
//! | [`telemetry`] | Synthetic datacenter burst telemetry (Meta-trace substitute) |
//! | [`metrics`] | EMD, JSD, p99, autocorrelation, burst analysis, violation stats |
//! | [`core`] | The LeJIT engine: transition system, JIT decoder, imputer/synthesizer, baselines |
//! | [`baselines`] | Zoom2Net-style imputer + five simulated SOTA data generators |
//!
//! ## Quickstart
//!
//! ```
//! use lejit::core::{Imputer, TaskConfig};
//! use lejit::lm::{NgramLm, Vocab};
//! use lejit::rules::parse_rules;
//! use lejit::telemetry::{encode_imputation_example, generate, TelemetryConfig};
//! use rand::SeedableRng;
//!
//! // 1. A (synthetic) telemetry dataset and a model trained on its text.
//! let data = generate(TelemetryConfig {
//!     racks_train: 4, racks_test: 1, windows_per_rack: 30,
//!     ..TelemetryConfig::default()
//! });
//! let texts: Vec<String> = data.train.iter().map(encode_imputation_example).collect();
//! let vocab = Vocab::from_corpus(&(texts.join("\n") + "0123456789,;|=.TERGCD"));
//! let seqs: Vec<_> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
//! let model = NgramLm::train(vocab, &seqs, 5);
//!
//! // 2. The paper's rules R1–R3, written in the rule DSL.
//! let rules = parse_rules("
//!     rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
//!     rule r2: sum(fine) == total_ingress;
//!     rule r3: ecn_bytes > 0 => max(fine) >= 30;
//! ").unwrap();
//!
//! // 3. JIT-enforced imputation: outputs are guaranteed compliant.
//! let imputer = Imputer::new(&model, rules, data.window_len, data.bandwidth,
//!                            TaskConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let window = &data.test[0];
//! let out = imputer.impute(&window.coarse, &mut rng).unwrap();
//! assert!(imputer.rules().compliant(&window.coarse, &out.values));
//! ```

#![warn(missing_docs)]

pub use lejit_baselines as baselines;
pub use lejit_core as core;
pub use lejit_lm as lm;
pub use lejit_metrics as metrics;
pub use lejit_rules as rules;
pub use lejit_smt as smt;
pub use lejit_telemetry as telemetry;
