//! Tentpole property: the interval-guided lookahead is a pure
//! optimization. On every reachable decoding state it must compute the
//! *same* `CharOptions` as full per-digit probing, and a full decode under
//! it must emit byte-identical text for the same RNG seed — while
//! answering most per-character queries without a solver check.

use proptest::prelude::*;

use lejit_core::{
    allowed_chars, CharOptions, DecodeSchema, JitDecoder, JitSession, Lookahead, VarState,
};
use lejit_lm::{NgramLm, SamplerConfig, Vocab};
use lejit_rules::{ground_rule, parse_rules, GroundCtx};
use lejit_telemetry::CoarseField;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WINDOW: usize = 5;
const BANDWIDTH: i64 = 60;

/// Builds a session over the paper-shaped rules with the given coarse
/// signals; `with_r3` toggles the disjunctive burst rule whose feasible
/// region is non-convex (the hull alone cannot decide it).
fn build_session(
    total: i64,
    ecn: i64,
    with_r3: bool,
    threshold: i64,
) -> (JitSession, DecodeSchema) {
    let schema = DecodeSchema::fine_series(WINDOW, BANDWIDTH);
    let mut session = JitSession::new(&schema);
    let mut text = format!(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= {BANDWIDTH};
         rule r2: sum(fine) == total_ingress;"
    );
    if with_r3 {
        text.push_str(&format!(
            "rule r3: ecn_bytes > 0 => max(fine) >= {threshold};"
        ));
    }
    let rules = parse_rules(&text).unwrap();
    let solver = session.solver_mut();
    let mut coarse_vals = [0i64; 6];
    coarse_vals[CoarseField::TotalIngress.index()] = total;
    coarse_vals[CoarseField::EcnBytes.index()] = ecn;
    let coarse_vec: Vec<_> = CoarseField::ALL
        .into_iter()
        .map(|f| solver.int(coarse_vals[f.index()]))
        .collect();
    let fine: Vec<_> = (0..WINDOW)
        .map(|t| {
            let v = solver.pool().find_var(&format!("fine{t}")).unwrap();
            solver.var(v)
        })
        .collect();
    let ctx = GroundCtx {
        coarse: coarse_vec.try_into().unwrap(),
        fine,
    };
    for r in &rules.rules {
        let g = ground_rule(solver.pool_mut(), &ctx, r);
        solver.assert(g);
    }
    (session, schema)
}

/// Walks every reachable `VarState` of variable `k` in lockstep over two
/// sessions, asserting identical `CharOptions` at each state. Returns the
/// number of states visited.
fn assert_equal_char_options(
    full: &mut JitSession,
    guided: &mut JitSession,
    k: usize,
    schema: &DecodeSchema,
) -> usize {
    let spec = schema.variables()[k].clone();
    let mut stack = vec![VarState::start()];
    let mut visited = 0;
    while let Some(st) = stack.pop() {
        let f: CharOptions = allowed_chars(full, k, &spec, &st, Lookahead::Full);
        let g: CharOptions = allowed_chars(guided, k, &spec, &st, Lookahead::IntervalGuided);
        assert_eq!(
            f, g,
            "CharOptions diverged at var {k}, prefix {} (len {})",
            st.prefix, st.len
        );
        visited += 1;
        for &d in &f.digits {
            let mut next = st.clone();
            assert!(next.push(d));
            stack.push(next);
        }
    }
    visited
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized rule sets and windows: IntervalGuided and Full agree on
    /// every reachable state of the first undetermined variable, after
    /// fixing a random number of earlier variables to feasible values.
    #[test]
    fn interval_guided_equals_full_on_random_sessions(
        total in 0i64..=300,
        ecn in 0i64..=10,
        with_r3 in proptest::bool::ANY,
        threshold in 10i64..=50,
        nfix in 0usize..=2,
    ) {
        let (mut full, schema) = build_session(total, ecn, with_r3, threshold);
        let (mut guided, _) = build_session(total, ecn, with_r3, threshold);
        // The random rules can be jointly unsatisfiable (e.g. ecn > 0 with
        // total below the burst threshold). Both lookaheads must then agree
        // that nothing is allowed — that is itself an equivalence case.
        if full.hull(0).is_none() {
            let spec = schema.variables()[0].clone();
            let f = allowed_chars(&mut full, 0, &spec, &VarState::start(), Lookahead::Full);
            let g = allowed_chars(
                &mut guided, 0, &spec, &VarState::start(), Lookahead::IntervalGuided,
            );
            prop_assert_eq!(&f, &g);
            prop_assert!(f.is_dead_end());
        } else {
            // Fix a prefix of the variables to the minimum of their
            // feasible range (always a feasible choice), mirroring
            // mid-decode states.
            for j in 0..nfix {
                let (lo, _) = full
                    .hull(j)
                    .expect("still satisfiable after feasible fixes");
                full.fix(j, lo);
                guided.fix(j, lo);
            }
            let visited = assert_equal_char_options(&mut full, &mut guided, nfix, &schema);
            prop_assert!(visited > 0);
            prop_assert!(
                guided.solver().stats().checks < full.solver().stats().checks,
                "guided used {} checks vs full's {}",
                guided.solver().stats().checks,
                full.solver().stats().checks
            );
        }
    }
}

/// A quick n-gram model over imputation-shaped text (mirrors the decoder
/// unit tests' toy model).
fn toy_model() -> NgramLm {
    let corpus_text: Vec<String> = (0..60)
        .map(|i| {
            format!(
                "T=100;E=8;R=0;G=70;C=12;D=0|2{},15,25,30,1{}.",
                i % 10,
                i % 10
            )
        })
        .collect();
    let joined = corpus_text.join("\n");
    let vocab = Vocab::from_corpus(&(joined.clone() + "0123456789,;|=."));
    let seqs: Vec<Vec<_>> = corpus_text
        .iter()
        .map(|s| vocab.encode(s).unwrap())
        .collect();
    NgramLm::train(vocab, &seqs, 4)
}

/// For a fixed RNG seed the two lookaheads must produce byte-identical
/// text: the guided tiers change *how* a query is answered, never the
/// answer, so the masked distributions and the RNG stream are unchanged.
#[test]
fn decoded_outputs_are_byte_identical_for_fixed_seed() {
    let model = toy_model();
    let prompt = "T=100;E=8;R=0;G=70;C=12;D=0|";
    for seed in [1u64, 7, 21, 42] {
        let (mut s_full, schema) = build_session(100, 8, true, 30);
        let full_out = JitDecoder::new(&model, SamplerConfig::default())
            .with_lookahead(Lookahead::Full)
            .decode(
                &mut s_full,
                &schema,
                prompt,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();

        let (mut s_guided, schema) = build_session(100, 8, true, 30);
        let guided_out = JitDecoder::new(&model, SamplerConfig::default())
            .with_lookahead(Lookahead::IntervalGuided)
            .decode(
                &mut s_guided,
                &schema,
                prompt,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();

        assert_eq!(full_out.text, guided_out.text, "seed {seed}");
        assert_eq!(full_out.values, guided_out.values, "seed {seed}");
        // The cache did real work and did not change the output.
        assert!(
            guided_out.stats.solver_checks_saved > 0,
            "seed {seed}: no queries were saved"
        );
        assert!(
            guided_out.stats.solver_checks < full_out.stats.solver_checks,
            "seed {seed}: guided {} vs full {} checks",
            guided_out.stats.solver_checks,
            full_out.stats.solver_checks
        );
        assert_eq!(full_out.stats.solver_checks_saved, 0);
    }
}

/// Repeated states: revisiting the same `VarState` (as rejection-style
/// retries or a re-masked step do) must return the same `CharOptions`, with
/// the second visit answered entirely from the epoch's interval knowledge —
/// zero additional solver checks.
#[test]
fn repeated_states_are_answered_without_checks_or_changed_answers() {
    // A rule with a *hole* in the region: each value must be ≤ 20 or ≥ 40.
    // The hull [0, 60] cannot decide interior values like 25, and
    // infeasible ones never become witnesses — their exact UNSAT answers
    // become certified gaps, where revisits find them. (SAT answers are
    // re-served by the model value the check left in the witness set.)
    let schema = DecodeSchema::fine_series(WINDOW, BANDWIDTH);
    let mut guided = JitSession::new(&schema);
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule hole: forall t: fine[t] <= 20 or fine[t] >= 40;",
    )
    .unwrap();
    {
        let solver = guided.solver_mut();
        let coarse_vec: Vec<_> = [100i64, 0, 0, 0, 0, 0]
            .into_iter()
            .map(|v| solver.int(v))
            .collect();
        let fine: Vec<_> = (0..WINDOW)
            .map(|t| {
                let v = solver.pool().find_var(&format!("fine{t}")).unwrap();
                solver.var(v)
            })
            .collect();
        let ctx = GroundCtx {
            coarse: coarse_vec.try_into().unwrap(),
            fine,
        };
        for r in &rules.rules {
            let g = ground_rule(solver.pool_mut(), &ctx, r);
            solver.assert(g);
        }
    }
    let spec = schema.variables()[0].clone();
    // First pass over a handful of states warms hull, witnesses and gaps —
    // including prefixes inside the hole (25, 35), whose terminator checks
    // are exact UNSATs.
    let mut states = vec![VarState::start()];
    for p in [[2u8].as_slice(), &[2, 5], &[3], &[3, 5], &[5]] {
        let mut st = VarState::start();
        for &d in p {
            assert!(st.push(d));
        }
        states.push(st);
    }
    let first: Vec<CharOptions> = states
        .iter()
        .map(|st| allowed_chars(&mut guided, 0, &spec, st, Lookahead::IntervalGuided))
        .collect();
    // Second pass: answers must be identical and free.
    let checks_before = guided.solver().stats().checks;
    let saved_before = guided.solver_checks_saved();
    let second: Vec<CharOptions> = states
        .iter()
        .map(|st| allowed_chars(&mut guided, 0, &spec, st, Lookahead::IntervalGuided))
        .collect();
    assert_eq!(first, second, "cached answers diverged from fresh ones");
    assert_eq!(
        guided.solver().stats().checks,
        checks_before,
        "second visit issued solver checks"
    );
    assert!(
        guided.solver_checks_saved() > saved_before,
        "the revisit was not counted as saved checks"
    );
}
