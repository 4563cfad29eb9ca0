//! Budget exhaustion propagates as typed, conservative behaviour.
//!
//! A starved theory backend (`TheoryConfig { max_nodes: 0 }` — every
//! branch-and-bound entry immediately exceeds its budget) must surface as
//! [`lejit_smt::SatResult::Unknown`] at the solver, conservative `false` /
//! `None` answers at the [`JitSession`] query layer, and a typed
//! [`DecodeError`] from the decoder — never a panic, and never an emitted
//! output the solver could not vouch for (the zero-violation guarantee).

use lejit_core::{DecodeError, DecodeSchema, JitDecoder, JitSession};
use lejit_lm::{NgramLm, SamplerConfig, Vocab};
use lejit_rules::{ground_rule, parse_rules, GroundCtx};
use lejit_smt::{SatResult, TheoryConfig};
use lejit_telemetry::CoarseField;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The paper's R1/R2/R3 session over `total=100, ecn=8`.
fn paper_session() -> (JitSession, DecodeSchema) {
    let schema = DecodeSchema::fine_series(5, 60);
    let mut session = JitSession::new(&schema);
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 30;",
    )
    .unwrap();
    let solver = session.solver_mut();
    let mut coarse_vals = [0i64; 6];
    coarse_vals[CoarseField::TotalIngress.index()] = 100;
    coarse_vals[CoarseField::EcnBytes.index()] = 8;
    let coarse_vec: Vec<_> = CoarseField::ALL
        .into_iter()
        .map(|f| solver.int(coarse_vals[f.index()]))
        .collect();
    let fine: Vec<_> = (0..5)
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

/// A node budget of zero starves every theory check before its first
/// branch-and-bound node.
fn starve(session: &mut JitSession) {
    session.solver_mut().set_theory_config(TheoryConfig {
        max_nodes: 0,
        ..TheoryConfig::default()
    });
}

#[test]
fn zero_node_budget_surfaces_unknown_at_the_solver() {
    let (mut session, _) = paper_session();
    starve(&mut session);
    assert_eq!(
        session.solver_mut().check().unwrap(),
        SatResult::Unknown,
        "a starved theory backend must answer Unknown, not Sat/Unsat"
    );
}

#[test]
fn session_queries_degrade_conservatively_under_unknown() {
    let (mut session, _) = paper_session();
    starve(&mut session);
    // "Couldn't decide" is reported as "not satisfiable": the session must
    // never vouch for values the theory did not actually admit.
    assert!(!session.satisfiable());
    assert!(!session.value_feasible(0, 20));
    assert!(!session.prefix_feasible(0, 2, 1));
    assert_eq!(session.hull(0), None);
    assert!(!session.value_feasible_guided(0, 20));
    assert!(!session.prefix_feasible_guided(0, 2, 1));
}

#[test]
fn decoder_reports_typed_error_instead_of_decoding_blind() {
    let model = toy_model();
    let decoder = JitDecoder::new(&model, SamplerConfig::default());
    let mut rng = StdRng::seed_from_u64(17);
    let (mut session, schema) = paper_session();
    starve(&mut session);
    let err = decoder
        .decode(
            &mut session,
            &schema,
            "T=100;E=8;R=0;G=70;C=12;D=0|",
            &mut rng,
        )
        .unwrap_err();
    assert_eq!(err, DecodeError::UnsatRules);
}

#[test]
fn restoring_the_budget_restores_decoding() {
    // The same session construction decodes fine under the default budget,
    // so the conservative rejection above is attributable to the budget
    // alone — and `set_theory_config` back to default un-starves a session.
    let model = toy_model();
    let decoder = JitDecoder::new(&model, SamplerConfig::default());
    let mut rng = StdRng::seed_from_u64(17);
    let (mut session, schema) = paper_session();
    starve(&mut session);
    assert!(!session.satisfiable());
    session
        .solver_mut()
        .set_theory_config(TheoryConfig::default());
    let out = decoder
        .decode(
            &mut session,
            &schema,
            "T=100;E=8;R=0;G=70;C=12;D=0|",
            &mut rng,
        )
        .unwrap();
    assert_eq!(out.values.iter().sum::<i64>(), 100, "R2");
    assert!(out.values.iter().all(|&v| (0..=60).contains(&v)), "R1");
    assert!(*out.values.iter().max().unwrap() >= 30, "R3");
}
