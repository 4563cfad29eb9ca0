//! One session, many records: the reuse lifecycle
//! (checkpoint → ground through `solver_mut` → `invalidate_derived` →
//! decode → `rollback`) must be invisible in the output and fixed in its
//! cost.
//!
//! * Invisible: at every decoding state of every record the
//!   interval-guided allowed set on the reused session equals
//!   [`Lookahead::Full`]'s on a session built fresh for that record, and a
//!   decode on the reused session emits the bytes a fresh session emits.
//! * Fixed in cost: the per-record solver checks, searches and checks
//!   saved of fresh, pooled and reused decodes at fixed seeds equal a
//!   golden, so a lookahead tier cannot be added or removed, nor the solver
//!   answer by another path, without the golden saying so.

use lejit_core::{
    allowed_chars, record_seed, DecodeStats, Imputer, JitDecoder, JitSession, Lookahead,
    SessionPool, Synthesizer, TaskConfig, VarState,
};
use lejit_lm::{NgramLm, SamplerConfig, Vocab};
use lejit_rules::{mine_rules, parse_rules, MinerConfig, RuleSet};
use lejit_telemetry::{
    encode_imputation_example, encode_synthesis_example, generate, CoarseField, Dataset,
    TelemetryConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset() -> Dataset {
    generate(TelemetryConfig {
        racks_train: 6,
        racks_test: 2,
        windows_per_rack: 40,
        ..TelemetryConfig::default()
    })
}

fn ngram(texts: &[String]) -> NgramLm {
    let mut corpus = texts.join("\n");
    corpus.push_str("0123456789,;|=.TERGCD");
    let vocab = Vocab::from_corpus(&corpus);
    let seqs: Vec<Vec<_>> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
    NgramLm::train(vocab, &seqs, 5)
}

fn imputation_model(d: &Dataset) -> NgramLm {
    let texts: Vec<String> = d.train.iter().map(encode_imputation_example).collect();
    ngram(&texts)
}

fn synthesis_model(d: &Dataset) -> NgramLm {
    let texts: Vec<String> = d
        .train
        .iter()
        .map(|w| encode_synthesis_example(&w.coarse))
        .collect();
    ngram(&texts)
}

/// The paper's R1–R3; R3's disjunction makes the feasible set non-convex,
/// so the hull alone cannot answer.
fn imputation_rules() -> RuleSet {
    parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 45;",
    )
    .unwrap()
}

fn synthesis_rules() -> RuleSet {
    parse_rules(
        "rule a: egress_total <= total_ingress;
         rule b: drops <= total_ingress;
         rule c: conn_count >= 1;",
    )
    .unwrap()
}

/// [`synthesis_rules`] with threshold implications between coarse fields,
/// shaped as the miner writes them (`imp_f_gt{th}_then_g_ge{phi}` and its
/// `le` twin): each antecedent is over a field decoded before its
/// consequent's, so a record's own fixes decide it.
fn implication_rules() -> RuleSet {
    parse_rules(
        "rule a: egress_total <= total_ingress;
         rule b: drops <= total_ingress;
         rule c: conn_count >= 1;
         rule i1: total_ingress > 100 => egress_total >= 40;
         rule i2: total_ingress <= 100 => egress_total <= 90;
         rule i3: ecn_bytes > 10 => conn_count >= 4;
         rule i4: total_ingress > 150 => conn_count >= 5;
         rule i5: retrans_bytes <= 0 => drops <= 20;",
    )
    .unwrap()
}

#[test]
fn reused_session_equals_full_lookahead_at_every_step_and_fresh_bytes() {
    let d = dataset();
    let model = imputation_model(&d);
    let imputer = Imputer::new(
        &model,
        imputation_rules(),
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let schema = imputer.schema();
    let decoder = JitDecoder::new(&model, SamplerConfig::default());
    let mut reused = JitSession::new(&schema);
    let mut states = 0usize;
    for (i, w) in d.test.iter().take(24).enumerate() {
        let seed = record_seed(99, i as u64);

        // A seeded walk through the transition system: the reused session
        // answers guided, a session built for this record answers `Full`.
        let cp = reused.checkpoint();
        imputer.ground_in(&mut reused, &w.coarse);
        reused.invalidate_derived();
        let (mut oracle, _) = imputer.build_session(&w.coarse);
        let mut rng = StdRng::seed_from_u64(seed);
        'record: for (k, spec) in schema.variables().into_iter().enumerate() {
            let mut st = VarState::start();
            loop {
                let guided = allowed_chars(&mut reused, k, spec, &st, Lookahead::IntervalGuided);
                let full = allowed_chars(&mut oracle, k, spec, &st, Lookahead::Full);
                assert_eq!(
                    guided, full,
                    "record {i}, var {k}, prefix {} (len {})",
                    st.prefix, st.len
                );
                states += 1;
                if full.is_dead_end() {
                    // Only an unsatisfiable window may offer nothing, and
                    // it does so before the first character.
                    assert_eq!((k, st.len), (0, 0), "record {i}: dead end mid-decode");
                    break 'record;
                }
                let pick = rng.random_range(0..full.digits.len() + usize::from(full.terminator));
                match full.digits.get(pick) {
                    Some(&digit) => assert!(st.push(digit)),
                    None => {
                        reused.fix(k, st.prefix);
                        oracle.fix(k, st.prefix);
                        break;
                    }
                }
            }
        }
        reused.rollback(cp);

        // The same session, same lifecycle, now under the decoder: bytes
        // equal a fresh session's.
        let cp = reused.checkpoint();
        imputer.ground_in(&mut reused, &w.coarse);
        reused.invalidate_derived();
        let warm = decoder.decode(
            &mut reused,
            &schema,
            &imputer.prompt(&w.coarse),
            &mut StdRng::seed_from_u64(seed),
        );
        reused.rollback(cp);
        let fresh = imputer.impute(&w.coarse, &mut StdRng::seed_from_u64(seed));
        assert_eq!(
            warm.map(|o| (o.text, o.values)),
            fresh.map(|o| (o.text, o.values)),
            "record {i}"
        );
    }
    assert!(states > 24 * 10, "the walk visited only {states} states");
    assert_eq!(reused.solver().num_frames(), 0);
}

/// `(solver checks, searches, checks saved)` per record: the solver's
/// [`lejit_smt::SolverStats::checks`] and `searches`, and the guided queries
/// the session answered with no solver query.
type SolverWork = Vec<(u64, u64, u64)>;

/// Fresh imputation, pooled imputation, and one-session synthesis under
/// [`synthesis_rules`] and under [`implication_rules`], of twelve records
/// each, at fixed seeds.
fn solver_work() -> [SolverWork; 4] {
    let d = dataset();
    let windows: Vec<_> = d.test.iter().take(12).collect();
    let work = |s: &DecodeStats| (s.solver_checks, s.solver_searches, s.solver_checks_saved);

    let model = imputation_model(&d);
    let imputer = Imputer::new(
        &model,
        imputation_rules(),
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let mut pool = SessionPool::new(1);
    let (mut fresh, mut pooled) = (SolverWork::new(), SolverWork::new());
    for (i, w) in windows.iter().enumerate() {
        let seed = record_seed(4242, i as u64);
        let a = imputer
            .impute(&w.coarse, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let b = imputer
            .impute_pooled(&mut pool, &w.coarse, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(a.text, b.text, "window {i}");
        fresh.push(work(&a.stats));
        pooled.push(work(&b.stats));
    }

    let model = synthesis_model(&d);
    let hi = CoarseField::ALL.map(|f| d.train_max(f));
    let synthesize = |rules: RuleSet| {
        let synth = Synthesizer::new(&model, rules, hi, TaskConfig::default());
        let (mut session, schema) = synth.build_session();
        let mut reused = SolverWork::new();
        let mut before = (0, 0, 0);
        for i in 0..windows.len() {
            let seed = record_seed(777, i as u64);
            let (_, out) = synth
                .synthesize_in(&mut session, &schema, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            // `synthesize_in` reports the session's lifetime totals.
            let now = work(&out.stats);
            reused.push((now.0 - before.0, now.1 - before.1, now.2 - before.2));
            before = now;
        }
        reused
    };
    let reused = synthesize(synthesis_rules());
    let implied = synthesize(implication_rules());
    [fresh, pooled, reused, implied]
}

#[test]
fn per_record_solver_work_matches_the_golden() {
    let [fresh, pooled, reused, implied] = solver_work();
    assert_eq!(fresh, WORK_FRESH, "fresh imputation");
    assert_eq!(pooled, WORK_POOLED, "pooled imputation");
    assert_eq!(reused, WORK_REUSED, "one-session synthesis");
    assert_eq!(implied, WORK_IMPLIED, "one-session synthesis, implications");
}

// Every answer, model and decoded byte follows from which solver queries
// were made, so these counts move only when a lookahead tier asks the solver
// something else or the solver answers a query by another path. Equal on
// debug and release builds. A pooled session's last model is the previous
// request's, so its bound searches leave other witnesses than a fresh
// session's, and some of its records ask the solver other queries.
const WORK_FRESH: [(u64, u64, u64); 12] = [
    (89, 10, 99),
    (65, 0, 101),
    (76, 0, 93),
    (90, 0, 99),
    (62, 0, 100),
    (56, 0, 101),
    (44, 0, 81),
    (58, 0, 100),
    (28, 0, 93),
    (76, 6, 83),
    (67, 0, 99),
    (75, 0, 97),
];
const WORK_POOLED: [(u64, u64, u64); 12] = [
    (89, 10, 99),
    (65, 0, 99),
    (82, 0, 96),
    (98, 0, 98),
    (61, 0, 99),
    (55, 0, 101),
    (44, 0, 81),
    (58, 0, 99),
    (28, 0, 93),
    (75, 6, 83),
    (67, 0, 98),
    (80, 0, 100),
];
const WORK_REUSED: [(u64, u64, u64); 12] = [
    (124, 0, 123),
    (47, 0, 72),
    (87, 0, 107),
    (64, 0, 118),
    (88, 0, 104),
    (120, 0, 121),
    (50, 0, 103),
    (78, 0, 103),
    (109, 0, 125),
    (76, 0, 99),
    (86, 0, 130),
    (69, 0, 99),
];
// Under the implications a probe past a hull end may need a consequent that
// only the record's own fixes switch on. The spine holds it once a fix has
// made its antecedent true, so such a refutation is no search: 16 searches
// over the twelve records when the spine passed over every implication, 6
// since.
const WORK_IMPLIED: [(u64, u64, u64); 12] = [
    (134, 3, 131),
    (47, 0, 72),
    (89, 0, 109),
    (66, 0, 119),
    (88, 0, 106),
    (225, 1, 116),
    (50, 0, 102),
    (78, 0, 107),
    (151, 1, 131),
    (73, 0, 99),
    (88, 1, 130),
    (71, 0, 99),
];

/// Records decoded by [`pooled_run`].
const RUN_RECORDS: u64 = 24;

/// One session, [`RUN_RECORDS`] windows, the 131 rules mined from the
/// training split, decoded through the pooled lifecycle: the solver's and
/// the SAT core's lifetime counters, all of them deterministic.
fn pooled_run() -> (lejit_smt::SolverStats, lejit_smt::SatStats) {
    let d = dataset();
    let model = imputation_model(&d);
    let rules = mine_rules(&d.train, d.bandwidth, MinerConfig::default()).imputation;
    let imputer = Imputer::new(
        &model,
        rules,
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let schema = imputer.schema();
    let decoder = JitDecoder::new(&model, SamplerConfig::default());
    let mut session = JitSession::new(&schema);
    // Training windows: the mined rules hold on every one, so each decodes
    // to the end.
    for (i, w) in d.train.iter().take(RUN_RECORDS as usize).enumerate() {
        let cp = session.checkpoint();
        imputer.ground_in(&mut session, &w.coarse);
        session.invalidate_derived();
        let mut rng = StdRng::seed_from_u64(record_seed(99, i as u64));
        decoder
            .decode(&mut session, &schema, &imputer.prompt(&w.coarse), &mut rng)
            .unwrap_or_else(|e| panic!("window {i}: {e:?}"));
        session.rollback(cp);
    }
    (session.solver().stats(), session.solver().sat_stats())
}

/// How many of a pooled session's `Solver::check` calls run a CDCL search,
/// pinned from above. The solver answers a satisfiable probe from the
/// standing implicant of its last model — one warm theory check, no search
/// — and what the implicant refuses meets the spine next: one more theory
/// check, of the literals the live assertions force with the probe's,
/// whose refutation is `Unsat` and whose model is `Sat` if the
/// justification walk proves every assertion under it. Only the rest goes
/// to the search. On [`pooled_run`] the counters read, per record:
///
/// | | `Solver::check` calls | of them searches |
/// |---|---|---|
/// | every check a search (PR 19) | 88.9 | 88.9 |
/// | probes meet the implicant first | 80.2 | 16.2 |
/// | then the spine | 79.3 | 4.5 |
/// | hull without the decade sweep | 82.3 | 3.5 |
///
/// A change that sends satisfiable probes back to the search — an
/// implicant dropped where it could stand, a justification that pins the
/// variable being decoded, a spine that misses the literals an assertion
/// forces — fails here and not only in the benchmark.
#[test]
fn a_satisfiable_probe_does_not_reach_the_search() {
    let (solver, _) = pooled_run();
    assert_eq!(
        solver.checks,
        solver.searches + solver.implicant_answers + solver.spine_answers
    );
    assert!(
        solver.checks > 60 * RUN_RECORDS,
        "too few checks for the share of searches to mean anything: {solver:?}"
    );
    assert!(
        solver.searches < 6 * RUN_RECORDS,
        "{} searches for {RUN_RECORDS} records ({} checks)",
        solver.searches,
        solver.checks
    );
}

/// The work behind a pooled session's CDCL searches, pinned from above.
/// A theory conflict is analysed inside the search, which backjumps and
/// goes on; re-entering the search per conflict (add the lemma at the root,
/// solve again from level 0) places every frame selector again, consults
/// the theory again and re-decides the whole assignment. When every check
/// was a search, the rules' threshold implications made the theory refute
/// boolean models 2.6 times per search on [`pooled_run`], and the counters
/// read, per search:
///
/// | | decisions | trail literals propagated |
/// |---|---|---|
/// | restart per theory conflict (PR 15) | 117.7 | 538.6 |
/// | conflict analysed in place (PR 19) | 100.3 | 219.6 |
///
/// Once the implicant answered the satisfiable probes, the searches left
/// (see [`a_satisfiable_probe_does_not_reach_the_search`]) were the hard
/// fifth: 8.3 theory conflicts, 257.5 decisions and 395.5 propagated
/// literals per search, 4 164 decisions per record where there were
/// 8 918. Since the spine answers the `Unsat` probes its literals refute
/// and the `Sat` ones whose model the walk justifies, what is left is
/// harder still — 15.2 theory conflicts, 426 decisions and 592 propagated
/// literals per search — and rarer, so the work is pinned per record:
///
/// | | searches | decisions | trail literals propagated |
/// |---|---|---|---|
/// | probes meet the implicant first | 16.2 | 4 164 | ≈ 6 400 |
/// | then the spine | 4.5 | 1 917 | 2 663 |
/// | hull without the decade sweep | 3.5 | 1 351 | 1 911 |
///
/// The bounds below are the second row with an eighth of headroom; a
/// restart per conflict would repeat the selectors and the decisions 15.2
/// times a search. (`serve_closed`, the same lifecycle over 113 rules, read
/// 121 decisions per check when a conflict still restarted the search.)
#[test]
fn a_theory_conflict_does_not_restart_the_search() {
    let (solver, sat) = pooled_run();
    assert!(
        solver.theory_conflicts > 2 * solver.searches,
        "the theory refuted too few boolean models for the bound to mean anything: {solver:?}"
    );
    assert!(
        sat.decisions < 2_160 * RUN_RECORDS,
        "{} decisions for {RUN_RECORDS} records ({} searches)",
        sat.decisions,
        solver.searches
    );
    assert!(
        sat.propagations < 3_000 * RUN_RECORDS,
        "{} propagations for {RUN_RECORDS} records ({} searches)",
        sat.propagations,
        solver.searches
    );
}
