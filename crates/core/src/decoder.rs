//! The JIT decoder: model → solver mask → logits → sample → commit, as
//! drivers over the lane engine ([`crate::lanes`]).
//!
//! A decode walks a [`DecodeSchema`], forcing literal characters and
//! generating each variable digit by digit. Before every sampled character,
//! the transition system ([`crate::transition`]) asks the solver which
//! characters can still lead to a rule-compliant output; all other logits
//! are set to `-inf` and sampling renormalizes over the survivors. When a
//! variable's terminator is emitted, its value is fixed in the solver —
//! from then on, every remaining rule is evaluated relative to it (dynamic
//! partial instantiation). That per-character step lives once, in
//! [`crate::lanes`]; [`SessionJob`] is the session-backed mask source, and
//! [`JitDecoder`] runs it for one record ([`JitDecoder::decode`], with a
//! trace sink [`JitDecoder::decode_traced`]) or a lock-step group
//! ([`JitDecoder::decode_batch`]).
//!
//! The engine also counts **interventions**: steps where the model's
//! unconstrained argmax was masked away. This quantifies the paper's
//! "minimally invasive" claim — a well-trained model needs few nudges.

#![expect(
    clippy::cast_possible_truncation,
    reason = "a lane tag is decode_batch's own usize index widened to u64, so it narrows back losslessly"
)]

use std::borrow::BorrowMut;
use std::fmt;

use rand::Rng;

use lejit_lm::{LanguageModel, SamplerConfig};

use crate::lanes::{decode_lane, AdmitOutcome, ContinuousBatcher, FinishedLane, LaneJob};
use crate::schema::{DecodeSchema, VarSpec};
use crate::session::JitSession;
use crate::trace::DecodeTrace;
use crate::transition::{allowed_chars, CharOptions, Lookahead, VarState};

/// Why decoding failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The model's vocabulary lacks a character the schema needs.
    MissingChar(char),
    /// The rules are unsatisfiable before any token is generated.
    UnsatRules,
    /// No character can be emitted (only reachable without full lookahead).
    DeadEnd {
        /// Name of the variable being decoded.
        var: String,
        /// The digit prefix at which decoding got stuck.
        prefix: i64,
    },
    /// A decoder invariant broke (e.g. a sampled token outside the allowed
    /// set). Reported as an error instead of panicking so one poisoned lane
    /// cannot bring down a whole batch (panic-freedom lint L2).
    Internal(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::MissingChar(c) => write!(f, "vocabulary lacks character `{c}`"),
            DecodeError::UnsatRules => write!(f, "rules are unsatisfiable for this input"),
            DecodeError::DeadEnd { var, prefix } => {
                write!(f, "dead end decoding `{var}` at prefix {prefix}")
            }
            DecodeError::Internal(what) => write!(f, "decoder invariant violated: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Counters describing one decode.
///
/// Token accounting contract: `tokens` counts every emitted character,
/// `forced_tokens` the subset that were schema literals, and a
/// [`DecodeTrace`] (when requested) records exactly the *generated*
/// characters — `trace.steps.len() == tokens - forced_tokens`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecodeStats {
    /// Characters emitted in total (literals + generated).
    pub tokens: u64,
    /// Characters that were schema literals (forced).
    pub forced_tokens: u64,
    /// Queries the solver answered ([`lejit_smt::SolverStats::checks`]):
    /// searches + implicant answers + spine answers, range analyses
    /// counted by the queries they ran.
    pub solver_checks: u64,
    /// The checks that ran a CDCL search
    /// ([`lejit_smt::SolverStats::searches`]); the rest were answered by
    /// the solver's standing implicant or by its spine.
    pub solver_searches: u64,
    /// Guided queries answered by the hull, a witness or a certified gap,
    /// with no solver query. Zero under [`Lookahead::Full`] /
    /// [`Lookahead::ImmediateOnly`].
    pub solver_checks_saved: u64,
    /// Always zero: the session's memo of exact guided answers is gone
    /// (every query it answered is answered by the epoch's witness set or
    /// gap list; removing it moved no solver counter on any benchmark
    /// workload). The field stays because `benchmark/` reads it.
    pub cache_hits: u64,
    /// Steps where the model's unmasked argmax was pruned by the mask.
    pub interventions: u64,
    /// Steps where the mask left exactly one character (fully determined,
    /// e.g. step 5 of Fig. 1b).
    pub forced_choices: u64,
    /// Simplex pivots performed by the warm-started theory tableau.
    pub solver_pivots: u64,
    /// Branch-and-bound nodes explored across all theory checks.
    pub solver_bnb_nodes: u64,
    /// Always zero: the solver's theory-verdict memo is gone (it answered
    /// under 3 % of theory checks on every benchmark workload). The field
    /// stays because `benchmark/` reads it.
    pub theory_memo_hits: u64,
    /// Atom literals the theory propagator enqueued on the SAT trail (bound
    /// consequences derived between unit propagation and each decision).
    pub theory_propagations: u64,
    /// Theory reason clauses materialized on demand during conflict
    /// analysis (a subset of `theory_propagations`).
    pub theory_explanations: u64,
    /// Tseitin encode-cache hits (terms answered without fresh clauses).
    pub encode_cache_hits: u64,
    /// Tseitin encode-cache misses (terms paying for a fresh encoding).
    pub encode_cache_misses: u64,
    /// Times this decode's session came warm out of a session pool. The
    /// three pool fields are written by [`crate::Lease::settle`] from the
    /// lease's own acquisition; every other path leaves them zero.
    pub pool_hits: u64,
    /// Times a session pool had to build this decode's session fresh.
    pub pool_misses: u64,
    /// Pool evictions attributed to this decode's session acquisition.
    pub pool_evictions: u64,
}

impl DecodeStats {
    /// Rebases the session-cumulative counters against `baseline`, turning
    /// lifetime totals into this-decode deltas.
    ///
    /// The solver-side fields ([`Self::solver_checks`] through
    /// [`Self::encode_cache_misses`]) are copied out of the session
    /// *absolutely* — a session reused across decodes (checkpoint/rollback
    /// reuse, pooled acquisition) reports its lifetime totals. Callers that
    /// hand out per-request stats snapshot the session's counters before
    /// decoding (via the same fill the decoder uses) and subtract here;
    /// [`crate::Lease::settle`] does it for every leased decode. The
    /// per-emit fields (`tokens`, `forced_tokens`, `interventions`,
    /// `forced_choices`) and the pool events are already per-decode and
    /// stay untouched.
    pub fn rebase_against(&mut self, baseline: &DecodeStats) {
        self.solver_checks = self.solver_checks.saturating_sub(baseline.solver_checks);
        self.solver_searches = self
            .solver_searches
            .saturating_sub(baseline.solver_searches);
        self.solver_checks_saved = self
            .solver_checks_saved
            .saturating_sub(baseline.solver_checks_saved);
        self.solver_pivots = self.solver_pivots.saturating_sub(baseline.solver_pivots);
        self.solver_bnb_nodes = self
            .solver_bnb_nodes
            .saturating_sub(baseline.solver_bnb_nodes);
        self.theory_propagations = self
            .theory_propagations
            .saturating_sub(baseline.theory_propagations);
        self.theory_explanations = self
            .theory_explanations
            .saturating_sub(baseline.theory_explanations);
        self.encode_cache_hits = self
            .encode_cache_hits
            .saturating_sub(baseline.encode_cache_hits);
        self.encode_cache_misses = self
            .encode_cache_misses
            .saturating_sub(baseline.encode_cache_misses);
    }
}

/// A successfully decoded record.
#[derive(Clone, Debug)]
pub struct DecodedOutput {
    /// The values of the schema variables, in order.
    pub values: Vec<i64>,
    /// The emitted text (without the prompt).
    pub text: String,
    /// Decode counters.
    pub stats: DecodeStats,
}

/// The LeJIT decoder: SMT-guided constrained generation.
pub struct JitDecoder<'m, M: LanguageModel> {
    model: &'m M,
    sampler: SamplerConfig,
    lookahead: Lookahead,
}

impl<'m, M: LanguageModel> JitDecoder<'m, M> {
    /// Creates a decoder with the default lookahead.
    pub fn new(model: &'m M, sampler: SamplerConfig) -> Self {
        JitDecoder {
            model,
            sampler,
            lookahead: Lookahead::default(),
        }
    }

    /// Overrides the lookahead policy (used by the ablation benchmark).
    pub fn with_lookahead(mut self, lookahead: Lookahead) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Decodes one record. The session must already contain the grounded
    /// rules; the prompt is the conditioning text (empty for unconditional
    /// generation).
    pub fn decode<R: Rng>(
        &self,
        session: &mut JitSession,
        schema: &DecodeSchema,
        prompt: &str,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        let mut job = self.job(session, rng);
        decode_lane(self.model, schema, &self.sampler, &mut job, prompt)
    }

    /// Like [`Self::decode`], additionally returning a per-character
    /// [`DecodeTrace`] of what the transition system allowed at every step.
    pub fn decode_traced<R: Rng>(
        &self,
        session: &mut JitSession,
        schema: &DecodeSchema,
        prompt: &str,
        rng: &mut R,
    ) -> Result<(DecodedOutput, DecodeTrace), DecodeError> {
        let mut job = self.job(session, rng).traced();
        let out = decode_lane(self.model, schema, &self.sampler, &mut job, prompt)?;
        Ok((out, job.into_parts().1.unwrap_or_default()))
    }

    fn job<'a, R: Rng>(
        &self,
        session: &'a mut JitSession,
        rng: &'a mut R,
    ) -> SessionJob<&'a mut JitSession, &'a mut R> {
        SessionJob::new(session, rng).with_lookahead(self.lookahead)
    }

    /// Decodes a group of records lock-step, one `(session, prompt, rng)`
    /// per lane: each round asks every live lane's solver for its allowed
    /// characters, runs **one** [`LanguageModel::forward_batch`] over all
    /// live contexts, then samples and commits each lane from its own RNG.
    ///
    /// Lanes that finish their schema, dead-end, or start unsatisfiable
    /// drop out of the batch; the survivors keep draining in smaller
    /// rounds until none remain. Lane `i`'s result is byte-identical to
    /// [`Self::decode`] on lane `i`'s triple: each lane sees the same
    /// per-record sequence of solver queries, logits (the model's batch
    /// contract), and RNG draws as a serial decode, so only the *grouping*
    /// of model calls changes (DESIGN.md §8).
    pub fn decode_batch<R: Rng>(
        &self,
        schema: &DecodeSchema,
        lanes: &mut [(&mut JitSession, &str, &mut R)],
    ) -> Vec<Result<DecodedOutput, DecodeError>> {
        let mut batcher = ContinuousBatcher::new(schema.clone(), self.sampler, lanes.len());
        let mut results: Vec<Result<DecodedOutput, DecodeError>> = lanes
            .iter()
            .map(|_| Err(DecodeError::Internal("lane never resolved")))
            .collect();
        let mut settle = |f: FinishedLane<_>| {
            if let Some(r) = results.get_mut(f.tag as usize) {
                *r = f.result;
            }
        };
        for (i, (session, prompt, rng)) in lanes.iter_mut().enumerate() {
            let job = self.job(session, rng);
            match batcher.admit(self.model, job, prompt, i as u64) {
                AdmitOutcome::Seated => {}
                AdmitOutcome::Finished(f) => settle(f),
                // Unreachable (the batcher was sized to the group); the
                // lane keeps its "never resolved" error.
                AdmitOutcome::Full(_) => {}
            }
        }
        while !batcher.is_idle() {
            batcher
                .step(self.model)
                .finished
                .into_iter()
                .for_each(&mut settle);
        }
        results
    }
}

/// The session-backed [`LaneJob`]: character sets come from the transition
/// system under the job's own [`Lookahead`], commits become partial
/// instantiations. Generic over who holds the session for the decode —
/// `&mut JitSession` for [`JitDecoder`]'s drivers, a [`crate::Lease`] for a
/// lane `lejit-serve` seats, a bare [`JitSession`] — and over an owned or
/// borrowed RNG (`&mut R` is an [`Rng`] too).
pub struct SessionJob<S, R> {
    session: S,
    rng: R,
    lookahead: Lookahead,
    trace: Option<DecodeTrace>,
}

impl<S: BorrowMut<JitSession>, R: Rng> SessionJob<S, R> {
    /// A job decoding against `session` and sampling from `rng`, with the
    /// default lookahead and no trace.
    pub fn new(session: S, rng: R) -> Self {
        SessionJob {
            session,
            rng,
            lookahead: Lookahead::default(),
            trace: None,
        }
    }

    /// Overrides the lookahead policy (ablations and the `Full` oracle).
    pub(crate) fn with_lookahead(mut self, lookahead: Lookahead) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Records a [`DecodeTrace`] of every generated character, handed back
    /// by [`Self::into_parts`].
    pub fn traced(mut self) -> Self {
        self.trace = Some(DecodeTrace::default());
        self
    }

    /// The session holder — to settle a lease, or keep a session — and the
    /// trace, if one was asked for.
    pub fn into_parts(self) -> (S, Option<DecodeTrace>) {
        (self.session, self.trace)
    }
}

impl<S: BorrowMut<JitSession>, R: Rng> LaneJob for SessionJob<S, R> {
    type Rng = R;
    fn admissible(&mut self) -> bool {
        self.session.borrow_mut().satisfiable()
    }
    fn allowed(&mut self, k: usize, spec: &VarSpec, st: &VarState) -> CharOptions {
        allowed_chars(self.session.borrow_mut(), k, spec, st, self.lookahead)
    }
    fn commit(&mut self, k: usize, value: i64) {
        self.session.borrow_mut().fix(k, value);
    }
    fn rng_mut(&mut self) -> &mut R {
        &mut self.rng
    }
    fn fill_stats(&self, stats: &mut DecodeStats) {
        self.session.borrow().fill_stats(stats);
    }
    fn trace_mut(&mut self) -> Option<&mut DecodeTrace> {
        self.trace.as_mut()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::batch::record_seed;
    use crate::schema::DecodeSchema;
    use lejit_lm::{NgramLm, TokenId, Vocab};
    use lejit_rules::{ground_rule, parse_rules, GroundCtx, RuleSet};
    use lejit_telemetry::CoarseField;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A quick n-gram model over imputation-shaped text.
    pub(crate) fn toy_model() -> NgramLm {
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

    fn paper_ruleset() -> RuleSet {
        parse_rules(
            "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
             rule r2: sum(fine) == total_ingress;
             rule r3: ecn_bytes > 0 => max(fine) >= 30;",
        )
        .unwrap()
    }

    pub(crate) fn session_for(total: i64, ecn: i64) -> (JitSession, DecodeSchema) {
        let schema = DecodeSchema::fine_series(5, 60);
        let mut session = JitSession::new(&schema);
        let rules = paper_ruleset();
        let solver = session.solver_mut();
        let mut coarse_vals = [0i64; 6];
        coarse_vals[CoarseField::TotalIngress.index()] = total;
        coarse_vals[CoarseField::EcnBytes.index()] = ecn;
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

    /// `decode_batch` over fresh `session_for(total, 8)` lanes, lane `i`
    /// drawing from `record_seed(base, i)`.
    fn decode_group<M: LanguageModel>(
        decoder: &JitDecoder<'_, M>,
        totals: &[i64],
        prompt: &str,
        base: u64,
    ) -> Vec<Result<DecodedOutput, DecodeError>> {
        let mut owned: Vec<(JitSession, StdRng)> = totals
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let rng = StdRng::seed_from_u64(record_seed(base, i as u64));
                (session_for(t, 8).0, rng)
            })
            .collect();
        let mut lanes: Vec<_> = owned.iter_mut().map(|(s, r)| (s, prompt, r)).collect();
        decoder.decode_batch(&DecodeSchema::fine_series(5, 60), &mut lanes)
    }

    #[test]
    fn decoded_outputs_always_satisfy_rules() {
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..10 {
            let (mut session, schema) = session_for(100, 8);
            let out = decoder
                .decode(
                    &mut session,
                    &schema,
                    "T=100;E=8;R=0;G=70;C=12;D=0|",
                    &mut rng,
                )
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(out.values.len(), 5);
            let sum: i64 = out.values.iter().sum();
            assert_eq!(sum, 100, "R2 violated: {:?}", out.values);
            assert!(out.values.iter().all(|&v| (0..=60).contains(&v)), "R1");
            assert!(*out.values.iter().max().unwrap() >= 30, "R3");
        }
    }

    #[test]
    fn decoded_text_parses_back() {
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let (mut session, schema) = session_for(100, 8);
        let out = decoder
            .decode(
                &mut session,
                &schema,
                "T=100;E=8;R=0;G=70;C=12;D=0|",
                &mut rng,
            )
            .unwrap();
        let parsed = lejit_telemetry::parse_fine(&out.text).unwrap();
        assert_eq!(parsed, out.values);
        assert!(out.text.ends_with('.'));
    }

    #[test]
    fn unsat_rules_reported_before_generation() {
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        // total = 400 cannot be reached with 5 values <= 60.
        let (mut session, schema) = session_for(400, 0);
        let err = decoder
            .decode(&mut session, &schema, "", &mut rng)
            .unwrap_err();
        assert_eq!(err, DecodeError::UnsatRules);
    }

    #[test]
    fn missing_char_is_detected() {
        // A vocabulary without '.' cannot express the schema terminator.
        let vocab = Vocab::from_corpus("0123456789,");
        let seqs = vec![vocab.encode("1,2").unwrap()];
        let model = NgramLm::train(vocab, &seqs, 2);
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let (mut session, schema) = session_for(100, 0);
        let err = decoder
            .decode(&mut session, &schema, "", &mut rng)
            .unwrap_err();
        assert_eq!(err, DecodeError::MissingChar('.'));
    }

    #[test]
    fn forced_choice_is_counted_when_region_collapses() {
        // With total=0 every variable must be exactly 0: all five values are
        // fully determined, so forced choices must occur.
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let (mut session, schema) = session_for(0, 0);
        let out = decoder.decode(&mut session, &schema, "", &mut rng).unwrap();
        assert_eq!(out.values, vec![0, 0, 0, 0, 0]);
        assert!(out.stats.forced_choices >= 5);
    }

    /// A deliberately impoverished model: it knows the vocabulary but
    /// assigns `-inf` to every continuation, as a real model does for
    /// characters absent from its training data.
    struct AllNegInfLm {
        vocab: Vocab,
    }

    impl LanguageModel for AllNegInfLm {
        fn vocab(&self) -> &Vocab {
            &self.vocab
        }
        fn next_logits(&self, _context: &[TokenId]) -> Vec<f32> {
            vec![f32::NEG_INFINITY; self.vocab.len()]
        }
    }

    #[test]
    fn all_neg_inf_logits_fall_back_to_uniform_over_allowed() {
        // Regression: when the mask leaves only -inf-scored tokens,
        // the decode step used to panic on "non-empty allowed set always
        // yields a sample". The feasible set is still correct, so the
        // decoder now draws uniformly from it instead.
        let model = AllNegInfLm {
            vocab: Vocab::from_corpus("0123456789,;|=."),
        };
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let (mut session, schema) = session_for(100, 8);
        let out = decoder.decode(&mut session, &schema, "", &mut rng).unwrap();
        assert_eq!(out.values.len(), 5);
        assert_eq!(out.values.iter().sum::<i64>(), 100, "R2 still enforced");
        assert!(out.values.iter().all(|&v| (0..=60).contains(&v)), "R1");
        assert!(*out.values.iter().max().unwrap() >= 30, "R3");
    }

    #[test]
    fn batch_decode_is_byte_identical_to_serial() {
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let prompt = "T=100;E=8;R=0;G=70;C=12;D=0|";
        let serial: Vec<DecodedOutput> = (0..6)
            .map(|i| {
                let (mut session, schema) = session_for(100, 8);
                let mut rng = StdRng::seed_from_u64(record_seed(33, i));
                decoder
                    .decode(&mut session, &schema, prompt, &mut rng)
                    .unwrap()
            })
            .collect();

        let got = decode_group(&decoder, &[100; 6], prompt, 33);
        for (i, (s, g)) in serial.iter().zip(&got).enumerate() {
            let g = g.as_ref().unwrap_or_else(|e| panic!("lane {i}: {e}"));
            assert_eq!(s.text, g.text, "lane {i} text diverged");
            assert_eq!(s.values, g.values, "lane {i} values diverged");
            assert_eq!(s.stats.tokens, g.stats.tokens);
            assert_eq!(s.stats.forced_tokens, g.stats.forced_tokens);
            assert_eq!(s.stats.interventions, g.stats.interventions);
            assert_eq!(s.stats.forced_choices, g.stats.forced_choices);
            assert_eq!(s.stats.solver_checks, g.stats.solver_checks);
            // The warm-started theory backend's cost profile must also be
            // lane-local: batching regroups model calls, never solver work.
            assert_eq!(s.stats.solver_pivots, g.stats.solver_pivots);
            assert_eq!(s.stats.solver_bnb_nodes, g.stats.solver_bnb_nodes);
            assert_eq!(s.stats.theory_propagations, g.stats.theory_propagations);
            assert_eq!(s.stats.theory_explanations, g.stats.theory_explanations);
            assert_eq!(s.stats.encode_cache_hits, g.stats.encode_cache_hits);
            assert_eq!(s.stats.encode_cache_misses, g.stats.encode_cache_misses);
        }
    }

    #[test]
    fn batch_decode_reports_per_lane_errors_and_drains_survivors() {
        // Lane 1 starts unsatisfiable (total=400 over 5 values ≤ 60); the
        // other lanes must decode exactly as if lane 1 never existed.
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let prompt = "T=100;E=8;R=0;G=70;C=12;D=0|";
        let schema = DecodeSchema::fine_series(5, 60);
        let got = decode_group(&decoder, &[100, 400, 100], prompt, 90);
        assert_eq!(got[1].as_ref().unwrap_err(), &DecodeError::UnsatRules);
        for &i in &[0usize, 2] {
            let (mut session, _) = session_for(100, 8);
            let mut rng = StdRng::seed_from_u64(record_seed(90, i as u64));
            let serial = decoder
                .decode(&mut session, &schema, prompt, &mut rng)
                .unwrap();
            let g = got[i].as_ref().unwrap();
            assert_eq!(serial.text, g.text, "survivor lane {i}");
            assert_eq!(serial.values, g.values);
        }
    }

    #[test]
    fn batch_decode_over_a_wide_gpt_cache_matches_one_record_at_a_time() {
        // End-to-end bit-identity across the whole stack: four lanes
        // sharing each GEMM-shaped forward step + lock-step constrained
        // decoding must reproduce the one-lane KV-cached path byte for byte.
        use lejit_lm::{CachedGpt, GptConfig, TinyGpt};
        let vocab = Vocab::from_corpus("0123456789,;|=.TERGCD");
        let gpt = TinyGpt::new(
            GptConfig {
                d_model: 16,
                n_layers: 2,
                n_heads: 2,
                max_seq_len: 96,
            },
            vocab,
            7,
        );
        let prompt = "T=100;E=8;R=0;G=70;C=12;D=0|";

        let serial_model = CachedGpt::new(&gpt);
        let serial_decoder = JitDecoder::new(&serial_model, SamplerConfig::default());
        let serial: Vec<DecodedOutput> = (0..4)
            .map(|i| {
                let (mut session, schema) = session_for(100, 8);
                let mut rng = StdRng::seed_from_u64(record_seed(55, i));
                serial_decoder
                    .decode(&mut session, &schema, prompt, &mut rng)
                    .unwrap()
            })
            .collect();

        let batch_model = CachedGpt::new(&gpt);
        let batch_decoder = JitDecoder::new(&batch_model, SamplerConfig::default());
        let got = decode_group(&batch_decoder, &[100; 4], prompt, 55);
        for (i, (s, g)) in serial.iter().zip(&got).enumerate() {
            let g = g.as_ref().unwrap_or_else(|e| panic!("lane {i}: {e}"));
            assert_eq!(s.text, g.text, "lane {i} text diverged");
            assert_eq!(s.values, g.values, "lane {i} values diverged");
        }
    }

    #[test]
    fn error_precedence_is_the_same_serial_and_in_a_batcher_lane() {
        // One admission sequence (unsat → digit ids → prompt ids) and one
        // per-character step serve both drivers, so whichever failures a
        // record combines, `decode` and a `decode_batch` lane seated beside
        // a healthy neighbour report the same one.
        let full = toy_model();
        let vocab_without = |gone: &[char]| {
            let chars: String = full
                .vocab()
                .chars()
                .iter()
                .filter(|c| !gone.contains(c))
                .collect();
            let vocab = Vocab::from_corpus(&chars);
            let seqs = vec![vocab.encode("1,2").unwrap()];
            NgramLm::train(vocab, &seqs, 2)
        };
        let no_dot = vocab_without(&['.']);
        let no_nine = vocab_without(&['9']);
        let prompt = "T=100;E=8;R=0;G=70;C=12;D=0|";
        // (model, lookahead, lane total, prompt, expected error)
        let cases: [(&NgramLm, Lookahead, i64, &str, DecodeError); 6] = [
            (
                &full,
                Lookahead::default(),
                400,
                prompt,
                DecodeError::UnsatRules,
            ),
            (
                &full,
                Lookahead::default(),
                400,
                "X",
                DecodeError::UnsatRules,
            ),
            (
                &full,
                Lookahead::default(),
                100,
                "X",
                DecodeError::MissingChar('X'),
            ),
            (
                &no_nine,
                Lookahead::default(),
                100,
                "X",
                DecodeError::MissingChar('9'),
            ),
            (
                &no_dot,
                Lookahead::default(),
                100,
                "",
                DecodeError::MissingChar('.'),
            ),
            (
                &full,
                Lookahead::ImmediateOnly,
                100,
                prompt,
                DecodeError::DeadEnd {
                    var: "fine4".into(),
                    prefix: 25,
                },
            ),
        ];
        for (n, (model, lookahead, total, prompt, want)) in cases.into_iter().enumerate() {
            let decoder =
                JitDecoder::new(model, SamplerConfig::default()).with_lookahead(lookahead);
            let (mut session, schema) = session_for(total, 8);
            let mut rng = StdRng::seed_from_u64(record_seed(7, 1));
            let serial = decoder
                .decode(&mut session, &schema, prompt, &mut rng)
                .unwrap_err();
            // Lane 1 is the case; lane 0 is its neighbour.
            let lane = decode_group(&decoder, &[100, total], prompt, 7).swap_remove(1);
            assert_eq!(lane.unwrap_err(), serial, "case {n}");
            assert_eq!(serial, want, "case {n}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let (mut session, schema) = session_for(100, 8);
        let out = decoder
            .decode(
                &mut session,
                &schema,
                "T=100;E=8;R=0;G=70;C=12;D=0|",
                &mut rng,
            )
            .unwrap();
        assert!(out.stats.solver_checks > 0);
        assert!(out.stats.tokens >= 9, "5 values + 4 separators + dot");
        assert_eq!(
            out.stats.forced_tokens, 0,
            "separators come from terminators"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::decoder::tests::{session_for, toy_model};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trace_records_every_generated_char() {
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(21);
        let (mut session, schema) = session_for(100, 8);
        let (out, trace) = decoder
            .decode_traced(
                &mut session,
                &schema,
                "T=100;E=8;R=0;G=70;C=12;D=0|",
                &mut rng,
            )
            .unwrap();
        // The trace/stats contract: one step per *generated* character.
        assert_eq!(
            trace.steps.len() as u64,
            out.stats.tokens - out.stats.forced_tokens
        );
        assert_eq!(out.stats.forced_tokens, 0, "fine_series has no literals");
        assert_eq!(trace.interventions() as u64, out.stats.interventions);
        // Every step's chosen char was actually allowed.
        for s in &trace.steps {
            if s.chosen.is_ascii_digit() {
                let d = s.chosen as u8 - b'0';
                assert!(s.allowed_digits.contains(&d), "{s:?}");
            } else {
                assert!(s.terminator_allowed, "{s:?}");
            }
        }
        // The rendered trace mentions every variable.
        let rendered = trace.to_string();
        for k in 0..5 {
            assert!(rendered.contains(&format!("fine{k}")));
        }
    }

    #[test]
    fn literal_prefixed_schema_traces_only_generated_chars() {
        // A schema with forced literals ("T=", "E=") exercises the
        // contract's non-trivial side: forced_tokens > 0 and the trace
        // still holds exactly one step per generated character.
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(23);
        let schema = DecodeSchema::coarse_record(&[
            ('T', "total".to_string(), 99),
            ('E', "ecn".to_string(), 99),
        ]);
        // Rule-free session: only the declared bounds constrain the values.
        let mut session = JitSession::new(&schema);
        let (out, trace) = decoder
            .decode_traced(&mut session, &schema, "", &mut rng)
            .unwrap();
        assert!(out.stats.forced_tokens > 0, "schema literals were emitted");
        assert_eq!(
            trace.steps.len() as u64,
            out.stats.tokens - out.stats.forced_tokens
        );
        // "T=" plus "E=" are forced; the terminators ';' and '.' are
        // generated (they commit values), so they appear as trace steps.
        assert_eq!(out.stats.forced_tokens, 4);
        assert!(out.text.starts_with("T="));
        assert_eq!(out.values.len(), 2);
    }

    #[test]
    fn forced_steps_appear_when_region_collapses() {
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(22);
        let (mut session, schema) = session_for(0, 0);
        let (_, trace) = decoder
            .decode_traced(&mut session, &schema, "", &mut rng)
            .unwrap();
        // total=0: every variable is forced to "0" then terminator.
        assert!(trace.forced_steps() >= 5, "{}", trace);
    }
}
