//! The JIT decode loop: model → logits → solver mask → sample → commit.
//!
//! Walks a [`DecodeSchema`], forcing literal characters and generating each
//! variable digit by digit. Before every sampled character, the transition
//! system ([`crate::transition`]) asks the solver which characters can still
//! lead to a rule-compliant output; all other logits are set to `-inf` and
//! sampling renormalizes over the survivors. When a variable's terminator is
//! emitted, its value is fixed in the solver — from then on, every remaining
//! rule is evaluated relative to it (dynamic partial instantiation).
//!
//! The decoder also counts **interventions**: steps where the model's
//! unconstrained argmax was masked away. This quantifies the paper's
//! "minimally invasive" claim — a well-trained model needs few nudges.

use std::fmt;

use rand::Rng;

use lejit_lm::{sample_token, LanguageModel, SamplerConfig, TokenId};

use crate::lanes::{AdmitOutcome, ContinuousBatcher, FinishedLane, LaneJob};
use crate::schema::{DecodeSchema, SchemaItem, VarSpec};
use crate::session::JitSession;
use crate::trace::{DecodeTrace, TraceStep};
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
    /// Satisfiability checks issued to the solver.
    pub solver_checks: u64,
    /// Per-character solver queries answered without a solver check by the
    /// interval-guided lookahead (hull rejection, witness acceptance, or
    /// memo hit). Zero under [`Lookahead::Full`] / [`Lookahead::ImmediateOnly`].
    pub solver_checks_saved: u64,
    /// Guided queries answered from the exact-result memo cache (a subset
    /// of `solver_checks_saved`).
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
    /// Times this decode's session came warm out of a session pool (zero
    /// for the unpooled paths).
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
    /// [`Self::pool_evictions`]) are copied out of the session *absolutely*
    /// — a session reused across decodes (checkpoint/rollback reuse, pooled
    /// acquisition) reports its lifetime totals. Callers that hand out
    /// per-request stats snapshot the session's counters before decoding
    /// (via the same fill the decoder uses) and subtract here. The per-emit
    /// fields (`tokens`, `forced_tokens`, `interventions`,
    /// `forced_choices`) are already per-decode and stay untouched.
    pub fn rebase_against(&mut self, baseline: &DecodeStats) {
        self.solver_checks = self.solver_checks.saturating_sub(baseline.solver_checks);
        self.solver_checks_saved = self
            .solver_checks_saved
            .saturating_sub(baseline.solver_checks_saved);
        self.cache_hits = self.cache_hits.saturating_sub(baseline.cache_hits);
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
        self.pool_hits = self.pool_hits.saturating_sub(baseline.pool_hits);
        self.pool_misses = self.pool_misses.saturating_sub(baseline.pool_misses);
        self.pool_evictions = self.pool_evictions.saturating_sub(baseline.pool_evictions);
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

/// How a decode run decides which characters are allowed and what happens
/// when a value commits. The JIT policy consults the solver; the vanilla
/// policy is purely structural.
pub(crate) trait DecodePolicy {
    /// Allowed next characters for variable `k` in state `st`.
    fn allowed(&mut self, k: usize, spec: &VarSpec, st: &VarState) -> CharOptions;
    /// Called when variable `k` commits to `value`.
    fn commit(&mut self, k: usize, value: i64);
}

/// The generic decode loop, parameterized by a [`DecodePolicy`]. Shared
/// between the JIT decoder and the vanilla (rule-free) decoder.
pub(crate) fn decode_loop<M, R, P>(
    model: &M,
    schema: &DecodeSchema,
    prompt: &str,
    sampler: &SamplerConfig,
    rng: &mut R,
    policy: &mut P,
    mut trace: Option<&mut DecodeTrace>,
) -> Result<DecodedOutput, DecodeError>
where
    M: LanguageModel,
    R: Rng,
    P: DecodePolicy,
{
    let vocab = model.vocab();
    let tok = |c: char| -> Result<TokenId, DecodeError> {
        vocab.id_of(c).ok_or(DecodeError::MissingChar(c))
    };
    let digit_tokens: Vec<TokenId> = ('0'..='9').map(tok).collect::<Result<Vec<_>, _>>()?;

    let mut context: Vec<TokenId> = Vec::with_capacity(prompt.len() + 64);
    for c in prompt.chars() {
        context.push(tok(c)?);
    }

    let mut stats = DecodeStats::default();
    let mut values = Vec::new();
    let mut text = String::new();
    let mut var_idx = 0usize;
    let mut skip_next_literal_char = false;

    for item in &schema.items {
        match item {
            SchemaItem::Literal(s) => {
                for (i, c) in s.chars().enumerate() {
                    if i == 0 && skip_next_literal_char {
                        skip_next_literal_char = false;
                        continue;
                    }
                    context.push(tok(c)?);
                    text.push(c);
                    stats.tokens += 1;
                    stats.forced_tokens += 1;
                }
            }
            SchemaItem::Variable(spec) => {
                let term_char = schema.terminator_of(var_idx);
                let term_token = tok(term_char)?;
                let mut st = VarState::start();
                loop {
                    let opts = policy.allowed(var_idx, spec, &st);
                    if opts.is_dead_end() {
                        return Err(DecodeError::DeadEnd {
                            var: spec.name.clone(),
                            prefix: st.prefix,
                        });
                    }
                    let logits = model.next_logits(&context);
                    // Unconstrained argmax, for intervention accounting.
                    // `total_cmp` (not `partial_cmp().unwrap()`): panic-free
                    // on NaN and a deterministic total order on ties.
                    let argmax = logits
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i as TokenId)
                        .unwrap_or(0);

                    let mut allowed_tokens: Vec<TokenId> = opts
                        .digits
                        .iter()
                        .map(|&d| digit_tokens[d as usize])
                        .collect();
                    if opts.terminator {
                        allowed_tokens.push(term_token);
                    }
                    if allowed_tokens.len() == 1 {
                        stats.forced_choices += 1;
                    }
                    if !allowed_tokens.contains(&argmax) {
                        stats.interventions += 1;
                    }

                    let mut masked = vec![f32::NEG_INFINITY; logits.len()];
                    for &t in &allowed_tokens {
                        masked[t as usize] = logits[t as usize];
                    }
                    // A model can assign -inf to every allowed token (e.g. a
                    // character it never saw in training); the mask then
                    // leaves no finite logit and sampling has no
                    // distribution to draw from. The allowed set is still
                    // exactly the feasible set, so fall back to a uniform
                    // draw over it rather than panicking.
                    let chosen = match sample_token(&masked, sampler, rng) {
                        Some(t) => t,
                        None => allowed_tokens[rng.random_range(0..allowed_tokens.len())],
                    };
                    stats.tokens += 1;
                    context.push(chosen);

                    if let Some(tr) = trace.as_deref_mut() {
                        tr.steps.push(TraceStep {
                            var: spec.name.clone(),
                            prefix: st.prefix,
                            prefix_len: st.len,
                            allowed_digits: opts.digits.clone(),
                            terminator_allowed: opts.terminator,
                            chosen: vocab.char_of(chosen),
                            intervened: !allowed_tokens.contains(&argmax),
                        });
                    }

                    if chosen == term_token && opts.terminator {
                        text.push(term_char);
                        values.push(st.prefix);
                        policy.commit(var_idx, st.prefix);
                        skip_next_literal_char = true;
                        break;
                    }
                    let d = digit_tokens.iter().position(|&t| t == chosen).ok_or(
                        DecodeError::Internal(
                            "sampled token is neither an allowed digit nor the terminator",
                        ),
                    )? as u8;
                    text.push(char::from(b'0' + d));
                    st.push(d);
                }
                var_idx += 1;
            }
        }
    }

    Ok(DecodedOutput {
        values,
        text,
        stats,
    })
}

/// The solver-backed [`DecodePolicy`]: character sets come from the
/// transition system, commits become partial instantiations.
struct JitPolicy<'s> {
    session: &'s mut JitSession,
    lookahead: Lookahead,
}

impl DecodePolicy for JitPolicy<'_> {
    fn allowed(&mut self, k: usize, spec: &VarSpec, st: &VarState) -> CharOptions {
        allowed_chars(self.session, k, spec, st, self.lookahead)
    }
    fn commit(&mut self, k: usize, value: i64) {
        self.session.fix(k, value);
    }
}

impl JitPolicy<'_> {
    /// Copies the session's solver counters into the decode stats.
    fn fill_stats(&self, stats: &mut DecodeStats) {
        fill_session_stats(self.session, stats);
    }
}

/// Copies a session's solver-side counters (session caches plus the
/// underlying [`lejit_smt::SolverStats`] cost profile) into `stats`.
/// Shared by the serial, batch, and continuous-batching decode paths so all
/// report the same per-check cost breakdown. The copied values are the
/// session's *lifetime* totals — see [`DecodeStats::rebase_against`] for
/// per-decode deltas on reused sessions.
pub(crate) fn fill_session_stats(session: &JitSession, stats: &mut DecodeStats) {
    stats.solver_checks = session.checks();
    stats.solver_checks_saved = session.solver_checks_saved();
    stats.cache_hits = session.cache_hits();
    let s = session.solver().stats();
    stats.solver_pivots = s.pivots;
    stats.solver_bnb_nodes = s.bnb_nodes;
    stats.theory_propagations = s.theory_propagations;
    stats.theory_explanations = s.theory_explanations;
    stats.encode_cache_hits = s.encode_cache_hits;
    stats.encode_cache_misses = s.encode_cache_misses;
    stats.pool_hits = s.pool_hits;
    stats.pool_misses = s.pool_misses;
    stats.pool_evictions = s.pool_evictions;
}

/// The LeJIT decoder: SMT-guided constrained generation.
pub struct JitDecoder<'m, M: LanguageModel> {
    model: &'m M,
    sampler: SamplerConfig,
    lookahead: Lookahead,
    shared_lanes: bool,
}

impl<'m, M: LanguageModel> JitDecoder<'m, M> {
    /// Creates a decoder with full solver lookahead (the LeJIT default).
    pub fn new(model: &'m M, sampler: SamplerConfig) -> Self {
        JitDecoder {
            model,
            sampler,
            lookahead: Lookahead::Full,
            shared_lanes: false,
        }
    }

    /// Overrides the lookahead policy (used by the ablation benchmark).
    pub fn with_lookahead(mut self, lookahead: Lookahead) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Declares that every session handed to [`Self::decode_batch`] carries
    /// an *identical* grounded base system (same rules over the same
    /// constants), so lanes parked at the same schema position with the
    /// same decoded values have identical live constraint systems. The
    /// batch loop then shares one interval analysis across such lanes
    /// (`JitSession::adopt_analysis_from`) instead of letting each lane
    /// re-derive the identical hull.
    ///
    /// Decoded bytes are unchanged — every guided tier is exact — but a
    /// sharing lane's `solver_checks` can come out *lower* than the serial
    /// decode of the same record, with the avoided analyses credited to
    /// `solver_checks_saved`. Callers whose sessions are grounded over
    /// per-record constants (e.g. per-window imputation) must leave this
    /// off: sharing across differing bases would be unsound.
    pub fn with_shared_lanes(mut self, shared: bool) -> Self {
        self.shared_lanes = shared;
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
        if !session.satisfiable() {
            return Err(DecodeError::UnsatRules);
        }
        let mut policy = JitPolicy {
            session,
            lookahead: self.lookahead,
        };
        let mut out = decode_loop(
            self.model,
            schema,
            prompt,
            &self.sampler,
            rng,
            &mut policy,
            None,
        )?;
        policy.fill_stats(&mut out.stats);
        Ok(out)
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
        if !session.satisfiable() {
            return Err(DecodeError::UnsatRules);
        }
        let mut policy = JitPolicy {
            session,
            lookahead: self.lookahead,
        };
        let mut trace = DecodeTrace::default();
        let mut out = decode_loop(
            self.model,
            schema,
            prompt,
            &self.sampler,
            rng,
            &mut policy,
            Some(&mut trace),
        )?;
        policy.fill_stats(&mut out.stats);
        Ok((out, trace))
    }

    /// Decodes a batch of records lock-step: each round asks every live
    /// lane's solver for its allowed characters, runs **one**
    /// [`LanguageModel::forward_batch`] over all live contexts, then
    /// samples and commits each lane from its own RNG.
    ///
    /// Lanes that finish their schema, dead-end, or start unsatisfiable
    /// drop out of the batch; the survivors keep draining in smaller
    /// rounds until none remain. Lane `i`'s result is byte-identical to
    /// `self.decode(&mut sessions[i], schema, prompts[i], &mut rngs[i])`:
    /// each lane sees the same per-record sequence of solver queries,
    /// logits (the model's batch contract), and RNG draws as the serial
    /// loop, so only the *grouping* of model calls changes. The one
    /// reordering — the round computes constraint masks before logits
    /// where the serial loop interleaves them per character — touches
    /// neither the RNG nor any value either computation reads
    /// (DESIGN.md §8).
    ///
    /// Under [`Self::with_shared_lanes`] the decoded *bytes* keep that
    /// guarantee but the solver-side stats need not: lanes at a shared
    /// schema position adopt one lane's interval analysis instead of
    /// re-deriving it, so their `solver_checks` can come out below the
    /// serial decode's (never above — adopted knowledge only answers
    /// queries earlier).
    ///
    /// # Panics
    /// Panics unless `sessions`, `prompts`, and `rngs` have equal lengths.
    pub fn decode_batch<R: Rng>(
        &self,
        sessions: &mut [JitSession],
        schema: &DecodeSchema,
        prompts: &[&str],
        rngs: &mut [R],
    ) -> Vec<Result<DecodedOutput, DecodeError>> {
        let n = sessions.len();
        assert_eq!(prompts.len(), n, "one prompt per session");
        assert_eq!(rngs.len(), n, "one RNG per session");
        let mut batcher = ContinuousBatcher::new(schema.clone(), self.sampler, n.max(1))
            .with_lookahead(self.lookahead)
            .with_shared_lanes(self.shared_lanes);
        let mut results: Vec<Option<Result<DecodedOutput, DecodeError>>> =
            (0..n).map(|_| None).collect();
        let settle =
            |f: FinishedLane<SliceJob<'_, R>>,
             results: &mut Vec<Option<Result<DecodedOutput, DecodeError>>>| {
                if let Some(r) = results.get_mut(f.tag as usize) {
                    *r = Some(f.result);
                }
            };
        for (i, (session, rng)) in sessions.iter_mut().zip(rngs.iter_mut()).enumerate() {
            match batcher.admit(self.model, SliceJob { session, rng }, prompts[i], i as u64) {
                AdmitOutcome::Seated => {}
                AdmitOutcome::Finished(f) => settle(f, &mut results),
                AdmitOutcome::Full(_) => {
                    // Unreachable: the batcher was sized to the group.
                    results[i] = Some(Err(DecodeError::Internal("no free lane slot")));
                }
            }
        }
        while !batcher.is_idle() {
            let round = batcher.step(self.model);
            for f in round.finished {
                settle(f, &mut results);
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(DecodeError::Internal("lane never resolved"))))
            .collect()
    }
}

/// [`LaneJob`] over borrowed per-record state: how [`JitDecoder::decode_batch`]
/// feeds the continuous-batching engine a fixed group.
struct SliceJob<'a, R: Rng> {
    session: &'a mut JitSession,
    rng: &'a mut R,
}

impl<R: Rng> LaneJob for SliceJob<'_, R> {
    type Rng = R;
    fn session(&self) -> &JitSession {
        self.session
    }
    fn session_mut(&mut self) -> &mut JitSession {
        self.session
    }
    fn rng_mut(&mut self) -> &mut R {
        self.rng
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::DecodeSchema;
    use lejit_lm::{NgramLm, Vocab};
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
        // `decode_loop` used to panic on "non-empty allowed set always
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
                let mut rng = StdRng::seed_from_u64(crate::batch::record_seed(33, i));
                decoder
                    .decode(&mut session, &schema, prompt, &mut rng)
                    .unwrap()
            })
            .collect();

        let mut sessions = Vec::new();
        let mut schema = None;
        for _ in 0..6 {
            let (s, sc) = session_for(100, 8);
            sessions.push(s);
            schema = Some(sc);
        }
        let schema = schema.unwrap();
        let mut rngs: Vec<StdRng> = (0..6)
            .map(|i| StdRng::seed_from_u64(crate::batch::record_seed(33, i)))
            .collect();
        let got = decoder.decode_batch(&mut sessions, &schema, &[prompt; 6], &mut rngs);
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
    fn shared_lanes_keep_bytes_and_cut_total_checks() {
        // With identically grounded lanes opted in via `with_shared_lanes`,
        // interval analyses are derived once per shared schema position
        // instead of once per lane: bytes match the serial guided decode
        // exactly, and the batch's total solver checks drop below it.
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default())
            .with_lookahead(Lookahead::IntervalGuided)
            .with_shared_lanes(true);
        let serial_decoder = JitDecoder::new(&model, SamplerConfig::default())
            .with_lookahead(Lookahead::IntervalGuided);
        let prompt = "T=100;E=8;R=0;G=70;C=12;D=0|";
        let serial: Vec<DecodedOutput> = (0..6)
            .map(|i| {
                let (mut session, schema) = session_for(100, 8);
                let mut rng = StdRng::seed_from_u64(crate::batch::record_seed(33, i));
                serial_decoder
                    .decode(&mut session, &schema, prompt, &mut rng)
                    .unwrap()
            })
            .collect();

        let mut sessions = Vec::new();
        let mut schema = None;
        for _ in 0..6 {
            let (s, sc) = session_for(100, 8);
            sessions.push(s);
            schema = Some(sc);
        }
        let schema = schema.unwrap();
        let mut rngs: Vec<StdRng> = (0..6)
            .map(|i| StdRng::seed_from_u64(crate::batch::record_seed(33, i)))
            .collect();
        let got = decoder.decode_batch(&mut sessions, &schema, &[prompt; 6], &mut rngs);
        let mut serial_checks = 0u64;
        let mut batch_checks = 0u64;
        for (i, (s, g)) in serial.iter().zip(&got).enumerate() {
            let g = g.as_ref().unwrap_or_else(|e| panic!("lane {i}: {e}"));
            assert_eq!(s.text, g.text, "lane {i} text diverged");
            assert_eq!(s.values, g.values, "lane {i} values diverged");
            assert!(
                g.stats.solver_checks <= s.stats.solver_checks,
                "lane {i}: sharing can only remove checks ({} > {})",
                g.stats.solver_checks,
                s.stats.solver_checks
            );
            serial_checks += s.stats.solver_checks;
            batch_checks += g.stats.solver_checks;
        }
        assert!(
            batch_checks < serial_checks,
            "shared lanes saved nothing ({batch_checks} vs {serial_checks})"
        );
    }

    #[test]
    fn batch_decode_reports_per_lane_errors_and_drains_survivors() {
        // Lane 1 starts unsatisfiable (total=400 over 5 values ≤ 60); the
        // other lanes must decode exactly as if lane 1 never existed.
        let model = toy_model();
        let decoder = JitDecoder::new(&model, SamplerConfig::default());
        let prompt = "T=100;E=8;R=0;G=70;C=12;D=0|";
        let totals = [100i64, 400, 100];
        let mut sessions = Vec::new();
        let mut schema = None;
        for &t in &totals {
            let (s, sc) = session_for(t, 8);
            sessions.push(s);
            schema = Some(sc);
        }
        let schema = schema.unwrap();
        let mut rngs: Vec<StdRng> = (0..3)
            .map(|i| StdRng::seed_from_u64(crate::batch::record_seed(90, i)))
            .collect();
        let got = decoder.decode_batch(&mut sessions, &schema, &[prompt; 3], &mut rngs);
        assert_eq!(got[1].as_ref().unwrap_err(), &DecodeError::UnsatRules);
        for &i in &[0usize, 2] {
            let (mut session, _) = session_for(100, 8);
            let mut rng = StdRng::seed_from_u64(crate::batch::record_seed(90, i as u64));
            let serial = decoder
                .decode(&mut session, &schema, prompt, &mut rng)
                .unwrap();
            let g = got[i].as_ref().unwrap();
            assert_eq!(serial.text, g.text, "survivor lane {i}");
            assert_eq!(serial.values, g.values);
        }
    }

    #[test]
    fn batch_decode_with_batched_gpt_matches_serial_cached_gpt() {
        // End-to-end bit-identity across the whole stack: GEMM-shaped
        // batched GPT inference + lock-step constrained decoding must
        // reproduce the serial KV-cached path byte for byte.
        use lejit_lm::{BatchedGpt, CachedGpt, GptConfig, TinyGpt};
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
                let mut rng = StdRng::seed_from_u64(crate::batch::record_seed(55, i));
                serial_decoder
                    .decode(&mut session, &schema, prompt, &mut rng)
                    .unwrap()
            })
            .collect();

        let batch_model = BatchedGpt::new(&gpt, 4);
        let batch_decoder = JitDecoder::new(&batch_model, SamplerConfig::default());
        let mut sessions = Vec::new();
        let mut schema = None;
        for _ in 0..4 {
            let (s, sc) = session_for(100, 8);
            sessions.push(s);
            schema = Some(sc);
        }
        let schema = schema.unwrap();
        let mut rngs: Vec<StdRng> = (0..4)
            .map(|i| StdRng::seed_from_u64(crate::batch::record_seed(55, i)))
            .collect();
        let got = batch_decoder.decode_batch(&mut sessions, &schema, &[prompt; 4], &mut rngs);
        for (i, (s, g)) in serial.iter().zip(&got).enumerate() {
            let g = g.as_ref().unwrap_or_else(|e| panic!("lane {i}: {e}"));
            assert_eq!(s.text, g.text, "lane {i} text diverged");
            assert_eq!(s.values, g.values, "lane {i} values diverged");
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
