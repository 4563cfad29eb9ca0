//! The paper's two tasks, built on one engine — and, crucially, on the
//! *same* trained model.
//!
//! "A key side benefit of applying rules at inference time is that
//! modifying the rules enables repurposing an existing LLM … for a
//! different task, without retraining or fine-tuning." The [`Imputer`]
//! conditions the model on coarse signals and generates the fine series
//! under the imputation rule set; the [`Synthesizer`] generates coarse
//! records unconditionally under the synthesis rule set. Both expose the
//! same four decoding modes used throughout the evaluation:
//! JIT (LeJIT), vanilla, rejection sampling, and post-hoc repair.

#![expect(
    clippy::expect_used,
    reason = "ground_rules looks up the fine/coarse variables the task's own schema() just declared and arity-checks the coarse record it just built (both expects restate construction invariants of the same task); impute_group documents its one-RNG-per-window contract under # Panics"
)]

use std::borrow::{Borrow, BorrowMut};
use std::fmt;
use std::sync::OnceLock;

use rand::Rng;

use lejit_lm::LanguageModel;
use lejit_lm::SamplerConfig;
use lejit_rules::{ground_rule, GroundCtx, RuleSet};
use lejit_smt::{Solver, TermId};
use lejit_telemetry::{encode_prompt, CoarseField, CoarseSignals, PROMPT_SEPARATOR};

use crate::decoder::{DecodeError, DecodeStats, DecodedOutput, JitDecoder};
use crate::pool::{fnv1a64, PoolStats, SessionPool};
use crate::repair::{repair_nearest, RepairError};
use crate::schema::DecodeSchema;
use crate::session::{JitSession, SessionCheckpoint};
use crate::transition::Lookahead;
use crate::vanilla::{RejectionOutcome, RejectionSampler, VanillaDecoder};

/// Shared task configuration.
#[derive(Clone, Copy, Debug)]
pub struct TaskConfig {
    /// Sampling hyperparameters.
    pub sampler: SamplerConfig,
    /// Lookahead policy for the JIT decoder ([`Lookahead::default`]:
    /// interval-guided, which answers every query identically to
    /// [`Lookahead::Full`] with fewer solver checks; `Full` stays
    /// selectable for ablations and debugging).
    pub lookahead: Lookahead,
    /// Attempt budget for rejection sampling.
    pub rejection_budget: u32,
    /// Whether solver sessions built by the tasks run theory propagation
    /// inside the SAT search ([`lejit_smt::TheoryConfig::propagate`]; on by
    /// default). Decode outputs are byte-identical either way — propagated
    /// atoms are *entailed* by the asserted bounds, so only the solver's
    /// internal search path (and its cost profile) changes. The off
    /// position is the oracle for the differential tests and the A1
    /// ablation's off-row.
    pub theory_propagate: bool,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            sampler: SamplerConfig::default(),
            lookahead: Lookahead::default(),
            rejection_budget: 10_000,
            theory_propagate: true,
        }
    }
}

/// Applies the task-level theory knobs ([`TaskConfig::theory_propagate`])
/// to a session this task is about to decode with — fresh or pooled alike,
/// so a warm session acquired from a pool cannot carry a stale setting.
fn apply_theory_config(config: &TaskConfig, session: &mut JitSession) {
    let mut cfg = session.solver_mut().theory_config();
    cfg.propagate = config.theory_propagate;
    session.solver_mut().set_theory_config(cfg);
}

/// Grounds `rules` into `session`'s current solver frame. The coarse
/// fields are the constants of `coarse` when given (imputation) and the
/// schema's coarse variables otherwise (synthesis); the fine series is the
/// schema's first `window_len` `fine{t}` variables.
fn ground_rules(
    session: &mut JitSession,
    rules: &RuleSet,
    coarse: Option<&CoarseSignals>,
    window_len: usize,
) {
    fn var_term(solver: &mut Solver, name: &str) -> TermId {
        let v = solver
            .pool()
            .find_var(name)
            .expect("schema declared the variable");
        solver.var(v)
    }
    let solver = session.solver_mut();
    let coarse_terms: Vec<TermId> = CoarseField::ALL
        .into_iter()
        .map(|f| match coarse {
            Some(c) => solver.int(c.get(f)),
            None => var_term(solver, f.name()),
        })
        .collect();
    let ctx = GroundCtx {
        coarse: coarse_terms.try_into().expect("six coarse fields"),
        fine: (0..window_len)
            .map(|t| var_term(solver, &format!("fine{t}")))
            .collect(),
    };
    for rule in &rules.rules {
        let g = ground_rule(solver.pool_mut(), &ctx, rule);
        solver.assert(g);
    }
}

/// Errors from task-level pipelines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// Decoding failed.
    Decode(DecodeError),
    /// Post-hoc repair failed.
    Repair(RepairError),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Decode(e) => write!(f, "{e}"),
            TaskError::Repair(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TaskError {}

impl From<DecodeError> for TaskError {
    fn from(e: DecodeError) -> Self {
        TaskError::Decode(e)
    }
}

impl From<RepairError> for TaskError {
    fn from(e: RepairError) -> Self {
        TaskError::Repair(e)
    }
}

// ---------------------------------------------------------------------------
// The session lifecycle
// ---------------------------------------------------------------------------

/// One record's hold on a solver session: this window's rules grounded, a
/// [`JitSession::checkpoint`] frame open around the decode. The only way in
/// is [`Imputer::lease`], the only way out that recycles the session is
/// [`Lease::settle`]; in between the lease lends the session
/// (`BorrowMut<JitSession>`) to whoever decodes — [`JitDecoder::decode`], or
/// a [`crate::SessionJob`] that owns the lease for as long as a lane takes.
/// A lease dropped without `settle` takes its session with it: nothing
/// half-decoded reaches a shelf ([`SessionPool`]'s soundness protocol).
pub struct Lease {
    session: JitSession,
    cp: SessionCheckpoint,
    /// The session's counters before this record (zero for a fresh one).
    baseline: DecodeStats,
    /// For a session out of a pool: its shelf key and the acquisition's
    /// events.
    pooled: Option<(u64, PoolStats)>,
}

impl Borrow<JitSession> for Lease {
    fn borrow(&self) -> &JitSession {
        &self.session
    }
}

impl BorrowMut<JitSession> for Lease {
    fn borrow_mut(&mut self) -> &mut JitSession {
        &mut self.session
    }
}

impl Lease {
    /// Ends the lease: rolls the session back, shelves it in `pool` if that
    /// is where [`Imputer::lease`] took it from (a fresh session, whose base
    /// frame carries this window's rules, is dropped), and makes `result`'s
    /// stats this record's — solver counters rebased against the lease's
    /// baseline, pool fields set to this acquisition's events.
    pub fn settle(
        mut self,
        pool: Option<&mut SessionPool>,
        result: Result<DecodedOutput, DecodeError>,
    ) -> Result<DecodedOutput, DecodeError> {
        self.session.rollback(self.cp);
        if let (Some(pool), Some((key, _))) = (pool, self.pooled) {
            pool.release(key, self.session);
        }
        result.map(|mut out| {
            out.stats.rebase_against(&self.baseline);
            if let Some((_, events)) = self.pooled {
                out.stats.pool_hits = events.hits;
                out.stats.pool_misses = events.misses;
                out.stats.pool_evictions = events.evictions;
            }
            out
        })
    }
}

// ---------------------------------------------------------------------------
// Imputation
// ---------------------------------------------------------------------------

/// Network telemetry imputation (§4.1): recover the fine-grained ingress
/// series from coarse window aggregates.
pub struct Imputer<'m, M: LanguageModel> {
    model: &'m M,
    rules: RuleSet,
    window_len: usize,
    bandwidth: i64,
    config: TaskConfig,
    pool_key: OnceLock<u64>,
}

impl<'m, M: LanguageModel> Imputer<'m, M> {
    /// Creates an imputer for the given rule set and window geometry.
    pub fn new(
        model: &'m M,
        rules: RuleSet,
        window_len: usize,
        bandwidth: i64,
        config: TaskConfig,
    ) -> Self {
        Imputer {
            model,
            rules,
            window_len,
            bandwidth,
            config,
            pool_key: OnceLock::new(),
        }
    }

    fn decoder(&self) -> JitDecoder<'m, M> {
        JitDecoder::new(self.model, self.config.sampler).with_lookahead(self.config.lookahead)
    }

    /// The imputation rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The decode schema this imputer's windows follow.
    pub fn schema(&self) -> DecodeSchema {
        DecodeSchema::fine_series(self.window_len, self.bandwidth)
    }

    /// Builds a fresh session with the rules grounded against this window's
    /// coarse signals (constants) and the fine series (solver variables).
    pub fn build_session(&self, coarse: &CoarseSignals) -> (JitSession, DecodeSchema) {
        let schema = self.schema();
        let mut session = JitSession::new(&schema);
        apply_theory_config(&self.config, &mut session);
        self.ground_in(&mut session, coarse);
        (session, schema)
    }

    /// Grounds this imputer's rules against `coarse` into `session`'s
    /// *current solver frame* — the session must declare this imputer's
    /// schema variables (i.e. come from [`JitSession::new`] on
    /// [`Self::schema`]).
    ///
    /// When the session is a reused one (pooled, or otherwise carrying
    /// state from earlier epochs), ground inside a
    /// [`JitSession::checkpoint`] frame and call
    /// [`JitSession::invalidate_derived`] afterwards: grounding
    /// strengthens the system outside [`JitSession::fix`], so interval
    /// knowledge tagged with the current epoch must not keep answering.
    pub fn ground_in(&self, session: &mut JitSession, coarse: &CoarseSignals) {
        ground_rules(session, &self.rules, Some(coarse), self.window_len);
    }

    /// The session-pool fingerprint for this imputer: everything that
    /// shapes a pooled session's warm caches (the rule set and the schema
    /// geometry). Imputers with equal keys produce interchangeable pooled
    /// sessions; a collision is harmless (shelved sessions carry no rules —
    /// see [`SessionPool`]'s soundness protocol). Computed once per
    /// imputer, on first use: formatting a mined rule set costs ~50 µs, which
    /// a per-request caller must not pay again and a caller that never pools
    /// must not pay at all.
    pub fn pool_key(&self) -> u64 {
        *self.pool_key.get_or_init(|| {
            let desc = format!(
                "{:?}|w={}|b={}",
                self.rules, self.window_len, self.bandwidth
            );
            fnv1a64(desc.as_bytes())
        })
    }

    /// The conditioning prompt for a window (coarse text plus separator) —
    /// what every `impute*` method feeds the decoder.
    pub fn prompt(&self, coarse: &CoarseSignals) -> String {
        let mut p = encode_prompt(coarse);
        p.push(PROMPT_SEPARATOR);
        p
    }

    /// Checks a session out for one window, ready to decode: the only code
    /// that runs the front half of the session lifecycle ([`Lease::settle`]
    /// runs the back half). With a pool, a warm session acquired under
    /// [`Self::pool_key`] (built bare on a miss), the rules grounded
    /// *inside* a checkpoint frame and [`JitSession::invalidate_derived`]
    /// after them, so `settle` can shelve it rule-free. Without one, a
    /// session from [`Self::build_session`] — rules in its base frame — and
    /// the frame opened over them. The solver trajectory inside the frame,
    /// and so every decoded byte, is the same either way.
    pub fn lease(&self, pool: Option<&mut SessionPool>, coarse: &CoarseSignals) -> Lease {
        let Some(pool) = pool else {
            let (mut session, _) = self.build_session(coarse);
            return Lease {
                cp: session.checkpoint(),
                session,
                baseline: DecodeStats::default(),
                pooled: None,
            };
        };
        let key = self.pool_key();
        let mut got = pool.acquire(key, || JitSession::new(&self.schema()));
        apply_theory_config(&self.config, &mut got.session);
        let cp = got.session.checkpoint();
        self.ground_in(&mut got.session, coarse);
        got.session.invalidate_derived();
        Lease {
            session: got.session,
            cp,
            baseline: got.baseline,
            pooled: Some((key, got.events)),
        }
    }

    /// Lease → decode → settle, with or without a pool.
    fn impute_in<R: Rng>(
        &self,
        mut pool: Option<&mut SessionPool>,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        let mut lease = self.lease(pool.as_deref_mut(), coarse);
        let (schema, prompt) = (self.schema(), self.prompt(coarse));
        let out = self
            .decoder()
            .decode(lease.borrow_mut(), &schema, &prompt, rng);
        lease.settle(pool, out)
    }

    /// LeJIT imputation: guaranteed rule-compliant output, from a session
    /// built fresh for this window. The decode runs inside a checkpoint
    /// frame like every other path, so the solver trajectory (and its
    /// counters) matches the pooled and grouped decodes of the same window.
    pub fn impute<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        self.impute_in(None, coarse, rng)
    }

    /// LeJIT imputation against a warm session from `pool` (the serving
    /// path). Decoded bytes are identical to [`Self::impute`] on a fresh
    /// session — every lookahead tier is exact, so pooling changes cost, not
    /// answers — and the returned stats are this request's: its solver work
    /// plus this acquisition's pool events, not the session's lifetime
    /// totals.
    pub fn impute_pooled<R: Rng>(
        &self,
        pool: &mut SessionPool,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        self.impute_in(Some(pool), coarse, rng)
    }

    /// LeJIT imputation of a group of windows, lock-step through batched
    /// forward passes ([`JitDecoder::decode_batch`]).
    ///
    /// Each window gets its own freshly grounded session and its own RNG;
    /// window `i`'s result is byte-identical to
    /// `self.impute(&windows[i], &mut rngs[i])`. For a whole window set,
    /// distribute groups over workers with [`crate::par_batches_with`] and a
    /// worker-local model (`lejit_lm::CachedGpt` is not `Sync`).
    ///
    /// # Panics
    /// Panics unless `rngs.len() == windows.len()`.
    pub fn impute_group<R: Rng>(
        &self,
        windows: &[CoarseSignals],
        rngs: &mut [R],
    ) -> Vec<Result<DecodedOutput, DecodeError>> {
        assert_eq!(rngs.len(), windows.len(), "one RNG per window");
        // One lease per lane keeps each lane's solver trajectory exactly
        // the serial `impute`'s.
        let mut leases: Vec<Lease> = windows.iter().map(|w| self.lease(None, w)).collect();
        let prompts: Vec<String> = windows.iter().map(|w| self.prompt(w)).collect();
        let mut lanes: Vec<_> = leases
            .iter_mut()
            .zip(&prompts)
            .zip(rngs)
            .map(|((lease, prompt), rng)| (lease.borrow_mut(), prompt.as_str(), rng))
            .collect();
        let out = self.decoder().decode_batch(&self.schema(), &mut lanes);
        leases
            .into_iter()
            .zip(out)
            .map(|(lease, result)| lease.settle(None, result))
            .collect()
    }

    /// Vanilla imputation: structural masking only, rules ignored.
    pub fn impute_vanilla<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        let schema = DecodeSchema::fine_series(self.window_len, self.bandwidth);
        VanillaDecoder::new(self.model, self.config.sampler).decode(
            &schema,
            &self.prompt(coarse),
            rng,
        )
    }

    /// Rejection sampling: vanilla draws until the rules hold or the budget
    /// is exhausted.
    pub fn impute_rejection<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<RejectionOutcome, DecodeError> {
        let schema = DecodeSchema::fine_series(self.window_len, self.bandwidth);
        let sampler = RejectionSampler::new(
            self.model,
            self.config.sampler,
            self.config.rejection_budget,
        );
        sampler.sample(
            &schema,
            &self.prompt(coarse),
            |vals| self.rules.compliant(coarse, vals),
            rng,
        )
    }

    /// Post-hoc repair: vanilla draw, then nearest-L1 SMT correction.
    /// Returns `(repaired_values, raw_output)`.
    pub fn impute_repaired<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<(Vec<i64>, DecodedOutput), TaskError> {
        let raw = self.impute_vanilla(coarse, rng)?;
        if self.rules.compliant(coarse, &raw.values) {
            let vals = raw.values.clone();
            return Ok((vals, raw));
        }
        let (mut session, _) = self.build_session(coarse);
        let clamped: Vec<i64> = raw
            .values
            .iter()
            .map(|&v| v.clamp(0, self.bandwidth))
            .collect();
        let repaired = repair_nearest(&mut session, &clamped)?;
        Ok((repaired, raw))
    }
}

// ---------------------------------------------------------------------------
// Synthesis
// ---------------------------------------------------------------------------

/// Synthetic network data generation (§4.2): unconditional generation of
/// coarse-signal records under the synthesis rule set.
pub struct Synthesizer<'m, M: LanguageModel> {
    model: &'m M,
    rules: RuleSet,
    coarse_hi: [i64; 6],
    config: TaskConfig,
}

impl<'m, M: LanguageModel> Synthesizer<'m, M> {
    /// Creates a synthesizer. `coarse_hi` bounds each field's generated
    /// value (typically the training maxima).
    ///
    /// # Panics
    /// Panics if any rule references the fine series (synthesis rules are
    /// coarse-only by construction).
    pub fn new(model: &'m M, rules: RuleSet, coarse_hi: [i64; 6], config: TaskConfig) -> Self {
        for r in &rules.rules {
            assert!(
                !r.pred.uses_fine(),
                "synthesis rule `{}` references the fine series",
                r.name
            );
        }
        Synthesizer {
            model,
            rules,
            coarse_hi,
            config,
        }
    }

    /// The synthesis rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "coarse_hi is a [_; 6] indexed by CoarseField::index, which is below 6 for every field"
    )]
    fn schema(&self) -> DecodeSchema {
        let fields: Vec<(char, String, i64)> = CoarseField::ALL
            .into_iter()
            .map(|f| (f.key(), f.name().to_string(), self.coarse_hi[f.index()]))
            .collect();
        DecodeSchema::coarse_record(&fields)
    }

    /// Builds a session with the rules grounded over coarse variables.
    pub fn build_session(&self) -> (JitSession, DecodeSchema) {
        let schema = self.schema();
        let mut session = JitSession::new(&schema);
        apply_theory_config(&self.config, &mut session);
        ground_rules(&mut session, &self.rules, None, 0);
        (session, schema)
    }

    fn signals_from(values: &[i64]) -> CoarseSignals {
        let mut out = CoarseSignals::default();
        for (f, &v) in CoarseField::ALL.into_iter().zip(values) {
            out.set(f, v);
        }
        out
    }

    /// LeJIT synthesis: a guaranteed rule-compliant record.
    pub fn synthesize<R: Rng>(
        &self,
        rng: &mut R,
    ) -> Result<(CoarseSignals, DecodedOutput), DecodeError> {
        let (mut session, schema) = self.build_session();
        self.synthesize_in(&mut session, &schema, rng)
    }

    /// LeJIT synthesis against a caller-provided session (from
    /// [`Self::build_session`]).
    ///
    /// Synthesis sessions are window-independent, so one session can serve
    /// an entire sample loop: each call decodes inside a
    /// [`JitSession::checkpoint`] frame and rolls back, keeping the
    /// grounded rules and the first variable's epoch-0 hull warm instead of
    /// rebuilding the session per sample. Rollback physically retracts the
    /// frame's clauses from the solver, so the clause database stays
    /// bounded no matter how long the loop runs — no periodic rebuild is
    /// needed. Output is identical to [`Self::synthesize`] on a fresh
    /// session.
    pub fn synthesize_in<R: Rng>(
        &self,
        session: &mut JitSession,
        schema: &DecodeSchema,
        rng: &mut R,
    ) -> Result<(CoarseSignals, DecodedOutput), DecodeError> {
        let decoder =
            JitDecoder::new(self.model, self.config.sampler).with_lookahead(self.config.lookahead);
        let cp = session.checkpoint();
        let out = decoder.decode(session, schema, "", rng);
        session.rollback(cp);
        let out = out?;
        Ok((Self::signals_from(&out.values), out))
    }

    /// Vanilla synthesis: structural masking only.
    pub fn synthesize_vanilla<R: Rng>(
        &self,
        rng: &mut R,
    ) -> Result<(CoarseSignals, DecodedOutput), DecodeError> {
        let out =
            VanillaDecoder::new(self.model, self.config.sampler).decode(&self.schema(), "", rng)?;
        Ok((Self::signals_from(&out.values), out))
    }

    /// Rejection-sampled synthesis.
    pub fn synthesize_rejection<R: Rng>(
        &self,
        rng: &mut R,
    ) -> Result<(CoarseSignals, RejectionOutcome), DecodeError> {
        let sampler = RejectionSampler::new(
            self.model,
            self.config.sampler,
            self.config.rejection_budget,
        );
        let rules = &self.rules;
        let outcome = sampler.sample(
            &self.schema(),
            "",
            |vals| rules.compliant(&Self::signals_from(vals), &[]),
            rng,
        )?;
        let signals = Self::signals_from(&outcome.output().values);
        Ok((signals, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::record_seed;
    use lejit_lm::{NgramLm, Vocab};
    use lejit_rules::parse_rules;
    use lejit_telemetry::{
        encode_imputation_example, encode_synthesis_example, generate, TelemetryConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> lejit_telemetry::Dataset {
        generate(TelemetryConfig {
            racks_train: 6,
            racks_test: 2,
            windows_per_rack: 40,
            ..TelemetryConfig::default()
        })
    }

    /// n-gram model trained on real imputation-example text.
    fn imputation_model(d: &lejit_telemetry::Dataset) -> NgramLm {
        let texts: Vec<String> = d.train.iter().map(encode_imputation_example).collect();
        let mut corpus = texts.join("\n");
        corpus.push_str("0123456789,;|=.TERGCD");
        let vocab = Vocab::from_corpus(&corpus);
        let seqs: Vec<Vec<_>> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
        NgramLm::train(vocab, &seqs, 5)
    }

    fn synthesis_model(d: &lejit_telemetry::Dataset) -> NgramLm {
        let texts: Vec<String> = d
            .train
            .iter()
            .map(|w| encode_synthesis_example(&w.coarse))
            .collect();
        let mut corpus = texts.join("\n");
        corpus.push_str("0123456789,;|=.TERGCD");
        let vocab = Vocab::from_corpus(&corpus);
        let seqs: Vec<Vec<_>> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
        NgramLm::train(vocab, &seqs, 5)
    }

    fn paper_ruleset() -> RuleSet {
        parse_rules(
            "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
             rule r2: sum(fine) == total_ingress;
             rule r3: ecn_bytes > 0 => max(fine) >= 45;",
        )
        .unwrap()
    }

    #[test]
    fn imputation_outputs_are_compliant() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        for w in d.test.iter().take(5) {
            let out = imputer.impute(&w.coarse, &mut rng).unwrap();
            assert!(
                imputer.rules().compliant(&w.coarse, &out.values),
                "violation on {:?}: {:?}",
                w.coarse,
                out.values
            );
            assert_eq!(
                out.values.iter().sum::<i64>(),
                w.coarse.get(CoarseField::TotalIngress)
            );
        }
    }

    #[test]
    fn pooled_imputation_is_byte_identical_to_fresh() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut pool = SessionPool::new(2);
        for (i, w) in d.test.iter().take(8).enumerate() {
            let seed = record_seed(77, i as u64);
            let fresh = imputer
                .impute(&w.coarse, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let pooled = imputer
                .impute_pooled(&mut pool, &w.coarse, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(pooled.text, fresh.text, "window {i}: bytes must match");
            assert_eq!(pooled.values, fresh.values);
            assert_eq!(pooled.stats.tokens, fresh.stats.tokens);
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "one cold build, then warm reuse");
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.evictions, 0);
        assert_eq!(pool.shelved(), 1);
    }

    #[test]
    fn an_overflowing_request_does_not_poison_the_pooled_session() {
        // `sum(fine) == i64::MAX` grounds to an atom whose negation
        // (`sum(fine) >= i64::MAX + 1`) the theory cannot represent. That
        // request is unsatisfiable-by-error; the atom retires with its
        // frame, and the session must serve the next window as if the
        // request had never been made.
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut pool = SessionPool::new(1);
        let valid = d.test[0].coarse;
        let mut overflowing = valid;
        overflowing.set(CoarseField::TotalIngress, i64::MAX);
        let fresh = imputer
            .impute(&valid, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let mut pooled =
            |coarse| imputer.impute_pooled(&mut pool, coarse, &mut StdRng::seed_from_u64(9));
        assert_eq!(pooled(&valid).unwrap().text, fresh.text);
        assert_eq!(pooled(&overflowing).unwrap_err(), DecodeError::UnsatRules);
        assert_eq!(pooled(&valid).unwrap().text, fresh.text);
        assert_eq!(pool.stats().hits, 2, "all three requests used one session");
    }

    #[test]
    fn pooled_imputation_stats_are_per_request() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut pool = SessionPool::new(2);
        let w = &d.test[0];
        let a = imputer
            .impute_pooled(&mut pool, &w.coarse, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let b = imputer
            .impute_pooled(&mut pool, &w.coarse, &mut StdRng::seed_from_u64(5))
            .unwrap();
        // Same window, same seed, same bytes — so the second request's
        // rebased counters must not include the first's work.
        assert_eq!(a.text, b.text);
        assert_eq!(a.stats.pool_misses, 1);
        assert_eq!(a.stats.pool_hits, 0);
        assert_eq!(b.stats.pool_hits, 1);
        assert_eq!(b.stats.pool_misses, 0);
        // Searches, not checks: a warm session starts from other witnesses,
        // so it may enumerate a decade where the cold one had a witness
        // (here 81 checks against 78).
        // The warm hull and the implicant the cold record left behind show
        // in the searches (2 against 4).
        assert!(
            b.stats.solver_searches <= a.stats.solver_searches,
            "a warm session never runs more searches than a cold one \
             (warm: {}, cold: {})",
            b.stats.solver_searches,
            a.stats.solver_searches
        );
    }

    #[test]
    fn a_lease_dropped_without_settle_takes_its_session_with_it() {
        // The vanished client, the failed lane: a session abandoned
        // mid-decode is in an unknown state and must not reach a shelf.
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut pool = SessionPool::new(2);
        let w = d.test[0].coarse;
        let pooled = |pool: &mut SessionPool| {
            imputer
                .impute_pooled(pool, &w, &mut StdRng::seed_from_u64(3))
                .unwrap()
        };
        let fresh = imputer.impute(&w, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(pooled(&mut pool).text, fresh.text);
        assert_eq!(pool.shelved(), 1);

        let mut lease = imputer.lease(Some(&mut pool), &d.test[1].coarse);
        let shelved_while_leased = pool.shelved();
        assert_eq!(shelved_while_leased, 0, "the warm session is out on lease");
        let session: &mut JitSession = lease.borrow_mut();
        assert!(session.satisfiable());
        session.fix(0, 0); // half a decode
        drop(lease);
        assert_eq!(pool.shelved(), shelved_while_leased);

        // The next lease for the key finds no shelf, builds cold, and
        // decodes what a fresh session decodes.
        let next = pooled(&mut pool);
        assert_eq!(next.text, fresh.text);
        assert_eq!((next.stats.pool_hits, next.stats.pool_misses), (0, 1));
        assert_eq!(pool.shelved(), 1);
    }

    #[test]
    fn per_request_pool_events_sum_to_the_pool_totals() {
        // A one-slot shelf and two leases out at once: both miss, the second
        // to settle finds the shelf full and is evicted, and that eviction
        // lands on the acquisition after it.
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut pool = SessionPool::new(1);
        let decode = |lease: &mut Lease, w: &CoarseSignals| {
            imputer.decoder().decode(
                lease.borrow_mut(),
                &imputer.schema(),
                &imputer.prompt(w),
                &mut StdRng::seed_from_u64(8),
            )
        };
        let (wa, wb) = (d.test[0].coarse, d.test[1].coarse);
        let mut a = imputer.lease(Some(&mut pool), &wa);
        let mut b = imputer.lease(Some(&mut pool), &wb);
        let (out_a, out_b) = (decode(&mut a, &wa), decode(&mut b, &wb));
        let out_a = a.settle(Some(&mut pool), out_a).unwrap();
        let out_b = b.settle(Some(&mut pool), out_b).unwrap();
        assert_eq!(pool.shelved(), 1);
        let out_c = imputer
            .impute_pooled(&mut pool, &wa, &mut StdRng::seed_from_u64(8))
            .unwrap();
        assert_eq!(out_c.text, out_a.text);

        let events = |o: &DecodedOutput| {
            (
                o.stats.pool_hits,
                o.stats.pool_misses,
                o.stats.pool_evictions,
            )
        };
        assert_eq!(events(&out_a), (0, 1, 0));
        assert_eq!(events(&out_b), (0, 1, 0));
        assert_eq!(events(&out_c), (1, 0, 1), "the eviction follows b");
        let total = pool.stats();
        assert_eq!((total.hits, total.misses, total.evictions), (1, 2, 1));
    }

    #[test]
    fn vanilla_imputation_violates_sometimes() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut violations = 0;
        for w in d.test.iter().take(20) {
            let out = imputer.impute_vanilla(&w.coarse, &mut rng).unwrap();
            if !imputer.rules().compliant(&w.coarse, &out.values) {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "an n-gram model should violate sum-consistency"
        );
    }

    #[test]
    fn rejection_imputation_when_accepted_is_compliant() {
        let d = dataset();
        let model = imputation_model(&d);
        // Small windows with low totals are acceptable quickly; use a
        // generous budget and only assert on accepted outcomes.
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig {
                rejection_budget: 2000,
                ..TaskConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let w = &d.test[0];
        let outcome = imputer.impute_rejection(&w.coarse, &mut rng).unwrap();
        if outcome.accepted() {
            assert!(imputer
                .rules()
                .compliant(&w.coarse, &outcome.output().values));
        }
        assert!(outcome.attempts() >= 1);
    }

    #[test]
    fn repaired_imputation_is_compliant() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        for w in d.test.iter().take(5) {
            let (repaired, _raw) = imputer.impute_repaired(&w.coarse, &mut rng).unwrap();
            assert!(imputer.rules().compliant(&w.coarse, &repaired));
        }
    }

    #[test]
    fn synthesis_outputs_are_compliant() {
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules(
            "rule a: egress_total <= total_ingress;
             rule b: drops <= total_ingress;
             rule c: conn_count >= 1;",
        )
        .unwrap();
        let hi = [
            d.train_max(CoarseField::TotalIngress),
            d.train_max(CoarseField::EcnBytes),
            d.train_max(CoarseField::RetransBytes),
            d.train_max(CoarseField::EgressTotal),
            d.train_max(CoarseField::ConnCount),
            d.train_max(CoarseField::Drops),
        ];
        let synth = Synthesizer::new(&model, rules, hi, TaskConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let (signals, out) = synth.synthesize(&mut rng).unwrap();
            assert!(synth.rules().compliant(&signals, &[]), "{signals:?}");
            // Output text parses back to the same record.
            let parsed = lejit_telemetry::parse_coarse(&out.text).unwrap();
            assert_eq!(parsed, signals);
        }
    }

    #[test]
    fn synthesizer_rejects_fine_rules() {
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules("rule bad: sum(fine) == total_ingress;").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Synthesizer::new(&model, rules, [100; 6], TaskConfig::default())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reused_session_synthesis_matches_fresh() {
        // One session serving a whole sample loop (checkpoint/rollback per
        // draw) must produce exactly what per-sample fresh sessions would.
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules(
            "rule a: egress_total <= total_ingress;
             rule b: drops <= total_ingress;",
        )
        .unwrap();
        let hi = [
            d.train_max(CoarseField::TotalIngress),
            d.train_max(CoarseField::EcnBytes),
            d.train_max(CoarseField::RetransBytes),
            d.train_max(CoarseField::EgressTotal),
            d.train_max(CoarseField::ConnCount),
            d.train_max(CoarseField::Drops),
        ];
        let synth = Synthesizer::new(&model, rules, hi, TaskConfig::default());
        let (mut session, schema) = synth.build_session();
        for i in 0..4u64 {
            let mut rng_reused = StdRng::seed_from_u64(900 + i);
            let mut rng_fresh = StdRng::seed_from_u64(900 + i);
            let (s_reused, o_reused) = synth
                .synthesize_in(&mut session, &schema, &mut rng_reused)
                .unwrap();
            let (s_fresh, o_fresh) = synth.synthesize(&mut rng_fresh).unwrap();
            assert_eq!(o_reused.text, o_fresh.text, "sample {i}");
            assert_eq!(s_reused, s_fresh, "sample {i}");
        }
    }

    #[test]
    fn session_rebuild_interval_is_output_invisible() {
        // Regression guard from the periodic-rebuild era: a session rebuilt
        // mid-run answers exactly like a rolled-back one, so forcing a
        // rebuild in the middle of a sample loop must not change a single
        // byte. Rollback now physically retracts frames and no layer
        // rebuilds periodically anymore, but rebuild-equivalence is still
        // the contract that makes session reuse sound at all.
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules(
            "rule a: egress_total <= total_ingress;
             rule b: drops <= total_ingress;",
        )
        .unwrap();
        let hi = [
            d.train_max(CoarseField::TotalIngress),
            d.train_max(CoarseField::EcnBytes),
            d.train_max(CoarseField::RetransBytes),
            d.train_max(CoarseField::EgressTotal),
            d.train_max(CoarseField::ConnCount),
            d.train_max(CoarseField::Drops),
        ];
        let synth = Synthesizer::new(&model, rules, hi, TaskConfig::default());
        let draws = 6u64;
        let (mut session, schema) = synth.build_session();
        let reference: Vec<String> = (0..draws)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(2000 + i);
                synth
                    .synthesize_in(&mut session, &schema, &mut rng)
                    .unwrap()
                    .1
                    .text
            })
            .collect();
        let (mut session, schema) = synth.build_session();
        let mut got = Vec::new();
        for i in 0..draws {
            if i == 3 {
                // Forced mid-run rebuild: must be invisible in the output.
                session = synth.build_session().0;
            }
            let mut rng = StdRng::seed_from_u64(2000 + i);
            got.push(
                synth
                    .synthesize_in(&mut session, &schema, &mut rng)
                    .unwrap()
                    .1
                    .text,
            );
        }
        assert_eq!(got, reference, "rebuild at draw 3 changed output");
    }

    #[test]
    fn same_model_serves_both_tasks() {
        // The paper's headline property: one model, two tasks, swapped rules.
        let d = dataset();
        let model = imputation_model(&d); // trained once, on imputation text
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let synth_rules = parse_rules("rule a: egress_total <= total_ingress;").unwrap();
        let hi = [300, 120, 300, 300, 99, 300];
        let synth = Synthesizer::new(&model, synth_rules, hi, TaskConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let w = &d.test[0];
        let imp = imputer.impute(&w.coarse, &mut rng).unwrap();
        assert!(imputer.rules().compliant(&w.coarse, &imp.values));
        let (signals, _) = synth.synthesize(&mut rng).unwrap();
        assert!(synth.rules().compliant(&signals, &[]));
    }
}
