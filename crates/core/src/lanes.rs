//! The lane engine: the one place a character is decided.
//!
//! A *lane* is one record mid-decode: its walk over the schema plus the
//! caller's [`LaneJob`] (mask source and its lookahead policy, RNG, optional
//! trace sink). Every decoding front-end drives the same two per-lane
//! functions:
//!
//! ```text
//! admit ─► mask ─► logits ─► apply ─┐      mask:  walk literals, ask the job
//!           ▲ │                     │             which characters may follow
//!           │ └─► finish            │      apply: argmax, -inf mask, sample,
//!           └───────────────────────┘             commit, trace
//! ```
//!
//! `finish` is the schema end; a typed [`DecodeError`] out of any stage
//! ends the lane the same way.
//!
//! Serial, traced and vanilla decoding ([`crate::JitDecoder::decode`],
//! [`crate::JitDecoder::decode_traced`], [`crate::VanillaDecoder::decode`])
//! run one lane to completion with [`LanguageModel::next_logits`] between
//! the two functions. [`ContinuousBatcher`] owns a fixed set of lane
//! *slots*: [`ContinuousBatcher::admit`] seats a job in the lowest free
//! slot, and each [`ContinuousBatcher::step`] masks every seated lane, runs
//! **one** [`LanguageModel::forward_batch`] over the live contexts, and
//! applies each row — [`crate::JitDecoder::decode_batch`] admits a fixed
//! group and steps until idle; `lejit-serve` refills slots from a request
//! queue between steps.
//!
//! # Determinism under arbitrary arrival interleaving
//!
//! Each job carries its own mask source and its own RNG stream, and both
//! per-lane functions touch nothing else: the mask consults only that
//! lane's job, the batched forward pass returns each row exactly as a
//! serial `next_logits` on that lane's context would (the
//! [`LanguageModel::forward_batch`] contract), and sampling draws only from
//! that lane's RNG. A record admitted into slot 3 of a half-busy batcher
//! therefore sees the *same* sequence of solver queries, logits, and RNG
//! draws as a solo serial decode — its output is byte-identical no matter
//! when it arrived or which lanes ran beside it. That is the property the
//! arrival-order proptests and the CI determinism matrix's
//! `LEJIT_ARRIVAL_SEED` axis pin down.

#![expect(
    clippy::indexing_slicing,
    reason = "lane slots are index-stable: the slot vector is allocated to the configured lane count once and slot ids come from enumerating it; digit_tokens is a [_; 10] indexed by a decimal digit, and masked/logits are indexed by token ids of the same vocabulary that sized them"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "token ids are u32 (TokenId) over a vocabulary of a few hundred symbols, and a digit value is below 10"
)]

use rand::Rng;

use lejit_lm::{sample_token, LanguageModel, SamplerConfig, TokenId, Vocab};

use crate::decoder::{DecodeError, DecodeStats, DecodedOutput};
use crate::schema::{DecodeSchema, SchemaItem, VarSpec};
use crate::trace::{DecodeTrace, TraceStep};
use crate::transition::{CharOptions, VarState};

/// One unit of decode work a lane can host: the source of its character
/// masks plus a private RNG stream. There are two: [`crate::SessionJob`]
/// answers from [`crate::allowed_chars`] under its own lookahead policy and
/// commits through [`crate::JitSession::fix`]; the vanilla job answers
/// structurally and commits nothing. `lejit-serve` seats a `SessionJob` that
/// owns its request's [`crate::Lease`] and settles the lease from the job
/// handed back in [`FinishedLane`].
pub trait LaneJob {
    /// The RNG type driving this job's sampling.
    type Rng: Rng;
    /// Admission check, run before the first character: `false` fails the
    /// lane with [`DecodeError::UnsatRules`].
    fn admissible(&mut self) -> bool;
    /// The characters that may follow state `st` of variable `k`.
    fn allowed(&mut self, k: usize, spec: &VarSpec, st: &VarState) -> CharOptions;
    /// Variable `k` committed to `value` (its terminator was emitted).
    fn commit(&mut self, k: usize, value: i64);
    /// The job's private RNG stream.
    fn rng_mut(&mut self) -> &mut Self::Rng;
    /// Copies the mask source's cost counters into a finished lane's stats.
    fn fill_stats(&self, stats: &mut DecodeStats);
    /// Where to record each generated character, if anywhere.
    fn trace_mut(&mut self) -> Option<&mut DecodeTrace> {
        None
    }
}

/// Per-lane schema-walk bookkeeping.
struct LaneState {
    context: Vec<TokenId>,
    digit_tokens: [TokenId; 10],
    values: Vec<i64>,
    text: String,
    stats: DecodeStats,
    /// Index into `schema.items` the lane is currently at.
    item_idx: usize,
    /// Index of the next variable to decode.
    var_idx: usize,
    /// `(digit state, terminator char, terminator token)` of the variable
    /// being generated; `None` while parked between variables.
    var: Option<(VarState, char, TokenId)>,
    skip_next_literal_char: bool,
}

fn tok(vocab: &Vocab, c: char) -> Result<TokenId, DecodeError> {
    vocab.id_of(c).ok_or(DecodeError::MissingChar(c))
}

impl LaneState {
    /// The work before a lane's first character: the job's admission check,
    /// then the digit and prompt token ids.
    fn admit<J: LaneJob>(job: &mut J, vocab: &Vocab, prompt: &str) -> Result<Self, DecodeError> {
        if !job.admissible() {
            return Err(DecodeError::UnsatRules);
        }
        let mut digit_tokens = [0; 10];
        for (t, c) in digit_tokens.iter_mut().zip('0'..='9') {
            *t = tok(vocab, c)?;
        }
        let mut context = Vec::with_capacity(prompt.len() + 64);
        for c in prompt.chars() {
            context.push(tok(vocab, c)?);
        }
        Ok(LaneState {
            context,
            digit_tokens,
            values: Vec::new(),
            text: String::new(),
            stats: DecodeStats::default(),
            item_idx: 0,
            var_idx: 0,
            var: None,
            skip_next_literal_char: false,
        })
    }

    /// Emits pending literal characters, parks the lane on its next
    /// variable, and asks the job which characters may follow. `Ok(None)`
    /// means the schema is complete. Runs before the logits are computed,
    /// so a dead end costs no forward pass.
    fn mask<J: LaneJob>(
        &mut self,
        job: &mut J,
        schema: &DecodeSchema,
        vocab: &Vocab,
    ) -> Result<Option<CharOptions>, DecodeError> {
        while self.var.is_none() {
            match schema.items.get(self.item_idx) {
                None => return Ok(None),
                Some(SchemaItem::Literal(s)) => {
                    for (i, c) in s.chars().enumerate() {
                        if i == 0 && self.skip_next_literal_char {
                            self.skip_next_literal_char = false;
                            continue;
                        }
                        self.context.push(tok(vocab, c)?);
                        self.text.push(c);
                        self.stats.tokens += 1;
                        self.stats.forced_tokens += 1;
                    }
                    self.item_idx += 1;
                }
                Some(SchemaItem::Variable(_)) => {
                    let term_char = schema.terminator_of(self.var_idx);
                    self.var = Some((VarState::start(), term_char, tok(vocab, term_char)?));
                }
            }
        }
        let (Some(SchemaItem::Variable(spec)), Some((st, _, _))) =
            (schema.items.get(self.item_idx), self.var.as_ref())
        else {
            return Err(DecodeError::Internal(
                "live lane parked on a non-variable schema item",
            ));
        };
        let opts = job.allowed(self.var_idx, spec, st);
        if opts.is_dead_end() {
            return Err(DecodeError::DeadEnd {
                var: spec.name.clone(),
                prefix: st.prefix,
            });
        }
        Ok(Some(opts))
    }

    /// Decides one character from `logits` under the mask `opts` that
    /// [`Self::mask`] just returned: count the intervention, mask, sample
    /// from the job's RNG, emit, and on a terminator commit the value.
    fn apply<J: LaneJob>(
        &mut self,
        job: &mut J,
        schema: &DecodeSchema,
        vocab: &Vocab,
        sampler: &SamplerConfig,
        opts: &CharOptions,
        logits: &[f32],
    ) -> Result<(), DecodeError> {
        let (Some(SchemaItem::Variable(spec)), Some((st, term_char, term_token))) =
            (schema.items.get(self.item_idx), self.var.as_mut())
        else {
            return Err(DecodeError::Internal(
                "masked lane has no in-progress variable",
            ));
        };
        let (term_char, term_token) = (*term_char, *term_token);
        // Unconstrained argmax, for intervention accounting. `total_cmp`:
        // panic-free on NaN and a deterministic total order on ties.
        let argmax = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(t, _)| t as TokenId)
            .unwrap_or(0);
        let mut allowed_tokens: Vec<TokenId> = opts
            .digits
            .iter()
            .map(|&d| self.digit_tokens[d as usize])
            .collect();
        if opts.terminator {
            allowed_tokens.push(term_token);
        }
        let intervened = !allowed_tokens.contains(&argmax);
        self.stats.forced_choices += u64::from(allowed_tokens.len() == 1);
        self.stats.interventions += u64::from(intervened);

        let mut masked = vec![f32::NEG_INFINITY; logits.len()];
        for &t in &allowed_tokens {
            masked[t as usize] = logits[t as usize];
        }
        // A model can assign -inf to every allowed token (e.g. a character
        // it never saw in training); the mask then leaves no finite logit
        // and sampling has no distribution to draw from. The allowed set is
        // still exactly the feasible set, so fall back to a uniform draw
        // over it rather than failing.
        let rng = job.rng_mut();
        let chosen = match sample_token(&masked, sampler, rng) {
            Some(t) => t,
            None => allowed_tokens[rng.random_range(0..allowed_tokens.len())],
        };
        self.stats.tokens += 1;
        self.context.push(chosen);

        if let Some(trace) = job.trace_mut() {
            trace.steps.push(TraceStep {
                var: spec.name.clone(),
                prefix: st.prefix,
                prefix_len: st.len,
                allowed_digits: opts.digits.clone(),
                terminator_allowed: opts.terminator,
                chosen: vocab.char_of(chosen),
                intervened,
            });
        }

        if chosen == term_token && opts.terminator {
            let value = st.prefix;
            self.text.push(term_char);
            self.values.push(value);
            job.commit(self.var_idx, value);
            self.skip_next_literal_char = true;
            self.var = None;
            self.var_idx += 1;
            self.item_idx += 1;
            return Ok(());
        }
        let d = self
            .digit_tokens
            .iter()
            .position(|&t| t == chosen)
            .ok_or(DecodeError::Internal(
                "sampled token is neither an allowed digit nor the terminator",
            ))? as u8;
        if !st.push(d) {
            return Err(DecodeError::Internal(
                "an allowed digit overflows the value",
            ));
        }
        self.text.push(char::from(b'0' + d));
        Ok(())
    }

    /// The finished record, with the job's cost counters folded in.
    fn finish<J: LaneJob>(self, job: &J) -> DecodedOutput {
        let mut stats = self.stats;
        job.fill_stats(&mut stats);
        DecodedOutput {
            values: self.values,
            text: self.text,
            stats,
        }
    }
}

/// Runs one lane to completion, one [`LanguageModel::next_logits`] per
/// generated character: the serial driver behind `decode`, `decode_traced`
/// and the vanilla decoder.
pub(crate) fn decode_lane<M: LanguageModel, J: LaneJob>(
    model: &M,
    schema: &DecodeSchema,
    sampler: &SamplerConfig,
    job: &mut J,
    prompt: &str,
) -> Result<DecodedOutput, DecodeError> {
    let vocab = model.vocab();
    let mut lane = LaneState::admit(job, vocab, prompt)?;
    while let Some(opts) = lane.mask(job, schema, vocab)? {
        let logits = model.next_logits(&lane.context);
        lane.apply(job, schema, vocab, sampler, &opts, &logits)?;
    }
    Ok(lane.finish(job))
}

/// A seated lane: the caller's job plus the engine's walk state.
struct LaneSlot<J: LaneJob> {
    job: J,
    tag: u64,
    lane: LaneState,
    /// Prefix of `lane.text` already reported through [`StepOutcome::chunks`].
    chunk_mark: usize,
}

impl<J: LaneJob> LaneSlot<J> {
    /// The text emitted since the last report, if any.
    fn take_chunk(&mut self) -> Option<(u64, String)> {
        let delta = &self.lane.text[self.chunk_mark..];
        if delta.is_empty() {
            return None;
        }
        let chunk = (self.tag, delta.to_string());
        self.chunk_mark = self.lane.text.len();
        Some(chunk)
    }
}

/// A lane that left the batcher: the caller's tag and job handed back,
/// with the decode result (success or the lane's typed failure).
pub struct FinishedLane<J: LaneJob> {
    /// The tag the job was admitted under.
    pub tag: u64,
    /// The job, returned for recycling (e.g. settling a session lease).
    pub job: J,
    /// The decode outcome.
    pub result: Result<DecodedOutput, DecodeError>,
}

/// What one [`ContinuousBatcher::step`] produced.
pub struct StepOutcome<J: LaneJob> {
    /// Lanes that finished (successfully or not) during this step.
    pub finished: Vec<FinishedLane<J>>,
    /// Newly emitted text per lane, as `(tag, delta)` pairs — the streamed
    /// partial output. Concatenating a tag's chunks across steps reproduces
    /// its final [`DecodedOutput::text`] exactly.
    pub chunks: Vec<(u64, String)>,
}

/// What [`ContinuousBatcher::admit`] did with the offered job.
// `Finished` carries a whole `DecodeStats` (every counter a decode reports,
// by value) where `Seated` carries nothing. Both callers match the outcome
// where `admit` returns it and none stores it, so the size is stack that
// lives for one statement; a `Box` would put an allocation on the
// failed-admission path and change a signature `lejit-serve` matches on.
#[allow(clippy::large_enum_variant)]
pub enum AdmitOutcome<J: LaneJob> {
    /// The job was seated in a free lane slot and will advance on the next
    /// [`ContinuousBatcher::step`].
    Seated,
    /// The job failed before its first step (unsatisfiable rules, or the
    /// vocabulary lacks a needed character) and is handed straight back.
    Finished(FinishedLane<J>),
    /// Every slot is occupied; the job is returned untouched. Callers doing
    /// admission control should check [`ContinuousBatcher::has_free_slot`]
    /// first and treat this as backpressure, not an error.
    Full(J),
}

/// A fixed-width set of decode lanes refilled per-record: the engine behind
/// both [`crate::JitDecoder::decode_batch`] and `lejit-serve`.
///
/// The schema is fixed per batcher; every admitted job decodes it (the job's
/// mask source supplies the rules and the lookahead policy, its prompt the
/// conditioning). The model is passed per call so the batcher
/// borrows nothing long-term — callers must pass the *same* model to every
/// call on one batcher (its vocabulary defines the token ids the seated
/// lanes hold).
pub struct ContinuousBatcher<J: LaneJob> {
    schema: DecodeSchema,
    sampler: SamplerConfig,
    slots: Vec<Option<LaneSlot<J>>>,
}

impl<J: LaneJob> ContinuousBatcher<J> {
    /// A batcher with `capacity` lane slots over `schema`, sampling with
    /// `sampler`.
    pub fn new(schema: DecodeSchema, sampler: SamplerConfig, capacity: usize) -> Self {
        ContinuousBatcher {
            schema,
            sampler,
            slots: (0..capacity.max(1)).map(|_| None).collect(),
        }
    }

    /// Whether at least one slot is free.
    pub fn has_free_slot(&self) -> bool {
        self.slots.iter().any(|s| s.is_none())
    }

    /// Whether no lane is seated (stepping would be a no-op).
    pub fn is_idle(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Seats `job` in the lowest-indexed free slot. The admission check and
    /// prompt encoding run here — exactly the work a serial decode does
    /// before its first character — so a job that is unsatisfiable or hits
    /// a vocabulary gap comes back as [`AdmitOutcome::Finished`] without
    /// occupying a slot.
    pub fn admit<M: LanguageModel>(
        &mut self,
        model: &M,
        mut job: J,
        prompt: &str,
        tag: u64,
    ) -> AdmitOutcome<J> {
        let Some(free) = self.slots.iter_mut().find(|s| s.is_none()) else {
            return AdmitOutcome::Full(job);
        };
        match LaneState::admit(&mut job, model.vocab(), prompt) {
            Ok(lane) => {
                *free = Some(LaneSlot {
                    job,
                    tag,
                    lane,
                    chunk_mark: 0,
                });
                AdmitOutcome::Seated
            }
            Err(e) => AdmitOutcome::Finished(FinishedLane {
                tag,
                job,
                result: Err(e),
            }),
        }
    }

    /// Advances every seated lane by one character: each lane is masked in
    /// slot order (lanes reaching the schema end or a dead end finish here,
    /// before the forward pass), one batched forward pass covers all live
    /// contexts, and each lane applies its row from its own RNG.
    pub fn step<M: LanguageModel>(&mut self, model: &M) -> StepOutcome<J> {
        let mut out = StepOutcome {
            finished: Vec::new(),
            chunks: Vec::new(),
        };
        let vocab = model.vocab();
        let mut pending: Vec<(usize, CharOptions)> = Vec::new();
        for i in 0..self.slots.len() {
            let Some(slot) = self.slots[i].as_mut() else {
                continue;
            };
            match slot.lane.mask(&mut slot.job, &self.schema, vocab) {
                Ok(Some(opts)) => pending.push((i, opts)),
                Ok(None) => self.finish(i, None, &mut out),
                Err(e) => self.finish(i, Some(e), &mut out),
            }
        }
        if !pending.is_empty() {
            let logits_rows = {
                let contexts: Vec<&[TokenId]> = pending
                    .iter()
                    .filter_map(|(i, _)| self.slots[*i].as_ref().map(|s| s.lane.context.as_slice()))
                    .collect();
                model.forward_batch(&contexts)
            };
            for (row, (i, opts)) in pending.iter().enumerate() {
                let Some(slot) = self.slots[*i].as_mut() else {
                    continue;
                };
                let applied = match logits_rows.get(row) {
                    Some(logits) => slot.lane.apply(
                        &mut slot.job,
                        &self.schema,
                        vocab,
                        &self.sampler,
                        opts,
                        logits,
                    ),
                    None => Err(DecodeError::Internal(
                        "batched forward returned too few rows",
                    )),
                };
                if let Err(e) = applied {
                    self.finish(*i, Some(e), &mut out);
                }
            }
        }
        // Text deltas of the lanes still seated (finishing lanes flushed
        // theirs inside `finish`, before the slot emptied).
        let seated = self.slots.iter_mut().flatten();
        out.chunks.extend(seated.filter_map(LaneSlot::take_chunk));
        out
    }

    /// Empties slot `i` into `out.finished` — successfully, or with `err` —
    /// after flushing its last chunk (stream consumers of a failing lane
    /// already saw the text before it).
    fn finish(&mut self, i: usize, err: Option<DecodeError>, out: &mut StepOutcome<J>) {
        let Some(mut slot) = self.slots.get_mut(i).and_then(Option::take) else {
            return;
        };
        out.chunks.extend(slot.take_chunk());
        let result = match err {
            Some(e) => Err(e),
            None => Ok(slot.lane.finish(&slot.job)),
        };
        out.finished.push(FinishedLane {
            tag: slot.tag,
            job: slot.job,
            result,
        });
    }
}
