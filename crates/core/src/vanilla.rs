//! Rule-free decoding baselines.
//!
//! * [`VanillaDecoder`] — the "Vanilla GPT-2" baseline: the model generates
//!   under *structural* masking only (digit budget, no leading zeros,
//!   terminator needs a non-empty prefix), so its output always parses, but
//!   no rule is consulted — this is the baseline whose outputs violate
//!   R1–R3 in Fig. 1a.
//! * [`RejectionSampler`] — the naive fix: sample vanilla outputs and
//!   discard every one that violates the rules, up to an attempt budget.
//!   The paper measures this baseline at >10× LeJIT's cost, because the
//!   model "repeatedly makes the same mistakes".

use rand::Rng;

use lejit_lm::{LanguageModel, SamplerConfig};

use crate::decoder::{DecodeError, DecodeStats, DecodedOutput};
use crate::lanes::{decode_lane, LaneJob};
use crate::schema::{DecodeSchema, VarSpec};
use crate::transition::{CharOptions, VarState};

/// Structural-only masking: everything that keeps the output *parseable*,
/// nothing that keeps it *correct*.
fn structural_options(spec: &VarSpec, st: &VarState) -> CharOptions {
    let max_digits = spec.max_digits();
    let mut out = CharOptions {
        digits: Vec::new(),
        terminator: st.len > 0,
    };
    let leading_zero = st.len > 0 && st.prefix == 0;
    if st.len < max_digits && !leading_zero {
        out.digits = (0..=9).collect();
    }
    out
}

/// The vanilla (rule-free) decoder.
pub struct VanillaDecoder<'m, M: LanguageModel> {
    model: &'m M,
    sampler: SamplerConfig,
}

impl<'m, M: LanguageModel> VanillaDecoder<'m, M> {
    /// Creates a vanilla decoder.
    pub fn new(model: &'m M, sampler: SamplerConfig) -> Self {
        VanillaDecoder { model, sampler }
    }

    /// Decodes one record with structural masking only.
    pub fn decode<R: Rng>(
        &self,
        schema: &DecodeSchema,
        prompt: &str,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        decode_lane(
            self.model,
            schema,
            &self.sampler,
            &mut StructuralJob(rng),
            prompt,
        )
    }
}

/// The rule-free [`LaneJob`]: structural masks, always admissible, nothing
/// to commit and no solver to report on.
struct StructuralJob<'a, R: Rng>(&'a mut R);

impl<R: Rng> LaneJob for StructuralJob<'_, R> {
    type Rng = R;
    fn admissible(&mut self) -> bool {
        true
    }
    fn allowed(&mut self, _k: usize, spec: &VarSpec, st: &VarState) -> CharOptions {
        structural_options(spec, st)
    }
    fn commit(&mut self, _k: usize, _value: i64) {}
    fn rng_mut(&mut self) -> &mut R {
        self.0
    }
    fn fill_stats(&self, _stats: &mut DecodeStats) {}
}

/// The result of rejection sampling.
#[derive(Clone, Debug)]
pub enum RejectionOutcome {
    /// A rule-compliant output was found after `attempts` tries.
    Accepted {
        /// The compliant output.
        output: DecodedOutput,
        /// Number of samples drawn (≥ 1).
        attempts: u32,
    },
    /// The budget was exhausted; the last (non-compliant) draw is returned.
    Exhausted {
        /// The final, still-violating output.
        last: DecodedOutput,
        /// The attempt budget that was spent.
        attempts: u32,
    },
}

impl RejectionOutcome {
    /// The output regardless of acceptance.
    pub fn output(&self) -> &DecodedOutput {
        match self {
            RejectionOutcome::Accepted { output, .. } => output,
            RejectionOutcome::Exhausted { last, .. } => last,
        }
    }

    /// Attempts spent.
    pub fn attempts(&self) -> u32 {
        match self {
            RejectionOutcome::Accepted { attempts, .. }
            | RejectionOutcome::Exhausted { attempts, .. } => *attempts,
        }
    }

    /// Whether a compliant output was found.
    pub fn accepted(&self) -> bool {
        matches!(self, RejectionOutcome::Accepted { .. })
    }
}

/// Rejection sampling over the vanilla decoder.
pub struct RejectionSampler<'m, M: LanguageModel> {
    vanilla: VanillaDecoder<'m, M>,
    max_attempts: u32,
}

impl<'m, M: LanguageModel> RejectionSampler<'m, M> {
    /// Creates a rejection sampler with an attempt budget.
    pub fn new(model: &'m M, sampler: SamplerConfig, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1);
        RejectionSampler {
            vanilla: VanillaDecoder::new(model, sampler),
            max_attempts,
        }
    }

    /// Draws until `is_valid` accepts the values or the budget runs out.
    #[expect(
        clippy::expect_used,
        reason = "RejectionSampler::new asserts max_attempts >= 1, so the loop ran and set `last` at least once"
    )]
    pub fn sample<R: Rng>(
        &self,
        schema: &DecodeSchema,
        prompt: &str,
        is_valid: impl Fn(&[i64]) -> bool,
        rng: &mut R,
    ) -> Result<RejectionOutcome, DecodeError> {
        let mut last: Option<DecodedOutput> = None;
        for attempt in 1..=self.max_attempts {
            let out = self.vanilla.decode(schema, prompt, rng)?;
            if is_valid(&out.values) {
                return Ok(RejectionOutcome::Accepted {
                    output: out,
                    attempts: attempt,
                });
            }
            last = Some(out);
        }
        Ok(RejectionOutcome::Exhausted {
            last: last.expect("at least one attempt"),
            attempts: self.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lejit_lm::{NgramLm, Vocab};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model() -> NgramLm {
        let corpus_text: Vec<String> = (0..40)
            .map(|i| format!("{},{},{}.", 10 + i % 9, 20 + i % 9, 30 + i % 9))
            .collect();
        let joined = corpus_text.join(" ");
        let vocab = Vocab::from_corpus(&(joined + "0123456789,."));
        let seqs: Vec<Vec<_>> = corpus_text
            .iter()
            .map(|s| vocab.encode(s).unwrap())
            .collect();
        NgramLm::train(vocab, &seqs, 3)
    }

    #[test]
    fn vanilla_output_is_parseable() {
        let model = toy_model();
        let dec = VanillaDecoder::new(&model, SamplerConfig::default());
        let schema = DecodeSchema::fine_series(3, 60);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let out = dec.decode(&schema, "", &mut rng).unwrap();
            assert_eq!(out.values.len(), 3);
            let parsed = lejit_telemetry::parse_fine(&out.text).unwrap();
            assert_eq!(parsed, out.values);
            // Structural bound: at most max_digits digits, but values may
            // exceed the *declared* hi (no rule enforcement).
            assert!(out.values.iter().all(|&v| v < 100));
        }
    }

    #[test]
    fn vanilla_bytes_match_the_pre_lane_engine_golden() {
        // Captured from the dedicated vanilla loop before vanilla decoding
        // moved onto the lane engine (fig3/fig4 baselines depend on these
        // bytes): seed → text, and the summed per-emit counters.
        const GOLDEN: [&str; 20] = [
            "35,25,23.",
            "32,25,22.",
            "14,35,31.",
            "33,32,25.",
            "17,4,33.",
            "13,33,36.",
            "45,20,26.",
            "30,58,20.",
            "5,38,23.",
            "0,25,35.",
            "8,2,21.",
            "1,22,23.",
            "26,31,37.",
            "15,24,24.",
            "33,31,26.",
            "31,24,37.",
            "7,3,35.",
            "34,35,37.",
            "34,6,28.",
            "4,22,32.",
        ];
        let model = toy_model();
        let dec = VanillaDecoder::new(&model, SamplerConfig::default());
        let schema = DecodeSchema::fine_series(3, 60);
        let (mut tokens, mut interventions, mut forced_choices) = (0, 0, 0);
        for (seed, want) in GOLDEN.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let out = dec.decode(&schema, "", &mut rng).unwrap();
            assert_eq!(&out.text, want, "seed {seed}");
            assert_eq!(
                out.stats.solver_checks, 0,
                "no solver behind a vanilla lane"
            );
            tokens += out.stats.tokens;
            interventions += out.stats.interventions;
            forced_choices += out.stats.forced_choices;
        }
        assert_eq!((tokens, interventions, forced_choices), (170, 46, 51));
    }

    #[test]
    fn vanilla_violates_rules_sometimes() {
        // With no constraint, the sum won't always equal a specific total.
        let model = toy_model();
        let dec = VanillaDecoder::new(&model, SamplerConfig::default());
        let schema = DecodeSchema::fine_series(3, 60);
        let mut rng = StdRng::seed_from_u64(2);
        let mut violations = 0;
        for _ in 0..30 {
            let out = dec.decode(&schema, "", &mut rng).unwrap();
            if out.values.iter().sum::<i64>() != 75 {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "vanilla decoding never violated the sum rule"
        );
    }

    #[test]
    fn rejection_accepts_easy_predicates() {
        let model = toy_model();
        let rej = RejectionSampler::new(&model, SamplerConfig::default(), 500);
        let schema = DecodeSchema::fine_series(2, 60);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = rej
            .sample(
                &schema,
                "",
                |vals| vals.iter().sum::<i64>() % 2 == 0,
                &mut rng,
            )
            .unwrap();
        assert!(outcome.accepted());
        assert!(outcome.output().values.iter().sum::<i64>() % 2 == 0);
    }

    #[test]
    fn rejection_exhausts_on_impossible_predicates() {
        let model = toy_model();
        let rej = RejectionSampler::new(&model, SamplerConfig::default(), 5);
        let schema = DecodeSchema::fine_series(2, 60);
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = rej.sample(&schema, "", |_| false, &mut rng).unwrap();
        assert!(!outcome.accepted());
        assert_eq!(outcome.attempts(), 5);
    }

    #[test]
    fn rejection_needs_more_attempts_for_rarer_events() {
        let model = toy_model();
        let schema = DecodeSchema::fine_series(2, 60);
        let rej = RejectionSampler::new(&model, SamplerConfig::default(), 100_000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut easy_attempts = 0u64;
        let mut hard_attempts = 0u64;
        for _ in 0..10 {
            easy_attempts += rej
                .sample(&schema, "", |v| v[0] % 2 == 0, &mut rng)
                .unwrap()
                .attempts() as u64;
            hard_attempts += rej
                .sample(&schema, "", |v| v.iter().sum::<i64>() == 55, &mut rng)
                .unwrap()
                .attempts() as u64;
        }
        assert!(
            hard_attempts > easy_attempts,
            "rarer predicate should cost more attempts ({hard_attempts} vs {easy_attempts})"
        );
    }
}
