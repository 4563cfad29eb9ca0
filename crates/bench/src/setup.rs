//! Shared benchmark environment: dataset generation, model training, rule
//! mining — the "once per run" setup every figure shares.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_lm::optim::AdamConfig;
use lejit_lm::{GptConfig, LanguageModel, TinyGpt, Vocab};
use lejit_rules::{manual_rules, mine_rules, paper_rules, MinedRules, MinerConfig, RuleSet};
use lejit_telemetry::{
    encode_imputation_example, generate, vocab_corpus_sample, CoarseField, Dataset, TelemetryConfig,
};

/// Benchmark scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Minimal: every figure pipeline in seconds, for the harness smoke
    /// tests and for checking a change at its runtime surface.
    Tiny,
    /// Small: suitable for CI and iteration (minutes end to end).
    Quick,
    /// The scale used to produce EXPERIMENTS.md.
    Full,
}

/// Reads `LEJIT_THREADS` (worker threads for record-level parallel
/// decoding), defaulting to the machine's available parallelism.
///
/// Decoded outputs are byte-identical for every value — the knob trades
/// wall time only. The value also becomes the process-global pool default
/// ([`minipool::set_global_threads`]) when [`BenchEnv::build`] runs, so the
/// blocked matmul kernels scale with it too.
pub fn threads_from_env() -> usize {
    std::env::var("LEJIT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Reads `LEJIT_BATCH` (records decoded lock-step per batched forward
/// pass, the group width handed to [`lejit_core::par_batches_with`]),
/// defaulting to `1` (unbatched).
///
/// Like `LEJIT_THREADS`, decoded outputs are byte-identical for every
/// value — batching only changes how many KV-cache lanes share each
/// GEMM-shaped weight sweep.
pub fn batch_from_env() -> usize {
    std::env::var("LEJIT_BATCH")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl Scale {
    /// Reads `LEJIT_SCALE` (`tiny`/`quick`/`full`), defaulting to `Quick`.
    pub fn from_env() -> Scale {
        match std::env::var("LEJIT_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            Ok("tiny") | Ok("TINY") => Scale::Tiny,
            _ => Scale::Quick,
        }
    }

    /// The lower-case name used in result paths and JSON artifacts
    /// (matches the `LEJIT_SCALE` values).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Number of held-out test windows to evaluate per method.
    pub fn eval_windows(self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Quick => 40,
            Scale::Full => 200,
        }
    }

    /// Number of synthetic records to draw per generator (paper: 30 K).
    pub fn synth_samples(self) -> usize {
        match self {
            Scale::Tiny => 40,
            Scale::Quick => 300,
            Scale::Full => 2000,
        }
    }

    fn train_steps(self) -> u64 {
        match self {
            Scale::Tiny => 40,
            Scale::Quick => 200,
            Scale::Full => 700,
        }
    }

    fn telemetry(self) -> TelemetryConfig {
        match self {
            Scale::Tiny => TelemetryConfig {
                racks_train: 6,
                racks_test: 2,
                windows_per_rack: 30,
                ..TelemetryConfig::default()
            },
            Scale::Quick => TelemetryConfig {
                racks_train: 20,
                racks_test: 4,
                windows_per_rack: 40,
                ..TelemetryConfig::default()
            },
            Scale::Full => TelemetryConfig {
                racks_train: 80,
                racks_test: 10,
                windows_per_rack: 60,
                ..TelemetryConfig::default()
            },
        }
    }
}

/// Everything the experiments share: data, the one trained model, and the
/// task rule sets.
pub struct BenchEnv {
    /// The scale this environment was built at.
    pub scale: Scale,
    /// The synthetic telemetry dataset (train/test split by rack).
    pub dataset: Dataset,
    /// The single char-level GPT trained from scratch on the training text
    /// (reused by *both* tasks, as in the paper).
    pub gpt: TinyGpt,
    /// Mined rule sets (NetNomos-style): imputation + synthesis.
    pub mined: MinedRules,
    /// The manual rules C4–C7 (Zoom2Net's).
    pub manual: RuleSet,
    /// The paper's illustrative R1–R3.
    pub paper: RuleSet,
    /// Per-field training maxima (variable bounds for synthesis).
    pub coarse_hi: [i64; 6],
    /// Worker threads for record-level parallel decoding
    /// ([`threads_from_env`]). Outputs are byte-identical for every value.
    pub threads: usize,
    /// Records per batched forward pass ([`batch_from_env`]). Outputs are
    /// byte-identical for every value.
    pub batch: usize,
}

impl BenchEnv {
    /// Builds the environment: generate data, train the GPT, mine rules.
    /// Output-deterministic for a given scale (the thread count only
    /// changes wall time).
    pub fn build(scale: Scale) -> BenchEnv {
        let threads = threads_from_env();
        let batch = batch_from_env();
        minipool::set_global_threads(threads);
        let dataset = generate(scale.telemetry());

        // Train the char-level GPT from scratch on imputation-example text
        // (each example embeds the full record: coarse prefix + fine series).
        let texts: Vec<String> = dataset
            .train
            .iter()
            .map(encode_imputation_example)
            .collect();
        let mut corpus_sample = texts.join("\n");
        corpus_sample.push_str(&vocab_corpus_sample());
        let vocab = Vocab::from_corpus(&corpus_sample);
        let sequences: Vec<Vec<_>> = texts
            .iter()
            .map(|t| vocab.encode(t).expect("corpus built from these texts"))
            .collect();

        // Trained-model cache: the dataset (and hence the corpus) is
        // deterministic per scale, so a saved model can be reused across
        // figure binaries. Disable with LEJIT_NO_MODEL_CACHE=1.
        let cache_path = std::env::temp_dir().join(format!(
            "lejit-bench-model-{}.bin",
            format!("{scale:?}").to_lowercase()
        ));
        let cache_enabled = std::env::var("LEJIT_NO_MODEL_CACHE").is_err();
        if cache_enabled {
            if let Ok(m) = TinyGpt::load_from_path(&cache_path) {
                if m.vocab().chars() == vocab.chars() {
                    let mined =
                        mine_rules(&dataset.train, dataset.bandwidth, MinerConfig::default());
                    let manual = manual_rules(dataset.bandwidth);
                    let paper = paper_rules(dataset.bandwidth);
                    let mut coarse_hi = [0i64; 6];
                    for f in CoarseField::ALL {
                        coarse_hi[f.index()] = dataset.train_max(f).max(1);
                    }
                    return BenchEnv {
                        scale,
                        dataset,
                        gpt: m,
                        mined,
                        manual,
                        paper,
                        coarse_hi,
                        threads,
                        batch,
                    };
                }
            }
        }

        let mut gpt = TinyGpt::new(
            GptConfig {
                d_model: 48,
                n_layers: 2,
                n_heads: 2,
                max_seq_len: 96,
            },
            vocab,
            0x6E71,
        );
        let mut rng = StdRng::seed_from_u64(0x7EA1);
        let adam = AdamConfig {
            lr: 3e-3,
            warmup_steps: 30,
            total_steps: scale.train_steps(),
            ..AdamConfig::default()
        };
        gpt.train(&sequences, scale.train_steps(), 4, adam, &mut rng);
        if cache_enabled {
            if let Err(e) = gpt.save_to_path(&cache_path) {
                eprintln!("warning: could not cache model: {e}");
            }
        }

        let mined = mine_rules(&dataset.train, dataset.bandwidth, MinerConfig::default());
        let manual = manual_rules(dataset.bandwidth);
        let paper = paper_rules(dataset.bandwidth);

        let mut coarse_hi = [0i64; 6];
        for f in CoarseField::ALL {
            coarse_hi[f.index()] = dataset.train_max(f).max(1);
        }

        BenchEnv {
            scale,
            dataset,
            gpt,
            mined,
            manual,
            paper,
            coarse_hi,
            threads,
            batch,
        }
    }

    /// The test windows used for evaluation (first `eval_windows()`).
    pub fn eval_windows(&self) -> &[lejit_telemetry::Window] {
        let n = self.scale.eval_windows().min(self.dataset.test.len());
        &self.dataset.test[..n]
    }
}
