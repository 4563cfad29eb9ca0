//! The set-up every workload shares: data, both models, the mined and
//! manual rule sets.
//!
//! Owned by the benchmark rather than borrowed from `BenchEnv::build`,
//! whose `/tmp` model cache makes set-up time bimodal (a cold train vs a
//! cache hit). Everything here is deterministic and nothing is cached on
//! disk, so `setup_s` measures the same work on every run. No `LEJIT_*`
//! environment knob is read: an inherited `LEJIT_THREADS` or `LEJIT_BATCH`
//! would silently change the workload.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_lm::optim::AdamConfig;
use lejit_lm::{GptConfig, NgramLm, TinyGpt, Vocab};
use lejit_rules::{manual_rules, mine_rules, MinedRules, MinerConfig, RuleSet};
use lejit_serve::ServeConfig;
use lejit_telemetry::{
    encode_imputation_example, generate, vocab_corpus_sample, CoarseField, Dataset, TelemetryConfig,
};

/// GPT training steps (the `BenchEnv` Full recipe).
const TRAIN_STEPS: u64 = 700;

/// Everything the workloads share.
pub struct Env {
    /// 80 training racks and 10 test racks of 60 windows: 600 test windows.
    pub dataset: Dataset,
    /// The char-level GPT both offline tasks decode with.
    pub gpt: TinyGpt,
    /// The 5-gram model the serve workloads decode with.
    pub ngram: NgramLm,
    /// Mined imputation and synthesis rule sets.
    pub mined: MinedRules,
    /// The four manual rules (C4–C7).
    pub manual: RuleSet,
    /// Per-field training maxima: the synthesis variable bounds.
    pub coarse_hi: [i64; 6],
}

impl Env {
    /// Builds the environment from scratch. Single-threaded by design
    /// (`minipool::set_global_threads(1)`): the box has two cores and the
    /// load generator needs one of them.
    pub fn build() -> Env {
        minipool::set_global_threads(1);
        let dataset = generate(TelemetryConfig {
            racks_train: 80,
            racks_test: 10,
            windows_per_rack: 60,
            ..TelemetryConfig::default()
        });

        let texts: Vec<String> = dataset
            .train
            .iter()
            .map(encode_imputation_example)
            .collect();
        let mut corpus = texts.join("\n");
        corpus.push_str(&vocab_corpus_sample());
        let vocab = Vocab::from_corpus(&corpus);
        let sequences: Vec<Vec<_>> = texts
            .iter()
            .map(|t| {
                vocab
                    .encode(t)
                    .expect("vocabulary was built from these texts")
            })
            .collect();

        let mut gpt = TinyGpt::new(
            GptConfig {
                d_model: 48,
                n_layers: 2,
                n_heads: 2,
                max_seq_len: 96,
            },
            vocab.clone(),
            0x6E71,
        );
        let adam = AdamConfig {
            lr: 3e-3,
            warmup_steps: 30,
            total_steps: TRAIN_STEPS,
            ..AdamConfig::default()
        };
        gpt.train(
            &sequences,
            TRAIN_STEPS,
            4,
            adam,
            &mut StdRng::seed_from_u64(0x7EA1),
        );
        let ngram = NgramLm::train(vocab, &sequences, 5);

        let mined = mine_rules(&dataset.train, dataset.bandwidth, MinerConfig::default());
        let manual = manual_rules(dataset.bandwidth);
        let mut coarse_hi = [0i64; 6];
        for f in CoarseField::ALL {
            coarse_hi[f.index()] = dataset.train_max(f).max(1);
        }
        Env {
            dataset,
            gpt,
            ngram,
            mined,
            manual,
            coarse_hi,
        }
    }

    /// The explicit server configuration both serve workloads use: one
    /// shard, so the decode side is one core and the generator has the
    /// other.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            shards: 1,
            lanes: 8,
            queue_cap: 4096,
            pool_per_key: 4,
            window_len: self.dataset.window_len,
            bandwidth: self.dataset.bandwidth,
            ..ServeConfig::default()
        }
    }
}
