//! Golden decoded bytes through the KV-cached GPT wrapper.
//!
//! The other root tests run the n-gram model; this one pins the
//! transformer inference path (`CachedGpt`) end to end. The expected texts
//! were captured at commit 2a403fd and must never move: a change that
//! alters them changed the model's floats or the decode order.

use lejit::core::{record_seed, Imputer, TaskConfig};
use lejit::lm::{CachedGpt, GptConfig, TinyGpt, Vocab};
use lejit::rules::parse_rules;
use lejit::telemetry::{generate, CoarseSignals, TelemetryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: [&str; 3] = ["52,18,59,49,59.", "32,0,20,4,3.", "30,23,60,58,60."];

#[test]
fn gpt_backed_records_decode_to_golden_bytes() {
    let data = generate(TelemetryConfig {
        racks_train: 2,
        racks_test: 1,
        windows_per_rack: 10,
        ..TelemetryConfig::default()
    });
    let gpt = TinyGpt::new(
        GptConfig {
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            max_seq_len: 96,
        },
        Vocab::from_corpus("0123456789,;|=.TERGCD"),
        7,
    );
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 30;",
    )
    .unwrap();
    let windows: Vec<CoarseSignals> = data.test.iter().take(3).map(|w| w.coarse).collect();
    let rngs = || -> Vec<StdRng> {
        (0..3)
            .map(|i| StdRng::seed_from_u64(record_seed(2025, i)))
            .collect()
    };

    // One record at a time (`next_logits`) …
    let model = CachedGpt::new(&gpt);
    let imputer = Imputer::new(
        &model,
        rules,
        data.window_len,
        data.bandwidth,
        TaskConfig::default(),
    );
    let serial: Vec<String> = windows
        .iter()
        .zip(rngs())
        .map(|(w, mut rng)| imputer.impute(w, &mut rng).unwrap().text)
        .collect();
    assert_eq!(serial, GOLDEN);

    // … and the three lock-step (`forward_batch`) over the same wrapper.
    let group: Vec<String> = imputer
        .impute_group(&windows, &mut rngs())
        .into_iter()
        .map(|r| r.unwrap().text)
        .collect();
    assert_eq!(group, GOLDEN);
}
