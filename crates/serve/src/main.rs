//! The `lejit-serve` binary: trains the deterministic n-gram telemetry
//! model, loads the manual rule set, and serves imputation requests until a
//! `shutdown` op drains it.
//!
//! ```text
//! LEJIT_SERVE_ADDR=127.0.0.1:7433 lejit-serve
//! printf '{"op":"impute","id":1,"coarse":[100,8,0,70,12,0]}\n' | nc 127.0.0.1 7433
//! ```
//!
//! All knobs are environment variables — see [`ServeConfig::from_env`].

#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use std::net::TcpListener;

use lejit_lm::{NgramLm, Vocab};
use lejit_rules::manual_rules;
use lejit_serve::{ServeConfig, Server};
use lejit_telemetry::{encode_imputation_example, generate, vocab_corpus_sample, TelemetryConfig};

/// The same deterministic training recipe the test suites use: a synthetic
/// telemetry corpus (fixed seed) through a character 5-gram model.
fn train_model(window_len: usize, bandwidth: i64) -> NgramLm {
    let data = generate(TelemetryConfig {
        racks_train: 12,
        racks_test: 2,
        windows_per_rack: 40,
        window_len,
        bandwidth,
        ..TelemetryConfig::default()
    });
    let texts: Vec<String> = data.train.iter().map(encode_imputation_example).collect();
    let vocab = Vocab::from_corpus(&(texts.join("\n") + &vocab_corpus_sample()));
    let seqs: Vec<_> = texts.iter().filter_map(|t| vocab.encode(t).ok()).collect();
    NgramLm::train(vocab, &seqs, 5)
}

fn main() -> std::io::Result<()> {
    let config = ServeConfig::from_env();
    // Before anything is trained on a geometry nothing can decode.
    config.schema()?;
    let addr = std::env::var("LEJIT_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7433".to_string());
    eprintln!("lejit-serve: training telemetry model...");
    let model = train_model(config.window_len, config.bandwidth);
    let rules = manual_rules(config.bandwidth);
    let listener = TcpListener::bind(&addr)?;
    let server = Server::new(model, rules, config);
    let config = server.config();
    eprintln!(
        "lejit-serve: listening on {} ({} shards x {} lanes, queue {}, pool {})",
        listener.local_addr()?,
        config.shards,
        config.lanes,
        config.queue_cap,
        config.pool_per_key,
    );
    server.run(listener)?;
    eprintln!("lejit-serve: drained, bye");
    Ok(())
}
