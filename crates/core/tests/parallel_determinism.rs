//! End-to-end determinism: parallel and batched record decoding is
//! byte-identical to sequential decoding for every `(threads, batch)`.
//!
//! This is the contract the bench harnesses rely on (`crates/bench`): the
//! decoded *text* of every record — not just aggregate statistics — must
//! match across the `(threads, batch) ∈ {1, 4} × {1, 8}` matrix (the CI
//! `LEJIT_THREADS` × `LEJIT_BATCH` axes), with per-record RNGs seeded by
//! [`lejit_core::record_seed`] and any worker-local state (a reusable
//! [`JitSession`] rolled back between records, a model-level batch lane)
//! behaving like fresh state.

use lejit_core::{
    par_batches_with, par_records, par_records_with, record_seed, DecodedOutput, Imputer,
    Synthesizer, TaskConfig,
};
use lejit_lm::{CachedGpt, GptConfig, TinyGpt};
use lejit_lm::{NgramLm, Vocab};
use lejit_rules::parse_rules;
use lejit_telemetry::{
    encode_imputation_example, encode_synthesis_example, generate, CoarseField, CoarseSignals,
    TelemetryConfig,
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

/// Imputes `windows` the way the figure binaries do: groups of `batch`
/// windows decode lock-step ([`Imputer::impute_group`]) across `threads`
/// workers, window `i` drawing from `record_seed(base_seed, i)`.
fn impute_all(
    imputer: &Imputer<'_, NgramLm>,
    windows: &[CoarseSignals],
    base_seed: u64,
    threads: usize,
    batch: usize,
) -> Vec<DecodedOutput> {
    par_batches_with(
        threads,
        windows.len(),
        batch,
        || (),
        |(), span| {
            let mut rngs: Vec<StdRng> = span
                .clone()
                .map(|i| StdRng::seed_from_u64(record_seed(base_seed, i as u64)))
                .collect();
            imputer
                .impute_group(&windows[span], &mut rngs)
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        },
    )
}

#[test]
fn parallel_imputation_is_byte_identical_across_thread_counts() {
    let d = dataset();
    let model = imputation_model(&d);
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 45;",
    )
    .unwrap();
    let imputer = Imputer::new(
        &model,
        rules,
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let windows: Vec<_> = d.test.iter().take(12).collect();
    let base_seed = 4242u64;

    let decode_all = |threads: usize| -> Vec<String> {
        par_records(threads, windows.len(), |i| {
            let mut rng = StdRng::seed_from_u64(record_seed(base_seed, i as u64));
            let out = imputer.impute(&windows[i].coarse, &mut rng).unwrap();
            out.text
        })
    };

    let sequential = decode_all(1);
    assert_eq!(sequential.len(), windows.len());
    for threads in [2, 4] {
        assert_eq!(decode_all(threads), sequential, "threads={threads}");
    }
}

#[test]
fn parallel_synthesis_with_reused_sessions_is_byte_identical() {
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
    let n_samples = 16usize;
    let base_seed = 777u64;

    // Worker-local state: one grounded session reused (checkpoint/rollback)
    // across every sample the worker draws.
    let draw_all = |threads: usize| -> Vec<String> {
        par_records_with(
            threads,
            n_samples,
            || synth.build_session(),
            |(session, schema), i| {
                let mut rng = StdRng::seed_from_u64(record_seed(base_seed, i as u64));
                let (_, out) = synth.synthesize_in(session, schema, &mut rng).unwrap();
                out.text
            },
        )
    };

    let sequential = draw_all(1);
    assert_eq!(sequential.len(), n_samples);
    for threads in [2, 4] {
        assert_eq!(draw_all(threads), sequential, "threads={threads}");
    }
}

#[test]
fn batched_imputation_matrix_is_byte_identical() {
    // The CI matrix contract: LEJIT_THREADS × LEJIT_BATCH ∈ {1,4} × {1,8}
    // all produce the same bytes.
    let d = dataset();
    let model = imputation_model(&d);
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 45;",
    )
    .unwrap();
    let windows: Vec<_> = d.test.iter().take(12).map(|w| w.coarse).collect();
    let base_seed = 4242u64;

    // Fingerprint = decoded bytes plus the per-record solver cost profile
    // (checks, warm-tableau pivots, branch-and-bound nodes, theory
    // propagations/explanations and Tseitin-cache traffic):
    // batching and threading may regroup model calls but must not change
    // any per-record solver work.
    let imputer = Imputer::new(
        &model,
        rules,
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let print = |o: DecodedOutput| -> String {
        let s = o.stats;
        format!(
            "{}|checks={} pivots={} bnb={} props={}/{} enc={}/{}",
            o.text,
            s.solver_checks,
            s.solver_pivots,
            s.solver_bnb_nodes,
            s.theory_propagations,
            s.theory_explanations,
            s.encode_cache_hits,
            s.encode_cache_misses,
        )
    };

    // The reference is the serial entry point, one window at a time.
    let sequential: Vec<String> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut rng = StdRng::seed_from_u64(record_seed(base_seed, i as u64));
            print(imputer.impute(w, &mut rng).unwrap())
        })
        .collect();
    for threads in [1, 4] {
        for batch in [1, 8] {
            let got: Vec<String> = impute_all(&imputer, &windows, base_seed, threads, batch)
                .into_iter()
                .map(print)
                .collect();
            assert_eq!(got, sequential, "threads={threads} batch={batch}");
        }
    }
}

#[test]
fn theory_propagation_onoff_is_byte_identical_end_to_end() {
    // The propagation off-path is kept as a differential oracle
    // (`TaskConfig::theory_propagate`): propagation only pre-places atom
    // polarities the theory check would confirm anyway, so the decoded
    // bytes — every character of every record, across the full
    // (threads, batch) matrix — must be identical with it on or off. Only
    // the cost profile may differ, with the on-path doing the propagating.
    let d = dataset();
    let model = imputation_model(&d);
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 45;",
    )
    .unwrap();
    let windows: Vec<_> = d.test.iter().take(12).map(|w| w.coarse).collect();
    let base_seed = 4242u64;

    let decode_all = |threads: usize, batch: usize, propagate: bool| -> (Vec<String>, u64) {
        let imputer = Imputer::new(
            &model,
            rules.clone(),
            d.window_len,
            d.bandwidth,
            TaskConfig {
                theory_propagate: propagate,
                ..TaskConfig::default()
            },
        );
        let mut props = 0u64;
        let texts = impute_all(&imputer, &windows, base_seed, threads, batch)
            .into_iter()
            .map(|o| {
                props += o.stats.theory_propagations;
                o.text
            })
            .collect();
        (texts, props)
    };

    let (reference, props_off) = decode_all(1, 1, false);
    assert_eq!(props_off, 0, "off-path must not propagate");
    for threads in [1, 4] {
        for batch in [1, 8] {
            let (texts, props_on) = decode_all(threads, batch, true);
            assert_eq!(
                texts, reference,
                "threads={threads} batch={batch}: propagate=on drifted \
                 from the off oracle"
            );
            assert!(
                props_on > 0,
                "threads={threads} batch={batch}: on-path never propagated"
            );
        }
    }
}

#[test]
fn reused_session_clause_db_stays_bounded_over_long_synthesis_run() {
    // Regression guard for the session state leak: before physical clause
    // retraction, every checkpoint/decode/rollback cycle left its frame's
    // dead clauses in the SAT database, so a reused session's clause count
    // grew without bound (the old workaround threw the session away every
    // 128 draws). Now rollback retracts, so a long synthesis run against
    // one session must hold the live-clause count at a steady state.
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
    let (mut session, schema) = synth.build_session();
    // Cycle through a fixed set of records: distinct records keep adding
    // *legitimate* permanent state forever (Tseitin definitions for fresh
    // constants, theory lemmas), which would mask the leak under test.
    // Repeats re-issue the same queries against new fix epochs, so every
    // draw still exercises the full checkpoint/decode/rollback path.
    let distinct = 4u64;
    let cycles = 12usize;
    let n_draws = distinct as usize * cycles;
    let mut counts = Vec::with_capacity(n_draws);
    for i in 0..n_draws {
        let mut rng = StdRng::seed_from_u64(record_seed(606, i as u64 % distinct));
        synth
            .synthesize_in(&mut session, &schema, &mut rng)
            .unwrap();
        counts.push(session.solver().num_live_clauses());
    }
    // The first cycles may add permanent state; after that the count must
    // never exceed its high-water mark again. The old logical rollback
    // leaked every frame's clauses, growing the count on every single
    // draw — 36 further draws would blow well past any early mark.
    let warmup_max = *counts[..n_draws / 4].iter().max().unwrap();
    for (i, &c) in counts.iter().enumerate().skip(n_draws / 4) {
        assert!(
            c <= warmup_max,
            "draw {i}: live clauses {c} exceed warm-up high-water mark \
             {warmup_max} — rollback is leaking clause-database state \
             (counts: {counts:?})"
        );
    }
}

#[test]
fn gpt_wide_lanes_match_one_record_at_a_time_across_matrix() {
    // The full model-level batching stack — a worker-local CachedGpt whose
    // cache grows to the group width, lanes stepped lock-step through
    // GEMM-shaped kernels — must reproduce a fresh one-lane CachedGpt per
    // record byte for byte at every (threads, batch) pair.
    let d = dataset();
    let gpt = TinyGpt::new(
        GptConfig {
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            max_seq_len: 96,
        },
        Vocab::from_corpus("0123456789,;|=.TERGCD"),
        11,
    );
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;",
    )
    .unwrap();
    let windows: Vec<_> = d.test.iter().take(8).map(|w| w.coarse).collect();
    let base_seed = 31u64;

    let reference: Vec<String> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let model = CachedGpt::new(&gpt);
            let imputer = Imputer::new(
                &model,
                rules.clone(),
                d.window_len,
                d.bandwidth,
                TaskConfig::default(),
            );
            let mut rng = StdRng::seed_from_u64(record_seed(base_seed, i as u64));
            imputer.impute(w, &mut rng).unwrap().text
        })
        .collect();

    for threads in [1, 4] {
        for batch in [1, 8] {
            let got: Vec<String> = lejit_core::par_batches_with(
                threads,
                windows.len(),
                batch,
                || CachedGpt::new(&gpt),
                |model, span| {
                    let imputer = Imputer::new(
                        &*model,
                        rules.clone(),
                        d.window_len,
                        d.bandwidth,
                        TaskConfig::default(),
                    );
                    let mut rngs: Vec<StdRng> = span
                        .clone()
                        .map(|i| StdRng::seed_from_u64(record_seed(base_seed, i as u64)))
                        .collect();
                    imputer
                        .impute_group(&windows[span], &mut rngs)
                        .into_iter()
                        .map(|r| r.unwrap().text)
                        .collect()
                },
            );
            assert_eq!(got, reference, "threads={threads} batch={batch}");
        }
    }
}
