//! Continuous-batching determinism: any interleaving of admissions and
//! steps through [`ContinuousBatcher`] yields, for every request, output
//! byte-identical to a serial single-request decode with the same seed —
//! and the streamed chunks concatenate exactly to the final text.
//!
//! This is the serving contract behind `lejit-serve`: arrival order, lane
//! width, and refill timing are throughput knobs, never semantics. The CI
//! determinism matrix drives the `LEJIT_ARRIVAL_SEED` axis through
//! [`arrival_seed_axis_is_byte_identical`].

use std::collections::BTreeMap;

use proptest::prelude::*;

use lejit_core::{
    record_seed, AdmitOutcome, ContinuousBatcher, DecodedOutput, FinishedLane, Imputer, JitDecoder,
    JitSession, SessionJob, TaskConfig,
};
use lejit_lm::{NgramLm, Vocab};
use lejit_rules::parse_rules;
use lejit_telemetry::{encode_imputation_example, generate, CoarseSignals, TelemetryConfig};
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

fn imputer<'m>(model: &'m NgramLm, d: &lejit_telemetry::Dataset) -> Imputer<'m, NgramLm> {
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 45;",
    )
    .unwrap();
    Imputer::new(
        model,
        rules,
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    )
}

/// An owned per-request job, as `lejit-serve` seats them — here holding a
/// bare session where the server's holds a lease.
type OwnedJob = SessionJob<JitSession, StdRng>;

/// Deterministic driver-side randomness (admission order / step
/// interleaving) — deliberately distinct from the decode RNGs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Serial reference: each request decoded alone with its own seed.
fn serial_reference(
    imputer: &Imputer<'_, NgramLm>,
    windows: &[CoarseSignals],
    base_seed: u64,
) -> Vec<DecodedOutput> {
    windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut rng = StdRng::seed_from_u64(record_seed(base_seed, i as u64));
            imputer.impute(w, &mut rng).unwrap()
        })
        .collect()
}

/// Pushes `windows` through a `capacity`-wide batcher with the admission
/// order and admit/step interleaving drawn from `arrival_seed`, asserting
/// per-request byte-identity with the serial reference and exact chunk
/// reassembly.
fn run_interleaved(
    imputer: &Imputer<'_, NgramLm>,
    model: &NgramLm,
    windows: &[CoarseSignals],
    base_seed: u64,
    capacity: usize,
    arrival_seed: u64,
) {
    let reference = serial_reference(imputer, windows, base_seed);
    let mut driver = XorShift(arrival_seed);

    // Fisher-Yates over the admission order.
    let mut order: Vec<usize> = (0..windows.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, driver.below(i + 1));
    }

    let mut batcher: ContinuousBatcher<OwnedJob> =
        ContinuousBatcher::new(imputer.schema(), TaskConfig::default().sampler, capacity);
    let mut results: Vec<Option<DecodedOutput>> = (0..windows.len()).map(|_| None).collect();
    let mut chunks: BTreeMap<u64, String> = BTreeMap::new();
    let mut next = 0;

    let settle = |f: FinishedLane<OwnedJob>, results: &mut Vec<Option<DecodedOutput>>| {
        results[f.tag as usize] = Some(f.result.unwrap());
    };

    while results.iter().any(Option::is_none) {
        let admit_now = batcher.has_free_slot()
            && next < order.len()
            && (batcher.is_idle() || !driver.next().is_multiple_of(3));
        if admit_now {
            let i = order[next];
            next += 1;
            let (session, _) = imputer.build_session(&windows[i]);
            let rng = StdRng::seed_from_u64(record_seed(base_seed, i as u64));
            let job = OwnedJob::new(session, rng);
            match batcher.admit(model, job, &imputer.prompt(&windows[i]), i as u64) {
                AdmitOutcome::Seated => {}
                AdmitOutcome::Finished(f) => settle(f, &mut results),
                AdmitOutcome::Full(_) => unreachable!("admitted with a free slot"),
            }
            continue;
        }
        let outcome = batcher.step(model);
        for (tag, delta) in outcome.chunks {
            chunks.entry(tag).or_default().push_str(&delta);
        }
        for f in outcome.finished {
            settle(f, &mut results);
        }
    }
    assert!(batcher.is_idle());

    for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
        let got = got.as_ref().unwrap();
        assert_eq!(got.text, want.text, "request {i} text diverged");
        assert_eq!(got.values, want.values, "request {i} values diverged");
        assert_eq!(
            chunks.get(&(i as u64)).map(String::as_str),
            Some(want.text.as_str()),
            "request {i} chunks do not reassemble its text"
        );
    }
}

#[test]
fn arrival_seed_axis_is_byte_identical() {
    // The CI determinism matrix sets LEJIT_ARRIVAL_SEED per cell; every
    // value must produce the same per-request bytes (the serial reference).
    let arrival_seed: u64 = std::env::var("LEJIT_ARRIVAL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let d = dataset();
    let model = imputation_model(&d);
    let imp = imputer(&model, &d);
    let windows: Vec<CoarseSignals> = d.test.iter().take(8).map(|w| w.coarse).collect();
    run_interleaved(&imp, &model, &windows, 4242, 3, arrival_seed);
}

#[test]
fn traced_lane_beside_untraced_lanes_matches_serial_trace() {
    // Tracing is a sink on the job, filled by the one per-character apply
    // step — so a traced lane can sit in a batch of any width, and records
    // exactly what a solo `decode_traced` of the same record would.
    let d = dataset();
    let model = imputation_model(&d);
    let imp = imputer(&model, &d);
    let windows: Vec<CoarseSignals> = d.test.iter().take(4).map(|w| w.coarse).collect();
    let traced_lane = 2usize;
    let rng_for = |i: usize| StdRng::seed_from_u64(record_seed(515, i as u64));

    let (mut session, schema) = imp.build_session(&windows[traced_lane]);
    let (want_out, want_trace) = JitDecoder::new(&model, TaskConfig::default().sampler)
        .decode_traced(
            &mut session,
            &schema,
            &imp.prompt(&windows[traced_lane]),
            &mut rng_for(traced_lane),
        )
        .unwrap();

    let mut batcher: ContinuousBatcher<OwnedJob> =
        ContinuousBatcher::new(imp.schema(), TaskConfig::default().sampler, 4);
    for (i, w) in windows.iter().enumerate() {
        let job = OwnedJob::new(imp.build_session(w).0, rng_for(i));
        let job = if i == traced_lane { job.traced() } else { job };
        assert!(matches!(
            batcher.admit(&model, job, &imp.prompt(w), i as u64),
            AdmitOutcome::Seated
        ));
    }
    let mut finished = Vec::new();
    while !batcher.is_idle() {
        finished.extend(batcher.step(&model).finished);
    }
    assert_eq!(finished.len(), windows.len());
    for f in finished {
        let out = f.result.unwrap();
        let (_, trace) = f.job.into_parts();
        if f.tag as usize != traced_lane {
            assert!(trace.is_none());
            continue;
        }
        let trace = trace.unwrap();
        assert_eq!(out.text, want_out.text);
        assert_eq!(format!("{trace:?}"), format!("{want_trace:?}"));
        assert_eq!(
            trace.steps.len() as u64,
            out.stats.tokens - out.stats.forced_tokens
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random arrival orders, interleavings, and lane widths: responses
    /// never depend on any of them.
    #[test]
    fn any_interleaving_matches_serial_decodes(
        arrival_seed in 1u64..u64::MAX,
        capacity in 1usize..=4,
    ) {
        let d = dataset();
        let model = imputation_model(&d);
        let imp = imputer(&model, &d);
        let windows: Vec<CoarseSignals> = d.test.iter().take(6).map(|w| w.coarse).collect();
        run_interleaved(&imp, &model, &windows, 977, capacity, arrival_seed);
    }
}
