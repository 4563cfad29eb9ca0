//! The four workloads, each as an untraced pass (the end-to-end numbers)
//! and a traced pass (the same records again, inside spans).
//!
//! Between them the workloads make each layer dominant once and nearly
//! idle once — see the interaction table in README.md:
//!
//! * `impute_fresh` pays grounding, encoding and a cold first check on
//!   every record (a fresh session per window, the paper's headline task);
//! * `synth_reuse` pays none of that: one session serves every draw, so
//!   checkpoint, rollback and retraction run once per record instead;
//! * `serve_closed` drives the server's pooled-session path with the mined
//!   rules from two call-and-wait connections;
//! * `serve_open` offers a fixed arrival rate with the four manual rules,
//!   so queue, batcher and socket are the largest share of the work.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_core::{
    DecodeError, DecodeSchema, DecodeStats, DecodedOutput, Imputer, JitDecoder, JitSession,
    PooledSession, SessionPool, Synthesizer, TaskConfig,
};
use lejit_lm::{CachedGpt, LanguageModel};
use lejit_rules::RuleSet;
use lejit_serve::{ServeMetrics, Server};
use lejit_telemetry::{CoarseField, CoarseSignals};

use crate::loadgen::{self, Exchange, Phase, Request};
use crate::setup::Env;
use crate::stats::{process_cpu_s, splitmix64, Fingerprint};
use crate::trace::{TimedLm, Tracer};

/// Unmeasured records at the start of every pass (per connection in the
/// closed loop): caches fill and lazy set-up finishes before timing.
pub const WARMUP: usize = 20;
/// The same under `--smoke`.
pub const SMOKE_WARMUP: usize = 5;
/// Closed-loop connections: at most `nproc` on the two-core box.
pub const CLOSED_CONNS: usize = 2;
/// Open-loop arrival rate, requests per second: about half of one shard's
/// CPU capacity with the manual rules.
pub const OPEN_RATE: f64 = 120.0;
/// Serve responses compared byte-for-byte with an in-process decode.
pub const VERIFY_SAMPLE: usize = 50;
/// Records per workload under `--smoke`.
pub const SMOKE_RECORDS: usize = 40;
/// Pings behind `serve.ping_rtt_us_p50` (a median needs twenty).
const PINGS: usize = 25;

/// One of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ImputeFresh,
    SynthReuse,
    ServeClosed,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ImputeFresh,
        Workload::SynthReuse,
        Workload::ServeClosed,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ImputeFresh => "impute_fresh",
            Workload::SynthReuse => "synth_reuse",
            Workload::ServeClosed => "serve_closed",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Records per second on the reference box (README.md, "Sizing"). The
    /// traced run sizes its fixed record count from this, so that its
    /// counters repeat exactly from run to run.
    fn nominal_rps(self) -> f64 {
        match self {
            Workload::ImputeFresh => 36.0,
            Workload::SynthReuse => 75.0,
            Workload::ServeClosed => 20.0,
            Workload::ServeOpen => OPEN_RATE,
        }
    }

    /// The fixed record count of a traced run of `seconds`: the untraced
    /// and the traced pass over the same records, plus the probes, fit the
    /// time an untraced run measures for.
    pub fn traced_records(self, seconds: f64) -> usize {
        ((self.nominal_rps() * seconds * 0.4) as usize).max(SMOKE_RECORDS)
    }
}

/// How long a pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this much time has been measured (the driver's `--seconds`).
    Seconds(f64),
    /// Exactly this many measured records.
    Records(usize),
}

/// Every `PANEL_STRIDE`-th test window makes the panel the workloads draw
/// from: 120 of the 600, twelve from each test rack.
///
/// Per-window decode cost varies by a factor of four and repeats from run
/// to run (correlation 0.8 across sampling seeds), so two runs that drew
/// different windows differ by more than the regression bounds. A panel
/// short enough for every run to walk it several times makes runs at
/// different seeds comparable; the seed still picks the order and every
/// record's sampling seed.
pub const PANEL_STRIDE: usize = 5;

/// The seed's choices: the order in which the panel is walked and each
/// record's sampling seed. The program under test only ever sees the
/// generated inputs.
pub struct Draw {
    seed: u64,
    perm: Vec<usize>,
}

impl Draw {
    /// A seed-chosen permutation of the panel (Fisher–Yates over a
    /// `splitmix64` stream), walked cyclically.
    pub fn new(seed: u64, windows: usize) -> Draw {
        let mut perm: Vec<usize> = (0..windows).step_by(PANEL_STRIDE).collect();
        let mut state = splitmix64(seed);
        for i in (1..perm.len()).rev() {
            state = splitmix64(state);
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Draw { seed, perm }
    }

    /// The test window record `i` imputes.
    pub fn window(&self, i: usize) -> usize {
        self.perm[i % self.perm.len()]
    }

    /// Record `i`'s sampling seed.
    pub fn record_seed(&self, i: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(i as u64 + 1))
    }
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// One latency per measured record, in ms.
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub attempted: u64,
    /// Records failed, refused, timed out, rule-violating or mismatched.
    pub failed: u64,
    /// Decoded text of every verified record, by record index.
    pub outputs: Vec<(usize, String)>,
    /// Deterministic counters, summed over the measured records (in-process
    /// passes only; the server does not report them).
    pub stats: DecodeStats,
    /// Socket passes: the server's counters and the generator's lateness.
    pub serve: Option<ServeSide>,
}

/// The serve-edge extras of a socket pass.
#[derive(Debug, Default)]
pub struct ServeSide {
    pub metrics: ServeMetrics,
    pub late_ms: Vec<f64>,
    pub backlog_end: u64,
    pub ping_rtts_us: Vec<f64>,
}

impl Pass {
    /// Verified-ok records.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// FNV fingerprint of the first `cap` outputs in record order, and how
    /// many that was. A timed pass decodes a varying number of records;
    /// its first hundred are the same on every run.
    pub fn fingerprint(&self, cap: usize) -> (Fingerprint, usize) {
        let mut fp = Fingerprint::default();
        let outputs = sorted_outputs(self);
        let taken = outputs.len().min(cap);
        for (_, text) in &outputs[..taken] {
            fp.push(text);
        }
        (fp, taken)
    }
}

fn add_stats(total: &mut DecodeStats, d: &DecodeStats) {
    total.tokens += d.tokens;
    total.forced_tokens += d.forced_tokens;
    total.solver_checks += d.solver_checks;
    total.solver_checks_saved += d.solver_checks_saved;
    total.cache_hits += d.cache_hits;
    total.interventions += d.interventions;
    total.forced_choices += d.forced_choices;
    total.solver_pivots += d.solver_pivots;
    total.solver_bnb_nodes += d.solver_bnb_nodes;
    total.theory_memo_hits += d.theory_memo_hits;
    total.theory_propagations += d.theory_propagations;
    total.theory_explanations += d.theory_explanations;
    total.encode_cache_hits += d.encode_cache_hits;
    total.encode_cache_misses += d.encode_cache_misses;
    total.pool_hits += d.pool_hits;
    total.pool_misses += d.pool_misses;
    total.pool_evictions += d.pool_evictions;
}

/// Runs `one(i)` for records `0..`, the first `warmup` unmeasured, until
/// the budget is spent; verifies every output with `compliant` afterwards,
/// outside the timed phase.
fn offline_pass(
    warmup: usize,
    budget: Budget,
    mut one: impl FnMut(usize) -> Result<DecodedOutput, DecodeError>,
    compliant: impl Fn(usize, &[i64]) -> bool,
) -> Pass {
    for i in 0..warmup {
        let _ = one(i);
    }
    let mut results = Vec::new();
    let mut pass = Pass::default();
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    loop {
        let spent = match budget {
            Budget::Seconds(s) => t0.elapsed().as_secs_f64() >= s,
            Budget::Records(n) => results.len() >= n,
        };
        if spent {
            break;
        }
        let i = warmup + results.len();
        let t = Instant::now();
        let result = std::hint::black_box(one(i));
        pass.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        results.push((i, result));
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.attempted = results.len() as u64;
    for (i, result) in results {
        match result {
            Ok(out) if compliant(i, &out.values) => {
                add_stats(&mut pass.stats, &out.stats);
                pass.outputs.push((i, out.text));
            }
            _ => pass.failed += 1,
        }
    }
    pass
}

/// A workload bound to the shared environment and one seed.
pub struct Runner<'e> {
    env: &'e Env,
    draw: Draw,
    warmup: usize,
    cfg: TaskConfig,
}

impl<'e> Runner<'e> {
    pub fn new(env: &'e Env, seed: u64, warmup: usize) -> Runner<'e> {
        Runner {
            env,
            draw: Draw::new(seed, env.dataset.test.len()),
            warmup,
            cfg: TaskConfig::default(),
        }
    }

    fn coarse(&self, i: usize) -> CoarseSignals {
        self.env.dataset.test[self.draw.window(i)].coarse
    }

    fn rng(&self, i: usize) -> StdRng {
        StdRng::seed_from_u64(self.draw.record_seed(i))
    }

    fn imputer<'m, M: LanguageModel>(&self, model: &'m M, rules: &RuleSet) -> Imputer<'m, M> {
        let d = &self.env.dataset;
        Imputer::new(model, rules.clone(), d.window_len, d.bandwidth, self.cfg)
    }

    fn decoder<'a, M: LanguageModel>(&self, timed: &'a TimedLm<'a, M>) -> TracedDecoder<'a, M> {
        TracedDecoder {
            timed,
            decoder: JitDecoder::new(timed, self.cfg.sampler).with_lookahead(self.cfg.lookahead),
        }
    }

    // ---- impute_fresh -------------------------------------------------

    /// Offline imputation with the KV-cached GPT and the mined rules, a
    /// fresh `Imputer::impute` session per record on one thread.
    pub fn impute_fresh(&self, budget: Budget) -> Pass {
        let rules = &self.env.mined.imputation;
        let cached = CachedGpt::new(&self.env.gpt);
        let imputer = self.imputer(&cached, rules);
        offline_pass(
            self.warmup,
            budget,
            |i| imputer.impute(&self.coarse(i), &mut self.rng(i)),
            |i, values| rules.compliant(&self.coarse(i), values),
        )
    }

    /// The same records with `Imputer::impute` taken apart into its calls,
    /// each inside a span.
    pub fn impute_fresh_traced(&self, records: usize, tr: &mut Tracer) -> Pass {
        let rules = &self.env.mined.imputation;
        let cached = CachedGpt::new(&self.env.gpt);
        let timed = TimedLm::timed(&cached, tr.epoch());
        let imputer = self.imputer(&timed, rules);
        let decoder = self.decoder(&timed);
        offline_pass(
            self.warmup,
            Budget::Records(records),
            |i| {
                let coarse = self.coarse(i);
                tr.begin_record(i as u64);
                let (mut session, schema) =
                    tr.span("rules.ground", || imputer.build_session(&coarse));
                // As in `impute`, the cold first check runs inside the
                // checkpoint frame; the decoder's own check then finds it warm.
                let cp = tr.span("core.checkpoint", || session.checkpoint());
                tr.span("smt.first_check", || session.satisfiable());
                let prompt = imputer.prompt(&coarse);
                let out = decoder.decode(tr, &mut session, &schema, &prompt, &mut self.rng(i));
                tr.span("core.rollback", || session.rollback(cp));
                tr.span("core.session_drop", || drop(session));
                tr.exit();
                out
            },
            |i, values| rules.compliant(&self.coarse(i), values),
        )
    }

    // ---- synth_reuse --------------------------------------------------

    fn synthesizer<'m, M: LanguageModel>(&self, model: &'m M) -> Synthesizer<'m, M> {
        Synthesizer::new(
            model,
            self.env.mined.synthesis.clone(),
            self.env.coarse_hi,
            self.cfg,
        )
    }

    fn synth_compliant(&self, values: &[i64]) -> bool {
        let mut signals = CoarseSignals::default();
        for (f, &v) in CoarseField::ALL.into_iter().zip(values) {
            signals.set(f, v);
        }
        values.len() == CoarseField::ALL.len() && self.env.mined.synthesis.compliant(&signals, &[])
    }

    /// Unconditional synthesis with the GPT and the mined synthesis rules,
    /// one session reused for every draw via `Synthesizer::synthesize_in`.
    pub fn synth_reuse(&self, budget: Budget) -> Pass {
        let cached = CachedGpt::new(&self.env.gpt);
        let synth = self.synthesizer(&cached);
        let (mut session, schema) = synth.build_session();
        let mut lifetime = DecodeStats::default();
        offline_pass(
            self.warmup,
            budget,
            |i| {
                let (_, out) = synth.synthesize_in(&mut session, &schema, &mut self.rng(i))?;
                Ok(per_record(out, &mut lifetime))
            },
            |_, values| self.synth_compliant(values),
        )
    }

    /// The same draws with `synthesize_in` taken apart into spans.
    pub fn synth_reuse_traced(&self, records: usize, tr: &mut Tracer) -> Pass {
        let cached = CachedGpt::new(&self.env.gpt);
        let timed = TimedLm::timed(&cached, tr.epoch());
        let synth = self.synthesizer(&timed);
        let decoder = self.decoder(&timed);
        let (mut session, schema) = synth.build_session();
        let mut lifetime = DecodeStats::default();
        offline_pass(
            self.warmup,
            Budget::Records(records),
            |i| {
                tr.begin_record(i as u64);
                let cp = tr.span("core.checkpoint", || session.checkpoint());
                let out = decoder.decode(tr, &mut session, &schema, "", &mut self.rng(i));
                tr.span("core.rollback", || session.rollback(cp));
                tr.exit();
                Ok(per_record(out?, &mut lifetime))
            },
            |_, values| self.synth_compliant(values),
        )
    }

    // ---- serve_closed / serve_open ------------------------------------

    /// The server rule set: the mined rules for the closed loop (the
    /// pooled-session path does real solver work), the four manual rules
    /// for the open loop (the serve edge is the largest share).
    pub fn serve_rules(&self, w: Workload) -> &RuleSet {
        match w {
            Workload::ServeOpen => &self.env.manual,
            _ => &self.env.mined.imputation,
        }
    }

    fn request(&self, i: usize) -> Request {
        Request {
            id: i as u64,
            coarse: self.coarse(i),
            seed: self.draw.record_seed(i),
        }
    }

    /// Drives the in-process server over loopback and verifies every
    /// response with the rule evaluator. `with_pings` adds the ping probe.
    pub fn serve_socket(&self, w: Workload, budget: Budget, with_pings: bool) -> Pass {
        let rules = self.serve_rules(w);
        let model = TimedLm::untimed(&self.env.ngram);
        let server = Server::new(model, rules.clone(), self.env.serve_config());
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let (phase, ping_rtts_us) = std::thread::scope(|s| {
            let server = &server;
            let run = s.spawn(move || server.run(listener));
            let phase = match (w, budget) {
                (Workload::ServeOpen, budget) => {
                    let measured = match budget {
                        Budget::Seconds(s) => (OPEN_RATE * s) as usize,
                        Budget::Records(n) => n,
                    };
                    let requests: Vec<Request> = (0..self.warmup + measured)
                        .map(|i| self.request(i))
                        .collect();
                    loadgen::open_loop(addr, OPEN_RATE, self.warmup, &requests)
                }
                (_, budget) => {
                    loadgen::closed_loop(addr, CLOSED_CONNS, self.warmup, budget, &|i| {
                        self.request(i)
                    })
                }
            };
            let pings = if with_pings {
                loadgen::ping_rtts_us(addr, PINGS)
            } else {
                Ok(Vec::new())
            };
            if let Err(e) = loadgen::shutdown(addr) {
                // The server thread cannot be joined without its drain.
                eprintln!("benchmark: server did not accept shutdown: {e}");
                std::process::exit(2);
            }
            run.join()
                .expect("server thread does not panic")
                .expect("server run");
            (
                phase.expect("load generator I/O"),
                pings.expect("ping probe I/O"),
            )
        });
        self.verify_socket(w, phase, server.metrics(), ping_rtts_us)
    }

    fn verify_socket(
        &self,
        w: Workload,
        phase: Phase,
        metrics: ServeMetrics,
        ping_rtts_us: Vec<f64>,
    ) -> Pass {
        let rules = self.serve_rules(w);
        let mut pass = Pass {
            wall_s: phase.wall_s,
            cpu_s: phase.cpu_s,
            attempted: phase.exchanges.len() as u64,
            ..Pass::default()
        };
        for Exchange {
            id,
            latency_ms,
            response,
        } in phase.exchanges
        {
            pass.latencies_ms.push(latency_ms);
            let i = id as usize;
            match response.as_deref().and_then(parse_ok_response) {
                Some((text, values)) if rules.compliant(&self.coarse(i), &values) => {
                    pass.outputs.push((i, text));
                }
                _ => pass.failed += 1,
            }
        }
        pass.serve = Some(ServeSide {
            metrics,
            late_ms: phase.late_ms,
            backlog_end: phase.backlog_end,
            ping_rtts_us,
        });
        pass
    }

    /// Compares a fixed sample of [`VERIFY_SAMPLE`] served responses, evenly
    /// spaced over the record indices, byte-for-byte with a fresh in-process
    /// `Imputer::impute` at the same seed. Returns the number of mismatches.
    pub fn verify_sample(&self, w: Workload, pass: &Pass) -> u64 {
        let imputer = self.imputer(&self.env.ngram, self.serve_rules(w));
        let mut outputs: Vec<&(usize, String)> = pass.outputs.iter().collect();
        outputs.sort();
        let step = (outputs.len() / VERIFY_SAMPLE).max(1);
        outputs
            .into_iter()
            .step_by(step)
            .take(VERIFY_SAMPLE)
            .filter(|(i, text)| {
                let local = imputer.impute(&self.coarse(*i), &mut self.rng(*i));
                local.map_or(true, |o| o.text != *text)
            })
            .count() as u64
    }

    /// The records of a socket pass again through `Imputer::impute_pooled`
    /// in-process: the same pooled-session path without queue, batcher or
    /// socket. Gives `serve.inproc_ms_p50` and the deterministic counters.
    pub fn serve_inproc(&self, w: Workload, records: usize) -> Pass {
        let rules = self.serve_rules(w);
        let imputer = self.imputer(&self.env.ngram, rules);
        let mut pool = SessionPool::new(self.env.serve_config().pool_per_key);
        offline_pass(
            self.warmup,
            Budget::Records(records),
            |i| imputer.impute_pooled(&mut pool, &self.coarse(i), &mut self.rng(i)),
            |i, values| rules.compliant(&self.coarse(i), values),
        )
    }

    /// `impute_pooled` taken apart into spans.
    pub fn serve_inproc_traced(&self, w: Workload, records: usize, tr: &mut Tracer) -> Pass {
        let rules = self.serve_rules(w);
        let timed = TimedLm::timed(&self.env.ngram, tr.epoch());
        let imputer = self.imputer(&timed, rules);
        let decoder = self.decoder(&timed);
        let (_, schema) = imputer.build_session(&self.coarse(0));
        let key = imputer.pool_key();
        let mut pool = SessionPool::new(self.env.serve_config().pool_per_key);
        offline_pass(
            self.warmup,
            Budget::Records(records),
            |i| {
                let coarse = self.coarse(i);
                tr.begin_record(i as u64);
                let PooledSession { mut session, .. } = tr.span("core.pool_acquire", || {
                    pool.acquire(key, || JitSession::new(&schema))
                });
                let cp = tr.span("core.checkpoint", || session.checkpoint());
                tr.span("rules.ground", || {
                    imputer.ground_in(&mut session, &coarse);
                    session.invalidate_derived();
                });
                tr.span("smt.first_check", || session.satisfiable());
                let prompt = imputer.prompt(&coarse);
                let out = decoder.decode(tr, &mut session, &schema, &prompt, &mut self.rng(i));
                tr.span("core.rollback", || session.rollback(cp));
                tr.span("core.pool_release", || pool.release(key, session));
                tr.exit();
                out
            },
            |i, values| rules.compliant(&self.coarse(i), values),
        )
    }

    // ---- whole runs ---------------------------------------------------

    /// The untraced run behind the end-to-end metrics. Serve workloads also
    /// get the byte-for-byte sample check against an in-process decode.
    pub fn end_to_end(&self, w: Workload, budget: Budget) -> Pass {
        match w {
            Workload::ImputeFresh => self.impute_fresh(budget),
            Workload::SynthReuse => self.synth_reuse(budget),
            Workload::ServeClosed | Workload::ServeOpen => {
                let mut pass = self.serve_socket(w, budget, false);
                pass.failed += self.verify_sample(w, &pass);
                pass
            }
        }
    }

    /// The traced run behind the per-layer metrics: `records` records
    /// untraced, the same records again inside spans, and the probes. The
    /// traced outputs must be byte-equal to the untraced ones (and, for the
    /// serve workloads, both to what the server sent); every record that is
    /// not counts as failed.
    pub fn traced(&self, w: Workload, records: usize) -> TracedRun {
        let mut tracer = Tracer::new(self.warmup as u64);
        let (socket, untraced, mut traced) = match w {
            Workload::ImputeFresh => (
                None,
                self.impute_fresh(Budget::Records(records)),
                self.impute_fresh_traced(records, &mut tracer),
            ),
            Workload::SynthReuse => (
                None,
                self.synth_reuse(Budget::Records(records)),
                self.synth_reuse_traced(records, &mut tracer),
            ),
            Workload::ServeClosed | Workload::ServeOpen => {
                let socket = self.serve_socket(w, Budget::Records(records), true);
                // The closed loop splits an odd count unevenly; replay
                // exactly what was served.
                let served = socket.attempted as usize;
                (
                    Some(socket),
                    self.serve_inproc(w, served),
                    self.serve_inproc_traced(w, served, &mut tracer),
                )
            }
        };
        let reference = sorted_outputs(&untraced);
        traced.failed += mismatches(&reference, &sorted_outputs(&traced));
        if let Some(socket) = &socket {
            traced.failed += mismatches(&reference, &sorted_outputs(socket));
        }
        TracedRun {
            socket,
            untraced,
            traced,
            tracer,
            bounds_us_per_var: self.bounds_us_per_var(20),
            parse_us_per_line: self.parse_us_per_line(200),
        }
    }

    // ---- probes -------------------------------------------------------

    /// `Solver::bounds` on each variable of freshly grounded sessions, in
    /// µs per variable: pure solver, no lookahead tiers in front of it.
    /// Without it a gain in `core.checks_saved_per_char` would hide a
    /// solver gain.
    pub fn bounds_us_per_var(&self, windows: usize) -> f64 {
        let imputer = self.imputer(&self.env.ngram, &self.env.mined.imputation);
        let vars = self.env.dataset.window_len;
        let mut busy = Duration::ZERO;
        for i in 0..windows {
            let (mut session, _) = imputer.build_session(&self.coarse(i));
            let ids: Vec<_> = (0..vars).map(|k| session.var(k)).collect();
            let t = Instant::now();
            for v in ids {
                let _ = std::hint::black_box(session.solver_mut().bounds(v));
            }
            busy += t.elapsed();
        }
        busy.as_secs_f64() * 1e6 / (windows * vars) as f64
    }

    /// `protocol::parse_line` over the request lines, in µs per line.
    pub fn parse_us_per_line(&self, lines: usize) -> f64 {
        const REPS: usize = 20;
        let lines: Vec<String> = (0..lines).map(|i| self.request(i).line()).collect();
        let t = Instant::now();
        for _ in 0..REPS {
            for line in &lines {
                let _ = std::hint::black_box(lejit_serve::protocol::parse_line(line.trim_end()));
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (REPS * lines.len()) as f64
    }
}

/// Everything a traced run measured.
pub struct TracedRun {
    /// Serve workloads: the socket pass the in-process passes replay.
    pub socket: Option<Pass>,
    /// The records untraced, in-process: counters and the overhead base.
    pub untraced: Pass,
    /// The same records inside spans.
    pub traced: Pass,
    pub tracer: Tracer,
    pub bounds_us_per_var: f64,
    pub parse_us_per_line: f64,
}

fn sorted_outputs(pass: &Pass) -> Vec<&(usize, String)> {
    let mut v: Vec<_> = pass.outputs.iter().collect();
    v.sort();
    v
}

/// Records whose output differs between two passes over the same records
/// (a record missing from either side differs).
fn mismatches(a: &[&(usize, String)], b: &[&(usize, String)]) -> u64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    (a.len().max(b.len()) - same) as u64
}

/// A decoder over a stamping model: one `core.decode` span per call, with
/// the model's forward stamps filed beneath it.
struct TracedDecoder<'a, M: LanguageModel> {
    timed: &'a TimedLm<'a, M>,
    decoder: JitDecoder<'a, TimedLm<'a, M>>,
}

impl<M: LanguageModel> TracedDecoder<'_, M> {
    fn decode(
        &self,
        tr: &mut Tracer,
        session: &mut JitSession,
        schema: &DecodeSchema,
        prompt: &str,
        rng: &mut StdRng,
    ) -> Result<DecodedOutput, DecodeError> {
        let out = tr.span("core.decode", || {
            self.decoder.decode(session, schema, prompt, rng)
        });
        tr.adopt_forwards(self.timed.drain());
        out
    }
}

/// A reused session reports its lifetime counters; turn them into this
/// record's share and remember the new lifetime totals.
fn per_record(mut out: DecodedOutput, lifetime: &mut DecodeStats) -> DecodedOutput {
    let now = out.stats;
    out.stats.rebase_against(lifetime);
    *lifetime = now;
    out
}

/// The text and values of an `"ok":true` response line.
fn parse_ok_response(line: &str) -> Option<(String, Vec<i64>)> {
    use serde_json::Value;
    let v = serde_json::parse_value(line).ok()?;
    if v["ok"] != Value::Bool(true) {
        return None;
    }
    let Value::String(text) = &v["text"] else {
        return None;
    };
    let Value::Array(items) = &v["values"] else {
        return None;
    };
    let values = items
        .iter()
        .map(|x| match x {
            Value::Number(n) => n.as_i64(),
            _ => None,
        })
        .collect::<Option<Vec<i64>>>()?;
    Some((text.clone(), values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_a_seed_deterministic_permutation() {
        let a = Draw::new(1, 600);
        let b = Draw::new(1, 600);
        assert_eq!(a.perm, b.perm);
        let mut seen = a.perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..600).step_by(PANEL_STRIDE).collect::<Vec<_>>());
        assert_eq!(a.window(0), a.window(120), "the walk is cyclic");
        assert_eq!(a.record_seed(5), b.record_seed(5));
        assert_ne!(a.record_seed(5), a.record_seed(6));
    }

    #[test]
    fn another_seed_walks_another_order_with_other_seeds() {
        let a = Draw::new(1, 600);
        let b = Draw::new(2, 600);
        assert_ne!(a.perm, b.perm);
        assert_ne!(a.record_seed(0), b.record_seed(0));
    }

    #[test]
    fn traced_runs_have_a_fixed_size() {
        assert_eq!(Workload::ImputeFresh.traced_records(10.0), 144);
        assert_eq!(Workload::ServeOpen.traced_records(10.0), 480);
        assert_eq!(Workload::ServeClosed.traced_records(1.0), SMOKE_RECORDS);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn ok_responses_parse_and_errors_do_not() {
        assert_eq!(
            parse_ok_response(r#"{"id":7,"ok":true,"text":"20,15.","values":[20,15]}"#),
            Some(("20,15.".to_string(), vec![20, 15]))
        );
        assert_eq!(
            parse_ok_response(r#"{"id":7,"ok":false,"error":"overloaded","queue_cap":512}"#),
            None
        );
        assert_eq!(parse_ok_response("not json"), None);
    }
}
