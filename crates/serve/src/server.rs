//! The continuous-batching decode server.
//!
//! Threading layout (all inside one `std::thread::scope`, no detached
//! threads):
//!
//! * the **acceptor** runs inline on the caller's thread and spawns one
//!   **reader** thread per connection; readers parse request lines, answer
//!   control ops directly, and push decode work onto the shared
//!   [`RequestQueue`] — turning a full queue into a typed `overloaded`
//!   response (admission control) rather than blocking,
//! * `shards` **shard workers** (one [`ContinuousBatcher`] + one
//!   [`SessionPool`] each, spread over a [`minipool::ThreadPool`]) pop
//!   requests, seat them in free lanes, and advance all lanes lock-step —
//!   refilling each lane the moment its record finishes, so one slow record
//!   never stalls its neighbours.
//!
//! ## Determinism under interleaving
//!
//! A request's terminal response depends only on `(coarse, rules, seed)`:
//! the decode runs against a private solver frame (checkpointed pooled
//! session) with a private `splitmix64`-derived RNG stream, and every
//! lookahead tier is exact, so neither pool warmth nor which lanes decode
//! beside it can change a single byte. Arrival order, shard count, lane
//! width, and queue timing are throughput knobs only — the serving
//! equivalent of the workspace's `(threads, batch)` byte-identity matrix.
//!
//! ## Graceful drain
//!
//! A `shutdown` op is acked, then: the drain flag is set, the queue is
//! closed (new pushes refused with `shutting_down`, queued work keeps
//! draining), and a loopback self-connection wakes the blocking acceptor.
//! Shards finish every seated lane and every queued request — blocking
//! [`RequestQueue::pop_wait`] returns `None` only once the queue is closed
//! *and* empty — then the *read* half of every open connection is shut
//! down: a reader gets the lines the client had already sent (each refused
//! with `shutting_down` over the still-open write half) and then EOF, and
//! exits. Every line a client sent before the drain gets exactly one
//! terminal response, an answer or a refusal; nothing is lost or
//! duplicated. (Linux keeps received bytes readable after a read-side
//! shutdown; a platform that discards them drops those refusals.)

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_core::{
    allowed_chars, record_seed, AdmitOutcome, CharOptions, ContinuousBatcher, DecodeError,
    DecodeSchema, DecodeStats, FinishedLane, Imputer, JitSession, LaneJob, Lookahead, PoolStats,
    PooledSession, SessionCheckpoint, SessionPool, TaskConfig, VarSpec, VarState,
};
use lejit_lm::{LanguageModel, SamplerConfig};
use lejit_rules::{parse_rules, RuleSet};
use lejit_telemetry::CoarseSignals;

use crate::protocol::{
    parse_line, render_bad_request, render_chunk, render_decode_err, render_drain_ack, render_ok,
    render_overloaded, render_pong, render_shutting_down, render_stats, ImputeRequest, Op,
    MAX_LINE_BYTES,
};
use crate::queue::{PushError, RequestQueue};

/// Server knobs, each with a `LEJIT_SERVE_*` (or shared `LEJIT_*`)
/// environment override — see [`ServeConfig::from_env`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Bound on queued (admitted but unseated) requests; the backpressure
    /// point (`LEJIT_SERVE_QUEUE`, default 1024).
    pub queue_cap: usize,
    /// Independent scheduler shards, each with its own lanes and session
    /// pool (`LEJIT_SERVE_SHARDS`, default [`minipool::global_threads`]).
    pub shards: usize,
    /// Decode lanes per shard — the continuous-batch width (`LEJIT_BATCH`,
    /// default 8).
    pub lanes: usize,
    /// Warm sessions shelved per rule-set fingerprint per shard
    /// (`LEJIT_SERVE_POOL`, default 4).
    pub pool_per_key: usize,
    /// Fine steps per imputed window (`LEJIT_SERVE_WINDOW`, default 5).
    pub window_len: usize,
    /// Per-step bandwidth cap (`LEJIT_SERVE_BANDWIDTH`, default 60).
    pub bandwidth: i64,
    /// Base seed for requests that don't pin one: request `id` is mixed in
    /// via the same `splitmix64` spread the batch paths use
    /// (`LEJIT_SERVE_SEED`, default 600).
    pub base_seed: u64,
    /// Sampling hyperparameters.
    pub sampler: SamplerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 1024,
            shards: minipool::global_threads(),
            lanes: 8,
            pool_per_key: 4,
            window_len: 5,
            bandwidth: 60,
            base_seed: 600,
            sampler: SamplerConfig::default(),
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

impl ServeConfig {
    /// The default configuration with `LEJIT_SERVE_*` / `LEJIT_BATCH`
    /// environment overrides applied.
    pub fn from_env() -> Self {
        let mut c = ServeConfig::default();
        if let Some(v) = env_parse("LEJIT_SERVE_QUEUE") {
            c.queue_cap = v;
        }
        if let Some(v) = env_parse("LEJIT_SERVE_SHARDS") {
            c.shards = v;
        }
        if let Some(v) = env_parse("LEJIT_BATCH") {
            c.lanes = v;
        }
        if let Some(v) = env_parse("LEJIT_SERVE_POOL") {
            c.pool_per_key = v;
        }
        if let Some(v) = env_parse("LEJIT_SERVE_WINDOW") {
            c.window_len = v;
        }
        if let Some(v) = env_parse("LEJIT_SERVE_BANDWIDTH") {
            c.bandwidth = v;
        }
        if let Some(v) = env_parse("LEJIT_SERVE_SEED") {
            c.base_seed = v;
        }
        c.queue_cap = c.queue_cap.max(1);
        c.shards = c.shards.max(1);
        c.lanes = c.lanes.max(1);
        c.pool_per_key = c.pool_per_key.max(1);
        c
    }
}

/// Cumulative server counters, as reported by the `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Requests answered with a successful decode.
    pub completed: u64,
    /// Requests answered with a typed decode failure.
    pub failed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Warm-session pool hits across all shards.
    pub pool_hits: u64,
    /// Pool misses (cold sessions built) across all shards.
    pub pool_misses: u64,
    /// Sessions dropped because a shelf was full, across all shards.
    pub pool_evictions: u64,
}

/// A decode request as queued by a reader for the shard workers.
struct Request {
    client_id: u64,
    tag: u64,
    coarse: CoarseSignals,
    seed: u64,
    stream: bool,
    /// Pre-parsed inline rule override; `None` = the server rule set.
    rules: Option<RuleSet>,
    conn: Arc<Mutex<TcpStream>>,
}

/// Per-request lane state: an owned pooled session plus the response route.
struct ServeJob {
    session: JitSession,
    cp: SessionCheckpoint,
    rng: StdRng,
    conn: Arc<Mutex<TcpStream>>,
    key: u64,
    client_id: u64,
    baseline: DecodeStats,
}

impl LaneJob for ServeJob {
    type Rng = StdRng;

    fn admissible(&mut self) -> bool {
        self.session.satisfiable()
    }

    fn allowed(
        &mut self,
        k: usize,
        spec: &VarSpec,
        st: &VarState,
        lookahead: Lookahead,
    ) -> CharOptions {
        allowed_chars(&mut self.session, k, spec, st, lookahead)
    }

    fn commit(&mut self, k: usize, value: i64) {
        self.session.fix(k, value);
    }

    fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn fill_stats(&self, stats: &mut DecodeStats) {
        self.session.fill_stats(stats);
    }
}

/// Locks `m`, poisoned or not: every value guarded here is left consistent
/// between statements, so a panicked holder has broken nothing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writes one response line under the connection's write lock (the whole
/// line, including the newline, inside one lock hold — concurrent writers
/// interleave lines, never bytes). Line and newline leave in one `write`:
/// sent as two segments, the second waits out the client's delayed ACK
/// (~44 ms per response against a client without `TCP_NODELAY`). Write
/// errors mean the client left; the decode result is simply dropped.
fn write_line(conn: &Mutex<TcpStream>, line: &str) {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    let mut stream = lock(conn);
    let _ = stream.write_all(&framed);
    let _ = stream.flush();
}

/// One attempt to read a request line.
enum LineRead {
    Line(String),
    /// End of stream or a read error: the client left.
    Closed,
    /// Not a line this server will parse; the `bad_request` detail.
    Rejected(String),
}

/// Reads one `\n`-terminated line, pulling in at most
/// [`MAX_LINE_BYTES`]` + 1` bytes — a client that never sends a newline
/// costs that much memory and no more.
fn read_request_line(reader: &mut impl BufRead) -> LineRead {
    let mut buf = Vec::new();
    let mut capped = reader.take(MAX_LINE_BYTES as u64 + 1);
    match capped.read_until(b'\n', &mut buf) {
        Ok(0) | Err(_) => return LineRead::Closed,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        return LineRead::Rejected(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    }
    match String::from_utf8(buf) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::Rejected("request line is not UTF-8".to_string()),
    }
}

/// Which connections a shard must route chunk events to: `tag →
/// (connection, client id)` for the streaming requests it has seated.
type StreamRoutes = BTreeMap<u64, (Arc<Mutex<TcpStream>>, u64)>;

/// The decode server. Generic over the language model; `Sync` because the
/// shard workers share it for batched forward passes.
pub struct Server<M: LanguageModel + Sync> {
    model: M,
    rules: RuleSet,
    config: ServeConfig,
    queue: RequestQueue<Request>,
    shutting: AtomicBool,
    next_tag: AtomicU64,
    metrics: Mutex<ServeMetrics>,
}

impl<M: LanguageModel + Sync> Server<M> {
    /// A server decoding with `model` under `rules` (per-request inline
    /// overrides allowed).
    pub fn new(model: M, rules: RuleSet, config: ServeConfig) -> Self {
        Server {
            model,
            rules,
            config,
            queue: RequestQueue::new(config.queue_cap),
            shutting: AtomicBool::new(false),
            next_tag: AtomicU64::new(0),
            metrics: Mutex::new(ServeMetrics::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Snapshot of the cumulative counters.
    pub fn metrics(&self) -> ServeMetrics {
        *lock(&self.metrics)
    }

    fn with_metrics(&self, f: impl FnOnce(&mut ServeMetrics)) {
        f(&mut lock(&self.metrics));
    }

    fn draining(&self) -> bool {
        self.shutting.load(Ordering::SeqCst)
    }

    /// Flips into drain mode (idempotent): refuse new work, let everything
    /// admitted finish, and nudge the blocking acceptor awake with a
    /// loopback connection.
    fn begin_drain(&self, addr: SocketAddr) {
        if !self.shutting.swap(true, Ordering::SeqCst) {
            self.queue.close();
            let _ = TcpStream::connect(addr);
        }
    }

    /// Serves until a `shutdown` op completes its graceful drain.
    pub fn run(&self, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        // Write halves of the open connections, so drain can unblock
        // readers stuck in `read`. A reader takes its entry out when it
        // exits, which is what lets a closed connection's socket go.
        let conns: Mutex<BTreeMap<u64, Arc<Mutex<TcpStream>>>> = Mutex::new(BTreeMap::new());
        let conns = &conns;
        let mut next_conn = 0u64;
        thread::scope(|s| {
            let workers = s.spawn(|| {
                minipool::ThreadPool::new(self.config.shards)
                    .par_map(self.config.shards, |shard| self.shard_loop(shard));
            });
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => {
                        if self.draining() {
                            break;
                        }
                        continue;
                    }
                };
                if self.draining() {
                    // The drain wake-up (or a late client); either way stop
                    // accepting. Dropping the socket refuses the connection.
                    break;
                }
                // Responses are whole lines; never hold one back to coalesce.
                let _ = stream.set_nodelay(true);
                let conn = match stream.try_clone() {
                    Ok(w) => Arc::new(Mutex::new(w)),
                    Err(_) => continue,
                };
                let conn_id = next_conn;
                next_conn += 1;
                lock(conns).insert(conn_id, Arc::clone(&conn));
                s.spawn(move || {
                    self.serve_conn(stream, conn, addr);
                    lock(conns).remove(&conn_id);
                });
            }
            // Shards drain every queued and in-flight request before the
            // readers are told to stop, so terminal responses always get
            // out. Their panic-freedom is a lint invariant (L2); a violated
            // invariant surfaces as missing responses, not a torn-down
            // scope.
            let _ = workers.join();
            // Read halves only: a reader still holding lines the client
            // sent before the drain refuses each one over its write half,
            // then sees EOF.
            for conn in lock(conns).values() {
                let _ = lock(conn).shutdown(Shutdown::Read);
            }
            // Scope exit joins the reader threads.
        });
        Ok(())
    }

    /// One connection's read loop: control ops are answered inline, decode
    /// requests are admitted onto the queue or refused with a typed
    /// response. An oversized or non-UTF-8 line is answered and ends this
    /// connection only (there is no resynchronizing with its framing): the
    /// socket is shut down here and closed once the caller has dropped the
    /// registry's handle and any in-flight request its own.
    fn serve_conn(&self, stream: TcpStream, conn: Arc<Mutex<TcpStream>>, addr: SocketAddr) {
        let mut reader = BufReader::new(stream);
        loop {
            let line = match read_request_line(&mut reader) {
                LineRead::Line(l) => l,
                LineRead::Closed => break,
                LineRead::Rejected(detail) => {
                    write_line(&conn, &render_bad_request(&detail));
                    let _ = reader.get_ref().shutdown(Shutdown::Both);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(&line) {
                Err(detail) => write_line(&conn, &render_bad_request(&detail)),
                Ok(Op::Ping) => write_line(&conn, &render_pong()),
                Ok(Op::Stats) => {
                    let m = self.metrics();
                    write_line(
                        &conn,
                        &render_stats(
                            m.completed,
                            m.failed,
                            m.rejected,
                            self.queue.len(),
                            m.pool_hits,
                            m.pool_misses,
                            m.pool_evictions,
                        ),
                    );
                }
                Ok(Op::Shutdown) => {
                    write_line(&conn, &render_drain_ack());
                    self.begin_drain(addr);
                }
                Ok(Op::Impute(req)) => self.admit_request(&conn, req),
            }
        }
    }

    /// Parses a decode request's rule override and pushes it onto the
    /// bounded queue — the admission-control point.
    fn admit_request(&self, conn: &Arc<Mutex<TcpStream>>, req: ImputeRequest) {
        if self.draining() {
            write_line(conn, &render_shutting_down(req.id));
            return;
        }
        let rules = match &req.rules {
            Some(src) => match parse_rules(src) {
                Ok(r) => Some(r),
                Err(e) => {
                    write_line(conn, &render_bad_request(&format!("rules: {e}")));
                    return;
                }
            },
            None => None,
        };
        let request = Request {
            client_id: req.id,
            tag: self.next_tag.fetch_add(1, Ordering::SeqCst),
            coarse: req.coarse,
            seed: req
                .seed
                .unwrap_or_else(|| record_seed(self.config.base_seed, req.id)),
            stream: req.stream,
            rules,
            conn: Arc::clone(conn),
        };
        match self.queue.try_push(request) {
            Ok(()) => {}
            Err(PushError::Full) => {
                self.with_metrics(|m| m.rejected += 1);
                write_line(conn, &render_overloaded(req.id, self.queue.capacity()));
            }
            Err(PushError::Closed) => write_line(conn, &render_shutting_down(req.id)),
        }
    }

    /// One shard: a lane batcher and a warm session pool, fed from the
    /// shared queue. Free lanes are refilled without blocking; the shard
    /// blocks only when fully idle, and exits once the queue is closed and
    /// drained.
    fn shard_loop(&self, _shard: usize) {
        let mut pool = SessionPool::new(self.config.pool_per_key);
        let schema = DecodeSchema::fine_series(self.config.window_len, self.config.bandwidth);
        let mut batcher: ContinuousBatcher<ServeJob> =
            ContinuousBatcher::new(schema, self.config.sampler, self.config.lanes);
        // The server rule set's imputer (and its pool fingerprint), built
        // once; only a request with an inline override builds its own.
        let imputer = self.imputer(self.rules.clone());
        let mut streams = StreamRoutes::new();
        let mut pool_seen = PoolStats::default();
        loop {
            while batcher.has_free_slot() {
                match self.queue.try_pop() {
                    Some(req) => self.seat(&mut batcher, &mut pool, &mut streams, &imputer, req),
                    None => break,
                }
            }
            if batcher.is_idle() {
                match self.queue.pop_wait() {
                    Some(req) => {
                        self.seat(&mut batcher, &mut pool, &mut streams, &imputer, req);
                        continue;
                    }
                    None => break, // closed and drained
                }
            }
            let outcome = batcher.step(&self.model);
            // Chunks first: a finishing lane's last delta must reach the
            // client before its terminal response.
            for (tag, delta) in &outcome.chunks {
                if let Some((conn, client_id)) = streams.get(tag) {
                    write_line(conn, &render_chunk(*client_id, delta));
                }
            }
            for finished in outcome.finished {
                self.settle(&mut pool, &mut streams, finished);
            }
            self.sync_pool_metrics(&pool, &mut pool_seen);
        }
        self.sync_pool_metrics(&pool, &mut pool_seen);
    }

    fn imputer(&self, rules: RuleSet) -> Imputer<'_, M> {
        Imputer::new(
            &self.model,
            rules,
            self.config.window_len,
            self.config.bandwidth,
            TaskConfig {
                sampler: self.config.sampler,
                ..TaskConfig::default()
            },
        )
    }

    /// Seats one request: acquire a warm session under the rule-set
    /// fingerprint, ground this window's rules in a checkpoint frame,
    /// invalidate derived state, and admit the lane.
    fn seat(
        &self,
        batcher: &mut ContinuousBatcher<ServeJob>,
        pool: &mut SessionPool,
        streams: &mut StreamRoutes,
        server_rules: &Imputer<'_, M>,
        mut req: Request,
    ) {
        let inline;
        let imputer = match req.rules.take() {
            Some(rules) => {
                inline = self.imputer(rules);
                &inline
            }
            None => server_rules,
        };
        let key = imputer.pool_key();
        let PooledSession {
            mut session,
            baseline,
        } = pool.acquire(key, || JitSession::new(&imputer.schema()));
        let cp = session.checkpoint();
        imputer.ground_in(&mut session, &req.coarse);
        session.invalidate_derived();
        let prompt = imputer.prompt(&req.coarse);
        let job = ServeJob {
            session,
            cp,
            rng: StdRng::seed_from_u64(req.seed),
            conn: Arc::clone(&req.conn),
            key,
            client_id: req.client_id,
            baseline,
        };
        if req.stream {
            streams.insert(req.tag, (Arc::clone(&req.conn), req.client_id));
        }
        match batcher.admit(&self.model, job, &prompt, req.tag) {
            AdmitOutcome::Seated => {}
            AdmitOutcome::Finished(finished) => self.settle(pool, streams, finished),
            AdmitOutcome::Full(job) => {
                // Unreachable by construction (callers check
                // `has_free_slot`); recycle and answer rather than wedge.
                let ServeJob {
                    mut session,
                    cp,
                    conn,
                    key,
                    client_id,
                    ..
                } = job;
                session.rollback(cp);
                pool.release(key, session);
                streams.remove(&req.tag);
                self.with_metrics(|m| m.failed += 1);
                write_line(
                    &conn,
                    &render_decode_err(client_id, &DecodeError::Internal("no free lane slot")),
                );
            }
        }
    }

    /// Retires a finished lane: roll the session back to its pre-grounding
    /// checkpoint, shelve it for the next request with the same
    /// fingerprint, rebase the stats to this request, and write the
    /// terminal response.
    fn settle(
        &self,
        pool: &mut SessionPool,
        streams: &mut StreamRoutes,
        f: FinishedLane<ServeJob>,
    ) {
        let FinishedLane { tag, job, result } = f;
        let ServeJob {
            mut session,
            cp,
            conn,
            key,
            client_id,
            baseline,
            ..
        } = job;
        session.rollback(cp);
        pool.release(key, session);
        streams.remove(&tag);
        match result {
            Ok(mut out) => {
                out.stats.rebase_against(&baseline);
                self.with_metrics(|m| m.completed += 1);
                write_line(&conn, &render_ok(client_id, &out.text, &out.values));
            }
            Err(e) => {
                self.with_metrics(|m| m.failed += 1);
                write_line(&conn, &render_decode_err(client_id, &e));
            }
        }
    }

    /// Folds this shard's new pool events into the shared counters.
    fn sync_pool_metrics(&self, pool: &SessionPool, seen: &mut PoolStats) {
        let now = pool.stats();
        let (dh, dm, de) = (
            now.hits - seen.hits,
            now.misses - seen.misses,
            now.evictions - seen.evictions,
        );
        if dh | dm | de != 0 {
            self.with_metrics(|m| {
                m.pool_hits += dh;
                m.pool_misses += dm;
                m.pool_evictions += de;
            });
        }
        *seen = now;
    }
}
