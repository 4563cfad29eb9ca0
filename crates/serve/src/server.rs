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
//! the decode runs against a private solver frame (a [`lejit_core::Lease`]
//! on a pooled session) with a private `splitmix64`-derived RNG stream, and
//! every lookahead tier is exact, so neither pool warmth nor which lanes
//! decode beside it can change a single byte. Arrival order, shard count,
//! lane width, and queue timing are throughput knobs only — the serving
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
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_core::{
    record_seed, AdmitOutcome, ContinuousBatcher, DecodeError, DecodeSchema, FinishedLane, Imputer,
    Lease, PoolStats, SessionJob, SessionPool, TaskConfig,
};
use lejit_lm::{LanguageModel, SamplerConfig};
use lejit_rules::{parse_rules, RuleSet};
use lejit_telemetry::CoarseSignals;

use crate::protocol::{
    check_inline_rules, parse_line, render_bad_request, render_chunk, render_decode_err,
    render_drain_ack, render_ok, render_overloaded, render_pong, render_shutting_down,
    render_stats, ImputeRequest, Op, MAX_LINE_BYTES,
};
use crate::queue::{PushError, RequestQueue};

/// Server knobs, each with a `LEJIT_SERVE_*` (or shared `LEJIT_*`)
/// environment override — see [`ServeConfig::from_env`]. [`Server::new`]
/// raises `queue_cap`, `shards`, `lanes` and `pool_per_key` to at least 1;
/// [`Server::run`] refuses a window geometry [`ServeConfig::schema`] does.
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
        c
    }

    /// The schema every shard decodes, or [`ErrorKind::InvalidInput`] saying
    /// what is wrong with `window_len` / `bandwidth` — found without the
    /// panics `DecodeSchema::fine_series` and `JitSession::new` keep for
    /// callers that hard-code theirs.
    pub fn schema(&self) -> std::io::Result<DecodeSchema> {
        let checked = if self.window_len == 0 {
            Err("window_len must be at least 1".to_string())
        } else {
            let schema = DecodeSchema::fine_series(self.window_len, self.bandwidth);
            schema.validate().map(|()| schema)
        };
        checked.map_err(|why| {
            std::io::Error::new(ErrorKind::InvalidInput, format!("serve config: {why}"))
        })
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

/// A seated request's lane state: the lease on its pooled session and its
/// private RNG stream.
type ServeJob = SessionJob<Lease, StdRng>;

/// Where a seated request's responses go.
struct Route {
    conn: Arc<Mutex<TcpStream>>,
    client_id: u64,
    /// Whether the client asked for chunk events.
    stream: bool,
}

/// The response routes of the requests a shard has seated, by tag.
type Routes = BTreeMap<u64, Route>;

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
    /// overrides allowed). A zero `queue_cap`, `shards`, `lanes` or
    /// `pool_per_key` is raised to 1: none of them has a meaning at zero,
    /// and zero shards would queue every request for ever.
    pub fn new(model: M, rules: RuleSet, mut config: ServeConfig) -> Self {
        config.queue_cap = config.queue_cap.max(1);
        config.shards = config.shards.max(1);
        config.lanes = config.lanes.max(1);
        config.pool_per_key = config.pool_per_key.max(1);
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

    /// Serves until a `shutdown` op completes its graceful drain. Returns
    /// [`ServeConfig::schema`]'s error before accepting anything if no
    /// decode schema fits the configured geometry: a shard that panicked on
    /// it would leave the acceptor taking connections nothing ever answers.
    pub fn run(&self, listener: TcpListener) -> std::io::Result<()> {
        let schema = &self.config.schema()?;
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
                    .par_map(self.config.shards, |_| self.shard_loop(schema.clone()));
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
            // out. Their panic-freedom is enforced by clippy (L2, DESIGN.md
            // §9); a violated invariant surfaces as missing responses, not a
            // torn-down scope.
            let _ = workers.join();
            // Read halves only: a reader still holding lines the client
            // sent before the drain refuses each one over its write half,
            // then sees EOF.
            // Released before any stream lock is taken: a reader blocked
            // writing to a stalled client holds its `conn`, and every reader
            // leaving meanwhile needs `conns`.
            let open: Vec<Arc<Mutex<TcpStream>>> = lock(conns).values().cloned().collect();
            for conn in open {
                let _ = lock(&conn).shutdown(Shutdown::Read);
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

    /// Parses and bounds-checks a decode request's rule override and pushes
    /// the request onto the bounded queue — the admission-control point.
    /// Whatever passes here must ground and decode without a panic: the
    /// shard threads have no one to answer for them.
    fn admit_request(&self, conn: &Arc<Mutex<TcpStream>>, req: ImputeRequest) {
        if self.draining() {
            write_line(conn, &render_shutting_down(req.id));
            return;
        }
        let (window_len, bandwidth) = (self.config.window_len, self.config.bandwidth);
        let inline = req.rules.as_deref().map(|src| {
            let rules = parse_rules(src).map_err(|e| e.to_string())?;
            check_inline_rules(&rules, window_len, bandwidth).map(|()| rules)
        });
        let rules = match inline.transpose() {
            Ok(rules) => rules,
            Err(e) => {
                write_line(conn, &render_bad_request(&format!("rules: {e}")));
                return;
            }
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
    fn shard_loop(&self, schema: DecodeSchema) {
        let mut pool = SessionPool::new(self.config.pool_per_key);
        let mut batcher: ContinuousBatcher<ServeJob> =
            ContinuousBatcher::new(schema, self.config.sampler, self.config.lanes);
        // The server rule set's imputer (and its pool fingerprint), built
        // once; only a request with an inline override builds its own.
        let imputer = self.imputer(self.rules.clone());
        let mut routes = Routes::new();
        let mut pool_seen = PoolStats::default();
        loop {
            while batcher.has_free_slot() {
                match self.queue.try_pop() {
                    Some(req) => self.seat(&mut batcher, &mut pool, &mut routes, &imputer, req),
                    None => break,
                }
            }
            if batcher.is_idle() {
                match self.queue.pop_wait() {
                    Some(req) => {
                        self.seat(&mut batcher, &mut pool, &mut routes, &imputer, req);
                        continue;
                    }
                    None => break, // closed and drained
                }
            }
            let outcome = batcher.step(&self.model);
            // Chunks first: a finishing lane's last delta must reach the
            // client before its terminal response.
            for (tag, delta) in &outcome.chunks {
                if let Some(route) = routes.get(tag).filter(|r| r.stream) {
                    write_line(&route.conn, &render_chunk(route.client_id, delta));
                }
            }
            for finished in outcome.finished {
                self.settle(&mut pool, &mut routes, finished);
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

    /// Seats one request: lease a warm session for its window under the
    /// rule-set fingerprint, file its response route, and admit the lane.
    fn seat(
        &self,
        batcher: &mut ContinuousBatcher<ServeJob>,
        pool: &mut SessionPool,
        routes: &mut Routes,
        server_rules: &Imputer<'_, M>,
        req: Request,
    ) {
        let inline;
        let imputer = match req.rules {
            Some(rules) => {
                inline = self.imputer(rules);
                &inline
            }
            None => server_rules,
        };
        let lease = imputer.lease(Some(pool), &req.coarse);
        let job = SessionJob::new(lease, StdRng::seed_from_u64(req.seed));
        let route = Route {
            conn: req.conn,
            client_id: req.client_id,
            stream: req.stream,
        };
        routes.insert(req.tag, route);
        let prompt = imputer.prompt(&req.coarse);
        let finished = match batcher.admit(&self.model, job, &prompt, req.tag) {
            AdmitOutcome::Seated => return,
            AdmitOutcome::Finished(finished) => finished,
            // Unreachable by construction (callers check `has_free_slot`);
            // settle and answer rather than wedge.
            AdmitOutcome::Full(job) => FinishedLane {
                tag: req.tag,
                job,
                result: Err(DecodeError::Internal("no free lane slot")),
            },
        };
        self.settle(pool, routes, finished);
    }

    /// Retires a finished lane: settle its lease (roll back, shelve, make
    /// the stats this request's) and write the terminal response down its
    /// route.
    fn settle(&self, pool: &mut SessionPool, routes: &mut Routes, f: FinishedLane<ServeJob>) {
        let (lease, _) = f.job.into_parts();
        let result = lease.settle(Some(pool), f.result);
        let Some(route) = routes.remove(&f.tag) else {
            return;
        };
        match result {
            Ok(out) => {
                self.with_metrics(|m| m.completed += 1);
                write_line(
                    &route.conn,
                    &render_ok(route.client_id, &out.text, &out.values),
                );
            }
            Err(e) => {
                self.with_metrics(|m| m.failed += 1);
                write_line(&route.conn, &render_decode_err(route.client_id, &e));
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
