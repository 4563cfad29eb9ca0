//! Load generator for `lejit-serve`: self-hosts a server in-process, then
//! drives it closed-loop (fixed client counts, back-to-back requests) and
//! open-loop (a pipelined burst that builds deep in-flight concurrency),
//! reporting p50/p99 latency and sustained records/sec.
//!
//! Usage: `cargo run -p lejit-bench --release --bin serve_loadgen [--smoke]`
//!
//! `--smoke` shrinks every phase for CI (seconds end to end). The default
//! scale pushes the open-loop burst past 1 000 concurrent in-flight
//! requests. Results go to stdout and `results/<scale>/serve_loadgen.txt`.
//!
//! Latency here is wall-clock and hardware-dependent; the byte-level
//! serving contract (responses independent of arrival order and lane
//! packing) is covered by `crates/serve/tests/e2e.rs` and the CI
//! determinism matrix, not by this harness.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lejit_bench::{print_table, Table};
use lejit_lm::{NgramLm, Vocab};
use lejit_rules::parse_rules;
use lejit_serve::{ServeConfig, Server};
use lejit_telemetry::{
    encode_imputation_example, generate, CoarseSignals, Dataset, TelemetryConfig,
};

struct PhaseReport {
    label: String,
    clients: usize,
    requests: usize,
    ok: usize,
    errors: usize,
    peak_in_flight: usize,
    p50: Duration,
    p99: Duration,
    records_per_sec: f64,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn summarize(
    label: &str,
    clients: usize,
    mut latencies: Vec<Duration>,
    ok: usize,
    errors: usize,
    peak_in_flight: usize,
    wall: Duration,
) -> PhaseReport {
    latencies.sort();
    PhaseReport {
        label: label.to_string(),
        clients,
        requests: latencies.len(),
        ok,
        errors,
        peak_in_flight,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        records_per_sec: ok as f64 / wall.as_secs_f64().max(1e-9),
    }
}

fn dataset() -> Dataset {
    generate(TelemetryConfig {
        racks_train: 8,
        racks_test: 2,
        windows_per_rack: 40,
        ..TelemetryConfig::default()
    })
}

fn train_model(d: &Dataset) -> NgramLm {
    let texts: Vec<String> = d.train.iter().map(encode_imputation_example).collect();
    let mut corpus = texts.join("\n");
    corpus.push_str("0123456789,;|=.TERGCD");
    let vocab = Vocab::from_corpus(&corpus);
    let seqs: Vec<Vec<_>> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
    NgramLm::train(vocab, &seqs, 5)
}

fn impute_line(id: u64, coarse: &CoarseSignals) -> String {
    let c = coarse.0;
    format!(
        r#"{{"op":"impute","id":{id},"coarse":[{},{},{},{},{},{}]}}"#,
        c[0], c[1], c[2], c[3], c[4], c[5]
    )
}

fn response_id(line: &str) -> u64 {
    match &serde_json::parse_value(line).ok().map(|v| match &v["id"] {
        serde_json::Value::Number(n) => n.as_u64().unwrap_or(u64::MAX),
        _ => u64::MAX,
    }) {
        Some(id) => *id,
        None => u64::MAX,
    }
}

/// Sends one request line with a single `write`: `writeln!` on a raw
/// `TcpStream` splits line and newline into two segments, and the second
/// waits out the server's delayed ACK (~44 ms per request), which is the
/// generator's own stall, not the server's latency.
fn send_line(stream: &mut TcpStream, mut line: String) {
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send");
}

/// Closed loop: `clients` connections, each sending `per_client` requests
/// back-to-back (a new request only after the previous terminal response).
/// Latency is the per-request round trip.
fn closed_loop(
    addr: SocketAddr,
    windows: &[CoarseSignals],
    clients: usize,
    per_client: usize,
) -> PhaseReport {
    let start = Instant::now();
    let per_conn: Vec<(Vec<Duration>, usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut stream = stream;
                    let mut latencies = Vec::with_capacity(per_client);
                    let (mut ok, mut errors) = (0usize, 0usize);
                    for k in 0..per_client {
                        let id = (c * per_client + k) as u64;
                        let w = &windows[id as usize % windows.len()];
                        let t0 = Instant::now();
                        send_line(&mut stream, impute_line(id, w));
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("recv");
                        latencies.push(t0.elapsed());
                        if line.contains(r#""ok":true"#) {
                            ok += 1;
                        } else {
                            errors += 1;
                        }
                    }
                    (latencies, ok, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    let mut latencies = Vec::new();
    let (mut ok, mut errors) = (0, 0);
    for (l, o, e) in per_conn {
        latencies.extend(l);
        ok += o;
        errors += e;
    }
    summarize(
        &format!("closed-loop x{clients}"),
        clients,
        latencies,
        ok,
        errors,
        clients,
        wall,
    )
}

/// Open loop: every request is fired up-front (pipelined over `conns`
/// connections, no waiting), so in-flight depth ramps to roughly the whole
/// burst before the shards drain it. Latency is send-to-response per
/// request.
fn open_loop(
    addr: SocketAddr,
    windows: &[CoarseSignals],
    conns: usize,
    burst: usize,
) -> PhaseReport {
    let in_flight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<(Vec<Duration>, usize, usize)> = std::thread::scope(|s| {
        let (in_flight, peak) = (&in_flight, &peak);
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let per = burst / conns + usize::from(c < burst % conns);
                    let stream = TcpStream::connect(addr).expect("connect");
                    let reader = BufReader::new(stream.try_clone().expect("clone"));
                    let sent: Mutex<BTreeMap<u64, Instant>> = Mutex::new(BTreeMap::new());
                    let (latencies, ok, errors) = std::thread::scope(|inner| {
                        let sent = &sent;
                        let writer = inner.spawn(move || {
                            let mut stream = stream;
                            for k in 0..per {
                                let id = (c * burst + k) as u64;
                                let w = &windows[id as usize % windows.len()];
                                let line = impute_line(id, w);
                                sent.lock().unwrap().insert(id, Instant::now());
                                let depth = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(depth, Ordering::SeqCst);
                                send_line(&mut stream, line);
                            }
                        });
                        let collector = inner.spawn(move || {
                            let mut reader = reader;
                            let mut latencies = Vec::with_capacity(per);
                            let (mut ok, mut errors) = (0usize, 0usize);
                            for _ in 0..per {
                                let mut line = String::new();
                                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                    break;
                                }
                                in_flight.fetch_sub(1, Ordering::SeqCst);
                                let id = response_id(&line);
                                if let Some(t0) = sent.lock().unwrap().remove(&id) {
                                    latencies.push(t0.elapsed());
                                }
                                if line.contains(r#""ok":true"#) {
                                    ok += 1;
                                } else {
                                    errors += 1;
                                }
                            }
                            (latencies, ok, errors)
                        });
                        writer.join().unwrap();
                        collector.join().unwrap()
                    });
                    (latencies, ok, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    let mut latencies = Vec::new();
    let (mut ok, mut errors) = (0, 0);
    for (l, o, e) in per_conn {
        latencies.extend(l);
        ok += o;
        errors += e;
    }
    summarize(
        &format!("open-loop burst {burst}"),
        conns,
        latencies,
        ok,
        errors,
        peak.load(Ordering::SeqCst),
        wall,
    )
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { "smoke" } else { "quick" };
    let d = dataset();
    let model = train_model(&d);
    let rules = parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 45;",
    )
    .unwrap();
    let windows: Vec<CoarseSignals> = d.test.iter().map(|w| w.coarse).collect();

    let config = ServeConfig {
        queue_cap: 4096,
        window_len: d.window_len,
        bandwidth: d.bandwidth,
        ..ServeConfig::from_env()
    };
    let server = Server::new(model, rules, config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    eprintln!(
        "serve_loadgen[{scale}]: server on {addr} ({} shards x {} lanes, queue {})",
        config.shards, config.lanes, config.queue_cap
    );

    let (closed_plan, burst, burst_conns) = if smoke {
        (vec![(1usize, 8usize), (4, 8)], 64usize, 8usize)
    } else {
        (vec![(1, 32), (8, 16), (32, 8)], 1536, 16)
    };

    let mut reports: Vec<PhaseReport> = Vec::new();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).expect("server run"));
        for &(clients, per_client) in &closed_plan {
            reports.push(closed_loop(addr, &windows, clients, per_client));
        }
        reports.push(open_loop(addr, &windows, burst_conns, burst));
        // Graceful drain ends the run.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        send_line(&mut stream, r#"{"op":"shutdown"}"#.to_string());
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("drain ack");
        run.join().expect("server thread");
    });
    let metrics = server.metrics();

    let mut table = Table::new(&[
        "phase",
        "clients",
        "requests",
        "ok",
        "errors",
        "peak in-flight",
        "p50 ms",
        "p99 ms",
        "records/sec",
    ]);
    for r in &reports {
        table.row(vec![
            r.label.clone(),
            r.clients.to_string(),
            r.requests.to_string(),
            r.ok.to_string(),
            r.errors.to_string(),
            r.peak_in_flight.to_string(),
            ms(r.p50),
            ms(r.p99),
            format!("{:.1}", r.records_per_sec),
        ]);
    }
    let title = format!("Serving: lejit-serve load generation ({scale})");
    print_table(&title, &table);
    let totals = format!(
        "server totals: completed {} / failed {} / rejected {}; pool {} hits / {} misses / {} evictions",
        metrics.completed,
        metrics.failed,
        metrics.rejected,
        metrics.pool_hits,
        metrics.pool_misses,
        metrics.pool_evictions,
    );
    println!("{totals}");

    // Persist: results/<scale>/serve_loadgen.txt.
    let results_dir = format!("results/{scale}");
    let _ = std::fs::create_dir_all(&results_dir);
    let text = format!("== {title} ==\n\n{}\n{totals}\n", table.render());
    let _ = std::fs::write(format!("{results_dir}/serve_loadgen.txt"), &text);

    if !smoke {
        let open = reports.last().expect("open-loop phase ran");
        assert!(
            open.peak_in_flight >= 1000,
            "open-loop burst peaked at {} in-flight (< 1000)",
            open.peak_in_flight
        );
    }
    eprintln!("serve_loadgen[{scale}]: done");
}
