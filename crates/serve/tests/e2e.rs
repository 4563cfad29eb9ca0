//! End-to-end tests over a live TCP server: arrival-order determinism
//! against a serial [`Imputer`] reference, typed overload under a
//! saturating burst, graceful drain with no lost or duplicated responses,
//! and hostile input (out-of-range counts, inline rules the grounder cannot
//! take, oversized and non-UTF-8 lines, a geometry no schema fits) that
//! must cost a typed refusal and nothing else.

use std::collections::BTreeMap;
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use lejit_core::{record_seed, Imputer, SessionPool, TaskConfig};
use lejit_lm::{NgramLm, Vocab};
use lejit_rules::{parse_rules, RuleSet};
use lejit_serve::protocol::{render_ok, MAX_COARSE, MAX_LINE_BYTES};
use lejit_serve::{ServeConfig, Server};
use lejit_telemetry::{
    encode_imputation_example, generate, CoarseSignals, Dataset, TelemetryConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

fn dataset() -> Dataset {
    generate(TelemetryConfig {
        racks_train: 6,
        racks_test: 2,
        windows_per_rack: 40,
        ..TelemetryConfig::default()
    })
}

/// Deterministic training — two calls produce identical models, so the
/// serial reference and the server can each own one.
fn imputation_model(d: &Dataset) -> NgramLm {
    let texts: Vec<String> = d.train.iter().map(encode_imputation_example).collect();
    let mut corpus = texts.join("\n");
    corpus.push_str("0123456789,;|=.TERGCD");
    let vocab = Vocab::from_corpus(&corpus);
    let seqs: Vec<Vec<_>> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
    NgramLm::train(vocab, &seqs, 5)
}

fn rules() -> RuleSet {
    parse_rules(
        "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
         rule r2: sum(fine) == total_ingress;
         rule r3: ecn_bytes > 0 => max(fine) >= 45;",
    )
    .unwrap()
}

fn config(d: &Dataset) -> ServeConfig {
    ServeConfig {
        window_len: d.window_len,
        bandwidth: d.bandwidth,
        ..ServeConfig::default()
    }
}

fn impute_line(id: usize, coarse: &CoarseSignals) -> String {
    let c = coarse.0;
    format!(
        r#"{{"op":"impute","id":{id},"coarse":[{},{},{},{},{},{}]}}"#,
        c[0], c[1], c[2], c[3], c[4], c[5]
    )
}

/// [`impute_line`] with an inline `rules` override.
fn impute_line_with_rules(id: usize, coarse: &CoarseSignals, rules: &str) -> String {
    let line = impute_line(id, coarse);
    format!(r#"{},"rules":"{rules}"}}"#, line.trim_end_matches('}'))
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn read_lines(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).unwrap(),
            0,
            "connection closed after {} of {} expected responses",
            out.len(),
            n
        );
        out.push(line.trim_end().to_string());
    }
    out
}

/// One response line, or `None` if the connection closed or stayed quiet
/// for ten seconds — so a server that stopped answering fails the test
/// instead of hanging it.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let timeout = Some(Duration::from_secs(10));
    reader.get_ref().set_read_timeout(timeout).unwrap();
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Some(line.trim_end().to_string()),
        _ => None,
    }
}

/// Whether the server has closed this connection (EOF or reset, as
/// opposed to merely having nothing to say).
fn is_closed(reader: &mut BufReader<TcpStream>) -> bool {
    let timeout = Some(Duration::from_secs(10));
    reader.get_ref().set_read_timeout(timeout).unwrap();
    match reader.read_line(&mut String::new()) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), TimedOut | WouldBlock),
    }
}

/// Whether the server process still owns a socket for the connection
/// whose client end is `reader` — an answered-and-shut-down socket that
/// is never closed pins an fd and a receive buffer. Read from the kernel's
/// table (an unowned or closed socket has inode 0 or no row); `false`
/// where there is no such table.
fn server_holds_socket(server: SocketAddr, reader: &BufReader<TcpStream>) -> bool {
    let client = reader.get_ref().local_addr().unwrap();
    let hex = |a: SocketAddr| format!("0100007F:{:04X}", a.port());
    let table = std::fs::read_to_string("/proc/net/tcp").unwrap_or_default();
    table.lines().any(|row| {
        let f: Vec<&str> = row.split_whitespace().collect();
        f.len() > 9 && f[1] == hex(server) && f[2] == hex(client) && f[9] != "0"
    })
}

/// The byte-exact response a healthy server gives request `id` for
/// `coarse` under its default per-id seed.
fn expected_reply(d: &Dataset, cfg: &ServeConfig, id: usize, coarse: &CoarseSignals) -> String {
    let model = imputation_model(d);
    let imputer = Imputer::new(
        &model,
        rules(),
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(record_seed(cfg.base_seed, id as u64));
    let out = imputer.impute(coarse, &mut rng).unwrap();
    render_ok(id as u64, &out.text, &out.values)
}

fn response_id(line: &str) -> u64 {
    match &serde_json::parse_value(line).unwrap()["id"] {
        Value::Number(n) => n.as_u64().unwrap(),
        other => panic!("response without numeric id: {other:?} in {line}"),
    }
}

fn shutdown(addr: SocketAddr) {
    let (mut reader, mut stream) = connect(addr);
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    let ack = read_lines(&mut reader, 1);
    assert_eq!(ack[0], r#"{"ok":true,"draining":true}"#);
}

#[test]
fn responses_are_byte_identical_across_arrival_orders_and_match_serial() {
    let d = dataset();
    let cfg = ServeConfig {
        shards: 2,
        lanes: 2,
        queue_cap: 64,
        pool_per_key: 2,
        ..config(&d)
    };
    let windows: Vec<CoarseSignals> = d.test.iter().take(10).map(|w| w.coarse).collect();

    // Serial reference: each request decoded alone under the server's
    // default per-id seed.
    let ref_model = imputation_model(&d);
    let imputer = Imputer::new(
        &ref_model,
        rules(),
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let expected: Vec<String> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut rng = StdRng::seed_from_u64(record_seed(cfg.base_seed, i as u64));
            let out = imputer.impute(w, &mut rng).unwrap();
            render_ok(i as u64, &out.text, &out.values)
        })
        .collect();

    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut rounds: Vec<BTreeMap<u64, String>> = Vec::new();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());

        // Round A: one connection, ids in order.
        let (mut reader, mut stream) = connect(addr);
        for (i, w) in windows.iter().enumerate() {
            writeln!(stream, "{}", impute_line(i, w)).unwrap();
        }
        let by_id = read_lines(&mut reader, windows.len())
            .into_iter()
            .map(|l| (response_id(&l), l))
            .collect();
        rounds.push(by_id);

        // Round B: two concurrent connections, reversed interleaved order.
        let halves: [Vec<usize>; 2] = [
            (0..windows.len()).rev().filter(|i| i % 2 == 0).collect(),
            (0..windows.len()).rev().filter(|i| i % 2 == 1).collect(),
        ];
        let windows = &windows;
        let got: Vec<(u64, String)> = std::thread::scope(|inner| {
            let handles: Vec<_> = halves
                .iter()
                .map(|ids| {
                    inner.spawn(move || {
                        let (mut reader, mut stream) = connect(addr);
                        for &i in ids {
                            writeln!(stream, "{}", impute_line(i, &windows[i])).unwrap();
                        }
                        read_lines(&mut reader, ids.len())
                            .into_iter()
                            .map(|l| (response_id(&l), l))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        rounds.push(got.into_iter().collect());

        shutdown(addr);
        run.join().unwrap();
    });

    for (round, by_id) in rounds.iter().enumerate() {
        assert_eq!(by_id.len(), windows.len(), "round {round} lost responses");
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                by_id.get(&(i as u64)),
                Some(want),
                "round {round}, request {i}: response bytes diverged from serial decode"
            );
        }
    }
    let m = server.metrics();
    assert_eq!(m.completed, 2 * windows.len() as u64);
    assert_eq!(m.failed + m.rejected, 0);
    // Warm pools: only the first request per (shard, fingerprint) builds a
    // session cold.
    assert!(m.pool_hits > 0, "expected warm session reuse: {m:?}");
    assert_eq!(m.pool_hits + m.pool_misses, 2 * windows.len() as u64);
}

#[test]
fn saturating_burst_gets_typed_overload_responses() {
    let d = dataset();
    let cfg = ServeConfig {
        shards: 1,
        lanes: 1,
        queue_cap: 1,
        pool_per_key: 1,
        ..config(&d)
    };
    let n = 128;
    let window = d.test[0].coarse;

    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut lines = Vec::new();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        // One pipelined burst: far faster than a 1-lane shard with a
        // 1-deep queue can drain.
        let burst: String = (0..n).map(|i| impute_line(i, &window) + "\n").collect();
        stream.write_all(burst.as_bytes()).unwrap();
        lines = read_lines(&mut reader, n);
        shutdown(addr);
        run.join().unwrap();
    });

    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    let mut overloaded = 0u64;
    let mut ok = 0u64;
    for line in &lines {
        *seen.entry(response_id(line)).or_default() += 1;
        if line.contains(r#""error":"overloaded""#) {
            assert!(
                line.contains(r#""queue_cap":1"#),
                "overload response must carry the queue bound: {line}"
            );
            overloaded += 1;
        } else {
            assert!(line.contains(r#""ok":true"#), "unexpected response: {line}");
            ok += 1;
        }
    }
    assert_eq!(seen.len(), n, "every request answered exactly once");
    assert!(seen.values().all(|&c| c == 1), "duplicated responses");
    assert!(overloaded > 0, "burst never tripped admission control");
    assert!(ok > 0, "admission control starved the decoder entirely");
    let m = server.metrics();
    assert_eq!(m.rejected, overloaded);
    assert_eq!(m.completed, ok);
}

#[test]
fn graceful_drain_answers_everything_admitted_then_refuses() {
    let d = dataset();
    let cfg = ServeConfig {
        shards: 2,
        lanes: 4,
        queue_cap: 256,
        ..config(&d)
    };
    let n = 12;
    let windows: Vec<CoarseSignals> = d.test.iter().cycle().take(n).map(|w| w.coarse).collect();

    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut lines = Vec::new();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        for (i, w) in windows.iter().enumerate() {
            writeln!(stream, "{}", impute_line(i, w)).unwrap();
        }
        // Shutdown races the in-flight work from a second connection.
        shutdown(addr);
        lines = read_lines(&mut reader, n);
        run.join().unwrap();
    });

    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    for line in &lines {
        *seen.entry(response_id(line)).or_default() += 1;
        assert!(
            line.contains(r#""ok":true"#) || line.contains(r#""error":"shutting_down""#),
            "drain must answer or refuse, never drop: {line}"
        );
    }
    assert_eq!(seen.len(), n, "a request was lost in the drain");
    assert!(seen.values().all(|&c| c == 1), "duplicated responses");
    let m = server.metrics();
    assert_eq!(
        m.completed,
        lines.iter().filter(|l| l.contains(r#""ok":true"#)).count() as u64
    );

    // The listener is gone: post-drain clients are refused outright.
    assert!(
        TcpStream::connect(addr).is_err(),
        "server still accepting after drain"
    );
}

#[test]
fn ping_round_trip_does_not_wait_out_a_delayed_ack() {
    // A client that leaves Nagle on and sends each request in one segment
    // (what any line-buffered client does). A response split into two
    // segments stalls on this client's delayed ACK for ~40 ms per round
    // trip once the connection leaves its initial quick-ACK phase, so the
    // median of a run of pings tells the two framings apart.
    let d = dataset();
    let server = Server::new(imputation_model(&d), rules(), config(&d));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut rtts = Vec::new();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        for _ in 0..31 {
            let t0 = std::time::Instant::now();
            stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let pong = read_lines(&mut reader, 1);
            rtts.push(t0.elapsed());
            assert!(pong[0].contains("pong"), "{}", pong[0]);
        }
        shutdown(addr);
        run.join().unwrap();
    });
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(5),
        "median ping round trip {median:?}: the response left in two segments"
    );
}

#[test]
fn out_of_range_counts_get_a_typed_response_and_leave_the_shard_serving() {
    // A count the grounder cannot negate or sum used to panic the shard
    // worker; with one shard every later request then waited forever.
    let d = dataset();
    let cfg = ServeConfig {
        shards: 1,
        ..config(&d)
    };
    let valid = d.test[0].coarse;
    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut replies: Vec<(i64, Option<String>, Option<String>)> = Vec::new();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        for (i, bad) in [i64::MAX, i64::MIN, i64::MIN + 1, -1]
            .into_iter()
            .enumerate()
        {
            let mut coarse = valid;
            coarse.0[0] = bad;
            writeln!(stream, "{}", impute_line(100 + i, &coarse)).unwrap();
            let typed = read_reply(&mut reader);
            writeln!(stream, "{}", impute_line(i, &valid)).unwrap();
            replies.push((bad, typed, read_reply(&mut reader)));
        }
        shutdown(addr);
        run.join().unwrap();
    });
    for (i, (bad, typed, after)) in replies.iter().enumerate() {
        let typed = typed.as_deref().unwrap_or("<no response>");
        assert!(
            typed.contains(r#""ok":false"#) && typed.contains(r#""error":""#),
            "coarse[0] = {bad}: {typed}"
        );
        assert_eq!(
            after.as_deref(),
            Some(expected_reply(&d, &cfg, i, &valid).as_str()),
            "valid request after coarse[0] = {bad}"
        );
    }
}

#[test]
fn oversized_and_non_utf8_lines_cost_one_connection_and_nothing_else() {
    let d = dataset();
    let cfg = ServeConfig {
        shards: 1,
        ..config(&d)
    };
    let valid = d.test[0].coarse;
    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut hostile: Vec<(&str, Option<String>, bool, bool)> = Vec::new();
    let mut bystander = None;
    // One byte past the cap and a megabyte past it, neither with a
    // newline; a line that ends but is not text.
    let just_over = vec![b'x'; MAX_LINE_BYTES + 1];
    let endless = vec![b'x'; 1 << 20];
    let cases: [(&str, &[u8]); 3] = [
        ("one byte over", &just_over),
        ("endless", &endless),
        ("non-UTF-8", b"\xff\xfe\n"),
    ];
    // Within the cap, but nested deeper than any thread's stack: refused
    // like any other unparseable line, and the connection goes on.
    let deep_json = "[".repeat(60_000);
    let mut deep_replies = [None, None];
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut by_reader, mut by_stream) = connect(addr);
        for (what, bytes) in cases {
            let (mut reader, mut stream) = connect(addr);
            // The server stops reading at the cap, so the rest of the line
            // is written from the side. A server that answered but kept
            // the socket would leave this write blocked: it must end, in
            // success or in a reset, well inside its timeout.
            let timeout = Some(Duration::from_secs(10));
            stream.set_write_timeout(timeout).unwrap();
            let writer = s.spawn(move || stream.write_all(bytes));
            let reply = read_reply(&mut reader);
            let mut closed = is_closed(&mut reader);
            // The reader thread lets go of the socket just after it shuts
            // it down; give that a moment.
            for _ in 0..200 {
                if !server_holds_socket(addr, &reader) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            closed &= !server_holds_socket(addr, &reader);
            let write_ended = match writer.join().unwrap() {
                Ok(()) => true,
                Err(e) => !matches!(e.kind(), TimedOut | WouldBlock),
            };
            hostile.push((what, reply, closed, write_ended));
        }
        // A connection opened before the hostile ones is still served.
        writeln!(by_stream, "{deep_json}").unwrap();
        deep_replies[0] = read_reply(&mut by_reader);
        writeln!(by_stream, "{}", impute_line(8, &valid)).unwrap();
        deep_replies[1] = read_reply(&mut by_reader);
        writeln!(by_stream, "{}", impute_line(7, &valid)).unwrap();
        bystander = read_reply(&mut by_reader);
        shutdown(addr);
        run.join().unwrap();
    });
    for (what, reply, closed, write_ended) in &hostile {
        let reply = reply.as_deref().unwrap_or("<no response>");
        assert!(
            reply.contains(r#""error":"bad_request""#),
            "{what}: {reply}"
        );
        assert!(closed, "{what}: connection left open");
        assert!(write_ended, "{what}: the client's write never returned");
    }
    let [deep_refusal, after_deep] = deep_replies;
    let deep_refusal = deep_refusal.as_deref().unwrap_or("<no response>");
    assert!(
        deep_refusal.contains(r#""error":"bad_request""#),
        "{deep_refusal}"
    );
    assert_eq!(
        after_deep.as_deref(),
        Some(expected_reply(&d, &cfg, 8, &valid).as_str())
    );
    assert_eq!(
        bystander.as_deref(),
        Some(expected_reply(&d, &cfg, 7, &valid).as_str())
    );
}

#[test]
fn inline_rules_the_grounder_cannot_take_get_bad_request_and_leave_the_shard_serving() {
    // Each of these used to parse and then panic the shard thread while
    // grounding (an index past the window, `i64` overflow folding a
    // constant, an aggregate where only an expression grounds): that
    // request and every later one on the shard then got no reply.
    let d = dataset();
    let cfg = ServeConfig {
        shards: 1,
        ..config(&d)
    };
    let valid = d.test[0].coarse;
    // The last one never reached a shard: it overflowed the stack of the
    // reader thread parsing it and aborted the process.
    let deep = format!(
        "rule x: {}1{} >= 0;",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    let hostile = [
        "rule x: fine[9] >= 0;",
        "rule x: total_ingress + 9223372036854775807 >= 0;",
        "rule x: 3 * (fine[0] * 4611686018427387904) >= 0;",
        "rule x: 0 * (9223372036854775807 + 9223372036854775807) >= 0;",
        "rule x: max(fine) >= min(fine);",
        deep.as_str(),
    ];
    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // (refusal, next reply on the same connection, reply on a fresh one)
    let mut replies: Vec<[Option<String>; 3]> = Vec::new();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        for (i, rule) in hostile.iter().enumerate() {
            let line = impute_line_with_rules(100 + i, &valid, rule);
            writeln!(stream, "{line}").unwrap();
            let refusal = read_reply(&mut reader);
            if refusal.is_none() {
                // The shard is gone; nothing after this would be answered.
                replies.push([None, None, None]);
                break;
            }
            writeln!(stream, "{}", impute_line(2 * i, &valid)).unwrap();
            let same_conn = read_reply(&mut reader);
            let (mut fresh_reader, mut fresh_stream) = connect(addr);
            writeln!(fresh_stream, "{}", impute_line(2 * i + 1, &valid)).unwrap();
            replies.push([refusal, same_conn, read_reply(&mut fresh_reader)]);
        }
        shutdown(addr);
        run.join().unwrap();
    });
    for (i, (rule, [refusal, same_conn, fresh_conn])) in hostile.iter().zip(&replies).enumerate() {
        let refusal = refusal.as_deref().unwrap_or("<no response>");
        assert!(
            refusal.contains(r#""error":"bad_request""#) && refusal.contains("rules: "),
            "{rule}: {refusal}"
        );
        for (id, reply) in [(2 * i, same_conn), (2 * i + 1, fresh_conn)] {
            assert_eq!(
                reply.as_deref(),
                Some(expected_reply(&d, &cfg, id, &valid).as_str()),
                "plain request {id} after `{rule}`"
            );
        }
    }
    assert_eq!(server.metrics().failed, 0, "refused before the queue");
}

#[test]
fn inline_rules_at_the_edge_of_the_bounds_are_served() {
    // The admission check refuses what cannot be grounded, not what is
    // merely large: the last in-window index, and constants that leave the
    // two sides of a comparison just inside `i64`, decode like any rule.
    let d = dataset();
    let cfg = ServeConfig {
        shards: 1,
        ..config(&d)
    };
    let valid = d.test[0].coarse;
    let last = d.window_len - 1;
    // Two sides, the 1 of a strict comparison and the 1 of a negated atom.
    let largest = i64::MAX - 2 - MAX_COARSE;
    let edge = format!(
        "rule a: fine[{last}] >= 0; rule b: total_ingress + {largest} >= 0; \
         rule c: sum(fine) == total_ingress;"
    );
    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut reply = None;
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        let line = impute_line_with_rules(1, &valid, &edge);
        writeln!(stream, "{line}").unwrap();
        reply = read_reply(&mut reader);
        shutdown(addr);
        run.join().unwrap();
    });
    let reply = reply.expect("a reply");
    assert!(reply.contains(r#""ok":true"#), "{reply}");
}

#[test]
fn a_geometry_no_schema_fits_is_refused_before_anything_is_accepted() {
    // `window_len: 0` used to panic every shard as it started and
    // `bandwidth: -1` each shard on its first request, while the acceptor
    // went on accepting connections nothing would ever answer.
    let d = dataset();
    for cfg in [
        ServeConfig {
            window_len: 0,
            ..config(&d)
        },
        ServeConfig {
            bandwidth: -1,
            ..config(&d)
        },
    ] {
        let server = Server::new(imputation_model(&d), rules(), cfg);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let result = std::thread::scope(|s| {
            let run = s.spawn(|| server.run(listener));
            for _ in 0..500 {
                if run.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            if !run.is_finished() {
                // Still accepting: drain it so the test can say so.
                shutdown(addr);
            }
            run.join().unwrap()
        });
        let kind = result.as_ref().map_err(std::io::Error::kind);
        assert_eq!(kind, Err(std::io::ErrorKind::InvalidInput), "{cfg:?}");
    }
}

#[test]
fn zero_sized_knobs_get_the_floor_the_environment_path_gives_them() {
    // `shards: 0` used to start no shard loop at all: every request queued
    // for ever.
    let d = dataset();
    let cfg = ServeConfig {
        shards: 0,
        lanes: 0,
        queue_cap: 0,
        pool_per_key: 0,
        ..config(&d)
    };
    let valid = d.test[0].coarse;
    let server = Server::new(imputation_model(&d), rules(), cfg);
    let c = server.config();
    assert_eq!(
        (c.shards, c.lanes, c.queue_cap, c.pool_per_key),
        (1, 1, 1, 1)
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut reply = None;
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        writeln!(stream, "{}", impute_line(4, &valid)).unwrap();
        reply = read_reply(&mut reader);
        shutdown(addr);
        run.join().unwrap();
    });
    assert_eq!(
        reply.as_deref(),
        Some(expected_reply(&d, &cfg, 4, &valid).as_str())
    );
}

#[test]
fn stats_op_reports_the_pool_counters_of_an_in_process_replay() {
    // One call-and-wait client against one shard is `impute_pooled` in a
    // loop with a socket in front: the `stats` op must report the pool
    // events that loop's per-request stats add up to.
    let d = dataset();
    let cfg = ServeConfig {
        shards: 1,
        ..config(&d)
    };
    let windows: Vec<CoarseSignals> = d.test.iter().take(6).map(|w| w.coarse).collect();

    let model = imputation_model(&d);
    let imputer = Imputer::new(
        &model,
        rules(),
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let mut pool = SessionPool::new(cfg.pool_per_key);
    let mut want = [0u64; 3];
    for (i, w) in windows.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(record_seed(cfg.base_seed, i as u64));
        let stats = imputer.impute_pooled(&mut pool, w, &mut rng).unwrap().stats;
        want[0] += stats.pool_hits;
        want[1] += stats.pool_misses;
        want[2] += stats.pool_evictions;
    }
    assert_eq!(want, [windows.len() as u64 - 1, 1, 0]);

    let server = Server::new(imputation_model(&d), rules(), cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut stats = None;
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(listener).unwrap());
        let (mut reader, mut stream) = connect(addr);
        for (i, w) in windows.iter().enumerate() {
            writeln!(stream, "{}", impute_line(i, w)).unwrap();
            assert!(read_reply(&mut reader).is_some_and(|r| r.contains(r#""ok":true"#)));
        }
        // The shard folds its pool's counters in after the step that wrote
        // the last reply; ask until it has.
        for _ in 0..200 {
            writeln!(stream, r#"{{"op":"stats"}}"#).unwrap();
            stats = read_reply(&mut reader);
            let folded = format!(r#""pool_hits":{}"#, want[0]);
            if stats.as_deref().is_some_and(|s| s.contains(&folded)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown(addr);
        run.join().unwrap();
    });
    let stats = serde_json::parse_value(&stats.expect("a stats reply")).unwrap();
    let got = ["pool_hits", "pool_misses", "pool_evictions"].map(|k| match &stats[k] {
        Value::Number(n) => n.as_u64().unwrap(),
        other => panic!("`{k}` is {other:?}"),
    });
    assert_eq!(got, want);
}
