//! A well-behaved load generator for the in-process `lejit-serve` server.
//!
//! Every connection sets `TCP_NODELAY` and sends each request line with
//! exactly one `write_all` (line and `\n` in one buffer), so no client-side
//! coalescing stall enters the numbers. What remains is the server's own
//! behaviour: its `write_line` sends the line and the `\n` as two segments,
//! and the second waits out the client's delayed ACK (~44 ms on Linux
//! loopback). That is what a real client sees, so it stays in the
//! measurement; `serve.ping_rtt_us_p50` isolates it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lejit_telemetry::CoarseSignals;

use crate::stats::process_cpu_s;
use crate::workloads::Budget;

/// A response that takes longer than this counts as timed out (failed).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One request the generator sends.
#[derive(Clone, Debug)]
pub struct Request {
    pub id: u64,
    pub coarse: CoarseSignals,
    pub seed: u64,
}

impl Request {
    /// The wire line, newline included, ready for a single `write_all`.
    pub fn line(&self) -> String {
        let c = self.coarse.0;
        format!(
            "{{\"op\":\"impute\",\"id\":{},\"coarse\":[{},{},{},{},{},{}],\"seed\":{}}}\n",
            self.id, c[0], c[1], c[2], c[3], c[4], c[5], self.seed
        )
    }
}

/// One measured exchange: which request, how long, and the raw response
/// line (`None` when the connection failed or timed out).
#[derive(Clone, Debug)]
pub struct Exchange {
    pub id: u64,
    pub latency_ms: f64,
    pub response: Option<String>,
}

/// What a load phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Measured exchanges in completion order (warm-up excluded).
    pub exchanges: Vec<Exchange>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Open loop: how late each measured request was sent, in ms.
    pub late_ms: Vec<f64>,
    /// Open loop: requests still unanswered when the schedule ended.
    pub backlog_end: u64,
}

/// A client connection: `TCP_NODELAY`, a read timeout, one buffered reader.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// One request, one response: sends `line` (which must end in `\n`) in
    /// a single write and reads one response line, without its newline.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        debug_assert!(line.ends_with('\n'));
        self.stream.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

/// Round-trip times of `count` pings in µs: socket, parse and render, no
/// decode.
pub fn ping_rtts_us(addr: SocketAddr, count: usize) -> std::io::Result<Vec<f64>> {
    let mut conn = Conn::open(addr)?;
    (0..count)
        .map(|_| {
            let t0 = Instant::now();
            conn.round_trip("{\"op\":\"ping\"}\n")?;
            Ok(t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// Asks the server to drain and waits for the acknowledgement.
pub fn shutdown(addr: SocketAddr) -> std::io::Result<()> {
    Conn::open(addr)?
        .round_trip("{\"op\":\"shutdown\"}\n")
        .map(drop)
}

/// Closed loop: `conns` connections, each sending its next request only
/// after the previous response arrived, the way an operator pipeline calls
/// and waits. Every connection first sends `request(0..warmup)` unmeasured;
/// then connection `c` sends `request(warmup + c)`, `request(warmup + c +
/// conns)`, …, so a counted run measures a contiguous record range. All
/// connections start measuring together.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    warmup: usize,
    budget: Budget,
    request: &(dyn Fn(usize) -> Request + Sync),
) -> std::io::Result<Phase> {
    let barrier = Barrier::new(conns + 1);
    // A counted run (traced or smoke, where the record set must repeat
    // exactly) is split evenly over the connections.
    let per_conn_cap = match budget {
        Budget::Records(n) => Some(n.div_ceil(conns)),
        Budget::Seconds(_) => None,
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || -> std::io::Result<(Vec<Exchange>, Instant)> {
                    let ready: std::io::Result<Conn> = (|| {
                        let mut conn = Conn::open(addr)?;
                        for k in 0..warmup {
                            conn.round_trip(&request(k).line())?;
                        }
                        Ok(conn)
                    })();
                    // Reach the barrier even on failure, or the others hang.
                    barrier.wait();
                    let mut conn = ready?;
                    let mut next = warmup + c;
                    let t0 = Instant::now();
                    let mut out = Vec::new();
                    loop {
                        let done = match budget {
                            Budget::Seconds(s) => t0.elapsed().as_secs_f64() >= s,
                            Budget::Records(_) => Some(out.len()) == per_conn_cap,
                        };
                        if done {
                            break;
                        }
                        let req = request(next);
                        next += conns;
                        let sent = Instant::now();
                        let response = conn.round_trip(&req.line());
                        let failed = response.is_err();
                        out.push(Exchange {
                            id: req.id,
                            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                            response: response.ok(),
                        });
                        if failed {
                            break; // the connection is gone; count it and stop
                        }
                    }
                    Ok((out, Instant::now()))
                })
            })
            .collect();
        barrier.wait();
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        let mut phase = Phase::default();
        let mut end = t0;
        for h in handles {
            let (exchanges, finished) = h.join().expect("generator thread does not panic")?;
            phase.exchanges.extend(exchanges);
            end = end.max(finished);
        }
        phase.cpu_s = process_cpu_s() - cpu0;
        phase.wall_s = (end - t0).as_secs_f64();
        Ok(phase)
    })
}

/// Open loop: one pipelined connection sends `requests` on a fixed uniform
/// schedule of `rate` per second regardless of responses, the way
/// independent users arrive. Each request is timed from when it was *due*,
/// so a stall charges the requests queued behind it. The first `warmup`
/// slots of the schedule are unmeasured.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    warmup: usize,
    requests: &[Request],
) -> std::io::Result<Phase> {
    let conn = Conn::open(addr)?;
    let Conn { mut stream, reader } = conn;
    let due = arrival_schedule(rate, requests.len());
    let base = requests.first().map_or(0, |r| r.id);
    let answered = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let answered = &answered;
        let due = &due;
        let writer = s.spawn(move || -> std::io::Result<(Vec<f64>, f64, u64)> {
            let mut late_ms = Vec::with_capacity(requests.len());
            let mut cpu0 = 0.0;
            for (i, req) in requests.iter().enumerate() {
                if let Some(wait) = due[i].checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                if i == warmup {
                    cpu0 = process_cpu_s();
                }
                let late = start.elapsed().saturating_sub(due[i]);
                stream.write_all(req.line().as_bytes())?;
                if i >= warmup {
                    late_ms.push(late.as_secs_f64() * 1e3);
                }
            }
            let backlog = requests.len() as u64 - answered.load(Ordering::Relaxed);
            Ok((late_ms, cpu0, backlog))
        });
        let collector = s.spawn(move || {
            let mut reader = reader;
            let mut out = Vec::with_capacity(requests.len());
            let mut last = start;
            let mut line = String::new();
            // One terminal response per request, warm-up included.
            for _ in 0..requests.len() {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(n) if n > 0 => {}
                    _ => break, // EOF or timeout: the rest count as failed
                }
                let now = Instant::now();
                answered.fetch_add(1, Ordering::Relaxed);
                let slot = response_id(&line)
                    .and_then(|id| id.checked_sub(base))
                    .map(|i| i as usize)
                    .filter(|i| (warmup..requests.len()).contains(i));
                if let Some(i) = slot {
                    last = now;
                    out.push(Exchange {
                        id: requests[i].id,
                        latency_ms: (now - start).saturating_sub(due[i]).as_secs_f64() * 1e3,
                        response: Some(line.trim_end().to_string()),
                    });
                }
            }
            (out, last)
        });
        let (late_ms, cpu0, backlog_end) = writer.join().expect("writer thread does not panic")?;
        let (mut exchanges, last) = collector.join().expect("collector thread does not panic");
        let cpu_s = process_cpu_s() - cpu0;
        // Requests that never got a response are failed exchanges.
        let mut seen = vec![false; requests.len()];
        for e in &exchanges {
            seen[(e.id - base) as usize] = true;
        }
        for (i, req) in requests.iter().enumerate().skip(warmup) {
            if !seen[i] {
                exchanges.push(Exchange {
                    id: req.id,
                    latency_ms: RESPONSE_TIMEOUT.as_secs_f64() * 1e3,
                    response: None,
                });
            }
        }
        let measured_from = due.get(warmup).copied().unwrap_or_default();
        Ok(Phase {
            exchanges,
            wall_s: (last - start).saturating_sub(measured_from).as_secs_f64(),
            cpu_s,
            late_ms,
            backlog_end,
        })
    })
}

/// The open loop's due times: request `i` is due `i / rate` seconds after
/// the start. Uniform and fixed, so the offered load is the same on every
/// run and every seed; the seed chooses what is sent, not when.
pub fn arrival_schedule(rate: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// The `id` of a response line, if it is a JSON object that carries one.
pub fn response_id(line: &str) -> Option<u64> {
    match &serde_json::parse_value(line.trim_end()).ok()?["id"] {
        serde_json::Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_is_one_newline_terminated_object() {
        let line = Request {
            id: 7,
            coarse: CoarseSignals([100, 8, 0, 0, 3, 0]),
            seed: 42,
        }
        .line();
        assert_eq!(
            line,
            "{\"op\":\"impute\",\"id\":7,\"coarse\":[100,8,0,0,3,0],\"seed\":42}\n"
        );
        match lejit_serve::protocol::parse_line(line.trim_end()) {
            Ok(lejit_serve::Op::Impute(r)) => {
                assert_eq!((r.id, r.seed, r.stream), (7, Some(42), false));
                assert_eq!(r.coarse, CoarseSignals([100, 8, 0, 0, 3, 0]));
            }
            other => panic!("server would not accept the line: {other:?}"),
        }
    }

    #[test]
    fn arrival_schedule_is_uniform_and_repeatable() {
        let a = arrival_schedule(120.0, 2400);
        assert_eq!(a, arrival_schedule(120.0, 2400));
        assert_eq!(a[0], Duration::ZERO);
        assert_eq!(a[120], Duration::from_secs(1));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let gap = (a[2399] - a[2398]).as_secs_f64();
        assert!((gap - 1.0 / 120.0).abs() < 1e-6);
    }

    #[test]
    fn response_ids() {
        assert_eq!(
            response_id("{\"id\":17,\"ok\":true,\"text\":\"1,2.\"}"),
            Some(17)
        );
        assert_eq!(response_id("{\"ok\":false}"), None);
        assert_eq!(response_id("garbage"), None);
    }
}
