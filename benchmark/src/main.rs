//! The LeJIT benchmark: four workloads over one shared set-up, end-to-end
//! metrics with tracing off and per-layer metrics from a traced run, every
//! output verified. README.md has the glossary; `../BENCHMARK.json`
//! declares the metrics.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out FILE]
//! benchmark compare A B
//! ```
//!
//! `--trace 0` measures the end-to-end metrics only, `--trace 1` the
//! per-layer metrics only; without it each workload runs both. The last
//! line of each workload's output is its result as one JSON object. The
//! exit code is non-zero when any record failed verification.

mod compare;
mod loadgen;
mod metrics;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

use report::Report;
use setup::Env;
use workloads::{Budget, Runner, Workload, SMOKE_RECORDS, SMOKE_WARMUP, WARMUP};

/// Set-ups per run. `setup_s` is their median, so one slow set-up does not
/// read as a regression.
const SETUP_REPS: usize = 2;
/// Outputs fingerprinted in a timed pass, whose record count varies.
const FINGERPRINT_RECORDS: usize = 100;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end to end only; `Some(true)`: traced only.
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out FILE]\n       benchmark compare A B\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 15.0,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
                args.workloads.push(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// Builds the shared environment [`SETUP_REPS`] times (once under
/// `--smoke`) and returns the last one with the median build time.
fn set_up(reps: usize) -> (Env, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut env = None;
    for _ in 0..reps {
        drop(env.take()); // one environment alive at a time: peak memory stays honest
        let t = Instant::now();
        env = Some(Env::build());
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&times).expect("at least one set-up");
    (env.expect("at least one set-up"), setup_s)
}

fn run_workload(runner: &Runner<'_>, w: Workload, args: &Args, setup_s: f64) -> Report {
    let mut report = Report {
        workload: w,
        end_to_end: None,
        per_layer: None,
        attempted: 0,
        failed: 0,
        fingerprint: String::new(),
        fingerprint_records: 0,
        latencies_ms: Vec::new(),
        smoke: args.smoke,
    };
    if args.trace != Some(true) {
        let budget = if args.smoke {
            Budget::Records(SMOKE_RECORDS)
        } else {
            Budget::Seconds(args.seconds)
        };
        let pass = runner.end_to_end(w, budget);
        report.end_to_end = Some(report::end_to_end(&pass, setup_s));
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        let (fp, n) = pass.fingerprint(FINGERPRINT_RECORDS);
        (report.fingerprint, report.fingerprint_records) = (fp.hex(), n);
        report.latencies_ms = pass.latencies_ms;
    }
    if args.trace != Some(false) {
        let records = if args.smoke {
            SMOKE_RECORDS
        } else {
            w.traced_records(args.seconds)
        };
        let run = runner.traced(w, records);
        if let Some(path) = &args.out {
            if let Err(e) = write_spans(path, w, &run.tracer) {
                eprintln!("benchmark: {path}.spans: {e}");
            }
        }
        report.per_layer = Some(report::per_layer(&run));
        report.attempted += run.traced.attempted;
        report.failed +=
            run.traced.failed + run.untraced.failed + run.socket.as_ref().map_or(0, |p| p.failed);
        // A counted run decodes the same records every time: fingerprint
        // them all.
        let (fp, n) = run.untraced.fingerprint(usize::MAX);
        (report.fingerprint, report.fingerprint_records) = (fp.hex(), n);
        if report.end_to_end.is_none() {
            report.latencies_ms = run.socket.unwrap_or(run.untraced).latencies_ms;
        }
    }
    report
}

/// Appends the traced pass's spans to `<path>.spans`, one per line.
fn write_spans(path: &str, w: Workload, tracer: &trace::Tracer) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(format!("{path}.spans"))?;
    let mut out = std::io::BufWriter::new(file);
    tracer.write_spans(&mut out, w.name())?;
    out.flush()
}

/// Appends this invocation's results to `path` as one JSON line, the
/// format `compare` reads.
fn append_out(path: &str, args: &Args, reports: &[Report]) -> std::io::Result<()> {
    let workloads = reports
        .iter()
        .map(|r| (r.workload.name().to_string(), r.to_value()))
        .collect();
    let doc = json!({
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": Value::Object(workloads)
    });
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{doc}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let (env, setup_s) = set_up(if args.smoke { 1 } else { SETUP_REPS });
    println!(
        "set-up {setup_s:.3} s; {} test windows; rules: {} imputation, {} synthesis, {} manual; \
         {} core(s); seed {}",
        env.dataset.test.len(),
        env.mined.imputation.len(),
        env.mined.synthesis.len(),
        env.manual.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
    );
    let warmup = if args.smoke { SMOKE_WARMUP } else { WARMUP };
    let runner = Runner::new(&env, args.seed, warmup);
    let mut reports = Vec::new();
    for &w in &args.workloads {
        let report = run_workload(&runner, w, &args, setup_s);
        report.print();
        println!("{}", report.result_line());
        reports.push(report);
    }
    if let Some(path) = &args.out {
        if let Err(e) = append_out(path, &args, &reports) {
            eprintln!("benchmark: --out {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&[
            "--workload",
            "serve_open",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::ServeOpen]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        assert!(!a.smoke && a.out.is_none());
    }

    #[test]
    fn defaults_run_every_workload_both_ways() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert_eq!((a.seed, a.trace), (1, None));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
