//! End-to-end ORDER BY benchmark: SQL text in, result chunk out.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sales_ints --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs the paper's count query through `Engine::query` in a
//! closed loop with tracing off and prints the end-to-end metrics;
//! `--trace 1` is the separate traced run that times each layer from
//! outside and prints the per-layer metrics. Both check every result and
//! end with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is 0 only when every check passed. Workloads, metrics
//! and the layer each metric belongs to are described in `README.md`
//! beside this package.

mod e2e;
mod oracle;
mod stats;
mod traced;
mod workload;

use e2e::Tally;
use rowsort_testkit::json::Json;
use std::process::ExitCode;
use workload::Workload;

/// Environment variables that change what the program does; the
/// benchmark removes them so every run measures the same program.
const PINNED_ENV: [&str; 3] = ["ROWSORT_THREADS", "ROWSORT_OVC", "ROWSORT_TRACE"];

/// What one run measured and checked.
pub struct Outcome {
    pub tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(tally: Tally) -> Outcome {
        Outcome {
            tally,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Report `name` = `value` in `unit`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A line of context printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {names:?}"))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("expected a positive integer")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The host record printed with every result: cores and CPU model.
fn host_record() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "host: nproc={nproc} cpu={cpu:?} engine_threads={}",
        workload::THREADS
    )
}

fn main() -> ExitCode {
    // Before any thread starts, so the removal is race-free.
    let cleared: Vec<String> = PINNED_ENV
        .iter()
        .filter_map(|&k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect();
    for k in PINNED_ENV {
        std::env::remove_var(k);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_record());
    println!("env: unset {PINNED_ENV:?} (were set: {cleared:?})");

    let spill_dir = workload::spill_dir(args.workload);
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        eprintln!("perfbench: cannot create {}: {e}", spill_dir.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &spill_dir)
    } else {
        e2e::run(args.workload, args.seed, args.seconds, &spill_dir)
    };
    let _ = std::fs::remove_dir_all(&spill_dir);

    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name} = {value:.6} {unit}");
    }
    let Tally {
        attempted,
        failed,
        ref problems,
    } = outcome.tally;
    println!(
        "  failed_frac = {} ({failed} of {attempted} checked operations)",
        failed as f64 / attempted.max(1) as f64
    );
    for p in problems {
        println!("  FAILED: {p}");
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = Json::obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::str(*unit)),
            ]);
            (name.clone(), m)
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
