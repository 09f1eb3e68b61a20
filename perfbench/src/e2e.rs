//! The untraced run: set-up, then the paper's count query in a closed
//! loop (one client, one query at a time) through `Engine::query`, then
//! the correctness oracle outside the timed window.

use crate::oracle::{self, count_is, spill_leftovers};
use crate::stats::{self, median, ms, tail};
use crate::workload::{self, Input, Workload};
use crate::Outcome;
use rowsort_engine::Engine;
use rowsort_vector::DataChunk;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// An engine with the workload's table registered, warmed by one query.
pub struct Prepared {
    pub engine: Engine,
    pub input: Input,
    /// Whether the warm-up query returned the expected count.
    pub warmup_ok: bool,
}

/// Generate the input, register it, and run one warm-up query — the
/// set-up that `setup_s` times.
pub fn set_up(workload: Workload, seed: u64, spill_dir: &Path) -> Prepared {
    let (table, input) = workload::generate(workload, seed);
    let mut engine = Engine::with_options(workload::exec_options(workload, input.rows, spill_dir));
    engine.register_table(table);
    let warmup_ok = matches!(engine.query(&input.count_sql), Ok(r) if count_is(&r, input.expected_count))
        && spill_leftovers(spill_dir) == 0;
    Prepared {
        engine,
        input,
        warmup_ok,
    }
}

/// Operations a run checked, and what went wrong with those that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Record one checked operation and its problem, if it had one.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

/// Time one count query, then check its result and the spill directory.
pub fn timed_query(engine: &Engine, input: &Input, spill_dir: &Path, tally: &mut Tally) -> f64 {
    let t = Instant::now();
    let result = engine.query(&input.count_sql);
    let wall = ms(t.elapsed());
    check_query(result, input, spill_dir, tally);
    wall
}

/// Check one count query's result and the spill directory after it. Spill
/// files a query leaves behind fail it, and are removed so the next query
/// starts clean.
pub fn check_query(
    result: rowsort_engine::Result<DataChunk>,
    input: &Input,
    spill_dir: &Path,
    tally: &mut Tally,
) {
    let leftovers = spill_leftovers(spill_dir);
    if leftovers > 0 {
        let _ = std::fs::remove_dir_all(spill_dir);
        let _ = std::fs::create_dir_all(spill_dir);
    }
    let problem = match result {
        Ok(r) if count_is(&r, input.expected_count) => None,
        Ok(r) => Some(format!("wrong count: {:?}", r.to_rows())),
        Err(e) => Some(format!("query failed: {e}")),
    };
    tally.record(
        problem.or_else(|| (leftovers > 0).then(|| format!("{leftovers} spill files left behind"))),
    );
}

/// Run the oracle once (outside any timed window) and record it as one
/// checked operation.
pub fn check_oracle(prepared: &Prepared, spill_dir: &Path, tally: &mut Tally) {
    let data = &prepared
        .engine
        .catalog()
        .get(&prepared.input.table_name)
        .expect("the workload table is registered")
        .data;
    let result =
        oracle::check_sorted_output(&prepared.engine, &prepared.input, oracle::fingerprint(data));
    let leftovers = spill_leftovers(spill_dir);
    tally.record(match result {
        Err(e) => Some(format!("oracle: {e}")),
        Ok(()) if leftovers > 0 => Some(format!("oracle: {leftovers} spill files left behind")),
        Ok(()) => None,
    });
}

/// The untraced run of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64, spill_dir: &Path) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up and return its pages first, so every
        // set-up starts from the same allocator state and only one copy
        // is resident.
        drop(prepared.take());
        stats::release_free_memory();
        let t = Instant::now();
        let p = set_up(workload, seed, spill_dir);
        setup_s.push(t.elapsed().as_secs_f64());
        tally.record((!p.warmup_ok).then(|| "warm-up query failed".into()));
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let (engine, input) = (&prepared.engine, &prepared.input);

    stats::release_free_memory();
    let base_rss = stats::proc_status_bytes("VmRSS");
    let peak_reset = stats::reset_peak_rss();
    let mut lat = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    while lat.is_empty() || start.elapsed() < budget {
        lat.push(timed_query(engine, input, spill_dir, &mut tally));
    }
    let peak_rss = stats::proc_status_bytes("VmHWM");

    check_oracle(&prepared, spill_dir, &mut tally);

    let mut out = Outcome::new(tally);
    describe(&mut out, input);
    let p50 = median(&lat);
    let t = tail(&lat);
    let total_s: f64 = lat.iter().sum::<f64>() / 1e3;
    out.metric("query_ms_p50", p50, "ms");
    out.metric("query_ms_tail", t.value, "ms");
    out.note(format!(
        "query_ms_tail is p{} of {} samples ({} beyond){}",
        t.percentile,
        lat.len(),
        t.beyond,
        if t.beyond < stats::TAIL_BEYOND {
            "; too few samples, this is the maximum"
        } else {
            ""
        }
    ));
    out.metric(
        "rows_per_s",
        input.rows as f64 * lat.len() as f64 / total_s,
        "rows/s",
    );
    out.metric("setup_s", median(&setup_s), "s");
    out.note(format!(
        "setup_s is the median of {SETUPS} set-ups: {setup_s:.3?} s"
    ));
    match (base_rss, peak_rss, peak_reset) {
        (Some(base), Some(peak), Ok(())) => {
            out.metric(
                "query_peak_mb",
                peak.saturating_sub(base) as f64 / (1 << 20) as f64,
                "MiB",
            );
            out.note(format!(
                "resident after set-up {:.1} MiB, peak during queries {:.1} MiB",
                base as f64 / (1 << 20) as f64,
                peak as f64 / (1 << 20) as f64
            ));
        }
        _ => out.tally.record(Some(
            "cannot read or reset the peak resident set in /proc/self".into(),
        )),
    }
    out
}

/// Record the input size and the expected output with the result.
pub fn describe(out: &mut Outcome, input: &Input) {
    out.note(format!(
        "input: {} rows of {}; query: {}; output: count = {}",
        input.rows, input.table_name, input.count_sql, input.expected_count
    ));
}
