//! The traced run: per-layer numbers, measured from outside the program.
//!
//! Spans are recorded here, around calls into each layer's public
//! functions; the program itself gains no tracing. Sort counters come
//! from the program's own `SortProfile` via `last_profile()`. Spans are
//! held in memory and written once, to `.bench_out/`, when the run ends.
//!
//! The run has two halves:
//!
//! 1. **Queries.** Pairs of the count query, one untraced through
//!    `Engine::query` and one traced (parse + plan + optimize, then
//!    `exec::execute_profiled`), alternating which goes first. Operator
//!    spans are built from the executor's per-node inclusive times; a
//!    span's self time is its duration minus what its child spans cover.
//!    Traced minus untraced median is the tracing overhead.
//! 2. **Layers.** Repetitions of: `DataChunk::split_into_vectors` and
//!    `DataChunk::append` on the table, a fresh `SortPipeline` (as the
//!    engine builds one per query) then the same pipeline again warm,
//!    `SortedRows::to_chunk`, the external sorter at the `sales_spill`
//!    budget, and the Figure 11 stage kernels on one 131072-row morsel.
//!
//! Every layer is measured on every workload, so each workload reports
//! every metric; `README.md` says on which workload each should move.

use crate::e2e::{self, Tally};
use crate::oracle::spill_leftovers;
use crate::stats::median;
use crate::workload::{self, Workload, THREADS};
use crate::Outcome;
use rowsort_core::comparator::FusedRowComparator;
use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::metrics::{Counter, Phase, SortProfile};
use rowsort_core::ovc::fill_run_codes;
use rowsort_core::spill::{SpillIo, StdFs};
use rowsort_core::{KeyBlock, KeySortAlgo, SortOptions, SortPipeline};
use rowsort_engine::{exec, plan, sql, Engine, ExecOptions, NodeStats};
use rowsort_row::RowLayout;
use rowsort_testkit::json::Json;
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows in one run-generation morsel (`SortOptions::run_rows`), the
/// input of the stage kernels.
const MORSEL_ROWS: usize = 1 << 17;
/// Fewest query pairs and layer repetitions per traced run.
const MIN_REPS: usize = 3;
/// Query ids at or above this mark layer repetitions, not queries.
const LAYER_QUERY_BASE: u64 = 1_000_000;

/// One timed interval: a layer call, or an operator of a traced query.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The query (or layer repetition) the span belongs to.
    query: u64,
}

/// Every span of the run, in memory until the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Start a span; [`Tracer::close`] ends it.
    fn open(&mut self, name: &str, parent: Option<usize>, query: u64) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, query)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    fn time<R>(&mut self, name: &str, parent: usize, query: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent), query);
        let r = f();
        self.close(id);
        r
    }

    fn dur_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Duration minus the part of it that child spans cover.
    fn self_ms(&self, id: usize) -> f64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (lo, hi) in kids {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        self.dur_ms(id) - covered as f64 / 1e6
    }

    /// Ids of the spans called `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Median duration of the spans called `name`.
    fn median_ms(&self, name: &str) -> f64 {
        median(&self.named(name).map(|i| self.dur_ms(i)).collect::<Vec<_>>())
    }

    fn write(&self, path: &Path) -> io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name.as_str())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("query", Json::Num(s.query as f64)),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).render())
    }
}

/// Spill storage on `std::fs` that counts the read calls reaching the
/// file system: the base of the read-ahead hit ratio.
#[derive(Default)]
struct CountingFs {
    reads: Arc<AtomicU64>,
}

struct CountingReader {
    inner: Box<dyn Read + Send>,
    reads: Arc<AtomicU64>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(buf)
    }
}

impl CountingFs {
    fn wrap(&self, inner: Box<dyn Read + Send>) -> Box<dyn Read + Send> {
        Box::new(CountingReader {
            inner,
            reads: Arc::clone(&self.reads),
        })
    }
}

impl SpillIo for CountingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        StdFs.create(path)
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.wrap(StdFs.open(path)?))
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.wrap(StdFs.open_at(path, offset)?))
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        StdFs.delete(path)
    }
}

/// Per-query engine numbers from one traced query.
struct QueryTrace {
    wall_ms: f64,
    parse_plan_ms: f64,
    scan_ms: f64,
    sort_self_ms: f64,
    tail_ops_ms: f64,
}

/// Parse, plan and optimize, then execute with per-operator profiling,
/// recording a span for each step and each operator.
fn traced_query(
    tr: &mut Tracer,
    engine: &Engine,
    options: &ExecOptions,
    sql_text: &str,
    q: u64,
) -> (
    rowsort_engine::Result<DataChunk>,
    QueryTrace,
    Vec<NodeStats>,
) {
    let root = tr.open("query", None, q);
    let parse = tr.open("engine.parse_plan", Some(root), q);
    let planned = sql::parse_statement(sql_text)
        .and_then(|(_, ast)| plan::build(&ast, engine.catalog()))
        .map(plan::optimize);
    tr.close(parse);
    let exec_span = tr.open("engine.execute", Some(root), q);
    let result = planned.and_then(|p| exec::execute_profiled(&p, engine.catalog(), options));
    tr.close(exec_span);
    tr.close(root);
    let (result, stats) = match result {
        Ok((chunk, stats)) => (Ok(chunk), stats),
        Err(e) => (Err(e), Vec::new()),
    };
    let ops = operator_spans(tr, &stats, exec_span, q);
    let self_of = |kinds: &[&str]| -> f64 {
        ops.iter()
            .filter(|&&id| kinds.contains(&tr.spans[id].name.as_str()))
            .map(|&id| tr.self_ms(id))
            .sum()
    };
    let trace = QueryTrace {
        wall_ms: tr.dur_ms(root),
        parse_plan_ms: tr.dur_ms(parse),
        scan_ms: self_of(&["op.Scan"]),
        sort_self_ms: self_of(&["op.Sort"]),
        tail_ops_ms: self_of(&["op.Project", "op.Limit", "op.CountStar"]),
    };
    (result, trace, stats)
}

/// Turn the executor's pre-order per-node stats into spans under
/// `exec_span`. The executor reports inclusive durations, not start
/// times; it pulls a node's inputs before doing the node's own work, so
/// each child is placed at its parent's start (after earlier siblings).
fn operator_spans(tr: &mut Tracer, stats: &[NodeStats], exec_span: usize, q: u64) -> Vec<usize> {
    let exec_start = tr.spans[exec_span].start_ns;
    // (span, where its next child starts), one entry per open depth.
    let mut open: Vec<(usize, u64)> = Vec::new();
    let mut top_cursor = exec_start;
    let mut ids = Vec::with_capacity(stats.len());
    for s in stats {
        open.truncate(s.depth);
        let (parent, start) = open.last().copied().unwrap_or((exec_span, top_cursor));
        let end = start + s.elapsed_ns;
        let kind = s.label.split_whitespace().next().unwrap_or("?");
        let id = tr.push(&format!("op.{kind}"), start, end, Some(parent), q);
        match open.last_mut() {
            Some(top) => top.1 = end,
            None => top_cursor = end,
        }
        open.push((id, start));
        ids.push(id);
    }
    ids
}

/// What one layer repetition read from the program's own counters.
struct LayerCounts {
    cold: SortProfile,
    warm: SortProfile,
    external: SortProfile,
    backend_reads: u64,
    leaked_files: u64,
}

/// The fixed inputs of the layer repetitions.
struct LayerInputs<'a> {
    data: &'a DataChunk,
    types: Vec<LogicalType>,
    order: OrderBy,
    /// Plan-wide VARCHAR length statistics, as the pipeline computes them.
    varchar_max: Vec<usize>,
    morsel: DataChunk,
    layout: Arc<RowLayout>,
    spill_dir: PathBuf,
}

/// One repetition of every layer measurement, as spans under one root.
fn layer_rep(
    tr: &mut Tracer,
    li: &LayerInputs,
    radix_scratch: &mut Vec<u8>,
    q: u64,
    tally: &mut Tally,
) -> LayerCounts {
    let rows = li.data.len();
    let root = tr.open("layers", None, q);
    let mut expect = |ok: bool, what: &str| {
        tally.record((!ok).then(|| format!("layer check failed: {what}")));
    };

    // vector: the Scan's split and the Sort's materialization.
    let chunks = tr.time("vector.split", root, q, || li.data.split_into_vectors());
    let all = tr.time("vector.append", root, q, || {
        let mut all = DataChunk::new(&li.types);
        for c in &chunks {
            all.append(c).expect("chunks share the table's schema");
        }
        all
    });
    expect(all.len() == rows, "append kept every row");
    drop((chunks, all));

    // core: a fresh pipeline per sort, as the engine builds one.
    let options = SortOptions {
        threads: THREADS,
        ..SortOptions::default()
    };
    let span = tr.open("core.sort_rows_cold", Some(root), q);
    let pipeline = SortPipeline::new(li.types.clone(), li.order.clone(), options);
    let sorted = pipeline.sort_rows(li.data);
    tr.close(span);
    let cold = pipeline.last_profile();
    let chunk = tr.time("core.to_chunk", root, q, || sorted.to_chunk());
    expect(chunk.len() == rows, "to_chunk kept every row");
    drop((chunk, sorted));
    let warm_rows = tr.time("core.sort_rows_warm", root, q, || {
        pipeline.sort_rows(li.data)
    });
    expect(warm_rows.len() == rows, "warm sort kept every row");
    drop(warm_rows);
    let warm = pipeline.last_profile();
    drop(pipeline);

    // core.external: the spilling sorter at the sales_spill budget.
    let io = Arc::new(CountingFs::default());
    let span = tr.open("core.external.sort", Some(root), q);
    let sorter = ExternalSorter::with_spill_io(
        li.types.clone(),
        li.order.clone(),
        ExternalSortOptions {
            memory_limit_rows: workload::spill_budget(rows),
            spill_dir: Some(li.spill_dir.clone()),
            merge_threads: THREADS,
            ..ExternalSortOptions::default()
        },
        Arc::clone(&io) as Arc<dyn SpillIo>,
    );
    let spilled = sorter.sort(li.data);
    tr.close(span);
    expect(
        matches!(&spilled, Ok(c) if c.len() == rows),
        "external sort returned every row",
    );
    drop(spilled);
    let external = sorter.last_profile();
    let leaked_files = spill_leftovers(&li.spill_dir) as u64;
    if leaked_files > 0 {
        let _ = std::fs::remove_dir_all(&li.spill_dir);
        let _ = std::fs::create_dir_all(&li.spill_dir);
    }

    // Figure 11 stage kernels, single-threaded on one morsel.
    let staging = tr.time("row.scatter", root, q, || {
        rowsort_row::scatter(&li.morsel, Arc::clone(&li.layout))
    });
    let mut keys = KeyBlock::new(&li.types, &li.order, |c| li.varchar_max[c]);
    tr.time("normkey.encode", root, q, || keys.append_chunk(&li.morsel));
    let tie = FusedRowComparator::new(&li.layout, &li.order);
    let algo = tr.time("algos.local_sort", root, q, || {
        keys.sort_with_scratch(radix_scratch, |a, b| {
            tie.compare(
                staging.row(a as usize),
                staging.heap(),
                staging.row(b as usize),
                staging.heap(),
            )
        })
    });
    expect(algo != KeySortAlgo::Noop, "the morsel has sort keys");
    let run_keys = keys.keys_only();
    let mut codes = vec![0u8; keys.len() * 8];
    tr.time("core.ovc.fill_codes", root, q, || {
        fill_run_codes(&run_keys, keys.key_width(), &mut codes)
    });
    std::hint::black_box(&codes);
    let order = keys.order();
    let gathered = tr.time("row.gather", root, q, || {
        rowsort_row::gather(&staging, &order)
    });
    expect(
        gathered.len() == li.morsel.len(),
        "gather kept every morsel row",
    );
    tr.close(root);

    LayerCounts {
        cold,
        warm,
        external,
        backend_reads: io.reads.load(Ordering::Relaxed),
        leaked_files,
    }
}

/// The counts of one repetition, by metric name.
fn counts(c: &LayerCounts, input_bytes: f64) -> Vec<(&'static str, f64, &'static str)> {
    let cold = |k: Counter| c.cold.metrics.counter(k) as f64;
    let ext = |k: Counter| c.external.metrics.counter(k) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pool_requests = cold(Counter::PoolHits) + cold(Counter::PoolMisses);
    let reads = ext(Counter::SpillReadaheadHits) + c.backend_reads as f64;
    vec![
        ("core.pool_misses", cold(Counter::PoolMisses), "count"),
        ("core.pool_requests", pool_requests, "count"),
        (
            "core.pool_hit_ratio",
            ratio(cold(Counter::PoolHits), pool_requests),
            "ratio",
        ),
        (
            "core.pool_misses_warm",
            c.warm.metrics.counter(Counter::PoolMisses) as f64,
            "count",
        ),
        ("core.runs", cold(Counter::RunsGenerated), "count"),
        ("core.merge_rounds", cold(Counter::MergeRounds), "count"),
        ("core.merge_cmps", cold(Counter::MergeCmps), "count"),
        (
            "core.ovc_hit_ratio",
            ratio(
                cold(Counter::MergeCmpsOvcResolved),
                cold(Counter::MergeCmps),
            ),
            "ratio",
        ),
        (
            "core.merge_key_bytes_touched",
            cold(Counter::MergeKeyBytesTouched),
            "bytes",
        ),
        ("core.bytes_moved", cold(Counter::BytesMoved), "bytes"),
        ("core.radix_sorts", cold(Counter::RadixSorts), "count"),
        ("core.radix_passes", cold(Counter::RadixPasses), "count"),
        ("core.pdq_sorts", cold(Counter::PdqSorts), "count"),
        (
            "core.external.spilled_runs",
            ext(Counter::SpilledRuns),
            "count",
        ),
        (
            "core.external.spilled_bytes",
            ext(Counter::SpilledBytes),
            "bytes",
        ),
        (
            "core.external.spill_write_amp",
            ext(Counter::SpilledBytes) / input_bytes,
            "ratio",
        ),
        (
            "core.external.merge_partitions",
            ext(Counter::SpillMergePartitions),
            "count",
        ),
        (
            "core.external.readahead_hits",
            ext(Counter::SpillReadaheadHits),
            "count",
        ),
        (
            "core.external.backend_reads",
            c.backend_reads as f64,
            "count",
        ),
        (
            "core.external.readahead_hit_ratio",
            ratio(ext(Counter::SpillReadaheadHits), reads),
            "ratio",
        ),
        (
            "core.external.seam_skip_bytes",
            ext(Counter::SpillSeamSkipBytes),
            "bytes",
        ),
        ("core.external.retries", ext(Counter::SpillRetries), "count"),
        (
            "core.external.leaked_files",
            c.leaked_files as f64 + ext(Counter::SpillCleanupFailed),
            "count",
        ),
    ]
}

/// Bytes of `data` in row form: fixed-width row slots plus string bytes —
/// the base of the spill write amplification.
fn row_form_bytes(data: &DataChunk, layout: &RowLayout) -> f64 {
    let strings: usize = data
        .columns()
        .iter()
        .filter_map(|c| c.as_strings().map(|s| s.total_bytes()))
        .sum();
    (layout.width() * data.len() + strings) as f64
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64, spill_dir: &Path) -> Outcome {
    let mut tally = Tally::default();
    let prepared = e2e::set_up(workload, seed, spill_dir);
    tally.record((!prepared.warmup_ok).then(|| "warm-up query failed".into()));
    let (engine, input) = (&prepared.engine, &prepared.input);
    let options = workload::exec_options(workload, input.rows, spill_dir);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut tr = Tracer::new();

    // Queries: untraced/traced pairs for the first half of the run.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last_stats = Vec::new();
    for pair in 0u64.. {
        if pair as usize >= MIN_REPS && start.elapsed() >= budget / 2 {
            break;
        }
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            if traced_turn {
                let (result, t, stats) =
                    traced_query(&mut tr, engine, &options, &input.count_sql, pair);
                e2e::check_query(result, input, spill_dir, &mut tally);
                traced.push(t);
                last_stats = stats;
            } else {
                untraced.push(e2e::timed_query(engine, input, spill_dir, &mut tally));
            }
        }
    }

    // Layers: repetitions until the run's time is up.
    let data = &engine
        .catalog()
        .get(&input.table_name)
        .expect("the workload table is registered")
        .data;
    let types = data.types();
    let layout = Arc::new(RowLayout::new(&types));
    let li = LayerInputs {
        data,
        order: crate::oracle::sort_order(engine.catalog(), &input.count_sql),
        varchar_max: (0..types.len())
            .map(|c| data.column(c).as_strings().map_or(0, |s| s.max_len()))
            .collect(),
        morsel: data.slice(0, MORSEL_ROWS.min(data.len())),
        layout: Arc::clone(&layout),
        spill_dir: spill_dir.to_path_buf(),
        types,
    };
    let input_bytes = row_form_bytes(data, &layout);
    let mut scratch = Vec::new();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let q = LAYER_QUERY_BASE + reps.len() as u64;
        reps.push(layer_rep(&mut tr, &li, &mut scratch, q, &mut tally));
    }

    e2e::check_oracle(&prepared, spill_dir, &mut tally);

    let mut out = Outcome::new(tally);
    e2e::describe(&mut out, input);
    let stat = |f: &dyn Fn(&QueryTrace) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let traced_p50 = stat(&|t| t.wall_ms);
    out.metric(
        "engine.parse_plan_us",
        stat(&|t| t.parse_plan_ms) * 1e3,
        "us",
    );
    out.metric("engine.scan_ms", stat(&|t| t.scan_ms), "ms");
    out.metric("engine.sort_self_ms", stat(&|t| t.sort_self_ms), "ms");
    out.metric("engine.tail_ops_ms", stat(&|t| t.tail_ops_ms), "ms");
    out.metric(
        "engine.unattributed_ms",
        stat(&|t| t.wall_ms - t.scan_ms - t.sort_self_ms - t.tail_ops_ms),
        "ms",
    );
    out.metric("trace.query_ms_p50_traced", traced_p50, "ms");
    out.metric("trace.query_ms_p50_untraced", median(&untraced), "ms");
    out.metric("trace.overhead_ms", traced_p50 - median(&untraced), "ms");
    out.note(format!(
        "{} untraced / {} traced queries; last traced plan:",
        untraced.len(),
        traced.len()
    ));
    for line in exec::render_analyze(&last_stats).lines() {
        out.note(format!("  {line}"));
    }

    for (metric, span) in [
        ("vector.split_ms", "vector.split"),
        ("vector.append_ms", "vector.append"),
        ("core.sort_rows_cold_ms", "core.sort_rows_cold"),
        ("core.sort_rows_warm_ms", "core.sort_rows_warm"),
        ("core.to_chunk_ms", "core.to_chunk"),
        ("core.external.sort_ms", "core.external.sort"),
    ] {
        out.metric(metric, tr.median_ms(span), "ms");
    }
    let phase_ms = |p: &dyn Fn(&LayerCounts) -> u64| {
        median(&reps.iter().map(|r| p(r) as f64 / 1e6).collect::<Vec<_>>())
    };
    out.metric(
        "core.prepare_ms",
        phase_ms(&|r| r.cold.metrics.phase(Phase::Prepare)),
        "ms",
    );
    out.metric(
        "core.run_generation_ms",
        phase_ms(&|r| r.cold.metrics.phase(Phase::RunGeneration)),
        "ms",
    );
    out.metric(
        "core.merge_ms",
        phase_ms(&|r| r.cold.metrics.phase(Phase::Merge)),
        "ms",
    );
    out.metric(
        "core.broadcast_ms",
        phase_ms(&|r| r.cold.metrics.counter(Counter::BroadcastNs)),
        "ms",
    );
    out.metric(
        "core.external.spill_ms",
        phase_ms(&|r| r.external.metrics.phase(Phase::Spill)),
        "ms",
    );
    out.metric(
        "core.external.spill_merge_ms",
        phase_ms(&|r| r.external.metrics.phase(Phase::SpillMerge)),
        "ms",
    );

    // Counts are reported as the median of the repetitions; those that
    // depend on thread interleaving (the pool's) are named with their range.
    let per_rep: Vec<_> = reps.iter().map(|r| counts(r, input_bytes)).collect();
    for (i, &(name, _, unit)) in per_rep[0].iter().enumerate() {
        let values: Vec<f64> = per_rep.iter().map(|c| c[i].1).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        if lo != hi {
            out.note(format!("{name} varied across repetitions: {lo} to {hi}"));
        }
        out.metric(name, median(&values), unit);
    }

    let rows = li.morsel.len() as f64;
    for (metric, span) in [
        ("row.scatter_ns_per_row", "row.scatter"),
        ("normkey.encode_ns_per_row", "normkey.encode"),
        ("algos.local_sort_ns_per_row", "algos.local_sort"),
        ("core.ovc.fill_codes_ns_per_row", "core.ovc.fill_codes"),
        ("row.gather_ns_per_row", "row.gather"),
    ] {
        out.metric(metric, tr.median_ms(span) * 1e6 / rows, "ns/row");
    }
    out.note(format!("{} layer repetitions", reps.len()));

    let path = workload::out_dir().join(format!("spans-{}-seed{seed}.json", workload.name()));
    match tr.write(&path) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            tr.spans.len(),
            path.display()
        )),
        Err(e) => out
            .tally
            .record(Some(format!("cannot write {}: {e}", path.display()))),
    }
    out
}
