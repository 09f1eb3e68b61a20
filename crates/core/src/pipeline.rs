//! DuckDB's full parallel sorting pipeline (paper Figure 11).
//!
//! ```text
//! vectors ──► 8-byte-aligned payload rows + normalized keys (per worker)
//!         ──► thread-local radix sort / pdqsort  ⇒ sorted runs
//!         ──► one k-way loser-tree merge, range-partitioned across threads
//!         ──► convert the merged rows back to vectors
//! ```
//!
//! Run generation dominates the comparison count (§II: with k runs of n/k
//! rows, `n·log(n) − n·log(k)` of the `n·log(n)` comparisons happen during
//! run generation), so each worker sorts its own runs locally. The merge
//! phase moves every row exactly once: the key space is cut into one
//! range per thread at sampled splitter keys, and each range is merged
//! through a tree of losers straight into its slice of the output
//! ([`crate::merge`]). With [`SortOptions::ovc`], the default, the tree
//! carries offset-value codes so most merge comparisons resolve on one
//! `u64` compare instead of a whole-key `memcmp` (DESIGN.md §10).
//!
//! In steady state the pipeline is **allocation-free and
//! thread-spawn-free** (DESIGN.md §6): every transient buffer — key runs,
//! payload blocks, the radix scratch, the merge output — comes from a
//! [`BufferPool`] that survives across runs and repeated
//! [`SortPipeline::sort`] calls, and phases execute on a persistent
//! [`WorkerPool`] spawned once per pipeline.
//!
//! Output is deterministic: runs land in morsel-indexed slots, ties go to
//! the lower run index, and byte-equal keys never straddle a merge range —
//! so the result, including the order within ties, is bit-identical for
//! any thread count.

use crate::comparator::FusedRowComparator;
use crate::keys::{word, KeyBlock, KeySortAlgo};
use crate::merge::{self, Area, HeapOut, MergeOrder, RunHeads, Trees};
use crate::metrics::{emit_trace, Counter, CounterRegistry, Metrics, Phase, SortProfile};
use crate::pool::BufferPool;
use crate::workers::WorkerPool;
use rowsort_algos::radix::radix_scratch_len;
use rowsort_row::{RowBlock, RowLayout};
use rowsort_vector::{DataChunk, LogicalType, OrderBy, Vector};
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Worker threads to use when [`SortOptions`] does not pin a count: the
/// `ROWSORT_THREADS` environment variable if set to an integer
/// (`ROWSORT_THREADS=0` clamps to 1 rather than panicking downstream),
/// otherwise [`std::thread::available_parallelism`] — so the engine's
/// ORDER BY is parallel out of the box instead of silently single-threaded.
pub fn default_threads() -> usize {
    if let Some(n) = rowsort_testkit::env::env_count("ROWSORT_THREADS") {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Whether merges use offset-value coding when [`SortOptions`] does not
/// pin it: on unless the `ROWSORT_OVC` environment variable disables it
/// (any of `0`/`false`/`off`/`no`, trimmed and case-insensitive — the
/// shared [`rowsort_testkit::env`] convention) — the escape hatch for
/// A/B runs and for ruling OVC out when debugging a merge (DESIGN.md
/// §10). Unrecognized spellings keep the default rather than silently
/// flipping the knob.
pub fn default_ovc() -> bool {
    rowsort_testkit::env::env_flag("ROWSORT_OVC", true)
}

/// Tuning knobs for the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct SortOptions {
    /// Worker threads for run generation and merging.
    pub threads: usize,
    /// Rows per thread-local sorted run (DuckDB sorts once a thread's
    /// collected data reaches a threshold; 128 Ki rows here).
    pub run_rows: usize,
    /// Merge through an offset-value coded tree of losers so most merge
    /// comparisons resolve on one `u64` compare (DESIGN.md §10). Output
    /// is bit-identical either way; this only changes how comparisons
    /// are computed.
    pub ovc: bool,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions {
            threads: default_threads(),
            run_rows: 1 << 17,
            ovc: default_ovc(),
        }
    }
}

impl SortOptions {
    /// Single-threaded with a custom run size (used by tests/benches).
    pub fn single_with_run_rows(run_rows: usize) -> SortOptions {
        SortOptions {
            threads: 1,
            run_rows,
            ..SortOptions::default()
        }
    }
}

/// One sorted run: normalized keys (stride = `key_width`, row ids
/// stripped) aligned 1:1 with already-reordered payload rows.
struct SortedRun {
    keys: Vec<u8>,
    /// Bytes per key entry, carried from the [`KeyBlock`] layout that
    /// produced the run (every run of a sort shares it).
    key_width: usize,
    /// Per-row offset-value codes (8 LE bytes per row): row 0 relative
    /// to −∞, row `i` relative to row `i − 1`. Empty when OVC is off or
    /// keys are zero-width (DESIGN.md §10.2).
    ovc: Vec<u8>,
    payload: RowBlock,
}

impl SortedRun {
    fn len(&self) -> usize {
        self.payload.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        &self.keys[i * self.key_width..(i + 1) * self.key_width]
    }
}

/// One run's rows `pos..end` within a merge range, and the head's code.
#[derive(Clone, Copy)]
struct RunSpan {
    pos: usize,
    end: usize,
    code: u64,
}

/// The heads of every run within one merge range. The output heap is the
/// runs' heaps concatenated in run order, so emitting a row copies it and
/// shifts its string offsets by its run's base; no string moves.
struct MemHeads<'a> {
    runs: &'a [SortedRun],
    spans: &'a mut [RunSpan],
    /// Offset of each run's heap within the output heap.
    heap_base: &'a [u32],
    layout: &'a RowLayout,
    varlen_cols: &'a [usize],
}

impl RunHeads for MemHeads<'_> {
    type Error = Infallible;

    fn exhausted(&self, i: usize) -> bool {
        self.spans[i].pos >= self.spans[i].end
    }

    fn key(&self, i: usize) -> &[u8] {
        self.runs[i].key(self.spans[i].pos)
    }

    fn code(&self, i: usize) -> u64 {
        self.spans[i].code
    }

    fn row(&self, i: usize) -> (&[u8], &[u8]) {
        let payload = &self.runs[i].payload;
        (payload.row(self.spans[i].pos), payload.heap())
    }

    fn emit(&self, i: usize, slot: &mut [u8], _heap: &mut HeapOut<'_>) -> Result<(), Infallible> {
        copy_small(slot, self.runs[i].payload.row(self.spans[i].pos));
        let shift = self.heap_base[i];
        if shift == 0 {
            return Ok(());
        }
        for &c in self.varlen_cols {
            if slot[self.layout.null_offset(c)] != 0 {
                continue;
            }
            let at = self.layout.offset(c);
            let off = u32::from_le_bytes(word::<4>(slot, at)) + shift;
            slot[at..at + 4].copy_from_slice(&off.to_le_bytes());
        }
        Ok(())
    }

    fn advance(&mut self, i: usize) -> Result<(), Infallible> {
        let span = &mut self.spans[i];
        span.pos += 1;
        // The run-stored code is relative to the row just emitted.
        span.code = crate::ovc::read_code(&self.runs[i].ovc, span.pos);
        Ok(())
    }
}

/// Reusable merge-phase state (partition plan and per-range trees).
#[derive(Default)]
struct MergeScratch {
    samples: Vec<u8>,
    sample_order: Vec<u32>,
    splitters: Vec<u8>,
    /// `cuts[r * (parts + 1) + p]`: run `r`'s first row in range `p`.
    cuts: Vec<usize>,
    /// Output rows before range `p`.
    row_base: Vec<usize>,
    heap_base: Vec<u32>,
    ranges: Vec<Mutex<RangeScratch>>,
}

/// One range's run spans and loser trees.
#[derive(Default)]
struct RangeScratch {
    spans: Vec<RunSpan>,
    trees: Trees,
}

/// Reusable per-sort working state, retained inside the pipeline so a
/// steady-state sort allocates nothing.
#[derive(Default)]
struct Scratch {
    /// Per-column VARCHAR length statistics of the current input.
    stats: Vec<usize>,
    /// Statistics the pooled key blocks were planned for; when an input's
    /// stats differ, the cached blocks are discarded (their normalized-key
    /// layout would no longer match).
    key_stats: Vec<usize>,
    /// Morsel-indexed run slots: worker `m` writes run `m` here, so run
    /// order (and thus the merge's tie order) is schedule-independent.
    run_slots: Vec<Mutex<Option<SortedRun>>>,
    /// The runs to merge, in morsel order.
    runs: Vec<SortedRun>,
    merge: MergeScratch,
    /// Pooled key blocks (kept whole to also reuse their layout planning).
    key_blocks: Mutex<Vec<KeyBlock>>,
}

/// Copy a small runtime-length slice with a pair of overlapping
/// fixed-width loads/stores instead of a `memcpy` call — merge loops copy
/// one key (~5 bytes) and one row (~8–24 bytes) per output row, where the
/// call overhead of a runtime-length `memcpy` dominates the copy itself.
#[inline]
fn copy_small(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = src.len();
    if n >= 16 && n <= 32 {
        let a = u128::from_ne_bytes(word::<16>(src, 0));
        let b = u128::from_ne_bytes(word::<16>(src, n - 16));
        dst[..16].copy_from_slice(&a.to_ne_bytes());
        dst[n - 16..].copy_from_slice(&b.to_ne_bytes());
    } else if n >= 8 && n < 16 {
        let a = u64::from_ne_bytes(word::<8>(src, 0));
        let b = u64::from_ne_bytes(word::<8>(src, n - 8));
        dst[..8].copy_from_slice(&a.to_ne_bytes());
        dst[n - 8..].copy_from_slice(&b.to_ne_bytes());
    } else if n >= 4 && n < 8 {
        let a = u32::from_ne_bytes(word::<4>(src, 0));
        let b = u32::from_ne_bytes(word::<4>(src, n - 4));
        dst[..4].copy_from_slice(&a.to_ne_bytes());
        dst[n - 4..].copy_from_slice(&b.to_ne_bytes());
    } else {
        dst.copy_from_slice(src);
    }
}

/// The relational sort operator.
///
/// ```
/// use rowsort_core::pipeline::{SortOptions, SortPipeline};
/// use rowsort_vector::{DataChunk, OrderBy, Value, Vector};
///
/// let chunk = DataChunk::from_columns(vec![
///     Vector::from_u32s(vec![3, 1, 2]),        // key
///     Vector::from_strings(["c", "a", "b"]),   // payload
/// ])
/// .unwrap();
/// let pipeline = SortPipeline::new(
///     chunk.types(),
///     OrderBy::ascending(1),
///     SortOptions::default(),
/// );
/// let sorted = pipeline.sort(&chunk);
/// assert_eq!(sorted.row(0), vec![Value::UInt32(1), Value::from("a")]);
/// assert_eq!(sorted.row(2), vec![Value::UInt32(3), Value::from("c")]);
/// ```
pub struct SortPipeline {
    types: Vec<LogicalType>,
    order: OrderBy,
    options: SortOptions,
    layout: Arc<RowLayout>,
    /// Full-tuple comparator for VARCHAR-prefix tie resolution, built once.
    tie_cmp: FusedRowComparator,
    /// Columns whose row slots reference the heap (offset fixup in merges).
    varlen_cols: Vec<usize>,
    pool: BufferPool,
    /// Spawned lazily on the first parallel phase, then reused for life.
    workers: OnceLock<WorkerPool>,
    /// Reusable working state. Concurrent `sort` calls on one pipeline
    /// serialize on this lock (each call uses the whole scratch).
    scratch: Mutex<Scratch>,
    /// Lock-free counters and phase clocks, preallocated here so
    /// recording during a sort allocates nothing (DESIGN.md §7).
    metrics: Arc<CounterRegistry>,
    /// The most recent sort's profile (overwritten in place — `Copy`).
    profile: Mutex<SortProfile>,
}

impl SortPipeline {
    /// Plan a sort of a relation with columns `types` by `order`.
    /// `threads == 0` or `run_rows == 0` are clamped to 1 — both would
    /// otherwise divide by zero in morsel splitting / worker spawn.
    pub fn new(types: Vec<LogicalType>, order: OrderBy, mut options: SortOptions) -> SortPipeline {
        options.threads = options.threads.max(1);
        options.run_rows = options.run_rows.max(1);
        let layout = Arc::new(RowLayout::new(&types));
        let tie_cmp = FusedRowComparator::new(&layout, &order);
        let varlen_cols = (0..types.len())
            .filter(|&c| types[c] == LogicalType::Varchar)
            .collect();
        let metrics = Arc::new(CounterRegistry::new());
        SortPipeline {
            types,
            order,
            options,
            layout,
            tie_cmp,
            varlen_cols,
            pool: BufferPool::with_metrics(Arc::clone(&metrics)),
            workers: OnceLock::new(),
            scratch: Mutex::new(Scratch::default()),
            metrics,
            profile: Mutex::new(SortProfile::zeroed()),
        }
    }

    /// Sort a materialized input relation, returning it fully sorted.
    pub fn sort(&self, input: &DataChunk) -> DataChunk {
        self.sort_rows(input).to_chunk()
    }

    /// Sort `input`, returning the merged run in row form. Dropping the
    /// result returns its buffers to the pipeline's pool; in steady state
    /// (after a warm-up sort of similar shape) this call performs zero
    /// heap allocations.
    pub fn sort_rows(&self, input: &DataChunk) -> SortedRows<'_> {
        // Element-wise so the schema check allocates nothing in steady
        // state (`input.types()` would collect a fresh Vec per sort).
        assert!(
            input.column_count() == self.types.len()
                && input
                    .columns()
                    .iter()
                    .zip(&self.types)
                    .all(|(col, &ty)| col.logical_type() == ty),
            "input schema mismatch"
        );
        if input.is_empty() {
            return SortedRows {
                pipeline: self,
                block: None,
            };
        }
        let mut guard = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let scratch = &mut *guard;
        let sort_start = Instant::now();
        let before = self.metrics.snapshot();
        {
            let _prepare = self.metrics.time_phase(Phase::Prepare);
            // String statistics are plan-wide: every run must agree on the
            // normalized-key shape or the merge phase could not compare keys.
            scratch.stats.clear();
            for c in 0..self.types.len() {
                scratch.stats.push(Self::varchar_stat(input, c));
            }
            if scratch.stats != scratch.key_stats {
                // Cached key blocks were planned for different VARCHAR
                // stats; their layout no longer applies.
                scratch
                    .key_blocks
                    .get_mut()
                    .unwrap_or_else(|e| e.into_inner())
                    .clear();
                scratch.key_stats.clear();
                scratch.key_stats.extend_from_slice(&scratch.stats);
            }
        }
        {
            let _gen = self.metrics.time_phase(Phase::RunGeneration);
            self.generate_runs(input, scratch);
        }
        let block = {
            let _merge = self.metrics.time_phase(Phase::Merge);
            self.merge_runs(scratch)
        };
        self.metrics.record_sort(input.len() as u64);
        let profile = SortProfile {
            operator: "pipeline",
            rows: input.len() as u64,
            total_ns: sort_start.elapsed().as_nanos() as u64,
            metrics: self.metrics.snapshot().since(&before),
        };
        *self.profile.lock().unwrap_or_else(|e| e.into_inner()) = profile;
        emit_trace(&profile);
        SortedRows {
            pipeline: self,
            block: Some(block),
        }
    }

    /// Buffer-pool `(hits, misses)` counters — a steady-state sort serves
    /// every buffer from the pool (hits grow, misses do not).
    pub fn pool_stats(&self) -> (usize, usize) {
        (self.pool.hits(), self.pool.misses())
    }

    /// The profile of the most recent completed sort (zeroed before the
    /// first one). A `Copy` snapshot — reading it allocates nothing.
    pub fn last_profile(&self) -> SortProfile {
        *self.profile.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cumulative [`Metrics`] across every sort this pipeline has run.
    pub fn metrics(&self) -> Metrics {
        self.metrics.snapshot()
    }

    /// Statistics callback for VARCHAR prefix sizing: max string length in
    /// the input for the given column.
    fn varchar_stat(input: &DataChunk, col: usize) -> usize {
        input
            .column(col)
            .as_strings()
            .map(|s| s.max_len())
            .unwrap_or(0)
    }

    /// The persistent phase crew (spawned on first use).
    fn worker_pool(&self) -> &WorkerPool {
        self.workers.get_or_init(|| {
            WorkerPool::with_metrics(self.options.threads, Arc::clone(&self.metrics))
        })
    }

    /// Phase 1: morsel-parallel run generation. Each completed run is
    /// written to its morsel-indexed slot, so the resulting run order is
    /// identical for every schedule and thread count.
    fn generate_runs(&self, input: &DataChunk, scratch: &mut Scratch) {
        let n = input.len();
        let run_rows = self.options.run_rows;
        let morsels = n.div_ceil(run_rows);
        if scratch.run_slots.len() < morsels {
            scratch.run_slots.resize_with(morsels, Default::default);
        }
        let Scratch {
            ref stats,
            ref run_slots,
            ref mut runs,
            ref key_blocks,
            ..
        } = *scratch;

        let next = AtomicUsize::new(0);
        let body = |_worker: usize| loop {
            let m = next.fetch_add(1, AtomicOrdering::Relaxed);
            if m >= morsels {
                break;
            }
            let lo = m * run_rows;
            // A lone run goes straight to output without a merge, so its
            // code column would have no reader — skip computing it.
            let run = self.make_run(
                input,
                lo,
                (lo + run_rows).min(n),
                stats,
                key_blocks,
                morsels > 1,
            );
            *run_slots[m].lock().unwrap_or_else(|e| e.into_inner()) = Some(run);
        };
        if self.options.threads.min(morsels) <= 1 {
            body(0);
        } else {
            self.worker_pool().broadcast(&body);
        }

        runs.clear();
        for slot in run_slots[..morsels].iter() {
            let run = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                // lint:allow(R010): the phase-1 barrier completes before
                // this runs, and phase 1 fills every slot exactly once.
                .expect("every morsel slot is filled by phase 1");
            runs.push(run);
        }
    }

    /// Build one sorted run from input rows `lo..hi`, with every buffer
    /// pooled.
    fn make_run(
        &self,
        input: &DataChunk,
        lo: usize,
        hi: usize,
        stats: &[usize],
        key_blocks: &Mutex<Vec<KeyBlock>>,
        with_codes: bool,
    ) -> SortedRun {
        let rows = hi - lo;
        let width = self.layout.width();
        // DSM → NSM: payload rows (all columns) in input order first.
        let mut staging = RowBlock::from_raw_parts(
            Arc::clone(&self.layout),
            self.pool.get_bytes(rows * width),
            self.pool.get_bytes(64),
        );
        staging.append_chunk_range(input, lo, hi);

        let mut keys = key_blocks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| KeyBlock::new(&self.types, &self.order, |c| stats[c]));
        keys.reset();
        keys.append_chunk_range(input, lo, hi);

        // Thread-local sort: radix, or pdqsort + tie resolution when
        // truncated VARCHAR prefixes make ties possible.
        let mut radix_scratch = self
            .pool
            .get_bytes(radix_scratch_len(rows * keys.stride(), keys.stride()));
        let algo = keys.sort_with_scratch(&mut radix_scratch, |a, b| {
            self.tie_cmp.compare(
                staging.row(a as usize),
                staging.heap(),
                staging.row(b as usize),
                staging.heap(),
            )
        });
        self.pool.put_bytes(radix_scratch);
        match algo {
            KeySortAlgo::Radix { passes } => {
                self.metrics.add(Counter::RadixSorts, 1);
                self.metrics.add(Counter::RadixPasses, passes);
            }
            KeySortAlgo::Pdq => self.metrics.add(Counter::PdqSorts, 1),
            KeySortAlgo::Noop => {}
        }

        let mut run_keys = self.pool.get_bytes(rows * keys.key_width());
        keys.keys_only_into(&mut run_keys);
        // OVC column, computed while the freshly sorted keys are hot:
        // one prefix scan per row here saves a full-key compare per merge
        // comparison later (DESIGN.md §10.2).
        let run_ovc = if with_codes && self.options.ovc && keys.key_width() > 0 {
            let mut ovc = self.pool.get_bytes(rows * 8);
            ovc.resize(rows * 8, 0);
            crate::ovc::fill_run_codes(&run_keys, keys.key_width(), &mut ovc);
            ovc
        } else {
            Vec::new()
        };
        let mut payload = RowBlock::from_raw_parts(
            Arc::clone(&self.layout),
            self.pool.get_bytes(rows * width),
            self.pool.get_bytes(staging.heap().len().max(1)),
        );
        payload.assign_reordered(&staging, keys.order_iter());

        let key_width = keys.key_width();
        self.metrics.add(Counter::RunsGenerated, 1);
        // Staged rows + encoded key entries + stripped keys + reordered
        // payload: the bytes this run wrote.
        self.metrics.add(
            Counter::BytesMoved,
            (rows * (2 * width + keys.stride() + key_width)) as u64,
        );
        key_blocks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(keys);
        let (staging_data, staging_heap) = staging.into_raw_parts();
        self.pool.put_bytes(staging_data);
        self.pool.put_bytes(staging_heap);
        SortedRun {
            keys: run_keys,
            key_width,
            ovc: run_ovc,
            payload,
        }
    }

    /// Phase 2: merge every run in one k-way pass (DESIGN.md §10.2),
    /// cut into key ranges that the workers merge in parallel. The pass
    /// is the last one, so it writes payload rows only — no key or code
    /// column.
    fn merge_runs(&self, scratch: &mut Scratch) -> RowBlock {
        let Scratch {
            ref mut runs,
            merge: ref mut ms,
            ..
        } = *scratch;
        if runs.len() == 1 {
            if let Some(run) = runs.pop() {
                self.pool.put_bytes(run.keys);
                if run.ovc.capacity() > 0 {
                    self.pool.put_bytes(run.ovc);
                }
                return run.payload;
            }
        }
        let width = self.layout.width();
        let kw = runs.first().map_or(0, |r| r.key_width);
        let k = runs.len();
        let total: usize = runs.iter().map(SortedRun::len).sum();
        let parts = merge::plan_parts(self.options.threads, kw, k, total);
        let order = MergeOrder {
            kw,
            tie: (kw > 0 && self.tie_possible()).then_some(&self.tie_cmp),
            ovc: self.options.ovc && kw > 0,
        };

        ms.splitters.clear();
        if parts > 1 {
            ms.samples.clear();
            for run in runs.iter() {
                merge::sample_keys(run.len(), |i| run.key(i), &mut ms.samples);
            }
            merge::choose_splitters(
                &ms.samples,
                kw,
                parts,
                &mut ms.sample_order,
                &mut ms.splitters,
            );
        }
        ms.cuts.clear();
        for run in runs.iter() {
            ms.cuts.push(0);
            for p in 1..parts {
                let splitter = &ms.splitters[(p - 1) * kw..p * kw];
                ms.cuts
                    .push(merge::lower_bound(run.len(), |i| run.key(i), splitter));
            }
            ms.cuts.push(run.len());
        }
        ms.row_base.clear();
        for p in 0..=parts {
            let before: usize = (0..k).map(|r| ms.cuts[r * (parts + 1) + p]).sum();
            ms.row_base.push(before);
        }

        let heap_bytes: usize = runs.iter().map(|r| r.payload.heap().len()).sum();
        let mut heap = self.pool.get_bytes(heap_bytes);
        ms.heap_base.clear();
        for run in runs.iter() {
            ms.heap_base.push(heap.len() as u32);
            heap.extend_from_slice(run.payload.heap());
        }
        let mut data = self.pool.get_bytes(total * width);
        data.resize(total * width, 0);
        if ms.ranges.len() < parts {
            ms.ranges.resize_with(parts, Default::default);
        }

        let MergeScratch {
            ref cuts,
            ref row_base,
            ref heap_base,
            ref ranges,
            ..
        } = *ms;
        let runs_ref: &[SortedRun] = runs;
        let arity = crate::ovc::word_count(kw);
        let merge_one = |p: usize, [out]: [&mut [u8]; 1]| -> Result<(), Infallible> {
            let mut range = ranges[p].lock().unwrap_or_else(|e| e.into_inner());
            let RangeScratch { spans, trees } = &mut *range;
            spans.clear();
            for (r, run) in runs_ref.iter().enumerate() {
                let (pos, end) = (cuts[r * (parts + 1) + p], cuts[r * (parts + 1) + p + 1]);
                // A range's first head is coded against −∞: its stored
                // code is relative to a row that may sit in another range.
                let code = if order.ovc && pos < end {
                    crate::ovc::initial_code(run.key(pos), arity)
                } else {
                    0
                };
                spans.push(RunSpan { pos, end, code });
            }
            let mut heads = MemHeads {
                runs: runs_ref,
                spans,
                heap_base,
                layout: &self.layout,
                varlen_cols: &self.varlen_cols,
            };
            let mut no_heap = HeapOut {
                buf: &mut [],
                pos: 0,
                base: 0,
            };
            let stats = merge::merge_range(&mut heads, k, order, trees, out, width, &mut no_heap)?;
            stats.record(&self.metrics);
            Ok(())
        };
        let workers = (parts > 1).then(|| self.worker_pool());
        let area = Area {
            buf: &mut data,
            base: row_base,
            unit: width,
        };
        let Ok(()) = merge::for_each_range(workers, parts, [area], &merge_one);
        self.metrics.add(Counter::MergeRounds, 1);
        self.metrics.add(Counter::MergeTasks, parts as u64);
        self.metrics
            .add(Counter::BytesMoved, (total * width) as u64);

        for run in runs.drain(..) {
            self.recycle_run(run);
        }
        RowBlock::from_raw_parts(Arc::clone(&self.layout), data, heap)
    }

    /// Return a run's buffers to the pool.
    fn recycle_run(&self, run: SortedRun) {
        self.pool.put_bytes(run.keys);
        if run.ovc.capacity() > 0 {
            self.pool.put_bytes(run.ovc);
        }
        self.recycle_block(run.payload);
    }

    fn recycle_block(&self, block: RowBlock) {
        let (data, heap) = block.into_raw_parts();
        self.pool.put_bytes(data);
        self.pool.put_bytes(heap);
    }

    fn tie_possible(&self) -> bool {
        self.order
            .keys
            .iter()
            .any(|k| self.types[k.column] == LogicalType::Varchar)
    }
}

/// A sorted relation in row form, borrowed from its pipeline's buffer
/// pool: dropping it recycles the buffers, which is what makes repeated
/// sorts allocation-free.
pub struct SortedRows<'a> {
    pipeline: &'a SortPipeline,
    block: Option<RowBlock>,
}

impl SortedRows<'_> {
    /// Number of sorted rows.
    pub fn len(&self) -> usize {
        self.block.as_ref().map_or(0, RowBlock::len)
    }

    /// `true` iff the input held no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted payload rows (`None` for an empty input).
    pub fn payload(&self) -> Option<&RowBlock> {
        self.block.as_ref()
    }

    /// Convert back to vectors (NSM → DSM); the pipeline's final step.
    pub fn to_chunk(&self) -> DataChunk {
        match &self.block {
            Some(block) => block.to_chunk(),
            None => DataChunk::new(&self.pipeline.types),
        }
    }
}

impl Drop for SortedRows<'_> {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            self.pipeline.recycle_block(block);
        }
    }
}

/// Convenience: sort `input` by `order` with default options.
pub fn sort_chunk(input: &DataChunk, order: &OrderBy) -> DataChunk {
    SortPipeline::new(input.types(), order.clone(), SortOptions::default()).sort(input)
}

/// Convenience: assemble a chunk of u32 key columns and sort ascending.
pub fn sort_u32_columns(cols: Vec<Vec<u32>>, options: SortOptions) -> DataChunk {
    let ncols = cols.len();
    let chunk = DataChunk::from_columns(cols.into_iter().map(Vector::from_u32s).collect()).unwrap();
    SortPipeline::new(chunk.types(), OrderBy::ascending(ncols), options).sort(&chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_vector::{OrderByColumn, SortSpec, Value};
    use std::cmp::Ordering;

    fn reference_sort(chunk: &DataChunk, order: &OrderBy) -> Vec<Vec<Value>> {
        let mut rows = chunk.to_rows();
        rows.sort_by(|a, b| order.compare_rows(a, b));
        rows
    }

    fn assert_sorted_equal(got: &DataChunk, chunk: &DataChunk, order: &OrderBy) {
        let expected = reference_sort(chunk, order);
        let got_rows = got.to_rows();
        assert_eq!(got_rows.len(), expected.len());
        // The pipeline need not be stable; compare as multisets per tie
        // group by checking the ordering relation and the multiset.
        for w in got_rows.windows(2) {
            assert_ne!(
                order.compare_rows(&w[0], &w[1]),
                Ordering::Greater,
                "output out of order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        let canon = |rows: &[Vec<Value>]| {
            let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(canon(&got_rows), canon(&expected), "row multiset differs");
    }

    fn pseudo_random(n: usize, seed: u64, modk: u32) -> Vec<u32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as u32) % modk
            })
            .collect()
    }

    #[test]
    fn single_run_radix_path() {
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(10_000, 1, 1_000))])
                .unwrap();
        let order = OrderBy::ascending(1);
        let got = sort_chunk(&chunk, &order);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn multiple_runs_merge() {
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(pseudo_random(5_000, 2, 64)),
            Vector::from_u32s(pseudo_random(5_000, 3, 64)),
        ])
        .unwrap();
        let order = OrderBy::ascending(2);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(700),
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn parallel_sort_matches_sequential() {
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(pseudo_random(20_000, 4, 128)),
            Vector::from_u32s(pseudo_random(20_000, 5, 128)),
        ])
        .unwrap();
        let order = OrderBy::ascending(2);
        let seq = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                run_rows: 1500,
                ..SortOptions::default()
            },
        )
        .sort(&chunk);
        let par = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 4,
                run_rows: 1500,
                ..SortOptions::default()
            },
        )
        .sort(&chunk);
        assert_sorted_equal(&par, &chunk, &order);
        // Key columns must agree exactly (payload order within ties may
        // differ between schedules, but here all columns are keys).
        assert_eq!(seq.to_rows(), par.to_rows());
    }

    #[test]
    fn output_bit_identical_across_thread_counts() {
        // Non-key payload creates observable tie order: with morsel-slot
        // runs, ties to the lower run index, and merge ranges cut at key
        // lower bounds, the whole output (tie order and heap included)
        // must match for any thread count, with codes on or off.
        let n = 9_000;
        let payload: Vec<u32> = (0..n as u32).collect();
        // Heavy ties.
        let u32_ties = DataChunk::from_columns(vec![
            Vector::from_u32s(pseudo_random(n, 21, 40)),
            Vector::from_u32s(payload.clone()),
        ])
        .unwrap();
        // Heavy-duplicate INT keys: every splitter sits inside a tie group.
        let int_dups = DataChunk::from_columns(vec![
            Vector::from_i32s(
                pseudo_random(n, 22, 5)
                    .iter()
                    .map(|&v| v as i32 - 2)
                    .collect(),
            ),
            Vector::from_u32s(payload.clone()),
        ])
        .unwrap();
        // Keys ~256 apart within a run: about half of the range heads
        // share their leading key word with their in-run predecessor, so
        // a head left coded against that predecessor (not −∞) would
        // mis-order the range.
        let near_keys = DataChunk::from_columns(vec![
            Vector::from_u32s(pseudo_random(n, 25, 1 << 17)),
            Vector::from_u32s(payload.clone()),
        ])
        .unwrap();
        // All-NULL keys: every splitter is the same key.
        let mut all_null = DataChunk::new(&[LogicalType::Int32, LogicalType::UInt32]);
        for &p in &payload {
            all_null.push_row(&[Value::Null, Value::UInt32(p)]).unwrap();
        }
        // Truncated-VARCHAR ties: three 12-byte prefixes, each shared by
        // ~3000 rows whose tails differ, so splitters land on byte-equal
        // keys that only the full-tuple comparator can order.
        let tails = pseudo_random(n, 23, 1000);
        let strings: Vec<String> = tails
            .iter()
            .enumerate()
            .map(|(i, t)| format!("{}_shared_prefix_{t:04}", i % 3))
            .collect();
        let varchar_ties = DataChunk::from_columns(vec![
            Vector::from_strings(strings.iter().map(|s| s.as_str())),
            Vector::from_u32s(payload),
        ])
        .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        for (name, chunk) in [
            ("u32_ties", &u32_ties),
            ("near_keys", &near_keys),
            ("int_dups", &int_dups),
            ("all_null", &all_null),
            ("varchar_ties", &varchar_ties),
        ] {
            let sort = |threads: usize, ovc: bool| {
                let pipeline = SortPipeline::new(
                    chunk.types(),
                    order.clone(),
                    SortOptions {
                        threads,
                        run_rows: 512,
                        ovc,
                    },
                );
                let sorted = pipeline.sort_rows(chunk);
                let block = sorted.payload().unwrap();
                let bytes = (block.data().to_vec(), block.heap().to_vec());
                drop(sorted);
                (bytes, pipeline.last_profile().metrics)
            };
            let (reference, _) = sort(1, false);
            assert_sorted_equal(
                &RowBlock::from_raw_parts(
                    Arc::new(RowLayout::new(&chunk.types())),
                    reference.0.clone(),
                    reference.1.clone(),
                )
                .to_chunk(),
                chunk,
                &order,
            );
            for threads in 1..=4 {
                for ovc in [false, true] {
                    let (got, m) = sort(threads, ovc);
                    assert!(
                        got == reference,
                        "{name}: threads={threads} ovc={ovc} diverged from single-threaded output"
                    );
                    assert_eq!(
                        m.counter(Counter::MergeTasks),
                        threads as u64,
                        "{name}: one merge range per thread"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_sorts_hit_the_pool() {
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(30_000, 33, 1 << 30))])
                .unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                run_rows: 4_000,
                ..SortOptions::default()
            },
        );
        let first = pipeline.sort(&chunk);
        let (_, misses_after_warmup) = pipeline.pool_stats();
        let second = pipeline.sort(&chunk);
        let (hits, misses) = pipeline.pool_stats();
        assert_eq!(first.to_rows(), second.to_rows());
        assert_eq!(
            misses, misses_after_warmup,
            "steady-state sort allocated fresh buffers"
        );
        assert!(hits > 0, "steady-state sort never hit the pool");
        assert_sorted_equal(&second, &chunk, &order);
    }

    #[test]
    fn varchar_stat_change_invalidates_pooled_key_blocks() {
        let order = OrderBy::ascending(1);
        let short =
            DataChunk::from_columns(vec![Vector::from_strings(["b", "a", "c", "d"])]).unwrap();
        let long = DataChunk::from_columns(vec![Vector::from_strings([
            "prefix_very_long_AAAA",
            "prefix_very_long_AAAB",
            "prefix_very_long_AAAA",
            "zz",
        ])])
        .unwrap();
        let pipeline = SortPipeline::new(
            short.types(),
            order.clone(),
            SortOptions::single_with_run_rows(2),
        );
        let got_short = pipeline.sort(&short);
        assert_sorted_equal(&got_short, &short, &order);
        // Longer strings change the VARCHAR prefix stat: cached key blocks
        // must be rebuilt, not reused with the stale layout.
        let got_long = pipeline.sort(&long);
        assert_sorted_equal(&got_long, &long, &order);
        let got_short_again = pipeline.sort(&short);
        assert_sorted_equal(&got_short_again, &short, &order);
    }

    #[test]
    fn sorts_strings_with_prefix_ties() {
        let strings = vec![
            "prefix_very_long_AAAA",
            "prefix_very_long_AAAB",
            "prefix_very_long_AAAA",
            "zz",
            "",
            "prefix_very",
        ];
        let chunk = DataChunk::from_columns(vec![Vector::from_strings(strings.clone())]).unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(2),
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn sorts_mixed_schema_with_nulls() {
        let mut chunk = DataChunk::new(&[
            LogicalType::Varchar,
            LogicalType::Int32,
            LogicalType::Float64,
        ]);
        let mut state = 77u64;
        for i in 0..3_000i32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (state >> 33) as u32;
            let name = if r.is_multiple_of(11) {
                Value::Null
            } else {
                Value::from(format!("name{}", r % 37))
            };
            let year = if r.is_multiple_of(13) {
                Value::Null
            } else {
                Value::Int32(1924 + (r % 69) as i32)
            };
            chunk
                .push_row(&[name, year, Value::Float64(i as f64 * 0.5)])
                .unwrap();
        }
        let order = OrderBy::new(vec![
            OrderByColumn {
                column: 0,
                spec: SortSpec::DESC,
            },
            OrderByColumn {
                column: 1,
                spec: SortSpec::ASC,
            },
        ]);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 3,
                run_rows: 257,
                ..SortOptions::default()
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn empty_input() {
        let chunk = DataChunk::new(&[LogicalType::UInt32]);
        let got = sort_chunk(&chunk, &OrderBy::ascending(1));
        assert!(got.is_empty());
    }

    #[test]
    fn single_row() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(vec![42])]).unwrap();
        let got = sort_chunk(&chunk, &OrderBy::ascending(1));
        assert_eq!(got.row(0), vec![Value::UInt32(42)]);
    }

    #[test]
    fn odd_run_count_merge() {
        // 5 runs: a loser tree padded to 8 leaves.
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(501, 9, 50))]).unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(101),
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn payload_follows_keys() {
        // Non-key payload column must arrive reordered with its row.
        let keys = pseudo_random(2_000, 10, 100);
        let payload: Vec<u32> = keys.iter().map(|k| k * 7 + 1).collect();
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(payload)])
                .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions::single_with_run_rows(300),
        );
        let got = pipeline.sort(&chunk);
        for i in 0..got.len() {
            let row = got.row(i);
            let (k, p) = match (&row[0], &row[1]) {
                (Value::UInt32(k), Value::UInt32(p)) => (*k, *p),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(p, k * 7 + 1, "payload detached from its key at row {i}");
        }
    }

    #[test]
    fn zero_threads_and_zero_run_rows_clamp_to_one() {
        // Regression: `SortOptions { threads: 0, .. }` used to trip an
        // assert (and without it would divide by zero in morsel
        // splitting); both knobs now clamp to 1 and the sort completes.
        let chunk =
            DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(500, 41, 100))]).unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 0,
                run_rows: 0,
                ..SortOptions::default()
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
    }

    #[test]
    fn rowsort_threads_env_zero_clamps_to_one() {
        // Regression: `ROWSORT_THREADS=0` must mean "1 thread", not fall
        // through to hardware parallelism or panic downstream.
        std::env::set_var("ROWSORT_THREADS", "0");
        let got = default_threads();
        std::env::remove_var("ROWSORT_THREADS");
        assert_eq!(got, 1);
    }

    #[test]
    fn sort_populates_profile_and_metrics() {
        use crate::metrics::{Counter, Phase};
        let n = 5_000usize;
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(pseudo_random(n, 51, 1 << 20))])
            .unwrap();
        let order = OrderBy::ascending(1);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 1,
                run_rows: 700, // 8 runs, one k-way merge
                ovc: true,
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);

        let profile = pipeline.last_profile();
        assert_eq!(profile.operator, "pipeline");
        assert_eq!(profile.rows, n as u64);
        assert!(profile.total_ns > 0);
        let m = &profile.metrics;
        assert_eq!(m.counter(Counter::SortCalls), 1);
        assert_eq!(m.counter(Counter::RowsSorted), n as u64);
        assert_eq!(m.counter(Counter::RunsGenerated), 8);
        assert_eq!(m.counter(Counter::RadixSorts), 8, "u32 keys take radix");
        assert!(m.counter(Counter::RadixPasses) >= 8);
        // All 8 runs merge in one k-way pass over one range. The
        // comparator work is exactly that of the coded tree-of-losers pass
        // single-threaded sorts have always taken; with distinct-heavy u32
        // keys most comparisons resolve on the code alone.
        assert_eq!(m.counter(Counter::MergeRounds), 1);
        assert_eq!(m.counter(Counter::MergeTasks), 1);
        assert_eq!(m.counter(Counter::MergeCmps), 14_977);
        assert_eq!(m.counter(Counter::MergeCmpsOvcResolved), 13_239);
        assert_eq!(m.counter(Counter::MergeKeyBytesTouched), 13_888);
        assert!(m.counter(Counter::BytesMoved) > 0);
        assert!(m.counter(Counter::PoolMisses) > 0, "cold sort allocates");
        assert!(m.phase(Phase::RunGeneration) > 0);
        assert!(m.phase(Phase::Merge) > 0);
        // Coordinator-measured phases partition the sort: their sum can
        // never exceed the total wall time.
        let active =
            m.phase(Phase::Prepare) + m.phase(Phase::RunGeneration) + m.phase(Phase::Merge);
        assert!(active <= profile.total_ns);

        // The second sort's delta counts only itself; the pool is warm.
        let _again = pipeline.sort(&chunk);
        let second = pipeline.last_profile();
        assert_eq!(second.metrics.counter(Counter::SortCalls), 1);
        assert!(second.metrics.counter(Counter::PoolHits) > 0);
        // Cumulative registry saw both sorts.
        assert_eq!(pipeline.metrics().counter(Counter::SortCalls), 2);
        let text = pipeline.metrics().render();
        assert!(text.contains("counter.rows_sorted: 10000"), "{text}");
        assert!(text.contains("phase.run_generation_ns:"), "{text}");
    }

    #[test]
    fn ovc_output_bit_identical_to_plain_merge() {
        // OVC changes how merge comparisons are computed, never their
        // outcome: whole output (tie order included) must match with it
        // on and off, across thread counts and both key shapes.
        let n = 7_000;
        let keys = pseudo_random(n, 91, 300); // heavy ties
        let strings: Vec<String> = keys
            .iter()
            .map(|k| format!("shared_prefix_{:06}", k % 40))
            .collect();
        let payload: Vec<u32> = (0..n as u32).collect();
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(keys),
            Vector::from_strings(strings.iter().map(|s| s.as_str())),
            Vector::from_u32s(payload),
        ])
        .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(1), OrderByColumn::asc(0)]);
        for threads in [1, 3] {
            let base = SortOptions {
                threads,
                run_rows: 600, // 12 runs
                ovc: false,
            };
            let plain = SortPipeline::new(chunk.types(), order.clone(), base).sort(&chunk);
            let coded_pipeline = SortPipeline::new(
                chunk.types(),
                order.clone(),
                SortOptions { ovc: true, ..base },
            );
            let coded = coded_pipeline.sort(&chunk);
            assert_eq!(
                plain.to_rows(),
                coded.to_rows(),
                "threads={threads}: OVC merge diverged from plain merge"
            );
            if threads == 1 {
                // One range: the comparator work of the single coded
                // tree-of-losers pass, exactly.
                let m = coded_pipeline.last_profile().metrics;
                assert_eq!(m.counter(Counter::MergeCmps), 25_756);
                assert_eq!(m.counter(Counter::MergeCmpsOvcResolved), 25_745);
                assert_eq!(m.counter(Counter::MergeKeyBytesTouched), 264);
            }
        }
    }

    #[test]
    fn strings_survive_multi_range_merges() {
        // VARCHAR payload across several runs and merge ranges: the heap
        // concatenation and per-run offset shifts must keep every string
        // attached to its row.
        let n = 4_000;
        let keys = pseudo_random(n, 14, 500);
        let strings: Vec<String> = keys.iter().map(|k| format!("val_{k:05}")).collect();
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(keys.clone()),
            Vector::from_strings(strings.iter().map(|s| s.as_str())),
        ])
        .unwrap();
        let order = OrderBy::new(vec![OrderByColumn::asc(0)]);
        let pipeline = SortPipeline::new(
            chunk.types(),
            order.clone(),
            SortOptions {
                threads: 2,
                run_rows: 300, // 14 runs, 2 merge ranges
                ..SortOptions::default()
            },
        );
        let got = pipeline.sort(&chunk);
        assert_sorted_equal(&got, &chunk, &order);
        for i in 0..got.len() {
            let row = got.row(i);
            let (k, s) = match (&row[0], &row[1]) {
                (Value::UInt32(k), Value::Varchar(s)) => (*k, s.clone()),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(s, format!("val_{k:05}"), "string detached at row {i}");
        }
    }
}
