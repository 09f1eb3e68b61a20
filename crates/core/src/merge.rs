//! The one merge kernel behind both sorters (paper Figure 11's merge
//! stage; DESIGN.md §10.2, §11).
//!
//! Sorted runs — in memory after run generation, or spilled to run
//! files — are merged in a single k-way pass through a tree of losers:
//! [`OvcLoserTree`] when offset-value coding is on, [`LoserTree`] when it
//! is off. To keep every worker busy, the key space is first cut into
//! `parts` disjoint ranges at splitter keys chosen from evenly spaced
//! samples of the runs. Every run is cut at the lower bound of each
//! splitter, so byte-equal keys (truncated VARCHAR ties included) never
//! straddle a range, and each range is merged independently into its
//! own slice of one pre-sized output. Ties resolve by the full-tuple
//! comparator and then toward the lower run index, so the concatenated
//! ranges are bit-identical to a one-range merge at every thread count.
//!
//! The kernel reaches its inputs only through [`RunHeads`], which hides
//! where a run lives and how its records are laid out.

use crate::comparator::FusedRowComparator;
use crate::keys::word;
use crate::metrics::{Counter, CounterRegistry};
use crate::ovc;
use crate::workers::{SendPtr, WorkerPool};
use rowsort_algos::kway::{LoserTree, OvcLoserTree, OvcMatch};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

/// Splitter candidates sampled per run. 32 evenly spaced keys per run
/// give the partitioner `32 × runs` sorted candidates — plenty for a
/// near-even cut at any plausible thread count, for a few hundred bytes
/// per run.
pub(crate) const SAMPLES_PER_RUN: usize = 32;

/// Minimum rows per merge range. Below this the per-range overhead
/// (tree setup, and for run files a cursor with read-ahead buffers per
/// run) outweighs the parallelism.
pub(crate) const MIN_ROWS_PER_PARTITION: usize = 256;

/// The current heads of the `k` sorted inputs of one range merge.
pub(crate) trait RunHeads {
    /// A failure reading an input (`Infallible` for in-memory runs).
    type Error;
    /// Input `i` has no rows left in this range.
    fn exhausted(&self, i: usize) -> bool;
    /// The normalized key of input `i`'s head.
    fn key(&self, i: usize) -> &[u8];
    /// The offset-value code of input `i`'s head: relative to the row
    /// the input emitted before it, or to −∞ for the first head of a
    /// range. Only read when the merge carries codes.
    fn code(&self, i: usize) -> u64;
    /// Input `i`'s head payload row and the heap its string slots
    /// reference, for the full-tuple tie comparator.
    fn row(&self, i: usize) -> (&[u8], &[u8]);
    /// Write input `i`'s head into output row `slot`, its strings (if the
    /// input does not share the output heap) into `heap`.
    fn emit(&self, i: usize, slot: &mut [u8], heap: &mut HeapOut<'_>) -> Result<(), Self::Error>;
    /// Move input `i` to its next row.
    fn advance(&mut self, i: usize) -> Result<(), Self::Error>;
}

/// One range's slice of the output string heap.
pub(crate) struct HeapOut<'a> {
    pub buf: &'a mut [u8],
    /// Bytes written so far.
    pub pos: usize,
    /// Offset of `buf` within the whole output heap.
    pub base: usize,
}

/// How two heads compare: normalized keys first, the full-tuple
/// comparator on byte-equal keys when truncated VARCHAR prefixes can tie,
/// and the lower input index on a full tie.
#[derive(Clone, Copy)]
pub(crate) struct MergeOrder<'a> {
    /// Bytes per normalized key.
    pub kw: usize,
    /// The tie comparator, when byte-equal keys can still differ.
    pub tie: Option<&'a FusedRowComparator>,
    /// Merge through offset-value codes.
    pub ovc: bool,
}

impl MergeOrder<'_> {
    /// Refine the key order of heads `a` and `b` with the tie comparator.
    #[inline]
    fn resolve<H: RunHeads>(&self, heads: &H, a: usize, b: usize, key_ord: Ordering) -> Ordering {
        match (key_ord, self.tie) {
            (Ordering::Equal, Some(tie)) => {
                let (row_a, heap_a) = heads.row(a);
                let (row_b, heap_b) = heads.row(b);
                tie.compare(row_a, heap_a, row_b, heap_b)
            }
            (ord, _) => ord,
        }
    }
}

/// Loser trees kept across merges so a steady-state merge allocates
/// nothing.
pub(crate) struct Trees {
    ovc: OvcLoserTree,
    plain: LoserTree,
}

impl Default for Trees {
    fn default() -> Self {
        Trees {
            ovc: OvcLoserTree::empty(),
            plain: LoserTree::empty(),
        }
    }
}

/// Comparator work done by one range merge.
#[derive(Clone, Copy, Default)]
pub(crate) struct MergeStats {
    cmps: u64,
    ovc_resolved: u64,
    key_bytes: u64,
}

impl MergeStats {
    /// Add these counts to the sort's registry (once per range, not per
    /// row: a relaxed atomic add per comparison would put contended cache
    /// lines in the hottest loop).
    pub(crate) fn record(&self, metrics: &CounterRegistry) {
        metrics.add(Counter::MergeCmps, self.cmps);
        metrics.add(Counter::MergeCmpsOvcResolved, self.ovc_resolved);
        metrics.add(Counter::MergeKeyBytesTouched, self.key_bytes);
    }
}

/// Merge every row of the `k` inputs behind `heads` into `out` (rows of
/// `width` bytes, exactly as many as the inputs hold), in one pass.
pub(crate) fn merge_range<H: RunHeads>(
    heads: &mut H,
    k: usize,
    order: MergeOrder<'_>,
    trees: &mut Trees,
    out: &mut [u8],
    width: usize,
    heap: &mut HeapOut<'_>,
) -> Result<MergeStats, H::Error> {
    if k == 0 || out.is_empty() {
        return Ok(MergeStats::default());
    }
    if order.ovc {
        merge_ovc(heads, k, order, &mut trees.ovc, out, width, heap)
    } else {
        merge_plain(heads, k, order, &mut trees.plain, out, width, heap)
    }
}

/// The coded drive loop (DESIGN.md §10.2). A match resolves on the codes
/// alone when they differ; key bytes past the shared prefix are read
/// only on a code tie, and the row tiebreak runs only on full key
/// equality. A one-input tree plays no matches.
fn merge_ovc<H: RunHeads>(
    heads: &mut H,
    k: usize,
    order: MergeOrder<'_>,
    tree: &mut OvcLoserTree,
    out: &mut [u8],
    width: usize,
    heap: &mut HeapOut<'_>,
) -> Result<MergeStats, H::Error> {
    let arity = ovc::word_count(order.kw);
    // `Cell`s because the tree's closures borrow them shared.
    let cmps = Cell::new(0u64);
    let resolved = Cell::new(0u64);
    let key_bytes = Cell::new(0u64);
    let play = |h: &H, a: usize, b: usize, ca: u64, cb: u64| -> OvcMatch {
        cmps.set(cmps.get() + 1);
        if ca != cb {
            // `compare_update`'s first case, taken before either key is
            // looked up: most matches end here, and the two bounds-checked
            // key slices were a measurable share of the merge.
            resolved.set(resolved.get() + 1);
            return OvcMatch {
                a_beats_b: ca < cb,
                loser_code: ca.max(cb),
            };
        }
        let r = ovc::compare_update(h.key(a), ca, h.key(b), cb, arity);
        resolved.set(resolved.get() + u64::from(r.resolved));
        key_bytes.set(key_bytes.get() + r.key_bytes);
        let a_beats_b = match order.resolve(h, a, b, r.ord) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        };
        OvcMatch {
            a_beats_b,
            loser_code: r.loser_code,
        }
    };
    {
        // Every range head is coded against −∞ — the common base the
        // tournament needs.
        let h = &*heads;
        tree.rebuild(
            k,
            |i| h.code(i),
            |i| h.exhausted(i),
            |a, b, ca, cb| play(h, a, b, ca, cb),
        );
    }
    for slot in out.chunks_exact_mut(width) {
        let w = tree.winner();
        heads.emit(w, slot, heap)?;
        heads.advance(w)?;
        let h = &*heads;
        // The new head's run-stored code is relative to the row just
        // emitted — the same base every resident loser on this leaf's
        // root path was re-coded against.
        let code = if h.exhausted(w) { u64::MAX } else { h.code(w) };
        tree.replay(w, code, &mut |i| h.exhausted(i), &mut |a, b, ca, cb| {
            play(h, a, b, ca, cb)
        });
    }
    Ok(MergeStats {
        cmps: cmps.get(),
        ovc_resolved: resolved.get(),
        key_bytes: key_bytes.get(),
    })
}

/// The plain drive loop: every match is a whole-key compare.
fn merge_plain<H: RunHeads>(
    heads: &mut H,
    k: usize,
    order: MergeOrder<'_>,
    tree: &mut LoserTree,
    out: &mut [u8],
    width: usize,
    heap: &mut HeapOut<'_>,
) -> Result<MergeStats, H::Error> {
    let cmps = Cell::new(0u64);
    let less = |h: &H, a: usize, b: usize| -> bool {
        cmps.set(cmps.get() + 1);
        order.resolve(h, a, b, cmp_keys(h.key(a), h.key(b))) == Ordering::Less
    };
    {
        let h = &*heads;
        tree.rebuild(k, |i| h.exhausted(i), |a, b| less(h, a, b));
    }
    for slot in out.chunks_exact_mut(width) {
        let w = tree.winner();
        heads.emit(w, slot, heap)?;
        heads.advance(w)?;
        let h = &*heads;
        tree.replay(w, &mut |i| h.exhausted(i), &mut |a, b| less(h, a, b));
    }
    Ok(MergeStats {
        cmps: cmps.get(),
        ovc_resolved: 0,
        key_bytes: cmps.get() * 2 * order.kw as u64,
    })
}

/// Lexicographically compare two equal-length byte-comparable keys with
/// big-endian word loads instead of a `memcmp` call. Overlapping windows
/// are sound here: when the leading window ties, the overlapped bytes are
/// known equal, so comparing the trailing window compares the remainder.
#[inline]
fn cmp_keys(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n >= 4 && n <= 8 {
        let a0 = u32::from_be_bytes(word::<4>(a, 0));
        let b0 = u32::from_be_bytes(word::<4>(b, 0));
        if a0 != b0 {
            return a0.cmp(&b0);
        }
        let a1 = u32::from_be_bytes(word::<4>(a, n - 4));
        let b1 = u32::from_be_bytes(word::<4>(b, n - 4));
        a1.cmp(&b1)
    } else if n > 8 && n <= 16 {
        let a0 = u64::from_be_bytes(word::<8>(a, 0));
        let b0 = u64::from_be_bytes(word::<8>(b, 0));
        if a0 != b0 {
            return a0.cmp(&b0);
        }
        let a1 = u64::from_be_bytes(word::<8>(a, n - 8));
        let b1 = u64::from_be_bytes(word::<8>(b, n - 8));
        a1.cmp(&b1)
    } else {
        a.cmp(b)
    }
}

/// How many key ranges to cut a merge into: one per thread, capped so
/// every range covers at least [`MIN_ROWS_PER_PARTITION`] rows on
/// average. A single run or a zero-width key (nothing to split on) is
/// one range.
pub(crate) fn plan_parts(threads: usize, kw: usize, runs: usize, total: usize) -> usize {
    if kw == 0 || runs < 2 {
        return 1;
    }
    threads.min(total / MIN_ROWS_PER_PARTITION).max(1)
}

/// Append up to [`SAMPLES_PER_RUN`] evenly spaced keys (indices `j·n/s`)
/// of a sorted run of `n` keys to `out`.
pub(crate) fn sample_keys<'a>(n: usize, key: impl Fn(usize) -> &'a [u8], out: &mut Vec<u8>) {
    let s = n.min(SAMPLES_PER_RUN);
    for j in 0..s {
        out.extend_from_slice(key(j * n / s));
    }
}

/// Choose `parts - 1` splitter keys into `out`: sort the sample keys
/// (`kw` bytes each, at least one) and take evenly spaced picks. Range
/// `p` covers keys in `[splitter[p-1], splitter[p])`, so byte-equal keys
/// always land in the same range. `order` is sort scratch.
pub(crate) fn choose_splitters(
    samples: &[u8],
    kw: usize,
    parts: usize,
    order: &mut Vec<u32>,
    out: &mut Vec<u8>,
) {
    let n = samples.len() / kw;
    let key = |i: u32| &samples[i as usize * kw..(i as usize + 1) * kw];
    order.clear();
    order.extend(0..n as u32);
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
    out.clear();
    for j in 1..parts {
        out.extend_from_slice(key(order[j * n / parts]));
    }
}

/// The index of the first of `n` sorted keys that is `>= splitter`.
pub(crate) fn lower_bound<'a>(n: usize, key: impl Fn(usize) -> &'a [u8], splitter: &[u8]) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key(mid) < splitter {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One output area the ranges split: range `p` owns
/// `buf[base[p] * unit..base[p + 1] * unit]`.
pub(crate) struct Area<'a> {
    pub buf: &'a mut [u8],
    /// `parts + 1` non-decreasing range starts, in `unit`s.
    pub base: &'a [usize],
    pub unit: usize,
}

/// Run `merge(p, spans)` for every range `p < parts`, where `spans[a]`
/// is range `p`'s slice of `areas[a]`: on the calling thread when
/// `workers` is `None`, else across the worker pool. Every range runs;
/// the error of the lowest failing range is returned, independent of
/// scheduling.
pub(crate) fn for_each_range<const N: usize, E, F>(
    workers: Option<&WorkerPool>,
    parts: usize,
    areas: [Area<'_>; N],
    merge: &F,
) -> Result<(), E>
where
    E: Send,
    F: Fn(usize, [&mut [u8]; N]) -> Result<(), E> + Sync,
{
    for area in &areas {
        assert!(
            area.base.len() == parts + 1
                && area.base.is_sorted()
                && area
                    .base
                    .last()
                    .is_some_and(|&end| end * area.unit <= area.buf.len()),
            "range bases must partition the output area"
        );
    }
    let areas = areas.map(|a| {
        (
            SendPtr::new(a.buf.as_mut_ptr()),
            a.buf.len(),
            a.base,
            a.unit,
        )
    });
    let spans = |p: usize| -> [&mut [u8]; N] {
        areas.map(|(ptr, len, base, unit)| {
            let (start, end) = (base[p] * unit, base[p + 1] * unit);
            debug_assert!(start <= end && end <= len);
            // SAFETY: `ptr` is the start of an area buffer of `len` bytes
            // that the assert above showed `base` partitions in bounds:
            // range `p` owns `[start, end)`, disjoint from every other
            // range's span because `base` is non-decreasing. Each range
            // takes its spans exactly once, and the buffers stay mutably
            // borrowed by this call until every range is done.
            unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) }
        })
    };
    let Some(workers) = workers else {
        return (0..parts).try_for_each(|p| merge(p, spans(p)));
    };
    let next = AtomicUsize::new(0);
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    workers.broadcast(&|_worker| loop {
        let p = next.fetch_add(1, AtomicOrdering::Relaxed);
        if p >= parts {
            break;
        }
        if let Err(err) = merge(p, spans(p)) {
            let mut slot = first_err.lock().unwrap_or_else(|e| e.into_inner());
            if slot.as_ref().is_none_or(|&(q, _)| p < q) {
                *slot = Some((p, err));
            }
        }
    });
    match first_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some((_, err)) => Err(err),
        None => Ok(()),
    }
}
