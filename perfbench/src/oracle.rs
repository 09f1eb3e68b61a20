//! Correctness checks: every timed query's count, the spill directory
//! after every query, and — once per run, outside the timed window — the
//! full sorted output against the input.

use crate::workload::Input;
use rowsort_engine::{plan, sql, Catalog, Engine, LogicalPlan};
use rowsort_testkit::hash::XxHash64;
use rowsort_vector::{DataChunk, OrderBy, Value};
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::path::Path;

/// Whether a count query returned exactly one row holding `expected`.
pub fn count_is(result: &DataChunk, expected: i64) -> bool {
    result.len() == 1 && result.row(0) == [Value::Int64(expected)]
}

/// Files left in the benchmark-owned spill directory (a missing directory
/// holds none).
pub fn spill_leftovers(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| entries.count())
}

/// The ORDER BY of the first Sort node in `sql_text`'s optimized plan:
/// the exact order the engine sorts by, column indices included.
pub fn sort_order(catalog: &Catalog, sql_text: &str) -> OrderBy {
    let (_, ast) = sql::parse_statement(sql_text).expect("benchmark SQL parses");
    let plan = plan::optimize(plan::build(&ast, catalog).expect("benchmark SQL plans"));
    find_sort(&plan).expect("the benchmark query sorts").clone()
}

fn find_sort(plan: &LogicalPlan) -> Option<&OrderBy> {
    match plan {
        LogicalPlan::Sort { order, .. } => Some(order),
        LogicalPlan::Scan { .. } => None,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::CountStar { input } => find_sort(input),
        _ => None,
    }
}

/// An order-independent fingerprint of a relation's row multiset: the
/// row count and two wrapping sums of per-row hashes under different
/// seeds. Equal multisets give equal fingerprints whatever the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    rows: usize,
    sums: [u64; 2],
}

/// The [`Fingerprint`] of `chunk`.
pub fn fingerprint(chunk: &DataChunk) -> Fingerprint {
    let mut sums = [0u64; 2];
    let mut text = String::new();
    for i in 0..chunk.len() {
        text.clear();
        for col in chunk.columns() {
            // `Debug` names the variant, so NULL, 0 and "" all differ.
            let _ = write!(text, "{:?}\u{1f}", col.get(i));
        }
        for (sum, seed) in sums.iter_mut().zip([0x5eed_0001, 0x5eed_0002]) {
            *sum = sum.wrapping_add(XxHash64::hash(text.as_bytes(), seed));
        }
    }
    Fingerprint {
        rows: chunk.len(),
        sums,
    }
}

/// Run `input`'s oracle and inner queries once and check that:
///
/// * the oracle output (every column, same ORDER BY, no offset) is sorted
///   under the ORDER BY's directions and NULL orders,
/// * its row multiset equals the input's (`input_print`),
/// * the inner query's projected, offset output equals the oracle output's
///   payload columns from row 1 on — the sort is deterministic, so the
///   same rows come out in the same order.
pub fn check_sorted_output(
    engine: &Engine,
    input: &Input,
    input_print: Fingerprint,
) -> Result<(), String> {
    let order = sort_order(engine.catalog(), &input.oracle_sql);
    let out = engine
        .query(&input.oracle_sql)
        .map_err(|e| format!("oracle query failed: {e}"))?;
    if out.len() != input.rows {
        return Err(format!(
            "oracle returned {} of {} rows",
            out.len(),
            input.rows
        ));
    }
    let key_row = |i: usize| -> Vec<Value> {
        // Full-width rows with only the key columns filled, so the
        // ORDER BY's column indices address them directly.
        let mut row = vec![Value::Null; out.column_count()];
        for k in &order.keys {
            row[k.column] = out.column(k.column).get(i);
        }
        row
    };
    let mut prev = key_row(0);
    for i in 1..out.len() {
        let cur = key_row(i);
        if order.compare_rows(&prev, &cur) == Ordering::Greater {
            return Err(format!("rows {} and {i} are out of order", i - 1));
        }
        prev = cur;
    }
    if fingerprint(&out) != input_print {
        return Err("sorted output is not a permutation of the input rows".into());
    }
    let inner = engine
        .query(&input.inner_sql)
        .map_err(|e| format!("inner query failed: {e}"))?;
    if inner.len() + 1 != out.len() {
        return Err(format!("inner query returned {} rows", inner.len()));
    }
    for (j, &c) in input.payload.iter().enumerate() {
        let (got, want) = (inner.column(j), out.column(c));
        if let Some(i) = (0..inner.len()).find(|&i| got.get(i) != want.get(i + 1)) {
            return Err(format!(
                "inner query row {i} column {j} differs from the oracle"
            ));
        }
    }
    Ok(())
}
