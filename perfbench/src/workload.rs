//! The three workloads: inputs generated from the seed, the SQL each
//! runs, and the engine options it runs under.
//!
//! Input sizes are fixed; only their contents depend on the seed. The
//! rationale for each workload is in `perfbench/README.md`.

use rowsort_datagen::tpcds;
use rowsort_engine::{ExecOptions, SpillExecOptions, Table};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, LogicalType, Value, Vector};
use std::path::{Path, PathBuf};

/// Worker threads the engine runs with: the host's two cores, set
/// explicitly rather than read from `ROWSORT_THREADS`.
pub const THREADS: usize = 2;

/// Rows of `catalog_sales` (Fig. 13 at scale factor 100's key domains).
const SALES_ROWS: usize = 1_000_000;
/// Scale factor that sets the foreign-key domains of `catalog_sales`.
const SALES_SF: f64 = 100.0;
/// Rows of `customer` (Fig. 14).
const CUSTOMER_ROWS: usize = 500_000;
/// Run files `sales_spill` cuts its input into.
const SPILL_RUNS: usize = 16;

const SALES_KEYS: &str = "cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity";
const CUSTOMER_KEYS: &str = "c_last_name, c_first_name, c_email_address";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 13: four nullable INTEGER keys, in memory (radix path).
    SalesInts,
    /// Fig. 14: three VARCHAR keys, one longer than the key prefix
    /// (pdqsort + tie resolution path).
    CustomerStrings,
    /// `SalesInts` through the external sorter with 16 spilled runs.
    SalesSpill,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SalesInts,
        Workload::CustomerStrings,
        Workload::SalesSpill,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SalesInts => "sales_ints",
            Workload::CustomerStrings => "customer_strings",
            Workload::SalesSpill => "sales_spill",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The queries run over one generated table, and what they must return.
pub struct Input {
    /// The table's name in the catalog.
    pub table_name: String,
    /// Input rows.
    pub rows: usize,
    /// The timed query: the paper's §VII count over an `OFFSET 1`
    /// subquery, so the sort cannot be optimized away and the result is
    /// one row.
    pub count_sql: String,
    /// The count every timed query must return.
    pub expected_count: i64,
    /// The subquery of `count_sql` on its own: projected, sorted, offset.
    pub inner_sql: String,
    /// Table columns `inner_sql` projects, in select-list order.
    pub payload: Vec<usize>,
    /// The same ORDER BY over every column and without the offset, so the
    /// output's order and row multiset can both be checked.
    pub oracle_sql: String,
}

/// Generate `workload`'s table from `seed`, with the queries over it.
///
/// The plan sorts the scanned table and projects above the sort, so the
/// table's data is also the Sort node's input.
pub fn generate(workload: Workload, seed: u64) -> (Table, Input) {
    let (table, payload, keys) = match workload {
        Workload::SalesInts | Workload::SalesSpill => {
            let t = tpcds::catalog_sales(SALES_ROWS, SALES_SF, seed);
            (
                named_to_table(t.name, &t.columns, t.data),
                "cs_item_sk",
                SALES_KEYS,
            )
        }
        Workload::CustomerStrings => (
            customer_with_email(seed),
            "c_customer_sk, c_email_address",
            CUSTOMER_KEYS,
        ),
    };
    let name = &table.name;
    let payload_cols = payload
        .split(", ")
        .map(|c| table.column_index(c).expect("payload column exists"))
        .collect();
    let input = Input {
        table_name: name.clone(),
        rows: table.data.len(),
        count_sql: format!(
            "SELECT count(*) FROM (SELECT {payload} FROM {name} ORDER BY {keys} OFFSET 1) t"
        ),
        expected_count: table.data.len() as i64 - 1,
        inner_sql: format!("SELECT {payload} FROM {name} ORDER BY {keys} OFFSET 1"),
        payload: payload_cols,
        oracle_sql: format!("SELECT * FROM {name} ORDER BY {keys}"),
    };
    (table, input)
}

/// The engine options `workload` runs under. `spill_dir` is the
/// benchmark-owned directory spill files go to (only `SalesSpill` uses it).
pub fn exec_options(workload: Workload, rows: usize, spill_dir: &Path) -> ExecOptions {
    ExecOptions {
        threads: THREADS,
        spill: (workload == Workload::SalesSpill).then(|| SpillExecOptions {
            memory_limit_rows: spill_budget(rows),
            spill_dir: Some(spill_dir.to_path_buf()),
        }),
        ..ExecOptions::default()
    }
}

/// The external sorter's row budget: `rows / 16`, rounded up so the input
/// splits into exactly [`SPILL_RUNS`] runs.
pub fn spill_budget(rows: usize) -> usize {
    rows.div_ceil(SPILL_RUNS)
}

/// The spill directory of this process, under the checkout's `.bench_out`.
pub fn spill_dir(workload: Workload) -> PathBuf {
    out_dir().join(format!("spill-{}-{}", workload.name(), std::process::id()))
}

/// Where the benchmark writes what it leaves behind (spans, spill files),
/// relative to the directory it runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn named_to_table(name: String, columns: &[(String, LogicalType)], data: DataChunk) -> Table {
    Table::new(name, columns.iter().map(|(n, _)| n.clone()).collect(), data)
}

/// `customer` plus a derived `c_email_address` of the form
/// `first.last@domainNN.example.org`: longer than the 12-byte VARCHAR key
/// prefix, so prefixes truncate and the sort must resolve ties on full
/// tuples. NULL when either name is NULL.
fn customer_with_email(seed: u64) -> Table {
    let t = tpcds::customer(CUSTOMER_ROWS, seed);
    let first = t
        .column_index("c_first_name")
        .expect("customer has c_first_name");
    let last = t
        .column_index("c_last_name")
        .expect("customer has c_last_name");
    let mut rng = Rng::seed_from_u64(seed ^ 0xe3a1_1add_0e55_0000);
    let emails: Vec<Value> = (0..t.data.len())
        .map(
            |i| match (t.data.column(first).get(i), t.data.column(last).get(i)) {
                (Value::Varchar(f), Value::Varchar(l)) => Value::Varchar(format!(
                    "{}.{}@domain{:02}.example.org",
                    f.to_lowercase(),
                    l.to_lowercase(),
                    rng.below(100)
                )),
                _ => Value::Null,
            },
        )
        .collect();
    let mut columns = t.data.columns().to_vec();
    columns.push(Vector::from_values(LogicalType::Varchar, &emails).expect("VARCHAR values"));
    let data = DataChunk::from_columns(columns).expect("equal-length columns");
    let mut names: Vec<(String, LogicalType)> = t.columns.clone();
    names.push(("c_email_address".to_owned(), LogicalType::Varchar));
    named_to_table(t.name, &names, data)
}
