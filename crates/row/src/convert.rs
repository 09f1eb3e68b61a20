//! DSM ↔ NSM conversion entry points.

use crate::block::RowBlock;
use crate::layout::RowLayout;
use rowsort_vector::{DataChunk, VECTOR_SIZE};
use std::sync::Arc;

/// Convert a (possibly large) chunk to NSM rows, one [`VECTOR_SIZE`]-row
/// vector at a time.
///
/// Working a vector at a time keeps the working set of each conversion pass
/// cache-resident and amortizes per-column type dispatch — the paper's
/// recipe for making the DSM→NSM conversion cheap enough that row-format
/// sorting wins end to end.
pub fn scatter(chunk: &DataChunk, layout: Arc<RowLayout>) -> RowBlock {
    let mut block = RowBlock::with_capacity(layout, chunk.len());
    for lo in (0..chunk.len()).step_by(VECTOR_SIZE) {
        block.append_chunk_range(chunk, lo, (lo + VECTOR_SIZE).min(chunk.len()));
    }
    block
}

/// Convert NSM rows back to a chunk in the given order (NSM → DSM).
pub fn gather(block: &RowBlock, order: &[u32]) -> DataChunk {
    block.gather(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_vector::{LogicalType as T, Value, Vector};

    #[test]
    fn scatter_large_chunk_splits_into_vectors() {
        let n = VECTOR_SIZE * 2 + 17;
        let vals: Vec<u32> = (0..n as u32).rev().collect();
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(vals)]).unwrap();
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let block = scatter(&chunk, layout);
        assert_eq!(block.len(), n);
        assert_eq!(block.value(0, 0), Value::UInt32(n as u32 - 1));
        assert_eq!(block.value(n - 1, 0), Value::UInt32(0));
    }

    #[test]
    fn scatter_then_gather_identity() {
        let mut chunk = DataChunk::new(&[T::Varchar, T::Int64]);
        for i in 0..100i64 {
            let v = if i % 7 == 0 {
                Value::Null
            } else {
                Value::from(format!("s{i}"))
            };
            chunk.push_row(&[v, Value::Int64(i)]).unwrap();
        }
        let layout = Arc::new(RowLayout::new(&chunk.types()));
        let block = scatter(&chunk, layout);
        let order: Vec<u32> = (0..100).collect();
        assert_eq!(gather(&block, &order), chunk);
    }

    #[test]
    fn gather_in_custom_order() {
        let chunk = DataChunk::from_columns(vec![Vector::from_u32s(vec![10, 20, 30])]).unwrap();
        let block = scatter(&chunk, Arc::new(RowLayout::new(&chunk.types())));
        let got = gather(&block, &[2, 1, 0]);
        assert_eq!(got.row(0), vec![Value::UInt32(30)]);
        assert_eq!(got.row(2), vec![Value::UInt32(10)]);
    }
}
