//! Property tests: the word-at-a-time validity kernels and the bulk
//! vector/chunk operations built on them agree with bit-by-bit and
//! boxed-[`Value`] references, over unaligned ranges (empty, straddling
//! 64-bit words, whole) and NULL densities from none to all.

use rowsort_testkit::prop::select;
use rowsort_testkit::{prop, prop_assert, prop_assert_eq, Rng};
use rowsort_vector::{DataChunk, LogicalType, Validity, Value, Vector, VECTOR_SIZE};

/// NULL densities: none, sparse (1 in 16), half, all.
const DENSITIES: [f64; 4] = [0.0, 1.0 / 16.0, 0.5, 1.0];

/// `n` validity flags (`true` = valid) at one of [`DENSITIES`].
fn flags(n: usize, density: usize, rng: &mut Rng) -> Vec<bool> {
    (0..n).map(|_| !rng.chance(DENSITIES[density])).collect()
}

/// A mask built through the per-row setters, the reference path. With
/// `materialized`, valid rows are cleared and set again first, so an
/// all-valid mask still carries words.
fn mask_of(bits: &[bool], materialized: bool) -> Validity {
    let mut v = Validity::new_valid(bits.len());
    for (i, &valid) in bits.iter().enumerate() {
        if materialized || !valid {
            v.set_invalid(i);
        }
        if valid {
            v.set_valid(i);
        }
    }
    v
}

/// A row range of `0..n`: random (mode 0), empty at a random row (1), or
/// whole (2).
fn range(n: usize, mode: usize, rng: &mut Rng) -> (usize, usize) {
    let a = rng.range_inclusive(0, n);
    let b = rng.range_inclusive(0, n);
    match mode {
        0 => (a.min(b), a.max(b)),
        1 => (a, a),
        _ => (0, n),
    }
}

fn bits_of(v: &Validity) -> Vec<bool> {
    (0..v.len()).map(|i| v.is_valid(i)).collect()
}

/// Column types covering every storage shape: 1-, 4- and 8-byte fixed
/// width, floats, and strings.
const TYPES: [LogicalType; 5] = [
    LogicalType::Boolean,
    LogicalType::Int32,
    LogicalType::Int64,
    LogicalType::Float64,
    LogicalType::Varchar,
];

/// `n` boxed cells of `ty` at one NULL density. Strings include the empty
/// string; floats stay finite so `==` is a sound comparison.
fn values(ty: LogicalType, n: usize, density: usize, rng: &mut Rng) -> Vec<Value> {
    flags(n, density, rng)
        .into_iter()
        .map(|valid| {
            if !valid {
                return Value::Null;
            }
            match ty {
                LogicalType::Boolean => Value::Boolean(rng.chance(0.5)),
                LogicalType::Int32 => Value::Int32(rng.next_u32() as i32),
                LogicalType::Int64 => Value::Int64(rng.next_u64() as i64),
                LogicalType::Float64 => Value::Float64(rng.f64_range(-1e6, 1e6)),
                _ => {
                    let len = rng.range_inclusive(0usize, 12);
                    Value::Varchar(rng.string_from(&['a', 'b', 'é', '0'], len))
                }
            }
        })
        .collect()
}

fn vector_of(ty: LogicalType, vals: &[Value]) -> Vector {
    Vector::from_values(ty, vals).expect("values match the type")
}

prop! {
    #![cases(256)]

    fn validity_slice_and_extend_match_bits(
        n in 0usize..300,
        prefix in 0usize..140,
        density in 0usize..4,
        mode in select(vec![0usize, 0, 1, 2]),
        materialized in select(vec![false, true]),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let src_bits = flags(n, density, &mut rng);
        let dst_bits = flags(prefix, rng.range_inclusive(0, 3), &mut rng);
        let (start, end) = range(n, mode, &mut rng);
        let src = mask_of(&src_bits, materialized);

        let slice = src.slice(start, end);
        prop_assert_eq!(bits_of(&slice), src_bits[start..end].to_vec());
        prop_assert_eq!(slice.count_invalid(), src_bits[start..end].iter().filter(|&&b| !b).count());
        prop_assert_eq!(slice.clone(), mask_of(&src_bits[start..end], false));

        let mut dst = mask_of(&dst_bits, materialized);
        dst.extend_range(&src, start, end);
        let mut want = dst_bits.clone();
        want.extend_from_slice(&src_bits[start..end]);
        prop_assert_eq!(bits_of(&dst), want.clone());
        prop_assert_eq!(dst.count_invalid(), want.iter().filter(|&&b| !b).count());
        prop_assert_eq!(dst.all_valid(), want.iter().all(|&b| b));
        prop_assert_eq!(dst.clone(), mask_of(&want, !materialized));

        // Single-row pushes continue the mask where the range copy ended.
        dst.push(false);
        dst.push(true);
        want.extend([false, true]);
        prop_assert_eq!(bits_of(&dst), want);
    }

    fn vector_slice_append_take_match_boxed_values(
        ty in select(TYPES.to_vec()),
        n in 0usize..300,
        m in 0usize..140,
        density in 0usize..4,
        mode in select(vec![0usize, 0, 1, 2]),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let vals = values(ty, n, density, &mut rng);
        let more = values(ty, m, rng.range_inclusive(0, 3), &mut rng);
        let (start, end) = range(n, mode, &mut rng);
        let v = vector_of(ty, &vals);

        let s = v.slice(start, end);
        prop_assert_eq!(s.iter_values().collect::<Vec<_>>(), vals[start..end].to_vec());
        prop_assert!(s == vector_of(ty, &vals[start..end]), "slice {start}..{end}");

        let mut a = vector_of(ty, &more);
        a.append(&s).expect("same type");
        let mut joined = more.clone();
        joined.extend_from_slice(&vals[start..end]);
        prop_assert!(a == vector_of(ty, &joined), "append after {m} rows");

        let indices: Vec<usize> = (0..rng.range_inclusive(0, 2 * n))
            .filter_map(|_| (n > 0).then(|| rng.range(0, n)))
            .collect();
        let picked: Vec<Value> = indices.iter().map(|&i| vals[i].clone()).collect();
        prop_assert!(v.take(&indices) == vector_of(ty, &picked), "take {indices:?}");
    }
}

prop! {
    #![cases(24)]

    fn split_into_vectors_then_append_round_trips(
        n in 0usize..(3 * VECTOR_SIZE + 100),
        density in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let columns: Vec<Vector> = TYPES
            .iter()
            .map(|&ty| vector_of(ty, &values(ty, n, density, &mut rng)))
            .collect();
        let chunk = DataChunk::from_columns(columns).expect("equal lengths");
        let parts = chunk.split_into_vectors();
        prop_assert_eq!(parts.len(), n.div_ceil(VECTOR_SIZE).max(1));
        prop_assert!(parts.iter().all(|p| p.len() <= VECTOR_SIZE));
        let mut back = DataChunk::new(&chunk.types());
        for p in &parts {
            back.append(p).expect("same schema");
        }
        prop_assert!(back == chunk, "round trip of {n} rows");
    }
}
