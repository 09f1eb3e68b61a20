//! NULL tracking via bit masks.

/// A validity mask: one bit per row, set ⇔ the row's value is valid (not NULL).
///
/// The common all-valid case stores no bits at all, so scanning a column with
/// no NULLs costs nothing. The mask lazily materializes 64-bit words on the
/// first `set_invalid` call, mirroring how vectorized engines keep validity
/// out of the hot path until NULLs actually appear.
///
/// Bits past `len` in the last word are always set, so appends only ever
/// clear bits and whole words compare and count without masking. Range
/// copies ([`Validity::extend_range`]) move 64 bits per step.
///
/// Equality is semantic: two masks are equal iff they cover the same number
/// of rows and mark the same rows NULL, whether or not either materialized
/// its words.
#[derive(Debug, Clone, Default)]
pub struct Validity {
    /// `None` ⇒ every row valid. `Some(words)` ⇒ bit i of word i/64 is row i.
    words: Option<Vec<u64>>,
    len: usize,
}

/// The low `n` bits set (`n ≤ 64`).
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The 64 bits of `words` starting at bit `bit`; bits past the end read as
/// set.
fn load_bits(words: &[u64], bit: usize) -> u64 {
    let (w, k) = (bit / 64, bit % 64);
    let lo = words.get(w).copied().unwrap_or(u64::MAX);
    if k == 0 {
        return lo;
    }
    let hi = words.get(w + 1).copied().unwrap_or(u64::MAX);
    (lo >> k) | (hi << (64 - k))
}

impl Validity {
    /// An all-valid mask covering `len` rows.
    pub fn new_valid(len: usize) -> Validity {
        Validity { words: None, len }
    }

    /// An all-NULL mask covering `len` rows.
    pub fn new_invalid(len: usize) -> Validity {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        let mut at = 0;
        while at < len {
            let m = (len - at).min(64);
            append_bits(&mut words, at, 0, m);
            at += m;
        }
        Validity {
            words: Some(words),
            len,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff no row is NULL. Free when no mask is materialized;
    /// otherwise a scan of every word, so keep it out of per-chunk paths.
    pub fn all_valid(&self) -> bool {
        match &self.words {
            None => true,
            Some(words) => words.iter().all(|&w| w == u64::MAX),
        }
    }

    /// Whether row `idx` is valid.
    ///
    /// # Panics
    /// If `idx >= len`.
    pub fn is_valid(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "validity index {idx} out of range {}",
            self.len
        );
        match &self.words {
            None => true,
            Some(words) => words[idx / 64] & (1u64 << (idx % 64)) != 0,
        }
    }

    /// Mark row `idx` NULL.
    pub fn set_invalid(&mut self, idx: usize) {
        assert!(
            idx < self.len,
            "validity index {idx} out of range {}",
            self.len
        );
        let words = self.materialize();
        words[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Mark row `idx` valid.
    pub fn set_valid(&mut self, idx: usize) {
        assert!(
            idx < self.len,
            "validity index {idx} out of range {}",
            self.len
        );
        if let Some(words) = &mut self.words {
            words[idx / 64] |= 1u64 << (idx % 64);
        }
        // all-valid representation: nothing to do
    }

    /// Set row `idx` to `valid`.
    pub fn set(&mut self, idx: usize, valid: bool) {
        if valid {
            self.set_valid(idx);
        } else {
            self.set_invalid(idx);
        }
    }

    /// Append one row with the given validity.
    pub fn push(&mut self, valid: bool) {
        if self.words.is_none() && valid {
            self.len += 1;
        } else {
            let len = self.len;
            append_bits(self.materialize(), len, valid as u64, 1);
            self.len += 1;
        }
    }

    /// Number of NULL rows.
    pub fn count_invalid(&self) -> usize {
        match &self.words {
            None => 0,
            Some(words) => words.iter().map(|w| w.count_zeros() as usize).sum(),
        }
    }

    /// Number of valid (non-NULL) rows.
    pub fn count_valid(&self) -> usize {
        self.len - self.count_invalid()
    }

    /// Copy out the sub-mask covering rows `start..end`. A range without
    /// NULLs comes back in the lazy all-valid form.
    pub fn slice(&self, start: usize, end: usize) -> Validity {
        let mut out = Validity::new_valid(0);
        out.extend_range(self, start, end);
        out
    }

    /// Append rows `start..end` of `other`, 64 bits per step. Appending a
    /// range without NULLs to a lazy mask keeps it lazy; the work is
    /// proportional to the range, never to the whole of either mask.
    ///
    /// # Panics
    /// If `start..end` is not a row range of `other`.
    pub fn extend_range(&mut self, other: &Validity, start: usize, end: usize) {
        assert!(
            start <= end && end <= other.len,
            "range {start}..{end} of {}",
            other.len
        );
        let src = match &other.words {
            Some(src) if self.words.is_some() || !range_all_valid(src, start, end) => src,
            _ => return self.extend_valid(end - start),
        };
        let mut len = self.len;
        let words = self.materialize();
        let mut bit = start;
        while bit < end {
            let m = (end - bit).min(64);
            append_bits(words, len, load_bits(src, bit), m);
            (bit, len) = (bit + m, len + m);
        }
        self.len = len;
    }

    /// Gather the validity of `indices` (the mask half of a row gather).
    /// Rows are looked up one by one only when a mask exists.
    ///
    /// # Panics
    /// If any index is out of range.
    pub(crate) fn take(&self, indices: &[usize]) -> Validity {
        let mut out = Validity::new_valid(indices.len());
        if self.words.is_some() {
            for (dst, &src) in indices.iter().enumerate() {
                if !self.is_valid(src) {
                    out.set_invalid(dst);
                }
            }
        }
        out
    }

    /// Append `n` valid rows. The bits past `len` are already set, so only
    /// whole new words are written.
    fn extend_valid(&mut self, n: usize) {
        self.len += n;
        let need = self.len.div_ceil(64);
        if let Some(words) = &mut self.words {
            if words.len() < need {
                words.resize(need, u64::MAX);
            }
        }
    }

    fn materialize(&mut self) -> &mut Vec<u64> {
        let len = self.len;
        self.words
            .get_or_insert_with(|| vec![u64::MAX; len.div_ceil(64)])
    }
}

/// Append the low `m` bits of `bits` (`1 ≤ m ≤ 64`) to a mask of `len`
/// rows: one masked write into the partial last word, plus one new word
/// when the bits straddle a word boundary.
fn append_bits(words: &mut Vec<u64>, len: usize, bits: u64, m: usize) {
    debug_assert!((1..=64).contains(&m) && words.len() == len.div_ceil(64));
    let (w, k) = (len / 64, len % 64);
    // Keep every bit past the new length set.
    let bits = bits | !low_mask(m);
    if k == 0 {
        words.push(bits);
        return;
    }
    // Bits k.. of word `w` are set (past the old length), so an AND writes
    // the new bits there and keeps bits ..k.
    words[w] &= (bits << k) | low_mask(k);
    if k + m > 64 {
        words.push((bits >> (64 - k)) | !low_mask(k));
    }
}

/// `true` iff rows `start..end` of `words` are all valid.
fn range_all_valid(words: &[u64], start: usize, end: usize) -> bool {
    let mut bit = start;
    while bit < end {
        let m = (end - bit).min(64);
        if load_bits(words, bit) | !low_mask(m) != u64::MAX {
            return false;
        }
        bit += m;
    }
    true
}

impl PartialEq for Validity {
    fn eq(&self, other: &Validity) -> bool {
        if self.len != other.len {
            return false;
        }
        let word = |v: &Validity, i: usize| v.words.as_ref().map_or(u64::MAX, |w| w[i]);
        (0..self.len.div_ceil(64)).all(|i| word(self, i) == word(other, i))
    }
}

impl Eq for Validity {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_valid_is_lazy() {
        let v = Validity::new_valid(1000);
        assert!(v.all_valid());
        assert_eq!(v.count_invalid(), 0);
        assert_eq!(v.count_valid(), 1000);
        assert!(v.is_valid(0));
        assert!(v.is_valid(999));
    }

    #[test]
    fn set_and_query() {
        let mut v = Validity::new_valid(130);
        v.set_invalid(0);
        v.set_invalid(64);
        v.set_invalid(129);
        assert!(!v.is_valid(0));
        assert!(v.is_valid(1));
        assert!(!v.is_valid(64));
        assert!(!v.is_valid(129));
        assert_eq!(v.count_invalid(), 3);
        assert!(!v.all_valid());
        v.set_valid(64);
        assert!(v.is_valid(64));
        assert_eq!(v.count_invalid(), 2);
    }

    #[test]
    fn set_valid_on_lazy_mask_is_noop() {
        let mut v = Validity::new_valid(10);
        v.set_valid(3);
        assert!(v.all_valid());
    }

    #[test]
    fn all_invalid() {
        let v = Validity::new_invalid(70);
        assert_eq!(v.count_invalid(), 70);
        assert_eq!(v.count_valid(), 0);
        for i in 0..70 {
            assert!(!v.is_valid(i));
        }
    }

    #[test]
    fn push_grows_mask() {
        let mut v = Validity::new_valid(0);
        for i in 0..200 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 200);
        for i in 0..200 {
            assert_eq!(v.is_valid(i), i % 3 != 0, "row {i}");
        }
        // ceil(200/3) = 67 NULLs
        assert_eq!(v.count_invalid(), 67);
    }

    #[test]
    fn push_all_valid_stays_lazy() {
        let mut v = Validity::new_valid(0);
        for _ in 0..100 {
            v.push(true);
        }
        assert!(v.all_valid());
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn count_handles_partial_last_word() {
        // 65 rows: 2 words, the second with only 1 live bit.
        let mut v = Validity::new_valid(65);
        v.set_invalid(64);
        assert_eq!(v.count_invalid(), 1);
        v.set_valid(64);
        assert_eq!(v.count_invalid(), 0);
        assert!(v.all_valid(), "all bits restored counts as all_valid");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let v = Validity::new_valid(5);
        let _ = v.is_valid(5);
    }

    #[test]
    fn set_converts_between_states() {
        let mut v = Validity::new_valid(8);
        v.set(2, false);
        assert!(!v.is_valid(2));
        v.set(2, true);
        assert!(v.is_valid(2));
    }

    #[test]
    fn equality_ignores_representation() {
        let mut v = Validity::new_valid(70);
        v.set_invalid(3);
        v.set_valid(3);
        assert!(v.words.is_some(), "the mask materialized");
        assert_eq!(v, Validity::new_valid(70));
        assert_ne!(v, Validity::new_valid(71));
        v.set_invalid(69);
        assert_ne!(v, Validity::new_valid(70));
        assert_ne!(Validity::new_valid(70), v);
    }

    #[test]
    fn slice_without_nulls_stays_lazy() {
        let mut v = Validity::new_valid(300);
        v.set_invalid(10);
        v.set_invalid(250);
        let s = v.slice(11, 250);
        assert!(s.words.is_none());
        assert_eq!(s, Validity::new_valid(239));
        let s = v.slice(9, 251);
        assert_eq!(s.count_invalid(), 2);
        assert!(!s.is_valid(1) && !s.is_valid(241));
    }

    #[test]
    fn empty_mask() {
        let v = Validity::new_valid(0);
        assert!(v.is_empty());
        assert!(v.all_valid());
        assert_eq!(v.count_valid(), 0);
    }
}
