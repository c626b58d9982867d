//! SIMD-width bitset row kernels for the saturation engine.
//!
//! The engine's bulk dedup pre-checks all reduce to one row primitive: *is
//! `rowA \ (rowB ∪ except)` empty?* — an AND-NOT merge of two bit rows
//! OR-reduced to a single emptiness verdict. Evaluated word-at-a-time, it
//! pays a per-word branch and a linear `except: &[usize]` membership scan
//! inside the loop (O(words × excepts)); see
//! [`reference`](mod@reference).
//!
//! This module provides the chunked form:
//!
//! * rows are padded to a fixed chunk width of [`CHUNK_WORDS`] × `u64`
//!   lanes (256 bits), so the inner loop is a fixed-trip-count lane loop
//!   with no tail handling — the shape LLVM's autovectorizer turns into
//!   full-width vector AND-NOT/OR without any explicit SIMD intrinsics
//!   (the crate forbids `unsafe`);
//! * the `except` set is precomputed into an [`ExceptMask`] — at most two
//!   (word, bit-mask) entries applied branch-free via compare-select, so
//!   the lane loop carries no data-dependent branches at all.
//!
//! Exactness matters more than speed here: these kernels gate *skipping*
//! derive work — whole scans when the difference row is empty
//! ([`row_diff_is_empty`]), and individual entries otherwise (the scan
//! walks in its original order but consults the materialized difference
//! row from [`row_diff_into`] one bit at a time) — so a false "empty"
//! would silently drop closure terms. [`reference`](mod@reference) keeps
//! the original word-at-a-time scalar implementation verbatim;
//! `tests/kernel_differential.rs` duels the two on random rows and
//! exception sets, and the engine differential suites pin the closures
//! built on top of them to the `RefClosure` oracle byte for byte.

/// Fixed chunk width in `u64` words (4 × 64 = 256-bit lanes).
pub const CHUNK_WORDS: usize = 4;

/// Fixed chunk width in bits.
pub const CHUNK_BITS: usize = CHUNK_WORDS * 64;

/// Words per row for `bits` bits, padded up to a whole number of chunks.
#[inline]
pub fn padded_words(bits: usize) -> usize {
    bits.div_ceil(CHUNK_BITS) * CHUNK_WORDS
}

/// A precomputed exception mask: up to two bit positions a
/// [`row_diff_is_empty`] test must ignore.
///
/// Every bulk pre-check in the engine excludes at most two bits (the two
/// endpoints of the popped pair term), so two slots cover the rule set
/// exactly; the mask is applied per word with compare-select arithmetic,
/// never a scan. Unused slots point at an out-of-range word index and
/// select to zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExceptMask {
    words: [u32; 2],
    masks: [u64; 2],
}

impl ExceptMask {
    /// Ignore nothing.
    #[inline]
    pub fn none() -> ExceptMask {
        ExceptMask {
            words: [u32::MAX; 2],
            masks: [0; 2],
        }
    }

    /// Ignore one bit position.
    #[inline]
    pub fn one(bit: usize) -> ExceptMask {
        ExceptMask {
            words: [(bit / 64) as u32, u32::MAX],
            masks: [1u64 << (bit % 64), 0],
        }
    }

    /// Ignore two bit positions (they may coincide or share a word).
    #[inline]
    pub fn two(b1: usize, b2: usize) -> ExceptMask {
        ExceptMask {
            words: [(b1 / 64) as u32, (b2 / 64) as u32],
            masks: [1u64 << (b1 % 64), 1u64 << (b2 % 64)],
        }
    }

    /// Build from a slice of bit positions (≤ 2; the engine's rule set
    /// never needs more).
    pub fn from_bits(bits: &[usize]) -> ExceptMask {
        match *bits {
            [] => ExceptMask::none(),
            [a] => ExceptMask::one(a),
            [a, b] => ExceptMask::two(a, b),
            _ => panic!("ExceptMask holds at most two exception bits"),
        }
    }

    /// The bits to ignore inside word `w`, branch-free: each slot
    /// contributes its mask iff its word index equals `w`.
    #[inline]
    fn mask_for(&self, w: usize) -> u64 {
        let w = w as u32;
        let sel0 = 0u64.wrapping_sub((self.words[0] == w) as u64);
        let sel1 = 0u64.wrapping_sub((self.words[1] == w) as u64);
        (self.masks[0] & sel0) | (self.masks[1] & sel1)
    }
}

/// Is `a \ (b ∪ except)` empty, where `a` and `b` are chunk-padded bit
/// rows of equal width?
///
/// The bulk form of the dedup pre-check: when every conclusion a join scan
/// could produce is already mirrored in `b`, the whole scan would dedup
/// and can be skipped in O(row chunks). The loop visits whole chunks —
/// [`CHUNK_WORDS`] lanes of AND-NOT merged into one OR accumulator — and
/// branches once per *chunk* (the early exit), never per word.
#[inline]
pub fn row_diff_is_empty(a: &[u64], b: &[u64], except: ExceptMask) -> bool {
    debug_assert_eq!(a.len(), b.len(), "rows must have equal width");
    debug_assert_eq!(a.len() % CHUNK_WORDS, 0, "rows must be chunk-padded");
    for (ci, (ca, cb)) in a
        .chunks_exact(CHUNK_WORDS)
        .zip(b.chunks_exact(CHUNK_WORDS))
        .enumerate()
    {
        let base = ci * CHUNK_WORDS;
        let mut acc = 0u64;
        for lane in 0..CHUNK_WORDS {
            acc |= ca[lane] & !cb[lane] & !except.mask_for(base + lane);
        }
        if acc != 0 {
            return false;
        }
    }
    true
}

/// Materialize `a \ (b ∪ except)` into `out` (resized to match) and
/// report whether any bit survived.
///
/// The scan-prefilter form of [`row_diff_is_empty`]: when the difference
/// is *not* empty, the engine still has to walk the adjacency list in
/// insertion order (that order is part of the byte-identical output
/// contract), but it only needs to call into the derive path for
/// candidates whose bit is set here — everything else is already mirrored
/// and would dedup. Same fixed-lane chunk loop, with the OR-reduction
/// accumulated alongside the stores.
#[inline]
pub fn row_diff_into(a: &[u64], b: &[u64], except: ExceptMask, out: &mut Vec<u64>) -> bool {
    debug_assert_eq!(a.len(), b.len(), "rows must have equal width");
    debug_assert_eq!(a.len() % CHUNK_WORDS, 0, "rows must be chunk-padded");
    out.clear();
    out.resize(a.len(), 0);
    let mut any = 0u64;
    for (ci, ((ca, cb), co)) in a
        .chunks_exact(CHUNK_WORDS)
        .zip(b.chunks_exact(CHUNK_WORDS))
        .zip(out.chunks_exact_mut(CHUNK_WORDS))
        .enumerate()
    {
        let base = ci * CHUNK_WORDS;
        for lane in 0..CHUNK_WORDS {
            let d = ca[lane] & !cb[lane] & !except.mask_for(base + lane);
            co[lane] = d;
            any |= d;
        }
    }
    any != 0
}

/// As [`row_diff_into`] with an all-zero `b` row: `a \ except`. Covers the
/// (defensive) case where the subtrahend grid has not been allocated yet.
#[inline]
pub fn row_copy_except_into(a: &[u64], except: ExceptMask, out: &mut Vec<u64>) -> bool {
    debug_assert_eq!(a.len() % CHUNK_WORDS, 0, "rows must be chunk-padded");
    out.clear();
    out.resize(a.len(), 0);
    let mut any = 0u64;
    for (ci, (ca, co)) in a
        .chunks_exact(CHUNK_WORDS)
        .zip(out.chunks_exact_mut(CHUNK_WORDS))
        .enumerate()
    {
        let base = ci * CHUNK_WORDS;
        for lane in 0..CHUNK_WORDS {
            let d = ca[lane] & !except.mask_for(base + lane);
            co[lane] = d;
            any |= d;
        }
    }
    any != 0
}

/// Is `bit` set in the (chunk-padded) row?
#[inline]
pub fn row_bit(row: &[u64], bit: usize) -> bool {
    (row[bit / 64] >> (bit % 64)) & 1 != 0
}

/// Clear `bit` in the row. Scan prefilters clear a candidate's bit once it
/// has been visited, so adjacency lists carrying the same candidate under
/// several origins attempt its (single) conclusion only once per scan.
#[inline]
pub fn row_clear_bit(row: &mut [u64], bit: usize) {
    row[bit / 64] &= !(1u64 << (bit % 64));
}

/// OR row `src` into row `dst` (chunk-padded, equal width): the row-merge
/// primitive, written as the same fixed-lane loop so the autovectorizer
/// emits full-width vector ORs.
#[inline]
pub fn row_or_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "rows must have equal width");
    debug_assert_eq!(dst.len() % CHUNK_WORDS, 0, "rows must be chunk-padded");
    for (cd, cs) in dst
        .chunks_exact_mut(CHUNK_WORDS)
        .zip(src.chunks_exact(CHUNK_WORDS))
    {
        for lane in 0..CHUNK_WORDS {
            cd[lane] |= cs[lane];
        }
    }
}

/// Retained scalar reference implementations, kept verbatim from the
/// pre-chunking engine as the dueling partner for
/// `tests/kernel_differential.rs`.
pub mod reference {
    /// Word-at-a-time `a \ (b ∪ except)` emptiness with a linear `except`
    /// membership scan inside the word loop — the original O(words ×
    /// excepts) shape the chunked kernel replaces. Accepts unpadded rows.
    #[inline]
    pub fn row_diff_is_empty(a: &[u64], b: &[u64], except: &[usize]) -> bool {
        debug_assert_eq!(a.len(), b.len(), "rows must have equal width");
        for w in 0..a.len() {
            let mut diff = a[w] & !b[w];
            for &e in except {
                if e / 64 == w {
                    diff &= !(1u64 << (e % 64));
                }
            }
            if diff != 0 {
                return false;
            }
        }
        true
    }

    /// Word-at-a-time row OR.
    #[inline]
    pub fn row_or_into(dst: &mut [u64], src: &[u64]) {
        debug_assert_eq!(dst.len(), src.len(), "rows must have equal width");
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d |= *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_with(bits: &[usize], words: usize) -> Vec<u64> {
        let mut row = vec![0u64; words];
        for &b in bits {
            row[b / 64] |= 1u64 << (b % 64);
        }
        row
    }

    #[test]
    fn padding_rounds_up_to_whole_chunks() {
        assert_eq!(padded_words(0), 0);
        assert_eq!(padded_words(1), CHUNK_WORDS);
        assert_eq!(padded_words(256), CHUNK_WORDS);
        assert_eq!(padded_words(257), 2 * CHUNK_WORDS);
        assert_eq!(padded_words(1024), 4 * CHUNK_WORDS);
    }

    #[test]
    fn diff_detects_and_ignores_bits() {
        let w = padded_words(300);
        let a = row_with(&[3, 64, 299], w);
        let b = row_with(&[3], w);
        assert!(!row_diff_is_empty(&a, &b, ExceptMask::none()));
        assert!(!row_diff_is_empty(&a, &b, ExceptMask::one(64)));
        assert!(row_diff_is_empty(&a, &b, ExceptMask::two(64, 299)));
        assert!(row_diff_is_empty(&a, &a, ExceptMask::none()));
        // b ⊇ a is fine; a ⊉ b is irrelevant to the diff direction.
        let sup = row_with(&[3, 5, 64, 200, 299], w);
        assert!(row_diff_is_empty(&a, &sup, ExceptMask::none()));
        // sup \ a = {5, 200}: excepting one leaves the other.
        assert!(!row_diff_is_empty(&sup, &a, ExceptMask::one(5)));
        assert!(row_diff_is_empty(&sup, &a, ExceptMask::two(5, 200)));
    }

    /// The satellite fix pinned: multiple exception bits — including two in
    /// the *same* word, duplicated bits, and exceptions in different words
    /// — behave exactly like the reference's linear scan.
    #[test]
    fn multi_exception_rows_match_reference() {
        let w = padded_words(520);
        let cases: &[(&[usize], &[usize], &[usize])] = &[
            // (a bits, b bits, except bits)
            (&[0, 1], &[], &[0, 1]),         // both exceptions in word 0
            (&[0, 1], &[], &[1, 0]),         // order-insensitive
            (&[63, 64], &[], &[63, 64]),     // straddling a word boundary
            (&[100, 100], &[], &[100, 100]), // duplicated exception bit
            (&[7, 300], &[300], &[7]),       // one masked by b, one excepted
            (&[7, 300], &[], &[7]),          // 300 survives → not empty
            (&[511, 519], &[511], &[519]),   // high bits near padding
        ];
        for (abits, bbits, ex) in cases {
            let a = row_with(abits, w);
            let b = row_with(bbits, w);
            let chunked = row_diff_is_empty(&a, &b, ExceptMask::from_bits(ex));
            let scalar = reference::row_diff_is_empty(&a, &b, ex);
            assert_eq!(
                chunked, scalar,
                "diverged on a={abits:?} b={bbits:?} except={ex:?}"
            );
        }
    }

    #[test]
    fn diff_into_materializes_the_exact_difference() {
        let w = padded_words(300);
        let a = row_with(&[3, 5, 64, 200, 299], w);
        let b = row_with(&[3, 299], w);
        let mut out = Vec::new();
        assert!(row_diff_into(&a, &b, ExceptMask::one(200), &mut out));
        assert_eq!(out, row_with(&[5, 64], w));
        for bit in [0, 3, 5, 64, 200, 299] {
            assert_eq!(row_bit(&out, bit), bit == 5 || bit == 64);
        }
        // Emptiness verdict agrees with row_diff_is_empty.
        let b2 = row_with(&[3, 200, 299], w);
        assert!(!row_diff_into(&a, &b2, ExceptMask::two(5, 64), &mut out));
        assert!(row_diff_is_empty(&a, &b2, ExceptMask::two(5, 64)));
        assert_eq!(out, vec![0u64; w]);
        // Zero-subtrahend variant.
        let mut out2 = Vec::new();
        assert!(row_copy_except_into(&a, ExceptMask::two(3, 299), &mut out2));
        assert_eq!(out2, row_with(&[5, 64, 200], w));
    }

    #[test]
    fn or_merge_matches_reference() {
        let w = padded_words(300);
        let mut d1 = row_with(&[1, 65, 129], w);
        let mut d2 = d1.clone();
        let src = row_with(&[2, 65, 299], w);
        row_or_into(&mut d1, &src);
        reference::row_or_into(&mut d2, &src);
        assert_eq!(d1, d2);
        assert_eq!(d1, row_with(&[1, 2, 65, 129, 299], w));
    }
}
