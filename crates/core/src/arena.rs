//! Bump-arena storage for the saturation data plane.
//!
//! The saturation engine ([`crate::closure`]) keeps every dense structure
//! of one closure in a handful of contiguous allocations instead of a
//! forest of scatter-allocated `Vec`s:
//!
//! * [`Bump`] — an index-based bump allocator. Allocations hand back a
//!   [`Span`] (offset + length) instead of a pointer, so the pool can grow
//!   (amortised, like a `Vec`) without invalidating outstanding handles and
//!   without any `unsafe`. All of a [`DeltaState`]'s bit-grid mirrors — the
//!   `ti`/`pi`/`eq`/`pi*` capability tables the dedup probe reads on every
//!   derive call — live in **one** `Bump<u64>`, so the rows a saturation
//!   touches back-to-back are adjacent in memory rather than wherever the
//!   global allocator scattered them. The sparse per-origin `pi*` pair
//!   grids are the deliberate exception: most never materialize, and the
//!   few that do allocate their own zeroed rows lazily on first touch —
//!   reserving them in the pool up front would commit pages for grids
//!   that stay empty.
//! * [`Csr`] — a compressed-sparse-row view of `Vec<Vec<T>>` adjacency.
//!   The engine's structural indexes (`basic_nodes`, `read_by_recv`,
//!   `writes_by_recv`, `ctor_args`) are built once per program and then
//!   only ever iterated row-by-row on the hot path; flattening them into
//!   one offsets array plus one data array removes a pointer chase (and a
//!   cache miss) per row visit. Row iteration order is exactly the
//!   insertion order of the nested build, so swapping a `Vec<Vec<T>>` for
//!   its [`Csr`] cannot change the traversal.
//!
//! The interned-term payload of a closure (the insertion-ordered `TermId`
//! log) is itself a single bump slab — see `closure.rs`; DESIGN.md §16
//! describes the full lifetime picture.
//!
//! [`DeltaState`]: crate::closure
use std::fmt;

/// A handle to a contiguous run of slots inside a [`Bump`] pool.
///
/// Spans are plain indices: they stay valid across later allocations even
/// when the pool's backing storage reallocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    start: usize,
    len: usize,
}

impl Span {
    /// An empty span (zero slots).
    pub const EMPTY: Span = Span { start: 0, len: 0 };

    /// Number of slots covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does the span cover zero slots?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An index-based bump allocator over slots of `T`.
///
/// `alloc` appends a zero-filled (`T::default()`) run and returns its
/// [`Span`]; `get`/`get_mut` resolve spans to slices. Dropping the pool
/// frees every allocation at once — the arena lifetime is the lifetime of
/// the saturation run that owns it.
pub struct Bump<T> {
    data: Vec<T>,
}

impl<T: Copy + Default> Bump<T> {
    /// An empty pool.
    pub fn new() -> Bump<T> {
        Bump { data: Vec::new() }
    }

    /// An empty pool with room for `cap` slots before regrowth.
    pub fn with_capacity(cap: usize) -> Bump<T> {
        Bump {
            data: Vec::with_capacity(cap),
        }
    }

    /// Allocate `len` default-initialised slots.
    #[inline]
    pub fn alloc(&mut self, len: usize) -> Span {
        let start = self.data.len();
        self.data.resize(start + len, T::default());
        Span { start, len }
    }

    /// The slots of `span`, immutably.
    #[inline]
    pub fn get(&self, span: Span) -> &[T] {
        &self.data[span.start..span.start + span.len]
    }

    /// The slots of `span`, mutably.
    #[inline]
    pub fn get_mut(&mut self, span: Span) -> &mut [T] {
        &mut self.data[span.start..span.start + span.len]
    }

    /// Total slots allocated.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the pool empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocated capacity in slots (for occupancy stats).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

impl<T: Copy + Default> Default for Bump<T> {
    fn default() -> Self {
        Bump::new()
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for Bump<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bump")
            .field("len", &self.data.len())
            .finish()
    }
}

/// A compressed-sparse-row table: `rows` variable-length rows of `T`
/// flattened into one contiguous data array with an offsets directory.
///
/// Immutable after construction; row order and within-row order are exactly
/// those of the nested `Vec<Vec<T>>` it was built from.
#[derive(Clone, Debug)]
pub struct Csr<T> {
    /// `offsets[r]..offsets[r + 1]` is row `r`'s slice of `data`.
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Flatten nested rows into CSR form.
    ///
    /// Panics if the flattened table would exceed `u32::MAX` entries — the
    /// engine's structural indexes are linear in program size, far below.
    pub fn from_nested(rows: Vec<Vec<T>>) -> Csr<T> {
        let total: usize = rows.iter().map(Vec::len).sum();
        assert!(
            total <= u32::MAX as usize,
            "CSR table overflows u32 offsets"
        );
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut data = Vec::with_capacity(total);
        offsets.push(0u32);
        for row in rows {
            data.extend_from_slice(&row);
            offsets.push(data.len() as u32);
        }
        Csr { offsets, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `r` as a slice (empty for out-of-range rows).
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        match (self.offsets.get(r), self.offsets.get(r + 1)) {
            (Some(&a), Some(&b)) => &self.data[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Total entries across all rows.
    #[inline]
    pub fn entries(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_alloc_spans_survive_regrowth() {
        let mut pool: Bump<u64> = Bump::new();
        let a = pool.alloc(3);
        pool.get_mut(a).copy_from_slice(&[1, 2, 3]);
        // Force many regrowths after `a` was handed out.
        let mut spans = Vec::new();
        for i in 0..100 {
            let s = pool.alloc(17);
            pool.get_mut(s)[0] = i;
            spans.push(s);
        }
        assert_eq!(pool.get(a), &[1, 2, 3]);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(pool.get(*s)[0], i as u64);
            assert_eq!(pool.get(*s)[1..], [0; 16]);
        }
        assert_eq!(pool.len(), 3 + 100 * 17);
    }

    #[test]
    fn bump_allocations_are_contiguous_and_zeroed() {
        let mut pool: Bump<u64> = Bump::with_capacity(8);
        let a = pool.alloc(2);
        let b = pool.alloc(2);
        assert_eq!(a, Span { start: 0, len: 2 });
        assert_eq!(b, Span { start: 2, len: 2 });
        assert_eq!(pool.get(a), &[0, 0]);
        assert_eq!(pool.get(b), &[0, 0]);
        assert!(Span::EMPTY.is_empty());
        assert_eq!(Span::EMPTY.len(), 0);
    }

    #[test]
    fn csr_preserves_row_and_entry_order() {
        let nested = vec![vec![], vec![10u32, 11], vec![], vec![7], vec![1, 2, 3]];
        let csr = Csr::from_nested(nested.clone());
        assert_eq!(csr.rows(), 5);
        assert_eq!(csr.entries(), 6);
        for (r, row) in nested.iter().enumerate() {
            assert_eq!(csr.row(r), row.as_slice(), "row {r}");
        }
        // Out-of-range rows read as empty, like `Vec::get` + unwrap_or.
        assert_eq!(csr.row(99), &[] as &[u32]);
    }
}
