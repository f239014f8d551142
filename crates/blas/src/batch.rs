//! The strided-batched GEMM descriptor.
//!
//! A batch is `batch` independent problems `C_i ← α·op(A_i)·op(B_i) + β·C_i`
//! sharing one shape, transpose pair, layout and scalar type, with the
//! per-problem matrices living at fixed strides inside three column-major
//! slabs. A stride of zero for `A` or `B` means the operand is *shared* by
//! every entry (one weight matrix against many activations) and is packed
//! exactly once; `C` entries must be disjoint, so `stride_c` has to cover
//! a full entry whenever `batch > 1`.

use crate::{GemmType, Trans};

/// Why a batch descriptor is unusable against the slabs it was given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError(pub String);

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid gemm batch: {}", self.0)
    }
}

impl std::error::Error for BatchError {}

/// One strided-batched GEMM call: the shared shape plus the three slab
/// strides. All matrices are column-major within their slab entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBatch {
    pub ty: GemmType,
    /// Number of independent problems.
    pub batch: usize,
    /// Shared problem shape: `C_i` is `m × n`, the inner dimension is `k`.
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// Column-major leading dimensions of the *stored* matrices.
    pub lda: usize,
    pub ldb: usize,
    pub ldc: usize,
    /// Element distance between consecutive entries in each slab.
    /// `stride_a == 0` / `stride_b == 0` marks a shared operand.
    pub stride_a: usize,
    pub stride_b: usize,
    pub stride_c: usize,
}

impl GemmBatch {
    /// A densely packed batch: tight leading dimensions and strides equal
    /// to one entry's extent (shared-nothing).
    #[must_use]
    pub fn packed(ty: GemmType, batch: usize, m: usize, n: usize, k: usize) -> GemmBatch {
        let (ar, ac) = stored_dims(ty.ta, m, k);
        let (br, bc) = stored_dims(ty.tb, k, n);
        GemmBatch {
            ty,
            batch,
            m,
            n,
            k,
            lda: ar.max(1),
            ldb: br.max(1),
            ldc: m.max(1),
            stride_a: ar * ac,
            stride_b: br * bc,
            stride_c: m * n,
        }
    }

    /// Builder: share one `A` across every entry (`stride_a = 0`).
    #[must_use]
    pub fn with_shared_a(mut self) -> GemmBatch {
        self.stride_a = 0;
        self
    }

    /// Builder: share one `B` across every entry (`stride_b = 0`).
    #[must_use]
    pub fn with_shared_b(mut self) -> GemmBatch {
        self.stride_b = 0;
        self
    }

    /// Stored dimensions of one `A` entry (before the transpose op).
    #[must_use]
    pub fn a_dims(&self) -> (usize, usize) {
        stored_dims(self.ty.ta, self.m, self.k)
    }

    /// Stored dimensions of one `B` entry.
    #[must_use]
    pub fn b_dims(&self) -> (usize, usize) {
        stored_dims(self.ty.tb, self.k, self.n)
    }

    /// `true` when every entry reads the same `A`.
    #[must_use]
    pub fn shared_a(&self) -> bool {
        self.stride_a == 0
    }

    /// `true` when every entry reads the same `B`.
    #[must_use]
    pub fn shared_b(&self) -> bool {
        self.stride_b == 0
    }

    /// Column-major extent (elements spanned) of one `A` entry; zero for
    /// an empty entry. Saturates at `usize::MAX` when the extent is not
    /// addressable, which [`GemmBatch::validate`] rejects.
    #[must_use]
    pub fn a_extent(&self) -> usize {
        extent("A", self.a_dims(), self.lda).unwrap_or(usize::MAX)
    }

    /// Extent of one `B` entry (saturating, like [`GemmBatch::a_extent`]).
    #[must_use]
    pub fn b_extent(&self) -> usize {
        extent("B", self.b_dims(), self.ldb).unwrap_or(usize::MAX)
    }

    /// Extent of one `C` entry (saturating, like [`GemmBatch::a_extent`]).
    #[must_use]
    pub fn c_extent(&self) -> usize {
        extent("C", (self.m, self.n), self.ldc).unwrap_or(usize::MAX)
    }

    /// Slab offset of entry `i`'s `A`. In range for every `i < batch`
    /// of a validated descriptor; saturates instead of wrapping past it.
    #[must_use]
    pub fn a_offset(&self, i: usize) -> usize {
        i.saturating_mul(self.stride_a)
    }

    /// Slab offset of entry `i`'s `B` (see [`GemmBatch::a_offset`]).
    #[must_use]
    pub fn b_offset(&self, i: usize) -> usize {
        i.saturating_mul(self.stride_b)
    }

    /// Slab offset of entry `i`'s `C` (see [`GemmBatch::a_offset`]).
    #[must_use]
    pub fn c_offset(&self, i: usize) -> usize {
        i.saturating_mul(self.stride_c)
    }

    /// Minimum `C`-slab length the batch touches (saturating, like
    /// [`GemmBatch::a_extent`]).
    #[must_use]
    pub fn c_required(&self) -> usize {
        self.try_c_required().unwrap_or(usize::MAX)
    }

    /// Checked minimum `C`-slab length.
    ///
    /// # Errors
    /// Returns [`BatchError`] when the last entry's end overflows `usize`.
    pub fn try_c_required(&self) -> Result<usize, BatchError> {
        let c_ext = extent("C", (self.m, self.n), self.ldc)?;
        required("C", self.batch, self.stride_c, c_ext)
    }

    /// Useful floating-point operations of the whole batch.
    #[must_use]
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64 * self.batch as f64
    }

    /// Validate the descriptor against the three slab lengths.
    ///
    /// Every extent and entry end is computed with checked arithmetic, so
    /// a descriptor that passes addresses only in-bounds elements: for
    /// each `i < batch`, `offset(i) + extent` is at most the slab length.
    ///
    /// # Errors
    /// Returns [`BatchError`] when a leading dimension is smaller than its
    /// stored row count, when `C` entries can overlap, when an extent or
    /// entry end overflows `usize`, or when a slab is shorter than the
    /// addresses the batch reaches.
    pub fn validate(&self, len_a: usize, len_b: usize, len_c: usize) -> Result<(), BatchError> {
        let bad = |msg: String| Err(BatchError(msg));
        // A batch with no entries or empty C performs no reads or writes
        // at all, so no slab storage is required. (k == 0 is NOT in this
        // set: it still scales C by beta.)
        if self.batch == 0 || self.m == 0 || self.n == 0 {
            return Ok(());
        }
        let (ar, ac) = self.a_dims();
        let (br, bc) = self.b_dims();
        let a_ext = extent("A", (ar, ac), self.lda)?;
        let b_ext = extent("B", (br, bc), self.ldb)?;
        let c_ext = extent("C", (self.m, self.n), self.ldc)?;
        if a_ext > 0 && self.lda < ar {
            return bad(format!("lda {} < stored A rows {ar}", self.lda));
        }
        if b_ext > 0 && self.ldb < br {
            return bad(format!("ldb {} < stored B rows {br}", self.ldb));
        }
        if c_ext > 0 && self.ldc < self.m {
            return bad(format!("ldc {} < m {}", self.ldc, self.m));
        }
        if self.batch > 1 && c_ext > 0 && self.stride_c < c_ext {
            return bad(format!(
                "stride_c {} lets C entries overlap (extent {c_ext})",
                self.stride_c
            ));
        }
        for (name, len, need) in [
            ("A", len_a, required("A", self.batch, self.stride_a, a_ext)?),
            ("B", len_b, required("B", self.batch, self.stride_b, b_ext)?),
            ("C", len_c, required("C", self.batch, self.stride_c, c_ext)?),
        ] {
            if len < need {
                return bad(format!(
                    "{name} slab holds {len} elements, batch needs {need}"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for GemmBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x[{}x{}x{} {}]",
            self.batch, self.m, self.n, self.k, self.ty
        )
    }
}

/// Stored (rows, cols) of an operand whose op() result is `r × c`.
fn stored_dims(t: Trans, r: usize, c: usize) -> (usize, usize) {
    match t {
        Trans::No => (r, c),
        Trans::Yes => (c, r),
    }
}

/// Elements spanned by one column-major `(rows, cols)` entry with leading
/// dimension `ld`; zero when the entry is empty.
fn extent(name: &str, (rows, cols): (usize, usize), ld: usize) -> Result<usize, BatchError> {
    if rows == 0 || cols == 0 {
        return Ok(0);
    }
    ld.checked_mul(cols - 1)
        .and_then(|v| v.checked_add(rows))
        .ok_or_else(|| BatchError(format!("{name} entry extent overflows usize")))
}

/// Minimum slab length for `batch` entries of `extent` at `stride`.
fn required(name: &str, batch: usize, stride: usize, extent: usize) -> Result<usize, BatchError> {
    if batch == 0 || extent == 0 {
        return Ok(0);
    }
    stride
        .checked_mul(batch - 1)
        .and_then(|v| v.checked_add(extent))
        .ok_or_else(|| BatchError(format!("{name} slab end overflows usize")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_descriptor_has_tight_strides() {
        let d = GemmBatch::packed(GemmType::NN, 4, 3, 5, 7);
        assert_eq!(d.a_dims(), (3, 7));
        assert_eq!(d.b_dims(), (7, 5));
        assert_eq!((d.lda, d.ldb, d.ldc), (3, 7, 3));
        assert_eq!((d.stride_a, d.stride_b, d.stride_c), (21, 35, 15));
        assert_eq!(d.c_required(), 4 * 15);
        d.validate(4 * 21, 4 * 35, 4 * 15).unwrap();
        assert_eq!(d.flops(), 2.0 * 3.0 * 5.0 * 7.0 * 4.0);
        assert_eq!(d.to_string(), "4x[3x5x7 NN]");
    }

    #[test]
    fn transposes_swap_stored_dims() {
        let d = GemmBatch::packed(GemmType::TT, 2, 3, 5, 7);
        assert_eq!(d.a_dims(), (7, 3));
        assert_eq!(d.b_dims(), (5, 7));
        assert_eq!(d.lda, 7);
        assert_eq!(d.ldb, 5);
    }

    #[test]
    fn shared_operands_need_only_one_entry() {
        let d = GemmBatch::packed(GemmType::NN, 8, 4, 4, 4).with_shared_a();
        assert!(d.shared_a());
        assert!(!d.shared_b());
        assert_eq!(d.a_offset(5), 0);
        d.validate(16, 8 * 16, 8 * 16).unwrap();
        assert!(d.validate(15, 8 * 16, 8 * 16).is_err());
    }

    #[test]
    fn overlapping_c_entries_are_rejected() {
        let mut d = GemmBatch::packed(GemmType::NN, 2, 4, 4, 4);
        d.stride_c = 10; // extent is 16
        assert!(d.validate(32, 32, 32).is_err());
        d.batch = 1; // a single entry cannot overlap itself
        d.validate(16, 16, 16).unwrap();
    }

    #[test]
    fn degenerate_shapes_need_no_storage() {
        for d in [
            GemmBatch::packed(GemmType::NN, 0, 4, 4, 4),
            GemmBatch::packed(GemmType::NN, 3, 0, 4, 4),
            GemmBatch::packed(GemmType::NN, 3, 4, 0, 4),
        ] {
            d.validate(0, 0, 0).unwrap();
        }
        // k == 0 still reads and writes C.
        let d = GemmBatch::packed(GemmType::NN, 2, 4, 4, 0);
        assert_eq!(d.a_extent(), 0);
        assert_eq!(d.c_extent(), 16);
        assert!(d.validate(0, 0, 16).is_err());
        d.validate(0, 0, 32).unwrap();
    }

    #[test]
    fn short_leading_dimensions_are_rejected() {
        let mut d = GemmBatch::packed(GemmType::NN, 1, 4, 4, 4);
        d.lda = 3;
        assert!(d.validate(16, 16, 16).is_err());
        let mut d = GemmBatch::packed(GemmType::NN, 1, 4, 4, 4);
        d.ldc = 2;
        assert!(d.validate(16, 16, 16).is_err());
    }

    #[test]
    fn overflowing_descriptors_are_rejected_not_wrapped() {
        // A stride chosen so that stride·(batch−1) + extent wraps to 1:
        // unchecked arithmetic would pass validation with tiny slabs and
        // then index far out of bounds.
        let mut d = GemmBatch::packed(GemmType::NN, 2, 4, 4, 4);
        d.stride_a = usize::MAX - d.a_extent() + 2;
        let err = d.validate(16, 32, 32).unwrap_err();
        assert!(err.0.contains("A slab end overflows"), "{err}");
        // Same for B and C, and for the per-entry extent itself.
        let mut d = GemmBatch::packed(GemmType::NN, 2, 4, 4, 4);
        d.stride_b = usize::MAX / 2 + 1;
        assert!(d.validate(32, 32, 32).is_err());
        let mut d = GemmBatch::packed(GemmType::NN, 3, 4, 4, 4);
        d.stride_c = usize::MAX / 2;
        assert!(d.try_c_required().is_err());
        assert_eq!(d.c_required(), usize::MAX, "saturates, never wraps");
        assert!(d.validate(48, 48, 48).is_err());
        let mut d = GemmBatch::packed(GemmType::NN, 1, 4, 4, 4);
        d.ldc = usize::MAX / 2;
        assert_eq!(d.c_extent(), usize::MAX);
        assert!(d.validate(16, 16, 16).is_err());
        // Offsets past the batch saturate rather than wrap into range.
        assert_eq!(d.c_offset(usize::MAX), usize::MAX);
    }

    #[test]
    fn padded_leading_dimensions_extend_the_extent() {
        let mut d = GemmBatch::packed(GemmType::NN, 2, 4, 4, 4);
        d.ldc = 6;
        d.stride_c = 6 * 4;
        assert_eq!(d.c_extent(), 6 * 3 + 4);
        assert_eq!(d.c_required(), 24 + 22);
        d.validate(32, 32, 46).unwrap();
    }
}
