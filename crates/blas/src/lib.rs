//! Host-side linear-algebra substrate for the `clgemm` workspace.
//!
//! This crate provides everything the auto-tuner needs on the host side:
//!
//! * [`Scalar`] — the precision abstraction (`f32` for SGEMM, `f64` for
//!   DGEMM), mirroring the paper's two tuned precisions.
//! * [`Matrix`] — a dense matrix container supporting both column-major
//!   (the BLAS-facing order used in §IV-B of the paper) and row-major
//!   storage, with an explicit leading dimension.
//! * [`layout`] — the three packed data layouts of Fig. 3: row-major,
//!   column-block-row-major (CBL) and row-block-row-major (RBL), plus the
//!   index arithmetic that the generated OpenCL kernels must agree with.
//! * [`pack`] — copy/transpose/pad routines that move user matrices into
//!   block-major staging buffers (the "copying" step of §III-D/§IV-B) and
//!   merge results back.
//! * [`panel`] — widen-once panel packing and the register-blocked
//!   microkernels (explicit AVX-512 / AVX2+FMA variants plus a portable
//!   one) behind the batched direct path.
//! * [`gemm_ref`] — reference GEMM implementations (naive, blocked,
//!   thread-parallel) used as the correctness oracle for every generated
//!   kernel.
//! * [`error`] — forward-error norms used to accept or reject kernels,
//!   mirroring the paper's "testing" stage.

pub mod batch;
pub mod error;
pub mod gemm_ref;
pub mod layout;
pub mod matrix;
pub mod pack;
pub mod panel;
pub mod scalar;
pub mod workspace;

pub use batch::{BatchError, GemmBatch};
pub use error::{max_abs_diff, max_rel_error, verify_gemm, ErrorReport};
pub use layout::{BlockLayout, PackedDims};
pub use matrix::{Matrix, StorageOrder};
pub use pack::{merge_c, pack_operand, PackSpec};
pub use panel::PanelScalar;
pub use scalar::{Bf16, Scalar, StorageScalar, F16};
pub use workspace::{BatchWorkspace, Workspace, WorkspaceScalar};

/// Transpose operation applied to an input operand, `op(X)` in the BLAS
/// GEMM definition `C ← α·op(A)·op(B) + β·C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// `op(X) = X`
    No,
    /// `op(X) = Xᵀ`
    Yes,
}

impl Trans {
    /// Flip the operation.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Trans::No => Trans::Yes,
            Trans::Yes => Trans::No,
        }
    }

    /// The single-letter tag used in BLAS routine names ("N"/"T").
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            Trans::No => 'N',
            Trans::Yes => 'T',
        }
    }
}

/// One of the four GEMM multiplication types of §III: NN, NT, TN, TT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmType {
    /// Operation applied to `A`.
    pub ta: Trans,
    /// Operation applied to `B`.
    pub tb: Trans,
}

impl GemmType {
    pub const NN: GemmType = GemmType {
        ta: Trans::No,
        tb: Trans::No,
    };
    pub const NT: GemmType = GemmType {
        ta: Trans::No,
        tb: Trans::Yes,
    };
    pub const TN: GemmType = GemmType {
        ta: Trans::Yes,
        tb: Trans::No,
    };
    pub const TT: GemmType = GemmType {
        ta: Trans::Yes,
        tb: Trans::Yes,
    };

    /// All four types in the order the paper tabulates them (Table III).
    pub const ALL: [GemmType; 4] = [Self::NN, Self::NT, Self::TN, Self::TT];

    /// Two-letter tag, e.g. `"TN"`.
    #[must_use]
    pub fn tag(self) -> String {
        format!("{}{}", self.ta.letter(), self.tb.letter())
    }
}

impl std::fmt::Display for GemmType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.ta.letter(), self.tb.letter())
    }
}

impl std::str::FromStr for GemmType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "NN" => Ok(Self::NN),
            "NT" => Ok(Self::NT),
            "TN" => Ok(Self::TN),
            "TT" => Ok(Self::TT),
            other => Err(format!("unknown GEMM type {other:?}; expected NN/NT/TN/TT")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_type_round_trips_through_tag() {
        for ty in GemmType::ALL {
            let parsed: GemmType = ty.tag().parse().unwrap();
            assert_eq!(parsed, ty);
        }
    }

    #[test]
    fn gemm_type_rejects_garbage() {
        assert!("XY".parse::<GemmType>().is_err());
        assert!("".parse::<GemmType>().is_err());
    }

    #[test]
    fn trans_flip_is_involution() {
        assert_eq!(Trans::No.flipped().flipped(), Trans::No);
        assert_eq!(Trans::Yes.flipped(), Trans::No);
    }
}
