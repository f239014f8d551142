//! Panel packing and register-blocked microkernels for the host direct
//! GEMM path.
//!
//! This is the packing-routine + microkernel split: a pack step widens
//! `op(A)` once into `MR`-row panels and `op(B)` once into `NR`-column
//! panels, both `k` deep and zero-padded at ragged edges, so that one
//! depth step of the microkernel is a contiguous `MR`-vector of `A` and
//! `NR` broadcast scalars of `B`. The microkernel keeps its `MR × NR`
//! accumulator tile in registers for the whole depth and writes it out
//! once; the caller merges only the valid cells into `C`.
//!
//! Layouts:
//! * `A` panel `t` holds `op(A)[t·MR + i][p]` at `p·MR + i`;
//! * `B` panel `u` holds `op(B)[p][u·NR + j]` at `p·NR + j`;
//! * the tile holds cell `(i, j)` at `j·MR + i` (column-major, like `C`).
//!
//! Numerics: every variant computes each tile cell as the ascending-`p`
//! chain `acc ← fma(a_p, b_p, acc)` starting from `+0`. Vector lanes run
//! across cells, never inside one chain, so every variant is
//! bit-identical to the scalar chain and to every other variant — the
//! parity tests below run them all on the same panels. Explicit
//! `std::arch` variants are compiled in when the build targets their
//! features (`cfg(target_feature)`, as the clc engine does); the widest
//! one compiled is the one [`PanelScalar::microkernel`] runs.

use crate::scalar::{Scalar, StorageScalar};

/// Largest `MR` of any accumulation type (sizes stack scratch).
pub const MR_MAX: usize = 32;

/// Largest `MR · NR` tile of any accumulation type.
pub const TILE_MAX: usize = 256;

/// One microkernel: `(k, a_panel, b_panel, tile)`. Reads `k·MR` panel
/// elements of `A` and `k·NR` of `B`, overwrites `MR·NR` tile cells.
pub type Microkernel<T> = fn(usize, &[T], &[T], &mut [T]);

/// Accumulation types with a panel geometry and a microkernel. Sealed in
/// practice: exactly `f32` and `f64`.
pub trait PanelScalar: Scalar {
    /// Panel rows of `A` per tile (8, 16 or 32, like `NR`).
    const MR: usize;
    /// Panel columns of `B` per tile.
    const NR: usize;
    /// Every microkernel variant compiled into this build, portable first
    /// and widest last, with a short name for test diagnostics.
    const VARIANTS: &'static [(&'static str, Microkernel<Self>)];

    /// Run the widest compiled variant.
    #[inline]
    fn microkernel(k: usize, a: &[Self], b: &[Self], tile: &mut [Self]) {
        let (_, widest) = Self::VARIANTS[Self::VARIANTS.len() - 1];
        widest(k, a, b, tile);
    }
}

impl PanelScalar for f32 {
    // 32 rows are two AVX-512 vectors; 2 × 8 accumulators leave half the
    // zmm file for operands.
    const MR: usize = 32;
    const NR: usize = 8;
    const VARIANTS: &'static [(&'static str, Microkernel<f32>)] = &[
        ("portable", portable::<f32, 32, 8, 8, 4>),
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        ("avx2", avx2::f32_tile),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        ("avx512", avx512::f32_tile),
    ];
}

impl PanelScalar for f64 {
    const MR: usize = 16;
    const NR: usize = 8;
    const VARIANTS: &'static [(&'static str, Microkernel<f64>)] = &[
        ("portable", portable::<f64, 16, 8, 4, 4>),
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        ("avx2", avx2::f64_tile),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        ("avx512", avx512::f64_tile),
    ];
}

/// The portable microkernel: `SR × SC` sub-tiles (eight 128-bit
/// registers of accumulators) swept over the `MR × NR` tile, each a
/// plain `mul_add` loop that the compiler vectorises across cells.
fn portable<T: Scalar, const MR: usize, const NR: usize, const SR: usize, const SC: usize>(
    k: usize,
    a: &[T],
    b: &[T],
    tile: &mut [T],
) {
    const { assert!(MR.is_multiple_of(SR) && NR.is_multiple_of(SC)) };
    let (a, b, tile) = (&a[..k * MR], &b[..k * NR], &mut tile[..MR * NR]);
    for j0 in (0..NR).step_by(SC) {
        for i0 in (0..MR).step_by(SR) {
            let mut acc = [[T::ZERO; SR]; SC];
            for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
                let (ap, bp) = (&ap[i0..i0 + SR], &bp[j0..j0 + SC]);
                for (col, &bv) in acc.iter_mut().zip(bp) {
                    for (cell, &av) in col.iter_mut().zip(ap) {
                        *cell = av.mul_add(bv, *cell);
                    }
                }
            }
            for (j, col) in acc.iter().enumerate() {
                tile[(j0 + j) * MR + i0..][..SR].copy_from_slice(col);
            }
        }
    }
}

/// One explicit-SIMD microkernel: the `MR × NR` tile swept in sub-tiles
/// of `SV` vectors × `SC` columns, whose accumulators live in registers
/// for the whole depth. Per depth step a sub-tile loads `SV` vectors of
/// `A` and broadcasts `SC` scalars of `B`.
macro_rules! simd_tile {
    (
        $name:ident, $t:ty, $vec:ty, lanes $lanes:literal, tile $mr:literal x $nr:literal,
        sub $sv:literal x $sc:literal,
        $zero:ident, $load:ident, $set1:ident, $fmadd:ident, $store:ident
    ) => {
        pub fn $name(k: usize, a: &[$t], b: &[$t], tile: &mut [$t]) {
            const { assert!($mr % ($sv * $lanes) == 0 && $nr % $sc == 0) };
            assert!(a.len() >= k * $mr && b.len() >= k * $nr && tile.len() >= $mr * $nr);
            let (pa, pb, pt) = (a.as_ptr(), b.as_ptr(), tile.as_mut_ptr());
            for j0 in (0..$nr).step_by($sc) {
                for i0 in (0..$mr).step_by($sv * $lanes) {
                    // SAFETY: the assert above bounds every access:
                    // loads touch `p·MR + i0 + v·LANES + LANES ≤ k·MR` and
                    // `p·NR + j0 + j < k·NR`, stores stay below `MR·NR`.
                    // The build enables the intrinsics' target features.
                    unsafe {
                        let mut acc: [[$vec; $sv]; $sc] = [[$zero(); $sv]; $sc];
                        for p in 0..k {
                            let mut av: [$vec; $sv] = [$zero(); $sv];
                            for (v, x) in av.iter_mut().enumerate() {
                                *x = $load(pa.add(p * $mr + i0 + v * $lanes));
                            }
                            for (j, col) in acc.iter_mut().enumerate() {
                                let bv = $set1(*pb.add(p * $nr + j0 + j));
                                for (cell, &x) in col.iter_mut().zip(&av) {
                                    *cell = $fmadd(x, bv, *cell);
                                }
                            }
                        }
                        for (j, col) in acc.iter().enumerate() {
                            for (v, &cell) in col.iter().enumerate() {
                                $store(pt.add((j0 + j) * $mr + i0 + v * $lanes), cell);
                            }
                        }
                    }
                }
            }
        }
    };
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use core::arch::x86_64::{
        __m512, __m512d, _mm512_fmadd_pd, _mm512_fmadd_ps, _mm512_loadu_pd, _mm512_loadu_ps,
        _mm512_set1_pd, _mm512_set1_ps, _mm512_setzero_pd, _mm512_setzero_ps, _mm512_storeu_pd,
        _mm512_storeu_ps,
    };

    // One 32 × 8 f32 tile: 16 zmm accumulators.
    simd_tile!(f32_tile, f32, __m512, lanes 16, tile 32 x 8, sub 2 x 8,
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_storeu_ps);
    // One 16 × 8 f64 tile: 16 zmm accumulators.
    simd_tile!(f64_tile, f64, __m512d, lanes 8, tile 16 x 8, sub 2 x 8,
        _mm512_setzero_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_storeu_pd);
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod avx2 {
    use core::arch::x86_64::{
        __m256, __m256d, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps,
        _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd,
        _mm256_storeu_ps,
    };

    // Sixteen ymm registers: 2 × 4 accumulator sub-tiles leave room for
    // the operand vectors and the broadcast.
    simd_tile!(f32_tile, f32, __m256, lanes 8, tile 32 x 8, sub 2 x 4,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_storeu_ps);
    simd_tile!(f64_tile, f64, __m256d, lanes 4, tile 16 x 8, sub 2 x 4,
        _mm256_setzero_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_storeu_pd);
}

/// Elements of slack a panel buffer needs so that [`line_aligned`] can
/// start it on a 64-byte cache line (one line of the narrowest type).
pub const LINE_SLACK: usize = 64 / std::mem::size_of::<f32>();

/// The `len`-element sub-slice of `buf` that starts on a 64-byte cache
/// line, or at the last offset that still fits when `buf` has less than
/// [`LINE_SLACK`] spare elements.
///
/// # Panics
/// Panics if `buf` is shorter than `len`.
pub fn line_aligned<T>(buf: &mut [T], len: usize) -> &mut [T] {
    let off = buf.as_ptr().align_offset(64).min(buf.len() - len);
    &mut buf[off..off + len]
}

/// Elements of one packed operand: `rows` rounded up to whole panels of
/// `width`, each `k` deep.
#[must_use]
pub fn panels_len(rows: usize, k: usize, width: usize) -> usize {
    rows.div_ceil(width) * width * k
}

/// Widen and pack `rows × k` elements `x(i, p)` of a column-major source
/// into panels of `width` lanes (`out[t·width·k + p·width + i]`), zeroing
/// the lanes of a ragged last panel.
///
/// `lanes_contiguous` says which way the source runs: `x(i, p)` is at
/// `src[p·ld + i]` when true, `src[i·ld + p]` when false. Either way the
/// source is read along its contiguous direction and each element is
/// widened exactly once. For `op(A)` (`width = MR`) lanes are contiguous
/// when `A` is not transposed; for `op(B)ᵀ` (`width = NR`) when `B` is.
///
/// When the lanes are strided, `width` source rows are widened a depth
/// run at a time into a row-major scratch block, which is then
/// transposed into the panel in 8 × 8 blocks.
///
/// # Panics
/// Panics if `out` is not [`panels_len`] long, `width` is not 8, 16 or
/// 32 (the panel widths of every [`PanelScalar`]), or `src` is shorter
/// than the elements addressed.
pub fn pack_panels<S: StorageScalar>(
    src: &[S],
    ld: usize,
    lanes_contiguous: bool,
    rows: usize,
    k: usize,
    width: usize,
    out: &mut [S::Acc],
) {
    assert_eq!(out.len(), panels_len(rows, k, width), "panel buffer length");
    // A compile-time width turns every per-step copy into fixed-size
    // vector moves instead of short library calls.
    match width {
        8 => pack_width::<S, 8>(src, ld, lanes_contiguous, rows, k, out),
        16 => pack_width::<S, 16>(src, ld, lanes_contiguous, rows, k, out),
        32 => pack_width::<S, 32>(src, ld, lanes_contiguous, rows, k, out),
        _ => panic!("panel width {width} is not 8, 16 or 32"),
    }
}

/// Depth run of one scratch block on the strided pack path.
const RUN: usize = 64;

fn pack_width<S: StorageScalar, const W: usize>(
    src: &[S],
    ld: usize,
    lanes_contiguous: bool,
    rows: usize,
    k: usize,
    out: &mut [S::Acc],
) {
    if k == 0 {
        return;
    }
    let zero = <S::Acc as Scalar>::ZERO;
    let mut block = [[zero; RUN]; W];
    for (t, panel) in out.chunks_exact_mut(W * k).enumerate() {
        let i0 = t * W;
        let live = W.min(rows - i0);
        if lanes_contiguous {
            for (p, dst) in panel.chunks_exact_mut(W).enumerate() {
                let run = &src[p * ld + i0..];
                if live == W {
                    S::widen_slice(&run[..W], dst);
                } else {
                    S::widen_slice(&run[..live], &mut dst[..live]);
                    dst[live..].fill(zero);
                }
            }
            continue;
        }
        for p0 in (0..k).step_by(RUN) {
            let len = RUN.min(k - p0);
            for (i, row) in block.iter_mut().enumerate() {
                if i < live {
                    S::widen_slice(&src[(i0 + i) * ld + p0..][..len], &mut row[..len]);
                } else {
                    row[..len].fill(zero);
                }
            }
            transpose_block(&block, len, &mut panel[p0 * W..][..len * W]);
        }
    }
}

/// `dst[q·W + i] = rows[i][q]` for `q < len`, in 8 × 8 blocks (a shape
/// the compiler turns into register shuffles) and a per-element tail.
fn transpose_block<T: Scalar, const W: usize>(rows: &[[T; RUN]; W], len: usize, dst: &mut [T]) {
    const { assert!(W.is_multiple_of(8)) };
    let full = len / 8 * 8;
    for q0 in (0..full).step_by(8) {
        for g in (0..W).step_by(8) {
            let mut blk = [[T::ZERO; 8]; 8];
            for (i, b) in blk.iter_mut().enumerate() {
                b.copy_from_slice(&rows[g + i][q0..q0 + 8]);
            }
            for q in 0..8 {
                let d: &mut [T; 8] = (&mut dst[(q0 + q) * W + g..][..8]).try_into().unwrap();
                for (i, b) in blk.iter().enumerate() {
                    d[i] = b[q];
                }
            }
        }
    }
    for q in full..len {
        for (d, row) in dst[q * W..][..W].iter_mut().zip(rows) {
            *d = row[q];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::F16;
    use clgemm_shim::Rng;

    /// Full-mantissa nonzero values of either sign.
    fn random<T: Scalar>(rng: &mut Rng, len: usize) -> Vec<T> {
        (0..len)
            .map(|_| {
                let v = 0.5 + rng.f64() * 1.5;
                T::from_f64(if rng.bool() { v } else { -v })
            })
            .collect()
    }

    /// The scalar chain every variant must reproduce bit for bit.
    fn reference<T: PanelScalar>(k: usize, a: &[T], b: &[T]) -> Vec<T> {
        let (mr, nr) = (T::MR, T::NR);
        let mut tile = vec![T::ZERO; mr * nr];
        for j in 0..nr {
            for i in 0..mr {
                let mut acc = T::ZERO;
                for p in 0..k {
                    acc = a[p * mr + i].mul_add(b[p * nr + j], acc);
                }
                tile[j * mr + i] = acc;
            }
        }
        tile
    }

    fn variants_agree<T: PanelScalar>(seed: u64) {
        let mut rng = Rng::new(seed);
        assert!(T::MR <= MR_MAX && T::MR * T::NR <= TILE_MAX);
        assert_eq!(T::VARIANTS[0].0, "portable");
        for k in [1usize, 2, 7, 64, 129] {
            let a = random::<T>(&mut rng, k * T::MR);
            let b = random::<T>(&mut rng, k * T::NR);
            let want = reference(k, &a, &b);
            for &(name, kernel) in T::VARIANTS {
                let mut tile = vec![T::from_f64(9.0); T::MR * T::NR];
                kernel(k, &a, &b, &mut tile);
                for (cell, (got, want)) in tile.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_f64().to_bits(),
                        want.to_f64().to_bits(),
                        "{name} k={k} cell {cell}"
                    );
                }
            }
            let mut tile = vec![T::ZERO; T::MR * T::NR];
            T::microkernel(k, &a, &b, &mut tile);
            assert_eq!(tile, want, "selected variant, k={k}");
        }
    }

    #[test]
    fn every_f32_variant_is_bit_identical() {
        variants_agree::<f32>(0xF32);
    }

    #[test]
    fn every_f64_variant_is_bit_identical() {
        variants_agree::<f64>(0xF64);
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    fn avx512_builds_compile_every_variant() {
        let names: Vec<&str> = f32::VARIANTS.iter().map(|v| v.0).collect();
        assert_eq!(names, ["portable", "avx2", "avx512"]);
        assert_eq!(f64::VARIANTS.len(), 3);
    }

    /// `x(i, p)` of a `rows × k` operand stored either way round.
    fn source(rows: usize, k: usize, ld: usize, lanes_contiguous: bool) -> Vec<F16> {
        let len = if lanes_contiguous {
            ld * (k - 1) + rows
        } else {
            ld * (rows - 1) + k
        };
        (0..len).map(|v| F16(0x3c00 + (v % 1000) as u16)).collect()
    }

    #[test]
    fn line_aligned_panels_start_on_a_cache_line() {
        let mut buf = vec![0f64; 100 + LINE_SLACK];
        for skip in 0..8 {
            let panel = line_aligned(&mut buf[skip..], 100);
            assert_eq!(panel.len(), 100);
            assert_eq!(panel.as_ptr() as usize % 64, 0);
        }
        // Without slack the slice still fits, just unaligned if need be.
        assert_eq!(line_aligned(&mut buf[1..101], 100).len(), 100);
    }

    #[test]
    fn panels_hold_the_operand_and_zero_padding() {
        for lanes_contiguous in [true, false] {
            for (rows, k, width) in [(5, 3, 8), (8, 70, 8), (17, 9, 16), (33, 65, 32), (1, 1, 8)] {
                let ld = if lanes_contiguous { rows + 2 } else { k + 1 };
                let src = source(rows, k, ld, lanes_contiguous);
                let mut out = vec![f32::NAN; panels_len(rows, k, width)];
                pack_panels(&src, ld, lanes_contiguous, rows, k, width, &mut out);
                for (idx, &v) in out.iter().enumerate() {
                    let (t, p, lane) = (idx / (width * k), idx / width % k, idx % width);
                    let i = t * width + lane;
                    let want = if i >= rows {
                        0.0
                    } else if lanes_contiguous {
                        src[p * ld + i].widen()
                    } else {
                        src[i * ld + p].widen()
                    };
                    assert_eq!(v.to_bits(), want.to_bits(), "{rows}x{k}/{width} at {idx}");
                }
            }
        }
    }
}
