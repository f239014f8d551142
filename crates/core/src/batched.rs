//! Strided-batched GEMM: many same-shaped problems through one call.
//!
//! The serving workloads the routine layer sees are rarely one big GEMM;
//! they are *batches* of identical small problems (one weight matrix
//! against many activations, attention heads, per-sample covariance).
//! Looping [`TunedGemm::gemm`] over the entries pays the full routine
//! fixed cost — workspace acquisition, tile selection, pack specs, model
//! bookkeeping, and (on device) a kernel launch — once *per entry*.
//! [`TunedGemm::gemm_batch`] pays it once per *batch*:
//!
//! * One [`GemmBatch`] descriptor carries the shared shape/type/layout
//!   and per-matrix strides; a zero stride marks a shared operand that
//!   is packed exactly once.
//! * Entries execute in parallel through the shim `par` harness, each
//!   worker reusing its own grow-only [`BatchWorkspace`] slot — zero
//!   allocations after the first call on either path, gated by
//!   [`BatchWorkspace::grows`].
//! * Small shapes (every dimension at or below [`DIRECT_BATCH_MAX`])
//!   take the direct path: each entry widens `op(A)` once into `MR`-row
//!   panels and `op(B)` once into `NR`-column panels (a shared operand
//!   once per call), and an explicit-SIMD `MR × NR` microkernel
//!   ([`clgemm_blas::panel`]) runs over every tile and merges straight
//!   into `C`. There is no `C` staging and no paper-layout copy; the
//!   packed pipeline pays four `O(N²)` copy passes per entry into the
//!   tuned layouts and runs the paper-shaped tiled kernel.
//! * Storage may be `f16`/`bf16` ([`StorageScalar`]): operands widen to
//!   the accumulation type once, on pack, the kernel runs its usual
//!   `f32` FMA chain, and results narrow once with round-to-nearest-even
//!   on merge. Widening is exact, so every stored type is bit-identical
//!   to computing on pre-widened matrices.
//!
//! Numerics are the routine's own: every `C` element sees one
//! ascending-`p` FMA chain and one `α·acc + β·old` merge, so the batched
//! paths are bit-identical to a loop of single-GEMM calls — the property
//! suite in `tests/tests/batched.rs` pins this for all four storage
//! types.

use crate::profile::launch_profile;
use crate::routine::{PackDecision, TunedGemm, SERIAL_PACK_MAX};
use crate::tile::{TileDecision, TileSelector};
use clgemm_blas::layout::{round_up, PackedDims};
use clgemm_blas::pack::{merge_slice_narrow, pack_slice_widen, stage_slice_widen, PackSpec};
use clgemm_blas::panel::{
    line_aligned, pack_panels, panels_len, PanelScalar, LINE_SLACK, MR_MAX, TILE_MAX,
};
use clgemm_blas::scalar::{Scalar, StorageScalar};
use clgemm_blas::workspace::{BatchWorkspace, WorkspaceScalar};
use clgemm_blas::{BatchError, GemmBatch, Trans};
use clgemm_device::estimate_batch_seconds;
use clgemm_shim::par::{par_items_mut, worker_count};
use clgemm_trace::Registry;

/// Batches whose `m`, `n` and `k` are all at or below this run the
/// panel-packed direct path instead of the pack/stage/merge pipeline.
///
/// Benched in `BENCH_batched.json` (`crossover` table): on the bench
/// host the direct path wins at every swept edge (16³–512³), because
/// the packed pipeline pays four `O(N²)` copy passes per entry and runs
/// the paper-shaped tiled kernel, while the direct path packs each
/// operand once into microkernel panels. The threshold is still kept
/// finite — and conservative — because the direct path packs whole
/// `k`-deep panels without cache blocking: 256³ is the last swept edge
/// where one entry's three f32 slabs (~768 KiB) fit a typical
/// last-level-cache slice. Past it we hand over to the packed pipeline,
/// whose blocked traffic is layout-independent.
pub const DIRECT_BATCH_MAX: usize = 256;

/// Which host data path executed a batched call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPath {
    /// Widen-once panel packing and an `MR × NR` SIMD microkernel; no
    /// `C` staging.
    Direct,
    /// Per-entry pack/stage/kernel/merge, shared operands packed once.
    Packed,
}

impl BatchPath {
    /// Stable lowercase tag for metrics and the bench JSON.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            BatchPath::Direct => "direct",
            BatchPath::Packed => "packed",
        }
    }
}

impl std::fmt::Display for BatchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Options controlling [`TunedGemm::gemm_batch_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Force a specific path instead of the size-based choice (the bench
    /// crossover sweep measures both paths on every shape this way).
    pub force_path: Option<BatchPath>,
}

/// The record of one batched call: path taken, fan-out, and the modelled
/// time the serving layer compares wall clocks against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRun {
    /// The data path that executed.
    pub path: BatchPath,
    /// Entries in the batch.
    pub batch: usize,
    /// Parallel workers the entries fanned out to.
    pub workers: usize,
    /// Modelled seconds for the whole batch.
    pub total: f64,
    /// Effective batch GFlop/s (`2·m·n·k·batch / total`).
    pub gflops: f64,
    /// The register-tile decision (packed path only).
    pub tile: Option<TileDecision>,
    /// The copy-path decision (packed path only; per-entry copies are
    /// serial — parallelism comes from the batch dimension).
    pub pack: Option<PackDecision>,
    /// `true` when operands widened from a narrow storage type on pack.
    pub widened: bool,
}

impl BatchRun {
    fn empty(path: BatchPath, batch: usize) -> BatchRun {
        BatchRun {
            path,
            batch,
            workers: 0,
            total: 0.0,
            gflops: 0.0,
            tile: None,
            pack: None,
            widened: false,
        }
    }
}

impl TunedGemm {
    /// Strided-batched GEMM `C_i ← α·op(A_i)·op(B_i) + β·C_i` over
    /// column-major slabs, with the default size-based path choice.
    ///
    /// # Errors
    /// Returns [`BatchError`] when the descriptor is inconsistent with
    /// the slab lengths (see [`GemmBatch::validate`]).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_batch<S>(
        &self,
        desc: &GemmBatch,
        alpha: S::Acc,
        a: &[S],
        b: &[S],
        beta: S::Acc,
        c: &mut [S],
        ws: &mut BatchWorkspace,
    ) -> Result<BatchRun, BatchError>
    where
        S: StorageScalar,
        S::Acc: WorkspaceScalar,
    {
        self.gemm_batch_with(desc, alpha, a, b, beta, c, ws, &BatchOptions::default())
    }

    /// [`TunedGemm::gemm_batch`] with explicit [`BatchOptions`].
    ///
    /// # Errors
    /// Returns [`BatchError`] when the descriptor is inconsistent with
    /// the slab lengths.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_batch_with<S>(
        &self,
        desc: &GemmBatch,
        alpha: S::Acc,
        a: &[S],
        b: &[S],
        beta: S::Acc,
        c: &mut [S],
        ws: &mut BatchWorkspace,
        opts: &BatchOptions,
    ) -> Result<BatchRun, BatchError>
    where
        S: StorageScalar,
        S::Acc: WorkspaceScalar,
    {
        let _span = clgemm_trace::span!("routine.gemm_batch");
        desc.validate(a.len(), b.len(), c.len())?;
        let (batch, m, n, k) = (desc.batch, desc.m, desc.n, desc.k);
        let reg = Registry::global();
        reg.histogram("routine_batch_size", 1.0)
            .observe(batch as u64);

        let small = m.max(n).max(k) <= DIRECT_BATCH_MAX;
        let path = opts.force_path.unwrap_or(if small {
            BatchPath::Direct
        } else {
            BatchPath::Packed
        });

        if batch == 0 || m == 0 || n == 0 {
            return Ok(BatchRun::empty(path, batch));
        }
        if k == 0 || alpha == S::Acc::ZERO {
            // The product term is an empty (or zeroed) sum: C ← β·C per
            // entry, with the kernel's own merge arithmetic so the result
            // is bit-identical to running the full path.
            for i in 0..batch {
                let co = desc.c_offset(i);
                for j in 0..n {
                    let col = &mut c[co + j * desc.ldc..co + j * desc.ldc + m];
                    for cell in col.iter_mut() {
                        let old = cell.widen();
                        *cell = S::narrow(alpha.mul_add(S::Acc::ZERO, beta * old));
                    }
                }
            }
            return Ok(BatchRun::empty(path, batch));
        }

        reg.counter_labeled("routine_batch_path_total", &[("path", path.tag())])
            .inc();
        let workers = worker_count(batch);
        let mut entries = split_c_entries(c, desc);
        let run = match path {
            BatchPath::Direct => {
                direct_batch(desc, alpha, a, b, beta, &mut entries, ws, workers);
                let mut run = BatchRun::empty(path, batch);
                run.workers = workers;
                run.total = self.predict_batch_direct::<S>(desc);
                run.widened = S::WIDENS;
                run
            }
            BatchPath::Packed => self.packed_batch(desc, alpha, a, b, beta, &mut entries, ws),
        };
        Ok(BatchRun {
            gflops: if run.total > 0.0 {
                desc.flops() / run.total / 1e9
            } else {
                0.0
            },
            ..run
        })
    }

    /// The packed arm: shared operands packed once up front, per-entry
    /// pack/stage/kernel/merge fanned out over per-worker workspaces.
    #[allow(clippy::too_many_arguments)]
    fn packed_batch<S>(
        &self,
        desc: &GemmBatch,
        alpha: S::Acc,
        a: &[S],
        b: &[S],
        beta: S::Acc,
        entries: &mut [&mut [S]],
        ws: &mut BatchWorkspace,
    ) -> BatchRun
    where
        S: StorageScalar,
        S::Acc: WorkspaceScalar,
    {
        let (batch, m, n, k) = (desc.batch, desc.m, desc.n, desc.k);
        let p = *self.params(S::Acc::PRECISION);
        let kp = round_up(k, p.k_multiple());
        let spec_a = PackSpec {
            trans: desc.ty.ta.flipped(),
            layout: p.layout_a,
            wwg: p.mwg,
            kwg: p.kwg,
        };
        let spec_b = PackSpec {
            trans: desc.ty.tb,
            layout: p.layout_b,
            wwg: p.nwg,
            kwg: p.kwg,
        };
        let da = PackedDims::new(kp, round_up(m, p.mwg), p.mwg, p.kwg)
            .expect("padded dims divide the blocking");
        let db = PackedDims::new(kp, round_up(n, p.nwg), p.nwg, p.kwg)
            .expect("padded dims divide the blocking");
        let (mp, np) = (da.width, db.width);
        let decision = TileSelector::host().select(S::Acc::PRECISION, (p.mwi(), p.nwi()), mp, np);
        let (adims, bdims) = (desc.a_dims(), desc.b_dims());

        let convert = if S::WIDENS {
            Some(Registry::global().counter("routine_convert_on_pack_total"))
        } else {
            None
        };
        let count_convert = |packs: u64| {
            if let Some(ctr) = &convert {
                ctr.add(packs);
            }
        };

        let workers = worker_count(batch);
        let (shared, worker_ws) = ws.parts(workers);
        // Shared operands are packed exactly once, into the shared pool;
        // per-entry operands pack inside the fan-out, into worker pools.
        let (sa, sb, _) = shared.pool::<S::Acc>().buffers(
            if desc.shared_a() { da.len() } else { 0 },
            if desc.shared_b() { db.len() } else { 0 },
            0,
        );
        if desc.shared_a() {
            pack_slice_widen(
                &a[..desc.a_extent()],
                adims.0,
                adims.1,
                desc.lda,
                spec_a,
                k,
                m,
                sa,
                da,
            );
            count_convert(1);
        }
        if desc.shared_b() {
            pack_slice_widen(
                &b[..desc.b_extent()],
                bdims.0,
                bdims.1,
                desc.ldb,
                spec_b,
                k,
                n,
                sb,
                db,
            );
            count_convert(1);
        }
        let (sa, sb): (&[S::Acc], &[S::Acc]) = (sa, sb);

        par_items_mut(entries, worker_ws, |i, centry, w| {
            let (pa, pb, staged) = w.pool::<S::Acc>().buffers(
                if desc.shared_a() { 0 } else { da.len() },
                if desc.shared_b() { 0 } else { db.len() },
                mp * np,
            );
            let pa: &[S::Acc] = if desc.shared_a() {
                sa
            } else {
                let ae = &a[desc.a_offset(i)..desc.a_offset(i) + desc.a_extent()];
                pack_slice_widen(ae, adims.0, adims.1, desc.lda, spec_a, k, m, pa, da);
                count_convert(1);
                pa
            };
            let pb: &[S::Acc] = if desc.shared_b() {
                sb
            } else {
                let be = &b[desc.b_offset(i)..desc.b_offset(i) + desc.b_extent()];
                pack_slice_widen(be, bdims.0, bdims.1, desc.ldb, spec_b, k, n, pb, db);
                count_convert(1);
                pb
            };
            stage_slice_widen(centry, m, n, desc.ldc, p.mwg, p.nwg, staged);
            crate::executor::run_native_fast(
                mp,
                np,
                kp,
                alpha,
                pa,
                da,
                p.layout_a,
                pb,
                db,
                p.layout_b,
                beta,
                staged,
                decision.tile,
            );
            merge_slice_narrow(staged, p.mwg, p.nwg, centry, m, n, desc.ldc);
        });

        BatchRun {
            path: BatchPath::Packed,
            batch,
            workers,
            total: self.predict_batch(S::Acc::PREC_TAG == 'D', desc),
            gflops: 0.0, // filled by the caller from `total`
            tile: Some(decision),
            pack: Some(PackDecision {
                serial: true,
                threshold: SERIAL_PACK_MAX,
            }),
            widened: S::WIDENS,
        }
    }

    /// Modelled seconds for a batch through the packed path: per-entry
    /// copies (shared operands once), kernel bodies back to back with one
    /// launch ([`estimate_batch_seconds`]).
    #[must_use]
    pub fn predict_batch(&self, double_precision: bool, desc: &GemmBatch) -> f64 {
        let (batch, m, n, k) = (desc.batch, desc.m, desc.n, desc.k);
        if batch == 0 || m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let one = self.predict(double_precision, desc.ty, m, n, k);
        let nb = batch as f64;
        let pack_a = if desc.shared_a() {
            one.pack_a
        } else {
            one.pack_a * nb
        };
        let pack_b = if desc.shared_b() {
            one.pack_b
        } else {
            one.pack_b * nb
        };
        let precision = if double_precision {
            clgemm_blas::scalar::Precision::F64
        } else {
            clgemm_blas::scalar::Precision::F32
        };
        let p = self.params(precision);
        let kp = round_up(k, p.k_multiple());
        let prof = launch_profile(p, self.device(), round_up(m, p.mwg), round_up(n, p.nwg), kp);
        let kernel = estimate_batch_seconds(self.device(), &prof, batch).unwrap_or(f64::INFINITY);
        pack_a + pack_b + one.stage_c * nb + kernel
    }

    /// Modelled seconds for a batch through the direct path: `batch`
    /// guarded in-place kernel bodies with one launch.
    #[must_use]
    pub fn predict_batch_direct<S: StorageScalar>(&self, desc: &GemmBatch) -> f64 {
        let (batch, m, n, k) = (desc.batch, desc.m, desc.n, desc.k);
        if batch == 0 || m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let dp = crate::direct::DirectParams::default_for(desc.ty, <S::Acc as Scalar>::PRECISION);
        let prof = crate::direct::direct_profile(&dp, self.device(), m, n, k);
        estimate_batch_seconds(self.device(), &prof, batch).unwrap_or(f64::INFINITY)
    }
}

/// The direct arm: each entry widens `op(A)` into `MR`-row panels and
/// `op(B)` into `NR`-column panels once, in its worker's pool (a shared
/// operand once per call, in the shared pool), then runs the microkernel
/// over every tile and merges straight into `C`: no staging or padding
/// of `C`.
#[allow(clippy::too_many_arguments)]
fn direct_batch<S>(
    desc: &GemmBatch,
    alpha: S::Acc,
    a: &[S],
    b: &[S],
    beta: S::Acc,
    entries: &mut [&mut [S]],
    ws: &mut BatchWorkspace,
    workers: usize,
) where
    S: StorageScalar,
    S::Acc: WorkspaceScalar,
{
    let (m, n, k) = (desc.m, desc.n, desc.k);
    let (mr, nr) = (S::Acc::MR, S::Acc::NR);
    let (la, lb) = (panels_len(m, k, mr), panels_len(n, k, nr));
    // op(A)[i][p] runs along i when A is stored untransposed; op(B)[p][j]
    // runs along j when B is stored transposed.
    let a_lanes = desc.ty.ta == Trans::No;
    let b_lanes = desc.ty.tb == Trans::Yes;
    let pack_a = |src: &[S], out: &mut [S::Acc]| {
        pack_panels(src, desc.lda, a_lanes, m, k, mr, out);
    };
    let pack_b = |src: &[S], out: &mut [S::Acc]| {
        pack_panels(src, desc.ldb, b_lanes, n, k, nr, out);
    };
    let convert = S::WIDENS.then(|| Registry::global().counter("routine_convert_on_pack_total"));
    let count_convert = |packs: u64| {
        if let Some(ctr) = &convert {
            ctr.add(packs);
        }
    };

    // Every buffer carries a cache line of slack so its panels can start
    // on a line boundary: unaligned 64-byte loads split across lines.
    let want = |shared: bool, len: usize| if shared { len + LINE_SLACK } else { 0 };
    let (shared, worker_ws) = ws.parts(workers);
    let (sa, sb, _) =
        shared
            .pool::<S::Acc>()
            .buffers(want(desc.shared_a(), la), want(desc.shared_b(), lb), 0);
    let sa: &[S::Acc] = if desc.shared_a() {
        let sa = line_aligned(sa, la);
        pack_a(&a[..desc.a_extent()], sa);
        count_convert(1);
        sa
    } else {
        &[]
    };
    let sb: &[S::Acc] = if desc.shared_b() {
        let sb = line_aligned(sb, lb);
        pack_b(&b[..desc.b_extent()], sb);
        count_convert(1);
        sb
    } else {
        &[]
    };

    par_items_mut(entries, worker_ws, |i, centry, w| {
        let (pa, pb, _) =
            w.pool::<S::Acc>()
                .buffers(want(!desc.shared_a(), la), want(!desc.shared_b(), lb), 0);
        let pa: &[S::Acc] = if desc.shared_a() {
            sa
        } else {
            let pa = line_aligned(pa, la);
            pack_a(&a[desc.a_offset(i)..][..desc.a_extent()], pa);
            count_convert(1);
            pa
        };
        let pb: &[S::Acc] = if desc.shared_b() {
            sb
        } else {
            let pb = line_aligned(pb, lb);
            pack_b(&b[desc.b_offset(i)..][..desc.b_extent()], pb);
            count_convert(1);
            pb
        };
        direct_tiles(m, n, k, alpha, pa, pb, beta, centry, desc.ldc);
    });
}

/// Split the `C` slab into one disjoint mutable sub-slice per entry.
/// Validation already rejected overlapping strides for `batch > 1`.
fn split_c_entries<'a, S>(c: &'a mut [S], desc: &GemmBatch) -> Vec<&'a mut [S]> {
    let extent = desc.c_extent();
    let mut rest = c;
    let mut out = Vec::with_capacity(desc.batch);
    for i in 0..desc.batch {
        let stride = if i + 1 < desc.batch {
            desc.stride_c
        } else {
            extent
        };
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(stride);
        out.push(&mut head[..extent]);
        rest = tail;
    }
    out
}

/// One entry's tiles: the selected microkernel over every `(A panel,
/// B panel)` pair, then the merge of the valid `rows × cols` cells. The
/// `A` panel stays cache-resident while the `B` panels stream past it.
#[allow(clippy::too_many_arguments)]
fn direct_tiles<S: StorageScalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: S::Acc,
    pa: &[S::Acc],
    pb: &[S::Acc],
    beta: S::Acc,
    c: &mut [S],
    ldc: usize,
) {
    let (mr, nr) = (S::Acc::MR, S::Acc::NR);
    let mut tile = [S::Acc::ZERO; TILE_MAX];
    let tile = &mut tile[..mr * nr];
    for (it, ap) in pa.chunks_exact(mr * k).enumerate() {
        let i0 = it * mr;
        let rows = mr.min(m - i0);
        for (jt, bp) in pb.chunks_exact(nr * k).enumerate() {
            let j0 = jt * nr;
            S::Acc::microkernel(k, ap, bp, tile);
            for (j, acc) in tile.chunks_exact(mr).take(n - j0).enumerate() {
                let col = &mut c[(j0 + j) * ldc + i0..];
                // A full-height run gets a compile-time length.
                if rows == mr {
                    merge_run(alpha, acc, beta, &mut col[..mr]);
                } else {
                    merge_run(alpha, &acc[..rows], beta, &mut col[..rows]);
                }
            }
        }
    }
}

/// `c ← narrow(α·acc + β·widen(c))` over one column run of a tile: the
/// routine's merge arithmetic, applied once per cell.
#[inline(always)]
fn merge_run<S: StorageScalar>(alpha: S::Acc, acc: &[S::Acc], beta: S::Acc, c: &mut [S]) {
    let mut wide = [S::Acc::ZERO; MR_MAX];
    let wide = &mut wide[..c.len()];
    S::widen_slice(c, wide);
    for (old, &v) in wide.iter_mut().zip(acc) {
        *old = alpha.mul_add(v, beta * *old);
    }
    S::narrow_slice(wide, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::small_test_params;
    use clgemm_blas::matrix::{Matrix, StorageOrder};
    use clgemm_blas::scalar::{Precision, F16};
    use clgemm_blas::GemmType;
    use clgemm_device::DeviceId;

    fn tuned() -> TunedGemm {
        TunedGemm::new(
            DeviceId::Tahiti.spec(),
            small_test_params(Precision::F64),
            small_test_params(Precision::F32),
        )
    }

    /// Deterministic nonzero slab contents (avoiding exact zeros keeps
    /// signed-zero corner cases out of the bit-equality assertions).
    fn fill<S: StorageScalar>(slab: &mut [S], seed: usize) {
        for (idx, cell) in slab.iter_mut().enumerate() {
            let v = ((idx * 7 + seed * 13) % 23) as f64 * 0.125 - 1.0;
            *cell = S::from_f64(if v == 0.0 { 0.375 } else { v });
        }
    }

    /// Widen one column-major slab entry into an accumulator matrix.
    fn entry_matrix<S: StorageScalar>(
        slab: &[S],
        off: usize,
        rows: usize,
        cols: usize,
        ld: usize,
    ) -> Matrix<S::Acc> {
        Matrix::from_fn(rows, cols, StorageOrder::ColMajor, |i, j| {
            slab[off + j * ld + i].widen()
        })
    }

    /// Oracle: loop of single-GEMM calls on widened entries, narrowed on
    /// the way out. `gemm_batch` must match it bit for bit.
    fn check_against_looped_single<S>(desc: &GemmBatch, opts: &BatchOptions)
    where
        S: StorageScalar,
        S::Acc: WorkspaceScalar,
    {
        let tg = tuned();
        let (ar, ac) = desc.a_dims();
        let (br, bc) = desc.b_dims();
        let mut a = vec![S::default(); required_len(desc.batch, desc.stride_a, desc.a_extent())];
        let mut b = vec![S::default(); required_len(desc.batch, desc.stride_b, desc.b_extent())];
        let mut c = vec![S::default(); desc.c_required()];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        let c0 = c.clone();
        let alpha = S::Acc::from_f64(1.25);
        let beta = S::Acc::from_f64(-0.5);

        let mut ws = BatchWorkspace::new();
        let run = tg
            .gemm_batch_with(desc, alpha, &a, &b, beta, &mut c, &mut ws, opts)
            .unwrap();
        assert_eq!(run.batch, desc.batch);

        for i in 0..desc.batch {
            let am = entry_matrix(&a, desc.a_offset(i), ar, ac, desc.lda);
            let bm = entry_matrix(&b, desc.b_offset(i), br, bc, desc.ldb);
            let mut cm = entry_matrix(&c0, desc.c_offset(i), desc.m, desc.n, desc.ldc);
            tg.gemm(desc.ty, alpha, &am, &bm, beta, &mut cm);
            for j in 0..desc.n {
                for r in 0..desc.m {
                    let got = c[desc.c_offset(i) + j * desc.ldc + r];
                    let want = S::narrow(cm.at(r, j));
                    assert_eq!(
                        got, want,
                        "{desc} entry {i} ({r},{j}) {} diverges from looped single",
                        run.path
                    );
                }
            }
        }
    }

    fn required_len(batch: usize, stride: usize, extent: usize) -> usize {
        if batch == 0 || extent == 0 {
            0
        } else {
            stride * (batch - 1) + extent
        }
    }

    #[test]
    fn direct_path_matches_looped_single_for_all_types() {
        for ty in GemmType::ALL {
            let desc = GemmBatch::packed(ty, 4, 10, 8, 6);
            check_against_looped_single::<f64>(&desc, &BatchOptions::default());
        }
    }

    #[test]
    fn packed_path_matches_looped_single_for_all_types() {
        let opts = BatchOptions {
            force_path: Some(BatchPath::Packed),
        };
        for ty in GemmType::ALL {
            let desc = GemmBatch::packed(ty, 3, 10, 8, 6);
            check_against_looped_single::<f32>(&desc, &opts);
        }
    }

    #[test]
    fn half_storage_matches_widened_oracle_on_both_paths() {
        for force in [None, Some(BatchPath::Packed)] {
            let desc = GemmBatch::packed(GemmType::NN, 5, 9, 7, 11);
            check_against_looped_single::<F16>(&desc, &BatchOptions { force_path: force });
        }
    }

    #[test]
    fn shared_operands_and_padded_strides_work() {
        let mut desc = GemmBatch::packed(GemmType::NN, 6, 8, 8, 8).with_shared_a();
        desc.ldc = 11;
        desc.stride_c = 11 * 8 + 3;
        check_against_looped_single::<f64>(&desc, &BatchOptions::default());
        let desc = GemmBatch::packed(GemmType::NT, 4, 8, 8, 8).with_shared_b();
        check_against_looped_single::<f32>(
            &desc,
            &BatchOptions {
                force_path: Some(BatchPath::Packed),
            },
        );
    }

    #[test]
    fn batch_workspace_reaches_steady_state() {
        let tg = tuned();
        let mut a = vec![0f32; 8 * 16 * 16];
        let mut b = vec![0f32; 8 * 16 * 16];
        let mut c = vec![0f32; 8 * 16 * 16];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        // Both paths size their pools on the first call and never again:
        // the packed arm for its staging, the direct arm for its panels
        // (per-entry operands in the worker pools, a shared one in the
        // shared pool).
        for desc in [
            GemmBatch::packed(GemmType::NN, 8, 16, 16, 16),
            GemmBatch::packed(GemmType::TT, 8, 16, 16, 16).with_shared_a(),
        ] {
            for path in [BatchPath::Packed, BatchPath::Direct] {
                let opts = BatchOptions {
                    force_path: Some(path),
                };
                let mut ws = BatchWorkspace::new();
                let run = tg
                    .gemm_batch_with(&desc, 1.0, &a, &b, 0.5, &mut c, &mut ws, &opts)
                    .unwrap();
                assert_eq!(run.path, path);
                let grows = ws.grows();
                assert!(grows > 0, "first {path} batch must size its pools");
                for _ in 0..3 {
                    tg.gemm_batch_with(&desc, 1.0, &a, &b, 0.5, &mut c, &mut ws, &opts)
                        .unwrap();
                }
                assert_eq!(ws.grows(), grows, "{path} steady state must not reallocate");
            }
        }
    }

    #[test]
    fn size_routes_the_path_and_descriptor_is_validated() {
        let tg = tuned();
        let mut ws = BatchWorkspace::new();
        // 128³ sits on the direct side; one past the threshold in any
        // dimension flips it.
        let small = GemmBatch::packed(GemmType::NN, 1, 128, 128, 128);
        let n = 128 * 128;
        let mut a = vec![0f32; n];
        let mut b = vec![0f32; n];
        let mut c = vec![0f32; n];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        let run = tg
            .gemm_batch(&small, 1.0f32, &a, &b, 0.0, &mut c, &mut ws)
            .unwrap();
        assert_eq!(run.path, BatchPath::Direct);
        assert!(run.total > 0.0 && run.gflops > 0.0);
        assert_eq!(run.tile, None);

        let over = DIRECT_BATCH_MAX + 1;
        let big = GemmBatch::packed(GemmType::NN, 1, over, 16, 16);
        let mut a = vec![0f32; over * 16];
        let b = vec![0f32; 16 * 16];
        let mut cc = vec![0f32; over * 16];
        fill(&mut a, 1);
        fill(&mut cc, 3);
        let run = tg
            .gemm_batch(&big, 1.0f32, &a, &b, 0.0, &mut cc, &mut ws)
            .unwrap();
        assert_eq!(run.path, BatchPath::Packed);
        assert!(run.tile.is_some());
        assert_eq!(run.pack.unwrap().threshold, SERIAL_PACK_MAX);

        // Short slabs are rejected, not UB.
        let bad = GemmBatch::packed(GemmType::NN, 2, 128, 128, 128);
        assert!(tg
            .gemm_batch(&bad, 1.0f32, &a, &b, 0.0, &mut c, &mut ws)
            .is_err());
    }

    #[test]
    fn degenerate_batches_follow_blas_semantics() {
        let tg = tuned();
        let mut ws = BatchWorkspace::new();
        // batch == 0 and m == 0 touch nothing.
        for desc in [
            GemmBatch::packed(GemmType::NN, 0, 4, 4, 4),
            GemmBatch::packed(GemmType::NN, 3, 0, 4, 4),
            GemmBatch::packed(GemmType::NN, 3, 4, 0, 4),
        ] {
            let run = tg
                .gemm_batch::<f64>(&desc, 1.0, &[], &[], 0.5, &mut [], &mut ws)
                .unwrap();
            assert_eq!(run.total, 0.0);
            assert_eq!(ws.grows(), 0);
        }
        // k == 0 scales C by beta through the kernel's merge arithmetic.
        let desc = GemmBatch::packed(GemmType::NN, 2, 3, 3, 0);
        let mut c: Vec<f64> = (0..18).map(|i| i as f64 + 1.0).collect();
        let c0 = c.clone();
        tg.gemm_batch::<f64>(&desc, 2.0, &[], &[], -0.5, &mut c, &mut ws)
            .unwrap();
        for (got, want) in c.iter().zip(c0.iter().map(|v| -0.5 * v)) {
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn batched_metrics_are_recorded() {
        let tg = tuned();
        let reg = Registry::global();
        let before_direct = reg
            .counter_labeled("routine_batch_path_total", &[("path", "direct")])
            .get();
        let before_convert = reg.counter("routine_convert_on_pack_total").get();
        let hist_before = reg.histogram("routine_batch_size", 1.0).count();

        let desc = GemmBatch::packed(GemmType::NN, 3, 8, 8, 8);
        let mut a = vec![F16::default(); 3 * 64];
        let mut b = vec![F16::default(); 3 * 64];
        let mut c = vec![F16::default(); 3 * 64];
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        let mut ws = BatchWorkspace::new();
        tg.gemm_batch(&desc, 1.0f32, &a, &b, 0.0, &mut c, &mut ws)
            .unwrap();
        tg.gemm_batch_with(
            &desc,
            1.0f32,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
            &BatchOptions {
                force_path: Some(BatchPath::Packed),
            },
        )
        .unwrap();

        assert!(
            reg.counter_labeled("routine_batch_path_total", &[("path", "direct")])
                .get()
                > before_direct
        );
        assert!(
            reg.counter("routine_convert_on_pack_total").get() >= before_convert + 6,
            "three entries × two operands widened on pack"
        );
        assert!(reg.histogram("routine_batch_size", 1.0).count() >= hist_before + 2);
    }
}
