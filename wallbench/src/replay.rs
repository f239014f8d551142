//! Replays of one served GEMM, outside the timed region: the
//! out-of-band oracle the correctness gate compares against, and the
//! traced run's layer-by-layer replay of the routine's fast path.

use crate::spans::Tracer;
use clgemm::executor::run_native_fast;
use clgemm::params::{small_test_params, KernelParams};
use clgemm::routine::{GemmOptions, TunedGemm, SERIAL_PACK_MAX};
use clgemm::tile::TileSelector;
use clgemm_blas::layout::{round_up, PackedDims};
use clgemm_blas::matrix::Matrix;
use clgemm_blas::pack::{
    merge_c, merge_c_par, pack_into, pack_into_par, stage_c_into, stage_c_into_par, PackSpec,
};
use clgemm_blas::scalar::Precision;
use clgemm_blas::{GemmType, Workspace, WorkspaceScalar};
use clgemm_device::{DeviceId, DeviceSpec};
use clgemm_serve::GemmPayload;
use std::collections::HashMap;

/// The modelled device behind a response's code name.
pub fn device(code_name: &str) -> DeviceSpec {
    DeviceId::ALL
        .iter()
        .map(|id| id.spec())
        .find(|s| s.code_name == code_name)
        .unwrap_or_else(|| panic!("unknown device {code_name}"))
}

/// `TunedGemm` instances for `(device, params)` pairs, built once: the
/// oracle runs with exactly the device and parameters a response names.
#[derive(Default)]
pub struct Oracles {
    tuned: HashMap<(String, KernelParams), TunedGemm>,
    ws: Workspace,
}

impl Oracles {
    /// Recompute `original` (the operands as submitted) with the given
    /// device, parameters and engine; returns whether the result equals
    /// the `C` of `served` bit for bit.
    pub fn agrees(
        &mut self,
        code_name: &str,
        params: KernelParams,
        ty: GemmType,
        original: GemmPayload,
        served: &GemmPayload,
        reference: bool,
    ) -> bool {
        let opts = if reference {
            GemmOptions::reference()
        } else {
            GemmOptions::default()
        };
        let tg = self
            .tuned
            .entry((code_name.to_string(), params))
            .or_insert_with(|| tuned_for(device(code_name), params));
        let ws = &mut self.ws;
        match (original, served) {
            (
                GemmPayload::F64 {
                    alpha,
                    a,
                    b,
                    beta,
                    mut c,
                },
                GemmPayload::F64 { c: got, .. },
            ) => {
                tg.gemm_with(ty, alpha, &a, &b, beta, &mut c, ws, &opts);
                same_bits(c.as_slice(), got.as_slice(), f64::to_bits)
            }
            (
                GemmPayload::F32 {
                    alpha,
                    a,
                    b,
                    beta,
                    mut c,
                },
                GemmPayload::F32 { c: got, .. },
            ) => {
                tg.gemm_with(ty, alpha, &a, &b, beta, &mut c, ws, &opts);
                same_bits(c.as_slice(), got.as_slice(), f32::to_bits)
            }
            _ => false,
        }
    }
}

/// Equal length and equal bit patterns, element by element.
pub fn same_bits<T: Copy, B: PartialEq>(x: &[T], y: &[T], bits: impl Fn(T) -> B) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(&a, &b)| bits(a) == bits(b))
}

/// The serving layer's bundle for one precision's parameters: the other
/// precision carries the conservative test kernel.
pub fn tuned_for(spec: DeviceSpec, params: KernelParams) -> TunedGemm {
    match params.precision {
        Precision::F64 => TunedGemm::new(spec, params, small_test_params(Precision::F32)),
        Precision::F32 => TunedGemm::new(spec, small_test_params(Precision::F64), params),
    }
}

/// Exact work and traffic of one replayed GEMM.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutineWork {
    /// `2·mp·np·kp` over the padded problem.
    pub padded_flops: f64,
    /// Bytes read and written by pack A/B, stage C and merge C.
    pub copy_bytes: f64,
}

/// The routine's fast path for one GEMM, phase by phase, each phase in
/// its own span: pack A, pack B, stage C, microkernel, merge C. Mirrors
/// `TunedGemm::gemm_with` with the default engine (same copy routing,
/// tile selection and kernel), so `c` ends bit-identical to the served
/// result.
#[allow(clippy::too_many_arguments)]
pub fn routine_phases<T: WorkspaceScalar>(
    tr: &mut Tracer,
    req: u64,
    p: &KernelParams,
    ty: GemmType,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
    ws: &mut Workspace,
) -> RoutineWork {
    let (m, k) = a.dims_op(ty.ta);
    let n = c.cols();
    let kp = round_up(k, p.k_multiple());
    let spec_a = PackSpec {
        trans: ty.ta.flipped(),
        layout: p.layout_a,
        wwg: p.mwg,
        kwg: p.kwg,
    };
    let spec_b = PackSpec {
        trans: ty.tb,
        layout: p.layout_b,
        wwg: p.nwg,
        kwg: p.kwg,
    };
    let da = PackedDims::new(kp, round_up(m, p.mwg), p.mwg, p.kwg).expect("padded dims");
    let db = PackedDims::new(kp, round_up(n, p.nwg), p.nwg, p.kwg).expect("padded dims");
    let (mp, np) = (da.width, db.width);
    let decision = TileSelector::host().select(T::PRECISION, (p.mwi(), p.nwi()), mp, np);
    let serial = mp.max(np).max(kp) <= SERIAL_PACK_MAX;
    let (pa, pb, staged) = ws.pool::<T>().buffers(da.len(), db.len(), mp * np);
    tr.span("routine.pack_a", req, || {
        if serial {
            pack_into(a, spec_a, k, m, pa, da);
        } else {
            pack_into_par(a, spec_a, k, m, pa, da);
        }
    });
    tr.span("routine.pack_b", req, || {
        if serial {
            pack_into(b, spec_b, k, n, pb, db);
        } else {
            pack_into_par(b, spec_b, k, n, pb, db);
        }
    });
    tr.span("routine.stage_c", req, || {
        if serial {
            stage_c_into(c, p.mwg, p.nwg, staged);
        } else {
            stage_c_into_par(c, p.mwg, p.nwg, staged);
        }
    });
    tr.span("routine.kernel", req, || {
        run_native_fast(
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
    });
    tr.span("routine.merge_c", req, || {
        if serial {
            merge_c(staged, p.mwg, p.nwg, c);
        } else {
            merge_c_par(staged, p.mwg, p.nwg, c);
        }
    });
    let e = std::mem::size_of::<T>() as f64;
    let (mf, nf, kf) = (m as f64, n as f64, k as f64);
    let elems = (mf * kf + da.len() as f64)
        + (kf * nf + db.len() as f64)
        + (mf * nf + (mp * np) as f64)
        + ((mp * np) as f64 + 2.0 * mf * nf);
    RoutineWork {
        padded_flops: 2.0 * mp as f64 * np as f64 * kp as f64,
        copy_bytes: elems * e,
    }
}
