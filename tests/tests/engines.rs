//! Engine-equivalence property tests: the compiled engine (SSA
//! pipeline → pre-scheduled trace code, parallel work-groups) must be
//! indistinguishable from the reference interpreter — bit-identical
//! output buffers and equal `DynStats` on every generated kernel, and
//! identical failure classes on kernels that must fail testing. A
//! separate decline-list test pins down exactly which kernel shapes the
//! trace compiler refuses (they fall back to the reference interpreter)
//! and checks the fallback still matches the reference, and every
//! Table II winner must be accepted by the trace compiler.
//!
//! Cases come from a seeded [`clgemm_shim::Rng`], so failures reproduce
//! deterministically.

use clgemm::codegen::{generate, KERNEL_NAME};
use clgemm::paper_params::all_winners;
use clgemm::params::{Algorithm, KernelParams, StrideMode};
use clgemm_blas::layout::{BlockLayout, PackedDims};
use clgemm_blas::scalar::Precision;
use clgemm_clc::{Arg, BufData, Engine, ExecOptions, Program, RuntimeError};
use clgemm_shim::Rng;

/// Draw a valid parameter set (same constructive generator as the
/// props suite: divisibility holds by construction, resource limits by
/// retry).
fn valid_params(rng: &mut Rng) -> KernelParams {
    loop {
        let mdimc = rng.range(2, 9);
        let ndimc = rng.range(2, 9);
        let mwi = rng.range(1, 5);
        let nwi = *rng.choose(&[2usize, 4]).unwrap();
        let kblocks = rng.range(1, 4);
        let kwi = *rng.choose(&[1usize, 2]).unwrap();
        let vw = *rng.choose(&[1usize, 2]).unwrap();
        if !nwi.is_multiple_of(vw) {
            continue;
        }
        let algorithm = *rng.choose(&Algorithm::ALL).unwrap();
        let la = rng.range(0, 3);
        let lb = rng.range(0, 3);
        let p = KernelParams {
            mwg: mdimc * mwi,
            nwg: ndimc * nwi,
            kwg: kblocks * kwi * 2,
            mdimc,
            ndimc,
            kwi,
            mdima: mdimc,
            ndimb: ndimc,
            vw,
            stride_m: if rng.bool() {
                StrideMode::Unit
            } else {
                StrideMode::NonUnit
            },
            stride_n: if rng.bool() {
                StrideMode::Unit
            } else {
                StrideMode::NonUnit
            },
            local_a: algorithm != Algorithm::Ba || la == 0,
            local_b: algorithm != Algorithm::Ba || lb == 0,
            layout_a: BlockLayout::ALL[la],
            layout_b: BlockLayout::ALL[lb],
            algorithm,
            precision: if rng.bool() {
                Precision::F64
            } else {
                Precision::F32
            },
        };
        if p.validate().is_ok() {
            return p;
        }
    }
}

/// Exact bit pattern of a buffer, so `-0.0 != 0.0` and NaN payloads
/// count (PartialEq on floats would blur both).
fn bits(b: &BufData) -> Vec<u64> {
    match b {
        BufData::F32(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
        BufData::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        BufData::I32(v) => v.iter().map(|x| *x as u32 as u64).collect(),
    }
}

fn fill(rng: &mut Rng, len: usize, prec: Precision) -> BufData {
    match prec {
        Precision::F32 => BufData::F32(
            (0..len)
                .map(|_| (rng.range(0, 2000) as f32) / 1000.0 - 1.0)
                .collect(),
        ),
        Precision::F64 => BufData::F64(
            (0..len)
                .map(|_| (rng.range(0, 2000) as f64) / 1000.0 - 1.0)
                .collect(),
        ),
    }
}

/// Compiled engine vs reference on one generated kernel; panics on any
/// divergence. Returns whether the trace compiler accepted the kernel.
fn check_case(case: usize, rng: &mut Rng, p: &KernelParams) -> bool {
    // Two blocks per dimension so several work-groups run (the compiled
    // engine parallelises across them) and k covers two KWG tiles.
    let (m, n) = (2 * p.mwg, 2 * p.nwg);
    let k = 2 * p.k_multiple();
    let gen = generate(p).unwrap_or_else(|e| panic!("case {case}: generate: {e}"));
    let prog = Program::compile(&gen.source)
        .unwrap_or_else(|e| panic!("case {case}: compile: {e}\n{}", gen.source));
    let kernel = prog.kernel(KERNEL_NAME).expect("kernel present");

    let a_dims = PackedDims::new(k, m, p.mwg, p.kwg).unwrap();
    let b_dims = PackedDims::new(k, n, p.nwg, p.kwg).unwrap();
    let bufs = vec![
        fill(rng, a_dims.len(), p.precision),
        fill(rng, b_dims.len(), p.precision),
        fill(rng, m * n, p.precision),
    ];
    let (alpha, beta) = (0.75, -0.5);
    let mut args = vec![
        Arg::Buf(0),
        Arg::Buf(1),
        Arg::Buf(2),
        Arg::I32(m as i32),
        Arg::I32(n as i32),
        Arg::I32(k as i32),
    ];
    match p.precision {
        Precision::F32 => {
            args.push(Arg::F32(alpha as f32));
            args.push(Arg::F32(beta as f32));
        }
        Precision::F64 => {
            args.push(Arg::F64(alpha));
            args.push(Arg::F64(beta));
        }
    }
    let nd = gen.ndrange(m, n);

    let mut ref_bufs = bufs.clone();
    let reference = kernel
        .launch(nd, &args, &mut ref_bufs, &ExecOptions::reference())
        .unwrap_or_else(|e| panic!("case {case}: reference launch: {e}\n{}", p.describe()));

    let mut eng_bufs = bufs.clone();
    let stats = kernel
        .launch(nd, &args, &mut eng_bufs, &ExecOptions::default())
        .unwrap_or_else(|e| panic!("case {case}: compiled launch: {e}\n{}", p.describe()));
    assert_eq!(
        stats,
        reference,
        "case {case}: compiled DynStats diverged\n{}",
        p.describe()
    );
    for (i, (eb, rb)) in eng_bufs.iter().zip(&ref_bufs).enumerate() {
        assert_eq!(
            bits(eb),
            bits(rb),
            "case {case}: compiled buffer {i} not bit-identical\n{}",
            p.describe()
        );
    }
    kernel.compiled().trace.is_some()
}

/// ≥200 random parameter sets: identical buffers and stats on the
/// compiled engine and the reference, and every generated kernel must
/// actually take the compiled plan (a silent fallback would make the
/// equivalence test vacuous).
#[test]
fn engines_agree_on_random_params() {
    let mut rng = Rng::new(0xFA57_E9E5);
    let cases = 200;
    let mut traced = 0usize;
    for case in 0..cases {
        let p = valid_params(&mut rng);
        traced += usize::from(check_case(case, &mut rng, &p));
    }
    assert_eq!(
        traced, cases,
        "every generated kernel should be accepted by the trace compiler"
    );
}

/// The tuner verifies every winner through clc, so a Table II kernel
/// the trace compiler declined would silently run on the reference
/// interpreter, tens of times slower. Compiling is enough to check
/// this; nothing is launched.
#[test]
fn every_table_ii_winner_traces() {
    let winners = all_winners();
    assert_eq!(winners.len(), 12);
    for e in winners {
        let gen = generate(&e.params).unwrap_or_else(|err| panic!("{}: {err}", e.device));
        let prog = Program::compile(&gen.source)
            .unwrap_or_else(|err| panic!("{} {}: compile: {err}", e.device, e.params.precision));
        let ck = prog.kernel(KERNEL_NAME).expect("kernel present").compiled();
        assert!(
            ck.trace.is_some(),
            "{} {}: trace compiler declined the winner: {:?}",
            e.device,
            e.params.precision,
            ck.trace_decline
        );
    }
}

/// The explicit decline list: kernel shapes the trace compiler refuses,
/// each with its pinned reason. Declining is a routing decision, not a
/// failure — the launch falls back to the reference interpreter and
/// must still match a direct reference launch bit-for-bit. If a pipeline change starts accepting one
/// of these (or declining something new), this test is the place that
/// documents it.
#[test]
fn compiled_engine_decline_list() {
    let n = 32usize;
    let declines: &[(&str, &str, &[Arg])] = &[
        // A bounds guard branches on get_global_id — varying per
        // work-item, so the trace (one schedule per work-group) cannot
        // represent both sides.
        (
            r"__kernel void k(__global float* y, int n) {
                int i = get_global_id(0);
                if (i < n) { y[i] = y[i] + 1.0f; }
            }",
            "work-item-divergent branch condition",
            &[Arg::Buf(0), Arg::I32(32)],
        ),
        // Loop trip count depends on loaded data.
        (
            r"__kernel void k(__global float* y) {
                int i = get_global_id(0);
                float x = y[i];
                while (x > 0.5f) { x = x - 1.0f; }
                y[i] = x;
            }",
            "work-item-divergent branch condition",
            &[Arg::Buf(0)],
        ),
        // Loop trip count depends on the work-item id.
        (
            r"__kernel void k(__global float* y) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < i + 1; j = j + 1) { acc = acc + 2.0f; }
                y[i] = acc;
            }",
            "work-item-divergent branch condition",
            &[Arg::Buf(0)],
        ),
    ];
    for (case, (src, want, args)) in declines.iter().enumerate() {
        let prog = Program::compile(src).unwrap_or_else(|e| panic!("decline {case}: {e}"));
        let kernel = prog.kernel("k").expect("kernel present");
        let ck = kernel.compiled();
        assert!(ck.trace.is_none(), "decline {case}: unexpectedly accepted");
        let reason = ck.trace_decline.as_deref().unwrap_or("");
        assert!(
            reason.contains(want),
            "decline {case}: reason {reason:?} does not mention {want:?}"
        );
        // The fallback still has to be right: Compiled (→ reference)
        // and the reference must agree bit-for-bit.
        let nd = clgemm_clc::NdRange::d1(n, 8);
        let init = BufData::F32((0..n).map(|i| (i as f32) / 3.0 - 4.0).collect());
        let mut cb = vec![init.clone()];
        let cs = kernel
            .launch(nd, args, &mut cb, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("decline {case}: compiled-route launch: {e}"));
        let mut rb = vec![init];
        let rs = kernel
            .launch(nd, args, &mut rb, &ExecOptions::reference())
            .unwrap_or_else(|e| panic!("decline {case}: reference launch: {e}"));
        assert_eq!(cs, rs, "decline {case}: DynStats diverged on fallback");
        assert_eq!(
            bits(&cb[0]),
            bits(&rb[0]),
            "decline {case}: fallback buffers not bit-identical"
        );
    }
}

/// A kernel whose work-items diverge at a barrier must fail with the
/// same error on both engines (the compiled route declines this kernel
/// and reaches the failure through its reference fallback).
#[test]
fn divergence_fails_identically_on_all_engines() {
    let src = r#"
        __kernel void div(__global double* y) {
            int l = get_local_id(0);
            if (l == 0) { barrier(1); }
            y[get_global_id(0)] = (double)l;
        }
    "#;
    let prog = Program::compile(src).unwrap();
    let kernel = prog.kernel("div").unwrap();
    let nd = clgemm_clc::NdRange::d1(8, 4);
    let mut b2 = vec![BufData::F64(vec![0.0; 8])];
    let re = kernel
        .launch(nd, &[Arg::Buf(0)], &mut b2, &ExecOptions::reference())
        .unwrap_err();
    assert!(matches!(re, RuntimeError::BarrierDivergence { .. }), "{re}");
    let mut b1 = vec![BufData::F64(vec![0.0; 8])];
    let ce = kernel
        .launch(nd, &[Arg::Buf(0)], &mut b1, &ExecOptions::default())
        .unwrap_err();
    assert_eq!(ce.to_string(), re.to_string());
}

/// A kernel where distinct work-groups write the same global cell must
/// fail as a global race on both engines. Attribution (which pair of
/// groups is reported) is schedule-dependent on the parallel compiled
/// engine, so only the error class is compared.
#[test]
fn inter_group_race_fails_identically_on_all_engines() {
    let src = r#"
        __kernel void clash(__global double* y) {
            y[0] = (double)get_global_id(0);
        }
    "#;
    let prog = Program::compile(src).unwrap();
    let kernel = prog.kernel("clash").unwrap();
    let nd = clgemm_clc::NdRange::d1(8, 2);
    for engine in [Engine::Compiled, Engine::Reference] {
        let opts = ExecOptions {
            engine,
            ..Default::default()
        };
        let mut bufs = vec![BufData::F64(vec![0.0])];
        let err = kernel
            .launch(nd, &[Arg::Buf(0)], &mut bufs, &opts)
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::GlobalRace { .. }),
            "{engine:?}: {err}"
        );
    }
}
