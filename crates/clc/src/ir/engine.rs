//! The compiled-trace execution loop behind
//! [`crate::vm::Engine::Compiled`].
//!
//! A bound trace executes one *group* at a time, block by block: every
//! [`BOp`] is decoded once and then runs a flat loop over all
//! work-items of the group (`n` cells), so per-op dispatch cost is
//! paid per group instead of per work-item step. Control flow is
//! uniform by construction (divergent kernels were declined at compile
//! time), so there is no per-work-item program counter at all.
//!
//! Parity with the reference interpreter:
//! - value arithmetic follows `vm::bin_op`/`un_op`/`convert` exactly
//!   (f32 arithmetic through f64 intermediates, wrapping integer ops,
//!   identical division-by-zero error strings);
//! - memory ops run per work-item, in work-item order, with the same
//!   bounds checks and race-table updates as the interpreters;
//! - `DynStats` are charged from the frozen per-block [`Cost`]s, and
//!   the per-phase step limit trips with the reference's error string
//!   (at block granularity — the limit is checked before a block runs).
//!
//! [`Cost`]: super::Cost

use super::trace::{BOp, BSeed, BTerm, Bank, BoundTrace, TracePlan, PK};
use crate::error::RuntimeError;
use crate::lower::CompiledKernel;
use crate::shared::{g_race_r, g_race_w, l_check, l_race_r, l_race_w, SharedBufs};
use crate::vm::{
    BufData, DynStats, ExecOptions, Geometry, GlobalRaceTables, LocalBuf, RaceTable, Value,
};

/// Reusable per-worker execution state: one set of typed banks sized
/// for a whole group, plus the group's local buffers and race tables.
#[derive(Default)]
struct CArena {
    ib: Vec<i64>,
    fb: Vec<f32>,
    db: Vec<f64>,
    locals: Vec<LocalBuf>,
    races: Vec<RaceTable>,
}

fn write_seed(a: &mut CArena, s: &BSeed) {
    let (flat, reps, lanes) = (s.flat as usize, s.reps as usize, s.lanes as usize);
    match (s.bank, s.val) {
        (Bank::I, Value::I(x)) => a.ib[flat..flat + reps].fill(x),
        (Bank::I, Value::B(x)) => a.ib[flat..flat + reps].fill(i64::from(x)),
        (Bank::F, Value::F32(x)) => a.fb[flat..flat + reps].fill(x),
        (Bank::D, Value::F64(x)) => a.db[flat..flat + reps].fill(x),
        (Bank::F, Value::V32(xs, w)) if usize::from(w) == lanes => {
            for r in 0..reps {
                a.fb[flat + r * lanes..flat + (r + 1) * lanes].copy_from_slice(&xs[..lanes]);
            }
        }
        (Bank::D, Value::V64(xs, w)) if usize::from(w) == lanes => {
            for r in 0..reps {
                a.db[flat + r * lanes..flat + (r + 1) * lanes].copy_from_slice(&xs[..lanes]);
            }
        }
        // Placeholder seeds for values of another storage class (the
        // banks are zero-filled and lowering writes before reads).
        _ => {}
    }
}

impl CArena {
    fn reset(
        &mut self,
        kernel: &CompiledKernel,
        bt: &BoundTrace,
        init_regs: &[Value],
        detect_races: bool,
    ) {
        self.ib.clear();
        self.ib.resize(bt.ni, 0);
        self.fb.clear();
        self.fb.resize(bt.nf, 0.0);
        self.db.clear();
        self.db.resize(bt.nd, 0.0);
        for s in &bt.seeds {
            write_seed(self, s);
        }
        for (s, reg) in &bt.entry_seeds {
            let mut s = s.clone();
            s.val = init_regs[*reg];
            write_seed(self, &s);
        }
        // Same locals / race-table reuse policy as the other engines.
        let arrays = &kernel.checked.local_arrays;
        let locals_ok = self.locals.len() == arrays.len()
            && self
                .locals
                .iter()
                .zip(arrays)
                .all(|(l, a)| l.len() == a.len && l.base_matches(a));
        if locals_ok {
            for l in &mut self.locals {
                l.zero();
            }
        } else {
            self.locals = arrays.iter().map(LocalBuf::new).collect();
        }
        let want_races = if detect_races { arrays.len() } else { 0 };
        if self.races.len() == want_races
            && self.races.iter().zip(arrays).all(|(r, a)| r.len() == a.len)
        {
            for r in &mut self.races {
                r.clear();
            }
        } else if detect_races {
            self.races = arrays.iter().map(|a| RaceTable::new(a.len)).collect();
        } else {
            self.races.clear();
        }
    }
}

/// Launch-wide immutable context for one group.
struct Ctx<'a> {
    kernel: &'a CompiledKernel,
    group: [usize; 2],
    group_linear: u32,
    geom: &'a Geometry,
    bufs: &'a SharedBufs,
    opts: &'a ExecOptions,
    grace: Option<&'a GlobalRaceTables>,
}

/// Run the whole NDRange on a compiled plan, groups in parallel:
/// contiguous group ranges per worker, a private arena per worker,
/// range-ordered stats merge.
pub(crate) fn launch(
    kernel: &CompiledKernel,
    plan: &TracePlan,
    geom: &Geometry,
    init_regs: &[Value],
    bufs: &mut [BufData],
    opts: &ExecOptions,
) -> Result<DynStats, RuntimeError> {
    let _span = clgemm_trace::span!("clc.trace_exec");
    let nwi = geom.local[0] * geom.local[1];
    let bt = plan.bind(nwi);
    let n_groups = geom.groups[0] * geom.groups[1];
    let grace = (opts.detect_races && n_groups > 1).then(|| GlobalRaceTables::new(bufs));
    let shared = SharedBufs::new(bufs);
    let results = clgemm_shim::par::par_range_map(n_groups, |range| {
        let mut arena = CArena::default();
        let mut acc = DynStats::default();
        for g in range {
            let ctx = Ctx {
                kernel,
                group: [g % geom.groups[0], g / geom.groups[0]],
                group_linear: g as u32,
                geom,
                bufs: &shared,
                opts,
                grace: grace.as_ref(),
            };
            match run_group(&ctx, &bt, init_regs, &mut arena) {
                Ok(s) => acc.add(&s),
                Err(e) => return Err(e),
            }
        }
        Ok(acc)
    });
    let mut stats = DynStats::default();
    for r in results {
        stats.add(&r?);
    }
    Ok(stats)
}

fn run_group(
    ctx: &Ctx<'_>,
    bt: &BoundTrace,
    init_regs: &[Value],
    arena: &mut CArena,
) -> Result<DynStats, RuntimeError> {
    let nwi = ctx.geom.local[0] * ctx.geom.local[1];
    arena.reset(ctx.kernel, bt, init_regs, ctx.opts.detect_races);
    let mut stats = DynStats::default();
    let mut phase: u32 = 0;
    let mut phase_steps: u64 = 0;
    let mut cur = 0usize;
    loop {
        let blk = &bt.blocks[cur];
        phase_steps = phase_steps.saturating_add(blk.cost.instrs);
        if phase_steps > ctx.opts.step_limit {
            return Err(RuntimeError::Internal(format!(
                "work-item exceeded step limit {} (non-terminating kernel?)",
                ctx.opts.step_limit
            )));
        }
        let n = nwi as u64;
        stats.instrs += blk.cost.instrs * n;
        stats.alu += blk.cost.alu * n;
        stats.mads += blk.cost.mads * n;
        stats.mem_global_instrs += blk.cost.mem_global_instrs * n;
        stats.mem_global_bytes += blk.cost.mem_global_bytes * n;
        stats.mem_local_instrs += blk.cost.mem_local_instrs * n;
        stats.mem_local_bytes += blk.cost.mem_local_bytes * n;
        for op in &blk.ops {
            exec_op(ctx, arena, op, phase)?;
        }
        match &blk.term {
            BTerm::Br { to, copies } => {
                for c in copies.iter() {
                    exec_op(ctx, arena, c, phase)?;
                }
                cur = *to as usize;
            }
            BTerm::CondBr {
                cond,
                t,
                f,
                t_copies,
                f_copies,
            } => {
                let (to, copies) = if arena.ib[*cond as usize] != 0 {
                    (*t, t_copies)
                } else {
                    (*f, f_copies)
                };
                for c in copies.iter() {
                    exec_op(ctx, arena, c, phase)?;
                }
                cur = to as usize;
            }
            BTerm::Barrier { to, copies } => {
                for c in copies.iter() {
                    exec_op(ctx, arena, c, phase)?;
                }
                stats.barriers += 1;
                phase += 1;
                phase_steps = 0;
                for rt in &mut arena.races {
                    rt.new_phase();
                }
                cur = *to as usize;
            }
            BTerm::Ret => break,
        }
    }
    Ok(stats)
}

/// Vectorised i64 helpers for the hottest address-arithmetic kinds.
/// The scalar loops cannot auto-vectorise: source and destination
/// ranges live in one bank, and LLVM cannot prove they don't partially
/// overlap. Slot allocation guarantees ranges are pairwise *equal or
/// disjoint*, so loading a whole chunk before storing it is exact.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod vi {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x, _mm256_setzero_si256,
        _mm256_sll_epi64, _mm256_srl_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
        _mm_cvtsi32_si128,
    };

    /// `d[j] = a[j] + b[j]` (wrapping), caller-checked bounds.
    pub unsafe fn add(p: *mut i64, d: usize, a: usize, b: usize, n: usize) {
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_si256(p.add(a + j).cast());
            let y = _mm256_loadu_si256(p.add(b + j).cast());
            _mm256_storeu_si256(p.add(d + j).cast(), _mm256_add_epi64(x, y));
            j += 4;
        }
        while j < n {
            *p.add(d + j) = (*p.add(a + j)).wrapping_add(*p.add(b + j));
            j += 1;
        }
    }

    /// `d[j] = a[j] << sh` (wrapping multiply by `2^sh`).
    pub unsafe fn shl(p: *mut i64, d: usize, a: usize, sh: u32, n: usize) {
        let cnt = _mm_cvtsi32_si128(sh as i32);
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_si256(p.add(a + j).cast());
            _mm256_storeu_si256(p.add(d + j).cast(), _mm256_sll_epi64(x, cnt));
            j += 4;
        }
        while j < n {
            *p.add(d + j) = (*p.add(a + j)).wrapping_shl(sh);
            j += 1;
        }
    }

    /// Truncating `t >> sh` — AVX2 has no 64-bit arithmetic shift, so
    /// emulate with a logical shift plus sign fill (`sll` by ≥ 64
    /// yields zero, which covers `sh == 0`).
    #[inline]
    unsafe fn sra(t: __m256i, cnt: __m128i, cnt_inv: __m128i) -> __m256i {
        let sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), t);
        _mm256_or_si256(_mm256_srl_epi64(t, cnt), _mm256_sll_epi64(sign, cnt_inv))
    }

    #[inline]
    unsafe fn quot_p2(x: __m256i, maskv: __m256i, cnt: __m128i, cnt_inv: __m128i) -> __m256i {
        // Round toward zero: bias negative operands by `2^sh - 1`.
        let bias = _mm256_and_si256(_mm256_cmpgt_epi64(_mm256_setzero_si256(), x), maskv);
        sra(_mm256_add_epi64(x, bias), cnt, cnt_inv)
    }

    /// `d[j] = a[j] / 2^sh`, truncating like the reference's `DivI`.
    pub unsafe fn div_p2(p: *mut i64, d: usize, a: usize, sh: u32, n: usize) {
        let mask = (1i64 << sh) - 1;
        let maskv = _mm256_set1_epi64x(mask);
        let cnt = _mm_cvtsi32_si128(sh as i32);
        let cnt_inv = _mm_cvtsi32_si128(64 - sh as i32);
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_si256(p.add(a + j).cast());
            _mm256_storeu_si256(p.add(d + j).cast(), quot_p2(x, maskv, cnt, cnt_inv));
            j += 4;
        }
        while j < n {
            let x = *p.add(a + j);
            *p.add(d + j) = x.wrapping_add((x >> 63) & mask) >> sh;
            j += 1;
        }
    }

    /// `d[j] = a[j] % 2^sh`, sign following the dividend.
    pub unsafe fn rem_p2(p: *mut i64, d: usize, a: usize, sh: u32, n: usize) {
        let mask = (1i64 << sh) - 1;
        let maskv = _mm256_set1_epi64x(mask);
        let cnt = _mm_cvtsi32_si128(sh as i32);
        let cnt_inv = _mm_cvtsi32_si128(64 - sh as i32);
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_si256(p.add(a + j).cast());
            let q = quot_p2(x, maskv, cnt, cnt_inv);
            let r = _mm256_sub_epi64(x, _mm256_sll_epi64(q, cnt));
            _mm256_storeu_si256(p.add(d + j).cast(), r);
            j += 4;
        }
        while j < n {
            let x = *p.add(a + j);
            let q = x.wrapping_add((x >> 63) & mask) >> sh;
            *p.add(d + j) = x.wrapping_sub(q.wrapping_shl(sh));
            j += 1;
        }
    }
}

/// `MadBF` for the generator's ubiquitous `float2` shape: per rep,
/// `d[2r..2r+2] = a[2r + lane] * b[2r..2r+2] + c[2r..2r+2]`. The caller
/// has bounds-checked all four ranges; slot allocation makes them
/// pairwise equal or disjoint, so loading a whole chunk before storing
/// it preserves the scalar loop's semantics. On x86 the per-pair lane
/// broadcast is a single `moveldup`/`movehdup`, and `fmadd` rounds once
/// exactly like `f32::mul_add`.
fn madbf_w2(fb: &mut [f32], [d, a, b, c]: [usize; 4], lane: usize, n: usize) {
    let mut r = 0;
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    unsafe {
        use core::arch::x86_64::{
            _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_movehdup_ps, _mm256_moveldup_ps,
            _mm256_storeu_ps,
        };
        let p = fb.as_mut_ptr();
        while r + 4 <= n {
            let va = _mm256_loadu_ps(p.add(a + 2 * r));
            let x = if lane == 0 {
                _mm256_moveldup_ps(va)
            } else {
                _mm256_movehdup_ps(va)
            };
            let vb = _mm256_loadu_ps(p.add(b + 2 * r));
            let vc = _mm256_loadu_ps(p.add(c + 2 * r));
            _mm256_storeu_ps(p.add(d + 2 * r), _mm256_fmadd_ps(x, vb, vc));
            r += 4;
        }
    }
    for r in r..n {
        let x = unsafe { *fb.get_unchecked(a + 2 * r + lane) };
        for k in 0..2 {
            let (y, z) = unsafe {
                (
                    *fb.get_unchecked(b + 2 * r + k),
                    *fb.get_unchecked(c + 2 * r + k),
                )
            };
            unsafe { *fb.get_unchecked_mut(d + 2 * r + k) = x.mul_add(y, z) };
        }
    }
}

fn div_zero() -> RuntimeError {
    RuntimeError::Arithmetic("integer division by zero".into())
}

fn rem_zero() -> RuntimeError {
    RuntimeError::Arithmetic("integer remainder by zero".into())
}

/// Execute one bound op against the group banks.
#[allow(clippy::too_many_lines)]
fn exec_op(ctx: &Ctx<'_>, arena: &mut CArena, op: &BOp, phase: u32) -> Result<(), RuntimeError> {
    let CArena {
        ib,
        fb,
        db,
        locals,
        races,
    } = arena;
    let (d, a, b, c) = (op.d as usize, op.a as usize, op.b as usize, op.c as usize);
    let n = op.n as usize;
    let w = op.w as usize;
    let glin = ctx.group_linear;
    // One bounds assertion per range up front, then unchecked element
    // accesses inside the loops: the per-element checks LLVM cannot
    // hoist (three ranges into one bank may alias) are what keep these
    // loops from vectorising.
    macro_rules! ck {
        ($bank:ident: $($base:expr),+) => {
            $(assert!($base + n <= $bank.len());)+
        };
    }
    // Elementwise integer helper.
    macro_rules! bin_i {
        (|$x:ident, $y:ident| $e:expr) => {{
            ck!(ib: d, a, b);
            for j in 0..n {
                let ($x, $y) = unsafe { (*ib.get_unchecked(a + j), *ib.get_unchecked(b + j)) };
                unsafe { *ib.get_unchecked_mut(d + j) = $e };
            }
        }};
    }
    // f32 arithmetic via f64 intermediates, as the reference does.
    macro_rules! bin_f {
        (|$x:ident, $y:ident| $e:expr) => {{
            ck!(fb: d, a, b);
            for j in 0..n {
                let ($x, $y) = unsafe {
                    (
                        f64::from(*fb.get_unchecked(a + j)),
                        f64::from(*fb.get_unchecked(b + j)),
                    )
                };
                unsafe { *fb.get_unchecked_mut(d + j) = ($e) as f32 };
            }
        }};
    }
    macro_rules! bin_d {
        (|$x:ident, $y:ident| $e:expr) => {{
            ck!(db: d, a, b);
            for j in 0..n {
                let ($x, $y) = unsafe { (*db.get_unchecked(a + j), *db.get_unchecked(b + j)) };
                unsafe { *db.get_unchecked_mut(d + j) = $e };
            }
        }};
    }
    // Elementwise unary over one bank (`src_bank` may equal `dst_bank`).
    macro_rules! un_ew {
        ($src:ident -> $dst:ident, |$x:ident| $e:expr) => {{
            ck!($src: a);
            ck!($dst: d);
            for j in 0..n {
                let $x = unsafe { *$src.get_unchecked(a + j) };
                unsafe { *$dst.get_unchecked_mut(d + j) = $e };
            }
        }};
    }
    // Memory ops: one per-work-item loop with the bounds test inlined
    // (the cold path re-runs the checked helper to build the exact
    // reference error) and the race-table call gated on whether
    // detection is on at all. The bank-side accesses are covered by the
    // up-front asserts; the buffer side is covered by the bounds test.
    macro_rules! ld_g {
        ($bank:ident, $ld:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let bi = op.buf as usize;
            let wv: usize = $wv;
            let len = ctx.bufs.len(bi);
            assert!(a + n <= ib.len() && d + n * wv <= $bank.len());
            for wi in 0..n {
                let idx = unsafe { *ib.get_unchecked(a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    ctx.bufs.check(ctx.kernel, bi, idx, wv as u8)?;
                    unreachable!("check rejects the same bounds");
                }
                let i = idx as usize;
                if ctx.grace.is_some() {
                    g_race_r(ctx.kernel, ctx.grace, bi, i, wv as u8, glin)?;
                }
                for k in 0..wv {
                    let $x = unsafe { ctx.bufs.$ld(bi, i + k) };
                    unsafe { *$bank.get_unchecked_mut(d + wi * wv + k) = $conv };
                }
            }
        }};
    }
    macro_rules! st_g {
        ($bank:ident, $st:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let bi = op.buf as usize;
            let wv: usize = $wv;
            let len = ctx.bufs.len(bi);
            assert!(a + n <= ib.len() && b + n * wv <= $bank.len());
            for wi in 0..n {
                let idx = unsafe { *ib.get_unchecked(a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    ctx.bufs.check(ctx.kernel, bi, idx, wv as u8)?;
                    unreachable!("check rejects the same bounds");
                }
                let i = idx as usize;
                if ctx.grace.is_some() {
                    g_race_w(ctx.kernel, ctx.grace, bi, i, wv as u8, glin)?;
                }
                for k in 0..wv {
                    let $x = unsafe { *$bank.get_unchecked(b + wi * wv + k) };
                    unsafe { ctx.bufs.$st(bi, i + k, $conv) };
                }
            }
        }};
    }
    macro_rules! ld_l {
        ($variant:ident, $bank:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let arr = op.buf as usize;
            let wv: usize = $wv;
            let LocalBuf::$variant(v) = &locals[arr] else {
                unreachable!("typed local load");
            };
            let len = v.len();
            assert!(a + n <= ib.len() && d + n * wv <= $bank.len());
            for wi in 0..n {
                let idx = unsafe { *ib.get_unchecked(a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    l_check(ctx.kernel, &*locals, arr, idx, wv as u8)?;
                    unreachable!("l_check rejects the same bounds");
                }
                let i = idx as usize;
                if !races.is_empty() {
                    l_race_r(ctx.kernel, races, arr, i, wv as u8, wi as u32, phase)?;
                }
                for k in 0..wv {
                    let $x = unsafe { *v.get_unchecked(i + k) };
                    unsafe { *$bank.get_unchecked_mut(d + wi * wv + k) = $conv };
                }
            }
        }};
    }
    macro_rules! st_l {
        ($variant:ident, $bank:ident, $wv:expr, |$x:ident| $conv:expr) => {{
            let arr = op.buf as usize;
            let wv: usize = $wv;
            let LocalBuf::$variant(v) = &mut locals[arr] else {
                unreachable!("typed local store");
            };
            let len = v.len();
            assert!(a + n <= ib.len() && b + n * wv <= $bank.len());
            for wi in 0..n {
                let idx = unsafe { *ib.get_unchecked(a + wi) };
                if idx < 0 || idx as usize + wv > len {
                    return Err(RuntimeError::LocalOob {
                        array: ctx.kernel.checked.local_arrays[arr].name.clone(),
                        index: idx,
                        len,
                    });
                }
                let i = idx as usize;
                if !races.is_empty() {
                    l_race_w(ctx.kernel, races, arr, i, wv as u8, wi as u32, phase)?;
                }
                for k in 0..wv {
                    let $x = unsafe { *$bank.get_unchecked(b + wi * wv + k) };
                    unsafe { *v.get_unchecked_mut(i + k) = $conv };
                }
            }
        }};
    }
    match op.k {
        PK::CpyI => ib.copy_within(a..a + n, d),
        PK::CpyF => fb.copy_within(a..a + n, d),
        PK::CpyD => db.copy_within(a..a + n, d),
        PK::SplatI => {
            assert!(a + w <= ib.len() && d + n * w <= ib.len());
            for r in 0..n {
                for k in 0..w {
                    unsafe { *ib.get_unchecked_mut(d + r * w + k) = *ib.get_unchecked(a + k) };
                }
            }
        }
        PK::SplatF => {
            assert!(a + w <= fb.len() && d + n * w <= fb.len());
            for r in 0..n {
                for k in 0..w {
                    unsafe { *fb.get_unchecked_mut(d + r * w + k) = *fb.get_unchecked(a + k) };
                }
            }
        }
        PK::SplatD => {
            assert!(a + w <= db.len() && d + n * w <= db.len());
            for r in 0..n {
                for k in 0..w {
                    unsafe { *db.get_unchecked_mut(d + r * w + k) = *db.get_unchecked(a + k) };
                }
            }
        }
        PK::AddI => {
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            {
                ck!(ib: d, a, b);
                unsafe { vi::add(ib.as_mut_ptr(), d, a, b, n) };
            }
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            bin_i!(|x, y| x.wrapping_add(y));
        }
        PK::SubI => bin_i!(|x, y| x.wrapping_sub(y)),
        PK::MulI => bin_i!(|x, y| x.wrapping_mul(y)),
        PK::DivI => {
            ck!(ib: d, a, b);
            for j in 0..n {
                let y = unsafe { *ib.get_unchecked(b + j) };
                if y == 0 {
                    return Err(div_zero());
                }
                let x = unsafe { *ib.get_unchecked(a + j) };
                unsafe { *ib.get_unchecked_mut(d + j) = x.wrapping_div(y) };
            }
        }
        PK::RemI => {
            ck!(ib: d, a, b);
            for j in 0..n {
                let y = unsafe { *ib.get_unchecked(b + j) };
                if y == 0 {
                    return Err(rem_zero());
                }
                let x = unsafe { *ib.get_unchecked(a + j) };
                unsafe { *ib.get_unchecked_mut(d + j) = x.wrapping_rem(y) };
            }
        }
        // Truncating div/rem by 2^aux: round toward zero by adding
        // `2^aux - 1` to negative operands before the arithmetic shift.
        PK::DivIP2 => {
            let sh = u32::from(op.aux);
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            {
                ck!(ib: d, a);
                unsafe { vi::div_p2(ib.as_mut_ptr(), d, a, sh, n) };
            }
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            {
                let mask = (1i64 << sh) - 1;
                un_ew!(ib -> ib, |x| x.wrapping_add((x >> 63) & mask) >> sh);
            }
        }
        PK::RemIP2 => {
            let sh = u32::from(op.aux);
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            {
                ck!(ib: d, a);
                unsafe { vi::rem_p2(ib.as_mut_ptr(), d, a, sh, n) };
            }
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            {
                let mask = (1i64 << sh) - 1;
                un_ew!(ib -> ib, |x| {
                    let q = x.wrapping_add((x >> 63) & mask) >> sh;
                    x.wrapping_sub(q.wrapping_shl(sh))
                });
            }
        }
        PK::MulIP2 => {
            let sh = u32::from(op.aux);
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            {
                ck!(ib: d, a);
                unsafe { vi::shl(ib.as_mut_ptr(), d, a, sh, n) };
            }
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
            un_ew!(ib -> ib, |x| x.wrapping_shl(sh));
        }
        PK::AndI => bin_i!(|x, y| x & y),
        PK::OrI => bin_i!(|x, y| x | y),
        PK::XorI => bin_i!(|x, y| x ^ y),
        PK::ShlI => bin_i!(|x, y| x.wrapping_shl(y as u32)),
        PK::ShrI => bin_i!(|x, y| x.wrapping_shr(y as u32)),
        PK::LAndI => bin_i!(|x, y| i64::from(x != 0 && y != 0)),
        PK::LOrI => bin_i!(|x, y| i64::from(x != 0 || y != 0)),
        PK::CmpI => {
            let code = op.aux;
            bin_i!(|x, y| i64::from(cmp(code, x, y)));
        }
        PK::NegI => un_ew!(ib -> ib, |x| x.wrapping_neg()),
        PK::NotI => un_ew!(ib -> ib, |x| i64::from(x == 0)),
        PK::AddF => bin_f!(|x, y| x + y),
        PK::SubF => bin_f!(|x, y| x - y),
        PK::MulF => bin_f!(|x, y| x * y),
        PK::DivF => bin_f!(|x, y| x / y),
        PK::NegF => un_ew!(fb -> fb, |x| -x),
        PK::MadF => {
            ck!(fb: d, a, b, c);
            for j in 0..n {
                let (x, y, z) = unsafe {
                    (
                        *fb.get_unchecked(a + j),
                        *fb.get_unchecked(b + j),
                        *fb.get_unchecked(c + j),
                    )
                };
                unsafe { *fb.get_unchecked_mut(d + j) = x.mul_add(y, z) };
            }
        }
        PK::MadBF => {
            // One source lane (stride `buf` per work-item) multiplied
            // into a whole dst vector: n = reps, w = dst lanes.
            let ws = op.buf as usize;
            let lane = op.aux as usize;
            assert!(lane < ws && a + n * ws <= fb.len());
            assert!(d + n * w <= fb.len() && b + n * w <= fb.len() && c + n * w <= fb.len());
            if ws == 2 && w == 2 {
                madbf_w2(fb, [d, a, b, c], lane, n);
            } else {
                for r in 0..n {
                    let x = unsafe { *fb.get_unchecked(a + r * ws + lane) };
                    for k in 0..w {
                        let (y, z) = unsafe {
                            (
                                *fb.get_unchecked(b + r * w + k),
                                *fb.get_unchecked(c + r * w + k),
                            )
                        };
                        unsafe { *fb.get_unchecked_mut(d + r * w + k) = x.mul_add(y, z) };
                    }
                }
            }
        }
        PK::CmpF => {
            let code = op.aux;
            ck!(fb: a, b);
            ck!(ib: d);
            for j in 0..n {
                let (x, y) = unsafe {
                    (
                        f64::from(*fb.get_unchecked(a + j)),
                        f64::from(*fb.get_unchecked(b + j)),
                    )
                };
                unsafe { *ib.get_unchecked_mut(d + j) = i64::from(cmp(code, x, y)) };
            }
        }
        PK::AddD => bin_d!(|x, y| x + y),
        PK::SubD => bin_d!(|x, y| x - y),
        PK::MulD => bin_d!(|x, y| x * y),
        PK::DivD => bin_d!(|x, y| x / y),
        PK::NegD => un_ew!(db -> db, |x| -x),
        PK::MadD => {
            ck!(db: d, a, b, c);
            for j in 0..n {
                let (x, y, z) = unsafe {
                    (
                        *db.get_unchecked(a + j),
                        *db.get_unchecked(b + j),
                        *db.get_unchecked(c + j),
                    )
                };
                unsafe { *db.get_unchecked_mut(d + j) = x.mul_add(y, z) };
            }
        }
        PK::MadBD => {
            let ws = op.buf as usize;
            let lane = op.aux as usize;
            assert!(lane < ws && a + n * ws <= db.len());
            assert!(d + n * w <= db.len() && b + n * w <= db.len() && c + n * w <= db.len());
            for r in 0..n {
                let x = unsafe { *db.get_unchecked(a + r * ws + lane) };
                for k in 0..w {
                    let (y, z) = unsafe {
                        (
                            *db.get_unchecked(b + r * w + k),
                            *db.get_unchecked(c + r * w + k),
                        )
                    };
                    unsafe { *db.get_unchecked_mut(d + r * w + k) = x.mul_add(y, z) };
                }
            }
        }
        PK::CmpD => {
            let code = op.aux;
            ck!(db: a, b);
            ck!(ib: d);
            for j in 0..n {
                let (x, y) = unsafe { (*db.get_unchecked(a + j), *db.get_unchecked(b + j)) };
                unsafe { *ib.get_unchecked_mut(d + j) = i64::from(cmp(code, x, y)) };
            }
        }
        PK::SelI => {
            for j in 0..n {
                ib[d + j] = if ib[c + j] != 0 { ib[a + j] } else { ib[b + j] };
            }
        }
        PK::SelF => {
            for j in 0..n {
                fb[d + j] = if ib[c + j] != 0 { fb[a + j] } else { fb[b + j] };
            }
        }
        PK::SelD => {
            for j in 0..n {
                db[d + j] = if ib[c + j] != 0 { db[a + j] } else { db[b + j] };
            }
        }
        PK::SelVF => {
            for r in 0..n {
                let src = if ib[c + r] != 0 { a } else { b };
                fb.copy_within(src + r * w..src + (r + 1) * w, d + r * w);
            }
        }
        PK::SelVD => {
            for r in 0..n {
                let src = if ib[c + r] != 0 { a } else { b };
                db.copy_within(src + r * w..src + (r + 1) * w, d + r * w);
            }
        }
        PK::I2F => un_ew!(ib -> fb, |x| x as f32),
        PK::I2D => un_ew!(ib -> db, |x| x as f64),
        PK::I2B => un_ew!(ib -> ib, |x| i64::from(x != 0)),
        PK::F2I => un_ew!(fb -> ib, |x| x as i64),
        PK::F2D => un_ew!(fb -> db, |x| f64::from(x)),
        PK::D2I => un_ew!(db -> ib, |x| x as i64),
        PK::D2F => un_ew!(db -> fb, |x| x as f32),
        PK::VF2D => un_ew!(fb -> db, |x| f64::from(x)),
        PK::VD2F => un_ew!(db -> fb, |x| x as f32),
        PK::BcastF => {
            assert!(a + n <= fb.len() && d + n * w <= fb.len());
            for r in 0..n {
                let x = unsafe { *fb.get_unchecked(a + r) };
                for k in 0..w {
                    unsafe { *fb.get_unchecked_mut(d + r * w + k) = x };
                }
            }
        }
        PK::BcastD => {
            assert!(a + n <= db.len() && d + n * w <= db.len());
            for r in 0..n {
                let x = unsafe { *db.get_unchecked(a + r) };
                for k in 0..w {
                    unsafe { *db.get_unchecked_mut(d + r * w + k) = x };
                }
            }
        }
        // The reference broadcasts ints into a *double* vector.
        PK::BcastID => {
            assert!(a + n <= ib.len() && d + n * w <= db.len());
            for r in 0..n {
                let x = unsafe { *ib.get_unchecked(a + r) } as f64;
                for k in 0..w {
                    unsafe { *db.get_unchecked_mut(d + r * w + k) = x };
                }
            }
        }
        PK::BuildF => {
            for r in 0..n {
                for (l, &p) in op.ex.iter().enumerate() {
                    fb[d + r * w + l] = fb[p as usize + r];
                }
            }
        }
        PK::BuildD => {
            for r in 0..n {
                for (l, &p) in op.ex.iter().enumerate() {
                    db[d + r * w + l] = db[p as usize + r];
                }
            }
        }
        PK::ExtrF => {
            let lane = op.aux as usize;
            assert!(d + n <= fb.len() && a + n * w <= fb.len() && lane < w);
            for r in 0..n {
                unsafe { *fb.get_unchecked_mut(d + r) = *fb.get_unchecked(a + r * w + lane) };
            }
        }
        PK::ExtrD => {
            let lane = op.aux as usize;
            assert!(d + n <= db.len() && a + n * w <= db.len() && lane < w);
            for r in 0..n {
                unsafe { *db.get_unchecked_mut(d + r) = *db.get_unchecked(a + r * w + lane) };
            }
        }
        PK::InsF => {
            let lane = op.aux as usize;
            for r in 0..n {
                fb.copy_within(a + r * w..a + (r + 1) * w, d + r * w);
                fb[d + r * w + lane] = fb[b + r];
            }
        }
        PK::InsD => {
            let lane = op.aux as usize;
            for r in 0..n {
                db.copy_within(a + r * w..a + (r + 1) * w, d + r * w);
                db[d + r * w + lane] = db[b + r];
            }
        }
        PK::MinI => bin_i!(|x, y| x.min(y)),
        PK::MaxI => bin_i!(|x, y| x.max(y)),
        PK::ClampI => {
            for j in 0..n {
                ib[d + j] = ib[a + j].clamp(ib[b + j], ib[c + j]);
            }
        }
        PK::MinF => {
            for j in 0..n {
                fb[d + j] = fb[a + j].min(fb[b + j]);
            }
        }
        PK::MaxF => {
            for j in 0..n {
                fb[d + j] = fb[a + j].max(fb[b + j]);
            }
        }
        PK::ClampF => {
            for j in 0..n {
                fb[d + j] = fb[a + j].clamp(fb[b + j], fb[c + j]);
            }
        }
        PK::MinD => {
            for j in 0..n {
                db[d + j] = db[a + j].min(db[b + j]);
            }
        }
        PK::MaxD => {
            for j in 0..n {
                db[d + j] = db[a + j].max(db[b + j]);
            }
        }
        PK::ClampD => {
            for j in 0..n {
                db[d + j] = db[a + j].clamp(db[b + j], db[c + j]);
            }
        }
        PK::AbsF => {
            for j in 0..n {
                fb[d + j] = fb[a + j].abs();
            }
        }
        PK::AbsD => {
            for j in 0..n {
                db[d + j] = db[a + j].abs();
            }
        }
        PK::SqrtF => {
            for j in 0..n {
                fb[d + j] = fb[a + j].sqrt();
            }
        }
        PK::SqrtD => {
            for j in 0..n {
                db[d + j] = db[a + j].sqrt();
            }
        }
        PK::ExpF => {
            for j in 0..n {
                fb[d + j] = fb[a + j].exp();
            }
        }
        PK::ExpD => {
            for j in 0..n {
                db[d + j] = db[a + j].exp();
            }
        }
        PK::LogF => {
            for j in 0..n {
                fb[d + j] = fb[a + j].ln();
            }
        }
        PK::LogD => {
            for j in 0..n {
                db[d + j] = db[a + j].ln();
            }
        }
        PK::RecipF => {
            for j in 0..n {
                fb[d + j] = 1.0 / fb[a + j];
            }
        }
        PK::RecipD => {
            for j in 0..n {
                db[d + j] = 1.0 / db[a + j];
            }
        }
        PK::WiId => {
            let dim = (op.aux % 4) as usize;
            let local0 = ctx.geom.local[0];
            let base = ctx.group[dim] * ctx.geom.local[dim];
            for wi in 0..n {
                let lid = if dim == 0 { wi % local0 } else { wi / local0 };
                ib[d + wi] = if op.aux < 4 {
                    (base + lid) as i64 // GlobalId
                } else {
                    lid as i64 // LocalId
                };
            }
        }
        PK::WiUni => {
            let dim = (op.aux % 4) as usize;
            ib[d] = match op.aux / 4 {
                2 => ctx.group[dim] as i64,
                3 => ctx.geom.global[dim] as i64,
                4 => ctx.geom.local[dim] as i64,
                _ => ctx.geom.groups[dim] as i64,
            };
        }
        PK::LdG1F => ld_g!(fb, ld_f32, 1, |x| x),
        PK::LdGVF => ld_g!(fb, ld_f32, w, |x| x),
        PK::LdG1D => ld_g!(db, ld_f64, 1, |x| x),
        PK::LdGVD => ld_g!(db, ld_f64, w, |x| x),
        PK::LdG1I => ld_g!(ib, ld_i32, 1, |x| i64::from(x)),
        PK::StG1F => st_g!(fb, st_f32, 1, |x| x),
        PK::StGVF => st_g!(fb, st_f32, w, |x| x),
        PK::StG1D => st_g!(db, st_f64, 1, |x| x),
        PK::StGVD => st_g!(db, st_f64, w, |x| x),
        PK::StG1I => st_g!(ib, st_i32, 1, |x| x as i32),
        PK::LdL1F => ld_l!(F32, fb, 1, |x| x),
        PK::LdLVF => ld_l!(F32, fb, w, |x| x),
        PK::LdL1D => ld_l!(F64, db, 1, |x| x),
        PK::LdLVD => ld_l!(F64, db, w, |x| x),
        PK::LdL1I => ld_l!(I32, ib, 1, |x| x),
        PK::StL1F => st_l!(F32, fb, 1, |x| x),
        PK::StLVF => st_l!(F32, fb, w, |x| x),
        PK::StL1D => st_l!(F64, db, 1, |x| x),
        PK::StLVD => st_l!(F64, db, w, |x| x),
        PK::StL1I => st_l!(I32, ib, 1, |x| x),
    }
    Ok(())
}

/// Ordered comparison by code (Lt, Gt, Le, Ge, Eq, Ne) — matches the
/// reference's widened comparisons for both ints and floats.
fn cmp<T: PartialOrd>(code: u8, x: T, y: T) -> bool {
    match code {
        0 => x < y,
        1 => x > y,
        2 => x <= y,
        3 => x >= y,
        4 => x == y,
        _ => x != y,
    }
}
