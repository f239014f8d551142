//! The host's own ceilings (FMA peak per thread count, STREAM-style copy
//! bandwidth) and the metadata recorded next to every number.

use crate::util::timed;
use clgemm_shim::simd::SimdLevel;
use clgemm_shim::Json;
use std::hint::black_box;

/// Cache sizes in bytes (0 when unknown).
#[derive(Debug, Clone, Copy, Default)]
pub struct Caches {
    pub l1d: usize,
    pub l2: usize,
    pub l3: usize,
}

/// Data/unified cache sizes from CPUID leaf 4 (Intel) or 0x8000_001D
/// (AMD), per level.
#[cfg(target_arch = "x86_64")]
pub fn caches() -> Caches {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    let mut out = Caches::default();
    let max_ext = __cpuid(0x8000_0000).eax;
    let leaf = if __cpuid(0).eax >= 4 {
        4
    } else if max_ext >= 0x8000_001D {
        0x8000_001D
    } else {
        return out;
    };
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let level = (r.eax >> 5) & 7;
        let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
        let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
        let line = (r.ebx & 0xfff) as usize + 1;
        let sets = r.ecx as usize + 1;
        let size = ways * parts * line * sets;
        match level {
            1 => out.l1d = size,
            2 => out.l2 = size,
            3 => out.l3 = size,
            _ => {}
        }
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
pub fn caches() -> Caches {
    Caches::default()
}

/// Independent accumulators per FMA loop: enough to cover the FMA
/// latency on both ports of current cores.
const ACCS: usize = 12;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_loop_avx512(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let mut acc = [_mm512_set1_ps(0.0); ACCS];
    let x = _mm512_set1_ps(black_box(0.999_999));
    let y = _mm512_set1_ps(black_box(1e-7));
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm512_fmadd_ps(*a, x, y);
        }
    }
    acc.iter().map(|&a| _mm512_reduce_add_ps(a)).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_loop_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_set1_ps(0.0); ACCS];
    let x = _mm256_set1_ps(black_box(0.999_999));
    let y = _mm256_set1_ps(black_box(1e-7));
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_ps(*a, x, y);
        }
    }
    let mut lanes = [0f32; 8];
    let mut s = 0.0;
    for a in acc {
        // SAFETY: `lanes` holds exactly the eight f32s one __m256 stores.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), a) };
        s += lanes.iter().sum::<f32>();
    }
    s
}

fn fma_loop_scalar(iters: u64) -> f32 {
    let mut acc = [0f32; ACCS];
    let (x, y) = (black_box(0.999_999f32), black_box(1e-7f32));
    for _ in 0..iters {
        for a in &mut acc {
            *a = a.mul_add(x, y);
        }
    }
    acc.iter().sum()
}

/// Run the FMA loop of `level`; returns f32 flops performed.
fn fma_run(level: SimdLevel, iters: u64) -> f64 {
    let lanes = match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: the CPU reports AVX-512F.
            black_box(unsafe { fma_loop_avx512(iters) });
            16
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 | SimdLevel::Avx2
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma") =>
        {
            // SAFETY: the CPU reports AVX2 and FMA.
            black_box(unsafe { fma_loop_avx2(iters) });
            8
        }
        _ => {
            black_box(fma_loop_scalar(iters));
            1
        }
    };
    2.0 * (ACCS * lanes) as f64 * iters as f64
}

/// Best-of-three f32 FMA GFlop/s at `level` with `threads` threads each
/// running its own loop.
pub fn fma_gflops(level: SimdLevel, threads: usize) -> f64 {
    let iters = 4_000_000;
    (0..3)
        .map(|_| {
            let (flops, secs) = timed(|| {
                std::thread::scope(|s| {
                    let hs: Vec<_> = (0..threads)
                        .map(|_| s.spawn(move || fma_run(level, iters)))
                        .collect();
                    hs.into_iter()
                        .map(|h| h.join().expect("probe thread panicked"))
                        .sum::<f64>()
                })
            });
            flops / secs / 1e9
        })
        .fold(0.0, f64::max)
}

/// STREAM-style copy bandwidth (GB/s, read + write bytes) over two
/// arrays of `bytes` each, copied by `threads` threads; best of three.
pub fn copy_gbs(bytes: usize, threads: usize) -> f64 {
    let n = bytes / 8;
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let best = (0..3)
        .map(|_| {
            let ((), secs) = timed(|| {
                std::thread::scope(|s| {
                    for (d, sc) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                        s.spawn(move || d.copy_from_slice(sc));
                    }
                });
            });
            black_box(&dst);
            secs
        })
        .fold(f64::INFINITY, f64::min);
    2.0 * (n * 8) as f64 / best / 1e9
}

/// Size of each copy-probe array: four times the last-level cache
/// (32 MiB assumed when the cache size is unknown).
pub fn copy_array_bytes(c: &Caches) -> usize {
    4 * if c.l3 > 0 { c.l3 } else { 32 << 20 }
}

/// Measured ceilings of this host.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// f32 FMA GFlop/s on one thread.
    pub fma_1t: f64,
    /// f32 FMA GFlop/s on two threads.
    pub fma_2t: f64,
    pub copy_gbs: f64,
    pub copy_array_bytes: usize,
}

impl Ceilings {
    pub fn probe(caches: &Caches) -> Ceilings {
        let level = SimdLevel::detect();
        let bytes = copy_array_bytes(caches);
        Ceilings {
            fma_1t: fma_gflops(level, 1),
            fma_2t: fma_gflops(level, 2),
            copy_gbs: copy_gbs(bytes, 2),
            copy_array_bytes: bytes,
        }
    }

    /// Seconds the FMA units need for `f32_flops` + `f64_flops` at the
    /// program's thread count (an f64 FMA lane is half as wide).
    pub fn ideal_seconds(&self, f32_flops: f64, f64_flops: f64) -> f64 {
        let peak = match clgemm_shim::par::worker_count(2) {
            1 => self.fma_1t,
            _ => self.fma_2t,
        };
        (f32_flops + 2.0 * f64_flops) / (peak * 1e9)
    }
}

/// Target features the benchmark (and the program it links) was
/// compiled with — `target-cpu=native` shows up here.
pub fn compiled_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    if cfg!(target_feature = "sse2") {
        v.push("sse2");
    }
    if cfg!(target_feature = "avx2") {
        v.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        v.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        v.push("avx512f");
    }
    if cfg!(target_feature = "neon") {
        v.push("neon");
    }
    v
}

/// The checkout's git commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(c) = read(&format!(".git/{r}")) {
        return c.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host description recorded next to every number.
pub fn metadata(caches: &Caches, ceilings: Option<&Ceilings>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut fields = vec![
        ("nproc", Json::from(nproc)),
        ("simd_level", Json::from(SimdLevel::detect().tag())),
        ("l1d_bytes", Json::from(caches.l1d)),
        ("l2_bytes", Json::from(caches.l2)),
        ("l3_bytes", Json::from(caches.l3)),
        (
            "compiled_target_features",
            Json::Arr(compiled_features().into_iter().map(Json::from).collect()),
        ),
        ("git_commit", Json::from(git_commit())),
    ];
    if let Some(c) = ceilings {
        fields.push(("fma_gflops_1t", Json::from(c.fma_1t)));
        fields.push(("fma_gflops_2t", Json::from(c.fma_2t)));
        fields.push(("copy_gbs", Json::from(c.copy_gbs)));
        fields.push(("copy_array_bytes", Json::from(c.copy_array_bytes)));
    }
    Json::obj(fields)
}
