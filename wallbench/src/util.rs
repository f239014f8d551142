//! Small shared pieces: a pausable wall clock, order statistics, a
//! bit-exact result digest, pinning to one CPU, allocator settings and
//! the process's peak resident memory.

use clgemm_blas::scalar::{Bf16, F16};
use std::time::{Duration, Instant};

/// A wall clock that can be stopped. Work the benchmark does between
/// calls into the program (generating inputs, checking outputs,
/// replaying a drain for the trace) runs while the clock is paused, so
/// open-loop due times and latencies only see the program's own time.
pub struct PauseClock {
    origin: Instant,
    paused_total: Duration,
    paused_at: Option<Instant>,
}

impl PauseClock {
    pub fn start() -> PauseClock {
        PauseClock {
            origin: Instant::now(),
            paused_total: Duration::ZERO,
            paused_at: None,
        }
    }

    /// Seconds elapsed, excluding paused intervals.
    pub fn now(&self) -> f64 {
        let at = self.paused_at.unwrap_or_else(Instant::now);
        (at - self.origin - self.paused_total).as_secs_f64()
    }

    pub fn pause(&mut self) {
        if self.paused_at.is_none() {
            self.paused_at = Some(Instant::now());
        }
    }

    pub fn resume(&mut self) {
        if let Some(at) = self.paused_at.take() {
            self.paused_total += at.elapsed();
        }
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (0 for an empty set).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive samples (0 for an empty set).
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Element types whose exact bit pattern the digest covers.
pub trait Bits: Copy {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for F16 {
    fn bits(self) -> u64 {
        u64::from(self.0)
    }
}

impl Bits for Bf16 {
    fn bits(self) -> u64 {
        u64::from(self.0)
    }
}

/// A 128-bit digest of a slice's exact bit patterns and length: two
/// independent multiply-xorshift streams. Equal digests stand for
/// bit-identical results; one flipped bit changes both streams.
pub fn digest<T: Bits>(values: &[T]) -> (u64, u64) {
    const K1: u64 = 0x9E37_79B9_7F4A_7C15;
    const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let (mut h1, mut h2) = (values.len() as u64 ^ K2, values.len() as u64 ^ K1);
    for v in values {
        let w = v.bits();
        h1 = (h1 ^ w).wrapping_mul(K1).rotate_left(29);
        h2 = (h2 ^ w.rotate_left(17)).wrapping_mul(K2).rotate_left(31);
    }
    (h1, h2)
}

/// The smallest sample (0 for an empty set). Repeats of one identical
/// unit of work differ only by what else the host ran meanwhile, which
/// only ever adds time, so the fastest repeat is the unit's own cost.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of the affinity masks passed to the kernel (1024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

/// The CPUs the process started with, in order, once pinned.
#[cfg(target_os = "linux")]
static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
/// Index into `CPUS` of the CPU the benchmark thread runs on.
#[cfg(target_os = "linux")]
static CPU_AT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Restrict the calling thread, and every thread it starts from now on,
/// to one CPU.
#[cfg(target_os = "linux")]
fn set_cpu(cpu: usize) -> bool {
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is the size passed, the kernel only reads it, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Pin the calling thread, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on, and remember the others for
/// [`next_cpu`]. Returns the CPUs, or `None` when the affinity calls
/// fail and the run keeps every CPU.
///
/// The program's `par` fan-out sizes itself from the affinity mask, so
/// it runs one worker afterwards. On a shared virtual host each fan-out
/// otherwise wakes a second vCPU, and how long that takes depends on the
/// other guests, not on the program.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is the size passed, the kernel writes at most that
    // many bytes, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect();
    if cpus.is_empty() || !set_cpu(cpus[0]) {
        return None;
    }
    Some(CPUS.get_or_init(|| cpus).clone())
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<Vec<usize>> {
    None
}

/// Move the pinned benchmark thread to the next of the process's CPUs
/// (a no-op unless pinned to one of several). Repeats of a timed unit
/// then run on every CPU in turn: on a shared host each vCPU has slow
/// spells of its own, a unit's fastest repeat comes from whichever CPU
/// was free, and the program still runs one worker at a time.
pub fn next_cpu() {
    #[cfg(target_os = "linux")]
    if let Some(cpus) = CPUS.get().filter(|c| c.len() > 1) {
        let at = (CPU_AT.load(std::sync::atomic::Ordering::Relaxed) + 1) % cpus.len();
        if set_cpu(cpus[at]) {
            CPU_AT.store(at, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Make the C allocator keep the memory the process frees: no block is
/// mapped on its own, and the heap is never trimmed. Returns whether the
/// allocator took both settings.
///
/// Memory a process hands back is touched afresh the next time it is
/// allocated, and each fresh page is a fault. On a virtual host that
/// returns freed guest pages to the hypervisor, what a fault costs
/// depends on the other guests; a search or a served request would pay
/// it for every large buffer it allocates.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only changes allocator parameters; it runs
    // before any other thread exists.
    unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() -> bool {
    false
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process in MiB, from `getrusage`
/// (Linux reports `ru_maxrss` in KiB). 0 when the call fails.
pub fn peak_rss_mb() -> f64 {
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), and `u` outlives the
    // call, which only writes into it. RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&v), 1.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn digest_sees_one_bit() {
        let a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a[..2]), digest(&a));
    }

    #[test]
    fn paused_time_does_not_count() {
        let mut c = PauseClock::start();
        c.pause();
        std::thread::sleep(Duration::from_millis(20));
        let frozen = c.now();
        c.resume();
        assert!(frozen < 0.015, "paused clock advanced: {frozen}");
    }
}
