//! The `tune` workload: the paper's own system. A full
//! `SearchSpace::for_device` search with default `SearchOpts` (winner
//! verification on) for every modelled device × precision, plus
//! `predict_best` for each pair. No host GEMM runs here.

use crate::report::Results;
use crate::spans::Tracer;
use crate::util::{geomean, mean, median, next_cpu, quantile, ratio, timed};
use clgemm::codegen::{generate, KERNEL_NAME};
use clgemm::params::KernelParams;
use clgemm::predict::{predict_best, FeasibleSet};
use clgemm::profile::launch_profile;
use clgemm::tuner::search::{measure_gflops, verify_kernel, VmBuf};
use clgemm::tuner::{tune, SearchOpts, SearchSpace, TuningResult};
use clgemm_blas::layout::{round_up, PackedDims};
use clgemm_blas::scalar::{Precision, Scalar};
use clgemm_clc::{Arg, ExecOptions, Program};
use clgemm_device::{estimate, DeviceId, DeviceKind, DeviceSpec};
use clgemm_shim::par::par_map;
use std::time::Instant;

/// The winners every tuning run must reproduce: one line per
/// device × precision, `<device> <precision> <params as JSON>`.
const WINNERS: &str = include_str!("../winners.txt");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every device × precision, in a fixed order. The search has no random
/// input, and a seeded pair order alone moved `tune_s` by up to 9%
/// between seeds on the bench host, so the seed is not used here.
fn pairs() -> Vec<(DeviceSpec, Precision)> {
    DeviceId::ALL
        .iter()
        .flat_map(|id| [Precision::F32, Precision::F64].map(|p| (id.spec(), p)))
        .collect()
}

fn winner_line(dev: &DeviceSpec, p: Precision, params: &KernelParams) -> String {
    format!(
        "{} {p} {}",
        dev.code_name,
        params.to_json().to_string_compact()
    )
}

/// The pinned winner lines, for checking and for regenerating the file.
pub fn winner_lines() -> Vec<String> {
    let mut lines: Vec<String> = pairs()
        .iter()
        .map(|(dev, p)| winner_line(dev, *p, &search(dev, *p).best.params))
        .collect();
    lines.sort();
    lines
}

/// The default search, with the winner's verification split off (it is
/// the last step `tune` takes, so the result is the same) to time it.
fn search(dev: &DeviceSpec, p: Precision) -> TuningResult {
    let opts = SearchOpts {
        verify_winner: false,
        ..SearchOpts::default()
    };
    tune(dev, p, &SearchSpace::for_device(dev), &opts)
}

/// The flops of the GEMM `verify_kernel` runs for `p`.
fn verify_flops(p: &KernelParams) -> f64 {
    let k = p.k_multiple().max(2 * p.kwg.min(p.k_multiple()));
    2.0 * (p.mwg * p.nwg * k) as f64
}

/// One tuning job's timings (seconds).
struct Job {
    search_s: f64,
    verify_s: f64,
    predict_s: f64,
}

/// Tune every pair once; checks winners, verification and predictions.
fn tuning_set(mut tr: Option<&mut Tracer>, res: &mut Results) -> (Vec<Job>, Vec<TuningResult>) {
    let mut jobs = Vec::new();
    let mut results = Vec::new();
    for (i, (dev, p)) in pairs().into_iter().enumerate() {
        let mut span = |name: &'static str, f: &mut dyn FnMut()| match tr.as_deref_mut() {
            Some(t) => t.span(name, i as u64, f),
            None => f(),
        };
        let mut result = None;
        let mut verified = Ok(());
        let mut predicted = None;
        let t0 = Instant::now();
        span("tuner.tune", &mut || result = Some(search(&dev, p)));
        let t1 = Instant::now();
        let r = result.expect("search ran");
        span("tuner.verify", &mut || {
            verified = verify_kernel(&r.best.params)
        });
        let t2 = Instant::now();
        span("predict.best", &mut || predicted = predict_best(&dev, p));
        let t3 = Instant::now();
        res.attempted += 1;
        if let Err(e) = verified {
            res.failed += 1;
            res.mismatch(format!(
                "{} {p}: winner failed verification: {e}",
                dev.code_name
            ));
        }
        if predicted.is_none() {
            res.failed += 1;
        }
        let line = winner_line(&dev, p, &r.best.params);
        if !WINNERS.lines().any(|l| l == line) {
            res.mismatch(format!("tuner winner changed: {line}"));
        }
        jobs.push(Job {
            search_s: (t1 - t0).as_secs_f64(),
            verify_s: (t2 - t1).as_secs_f64(),
            predict_s: (t3 - t2).as_secs_f64(),
        });
        results.push(r);
    }
    (jobs, results)
}

fn set_seconds(jobs: &[Job]) -> f64 {
    jobs.iter()
        .map(|j| j.search_s + j.verify_s + j.predict_s)
        .sum()
}

/// Set-up: one smoke-sized search (with verification) per pair — the
/// warm-up that pays first-touch costs before the measured searches.
fn set_up() -> f64 {
    timed(|| {
        for (dev, p) in pairs() {
            let r = tune(&dev, p, &SearchSpace::smoke(&dev), &SearchOpts::default());
            std::hint::black_box(r);
        }
    })
    .1
}

pub fn run(seconds: f64, tracer: Option<&mut Tracer>, res: &mut Results) {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            next_cpu();
            set_up()
        })
        .collect();
    res.set("setup_s", median(&setups));
    res.samples.push(("setups", SETUPS));
    match tracer {
        None => {
            // Every set repeats the same searches, so each stage of each
            // job keeps its fastest time over the sets.
            let start = Instant::now();
            let mut sets = 0;
            let mut fastest: Vec<Job> = Vec::new();
            let mut results = Vec::new();
            while sets == 0 || start.elapsed().as_secs_f64() < seconds {
                let (jobs, rs) = tuning_set(None, res);
                if fastest.is_empty() {
                    fastest = jobs;
                } else {
                    for (f, j) in fastest.iter_mut().zip(&jobs) {
                        f.search_s = f.search_s.min(j.search_s);
                        f.verify_s = f.verify_s.min(j.verify_s);
                        f.predict_s = f.predict_s.min(j.predict_s);
                    }
                }
                results = rs;
                sets += 1;
                next_cpu();
            }
            let per_job: Vec<f64> = fastest
                .iter()
                .map(|j| j.search_s + j.verify_s + j.predict_s)
                .collect();
            let vflops: f64 = results.iter().map(|r| verify_flops(&r.best.params)).sum();
            let vsecs: f64 = fastest.iter().map(|j| j.verify_s).sum();
            let winners: Vec<f64> = results.iter().map(|r| r.best.gflops).collect();
            res.set("tune_s", set_seconds(&fastest));
            res.set("latency_p50_ms", 1e3 * quantile(&per_job, 0.5));
            res.set("latency_p90_ms", 1e3 * quantile(&per_job, 0.9));
            res.set("throughput_gflops", vflops / vsecs / 1e9);
            res.set("tuned_model_gflops", geomean(&winners));
            res.samples.push(("tuning_sets", sets));
            res.samples.push(("tuning_jobs", per_job.len()));
        }
        Some(tr) => traced(tr, res),
    }
}

/// Traced run: an untraced tuning set (the overhead baseline), a traced
/// one, then a replay of every search stage by stage.
fn traced(tr: &mut Tracer, res: &mut Results) {
    let (plain, _) = tuning_set(None, res);
    let (jobs, results) = tuning_set(Some(tr), res);
    let mut candidates = 0usize;
    let mut pruned = 0usize;
    for (i, ((dev, p), r)) in pairs().into_iter().zip(&results).enumerate() {
        candidates += replay_search(tr, i as u64, &dev, p, &mut pruned);
        replay_verify(tr, i as u64, &r.best.params);
    }
    let n = results.len() as f64;
    let (stage1_s, _) = tr.total("tuner.stage1");
    let mean_ms = |name: &str| 1e3 * mean(&tr.durations(name));
    res.set("tuner.enumerate_ms", mean_ms("tuner.enumerate"));
    res.set("tuner.candidates", candidates as f64 / n);
    res.set("tuner.prune_ms", mean_ms("tuner.prune"));
    res.set("tuner.pruned_frac", ratio(pruned as f64, candidates as f64));
    res.set("tuner.stage1_ms", mean_ms("tuner.stage1"));
    res.set("tuner.evals_per_s", ratio(candidates as f64, stage1_s));
    res.set("tuner.stage2_ms", mean_ms("tuner.stage2"));
    res.set("tuner.verify_ms", mean_ms("tuner.verify"));
    res.set("predict.best_ms", mean_ms("predict.best"));
    res.set("codegen.generate_us", 1e3 * mean_ms("codegen.generate"));
    res.set("clc.compile_ms", mean_ms("clc.compile"));
    res.set("clc.launch_ms", mean_ms("clc.launch"));
    let used: Vec<(String, KernelParams)> = pairs()
        .iter()
        .zip(&results)
        .map(|((d, _), r)| (d.code_name.clone(), r.best.params))
        .collect();
    res.set("device.estimate_us", estimate_us(&used));
    let (searched, _) = tr.total("tuner.tune");
    let replayed: f64 = ["tuner.enumerate", "tuner.stage1", "tuner.stage2"]
        .iter()
        .map(|s| tr.total(s).0)
        .sum();
    res.set("bench.coverage", ratio(replayed, searched));
    res.set(
        "bench.trace_overhead_frac",
        ratio(set_seconds(&jobs), set_seconds(&plain)) - 1.0,
    );
}

/// Stage-1 problem size for a candidate: `⌊base/LCM⌋·LCM`, as the
/// search computes it.
fn stage1_n(p: &KernelParams, base: usize) -> usize {
    let lcm = p.lcm_block();
    if lcm == 0 || lcm > base {
        round_up(base, lcm.max(1))
    } else {
        (base / lcm) * lcm
    }
}

/// The search's stages through their public functions: enumeration,
/// the predictor's feasible set, the stage-1 model evaluation of every
/// candidate and the stage-2 sweep of the best 50. Returns the number
/// of candidates; adds the feasible set's rejections to `pruned`.
fn replay_search(
    tr: &mut Tracer,
    job: u64,
    dev: &DeviceSpec,
    p: Precision,
    pruned: &mut usize,
) -> usize {
    let opts = SearchOpts::default();
    let space = SearchSpace::for_device(dev);
    let cands = tr.span("tuner.enumerate", job, || space.enumerate(dev, p));
    *pruned += tr.span("tuner.prune", job, || {
        let f = FeasibleSet::derive(dev, p);
        cands.iter().filter(|c| f.reject(c).is_some()).count()
    });
    let base = match dev.kind {
        DeviceKind::Gpu => 4096,
        DeviceKind::Cpu => 1536,
    };
    let mut stage1: Vec<(usize, f64)> = tr.span("tuner.stage1", job, || {
        par_map(&cands, |i, c: &KernelParams| {
            measure_gflops(c, dev, stage1_n(c, base)).map(|g| (i, g))
        })
        .into_iter()
        .flatten()
        .collect()
    });
    stage1.sort_by(|a, b| b.1.total_cmp(&a.1));
    stage1.truncate(opts.top_k);
    tr.span("tuner.stage2", job, || {
        par_map(&stage1, |_, &(i, _)| {
            let c = &cands[i];
            let lcm = c.lcm_block().max(1);
            let step = ((opts.max_n / lcm).max(1) / opts.max_sweep_points).max(1);
            let mut best = 0.0f64;
            let mut mult = 1;
            while mult * lcm <= opts.max_n {
                if let Some(g) = measure_gflops(c, dev, mult * lcm) {
                    best = best.max(g);
                }
                mult += step;
            }
            best
        })
    });
    cands.len()
}

/// `verify_kernel`'s steps, each in its own span: generate, compile and
/// launch the winner in clc on the verification problem.
fn replay_verify(tr: &mut Tracer, job: u64, p: &KernelParams) {
    let Ok(gen) = tr.span("codegen.generate", job, || generate(p)) else {
        return;
    };
    let Ok(prog) = tr.span("clc.compile", job, || Program::compile(&gen.source)) else {
        return;
    };
    let Some(kernel) = prog.kernel(KERNEL_NAME) else {
        return;
    };
    let (m, n) = (p.mwg, p.nwg);
    let k = p.k_multiple().max(2 * p.kwg.min(p.k_multiple()));
    let (Ok(da), Ok(db)) = (
        PackedDims::new(k, m, p.mwg, p.kwg),
        PackedDims::new(k, n, p.nwg, p.kwg),
    ) else {
        return;
    };
    fn bufs<T: Scalar + VmBuf>(
        la: usize,
        lb: usize,
        lc: usize,
    ) -> (Vec<clgemm_clc::BufData>, Arg, Arg) {
        let fill = |len: usize, s: usize| -> Vec<T> {
            (0..len)
                .map(|i| T::from_f64(((i * s + 11) % 23) as f64 / 23.0 - 0.5))
                .collect()
        };
        (
            vec![
                T::to_buf(fill(la, 37)),
                T::to_buf(fill(lb, 53)),
                T::to_buf(fill(lc, 13)),
            ],
            T::scalar_arg(T::from_f64(0.75)),
            T::scalar_arg(T::from_f64(-0.5)),
        )
    }
    let (mut buffers, alpha, beta) = match p.precision {
        Precision::F64 => bufs::<f64>(da.len(), db.len(), m * n),
        Precision::F32 => bufs::<f32>(da.len(), db.len(), m * n),
    };
    let args = [
        Arg::Buf(0),
        Arg::Buf(1),
        Arg::Buf(2),
        Arg::I32(m as i32),
        Arg::I32(n as i32),
        Arg::I32(k as i32),
        alpha,
        beta,
    ];
    // `verify_kernel` already gated this launch's result.
    let _ = tr.span("clc.launch", job, || {
        kernel.launch(
            gen.ndrange(m, n),
            &args,
            &mut buffers,
            &ExecOptions::default(),
        )
    });
}

/// Mean wall milliseconds of one `predict_best` per device × precision.
pub fn predict_best_ms(devices: &[DeviceSpec]) -> f64 {
    let samples: Vec<f64> = devices
        .iter()
        .flat_map(|d| [Precision::F32, Precision::F64].map(|p| (d, p)))
        .map(|(d, p)| timed(|| std::hint::black_box(predict_best(d, p))).1)
        .collect();
    1e3 * mean(&samples)
}

/// Mean wall microseconds of one device-model `estimate` for the
/// `(device, params)` pairs a workload used, on a 512-edge problem
/// padded to each kernel's blocking.
pub fn estimate_us(used: &[(String, KernelParams)]) -> f64 {
    const CALLS: usize = 200;
    let mut samples = Vec::new();
    for (name, p) in used {
        let dev = crate::replay::device(name);
        let prof = launch_profile(
            p,
            &dev,
            round_up(512, p.mwg),
            round_up(512, p.nwg),
            round_up(512, p.k_multiple()),
        );
        let ((), secs) = timed(|| {
            for _ in 0..CALLS {
                std::hint::black_box(estimate(&dev, std::hint::black_box(&prof)).ok());
            }
        });
        samples.push(secs / CALLS as f64);
    }
    1e6 * mean(&samples)
}
