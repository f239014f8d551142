//! The `batched` workload: back-to-back `GemmServer::run_batched` calls,
//! each a batch of 64 at 32³, 64³ or 128³ in f32, f16 or bf16, half of
//! them with one `A` shared by every entry. No queue, no hashing.

use crate::gen::{batch_pool, BatchOrder, BatchSpec, BATCH_EDGES};
use crate::host::Ceilings;
use crate::replay::{device, tuned_for};
use crate::report::Results;
use crate::serve::{devices, RefineSet, MAX_WARM_ROUNDS, MIN_REFINE_ROUNDS};
use crate::spans::{Tracer, NONE};
use crate::util::{digest, mean, median, min, next_cpu, quantile, ratio, timed, Bits};
use clgemm::batched::BatchPath;
use clgemm::params::KernelParams;
use clgemm::routine::TunedGemm;
use clgemm_blas::batch::GemmBatch;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Precision, StorageScalar};
use clgemm_serve::{BatchedPayload, BatchedRequest, BatchedResponse, GemmServer, ServeConfig};
use clgemm_trace::Registry;
use std::collections::HashMap;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A server warmed on every pool entry until every shape bucket is
/// resolved and refined on every device (or `MAX_WARM_ROUNDS` rounds
/// have run).
fn set_up_once(templates: &[BatchedRequest]) -> GemmServer {
    let mut server = GemmServer::new(
        devices(),
        ServeConfig {
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    );
    let keys = BATCH_EDGES.len() * devices().len();
    for _ in 0..MAX_WARM_ROUNDS {
        for t in templates {
            // Descriptors are valid by construction; a failure here
            // shows up again, counted, in the measured phase.
            let _ = server.run_batched(t.clone());
        }
        server.wait_refines();
        if server.tuning_db().len() >= keys {
            break;
        }
    }
    server
}

/// Digest of a payload's `C` slab.
fn c_digest(p: &BatchedPayload) -> (u64, u64) {
    match p {
        BatchedPayload::F64 { c, .. } => digest(c),
        BatchedPayload::F32 { c, .. } => digest(c),
        BatchedPayload::F16 { c, .. } => digest(c),
        BatchedPayload::Bf16 { c, .. } => digest(c),
    }
}

/// The batch computed as a loop of single-GEMM calls: each entry
/// widened to its accumulation type, `TunedGemm::gemm`, narrowed back.
fn looped<S: StorageScalar + Bits>(
    tg: &TunedGemm,
    d: &GemmBatch,
    alpha: S::Acc,
    a: &[S],
    b: &[S],
    beta: S::Acc,
    c: &[S],
) -> (u64, u64)
where
    S::Acc: clgemm_blas::WorkspaceScalar,
{
    let entry = |slab: &[S], off: usize, rows: usize, cols: usize, ld: usize| {
        Matrix::from_fn(rows, cols, StorageOrder::ColMajor, |i, j| {
            slab[off + j * ld + i].widen()
        })
    };
    let mut out = c.to_vec();
    let ((ar, ac), (br, bc)) = (d.a_dims(), d.b_dims());
    for i in 0..d.batch {
        let am = entry(a, d.a_offset(i), ar, ac, d.lda);
        let bm = entry(b, d.b_offset(i), br, bc, d.ldb);
        let mut cm = entry(c, d.c_offset(i), d.m, d.n, d.ldc);
        tg.gemm(d.ty, alpha, &am, &bm, beta, &mut cm);
        for j in 0..d.n {
            for r in 0..d.m {
                out[d.c_offset(i) + j * d.ldc + r] = S::narrow(cm.at(r, j));
            }
        }
    }
    digest(&out)
}

fn oracle_digest(tg: &TunedGemm, t: &BatchedRequest) -> (u64, u64) {
    let d = &t.desc;
    match &t.payload {
        BatchedPayload::F64 {
            alpha,
            a,
            b,
            beta,
            c,
        } => looped(tg, d, *alpha, a, b, *beta, c),
        BatchedPayload::F32 {
            alpha,
            a,
            b,
            beta,
            c,
        } => looped(tg, d, *alpha, a, b, *beta, c),
        BatchedPayload::F16 {
            alpha,
            a,
            b,
            beta,
            c,
        } => looped(tg, d, *alpha, a, b, *beta, c),
        BatchedPayload::Bf16 {
            alpha,
            a,
            b,
            beta,
            c,
        } => looped(tg, d, *alpha, a, b, *beta, c),
    }
}

/// Widen a narrow-storage call's `A` and `B` slabs to f32, as the
/// convert-on-pack path does; a no-op for f32.
fn widen_operands(p: &BatchedPayload) -> usize {
    fn w<S: StorageScalar>(s: &[S]) -> Vec<S::Acc> {
        s.iter().map(|v| v.widen()).collect()
    }
    match p {
        BatchedPayload::F16 { a, b, .. } => std::hint::black_box((w(a), w(b))).0.len(),
        BatchedPayload::Bf16 { a, b, .. } => std::hint::black_box((w(a), w(b))).0.len(),
        _ => 0,
    }
}

struct Run<'r> {
    server: GemmServer,
    templates: Vec<BatchedRequest>,
    pool: Vec<BatchSpec>,
    order: BatchOrder,
    /// Expected digest per (pool entry, device, params).
    expected: HashMap<(usize, String, KernelParams), (u64, u64)>,
    /// Timed a round at a time, after every block of calls.
    refine: RefineSet,
    res: &'r mut Results,
    used: Vec<(String, KernelParams)>,
}

/// What one phase of calls measured.
#[derive(Default)]
struct Calls {
    busy_s: f64,
    flops: f64,
    times: Vec<f64>,
    direct: usize,
    /// Call times of each pool entry.
    by_entry: HashMap<usize, Vec<f64>>,
}

impl Calls {
    /// Each pool entry's fastest call (seconds) and its flops. The calls
    /// of one entry are the same computation, so they differ only by
    /// what else the host ran meanwhile.
    fn fastest(&self, pool: &[BatchSpec]) -> Vec<(f64, f64)> {
        let mut v: Vec<(usize, f64)> = self.by_entry.iter().map(|(&i, t)| (i, min(t))).collect();
        v.sort_by_key(|&(i, _)| i);
        v.into_iter()
            .map(|(i, t)| (t, pool[i].desc.flops()))
            .collect()
    }
}

impl Run<'_> {
    fn check(&mut self, idx: usize, r: &BatchedResponse) {
        let key = (idx, r.device.clone(), r.params);
        let want = match self.expected.get(&key) {
            Some(d) => *d,
            None => {
                let tg = tuned_for(device(&r.device), r.params);
                let d = oracle_digest(&tg, &self.templates[idx]);
                self.expected.insert(key, d);
                d
            }
        };
        if c_digest(&r.payload) != want {
            self.res.mismatch(format!(
                "batched call ({} {:?}) on {} differs from looped single GEMMs",
                r.desc, self.pool[idx].storage, r.device
            ));
        }
        if !self
            .used
            .iter()
            .any(|(d, p)| *d == r.device && *p == r.params)
        {
            self.used.push((r.device.clone(), r.params));
        }
    }

    /// Back-to-back calls until `secs` of measured call time.
    fn calls(&mut self, secs: f64, mut tr: Option<&mut Tracer>) -> Calls {
        let mut out = Calls::default();
        while out.busy_s < secs {
            if !out.times.is_empty() && out.times.len() % self.pool.len() == 0 {
                self.refine.round();
                next_cpu();
            }
            let idx = self.order.next_index();
            let req = self.templates[idx].clone();
            let flops = req.desc.flops();
            self.res.attempted += 1;
            let (result, t) = match tr.as_deref_mut() {
                Some(tr) => {
                    timed(|| tr.span("batched.call", NONE, || self.server.run_batched(req)))
                }
                None => timed(|| self.server.run_batched(req)),
            };
            out.busy_s += t;
            out.times.push(t);
            out.by_entry.entry(idx).or_default().push(t);
            match result {
                Ok(r) => {
                    out.flops += flops;
                    if r.run.path == BatchPath::Direct {
                        out.direct += 1;
                    }
                    if let Some(tr) = tr.as_deref_mut() {
                        if self.pool[idx].storage.widens() {
                            tr.span("batched.widen", NONE, || widen_operands(&r.payload));
                        }
                    }
                    self.check(idx, &r);
                }
                Err(_) => self.res.failed += 1,
            }
        }
        out
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    ceilings: Option<&Ceilings>,
    tracer: Option<&mut Tracer>,
    res: &mut Results,
) {
    let pool = batch_pool(seed);
    let templates: Vec<BatchedRequest> = pool.iter().map(BatchSpec::request).collect();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        next_cpu();
        let (s, secs) = timed(|| set_up_once(&templates));
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    res.set("setup_s", median(&setups));
    let jobs: Vec<_> = devices()
        .into_iter()
        .flat_map(|d| BATCH_EDGES.map(|_| (d.clone(), Precision::F32)))
        .collect();
    let mut refine = RefineSet::new(jobs);
    refine.round();
    res.samples.push(("setups", SETUPS));

    let mut run = Run {
        server,
        order: BatchOrder::new(pool.len(), seed),
        pool,
        templates,
        expected: HashMap::new(),
        refine,
        res,
        used: Vec::new(),
    };
    match tracer {
        None => {
            // Calls come in blocks that hold every pool entry once; the
            // figures are those of one block with each call at its fastest.
            let c = run.calls(seconds, None);
            let fastest = c.fastest(&run.pool);
            let times: Vec<f64> = fastest.iter().map(|&(t, _)| t).collect();
            let flops: f64 = fastest.iter().map(|&(_, f)| f).sum();
            run.res
                .set("throughput_gflops", flops / times.iter().sum::<f64>() / 1e9);
            run.res.set("latency_p50_ms", 1e3 * quantile(&times, 0.5));
            run.res.set("latency_p90_ms", 1e3 * quantile(&times, 0.9));
            run.res.samples.push(("calls", c.times.len()));
        }
        Some(tr) => {
            let ceil = ceilings.expect("traced runs probe the host");
            let plain = run.calls(seconds * 0.4, None);
            let grows0 = run.server.batched_workspace_grows();
            let traced = run.calls(seconds * 0.6, Some(tr));
            let r = &mut *run.res;
            r.set("batched.call_ms", 1e3 * mean(&traced.times));
            r.set(
                "batched.direct_frac",
                ratio(traced.direct as f64, traced.times.len() as f64),
            );
            r.set(
                "batched.widen_ms",
                1e3 * mean(&tr.durations("batched.widen")),
            );
            r.set(
                "batched.peak_frac",
                ratio(ceil.ideal_seconds(traced.flops, 0.0), traced.busy_s),
            );
            r.set(
                "batched.workspace_grows",
                (run.server.batched_workspace_grows() - grows0) as f64,
            );
            r.set("device.estimate_us", crate::tune::estimate_us(&run.used));
            r.set("predict.best_ms", crate::tune::predict_best_ms(&devices()));
            let per_flop = |c: &Calls| ratio(c.busy_s, c.flops);
            r.set(
                "bench.trace_overhead_frac",
                ratio(per_flop(&traced), per_flop(&plain)) - 1.0,
            );
            r.samples.push(("traced_calls", traced.times.len()));
        }
    }
    while run.refine.rounds() < MIN_REFINE_ROUNDS {
        run.refine.round();
    }
    let (tune_s, model_gflops) = run.refine.result();
    run.res.set("tune_s", tune_s);
    run.res.set("tuned_model_gflops", model_gflops);
    run.res.samples.push(("refine_rounds", run.refine.rounds()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_batched_c_trips_the_gate() {
        let pool = batch_pool(1);
        let templates: Vec<BatchedRequest> = pool.iter().map(BatchSpec::request).collect();
        let mut server = GemmServer::new(
            devices(),
            ServeConfig {
                registry: Some(Registry::new()),
                background_refine: false,
                ..ServeConfig::default()
            },
        );
        let idx = 2; // a 32³ f16 batch
        let mut resp = server
            .run_batched(templates[idx].clone())
            .expect("valid batch");
        let mut res = Results::default();
        let mut run = Run {
            server,
            templates,
            order: BatchOrder::new(pool.len(), 1),
            pool,
            expected: HashMap::new(),
            refine: RefineSet::new(Vec::new()),
            res: &mut res,
            used: Vec::new(),
        };
        run.check(idx, &resp);
        assert!(run.res.correct(), "{:?}", run.res.mismatches);
        if let BatchedPayload::F16 { c, .. } = &mut resp.payload {
            c[7].0 ^= 1;
        } else {
            panic!("pool entry 2 stores f16");
        }
        run.check(idx, &resp);
        assert!(!run.res.correct());
    }
}
