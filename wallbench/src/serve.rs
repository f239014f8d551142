//! The serving workload, `serve_small`, driven through
//! `GemmServer::{submit, drain, take_responses}`.
//!
//! A run sets the server up several times (construction, warm-up until
//! every shape bucket is resolved, `wait_refines`), then measures a
//! closed loop (a fixed set of clients, each submitting its next request
//! once the previous one is answered) and an open loop (one request due
//! every `1/rate` seconds, each timed from when it was due). Both loops
//! replay a seeded stretch of requests in passes, and a figure counts
//! each drain or request at the fastest of its passes. Every served `C`
//! is checked outside the timed region.

use crate::gen::{Passes, ReqSpec, Stream, TENANTS};
use crate::host::Ceilings;
use crate::replay::{self, routine_phases, same_bits, Oracles, RoutineWork};
use crate::report::Results;
use crate::spans::{Tracer, NONE};
use crate::util::{geomean, mean, median, min, next_cpu, quantile, ratio, timed, PauseClock};
use clgemm::codegen::generate;
use clgemm::params::{small_test_params, KernelParams};
use clgemm::predict::predict_best;
use clgemm::tuner::{tune, Measurement, SearchOpts, SearchSpace};
use clgemm::tuning_db::{DbKey, TuningDb};
use clgemm_blas::scalar::Precision;
use clgemm_device::{DeviceId, DeviceSpec};
use clgemm_serve::request::PendingRequest;
use clgemm_serve::{
    coalesce, content_key, CacheKey, CachedC, CachedResult, ContentKey, GemmPayload, GemmRequest,
    GemmResponse, GemmServer, KernelCache, Outcome, RequestId, ResultCache, Scheduler, ServeConfig,
    ShapeBucket, StatsSnapshot,
};
use clgemm_shim::Rng;
use clgemm_trace::Registry;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The modelled device pool of the serving and batched workloads: three
/// GPUs of similar modelled speed, so least-loaded placement sends every
/// shape bucket to every device and the warm-up can resolve them all.
pub fn devices() -> Vec<DeviceSpec> {
    [DeviceId::Tahiti, DeviceId::Cayman, DeviceId::Cypress]
        .iter()
        .map(|id| id.spec())
        .collect()
}

/// Closed-loop clients, each with one request outstanding.
const CLIENTS: usize = 32;
/// Closed-loop drains per pass.
const PASS_DRAINS: usize = 32;
/// Share of `--seconds` given to the closed loop; the open loop gets the
/// rest.
const CLOSED_SHARE: f64 = 0.5;
/// Open-loop offered rate, requests per second.
const RATE_HZ: f64 = 250.0;
/// Open-loop requests per pass; the open loop runs whole passes.
const OPEN_PASS: usize = 250;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of requests also checked against the reference engine.
const REFERENCE_SHARE: f64 = 0.1;

/// Warm-up rounds at most.
pub const MAX_WARM_ROUNDS: usize = 8;

/// Rounds of the tuning set a run times at least.
pub const MIN_REFINE_ROUNDS: usize = 5;

/// The server configuration: defaults, the workload's tenant weights,
/// and a registry of its own.
fn config() -> ServeConfig {
    ServeConfig {
        registry: Some(Registry::new()),
        tenant_weights: TENANTS.iter().map(|&(t, w)| (t.to_string(), w)).collect(),
        ..ServeConfig::default()
    }
}

/// One request per (precision, shape bucket) the stream can produce,
/// each at the smallest shape of its bucket.
fn warm_specs(seed: u64) -> Vec<ReqSpec> {
    let mut rng = Rng::new(seed ^ 0x3A_12_0F);
    let edges = [16, 17, 33, 65];
    let mut out = Vec::new();
    for precision in [Precision::F32, Precision::F64] {
        for &m in &edges {
            for &n in &edges {
                for &k in &edges {
                    out.push(ReqSpec {
                        ty: clgemm_blas::GemmType::ALL[rng.range(0, 4)],
                        precision,
                        m,
                        n,
                        k,
                        tenant: TENANTS[0].0,
                        content: rng.next_u64(),
                    });
                }
            }
        }
    }
    out
}

/// Construct a server and warm it until every shape bucket has been
/// resolved — and its background refinement committed to the tuning
/// database — on every device (or `MAX_WARM_ROUNDS` rounds have run),
/// so no cold start or background tuning overlaps the timed phase.
fn set_up_once(seed: u64) -> GemmServer {
    let mut server = GemmServer::new(devices(), config());
    let warm = warm_specs(seed);
    let keys = warm.len() * devices().len();
    for _ in 0..MAX_WARM_ROUNDS {
        for chunk in warm.chunks(CLIENTS) {
            for s in chunk {
                // A refusal only leaves a bucket for the next round.
                let _ = server.submit(s.request());
            }
            server.drain();
            server.take_responses();
        }
        server.wait_refines();
        if server.tuning_db().len() >= keys {
            break;
        }
    }
    server
}

/// The workload's tuning set, as the server runs it: for every key a
/// complete warm-up commits to the tuning database — each device ×
/// (precision, shape bucket) — the background refiner's search (`tune`
/// over `SearchSpace::smoke`, top 4, 4 sweep points, predictor pruning,
/// no verification). Run on the benchmark thread with nothing else
/// running, so the figure does not depend on what overlapped the
/// server's own refinements.
///
/// The search has no random input, so keys that share a device and
/// precision run the same search. A round times each distinct search
/// once; the workload runs rounds spread over the whole run, and the
/// set's time sums, over every key, the fastest time of its search.
pub struct RefineSet {
    /// Index into `distinct` of every job.
    slot: Vec<usize>,
    distinct: Vec<(DeviceSpec, Precision)>,
    times: Vec<Vec<f64>>,
    gflops: Vec<f64>,
}

impl RefineSet {
    pub fn new(jobs: Vec<(DeviceSpec, Precision)>) -> RefineSet {
        let mut distinct: Vec<(DeviceSpec, Precision)> = Vec::new();
        let slot = jobs
            .iter()
            .map(|(spec, p)| {
                let same =
                    |(d, q): &(DeviceSpec, Precision)| d.code_name == spec.code_name && q == p;
                distinct.iter().position(same).unwrap_or_else(|| {
                    distinct.push((spec.clone(), *p));
                    distinct.len() - 1
                })
            })
            .collect();
        let n = distinct.len();
        RefineSet {
            slot,
            distinct,
            times: vec![Vec::new(); n],
            gflops: vec![0.0; n],
        }
    }

    /// Time every distinct search once.
    pub fn round(&mut self) {
        let opts = SearchOpts {
            top_k: 4,
            max_sweep_points: 4,
            verify_winner: false,
            predictor_prune: true,
            ..SearchOpts::default()
        };
        for (i, (spec, p)) in self.distinct.iter().enumerate() {
            let (best, secs) = timed(|| tune(spec, *p, &SearchSpace::smoke(spec), &opts).best);
            self.times[i].push(secs);
            self.gflops[i] = best.gflops;
        }
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> usize {
        self.times.first().map_or(0, Vec::len)
    }

    /// The set's seconds and the geometric mean of its winners' model
    /// GFlop/s.
    pub fn result(&self) -> (f64, f64) {
        let fastest: Vec<f64> = self.times.iter().map(|t| min(t)).collect();
        let set_s = self.slot.iter().map(|&i| fastest[i]).sum();
        let winners: Vec<f64> = self.slot.iter().map(|&i| self.gflops[i]).collect();
        (set_s, geomean(&winners))
    }
}

/// Every device × the precision of each warm-up request (one per shape
/// bucket): the keys a complete warm-up commits.
fn refine_jobs(warm: &[ReqSpec]) -> Vec<(DeviceSpec, Precision)> {
    devices()
        .into_iter()
        .flat_map(|d| warm.iter().map(move |s| (d.clone(), s.precision)))
        .collect()
}

/// A submitted request the benchmark still waits on.
struct Outstanding {
    spec: ReqSpec,
    /// Position in its pass.
    pos: usize,
    /// When it was due.
    due: f64,
}

/// What an open-loop phase measured, in seconds.
struct Open {
    /// Position in the pass and latency of every request.
    latency: Vec<(usize, f64)>,
    wait: Vec<f64>,
    lag: Vec<f64>,
}

/// State of one serving run.
struct Run<'r> {
    server: GemmServer,
    closed_passes: Passes,
    open_passes: Passes,
    /// Timed a round at a time, after every closed-loop pass.
    refine: RefineSet,
    oracles: Oracles,
    res: &'r mut Results,
    /// Draws the reference-checked subset.
    pick: Rng,
    /// `(device, params)` pairs the responses used.
    used: Vec<(String, KernelParams)>,
}

/// What a closed-loop phase measured.
#[derive(Default)]
struct Closed {
    busy_s: f64,
    flops: f64,
    requests: usize,
    /// Position in the pass, useful flops and busy seconds of every
    /// drain.
    drains: Vec<(usize, f64, f64)>,
}

impl Closed {
    /// Throughput (GFlop/s) of one pass with each of its drains at the
    /// fastest it ran. A drain repeats the same work in every pass, so
    /// its passes differ only by what else the host ran meanwhile.
    fn pass_gflops(&self) -> f64 {
        let mut fastest: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for &(pos, flops, secs) in &self.drains {
            let e = fastest.entry(pos).or_insert((flops, secs));
            if secs < e.1 {
                *e = (flops, secs);
            }
        }
        let (f, t) = fastest
            .values()
            .fold((0.0, 0.0), |a, d| (a.0 + d.0, a.1 + d.1));
        ratio(f, t) / 1e9
    }
}

/// Each pass position's fastest latency (seconds).
fn fastest_by_position(samples: &[(usize, f64)]) -> Vec<f64> {
    let mut fastest: BTreeMap<usize, f64> = BTreeMap::new();
    for &(pos, v) in samples {
        let e = fastest.entry(pos).or_insert(v);
        *e = e.min(v);
    }
    fastest.into_values().collect()
}

impl Run<'_> {
    fn submit(&mut self, req: GemmRequest, tr: &mut Option<&mut Tracer>) -> Option<RequestId> {
        self.res.attempted += 1;
        let sent = match tr {
            Some(t) => t.span("serve.submit", NONE, || self.server.submit(req)),
            None => self.server.submit(req),
        };
        match sent {
            Ok(id) => Some(id),
            Err(_) => {
                self.res.failed += 1;
                None
            }
        }
    }

    fn drain(&mut self, tr: &mut Option<&mut Tracer>, name: &'static str) -> Vec<GemmResponse> {
        match tr {
            Some(t) => t.span(name, NONE, || {
                self.server.drain();
                self.server.take_responses()
            }),
            None => {
                self.server.drain();
                self.server.take_responses()
            }
        }
    }

    /// The correctness gate for one response: its `C` must equal an
    /// out-of-band `TunedGemm::gemm_with` with the response's device and
    /// parameters, and for a seeded subset the reference engine too.
    fn check(&mut self, spec: &ReqSpec, r: &GemmResponse) -> bool {
        if r.outcome != Outcome::Completed {
            self.res.failed += 1;
            return false;
        }
        if !self
            .oracles
            .agrees(&r.device, r.params, r.ty, spec.payload(), &r.payload, false)
        {
            self.res.mismatch(format!(
                "request {} ({}x{}x{} {:?}) differs from TunedGemm::gemm_with on {}",
                r.id, spec.m, spec.n, spec.k, spec.precision, r.device
            ));
        }
        if self.pick.f64() < REFERENCE_SHARE
            && !self
                .oracles
                .agrees(&r.device, r.params, r.ty, spec.payload(), &r.payload, true)
        {
            self.res.mismatch(format!(
                "request {} differs from the reference engine on {}",
                r.id, r.device
            ));
        }
        if !self
            .used
            .iter()
            .any(|(d, p)| *d == r.device && *p == r.params)
        {
            self.used.push((r.device.clone(), r.params));
        }
        true
    }

    /// Closed loop until `secs` of measured (submit + drain) time: each
    /// round every client submits one request and one drain answers
    /// them all. With a replica, every drain is replayed layer by layer.
    fn closed(
        &mut self,
        secs: f64,
        mut tr: Option<&mut Tracer>,
        mut replica: Option<&mut Replica>,
    ) -> Closed {
        let mut out = Closed::default();
        while out.busy_s < secs {
            let mut first = 0;
            let round: Vec<(ReqSpec, GemmRequest)> = (0..CLIENTS)
                .map(|i| {
                    let (pos, spec) = self.closed_passes.next_spec();
                    if i == 0 {
                        first = pos;
                    }
                    let req = spec.request();
                    (spec, req)
                })
                .collect();
            let drain_pos = first / CLIENTS;
            let start = Instant::now();
            let mut waiting = HashMap::new();
            for (spec, req) in round {
                if let Some(id) = self.submit(req, &mut tr) {
                    waiting.insert(id, spec);
                }
            }
            let responses = self.drain(&mut tr, "serve.drain");
            let busy = start.elapsed().as_secs_f64();
            out.busy_s += busy;
            let flops_before = out.flops;
            let mut drained: Vec<(RequestId, ReqSpec)> = waiting.into_iter().collect();
            drained.sort_by_key(|(id, _)| *id);
            for r in &responses {
                let spec = &drained
                    .iter()
                    .find(|(id, _)| *id == r.id)
                    .expect("response to a submitted request")
                    .1;
                if self.check(spec, r) {
                    out.flops += spec.flops();
                }
                out.requests += 1;
            }
            out.drains.push((drain_pos, out.flops - flops_before, busy));
            if let (Some(t), Some(rep)) = (tr.as_deref_mut(), replica.as_deref_mut()) {
                rep.replay_drain(t, &drained, &responses, self.res);
            }
            if drain_pos + 1 == PASS_DRAINS {
                self.refine.round();
                next_cpu();
            }
        }
        out
    }

    /// Open loop for about `secs`: one request due every `1/rate`
    /// seconds, a whole number of passes in all, on this thread, drained
    /// as soon as it is queued. Returns per-request latency from the due
    /// time (with the request's position in its pass), queue waits (due
    /// time to the start of the drain that answered it) and generator
    /// lag, in seconds.
    fn open(&mut self, secs: f64, mut tr: Option<&mut Tracer>) -> Open {
        let interval = 1.0 / RATE_HZ;
        let pass = self.open_passes.len();
        let total = ((secs * RATE_HZ) as usize / pass).max(1) * pass;
        let mut issued = 0;
        let mut clock = PauseClock::start();
        let mut due = 0.0;
        let mut waiting: HashMap<RequestId, Outstanding> = HashMap::new();
        let (mut latency, mut wait, mut lag) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let now = clock.now();
            while due <= now && issued < total {
                if issued > 0 && issued % pass == 0 {
                    next_cpu();
                }
                issued += 1;
                clock.pause();
                let (pos, spec) = self.open_passes.next_spec();
                let req = spec.request();
                clock.resume();
                let at = clock.now();
                lag.push(at - due);
                if let Some(id) = self.submit(req, &mut tr) {
                    waiting.insert(id, Outstanding { spec, pos, due });
                }
                due += interval;
            }
            if !waiting.is_empty() {
                let start = clock.now();
                let responses = self.drain(&mut tr, "serve.drain_open");
                let done = clock.now();
                clock.pause();
                for r in &responses {
                    let o = waiting
                        .remove(&r.id)
                        .expect("response to a waiting request");
                    latency.push((o.pos, done - o.due));
                    wait.push(start - o.due);
                    self.check(&o.spec, r);
                }
                clock.resume();
            } else if issued == total {
                break;
            } else {
                // Spin rather than sleep: a sleeping vCPU of a shared
                // host wakes as late as the other guests let it, and
                // that lateness would count as latency.
                std::hint::spin_loop();
            }
        }
        Open { latency, wait, lag }
    }
}

/// Run the serving workload; fills `res`.
pub fn run(
    seed: u64,
    seconds: f64,
    ceilings: Option<&Ceilings>,
    tracer: Option<&mut Tracer>,
    res: &mut Results,
) {
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..SETUPS {
        drop(last.take());
        next_cpu();
        let (server, secs) = timed(|| set_up_once(seed + rep as u64));
        setups.push(secs);
        last = Some(server);
    }
    let server = last.expect("at least one set-up");
    res.set("setup_s", median(&setups));
    res.samples.push(("setups", SETUPS));

    let mut stream = Stream::new(seed);
    let closed_passes = Passes::new(&mut stream, CLIENTS * PASS_DRAINS);
    let open_passes = Passes::new(&mut stream, OPEN_PASS);
    let mut refine = RefineSet::new(refine_jobs(&warm_specs(seed)));
    refine.round();
    let mut run = Run {
        server,
        closed_passes,
        open_passes,
        refine,
        oracles: Oracles::default(),
        res,
        pick: Rng::new(seed ^ 0x0AC1E),
        used: Vec::new(),
    };
    match tracer {
        None => {
            let closed = run.closed(seconds * CLOSED_SHARE, None, None);
            let open = run.open(seconds * (1.0 - CLOSED_SHARE), None);
            let latency = fastest_by_position(&open.latency);
            run.res.set("throughput_gflops", closed.pass_gflops());
            run.res.set("latency_p50_ms", 1e3 * quantile(&latency, 0.5));
            run.res.set("latency_p90_ms", 1e3 * quantile(&latency, 0.9));
            run.res.samples.push(("closed_requests", closed.requests));
            run.res.samples.push(("open_requests", open.latency.len()));
        }
        Some(tr) => traced(
            &mut run,
            seconds,
            ceilings.expect("traced runs probe the host"),
            tr,
        ),
    }
    while run.refine.rounds() < MIN_REFINE_ROUNDS {
        run.refine.round();
    }
    let (tune_s, model_gflops) = run.refine.result();
    run.res.set("tune_s", tune_s);
    run.res.set("tuned_model_gflops", model_gflops);
    run.res.samples.push(("refine_rounds", run.refine.rounds()));
}

/// The traced run: an untraced closed segment (the overhead baseline),
/// a traced closed segment whose drains are replayed layer by layer,
/// and a traced open segment for queue wait and generator lag.
fn traced(run: &mut Run, seconds: f64, ceil: &Ceilings, tr: &mut Tracer) {
    let stats0 = run.server.stats();
    let grows0 = run.server.workspace_grows();
    let plain = run.closed(seconds * 0.3, None, None);

    let mut replica = Replica::new(&run.server);
    let before = run.server.stats();
    let closed = run.closed(seconds * 0.4, Some(tr), Some(&mut replica));
    let after = run.server.stats();
    let Open { wait, lag, .. } = run.open(seconds * 0.3, Some(tr));
    let end = run.server.stats();
    let r = &mut *run.res;

    let (drain_s, drains) = tr.total("serve.drain");
    let own = tr.self_seconds();
    let layer = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let mean_of = |name: &str| mean(&tr.durations(name));

    r.set("serve.submit_us", 1e6 * mean_of("serve.submit"));
    r.set("serve.queue_wait_ms.p50", 1e3 * quantile(&wait, 0.5));
    r.set("serve.queue_wait_ms.p90", 1e3 * quantile(&wait, 0.9));
    r.set("serve.drain_ms", 1e3 * ratio(drain_s, drains as f64));
    r.set(
        "serve.requests_per_drain",
        ratio(closed.requests as f64, closed.drains.len() as f64),
    );
    r.set(
        "serve.inflight.key_ms",
        1e3 * ratio(layer("serve.inflight.key"), drains as f64),
    );
    r.set(
        "serve.inflight.key_share",
        ratio(layer("serve.inflight.key"), drain_s),
    );
    let completed = (after.completed - before.completed) as f64;
    r.set(
        "serve.inflight.hit_ratio",
        ratio(
            (after.coalesce_hits - before.coalesce_hits) as f64,
            completed,
        ),
    );
    r.set(
        "serve.inflight.fanout_us",
        1e6 * mean_of("serve.inflight.fanout"),
    );
    r.set(
        "serve.inflight.capture_us",
        1e6 * mean_of("serve.inflight.capture"),
    );
    r.set(
        "serve.batch.coalesce_us",
        1e6 * mean_of("serve.batch.coalesce"),
    );
    r.set(
        "serve.batch.size_mean",
        ratio(replica.batched as f64, replica.batches as f64),
    );
    r.set(
        "serve.scheduler.place_us",
        1e6 * mean_of("serve.scheduler.place"),
    );
    r.set(
        "serve.scheduler.cost_us",
        1e6 * mean_of("serve.scheduler.cost"),
    );
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    r.set("serve.cache.hit_ratio", ratio(hits, hits + misses));
    r.set(
        "serve.cache.resolve_ms",
        1e3 * mean_of("serve.cache.resolve"),
    );
    r.set("serve.tuned_for_us", 1e6 * mean_of("serve.tuned_for"));
    set_rejections(r, &stats0, &end);

    let routine = ["pack_a", "pack_b", "stage_c", "kernel", "merge_c"];
    let phase = |p: &str| layer(&format!("routine.{p}"));
    let total: f64 = routine.iter().map(|p| phase(p)).sum();
    let copy = total - phase("kernel");
    let per_req = |s: f64| 1e3 * ratio(s, replica.executed as f64);
    r.set("routine.pack_a_ms", per_req(phase("pack_a")));
    r.set("routine.pack_b_ms", per_req(phase("pack_b")));
    r.set("routine.stage_c_ms", per_req(phase("stage_c")));
    r.set("routine.kernel_ms", per_req(phase("kernel")));
    r.set("routine.merge_c_ms", per_req(phase("merge_c")));
    r.set("routine.kernel_share", ratio(phase("kernel"), total));
    r.set("routine.copy_share", ratio(copy, total));
    r.set(
        "routine.kernel.peak_frac",
        ratio(
            ceil.ideal_seconds(replica.flops_f32, replica.flops_f64),
            phase("kernel"),
        ),
    );
    r.set(
        "routine.copy.bw_frac",
        ratio(replica.work.copy_bytes / copy, ceil.copy_gbs * 1e9),
    );
    r.set(
        "routine.padding_ratio",
        ratio(
            replica.work.padded_flops,
            replica.flops_f32 + replica.flops_f64,
        ),
    );
    r.set(
        "routine.workspace_grows",
        (run.server.workspace_grows() - grows0) as f64,
    );
    r.set("predict.best_ms", crate::tune::predict_best_ms(&devices()));
    r.set("codegen.generate_us", 1e6 * mean_of("codegen.generate"));
    r.set("device.estimate_us", crate::tune::estimate_us(&run.used));
    r.set("bench.gen_lag_ms", 1e3 * mean(&lag));
    let layers = [
        "serve.inflight.key",
        "serve.inflight.fanout",
        "serve.inflight.capture",
        "serve.batch.coalesce",
        "serve.scheduler.cost",
        "serve.scheduler.place",
        "serve.cache.resolve",
        "predict.best",
        "serve.tuned_for",
        "routine.pack_a",
        "routine.pack_b",
        "routine.stage_c",
        "routine.kernel",
        "routine.merge_c",
    ];
    let attributed: f64 = layers.iter().map(|l| layer(l)).sum();
    r.set("bench.coverage", ratio(attributed, drain_s));
    let per_flop = |c: &Closed| ratio(c.busy_s, c.flops);
    r.set(
        "bench.trace_overhead_frac",
        ratio(per_flop(&closed), per_flop(&plain)) - 1.0,
    );
    r.samples.push(("traced_drains", drains));
    r.samples.push(("open_requests", wait.len()));
}

/// Refusals and missed deadlines between two snapshots.
fn set_rejections(r: &mut Results, a: &StatsSnapshot, b: &StatsSnapshot) {
    r.set(
        "serve.reject.queue_full",
        (b.rejected_queue_full - a.rejected_queue_full) as f64,
    );
    r.set(
        "serve.reject.deadline",
        (b.rejected_deadline_admit - a.rejected_deadline_admit) as f64,
    );
    r.set(
        "serve.reject.overloaded",
        (b.shed_low_priority - a.shed_low_priority) as f64,
    );
    r.set(
        "serve.missed_deadline",
        (b.rejected_deadline_late - a.rejected_deadline_late) as f64,
    );
}

/// The traced run's stand-in for a drain: the same public functions the
/// drain calls, in the same order, on copies of the same inputs — each
/// call in its own span.
struct Replica {
    devices: Vec<DeviceSpec>,
    cache: KernelCache,
    db: TuningDb,
    results: ResultCache,
    scheduler: Scheduler,
    max_batch: usize,
    next_batch: u64,
    ws: clgemm_blas::Workspace,
    batches: usize,
    batched: usize,
    executed: usize,
    flops_f32: f64,
    flops_f64: f64,
    work: RoutineWork,
}

impl Replica {
    fn new(server: &GemmServer) -> Replica {
        let cfg = ServeConfig::default();
        // The server's database after set-up: every bucket the warm-up
        // resolved is persisted there.
        let mut db = TuningDb::in_memory();
        for (k, m) in server.tuning_db().iter() {
            let _ = db.commit(k.clone(), m.clone());
        }
        Replica {
            devices: server.workers().iter().map(|w| w.spec().clone()).collect(),
            cache: KernelCache::new(cfg.cache_capacity),
            db,
            results: ResultCache::new(cfg.result_cache_capacity),
            scheduler: Scheduler::new(devices()),
            max_batch: cfg.max_batch,
            next_batch: 0,
            ws: clgemm_blas::Workspace::new(),
            batches: 0,
            batched: 0,
            executed: 0,
            flops_f32: 0.0,
            flops_f64: 0.0,
            work: RoutineWork::default(),
        }
    }

    fn replay_drain(
        &mut self,
        tr: &mut Tracer,
        drained: &[(RequestId, ReqSpec)],
        responses: &[GemmResponse],
        res: &mut Results,
    ) {
        let by_id: HashMap<RequestId, &GemmResponse> =
            responses.iter().map(|r| (r.id, r)).collect();
        // 1. content keys, result-cache answers and leader election.
        let mut leaders: Vec<PendingRequest> = Vec::new();
        let mut leader_of: HashMap<ContentKey, RequestId> = HashMap::new();
        let mut followers: Vec<(RequestId, ContentKey, GemmPayload)> = Vec::new();
        let mut keys: HashMap<RequestId, ContentKey> = HashMap::new();
        for (id, spec) in drained {
            let mut req = spec.request();
            let key = tr.span("serve.inflight.key", *id, || content_key(&req));
            if let Some(hit) = self.results.get(&key) {
                let c = hit.c.clone();
                tr.span("serve.inflight.fanout", *id, || {
                    c.write_into(&mut req.payload)
                });
                continue;
            }
            if leader_of.contains_key(&key) {
                followers.push((*id, key, req.payload));
                continue;
            }
            leader_of.insert(key, *id);
            keys.insert(*id, key);
            leaders.push(PendingRequest {
                id: *id,
                enqueued_ns: 0,
                admit_cost: 0.0,
                req,
            });
        }
        // 2. batching.
        let (max_batch, first) = (self.max_batch, self.next_batch);
        let batches = tr.span("serve.batch.coalesce", NONE, || {
            coalesce(leaders, max_batch, first)
        });
        self.next_batch += batches.len() as u64;
        self.batches += batches.len();
        self.batched += batches.iter().map(|b| b.len()).sum::<usize>();
        // 3. costing every batch on every device, then placement.
        let mut costs = Vec::with_capacity(batches.len());
        for batch in &batches {
            let precision = batch.key.precision;
            let row = self
                .devices
                .iter()
                .map(|spec| {
                    let ckey = cache_key(spec, precision, batch.key.bucket);
                    let params = self
                        .cache
                        .peek(&ckey)
                        .copied()
                        .unwrap_or_else(|| small_test_params(precision));
                    let tuned = tr.span("serve.tuned_for", NONE, || {
                        replay::tuned_for(spec.clone(), params)
                    });
                    tr.span("serve.scheduler.cost", NONE, || {
                        batch
                            .requests
                            .iter()
                            .map(|p| {
                                let (m, n, k) = p.req.payload.dims(p.req.ty);
                                tuned
                                    .predict(precision == Precision::F64, p.req.ty, m, n, k)
                                    .total
                            })
                            .sum::<f64>()
                    })
                })
                .collect::<Vec<f64>>();
            costs.push(row);
        }
        let placements = tr.span("serve.scheduler.place", NONE, || {
            self.scheduler.place(&costs)
        });
        for (batch, placement) in batches.iter().zip(&placements) {
            let w = self.scheduler.worker_mut(placement.worker);
            w.submit("replay", placement.cost.min(1e3));
            // 4. kernel resolution, on the device the server chose.
            let Some(first) = batch.requests.first().and_then(|p| by_id.get(&p.id)) else {
                continue;
            };
            let spec = replay::device(&first.device);
            let ckey = cache_key(&spec, batch.key.precision, batch.key.bucket);
            if self.cache.get(&ckey).is_none() {
                let dbkey = DbKey {
                    fingerprint: spec.fingerprint(),
                    m: batch.key.bucket.m,
                    n: batch.key.bucket.n,
                    k: batch.key.bucket.k,
                    gemm: "*".into(),
                    storage: batch.key.precision.to_string(),
                };
                let precision = batch.key.precision;
                // A key the database holds resolves there; only a new
                // one reaches the predictor (and is then persisted).
                tr.enter("serve.cache.resolve", NONE);
                if self.db.get(&dbkey).is_none() {
                    tr.span("predict.best", NONE, || predict_best(&spec, precision));
                    let _ = self.db.commit(
                        dbkey,
                        Measurement {
                            params: first.params,
                            n: 0,
                            gflops: 0.0,
                        },
                    );
                }
                tr.exit();
                self.cache
                    .insert(ckey, first.params, clgemm_serve::Provenance::Predicted);
            }
            // 5. the batch's TunedGemm (and the code generation inside it).
            tr.span("serve.tuned_for", NONE, || {
                replay::tuned_for(spec.clone(), first.params)
            });
            tr.span("codegen.generate", NONE, || generate(&first.params).is_ok());
            // 6. the routine, phase by phase, per member.
            for p in &batch.requests {
                let Some(r) = by_id.get(&p.id) else { continue };
                if r.outcome != Outcome::Completed {
                    continue;
                }
                self.execute(tr, p, r, res);
                let key = keys[&p.id];
                let c = tr.span("serve.inflight.capture", p.id, || {
                    CachedC::capture(&r.payload)
                });
                self.results.insert(
                    key,
                    CachedResult {
                        device: r.device.clone(),
                        params: r.params,
                        run: r.run,
                        done_at: r.done_at,
                        batch: r.batch,
                        c,
                    },
                );
            }
        }
        // 7. fan-out to duplicates of this drain's leaders.
        for (id, key, mut payload) in followers {
            if let Some(hit) = self.results.get(&key) {
                let c = hit.c.clone();
                tr.span("serve.inflight.fanout", id, || c.write_into(&mut payload));
            }
        }
    }

    /// Replay one member's routine call on a copy of its inputs, with
    /// the response's parameters; the result must match the response.
    fn execute(
        &mut self,
        tr: &mut Tracer,
        p: &PendingRequest,
        r: &GemmResponse,
        res: &mut Results,
    ) {
        let ty = p.req.ty;
        let (m, n, k) = p.req.payload.dims(ty);
        let useful = 2.0 * (m * n * k) as f64;
        let (work, same) = match (p.req.payload.clone(), &r.payload) {
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
                self.flops_f64 += useful;
                let w = routine_phases(
                    tr,
                    p.id,
                    &r.params,
                    ty,
                    alpha,
                    &a,
                    &b,
                    beta,
                    &mut c,
                    &mut self.ws,
                );
                (w, same_bits(c.as_slice(), got.as_slice(), f64::to_bits))
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
                self.flops_f32 += useful;
                let w = routine_phases(
                    tr,
                    p.id,
                    &r.params,
                    ty,
                    alpha,
                    &a,
                    &b,
                    beta,
                    &mut c,
                    &mut self.ws,
                );
                (w, same_bits(c.as_slice(), got.as_slice(), f32::to_bits))
            }
            _ => (RoutineWork::default(), false),
        };
        if !same {
            res.mismatch(format!(
                "request {}: the layer-by-layer replay differs from the served C",
                p.id
            ));
        }
        self.executed += 1;
        self.work.padded_flops += work.padded_flops;
        self.work.copy_bytes += work.copy_bytes;
    }
}

fn cache_key(spec: &DeviceSpec, precision: Precision, bucket: ShapeBucket) -> CacheKey {
    CacheKey {
        device: spec.code_name.clone(),
        precision,
        bucket,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request served end to end, then checked as a run checks it.
    fn served(seed: u64) -> (ReqSpec, GemmResponse) {
        let mut server = GemmServer::new(
            devices(),
            ServeConfig {
                registry: Some(Registry::new()),
                background_refine: false,
                ..ServeConfig::default()
            },
        );
        let spec = Stream::new(seed).next_spec();
        server.submit(spec.request()).expect("empty queue admits");
        server.drain();
        let r = server.take_responses().pop().expect("one response");
        (spec, r)
    }

    fn check(spec: &ReqSpec, r: &GemmResponse) -> Results {
        let mut res = Results::default();
        let mut stream = Stream::new(0);
        let mut run = Run {
            server: GemmServer::new(devices(), ServeConfig::default()),
            closed_passes: Passes::new(&mut stream, 1),
            open_passes: Passes::new(&mut stream, 1),
            refine: RefineSet::new(Vec::new()),
            oracles: Oracles::default(),
            res: &mut res,
            pick: Rng::new(0),
            used: Vec::new(),
        };
        run.check(spec, r);
        drop(run);
        res
    }

    #[test]
    fn served_c_passes_and_a_corrupted_c_trips_the_gate() {
        let (spec, mut r) = served(5);
        assert!(check(&spec, &r).correct());
        match &mut r.payload {
            GemmPayload::F64 { c, .. } => {
                let v = c.at_mut(0, 0);
                *v = f64::from_bits(v.to_bits() ^ 1);
            }
            GemmPayload::F32 { c, .. } => {
                let v = c.at_mut(0, 0);
                *v = f32::from_bits(v.to_bits() ^ 1);
            }
        }
        let res = check(&spec, &r);
        assert!(!res.correct(), "one flipped bit must fail the run");
        assert!(res.line(false).starts_with("{\"correct\":false"));
    }

    #[test]
    fn the_layer_replay_reproduces_the_served_c() {
        let (spec, r) = served(9);
        let server = GemmServer::new(devices(), ServeConfig::default());
        let mut replica = Replica::new(&server);
        let mut tr = Tracer::new();
        let mut res = Results::default();
        replica.replay_drain(&mut tr, &[(r.id, spec)], std::slice::from_ref(&r), &mut res);
        assert!(res.correct(), "{:?}", res.mismatches);
        assert_eq!(replica.executed, 1);
        assert!(tr.total("routine.kernel").1 == 1 && tr.total("serve.inflight.key").1 == 1);
    }
}
