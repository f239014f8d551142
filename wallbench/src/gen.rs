//! Seeded workload generators. The benchmark derives every input from
//! `--seed` on one thread; the program only ever sees the generated
//! requests.

use clgemm_blas::batch::GemmBatch;
use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::scalar::{Precision, Scalar, StorageScalar};
use clgemm_blas::{GemmType, Trans};
use clgemm_serve::{BatchedPayload, BatchedRequest, GemmPayload, GemmRequest};
use clgemm_shim::Rng;
use std::collections::VecDeque;

/// Tenants of `serve_small` and their fair-queueing weights.
pub const TENANTS: [(&str, u32); 2] = [("interactive", 3), ("bulk", 1)];

/// One request of a serving stream, before its operands exist.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqSpec {
    pub ty: GemmType,
    pub precision: Precision,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub tenant: &'static str,
    /// Seed of the operand values and scalars: two specs with equal
    /// fields are the same computation, bit for bit.
    pub content: u64,
}

impl ReqSpec {
    /// Useful arithmetic of the request: `2·m·n·k`, unpadded.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// The request with its operands generated.
    pub fn request(&self) -> GemmRequest {
        GemmRequest::new(self.ty, self.payload()).with_tenant(self.tenant)
    }

    pub fn payload(&self) -> GemmPayload {
        let mut rng = Rng::new(self.content);
        let (alpha, beta) = scalars(&mut rng);
        match self.precision {
            Precision::F64 => GemmPayload::F64 {
                alpha,
                a: self.operand(&mut rng, 'a'),
                b: self.operand(&mut rng, 'b'),
                beta,
                c: self.operand(&mut rng, 'c'),
            },
            Precision::F32 => GemmPayload::F32 {
                alpha: alpha as f32,
                a: self.operand(&mut rng, 'a'),
                b: self.operand(&mut rng, 'b'),
                beta: beta as f32,
                c: self.operand(&mut rng, 'c'),
            },
        }
    }

    fn operand<T: Scalar>(&self, rng: &mut Rng, which: char) -> Matrix<T> {
        let (rows, cols) = match which {
            'a' => stored(self.ty.ta, self.m, self.k),
            'b' => stored(self.ty.tb, self.k, self.n),
            _ => (self.m, self.n),
        };
        Matrix::from_fn(rows, cols, StorageOrder::ColMajor, |_, _| {
            T::from_f64(2.0 * rng.f64() - 1.0)
        })
    }
}

/// Stored `(rows, cols)` of an operand whose op is `rows_op × cols_op`.
fn stored(t: Trans, rows_op: usize, cols_op: usize) -> (usize, usize) {
    match t {
        Trans::No => (rows_op, cols_op),
        Trans::Yes => (cols_op, rows_op),
    }
}

/// Non-zero `alpha`, `beta` (so every element of every operand matters).
fn scalars(rng: &mut Rng) -> (f64, f64) {
    (
        0.5 + rng.range(1, 9) as f64 / 8.0,
        -0.75 + rng.range(0, 4) as f64 / 4.0 + 0.125,
    )
}

/// Share of `serve_small` requests that repeat a recent one exactly.
const REPEAT_SHARE: f64 = 0.25;
/// How far back a repeat may reach, in fresh requests.
const REPEAT_WINDOW: usize = 16;

/// The endless seeded request stream of `serve_small`: ragged 16–128
/// edges, both precisions, all four GEMM types, two tenants, ~25% exact
/// repeats of a recent request.
pub struct Stream {
    rng: Rng,
    recent: VecDeque<ReqSpec>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(seed ^ 0x5EED_57AE),
            recent: VecDeque::new(),
        }
    }

    pub fn next_spec(&mut self) -> ReqSpec {
        let rng = &mut self.rng;
        if !self.recent.is_empty() && rng.f64() < REPEAT_SHARE {
            let i = rng.range(0, self.recent.len());
            return self.recent[i].clone();
        }
        let spec = ReqSpec {
            ty: GemmType::ALL[rng.range(0, 4)],
            precision: if rng.bool() {
                Precision::F32
            } else {
                Precision::F64
            },
            m: rng.range(16, 129),
            n: rng.range(16, 129),
            k: rng.range(16, 129),
            tenant: TENANTS[rng.range(0, TENANTS.len())].0,
            content: rng.next_u64(),
        };
        self.recent.push_back(spec.clone());
        if self.recent.len() > REPEAT_WINDOW {
            self.recent.pop_front();
        }
        spec
    }
}

/// A stretch of a stream, replayed in passes. Every pass issues the same
/// requests in the same order, each with operands of its own: passes are
/// the same work, and a repeat stays an exact repeat within its pass but
/// never matches a request of another pass.
pub struct Passes {
    specs: Vec<ReqSpec>,
    issued: usize,
}

impl Passes {
    /// The next `len` requests of `stream`, as one pass.
    pub fn new(stream: &mut Stream, len: usize) -> Passes {
        Passes {
            specs: (0..len.max(1)).map(|_| stream.next_spec()).collect(),
            issued: 0,
        }
    }

    /// Requests per pass.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// The next request and its position in the pass.
    pub fn next_spec(&mut self) -> (usize, ReqSpec) {
        let pos = self.issued % self.specs.len();
        let pass = (self.issued / self.specs.len()) as u64;
        self.issued += 1;
        let mut spec = self.specs[pos].clone();
        spec.content ^= pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (pos, spec)
    }
}

/// Storage types of the `batched` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    F32,
    F16,
    Bf16,
}

impl Storage {
    pub const ALL: [Storage; 3] = [Storage::F32, Storage::F16, Storage::Bf16];

    pub fn widens(self) -> bool {
        self != Storage::F32
    }
}

/// Entries per `run_batched` call.
pub const BATCH: usize = 64;
/// Matrix edges of the `batched` workload.
pub const BATCH_EDGES: [usize; 3] = [32, 64, 128];

/// One distinct strided-batched call of the `batched` workload.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    pub desc: GemmBatch,
    pub storage: Storage,
    pub content: u64,
}

impl BatchSpec {
    pub fn request(&self) -> BatchedRequest {
        let mut rng = Rng::new(self.content);
        let (alpha, beta) = scalars(&mut rng);
        let (alpha, beta) = (alpha as f32, beta as f32);
        let d = &self.desc;
        let la = slab_len(d.batch, d.stride_a, d.a_extent());
        let lb = slab_len(d.batch, d.stride_b, d.b_extent());
        let lc = d.c_required();
        let payload = match self.storage {
            Storage::F32 => BatchedPayload::F32 {
                alpha,
                a: slab(&mut rng, la),
                b: slab(&mut rng, lb),
                beta,
                c: slab(&mut rng, lc),
            },
            Storage::F16 => BatchedPayload::F16 {
                alpha,
                a: slab(&mut rng, la),
                b: slab(&mut rng, lb),
                beta,
                c: slab(&mut rng, lc),
            },
            Storage::Bf16 => BatchedPayload::Bf16 {
                alpha,
                a: slab(&mut rng, la),
                b: slab(&mut rng, lb),
                beta,
                c: slab(&mut rng, lc),
            },
        };
        BatchedRequest::new(*d, payload)
    }
}

fn slab_len(batch: usize, stride: usize, extent: usize) -> usize {
    if batch == 0 || extent == 0 {
        0
    } else {
        stride * (batch - 1) + extent
    }
}

fn slab<S: StorageScalar>(rng: &mut Rng, len: usize) -> Vec<S> {
    (0..len)
        .map(|_| S::narrow(<S::Acc as Scalar>::from_f64(2.0 * rng.f64() - 1.0)))
        .collect()
}

/// The distinct calls of the `batched` workload: every edge × storage
/// type, each once with per-entry operands and once with a shared `A`,
/// the GEMM types spread evenly. The seed draws only the operands.
pub fn batch_pool(seed: u64) -> Vec<BatchSpec> {
    let mut rng = Rng::new(seed ^ 0xBA7C_4ED0);
    let mut pool = Vec::new();
    for &e in &BATCH_EDGES {
        for (s, storage) in Storage::ALL.into_iter().enumerate() {
            for shared_a in [false, true] {
                let ty = GemmType::ALL[(2 * s + usize::from(shared_a)) % 4];
                let desc = GemmBatch::packed(ty, BATCH, e, e, e);
                pool.push(BatchSpec {
                    desc: if shared_a { desc.with_shared_a() } else { desc },
                    storage,
                    content: rng.next_u64(),
                });
            }
        }
    }
    pool
}

/// Seeded call order over the pool: back-to-back blocks, each a
/// permutation of every pool entry, so every seed runs the same mix.
pub struct BatchOrder {
    rng: Rng,
    n: usize,
    block: Vec<usize>,
}

impl BatchOrder {
    pub fn new(n: usize, seed: u64) -> BatchOrder {
        BatchOrder {
            rng: Rng::new(seed ^ 0x0DE5),
            n,
            block: Vec::new(),
        }
    }

    pub fn next_index(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (0..self.n).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, n: usize) -> Vec<ReqSpec> {
        let mut s = Stream::new(seed);
        (0..n).map(|_| s.next_spec()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        assert_eq!(take(7, 200), take(7, 200));
        assert_ne!(take(7, 200), take(8, 200));
        let digest = |seed| {
            let pool = batch_pool(seed);
            let mut order = BatchOrder::new(pool.len(), seed);
            (0..100)
                .map(|_| {
                    let p = &pool[order.next_index()];
                    (p.content, p.desc.ty.ta == Trans::Yes, p.desc.stride_a)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn passes_repeat_the_work_with_fresh_operands() {
        let mut stream = Stream::new(5);
        let mut passes = Passes::new(&mut stream, 50);
        let first: Vec<(usize, ReqSpec)> = (0..50).map(|_| passes.next_spec()).collect();
        let second: Vec<(usize, ReqSpec)> = (0..50).map(|_| passes.next_spec()).collect();
        let contents = |v: &[(usize, ReqSpec)]| {
            v.iter()
                .map(|(_, s)| s.content)
                .collect::<std::collections::HashSet<_>>()
        };
        assert!(contents(&first).is_disjoint(&contents(&second)));
        for ((p, a), (q, b)) in first.iter().zip(&second) {
            assert_eq!(p, q);
            assert_eq!(
                (a.ty, a.precision, a.m, a.n, a.k),
                (b.ty, b.precision, b.m, b.n, b.k)
            );
        }
        let repeats = |v: &[(usize, ReqSpec)]| 50 - contents(v).len();
        assert!(repeats(&first) > 0);
        assert_eq!(repeats(&first), repeats(&second));
    }

    #[test]
    fn generated_operands_follow_the_spec() {
        let spec = ReqSpec {
            ty: GemmType::TN,
            precision: Precision::F32,
            m: 20,
            n: 10,
            k: 30,
            tenant: "t",
            content: 5,
        };
        let req = spec.request();
        assert_eq!(req.payload.dims(req.ty), (20, 10, 30));
        assert_eq!(req.tenant, "t");
        let (GemmPayload::F32 { c: c1, .. }, GemmPayload::F32 { c: c2, .. }) =
            (spec.payload(), spec.payload())
        else {
            panic!("f32 spec");
        };
        assert_eq!(c1, c2, "operands are a function of the spec");
    }

    #[test]
    fn small_stream_repeats_about_a_quarter() {
        let specs = take(11, 4000);
        let mut seen = std::collections::HashSet::new();
        let repeats = specs.iter().filter(|s| !seen.insert(s.content)).count();
        let share = repeats as f64 / specs.len() as f64;
        assert!((0.2..0.3).contains(&share), "repeat share {share}");
    }
}
