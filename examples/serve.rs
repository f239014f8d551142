//! Run a mixed GEMM workload through the serving subsystem and print
//! the serving counters.
//!
//! ```text
//! cargo run --release -p clgemm-serve --example serve
//! cargo run --release -p clgemm-serve --example serve -- 64 4   # requests, devices
//! ```

use clgemm_blas::matrix::{Matrix, StorageOrder};
use clgemm_blas::GemmType;
use clgemm_device::DeviceId;
use clgemm_serve::{
    GemmPayload, GemmRequest, GemmServer, Outcome, Priority, RejectReason, ServeConfig,
};
use clgemm_shim::Rng;

fn usage(bad: &str) -> ! {
    eprintln!("error: bad argument {bad:?}");
    eprintln!("usage: serve [n_requests >= 1] [n_devices, 1..=7]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_requests: usize = match args.first() {
        None => 48,
        Some(a) => match a.parse() {
            Ok(n) if n >= 1 => n,
            _ => usage(a),
        },
    };
    let n_devices: usize = match args.get(1) {
        None => 3,
        Some(a) => match a.parse() {
            Ok(n) if (1..=7).contains(&n) => n,
            _ => usage(a),
        },
    };

    let devices: Vec<_> = DeviceId::ALL
        .iter()
        .take(n_devices)
        .map(|id| id.spec())
        .collect();
    println!("serving {n_requests} requests on {n_devices} device(s):");
    for d in &devices {
        println!("  {}", d.code_name);
    }

    let mut server = GemmServer::new(
        devices,
        ServeConfig {
            max_batch: 4,
            cache_capacity: 24,
            // An interactive tenant gets 4× the bulk tenant's share of
            // the fair queue under contention.
            tenant_weights: vec![("inter".into(), 4), ("bulk".into(), 1)],
            ..Default::default()
        },
    );

    // A skewed workload: a few popular shape buckets (as a serving
    // workload would have), mixed precisions and transpose types, two
    // tenants, an occasional urgent request and an occasional
    // unmeetable deadline (shed at admission, before queueing).
    let mut rng = Rng::new(2012);
    let popular = [40usize, 96, 120, 200];
    let mut submitted = 0usize;
    let mut shed_at_admission = 0usize;
    while submitted < n_requests {
        // Submit in bursts, draining between them, so later bursts hit
        // the warm cache and land on already-loaded device queues.
        let burst = (n_requests - submitted).min(12);
        for _ in 0..burst {
            let n = popular[rng.range(0, popular.len())];
            let ty = GemmType::ALL[rng.range(0, 4)];
            let order = StorageOrder::ColMajor;
            let payload = if rng.range(0, 3) == 0 {
                GemmPayload::F32 {
                    alpha: 1.0,
                    a: Matrix::test_pattern(n, n, order, rng.next_u64()),
                    b: Matrix::test_pattern(n, n, order, rng.next_u64()),
                    beta: 0.5,
                    c: Matrix::test_pattern(n, n, order, rng.next_u64()),
                }
            } else {
                GemmPayload::F64 {
                    alpha: 1.0,
                    a: Matrix::test_pattern(n, n, order, rng.next_u64()),
                    b: Matrix::test_pattern(n, n, order, rng.next_u64()),
                    beta: 0.5,
                    c: Matrix::test_pattern(n, n, order, rng.next_u64()),
                }
            };
            let tenant = if rng.range(0, 3) == 0 {
                "inter"
            } else {
                "bulk"
            };
            let mut req = GemmRequest::new(ty, payload).with_tenant(tenant);
            if rng.range(0, 8) == 0 {
                req = req.with_priority(Priority::High);
            }
            if rng.range(0, 16) == 0 {
                req = req.with_deadline(0.0); // always unmeetable: exercises shedding
            }
            match server.submit(req) {
                Ok(_) => submitted += 1,
                Err(RejectReason::DeadlineUnmeetable { .. } | RejectReason::Overloaded(_)) => {
                    shed_at_admission += 1; // admission control did its job
                }
                Err(RejectReason::QueueFull(_)) => break, // backpressure: drain and retry
                Err(RejectReason::Invalid(_, why)) => panic!("malformed request: {why}"),
            }
        }
        server.drain();
    }

    let responses = server.take_responses();
    let served = responses
        .iter()
        .filter(|r| r.outcome == Outcome::Completed)
        .count();
    let shed = responses.len() - served;
    let virtual_s: f64 = server
        .workers()
        .iter()
        .map(clgemm_sim::DeviceWorker::busy_until)
        .fold(0.0, f64::max);
    let flops: f64 = responses
        .iter()
        .filter(|r| r.outcome == Outcome::Completed)
        .map(|r| r.run.gflops * r.run.total * 1e9)
        .sum();

    println!();
    println!("{}", server.stats());
    println!(
        "served {served} requests ({shed} shed in-batch, {shed_at_admission} shed at admission) \
         in {:.3} virtual ms — {:.1} aggregate GFlop/s across the pool",
        virtual_s * 1e3,
        if virtual_s > 0.0 {
            flops / virtual_s / 1e9
        } else {
            0.0
        }
    );

    // Tiny workloads can legitimately miss every cache lookup or fit in
    // one batch; only demand the full demonstration at realistic sizes.
    if n_requests >= 24 {
        let stats = server.stats();
        assert!(stats.cache_hits > 0, "example must demonstrate cache hits");
        assert!(
            stats.devices_used() >= 2.min(n_devices),
            "example must use the device pool"
        );
        assert!(
            stats.max_batch > 1,
            "example must coalesce at least one batch"
        );
    }
}
