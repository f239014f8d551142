//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is named here with its unit;
//! `BENCHMARK.json` lists the same names. An untraced run prints every
//! end-to-end metric, a traced run every per-layer metric; a layer a
//! workload does not exercise reads 0.

use clgemm_shim::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_gflops", "GFlop/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("tune_s", "s"),
    ("tuned_model_gflops", "GFlop/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run, by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve (crates/serve)
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.requests_per_drain", "count"),
    ("serve.inflight.key_ms", "ms"),
    ("serve.inflight.key_share", "ratio"),
    ("serve.inflight.hit_ratio", "ratio"),
    ("serve.inflight.fanout_us", "us"),
    ("serve.inflight.capture_us", "us"),
    ("serve.batch.coalesce_us", "us"),
    ("serve.batch.size_mean", "count"),
    ("serve.scheduler.place_us", "us"),
    ("serve.scheduler.cost_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.resolve_ms", "ms"),
    ("serve.tuned_for_us", "us"),
    ("serve.reject.queue_full", "count"),
    ("serve.reject.deadline", "count"),
    ("serve.reject.overloaded", "count"),
    ("serve.missed_deadline", "count"),
    // routine (crates/core routine + crates/blas pack/workspace)
    ("routine.pack_a_ms", "ms"),
    ("routine.pack_b_ms", "ms"),
    ("routine.stage_c_ms", "ms"),
    ("routine.kernel_ms", "ms"),
    ("routine.merge_c_ms", "ms"),
    ("routine.kernel_share", "ratio"),
    ("routine.copy_share", "ratio"),
    ("routine.kernel.peak_frac", "ratio"),
    ("routine.copy.bw_frac", "ratio"),
    ("routine.padding_ratio", "ratio"),
    ("routine.workspace_grows", "count"),
    // batched (crates/core batched)
    ("batched.call_ms", "ms"),
    ("batched.direct_frac", "ratio"),
    ("batched.widen_ms", "ms"),
    ("batched.peak_frac", "ratio"),
    ("batched.workspace_grows", "count"),
    // tuner / predict (crates/core)
    ("tuner.enumerate_ms", "ms"),
    ("tuner.candidates", "count"),
    ("tuner.prune_ms", "ms"),
    ("tuner.pruned_frac", "ratio"),
    ("tuner.stage1_ms", "ms"),
    ("tuner.evals_per_s", "1/s"),
    ("tuner.stage2_ms", "ms"),
    ("tuner.verify_ms", "ms"),
    ("predict.best_ms", "ms"),
    // codegen (crates/core) + clc (crates/clc)
    ("codegen.generate_us", "us"),
    ("clc.compile_ms", "ms"),
    ("clc.launch_ms", "ms"),
    // device (crates/device timing model)
    ("device.estimate_us", "us"),
    // host (the machine's own ceilings)
    ("host.fma_gflops.1t", "GFlop/s"),
    ("host.fma_gflops.2t", "GFlop/s"),
    ("host.copy_gbs", "GB/s"),
    // the benchmark itself
    ("bench.gen_lag_ms", "ms"),
    ("bench.coverage", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

#[cfg(test)]
/// Is `name` a legal metric name: 1–64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Everything one run produced.
#[derive(Default)]
pub struct Results {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (requests, batched calls, tuning jobs).
    pub attempted: u64,
    /// Operations refused, missed or errored.
    pub failed: u64,
    /// Correctness-gate failures; any entry fails the run.
    pub mismatches: Vec<String>,
    /// Sample counts behind the reported statistics.
    pub samples: Vec<(&'static str, usize)>,
}

impl Results {
    /// Record a metric.
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Record a correctness-gate failure.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                (
                    name,
                    Json::obj(vec![("value", Json::from(v)), ("unit", Json::from(unit))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted as usize)),
            ("failed", Json::from(self.failed as usize)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        assert!(!valid_name("serve.reject.{queue_full}"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(Json::expect_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.field("name").unwrap().expect_str().unwrap().to_string(),
                        m.field("unit").unwrap().expect_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut r = Results {
            attempted: 3,
            ..Results::default()
        };
        r.set("setup_s", 0.5);
        let line = Json::parse(&r.line(false)).unwrap();
        let metrics = line.field("metrics").unwrap().expect_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(line.field("correct").unwrap().as_bool(), Some(true));
        r.mismatch("C differs".into());
        let line = Json::parse(&r.line(true)).unwrap();
        assert_eq!(line.field("correct").unwrap().as_bool(), Some(false));
        assert_eq!(
            line.field("metrics").unwrap().expect_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
