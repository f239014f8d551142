//! Wall-clock benchmark of clgemm, end to end and per layer.
//!
//! ```text
//! wallbench --workload <serve_small|batched|tune> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) probes the host's ceilings, replays the measured
//! calls layer by layer and prints the per-layer metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it, prefixed `wallbench-meta`,
//! records the host, build and environment. A failed correctness check
//! exits with status 1. See `NOTES.md` for the workloads and the map
//! from layer metrics to end-to-end metrics.

mod batched;
mod gen;
mod host;
mod replay;
mod report;
mod serve;
mod spans;
mod tune;
mod util;

use clgemm_shim::Json;
use std::process::ExitCode;

/// Environment variables that change what the program does; each run
/// records their values and then unsets them, so no persisted tuning
/// state or override leaks from one run into the next.
const PINNED_ENV: [&str; 5] = [
    "CLGEMM_TRACE",
    "CLGEMM_SIMD",
    "CLGEMM_PREDICT",
    "CLGEMM_CLC_ENGINE",
    "CLGEMM_TUNING_DB",
];

const WORKLOADS: [&str; 3] = ["serve_small", "batched", "tune"];

const USAGE: &str = "usage: wallbench --workload <serve_small|batched|tune> \
                     --seed <n> --seconds <s> --trace <0|1>\n       wallbench --print-winners";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Record the pinned variables, then unset them. Runs before any thread
/// starts or any of them is read.
fn pin_environment() -> Json {
    let seen = PINNED_ENV
        .iter()
        .map(|&name| {
            let v = std::env::var(name).map_or(Json::Null, Json::from);
            std::env::remove_var(name);
            (name, v)
        })
        .collect();
    Json::obj(seen)
}

fn main() -> ExitCode {
    let kept = util::keep_freed_memory();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let env = pin_environment();
    if argv == ["--print-winners"] {
        for line in tune::winner_lines() {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let caches = host::caches();
    // The ceilings are probed on every CPU; the program runs on one.
    let ceilings = args.trace.then(|| host::Ceilings::probe(&caches));
    let pinned = util::pin_to_one_cpu();
    let mut tracer = args.trace.then(spans::Tracer::new);
    let mut res = report::Results::default();
    let (seed, secs, ceil) = (args.seed, args.seconds, ceilings.as_ref());
    match args.workload.as_str() {
        "serve_small" => serve::run(seed, secs, ceil, tracer.as_mut(), &mut res),
        "batched" => batched::run(seed, secs, ceil, tracer.as_mut(), &mut res),
        _ => tune::run(secs, tracer.as_mut(), &mut res),
    }
    res.set("peak_rss_mb", util::peak_rss_mb());
    if let Some(c) = &ceilings {
        res.set("host.fma_gflops.1t", c.fma_1t);
        res.set("host.fma_gflops.2t", c.fma_2t);
        res.set("host.copy_gbs", c.copy_gbs);
    }

    let samples = res
        .samples
        .iter()
        .map(|&(k, n)| (k, Json::from(n)))
        .collect();
    let meta = Json::obj(vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed as f64)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("host", host::metadata(&caches, ceil)),
        (
            "cpus",
            pinned.map_or(Json::Null, |c| {
                Json::Arr(c.into_iter().map(Json::from).collect())
            }),
        ),
        (
            "workers",
            Json::from(clgemm_shim::par::worker_count(usize::MAX)),
        ),
        ("allocator_keeps_freed_memory", Json::from(kept)),
        ("env_pinned", env),
        ("samples", Json::obj(samples)),
    ]);
    println!("wallbench-meta {}", meta.to_string_compact());
    if let Some(t) = &tracer {
        let dir = std::path::Path::new(".wallbench");
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, t.to_json().to_string_compact()));
        if let Err(e) = written {
            eprintln!("wallbench: could not write {}: {e}", path.display());
        }
    }
    for m in &res.mismatches {
        eprintln!("wallbench: correctness: {m}");
    }
    println!("{}", res.line(args.trace));
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv("--workload tune --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "tune".into(),
                seed: 4,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 4 --seconds 10")).is_err());
        assert!(parse(&argv("--workload tune --seed x --seconds 10")).is_err());
        assert!(parse(&argv("--workload tune --seed 1 --seconds 0")).is_err());
        assert!(parse(&argv("--workload tune --seed 1")).is_err());
    }
}
