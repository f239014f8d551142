//! The benchmark's own span recorder, used only in traced runs.
//!
//! Every span is recorded by the benchmark around a call into one of the
//! program's public functions: name, start, end, parent span and the
//! request it belongs to. Spans stay in memory and are written out once,
//! when the run ends. A layer's self time is its spans' durations minus
//! the part covered by their children.

use clgemm_shim::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent / no request.
pub const NONE: u64 = u64::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the recorder, or [`NONE`].
    parent: u64,
    /// Request (or tuning job) id, or [`NONE`].
    req: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// matching [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) {
        let parent = self.stack.last().map_or(NONE, |&i| i as u64);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            req,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let r = f();
        self.exit();
        r
    }

    /// Self time (seconds) summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration (seconds) and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| {
                (t + (s.end_ns - s.start_ns) as f64 * 1e-9, n + 1)
            })
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> Json {
        let id = |v: u64| {
            if v == NONE {
                Json::Null
            } else {
                Json::from(v as f64)
            }
        };
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns as f64)),
                        ("end_ns", Json::from(s.end_ns as f64)),
                        ("parent", id(s.parent)),
                        ("req", id(s.req)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("outer", NONE);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let own = t.self_seconds();
        let (outer, _) = t.total("outer");
        assert!(own["inner"] >= 0.004);
        assert!(own["outer"] < outer - 0.004);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].req, 7);
    }
}
