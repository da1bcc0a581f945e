//! In-memory spans of one traced repetition, written out when it ends.
//!
//! The spans are recorded by the benchmark around its calls into the
//! program's public API; nothing inside the program is instrumented. A
//! span's self time is its duration minus the part its children cover.

use crate::json::Value;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts observed at the same boundary (a superstep's counter delta).
    pub counts: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    origin: Instant,
    /// Identifier every span of the repetition shares.
    job: String,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(job: impl Into<String>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            job: job.into(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.add(name, parent, now, now, Vec::new())
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose interval is already known.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        counts: Vec<(&'static str, f64)>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
            counts,
        });
        self.spans.len() - 1
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Duration minus the time covered by direct children. Children of one
    /// parent never overlap here (the benchmark is single-threaded outside
    /// the program), so their durations simply add up.
    pub fn self_ns(&self, id: usize) -> u64 {
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children)
    }

    pub fn to_json(&self, header: Vec<(&'static str, Value)>) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut fields = vec![
                    ("id", Value::Num(id as f64)),
                    ("name", Value::Str(s.name.clone())),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("job", Value::Str(self.job.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(self.self_ns(id) as f64)),
                ];
                if !s.counts.is_empty() {
                    fields.push((
                        "counts",
                        Value::obj(s.counts.iter().map(|(k, v)| (*k, Value::Num(*v)))),
                    ));
                }
                Value::obj(fields)
            })
            .collect();
        let mut fields = header;
        fields.push(("spans", Value::Arr(spans)));
        Value::obj(fields)
    }
}

/// Times `work`, and records it as a span when this repetition is traced.
/// Timed and traced repetitions run the same code; the tracer is the only
/// difference, which is what `bench.trace.overhead_pct` measures.
pub fn phase<T>(
    tracer: &mut Option<Tracer>,
    name: &str,
    parent: Option<usize>,
    work: impl FnOnce() -> T,
) -> (T, Duration, Option<usize>) {
    let id = tracer.as_mut().map(|t| t.begin(name, parent));
    let started = Instant::now();
    let out = work();
    let took = started.elapsed();
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.end(id);
    }
    (out, took, id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new("job-1");
        let root = t.add("job", None, 0, 1000, Vec::new());
        let run = t.add("run", Some(root), 100, 900, Vec::new());
        t.add(
            "superstep[1]",
            Some(run),
            100,
            400,
            vec![("compute_calls", 6.0)],
        );
        t.add("superstep[2]", Some(run), 400, 700, Vec::new());
        t.add("dump", Some(root), 900, 950, Vec::new());
        assert_eq!(t.self_ns(root), 1000 - 800 - 50);
        assert_eq!(t.self_ns(run), 800 - 600);
        let json = t.to_json(vec![("workload", Value::Str("w".into()))]);
        let spans = json.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[2].get("parent").and_then(Value::as_f64), Some(1.0));
        assert_eq!(spans[2].get("job").and_then(Value::as_str), Some("job-1"));
        assert_eq!(
            spans[2]
                .get("counts")
                .and_then(|c| c.get("compute_calls"))
                .and_then(Value::as_f64),
            Some(6.0)
        );
        assert_eq!(spans[0].get("self_ns").and_then(Value::as_f64), Some(150.0));
    }

    #[test]
    fn phase_times_with_and_without_a_tracer() {
        let mut off = None;
        let (v, took, id) = phase(&mut off, "x", None, || 7);
        assert_eq!((v, id), (7, None));
        assert!(took < Duration::from_secs(1));
        let mut on = Some(Tracer::new("j"));
        let (_, _, id) = phase(&mut on, "x", None, || ());
        let t = on.unwrap();
        let s = t.span(id.unwrap());
        assert_eq!(s.name, "x");
        assert!(s.end_ns >= s.start_ns);
    }
}
