//! Host-time spans recorded around the benchmark's own calls into the
//! program, for the traced run.
//!
//! The recorder is off in timed runs (every call is one branch). When on,
//! each span keeps its name, start, end, parent and request id in
//! memory; the run writes them out at exit as Chrome trace-event JSON
//! (the same `{"traceEvents": [...], "displayTimeUnit": "ms"}` shape as
//! the experiments' `--trace-json`, so Perfetto opens it) and folds them
//! into a per-span self-time summary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use griffin_telemetry::json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn time<R>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Chrome trace-event JSON: one complete ("X") event per span, in
/// microseconds of host time, with the parent and request in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut events = json::Array::new();
    let mut meta_args = json::Object::new();
    meta_args.str("name", "benchmark (host time)");
    let mut meta = json::Object::new();
    meta.str("ph", "M")
        .str("name", "thread_name")
        .usize("pid", 1)
        .usize("tid", 1)
        .raw("args", &meta_args.finish());
    events.raw(&meta.finish());
    for (i, s) in spans.iter().enumerate() {
        let mut args = json::Object::new();
        args.usize("id", i);
        if let Some(p) = s.parent {
            args.usize("parent", p);
        }
        if let Some(r) = s.request {
            args.u64("request", r);
        }
        let mut e = json::Object::new();
        e.str("name", s.name)
            .str("cat", "host")
            .str("ph", "X")
            .f64("ts", s.start_ns as f64 / 1e3)
            .f64("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
            .usize("pid", 1)
            .usize("tid", 1)
            .raw("args", &args.finish());
        events.raw(&e.finish());
    }
    let mut root = json::Object::new();
    root.raw("traceEvents", &events.finish())
        .str("displayTimeUnit", "ms");
    root.finish()
}

/// Per span name: how many spans, their total host time, and their self
/// time (total minus the time their direct children cover).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total.saturating_sub(child);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: Some(0),
            },
            Span {
                name: "run",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                request: Some(0),
            },
            Span {
                name: "check",
                start_ns: 70,
                end_ns: 90,
                parent: Some(0),
                request: Some(0),
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s["request"].self_ns, 20);
        assert_eq!(s["run"].self_ns, 60);
        assert_eq!(s["check"].total_ns, 20);
        let trace = chrome_trace(&spans);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.time("x", None, || 3), 3);
        assert!(spans.snapshot().is_empty());
        let spans = Spans::new(true);
        spans.time("outer", Some(1), || spans.time("inner", Some(1), || ()));
        let v = spans.snapshot();
        assert_eq!(v.len(), 2);
        assert_eq!(v[1].parent, Some(0));
        assert!(v[0].end_ns >= v[1].end_ns);
    }
}
