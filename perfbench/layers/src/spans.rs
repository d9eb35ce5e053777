//! An in-memory span and counter recorder for the traced run.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions: name, start, end and the enclosing span. They
//! stay in memory until [`Tracer::write_json`] writes them once, at the end
//! of the run; self times and the per-layer table are computed from that
//! file by `perfbench/bench_stats.py`.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Records nested spans (seconds since the tracer started) and named
/// counters.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(String, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name.to_string(), value)),
        }
    }

    /// Writes `{"meta": {...}, "spans": [...], "counters": {...}}`. Names
    /// are plain identifiers (`core.fold.routing_bg`, `figures.fig4-1`), so
    /// no JSON escaping is needed.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        meta: &[(&str, String)],
    ) -> std::io::Result<()> {
        let mut s = String::from("{\"meta\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{v}\"");
        }
        s.push_str("},\n\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}}}",
                sp.name, sp.start, sp.end
            );
        }
        s.push_str("],\n\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {v}");
        }
        s.push_str("}}\n");
        std::fs::write(path, s)
    }
}
