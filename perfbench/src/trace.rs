//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: name, start, end, parent span name and request id. Every span
//! is folded into a per-name count and total, and one request in
//! [`SAMPLE_EVERY`] also keeps its spans in the log, which is written as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Requests whose id is a multiple of this keep their spans in the log
/// (unless the tracer was built to keep every span).
pub const SAMPLE_EVERY: u64 = 64;
/// Upper bound on logged spans per tracer, so a long run stays small.
const MAX_LOGGED: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
    pub req: u64,
}

/// One thread's span recorder. Disabled tracers record nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    every: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::sampling(enabled, SAMPLE_EVERY)
    }

    /// A tracer that logs the spans of requests whose id is a multiple
    /// of `every`.
    pub fn sampling(enabled: bool, every: u64) -> Tracer {
        Tracer {
            enabled,
            every: every.max(1),
            ..Tracer::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let total = self.totals.entry(name).or_insert((0, 0));
        total.0 += 1;
        total.1 += end_ns.saturating_sub(start_ns);
        if req.is_multiple_of(self.every) && self.spans.len() < MAX_LOGGED {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        }
    }

    /// Fold another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, (n, ns)) in other.totals {
            let t = self.totals.entry(name).or_insert((0, 0));
            t.0 += n;
            t.1 += ns;
        }
        let room = MAX_LOGGED.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Mean duration in ns of the spans named `name`.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        self.totals
            .get(name)
            .filter(|(n, _)| *n > 0)
            .map(|&(n, ns)| ns as f64 / n as f64)
    }

    /// Append the logged spans of one phase to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path, phase: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracers_record_nothing() {
        let mut t = Tracer::new(false);
        t.record("a", None, 0, 0, 10);
        assert!(t.mean_ns("a").is_none());
        assert!(t.spans.is_empty());
    }

    #[test]
    fn totals_cover_every_span_and_the_log_samples() {
        let mut t = Tracer::new(true);
        for req in 0..SAMPLE_EVERY * 2 {
            t.record("a", None, req, 0, 10);
        }
        assert_eq!(t.mean_ns("a"), Some(10.0));
        assert_eq!(t.spans.len(), 2);
    }
}
