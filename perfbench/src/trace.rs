//! Spans around the benchmark's calls into each simulator layer, kept in
//! memory and written out as Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call enters (`workloads`, `system.build`, `drc`, …).
    pub layer: &'static str,
    /// What the call worked on (a kernel or topology label).
    pub name: String,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder. A disabled tracer only calls through, so untraced
/// passes pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span named `name` on `layer`; nested spans
    /// opened through the tracer `f` receives record this one as parent.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns: (start - origin).as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_ns = start.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans on `layer`, from span index `from` on.
    pub fn layer_s(&self, layer: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { "," },
                s.name.replace(['"', '\\'], "_"),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_layers() {
        let mut tr = Tracer::on();
        tr.span("outer", "a", |tr| {
            tr.span("inner", "b", |_| ());
            tr.span("inner", "c", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(tr.layer_s("outer", 0) >= tr.layer_s("inner", 0));
        assert_eq!(tr.layer_s("outer", 1), 0.0);
        assert!(tr.chrome_json().contains("\"cat\":\"inner\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", "y", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
