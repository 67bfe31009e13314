//! Spans recorded from the benchmark's own files, around calls into the
//! library's public functions. Spans live in a preallocated buffer and are
//! written out as Chrome trace-event JSON when the run ends.

use std::io::Write;
use std::time::Instant;

use crate::json;
use crate::stats::median;

/// One timed call. `parent` is the span that was open when this one began;
/// spans of one op share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub id: usize,
    pub parent: Option<usize>,
    pub op_id: usize,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The span buffer. `begin`/`end` nest; a span's id is its index. A
/// tracer that is [`Tracer::off`] records nothing and reads no clock, so
/// an op that is its own composition runs through the same code untraced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: usize,
}

/// The id `begin` hands out while the tracer is off.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    /// Reserves room for `capacity` spans so recording one never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            on: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            op_id: 0,
        }
    }

    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::with_capacity(0)
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Starts the next op: spans recorded from here on carry a new `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            layer,
            start_us,
            end_us: start_us,
            id,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        id
    }

    /// Ends span `id` and any span still open inside it (an op that
    /// failed half-way leaves some).
    pub fn end(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let end_us = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = end_us;
            if top == id {
                break;
            }
        }
    }

    /// Ends every open span.
    pub fn end_all(&mut self) {
        if let Some(&outermost) = self.open.first() {
            self.end(outermost);
        }
    }

    /// Records `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Per span name, in first-seen order: `(name, layer, count, median
    /// duration in ms, median self time in ms)`.
    pub fn summary(&self) -> Vec<(&'static str, &'static str, usize, f64, f64)> {
        let own = self_times_us(&self.spans);
        let mut names: Vec<(&'static str, &'static str)> = Vec::new();
        for s in &self.spans {
            if !names.iter().any(|(n, _)| *n == s.name) {
                names.push((s.name, s.layer));
            }
        }
        names
            .into_iter()
            .map(|(name, layer)| {
                let of_name = || self.spans.iter().filter(move |s| s.name == name);
                let total: Vec<f64> = of_name().map(Span::dur_ms).collect();
                let own: Vec<f64> = of_name().map(|s| own[s.id] / 1e3).collect();
                (name, layer, total.len(), median(&total), median(&own))
            })
            .collect()
    }

    /// Writes the buffer as Chrome trace-event JSON (open in Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (n, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op_id\":{}}}}}",
                if n == 0 { "" } else { "," },
                json::string(s.name),
                json::string(s.layer),
                json::number(s.start_us),
                json::number(s.end_us - s.start_us),
                s.id,
                parent,
                s.op_id,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Self time (µs) per span, indexed by span id: the span's duration minus
/// the part of its interval that its direct children cover.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            own[p] -= (hi - lo).max(0.0);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: "s",
            layer: "bench",
            start_us,
            end_us,
            id,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        // root 0..100 holds two adjacent children 10..40 and 40..70; the
        // first child holds a grandchild 20..30 that must not be charged
        // to the root a second time
        let spans = [
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 40.0),
            span(2, Some(1), 20.0, 30.0),
            span(3, Some(0), 40.0, 70.0),
        ];
        assert_eq!(self_times_us(&spans), vec![40.0, 20.0, 10.0, 30.0]);
        let total: f64 = self_times_us(&spans).iter().sum();
        assert_eq!(total, 100.0, "self times partition the root");
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped_to_the_parent() {
        let spans = [span(0, None, 0.0, 50.0), span(1, Some(0), 40.0, 60.0)];
        assert_eq!(self_times_us(&spans), vec![40.0, 20.0]);
    }

    #[test]
    fn ending_an_outer_span_closes_what_a_failed_op_left_open() {
        let mut tr = Tracer::with_capacity(8);
        let root = tr.begin("op", "bench");
        tr.begin("left-open", "core");
        tr.end(root);
        tr.end_all();
        assert!(tr.spans().iter().all(|s| s.end_us >= s.start_us));
        let next = tr.begin("next", "bench");
        assert_eq!(tr.spans()[next].parent, None);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut tr = Tracer::with_capacity(8);
        tr.next_op();
        let root = tr.begin("op", "bench");
        tr.time("leaf", "tensor", || std::hint::black_box(1 + 1));
        tr.end(root);
        tr.next_op();
        tr.time("leaf", "tensor", || ());
        let mut off = Tracer::off();
        let id = off.begin("op", "bench");
        off.end(id);
        assert!(off.spans().is_empty());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op_id, s[1].op_id, s[2].op_id), (1, 1, 2));
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
        assert_eq!(tr.durations_ms("leaf").len(), 2);
        let rows = tr.summary();
        assert_eq!((rows[0].0, rows[0].2), ("op", 1));
        assert_eq!((rows[1].0, rows[1].1, rows[1].2), ("leaf", "tensor", 2));
        assert!(rows[0].4 <= rows[0].3, "self time is at most the duration");
    }
}
