//! Spans around the calls the benchmark makes into a layer: name, start,
//! end, parent and op id. Spans are kept in memory and written once, at
//! exit. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the trace file; aggregates keep counting past this.
const MAX_KEPT_SPANS: usize = 500_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Instant,
    kept: Option<usize>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Agg {
    /// Median span duration in ns.
    pub fn p50_ns(&self) -> f64 {
        let v: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64).collect();
        crate::report::median(&v)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
    total_spans: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
            total_spans: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between rounds.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        let depth = self.open.len();
        if self.on {
            let start = Instant::now();
            // The slot is taken at begin, so children can name their parent.
            let kept = (self.spans.len() < MAX_KEPT_SPANS).then(|| {
                let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
                let parent = self.open.last().and_then(|p| p.kept);
                self.spans.push(Span { name, op, start_ns, end_ns: start_ns, parent });
                self.spans.len() - 1
            });
            self.open.push(Open { name, start, kept });
        }
        SpanId(depth)
    }

    pub fn end(&mut self, id: SpanId) {
        self.close(id, None);
    }

    /// Closes the span under another name, for a call whose kind is known
    /// only once it returns (an append that took a checkpoint).
    pub fn end_as(&mut self, id: SpanId, name: &'static str) {
        self.close(id, Some(name));
    }

    fn close(&mut self, id: SpanId, rename: Option<&'static str>) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let mut open = self.open.pop().expect("end without begin");
        if let Some(name) = rename {
            open.name = name;
        }
        assert_eq!(id.0, self.open.len(), "spans must close innermost first");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let agg = self.aggs.entry(open.name).or_default();
        agg.calls += 1;
        agg.total_ns += dur;
        agg.durations_ns.push(dur);
        self.total_spans += 1;
        if let Some(k) = open.kept {
            self.spans[k].end_ns = self.spans[k].start_ns + dur;
            self.spans[k].name = open.name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    pub fn total_spans(&self) -> u64 {
        self.total_spans
    }

    /// Writes the kept spans as tab-separated lines:
    /// `name op start_ns end_ns parent_line` (`-` for a root span).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\top\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(w, "{}\t{}\t{}\t{}\t{}", s.name, s.op, s.start_ns, s.end_ns, parent)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_and_link_parents_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(outer);
        let (o, i) = (t.agg("outer"), t.agg("inner"));
        assert_eq!((o.calls, i.calls), (1, 1));
        assert!(o.total_ns >= i.total_ns && i.total_ns >= 2_000_000);
        assert_eq!((t.spans[0].parent, t.spans[1].parent), (None, Some(0)));

        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        assert_eq!(off.total_spans(), 0);
    }
}
