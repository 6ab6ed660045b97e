//! In-memory spans recorded around the calls into each layer, written out
//! when the run ends. Spans of one frame share an id.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Frame (or tick) the span belongs to.
    pub id: u64,
    /// Layer boundary, e.g. `serve.submit`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    parent: u32,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Span store. A disabled tracer records nothing and costs one branch.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    paused: bool,
    spans: Vec<Span>,
}

/// Handle to a recorded span, usable as a parent.
#[derive(Debug, Clone, Copy)]
pub struct SpanRef(u32);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self { on: false, paused: false, spans: Vec::new() }
    }

    /// A recording tracer with room for `capacity` spans before it grows.
    pub fn on(capacity: usize) -> Self {
        Self { on: true, paused: false, spans: Vec::with_capacity(capacity) }
    }

    /// Whether spans are recorded right now.
    pub fn enabled(&self) -> bool {
        self.on && !self.paused
    }

    /// Whether this tracer records at all (paused or not).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Stops recording (during warm-up) or resumes it.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Records a span and returns its handle.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        if !self.enabled() {
            return SpanRef(NO_PARENT);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 4G spans");
        self.spans.push(Span { id, name, parent: parent.map_or(NO_PARENT, |p| p.0), start, end });
        SpanRef(idx)
    }

    /// Sets the end of a span recorded before its end was known.
    pub fn close(&mut self, span: SpanRef, end: Instant) {
        if let Some(s) = self.spans.get_mut(span.0 as usize) {
            s.end = end;
        }
    }

    /// Moves `other`'s spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 4G spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Every span named `name`, in record order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in seconds of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans_named(name).map(Span::secs).collect()
    }

    /// Number of spans recorded.
    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// Writes `id,name,parent,start_ns,end_ns` lines (times relative to
    /// `origin`, parent as a line index or -1).
    pub fn write_csv(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{},{},{},{},{}",
                s.id,
                s.name,
                parent,
                s.start.saturating_duration_since(origin).as_nanos(),
                s.end.saturating_duration_since(origin).as_nanos()
            )?;
        }
        out.flush()
    }
}
