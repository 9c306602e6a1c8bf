//! Spans for the traced run: name, id, parent id, thread, and start/end in
//! nanoseconds since the run began. They are recorded from the benchmark's
//! own code around calls into each layer's public functions — top-level
//! operations sampled 1 in 64, replay calls batched per 1 000 — kept in
//! memory, and written out as JSON lines when the run ends. With tracing
//! off every call here is a no-op.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// One load thread's span buffer, preallocated so that recording inside a
/// measured loop never allocates; spans past its capacity are dropped.
pub struct SpanBuf {
    on: bool,
    origin: Instant,
    thread: u32,
    next: u64,
    spans: Vec<Span>,
}

/// Capacity of a load thread's buffer per phase: one sampled operation in
/// 64 over 2M operations.
const LOCAL_SPANS: usize = 1 << 15;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// hand to its children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(Span {
            name,
            id,
            parent,
            thread: 0,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        });
        out
    }

    /// Records an already-timed interval (a batch of replay calls).
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                name,
                id,
                parent,
                thread: 0,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    /// A buffer for load thread `thread`; it records only if the tracer is
    /// on and `traced` holds.
    pub fn local(&self, thread: u32, traced: bool) -> SpanBuf {
        let on = self.on && traced;
        SpanBuf {
            on,
            origin: self.origin,
            thread,
            next: 0,
            spans: Vec::with_capacity(if on { LOCAL_SPANS } else { 0 }),
        }
    }

    pub fn absorb(&self, buf: SpanBuf) {
        if self.on {
            self.spans.lock().expect("span list lock").extend(buf.spans);
        }
    }

    pub fn count(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list lock").iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl SpanBuf {
    #[inline]
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if self.on && self.spans.len() < self.spans.capacity() {
            self.next += 1;
            self.spans.push(Span {
                name,
                // Load-thread ids live above 2^40, clear of phase ids.
                id: ((self.thread as u64) << 40) | self.next,
                parent,
                thread: self.thread,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            });
        }
    }
}
