//! In-memory spans for the traced replay.
//!
//! Spans are coarse: one per public call the CLI makes, one per worker
//! range, so the tracer never runs inside the trial loop. A disabled
//! tracer reads no clock and records nothing, which is what the untraced
//! reps run with.

use std::sync::Mutex;
use std::time::Instant;

/// One named interval on one thread, with the index of the span that
/// caused it (`None` for a top-level span).
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory until the run ends.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside span `name`; `f` gets the span's index so it can
    /// parent the spans it causes.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        thread: usize,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans.push(Span {
                name,
                parent,
                thread,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned")[id].end_ns = end_ns;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}
