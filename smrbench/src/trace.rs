//! Spans recorded by the benchmark around its calls into the library.
//!
//! A span is a name, a start and an end (nanoseconds since the run
//! began) and the id of the phase span it belongs to; every span of a
//! phase carries that phase's id. Spans live in a bounded per-thread
//! buffer (overflow is counted, never grown) and are written out as JSON
//! lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One phase of one scheme; its id is the parent of the spans below.
    Phase,
    /// `ConcurrentSet::contains`.
    Contains,
    /// `ConcurrentSet::insert`.
    Insert,
    /// `ConcurrentSet::remove`.
    Remove,
    /// `Smr::register`.
    Register,
    /// Dropping a handle.
    Drop,
    /// `SmrHandle::force_empty`.
    ForceEmpty,
    /// Building and prefilling one structure.
    Prefill,
    /// The `pin()` + guard-drop probe loop.
    PinProbe,
    /// The pin → `alloc_with_index` → `retire` probe loop.
    AllocRetireProbe,
    /// The contains-only hop probe loop.
    HopProbe,
}

impl SpanName {
    /// Name as written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Phase => "phase",
            SpanName::Contains => "contains",
            SpanName::Insert => "insert",
            SpanName::Remove => "remove",
            SpanName::Register => "register",
            SpanName::Drop => "drop",
            SpanName::ForceEmpty => "force_empty",
            SpanName::Prefill => "prefill",
            SpanName::PinProbe => "pin_probe",
            SpanName::AllocRetireProbe => "alloc_retire_probe",
            SpanName::HopProbe => "hop_probe",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: SpanName,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Id of the phase span this belongs to (0: outside any phase).
    pub phase: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A bounded span buffer; one per thread, merged after the thread joins.
#[derive(Debug, Default)]
pub struct SpanBuf {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer that keeps at most `cap` spans.
    pub fn with_capacity(cap: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Keeps `s`, or counts it as dropped when the buffer is full.
    #[inline]
    pub fn push(&mut self, s: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// Moves `other`'s spans in, up to this buffer's capacity.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.dropped += other.dropped;
        for s in other.spans {
            self.push(s);
        }
    }

    /// Spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans lost to the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Nanoseconds from `epoch` to `t`.
#[inline]
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Writes the spans as JSON lines; `phases` maps a phase id (index + 1)
/// to its scheme name.
pub fn write_spans(
    path: &std::path::Path,
    spans: &SpanBuf,
    phases: &[&str],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.spans() {
        let scheme = s
            .phase
            .checked_sub(1)
            .and_then(|i| phases.get(i as usize))
            .unwrap_or(&"");
        writeln!(
            out,
            "{{\"name\":\"{}\",\"scheme\":\"{scheme}\",\"phase\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name.as_str(),
            s.phase,
            s.start,
            s.end
        )?;
    }
    out.flush()
}
