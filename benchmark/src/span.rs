//! Spans of the layer walk: one per call into a layer, kept in memory and
//! written out when the walk ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the span that made the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Client operation the call served; 0 for server-initiated work.
    pub op: u64,
}

/// Records spans around calls; nesting follows call order. A disabled
/// recorder does nothing, so the same walk can be timed at its ends only.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled: false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end_ns;
        }
    }

    /// Drops the innermost open span, which must have no children: for a
    /// call that turned out to do nothing.
    pub fn discard(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans.truncate(i);
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| own.get_mut(p)) {
            *p = p.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Calls and summed self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(span.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Writes one JSON object per line: `id`, `name`, `start_ns`, `end_ns`,
/// `parent` (an `id` or null) and `op`.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 { a 10..40 { c 15..25 }, b 50..90 }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
        assert_eq!(by_name(&spans)["a"], (1, 20));
    }

    #[test]
    fn recorder_nests_by_call_order_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        r.enter("outer", 7);
        r.enter("inner", 7);
        r.exit();
        r.exit();
        r.enter("next", 8);
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut off = Recorder::new(false);
        off.enter("outer", 1);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
