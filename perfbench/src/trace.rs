//! Spans around calls into each layer, kept in memory and reduced to
//! per-layer self times when the run ends.
//!
//! A span holds its name, start, end, parent and the id of the scenario
//! or request it belongs to. Untraced runs take the same clock readings
//! (the end-to-end metrics need them) but keep no spans, so the traced
//! and untraced runs differ only by the span bookkeeping.

use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.build`.
    pub name: &'static str,
    /// Scenario or request id; every span of one unit of work shares it.
    pub trace: u64,
    /// Index of this span within its trace.
    pub id: u32,
    /// The enclosing span of the same trace, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Span sink for one scenario or request. When disabled it records
/// nothing and every method is a no-op apart from the clock reading the
/// caller already took.
pub struct Recorder {
    epoch: Instant,
    trace: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, trace: u64, enabled: bool) -> Self {
        Recorder {
            epoch,
            trace,
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Set the end of a span recorded with a provisional end.
    pub fn close(&mut self, id: Option<u32>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Record a finished span from clock readings the caller took.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            trace: self.trace,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Seconds of self time per span name: each span's duration minus the
/// part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<(u64, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.trace, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&(s.trace, s.id))
            .map(|iv| covered_ns(iv, s.start_ns, s.end_ns))
            .unwrap_or(0);
        *out.entry(s.name).or_default() += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// All spans as one JSON document, for offline inspection.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "trace": s.trace,
                    "id": s.id,
                    "parent": s.parent.map(u64::from),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent.is_some() { "child" } else { "root" },
            trace: 1,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            span(3, Some(0), 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100) inside the root.
        assert_eq!((t["root"] * 1e9).round(), 50.0);
        assert_eq!((t["child"] * 1e9).round(), 30.0 + 20.0 + 30.0);
    }
}
