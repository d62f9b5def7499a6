//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Each thread owns a [`SpanLog`]; logs are merged and written
//! out once the run ends, so recording never touches a file or a lock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer call, e.g. `statistical.estimate_mean`.
    pub name: &'static str,
    /// Request (or op) the span belongs to.
    pub request: u64,
    /// Start, in microseconds since the run's epoch.
    pub start_us: f64,
    /// End, in microseconds since the run's epoch.
    pub end_us: f64,
}

/// An open span: close it with [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Option<Instant>,
}

impl Open {
    /// The span's id, to pass as a child's parent.
    pub fn id(&self) -> Option<u64> {
        self.start.map(|_| self.id)
    }
}

/// A per-thread span recorder. A disabled log reads no clock.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose span ids start at `thread << 40`, so logs of
    /// different threads never collide.
    pub fn new(epoch: Instant, thread: u64, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            next: thread << 40,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<u64>) -> Open {
        self.next += 1;
        Open {
            id: self.next,
            parent,
            name,
            request,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Closes a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(start) = open.start {
            let end = Instant::now();
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                request: open.request,
                start_us: micros(start.duration_since(self.epoch)),
                end_us: micros(end.duration_since(self.epoch)),
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, request, parent);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per span name: `(count, total µs, self µs)`, where self time is the
/// span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_us - s.start_us;
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| covered(c, s.start_us, s.end_us));
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Writes spans as JSON lines.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id, parent, s.name, s.request, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "op", 0.0, 100.0),
            span(2, Some(1), "a", 10.0, 40.0),
            span(3, Some(1), "b", 30.0, 50.0),
            span(4, Some(1), "c", 90.0, 120.0),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50] and [90, 100] inside the parent.
        assert_eq!(t["op"], (1, 100.0, 50.0));
        assert_eq!(t["a"], (1, 30.0, 30.0));
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), 1, false);
        let v = log.time("x", 0, None, || 7);
        assert_eq!(v, 7);
        assert!(log.into_spans().is_empty());
    }
}
