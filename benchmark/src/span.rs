//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer (`TimedStore`, `TimedPool`, the per-operation loop); nothing
//! inside the program under test is instrumented. They stay in memory until
//! the run ends and are then summarised ([`layer_times`]) and optionally
//! written out ([`write_json`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval: a layer boundary crossed on behalf of operation `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the recorded span list) of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one operation.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Records spans. The traced run drives it from one thread; the mutex only
/// exists because the wrapped store must be `Sync` to sit under a pool.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer mutex poisoned: a traced call panicked")
    }

    /// Sets the operation id stamped on spans entered from now on.
    pub fn set_op(&self, op: u32) {
        self.lock().op = op;
    }

    /// Opens a span under the innermost open span; returns its index for
    /// [`exit`](Tracer::exit). The start time is read last, so the span
    /// excludes the tracer's own bookkeeping.
    pub fn enter(&self, name: &'static str) -> u32 {
        let mut inner = self.lock();
        let id = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        let op = inner.op;
        inner.open.push(id);
        inner.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        inner.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&self, id: u32) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        assert_eq!(
            inner.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        inner.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Drains the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        let mut inner = self.lock();
        assert!(inner.open.is_empty(), "draining with spans still open");
        std::mem::take(&mut inner.spans)
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the part their child spans cover.
    pub self_ns: u64,
}

/// Sums duration and self time per span name. A span's self time is its
/// duration minus the durations of its direct children (children never
/// overlap: the recorder is driven from one thread).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns);
    }
    out
}

/// Writes the spans as a JSON array, one object per line.
pub fn write_json(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}{}",
            s.name, s.start_ns, s.end_ns, parent, s.op, comma
        )?;
    }
    writeln!(out, "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] ⊃ fetch [10,60] ⊃ read [20,50]; op ⊃ read [70,90].
        let spans = vec![
            span("op", 0, 100, None),
            span("fetch", 10, 60, Some(0)),
            span("read", 20, 50, Some(1)),
            span("read", 70, 90, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["op"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["fetch"],
            LayerTime {
                count: 1,
                total_ns: 50,
                self_ns: 20
            }
        );
        assert_eq!(
            t["read"],
            LayerTime {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        // Self times partition the root span exactly.
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_stamps_the_operation() {
        let tracer = Tracer::new();
        tracer.set_op(7);
        let outer = tracer.enter("op");
        tracer.span("read", || ());
        tracer.exit(outer);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("op", None, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("read", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(tracer.take().is_empty(), "take drains");

        let mut json = Vec::new();
        write_json(&spans, &mut json).unwrap();
        let text = String::from_utf8(json).unwrap();
        assert!(text.contains("\"name\":\"read\"") && text.contains("\"parent\":0"));
        assert!(text.contains("\"parent\":null"));
    }
}
