//! Structured spans with a thread-safe collector and two export formats:
//! Chrome-trace JSON (`chrome://tracing` / Perfetto) and folded stacks
//! (one `root;child;leaf <self-time-µs>` line per unique path, the input
//! format of every flamegraph renderer).
//!
//! A [`Span`] is a scope guard: [`span`]`("name")` opens it, dropping it
//! records one [`SpanRecord`] with the id of the innermost span still open
//! *on the same thread* as its parent (cross-thread work — e.g. pool
//! bursts — starts fresh roots on the worker threads). While
//! [`crate::tracing_enabled`] is false the guard is inert: no id, no
//! thread-local traffic, no record — but it still captures its start
//! instant so [`Span::elapsed`]/[`Span::finish`] can feed duration sinks
//! like `PipelineTimings` whether or not tracing is on.
//!
//! The collector is bounded ([`MAX_SPANS`]); past the cap new records are
//! counted in [`dropped_spans`] instead of growing without limit.

use std::cell::{Cell, RefCell};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Collector capacity; ~100 bytes/record ⇒ ≲ 100 MB worst case.
pub const MAX_SPANS: usize = 1 << 20;

/// One closed span as stored by the collector.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique nonzero id.
    pub id: u64,
    /// Enclosing span's id, or 0 for a thread root.
    pub parent: u64,
    pub name: &'static str,
    /// Small per-thread index (stable within a process, first-use order).
    pub thread: u64,
    /// Monotonic start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub fields: Vec<(&'static str, String)>,
}

struct Collector {
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        spans: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_index() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Scope guard for one traced region. Create via [`span`]; attach
/// `key=value` context with [`Span::field`]; the record is emitted on drop.
pub struct Span {
    start: Instant,
    /// 0 when tracing was off at creation: the guard is inert.
    id: u64,
    parent: u64,
    name: &'static str,
    fields: Vec<(&'static str, String)>,
}

/// Opens a span. One relaxed load when tracing is off (plus the monotonic
/// clock read that [`Span::elapsed`] needs either way).
pub fn span(name: &'static str) -> Span {
    let (id, parent) = if crate::tracing_enabled() {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        (id, parent)
    } else {
        (0, 0)
    };
    // Epoch before start: the first span's relative timestamp stays >= 0.
    let _ = epoch();
    Span {
        start: Instant::now(),
        id,
        parent,
        name,
        fields: Vec::new(),
    }
}

impl Span {
    /// Attaches a `key=value` field (no-op on an inert guard).
    pub fn field(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if self.id != 0 {
            self.fields.push((key, value.to_string()));
        }
    }

    /// Time since the span opened — live whether or not tracing is on, so
    /// instrumented stages can feed duration sinks like `PipelineTimings`.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span now and returns its duration.
    pub fn finish(self) -> Duration {
        let d = self.elapsed();
        drop(self);
        d
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let dur = self.start.elapsed();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop LIFO under normal scoping; the defensive scan
            // keeps the stack sound if a guard is moved out of order.
            if s.last() == Some(&self.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: thread_index(),
            start_ns: self.start.saturating_duration_since(epoch()).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            fields: std::mem::take(&mut self.fields),
        };
        let c = collector();
        let mut spans = c.spans.lock().expect("span collector poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(rec);
        } else {
            c.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Clones the collected spans without draining them.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    collector()
        .spans
        .lock()
        .expect("span collector poisoned")
        .clone()
}

/// Drains and returns the collected spans.
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *collector().spans.lock().expect("span collector poisoned"))
}

/// Spans discarded because the collector hit [`MAX_SPANS`].
pub fn dropped_spans() -> u64 {
    collector().dropped.load(Ordering::Relaxed)
}

/// Writes `s` as a quoted JSON string literal: `"` and `\` behind a
/// backslash, `\n`/`\r`/`\t` by name, every other control character below
/// U+0020 as `\u00XX`, everything else verbatim. The one string escaper of the
/// workspace — the Chrome-trace exporter and `autoax-serve`'s wire format
/// both render through it, straight into their sinks.
pub fn write_json_str<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Every escaped character is ASCII, so byte offsets of escapes are
    // char boundaries and the runs between them are copied as slices.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if named.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(named)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Renders spans as Chrome-trace JSON: one `ph:"X"` complete event per
/// span, microsecond timestamps relative to the process epoch, span fields
/// under `args`. Load the output in `chrome://tracing` or Perfetto.
pub fn export_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        let _ = write_json_str(&mut out, s.name);
        let _ = write!(
            out,
            ",\"cat\":\"autoax\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000,
            s.thread,
            s.id,
            s.parent,
        );
        for (k, v) in &s.fields {
            out.push(',');
            let _ = write_json_str(&mut out, k);
            out.push(':');
            let _ = write_json_str(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders spans as folded stacks (`root;child;leaf <self-µs>`), the
/// aggregate input format of flamegraph tools. Self time is a span's
/// duration minus its direct children's; paths follow parent links, with
/// unknown parents treated as roots.
pub fn export_folded(spans: &[SpanRecord]) -> String {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
        }
    }
    let mut folded: HashMap<String, u64> = HashMap::new();
    for s in spans {
        let mut path = vec![s.name];
        let mut cur = s.parent;
        // Parent chains are acyclic by construction (ids are unique and a
        // parent always precedes its children); the depth cap is belt and
        // braces against a corrupted record set.
        let mut hops = 0;
        while cur != 0 && hops < 128 {
            match by_id.get(&cur) {
                Some(p) => {
                    path.push(p.name);
                    cur = p.parent;
                }
                None => break,
            }
            hops += 1;
        }
        path.reverse();
        let self_ns = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *folded.entry(path.join(";")).or_insert(0) += self_ns / 1_000;
    }
    let mut lines: Vec<(String, u64)> = folded.into_iter().collect();
    lines.sort();
    let mut out = String::new();
    for (path, us) in lines {
        let _ = writeln!(out, "{path} {us}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests toggle the global tracing flag; serialize them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nesting_records_parent_links() {
        let _g = guard();
        crate::set_tracing(true);
        {
            let mut a = span("tspan.outer");
            a.field("k", 42);
            {
                let _b = span("tspan.inner");
            }
        }
        crate::set_tracing(false);
        let spans = take_spans();
        let outer = spans
            .iter()
            .find(|s| s.name == "tspan.outer")
            .expect("outer recorded");
        let inner = spans
            .iter()
            .find(|s| s.name == "tspan.inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.fields, vec![("k", "42".to_string())]);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(outer.start_ns <= inner.start_ns);
    }

    #[test]
    fn disabled_spans_are_inert_but_still_time() {
        let _g = guard();
        crate::set_tracing(false);
        let before = snapshot_spans().len();
        let s = span("tspan.disabled");
        std::thread::sleep(Duration::from_millis(1));
        let d = s.finish();
        assert!(d >= Duration::from_millis(1), "elapsed works while inert");
        assert_eq!(snapshot_spans().len(), before, "no record emitted");
    }

    #[test]
    fn chrome_export_shape() {
        let recs = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "root",
                thread: 1,
                start_ns: 1_500,
                dur_ns: 10_000,
                fields: vec![("strategy", "hill\"x".to_string())],
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "child",
                thread: 1,
                start_ns: 2_000,
                dur_ns: 4_000,
                fields: vec![],
            },
        ];
        let json = export_chrome_trace(&recs);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":10.000"));
        assert!(json.contains("\\\"x"), "field values are JSON-escaped");
        assert!(json.ends_with("}"));
    }

    #[test]
    fn folded_export_subtracts_child_time() {
        let recs = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "root",
                thread: 1,
                start_ns: 0,
                dur_ns: 10_000_000, // 10 ms
                fields: vec![],
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "child",
                thread: 1,
                start_ns: 0,
                dur_ns: 4_000_000, // 4 ms
                fields: vec![],
            },
        ];
        let folded = export_folded(&recs);
        assert!(
            folded.contains("root 6000\n"),
            "self = 10ms - 4ms: {folded}"
        );
        assert!(folded.contains("root;child 4000\n"), "{folded}");
    }
}
