//! Lock-light metrics: counters, gauges, log-bucketed histograms, and a
//! process-wide registry rendered in Prometheus text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`ed atomics:
//! every operation is wait-free and safe from any thread. The registry is
//! only locked at registration time (once per call site, typically cached
//! in a `OnceLock`) and at export time (`GET /metrics`) — never on the
//! event path. Gating is the *call site's* job via
//! [`crate::metrics_enabled`]; the handles themselves always record, which
//! keeps their unit semantics testable without global state.
//!
//! ## Histogram bucketing
//!
//! Log-linear ("HDR-lite") layout with [`SUB`] = 32 sub-buckets per
//! power-of-two octave: values `0..32` get exact unit buckets, then every
//! octave `[2^k, 2^(k+1))` is split into 32 equal sub-buckets, so the
//! worst-case relative quantization error is `1/32` ≈ 3.2%. Values up to
//! 63 are represented exactly (octave 5's sub-bucket width is still 1).
//! The full `u64` range maps into [`BUCKETS`] = 1920 slots; `u64::MAX`
//! lands in the last bucket without overflow.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sub-bucket count per octave (and the exact-bucket span `0..SUB`).
pub const SUB: usize = 32;
const SUB_BITS: u32 = 5;
/// Total histogram buckets covering all of `u64`: 32 exact unit buckets
/// plus 32 sub-buckets for each of the 59 octaves `[2^5, 2^64)`.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Monotonic event counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, detached counter (not in any registry). Registry-backed
    /// handles come from [`counter`] / [`counter_with`].
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// Instantaneous signed level (e.g. busy workers, running jobs).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

struct HistogramInner {
    /// Samples per bucket; their total is the sample count.
    counts: Box<[AtomicU64]>,
    /// Saturating sum of recorded values.
    sum: AtomicU64,
}

/// Log-bucketed histogram of `u64` samples with percentile queries.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Bucket index for a sample. Exact for `v < 64`; ≤ 1/32 relative error
/// beyond (log-linear, 32 sub-buckets per octave).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = ((v >> (top - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    SUB + (top - SUB_BITS) as usize * SUB + sub
}

/// Inclusive lower bound of a bucket — the value [`Histogram::quantile`]
/// reports when the rank falls inside it.
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let rel = index - SUB;
    let oct = (rel / SUB) as u32 + SUB_BITS;
    let sub = (rel % SUB) as u64;
    (1u64 << oct) + (sub << (oct - SUB_BITS))
}

/// Exclusive upper bound of a bucket (saturating at `u64::MAX`).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB {
        return index as u64 + 1;
    }
    let oct = ((index - SUB) / SUB) as u32 + SUB_BITS;
    bucket_lower_bound(index).saturating_add(1u64 << (oct - SUB_BITS))
}

impl Histogram {
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            counts: counts.into_boxed_slice(),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one sample: two relaxed read-modify-writes, so search
    /// workers recording every round stay cheap. A sum that overflows is
    /// pinned at `u64::MAX` right after (a racing reader may see it
    /// wrapped for that instant).
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        if inner
            .sum
            .fetch_add(v, Ordering::Relaxed)
            .checked_add(v)
            .is_none()
        {
            inner.sum.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Saturating sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The value at quantile `q ∈ [0, 1]` — the lower bound of the bucket
    /// holding the `ceil(q·count)`-th smallest sample (rank 1 for q = 0).
    /// Exact whenever the samples in that bucket equal its lower bound,
    /// which holds for all values < 64. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in self.0.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= rank {
                return Some(bucket_lower_bound(i));
            }
        }
        // Unreachable unless samples raced in after the count was read;
        // report the largest occupied bucket conservatively.
        Some(bucket_lower_bound(BUCKETS - 1))
    }

    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registry {
    /// Full id (`name{labels}`) → handle, plus insertion order for stable
    /// rendering.
    by_id: HashMap<String, usize>,
    entries: Vec<(String, Metric)>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(Registry {
            by_id: HashMap::new(),
            entries: Vec::new(),
        })
    })
}

/// Renders `name{k="v",…}` (or bare `name` without labels).
fn metric_id(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut id = String::with_capacity(name.len() + 16);
    id.push_str(name);
    id.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            id.push(',');
        }
        let _ = write!(id, "{}=\"{}\"", k, escape_label(v));
    }
    id.push('}');
    id
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn get_or_register<F: FnOnce() -> Metric>(id: String, make: F) -> Metric {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(&i) = reg.by_id.get(&id) {
        return match &reg.entries[i].1 {
            Metric::Counter(c) => Metric::Counter(c.clone()),
            Metric::Gauge(g) => Metric::Gauge(g.clone()),
            Metric::Histogram(h) => Metric::Histogram(h.clone()),
        };
    }
    let m = make();
    let clone = match &m {
        Metric::Counter(c) => Metric::Counter(c.clone()),
        Metric::Gauge(g) => Metric::Gauge(g.clone()),
        Metric::Histogram(h) => Metric::Histogram(h.clone()),
    };
    let slot = reg.entries.len();
    reg.by_id.insert(id.clone(), slot);
    reg.entries.push((id, m));
    clone
}

/// Registry-backed counter; repeated calls with the same id return clones
/// of one underlying atomic. A type clash with an existing id yields a
/// detached handle rather than panicking.
pub fn counter(name: &str) -> Counter {
    counter_with(name, &[])
}

pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    match get_or_register(metric_id(name, labels), || Metric::Counter(Counter::new())) {
        Metric::Counter(c) => c,
        _ => Counter::new(),
    }
}

/// Registry-backed gauge (see [`counter`] for id semantics).
pub fn gauge(name: &str) -> Gauge {
    gauge_with(name, &[])
}

pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Gauge {
    match get_or_register(metric_id(name, labels), || Metric::Gauge(Gauge::new())) {
        Metric::Gauge(g) => g,
        _ => Gauge::new(),
    }
}

/// Registry-backed histogram (see [`counter`] for id semantics).
pub fn histogram(name: &str) -> Histogram {
    histogram_with(name, &[])
}

pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> Histogram {
    match get_or_register(metric_id(name, labels), || {
        Metric::Histogram(Histogram::new())
    }) {
        Metric::Histogram(h) => h,
        _ => Histogram::new(),
    }
}

fn base_name(id: &str) -> &str {
    id.split('{').next().unwrap_or(id)
}

fn labels_part(id: &str) -> Option<&str> {
    let open = id.find('{')?;
    Some(&id[open + 1..id.len() - 1])
}

/// Appends `quantile="q"` (or similar extra pairs) to an id's label set.
fn id_with_extra(id: &str, extra: &str) -> String {
    match labels_part(id) {
        Some(l) => format!("{}{{{},{}}}", base_name(id), l, extra),
        None => format!("{}{{{}}}", base_name(id), extra),
    }
}

/// Renders every registered metric in Prometheus text exposition format.
/// Counters and gauges are single samples; histograms render as summaries
/// (`quantile="0.5|0.9|0.99"` plus `_sum` / `_count`) in the histogram's
/// native integer unit (the workspace convention is nanoseconds for
/// `*_ns` metrics).
pub fn render_prometheus() -> String {
    let reg = registry().lock().expect("metrics registry poisoned");
    let mut out = String::new();
    let mut typed: HashMap<&str, ()> = HashMap::new();
    for (id, metric) in &reg.entries {
        let base = base_name(id);
        let kind = match metric {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "summary",
        };
        if typed.insert(base, ()).is_none() {
            let _ = writeln!(out, "# TYPE {base} {kind}");
        }
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{id} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{id} {}", g.get());
            }
            Metric::Histogram(h) => {
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    let v = h.quantile(q).unwrap_or(0);
                    let qid = id_with_extra(id, &format!("quantile=\"{label}\""));
                    let _ = writeln!(out, "{qid} {v}");
                }
                let sum_id = match labels_part(id) {
                    Some(l) => format!("{}_sum{{{}}}", base, l),
                    None => format!("{base}_sum"),
                };
                let count_id = match labels_part(id) {
                    Some(l) => format!("{}_count{{{}}}", base, l),
                    None => format!("{base}_count"),
                };
                let _ = writeln!(out, "{sum_id} {}", h.sum());
                let _ = writeln!(out, "{count_id} {}", h.count());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_boundaries_are_exact_below_64() {
        for v in 0..64u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_lower_bound(i), v, "value {v}");
            assert_eq!(bucket_upper_bound(i), v + 1, "value {v}");
        }
    }

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let probes = [
            0u64,
            1,
            31,
            32,
            63,
            64,
            65,
            127,
            128,
            1000,
            4096,
            1 << 20,
            (1 << 20) + 12345,
            1 << 40,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} for {v}");
            let (lo, hi) = (bucket_lower_bound(i), bucket_upper_bound(i));
            assert!(lo <= v, "lower bound {lo} > value {v}");
            assert!(v < hi || hi == u64::MAX, "value {v} >= upper {hi}");
            if let Some(l) = last {
                assert!(i >= l, "index not monotone at {v}");
            }
            last = Some(i);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_within_one_thirty_second() {
        for shift in 6..63u32 {
            let v = (1u64 << shift) + (1u64 << (shift - 1)) + 7;
            let lo = bucket_lower_bound(bucket_index(v));
            let err = (v - lo) as f64 / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-12, "err {err} at {v}");
        }
    }

    #[test]
    fn percentiles_exact_on_hand_built_distribution() {
        // 1..=50, each once: every value < 64 so quantiles are exact.
        let h = Histogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 50);
        assert_eq!(h.sum(), 50 * 51 / 2);
        assert_eq!(h.p50(), Some(25));
        assert_eq!(h.p90(), Some(45));
        assert_eq!(h.p99(), Some(50));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(50));
    }

    #[test]
    fn percentiles_on_skewed_distribution() {
        // 99 fast samples at 10, one slow outlier at 4096.
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(4096);
        assert_eq!(h.p50(), Some(10));
        assert_eq!(h.p90(), Some(10));
        assert_eq!(h.p99(), Some(10));
        assert_eq!(h.quantile(1.0), Some(4096));
    }

    #[test]
    fn u64_overflow_edge_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.p50(), Some(bucket_lower_bound(bucket_index(u64::MAX))));
    }

    #[test]
    fn empty_histogram_query_is_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn registry_dedupes_and_renders_prometheus() {
        let a = counter_with("tm_test_requests_total", &[("route", "/jobs")]);
        let b = counter_with("tm_test_requests_total", &[("route", "/jobs")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same id must share one atomic");
        gauge("tm_test_busy").set(3);
        let h = histogram_with("tm_test_latency_ns", &[("phase", "estimate")]);
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        let text = render_prometheus();
        assert!(text.contains("# TYPE tm_test_requests_total counter"));
        assert!(text.contains("tm_test_requests_total{route=\"/jobs\"} 2"));
        assert!(text.contains("tm_test_busy 3"));
        assert!(text.contains("# TYPE tm_test_latency_ns summary"));
        assert!(text.contains("tm_test_latency_ns{phase=\"estimate\",quantile=\"0.5\"} 2"));
        assert!(text.contains("tm_test_latency_ns_sum{phase=\"estimate\"} 10"));
        assert!(text.contains("tm_test_latency_ns_count{phase=\"estimate\"} 4"));
    }
}
