//! `autoax-telemetry` — the workspace's hand-rolled observability layer.
//!
//! Three independent facilities, all crates.io-free per the shims policy:
//!
//! * [`metrics`] — a process-wide registry of atomic counters, gauges and
//!   log-bucketed histograms with percentile queries, rendered on demand in
//!   Prometheus text exposition format. Handles are plain `Arc`ed atomics;
//!   the *call sites* gate on [`metrics_enabled`], so an unsubscribed
//!   process pays exactly one relaxed atomic load per hot-path event.
//! * [`mod@span`] — structured spans (id, parent, name, `key=value` fields,
//!   monotonic start/stop) recorded into a thread-safe collector that
//!   exports Chrome-trace JSON (loadable in `chrome://tracing` /
//!   `ui.perfetto.dev`) and a folded-stacks text profile.
//! * [`log`] — a leveled stderr logger (`AUTOAX_LOG=error|warn|info|debug|
//!   trace`) behind `ax_error!`/`ax_warn!`/`ax_info!`/`ax_debug!`/
//!   `ax_trace!` macros, replacing ad-hoc `eprintln!`s. Silent by default.
//!
//! ## Enablement model
//!
//! Everything is off by default and *never* affects computation — the
//! instrumented code paths produce byte-identical results whether the
//! registry is subscribed or not (guarded by the pinned front-digest test
//! in the root crate). Binaries opt in explicitly:
//!
//! * [`set_metrics`]`(true)` — start accumulating metrics (what
//!   `autoax-serve` does on spawn, and what `/metrics` exposes).
//! * [`set_tracing`]`(true)` — start collecting spans (what `quickstart`
//!   does when `AUTOAX_TRACE=<path>` is set).
//! * `AUTOAX_LOG=<level>` — enable the leveled logger.
//!
//! [`init_from_env`] wires all three knobs from the environment in one
//! call; it is what the shipped binaries use.

pub mod log;
pub mod metrics;
pub mod span;

pub use metrics::{counter, counter_with, gauge, gauge_with, histogram, histogram_with};
pub use metrics::{render_prometheus, Counter, Gauge, Histogram};
pub use span::{
    dropped_spans, export_chrome_trace, export_folded, snapshot_spans, span, take_spans,
    write_json_str, Span, SpanRecord,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Environment variable holding the leveled-logger threshold.
pub const LOG_ENV: &str = "AUTOAX_LOG";
/// Environment variable holding the Chrome-trace output path (its presence
/// turns span collection on in binaries that call [`init_from_env`]).
pub const TRACE_ENV: &str = "AUTOAX_TRACE";
/// Environment variable forcing the metrics registry on (`1`) or off (`0`).
pub const METRICS_ENV: &str = "AUTOAX_METRICS";

static METRICS_ON: AtomicBool = AtomicBool::new(false);
static TRACING_ON: AtomicBool = AtomicBool::new(false);

/// One relaxed load: is the metrics registry subscribed? Hot call sites
/// check this before touching any handle, so the unsubscribed cost of an
/// instrumented event is exactly this load.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// One relaxed load: is the span collector active?
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING_ON.load(Ordering::Relaxed)
}

/// Subscribes (or unsubscribes) the global metrics registry. Handles keep
/// their accumulated values across toggles; only *new* events are gated.
pub fn set_metrics(on: bool) {
    METRICS_ON.store(on, Ordering::Relaxed);
}

/// Turns span collection on or off. Spans opened while tracing is off are
/// free (no id, no record) even if tracing is re-enabled before they drop.
pub fn set_tracing(on: bool) {
    TRACING_ON.store(on, Ordering::Relaxed);
}

/// The Chrome-trace output path requested via `AUTOAX_TRACE`, if any.
pub fn trace_path_from_env() -> Option<String> {
    std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty())
}

/// Wires all telemetry knobs from the environment: `AUTOAX_LOG` (logger
/// threshold), `AUTOAX_TRACE` (non-empty ⇒ tracing on), `AUTOAX_METRICS`
/// (`1` ⇒ registry on, `0` ⇒ off). Call once near the top of `main`.
pub fn init_from_env() {
    log::init_level_from_env();
    if trace_path_from_env().is_some() {
        set_tracing(true);
    }
    match std::env::var(METRICS_ENV).ok().as_deref() {
        Some("1") | Some("true") | Some("on") => set_metrics(true),
        Some("0") | Some("false") | Some("off") => set_metrics(false),
        _ => {}
    }
}
