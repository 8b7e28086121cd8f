//! Process-global metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! Metrics are **always on**. Handles are registered by static name and
//! backed by atomics, so an update is a handful of relaxed atomic
//! operations with no locking — cheap enough for per-solve and per-event
//! bookkeeping (per-pivot hot loops should accumulate locally and record
//! once per solve, which is what `arrow-lp` does). Instrumented crates
//! cache their handles in `OnceLock` statics; registration itself takes a
//! short-lived mutex and happens once per name.
//!
//! [`snapshot`] serializes the whole registry — deterministically, in
//! lexicographic name order — to JSON (`Snapshot::to_json`) or a
//! Prometheus-style text exposition (`Snapshot::to_prometheus`), which
//! the [`crate::export`] listener serves.
//!
//! Deliberately omitted: labels/dimensions (encode them in the name),
//! metric unregistration, and push-based export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Escapes `s` for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON value (`null` for non-finite).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Adds `d` to an `f64` stored as bits in an [`AtomicU64`].
fn f64_add(bits: &AtomicU64, d: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + d).to_bits();
        match bits.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (last write wins).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    /// Finite bucket upper bounds, strictly increasing; an implicit
    /// overflow bucket (`+inf`) follows the last one.
    bounds: Vec<f64>,
    /// Per-bucket observation counts, `bounds.len() + 1` entries.
    buckets: Vec<AtomicU64>,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram: observations land in the first bucket whose
/// upper bound is `>= value`, or in the implicit overflow bucket.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.inner.bounds)
            .field("count", &self.count())
            .finish()
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let i = self.inner.bounds.iter().position(|&b| v <= b).unwrap_or(self.inner.bounds.len());
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        f64_add(&self.inner.sum_bits, v);
    }

    /// Total observations recorded.
    pub(crate) fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Bucket upper bounds (finite ones; the overflow bucket is implicit).
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }

    /// Per-bucket counts, `bounds().len() + 1` entries (last = overflow).
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.inner.buckets.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }
}

/// One registered metric.
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// `BTreeMap` keeps snapshots in deterministic (lexicographic) order — the
/// same hash-order discipline the offline stage follows (see DESIGN.md).
fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Locks the registry, recovering from poisoning: the map's invariants
/// hold after any partial mutation (entries are inserted atomically via
/// `entry().or_insert_with`), so a panic elsewhere must not take the
/// telemetry plane down with it.
fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    registry().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn register(name: &'static str, make: impl FnOnce() -> Metric) -> Metric {
    let mut reg = lock_registry();
    let entry = reg.entry(name).or_insert_with(make);
    entry.clone()
}

/// Counts kind-clash registrations (see [`kind_clash`]); also the one name
/// that must not recurse into itself from the clash path.
const KIND_CLASH_COUNTER: &str = "obs.metrics.kind_clash";

/// A name was re-registered as a different metric kind. Telemetry must
/// never panic the process it observes, so this records the clash (warn
/// event + counter) and the caller hands back a *detached* metric: a live
/// handle of the requested kind that is not in the registry, so updates
/// through it are accepted but invisible to snapshots.
fn kind_clash(name: &'static str, existing: &'static str, requested: &'static str) {
    if name != KIND_CLASH_COUNTER {
        counter(KIND_CLASH_COUNTER).inc();
    }
    crate::event!(
        warn: "obs.metrics.kind_clash",
        "name" => name,
        "existing" => existing,
        "requested" => requested
    );
}

/// Returns the counter registered under `name`, creating it on first use.
///
/// If `name` is already registered as a different kind, the clash is
/// recorded (`obs.metrics.kind_clash` counter plus a warn event) and a
/// detached counter is returned — live, but excluded from snapshots.
pub fn counter(name: &'static str) -> Counter {
    match register(name, || Metric::Counter(Counter { cell: Arc::new(AtomicU64::new(0)) })) {
        Metric::Counter(c) => c,
        other => {
            kind_clash(name, other.kind(), "counter");
            Counter { cell: Arc::new(AtomicU64::new(0)) }
        }
    }
}

/// Returns the gauge registered under `name`, creating it on first use.
///
/// If `name` is already registered as a different kind, the clash is
/// recorded (`obs.metrics.kind_clash` counter plus a warn event) and a
/// detached gauge is returned — live, but excluded from snapshots.
pub fn gauge(name: &'static str) -> Gauge {
    match register(name, || Metric::Gauge(Gauge { bits: Arc::new(AtomicU64::new(0)) })) {
        Metric::Gauge(g) => g,
        other => {
            kind_clash(name, other.kind(), "gauge");
            Gauge { bits: Arc::new(AtomicU64::new(0)) }
        }
    }
}

fn make_histogram(bounds: &[f64]) -> Histogram {
    let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
    Histogram {
        inner: Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }),
    }
}

/// Fallback bounds when a histogram is registered with an unusable bound
/// list: decade buckets wide enough for any duration-like metric.
const DEFAULT_BOUNDS: &[f64] = &[1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3];

/// Returns the histogram registered under `name`, creating it with the
/// given finite bucket upper bounds on first use (later registrations keep
/// the first bounds).
///
/// Bounds must be finite and strictly increasing; an unusable bound list
/// is replaced by decade buckets and recorded as a warn event rather than
/// panicking. A kind clash is handled like [`counter`]: recorded, and a
/// detached histogram is returned.
pub fn histogram(name: &'static str, bounds: &[f64]) -> Histogram {
    let usable = !bounds.is_empty()
        && bounds.windows(2).all(|w| w[0] < w[1])
        && bounds.iter().all(|b| b.is_finite());
    let made = register(name, || {
        if !usable {
            crate::event!(warn: "obs.metrics.bad_bounds", "name" => name);
        }
        Metric::Histogram(make_histogram(if usable { bounds } else { DEFAULT_BOUNDS }))
    });
    match made {
        Metric::Histogram(h) => h,
        other => {
            kind_clash(name, other.kind(), "histogram");
            make_histogram(if usable { bounds } else { DEFAULT_BOUNDS })
        }
    }
}

/// Point-in-time values of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries, last = overflow).
    pub(crate) buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// A point-in-time copy of the whole registry, in name order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values.
    pub(crate) gauges: Vec<(&'static str, f64)>,
    /// Histogram values.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

/// Takes a snapshot of every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = lock_registry();
    let mut snap = Snapshot::default();
    for (&name, m) in reg.iter() {
        match m {
            Metric::Counter(c) => snap.counters.push((name, c.get())),
            Metric::Gauge(g) => snap.gauges.push((name, g.get())),
            Metric::Histogram(h) => snap.histograms.push((
                name,
                HistogramSnapshot {
                    bounds: h.bounds().to_vec(),
                    buckets: h.bucket_counts(),
                    count: h.count(),
                    sum: h.sum(),
                },
            )),
        }
    }
    snap
}

impl Snapshot {
    /// Counter value by name (0 when absent — counters default to zero).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// Gauge value by name (`None` when never registered).
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Histogram values by name (`None` when never registered).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {}", json_escape(name), json_f64(*v)));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json_escape(name),
                h.count,
                json_f64(h.sum)
            ));
            for (j, &c) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let le = h.bounds.get(j).map_or("\"+inf\"".to_string(), |b| json_f64(*b));
                s.push_str(&format!("{{\"le\": {le}, \"count\": {c}}}"));
            }
            s.push_str("]}");
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Serializes the snapshot in the Prometheus text exposition format
    /// (v0.0.4): `# HELP` and `# TYPE` per family, sanitized names, and
    /// canonical cumulative `le` buckets ending in `+Inf`.
    pub(crate) fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let n = sanitize_metric_name(name);
            s.push_str(&format!("# HELP {n} {}\n", help_line(name, "counter")));
            s.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize_metric_name(name);
            s.push_str(&format!("# HELP {n} {}\n", help_line(name, "gauge")));
            s.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_f64(*v)));
        }
        for (name, h) in &self.histograms {
            let n = sanitize_metric_name(name);
            s.push_str(&format!("# HELP {n} {}\n", help_line(name, "histogram")));
            s.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (j, &c) in h.buckets.iter().enumerate() {
                cum += c;
                let le = h.bounds.get(j).map_or("+Inf".to_string(), |b| prom_le(*b));
                s.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            s.push_str(&format!("{n}_sum {}\n{n}_count {}\n", prom_f64(h.sum), h.count));
        }
        s
    }
}

/// Sanitizes a registry name into a legal Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. `.` and `-` (our namespace separators)
/// become `_`, as does any other illegal character; a leading digit gets
/// a `_` prefix. Idempotent: sanitizing a sanitized name is a no-op.
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphabetic() || c == '_' || c == ':' || c.is_ascii_digit();
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if legal { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Canonical `le` label value for a finite bucket bound: shortest-roundtrip
/// float formatting, with integral bounds keeping a `.0` so `1.0` and a
/// hypothetical integer-valued series stay distinct (matches the common
/// client-library convention).
fn prom_le(bound: f64) -> String {
    if bound == bound.trunc() && bound.abs() < 1e15 {
        format!("{bound:.1}")
    } else {
        format!("{bound}")
    }
}

/// Prometheus sample value formatting: `NaN`/`+Inf`/`-Inf` spellings for
/// non-finite values instead of JSON's `null`.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Registered help texts for `# HELP` lines, keyed by the *unsanitized*
/// registry name.
fn help_registry() -> &'static Mutex<BTreeMap<&'static str, &'static str>> {
    static REG: OnceLock<Mutex<BTreeMap<&'static str, &'static str>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Attaches a help text to `name`, shown as the `# HELP` line of the
/// Prometheus exposition. Last call wins; metrics without a
/// registered help fall back to a generic description.
pub fn describe(name: &'static str, help: &'static str) {
    help_registry().lock().unwrap_or_else(|p| p.into_inner()).insert(name, help);
}

/// The `# HELP` payload for `name`: the registered description (escaped
/// per the exposition format: `\` and newline) or a generic fallback.
fn help_line(name: &str, kind: &str) -> String {
    let reg = help_registry().lock().unwrap_or_else(|p| p.into_inner());
    match reg.get(name) {
        Some(help) => help.replace('\\', "\\\\").replace('\n', "\\n"),
        None => format!("arrow-obs {kind} {name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("test.metrics.counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        let g = gauge("test.metrics.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn same_name_returns_same_instance() {
        let a = counter("test.metrics.shared");
        let b = counter("test.metrics.shared");
        a.inc();
        b.inc();
        assert_eq!(a.get(), b.get());
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let c = counter("test.metrics.kind_clash");
        c.add(7);
        let clashes_before = snapshot().counter("obs.metrics.kind_clash");
        // Same name, wrong kind: no panic, a live-but-detached gauge.
        let g = gauge("test.metrics.kind_clash");
        g.set(3.25);
        assert_eq!(g.get(), 3.25, "detached handle still works locally");
        // The registry still holds the original counter, untouched.
        assert_eq!(snapshot().counter("test.metrics.kind_clash"), 7);
        assert_eq!(snapshot().gauge("test.metrics.kind_clash"), None);
        // And the clash itself was counted.
        assert_eq!(snapshot().counter("obs.metrics.kind_clash"), clashes_before + 1);
    }

    #[test]
    fn bad_histogram_bounds_fall_back_to_decades() {
        // Not strictly increasing: unusable, replaced by decade buckets.
        let h = histogram("test.metrics.bad_bounds", &[5.0, 1.0]);
        assert_eq!(h.bounds(), DEFAULT_BOUNDS);
        h.observe(0.5);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn concurrent_counter_updates_are_lossless() {
        let c = counter("test.metrics.concurrent_counter");
        let start = c.get();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - start, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn concurrent_histogram_updates_are_lossless() {
        let h = histogram("test.metrics.concurrent_hist", &[1.0, 2.0, 4.0, 8.0]);
        let (count0, sum0) = (h.count(), h.sum());
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic spread over all buckets incl. overflow.
                        h.observe(((t + i) % 10) as f64);
                    }
                });
            }
        });
        let observed = (THREADS * PER_THREAD) as u64;
        assert_eq!(h.count() - count0, observed);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
        // Sum is an exact integer total here, so float CAS must be lossless.
        let expected_sum: f64 =
            (0..THREADS).flat_map(|t| (0..PER_THREAD).map(move |i| ((t + i) % 10) as f64)).sum();
        assert!(
            ((h.sum() - sum0) - expected_sum).abs() < 1e-6,
            "sum {} vs expected {expected_sum}",
            h.sum() - sum0
        );
    }

    #[test]
    fn snapshot_serializes_both_formats() {
        counter("test.metrics.snap_counter").add(3);
        gauge("test.metrics.snap_gauge").set(1.25);
        histogram("test.metrics.snap_hist", &[0.5, 1.5]).observe(1.0);
        let snap = snapshot();
        assert!(snap.counter("test.metrics.snap_counter") >= 3);
        assert_eq!(snap.gauge("test.metrics.snap_gauge"), Some(1.25));
        assert!(snap.histogram("test.metrics.snap_hist").is_some_and(|h| h.count >= 1));
        let json = snap.to_json();
        assert!(json.contains("\"test.metrics.snap_counter\""));
        assert!(json.contains("\"le\": \"+inf\""));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE test_metrics_snap_counter counter"));
        assert!(prom.contains("test_metrics_snap_hist_bucket{le=\"+Inf\"}"));
        // Names are in deterministic lexicographic order.
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_end_at_inf() {
        let h = histogram("test.metrics.prom_hist", &[0.01, 0.1, 1.0, 10.0]);
        for v in [0.005, 0.05, 0.05, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        let prom = snapshot().to_prometheus();
        let buckets: Vec<(String, u64)> = prom
            .lines()
            .filter(|l| l.starts_with("test_metrics_prom_hist_bucket{"))
            .map(|l| {
                let le = l.split("le=\"").nth(1).and_then(|r| r.split('"').next());
                let count = l.rsplit(' ').next().and_then(|c| c.parse().ok());
                (le.expect("le label").to_string(), count.expect("bucket count"))
            })
            .collect();
        // One series per finite bound plus the terminal +Inf bucket.
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets.last().map(|(le, _)| le.as_str()), Some("+Inf"));
        // Canonical le formatting: shortest round-trip, integral keeps .0.
        let les: Vec<&str> = buckets.iter().map(|(le, _)| le.as_str()).collect();
        assert_eq!(les, ["0.01", "0.1", "1.0", "10.0", "+Inf"]);
        // Cumulative and monotone non-decreasing, +Inf equals _count.
        let counts: Vec<u64> = buckets.iter().map(|(_, c)| *c).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "not monotone: {counts:?}");
        assert_eq!(counts, [1, 3, 4, 5, 6]);
        assert!(prom.contains("test_metrics_prom_hist_count 6"));
    }

    #[test]
    fn prometheus_help_lines_precede_every_family() {
        describe("test.metrics.helped", "observed widget total");
        counter("test.metrics.helped").inc();
        counter("test.metrics.unhelped").inc();
        let prom = snapshot().to_prometheus();
        assert!(prom.contains("# HELP test_metrics_helped observed widget total\n"));
        // Undescribed metrics still get a generic HELP line.
        assert!(prom.contains("# HELP test_metrics_unhelped arrow-obs counter"));
        // HELP always directly precedes TYPE for the same family.
        for (i, line) in prom.lines().collect::<Vec<_>>().windows(2).enumerate() {
            let _ = i;
            if line[1].starts_with("# TYPE ") {
                let family = line[1].split_ascii_whitespace().nth(2).unwrap_or("");
                assert!(
                    line[0].starts_with(&format!("# HELP {family} ")),
                    "TYPE for {family} not preceded by its HELP: {:?}",
                    line
                );
            }
        }
    }

    #[test]
    fn metric_name_sanitization_round_trips() {
        assert_eq!(sanitize_metric_name("epoch.seconds"), "epoch_seconds");
        assert_eq!(sanitize_metric_name("lp.solve-batch.lanes"), "lp_solve_batch_lanes");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("weird name+unit"), "weird_name_unit");
        // Idempotent: a sanitized name survives a second pass unchanged.
        for name in ["epoch.seconds", "a-b.c", "9x", "ok_name:sub"] {
            let once = sanitize_metric_name(name);
            assert_eq!(sanitize_metric_name(&once), once, "not idempotent for {name:?}");
            // And is a legal Prometheus name.
            let mut chars = once.chars();
            let first = chars.next().expect("non-empty");
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
        }
    }

    #[test]
    fn prometheus_nonfinite_values_use_exposition_spellings() {
        gauge("test.metrics.inf_gauge").set(f64::INFINITY);
        let prom = snapshot().to_prometheus();
        assert!(prom.contains("test_metrics_inf_gauge +Inf"));
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
        gauge("test.metrics.inf_gauge").set(0.0);
    }
}
