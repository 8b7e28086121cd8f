//! Process-global metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! Metrics are **always on**. Each metric is one `static`, declared where
//! it is emitted, with its exported name and its `# HELP` text:
//!
//! ```
//! use arrow_obs::Counter;
//! static SOLVES: Counter = Counter::new("doc.metrics.solves", "LP solves completed");
//! SOLVES.inc();
//! assert_eq!(arrow_obs::metrics::snapshot().counter("doc.metrics.solves"), 1);
//! ```
//!
//! The static holds its atomics inline and adds itself to the registry on
//! its first update, so a family appears in snapshots once it has been
//! touched. After that an update is a relaxed atomic operation plus one
//! check of a completed `Once`, with no lock — cheap enough for per-solve
//! and per-event bookkeeping (per-pivot hot loops should accumulate
//! locally and record once per solve, which is what `arrow-lp` does).
//! A [`Histogram`]'s bucket ladder is checked when its declaration is
//! evaluated, so a bad one fails to compile. A name declared twice keeps
//! its first declaration; the clash is a warn event and the
//! `obs.metrics.kind_clash` counter, never a panic.
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
use std::sync::{Mutex, MutexGuard, Once};

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

/// What every declaration carries besides its atomics: the name it is
/// exported under, its `# HELP` text, and whether it is in the registry.
struct Decl {
    name: &'static str,
    help: &'static str,
    registered: Once,
}

impl Decl {
    /// Checks `name`: lowercase letters, digits, `_` and the namespace
    /// separator `.`, starting with a letter. With `.` read as `_` that
    /// is a legal Prometheus name, so in a `static` an illegal one fails
    /// to compile.
    const fn new(name: &'static str, help: &'static str) -> Self {
        let b = name.as_bytes();
        assert!(!b.is_empty() && b[0].is_ascii_lowercase(), "metric names start with a-z");
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            assert!(
                c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_' || c == b'.',
                "metric names are a-z, 0-9, _ and ."
            );
            i += 1;
        }
        Decl { name, help, registered: Once::new() }
    }

    /// Adds the metric to the registry on its first update. Every later
    /// update pays one check of a `Once` that has already completed.
    fn enlist(&self, metric: impl FnOnce() -> Metric) {
        self.registered.call_once(|| register(metric()));
    }
}

/// A monotonically increasing `u64` counter, declared as a `static` where
/// it is emitted.
///
/// A name is lowercase letters, digits, `_` and `.`, so this does not
/// compile:
///
/// ```compile_fail
/// use arrow_obs::Counter;
/// static BAD: Counter = Counter::new("Bad-name", "not a Prometheus name");
/// ```
pub struct Counter {
    decl: Decl,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter exported as `name`, with `help` as its `# HELP`.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter { decl: Decl::new(name, help), value: AtomicU64::new(0) }
    }

    /// Increments by one.
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&'static self, n: u64) {
        self.decl.enlist(|| Metric::Counter(self));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (last write wins), declared as a `static` where
/// it is emitted.
pub struct Gauge {
    decl: Decl,
    bits: AtomicU64,
}

impl Gauge {
    /// Declares a gauge exported as `name`, with `help` as its `# HELP`.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge { decl: Decl::new(name, help), bits: AtomicU64::new(0) }
    }

    /// Sets the gauge to `v`.
    pub fn set(&'static self, v: f64) {
        self.decl.enlist(|| Metric::Gauge(self));
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Most finite bucket bounds a histogram may declare; the overflow bucket
/// takes the slot after the last one.
const MAX_BOUNDS: usize = 15;

/// A fixed-bucket histogram, declared as a `static` where it is emitted:
/// observations land in the first bucket whose upper bound is `>= value`,
/// or in the implicit overflow bucket.
///
/// The bounds are checked when the declaration is evaluated, so in a
/// `static` a bad ladder is a compile error:
///
/// ```compile_fail
/// use arrow_obs::Histogram;
/// static BAD: Histogram = Histogram::new("doc.bad", "not increasing", &[5.0, 1.0]);
/// ```
pub struct Histogram {
    decl: Decl,
    /// Finite bucket upper bounds, strictly increasing.
    bounds: &'static [f64],
    /// Per-bucket observation counts; the first `bounds.len() + 1` are used.
    buckets: [AtomicU64; MAX_BOUNDS + 1],
    /// Total observations.
    count: AtomicU64,
    /// Sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Declares a histogram exported as `name`, with `help` as its
    /// `# HELP` and `bounds` as its finite bucket upper bounds: between 1
    /// and 15 of them, finite and strictly increasing.
    pub const fn new(name: &'static str, help: &'static str, bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty() && bounds.len() <= MAX_BOUNDS, "1 to 15 bucket bounds");
        let mut i = 0;
        while i < bounds.len() {
            assert!(bounds[i].is_finite(), "bucket bounds must be finite");
            assert!(i == 0 || bounds[i - 1] < bounds[i], "bucket bounds must increase");
            i += 1;
        }
        Histogram {
            decl: Decl::new(name, help),
            bounds,
            buckets: [const { AtomicU64::new(0) }; MAX_BOUNDS + 1],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&'static self, v: f64) {
        self.decl.enlist(|| Metric::Histogram(self));
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        f64_add(&self.sum_bits, v);
    }

    /// The current values.
    fn read(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets[..=self.bounds.len()]
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// One registered declaration.
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn decl(self) -> &'static Decl {
        match self {
            Metric::Counter(c) => &c.decl,
            Metric::Gauge(g) => &g.decl,
            Metric::Histogram(h) => &h.decl,
        }
    }
}

/// Every declaration updated so far, by name. `BTreeMap` keeps snapshots
/// in deterministic (lexicographic) order — the same hash-order discipline
/// the offline stage follows (see DESIGN.md).
static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

/// Locks the registry, recovering from poisoning: every mutation is one
/// `insert`, so a panic elsewhere must not take the telemetry plane down
/// with it.
fn lock_registry() -> MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counts declarations whose name another declaration already holds.
static NAME_CLASHES: Counter =
    Counter::new("obs.metrics.kind_clash", "metric declarations whose name was taken");

/// Adds `metric` under its name. Telemetry must never panic the process it
/// observes, so a name that is already taken keeps its first declaration
/// and the clash is recorded (warn event + counter): the second
/// declaration still accepts updates, but snapshots never show them.
fn register(metric: Metric) {
    let name = metric.decl().name;
    let held = lock_registry().entry(name).or_insert(metric).decl();
    if std::ptr::eq(held, metric.decl()) {
        return;
    }
    // The clash counter's own first update may be the clash.
    if name != NAME_CLASHES.decl.name {
        NAME_CLASHES.inc();
    }
    crate::event!(warn: "obs.metrics.kind_clash", "name" => name);
}

/// Point-in-time values of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (`bounds.len() + 1` entries, last = overflow).
    pub(crate) buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub(crate) sum: f64,
}

/// A point-in-time copy of the whole registry, in name order. Each value
/// sits beside the declaration it was read from.
#[derive(Default)]
pub struct Snapshot {
    counters: Vec<(&'static Counter, u64)>,
    gauges: Vec<(&'static Gauge, f64)>,
    histograms: Vec<(&'static Histogram, HistogramSnapshot)>,
}

/// Takes a snapshot of every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = lock_registry();
    let mut snap = Snapshot::default();
    for &m in reg.values() {
        match m {
            Metric::Counter(c) => snap.counters.push((c, c.get())),
            Metric::Gauge(g) => snap.gauges.push((g, g.get())),
            Metric::Histogram(h) => snap.histograms.push((h, h.read())),
        }
    }
    snap
}

impl Snapshot {
    /// Counter value by name (0 when absent — counters default to zero).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(c, _)| c.decl.name == name).map_or(0, |(_, v)| *v)
    }

    /// Gauge value by name (`None` when never set).
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(g, _)| g.decl.name == name).map(|(_, v)| *v)
    }

    /// Histogram values by name (`None` when never observed).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(h, _)| h.decl.name == name).map(|(_, h)| h)
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub(crate) fn to_json(&self) -> String {
        let counters = self.counters.iter().map(|(c, v)| (c.decl.name, v.to_string()));
        let gauges = self.gauges.iter().map(|(g, v)| (g.decl.name, json_f64(*v)));
        let histograms = self.histograms.iter().map(|(hist, h)| {
            let buckets: Vec<String> = (h.buckets.iter().enumerate())
                .map(|(j, c)| {
                    let le = hist.bounds.get(j).map_or("\"+inf\"".to_string(), |b| json_f64(*b));
                    format!("{{\"le\": {le}, \"count\": {c}}}")
                })
                .collect();
            let (count, sum, buckets) = (h.count, json_f64(h.sum), buckets.join(", "));
            (
                hist.decl.name,
                format!("{{\"count\": {count}, \"sum\": {sum}, \"buckets\": [{buckets}]}}"),
            )
        });
        format!(
            "{{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}}\n",
            json_members(counters),
            json_members(gauges),
            json_members(histograms)
        )
    }

    /// Serializes the snapshot in the Prometheus text exposition format
    /// (v0.0.4): `# HELP` and `# TYPE` per family, names with `.` as `_`, and
    /// canonical cumulative `le` buckets ending in `+Inf`.
    pub(crate) fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (c, v) in &self.counters {
            let n = family_header(&mut s, &c.decl, "counter");
            s.push_str(&format!("{n} {v}\n"));
        }
        for (g, v) in &self.gauges {
            let n = family_header(&mut s, &g.decl, "gauge");
            s.push_str(&format!("{n} {}\n", prom_f64(*v)));
        }
        for (hist, h) in &self.histograms {
            let n = family_header(&mut s, &hist.decl, "histogram");
            let mut cum = 0u64;
            for (j, &c) in h.buckets.iter().enumerate() {
                cum += c;
                let le = hist.bounds.get(j).map_or("+Inf".to_string(), |b| prom_le(*b));
                s.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            s.push_str(&format!("{n}_sum {}\n{n}_count {}\n", prom_f64(h.sum), h.count));
        }
        s
    }
}

/// One object of the JSON snapshot, a member per line: `name: value`.
fn json_members(members: impl Iterator<Item = (&'static str, String)>) -> String {
    let lines: Vec<String> =
        members.map(|(name, v)| format!("\n    \"{}\": {v}", json_escape(name))).collect();
    format!("{{{}\n  }}", lines.join(","))
}

/// Writes a family's `# HELP` (the declared text, escaped per the
/// exposition format: `\` and newline) and `# TYPE` lines, and returns
/// its exported name (`.` read as `_`).
fn family_header(s: &mut String, decl: &Decl, kind: &str) -> String {
    let n = decl.name.replace('.', "_");
    let help = decl.help.replace('\\', "\\\\").replace('\n', "\\n");
    s.push_str(&format!("# HELP {n} {help}\n# TYPE {n} {kind}\n"));
    n
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_declared_twice_is_recorded_once() {
        static FIRST: Counter = Counter::new("test.metrics.twice", "first declaration");
        static SECOND: Gauge = Gauge::new("test.metrics.twice", "second declaration");
        static THIRD: Counter = Counter::new("test.metrics.twice", "third declaration");
        FIRST.add(7);
        let clashes_before = snapshot().counter("obs.metrics.kind_clash");
        // Same name, another kind and the same kind: no panic, and each
        // late declaration still accepts updates locally.
        SECOND.set(3.25);
        THIRD.add(2);
        assert_eq!((SECOND.get(), THIRD.get()), (3.25, 2));
        // The registry holds the first declaration alone, untouched.
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.twice"), 7);
        assert_eq!(snap.gauge("test.metrics.twice"), None);
        let help = snap.to_prometheus();
        assert_eq!(help.matches("# HELP test_metrics_twice ").count(), 1);
        assert!(help.contains("# HELP test_metrics_twice first declaration\n"));
        // And each clash was counted.
        assert!(snap.counter("obs.metrics.kind_clash") >= clashes_before + 2);
    }

    #[test]
    fn concurrent_counter_updates_are_lossless() {
        static C: Counter = Counter::new("test.metrics.concurrent_counter", "test counter");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn concurrent_histogram_updates_are_lossless() {
        static H: Histogram =
            Histogram::new("test.metrics.concurrent_hist", "test histogram", &[1.0, 2.0, 4.0, 8.0]);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic spread over all buckets incl. overflow.
                        H.observe(((t + i) % 10) as f64);
                    }
                });
            }
        });
        let h = H.read();
        assert_eq!(h.count, (THREADS * PER_THREAD) as u64);
        assert_eq!(h.buckets.len(), 5);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        // Sum is an exact integer total here, so float CAS must be lossless.
        let expected_sum: f64 =
            (0..THREADS).flat_map(|t| (0..PER_THREAD).map(move |i| ((t + i) % 10) as f64)).sum();
        assert!((h.sum - expected_sum).abs() < 1e-6, "sum {} vs expected {expected_sum}", h.sum);
    }

    #[test]
    fn snapshot_serializes_both_formats() {
        static C: Counter = Counter::new("test.metrics.snap_counter", "test counter");
        static G: Gauge = Gauge::new("test.metrics.snap_gauge", "test gauge");
        static H: Histogram =
            Histogram::new("test.metrics.snap_hist", "test histogram", &[0.5, 1.5]);
        static IDLE: Counter = Counter::new("test.metrics.idle", "never updated");
        C.inc();
        C.add(2);
        G.set(f64::INFINITY);
        H.observe(1.0);
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.snap_counter"), 3);
        assert_eq!(snap.gauge("test.metrics.snap_gauge"), Some(f64::INFINITY));
        assert_eq!(snap.histogram("test.metrics.snap_hist").map(|h| h.count), Some(1));
        // A declaration enters the registry on its first update.
        assert!(snap.counters.iter().all(|(c, _)| c.decl.name != IDLE.decl.name));
        let json = snap.to_json();
        assert!(json.contains("\"test.metrics.snap_counter\": 3"));
        assert!(json.contains("\"le\": \"+inf\""));
        let prom = snap.to_prometheus();
        assert!(prom
            .contains("# TYPE test_metrics_snap_counter counter\ntest_metrics_snap_counter 3\n"));
        assert!(prom.contains("test_metrics_snap_hist_bucket{le=\"+Inf\"}"));
        // Non-finite values use the exposition's spellings.
        assert!(prom.contains("test_metrics_snap_gauge +Inf"));
        assert_eq!([prom_f64(f64::NAN), prom_f64(f64::NEG_INFINITY)], ["NaN", "-Inf"]);
        // Names are in deterministic lexicographic order.
        assert!(snap.counters.iter().map(|(c, _)| c.decl.name).is_sorted());
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_end_at_inf() {
        static H: Histogram =
            Histogram::new("test.metrics.prom_hist", "test histogram", &[0.01, 0.1, 1.0, 10.0]);
        for v in [0.005, 0.05, 0.05, 0.5, 5.0, 50.0] {
            H.observe(v);
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
        static HELPED: Counter = Counter::new("test.metrics.helped", "observed widget total");
        static ESCAPED: Gauge = Gauge::new("test.metrics.escaped", "a \\ b\nc");
        HELPED.inc();
        ESCAPED.set(1.0);
        let prom = snapshot().to_prometheus();
        // The declared text, `\` and newline escaped per the exposition.
        assert!(prom.contains("# HELP test_metrics_helped observed widget total\n"));
        assert!(prom.contains("# HELP test_metrics_escaped a \\\\ b\\nc\n"));
        // HELP always directly precedes TYPE for the same family.
        let lines: Vec<&str> = prom.lines().collect();
        for pair in lines.windows(2).filter(|p| p[1].starts_with("# TYPE ")) {
            let family = pair[1].split(' ').nth(2).unwrap_or("");
            assert!(pair[0].starts_with(&format!("# HELP {family} ")), "{pair:?}");
        }
    }
}
