//! Measurement plumbing shared by every workload: order statistics, the
//! benchmark-side span recorder, the per-layer ledger, the pass/fail
//! tally, and the process counters (`VmHWM`, CPU seconds) read from
//! `/proc`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::spec;

/// Independent sub-seed `stream` of the run's `--seed` (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(seed ^ mix(stream))
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates). Workloads
/// whose operations cost very different amounts take a fixed pool of
/// inputs in a seeded order: the seed decides what comes first, not how
/// much work a run holds.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (sub_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Median of `values` (mean of the two middle order statistics when the
/// count is even; 0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean (0.0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Exact small-sample percentile: the `ceil(q·n)`-th order statistic.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99/p95/p90/p75/p50 that still has at least ten samples
/// beyond it in a sample of `n` — the tail a sample of that size can
/// support. `None` below 20 samples.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50].into_iter().find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// First and third quartile by the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)`, which is what the acceptance
/// procedure in README.md prescribes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 among the 1-based order statistics.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0.0 for fewer than two
/// values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// Peak resident set of this process in MiB (`VmHWM`; 0.0 off Linux).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by every thread this process has
/// run, from `/proc/self/stat` (fields 14 and 15, in 10 ms `USER_HZ`
/// ticks; 0.0 off Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// Tally of checked operations. A run is `correct` when nothing failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong, missing or late.
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation; a failure is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// What one timed region measured.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Operations completed (scenarios, ticks, plays).
    pub ops: u64,
    /// Operations per wall-clock second: all operations over all the time
    /// spent inside them. (The reference machine's speed flips by 25 % every
    /// ten seconds or so; a total mixes the two states in proportion, where a
    /// median of per-call rates jumps from one to the other.)
    pub ops_per_s: f64,
    /// CPU seconds (all threads) spent inside the timed region.
    pub cpu_s: f64,
}

/// One recorded span. `parent` is the span that was open when this one
/// started; `op` numbers the operation (scenario, epoch, play) it belongs
/// to, so spans of one operation share an identifier.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The benchmark's own span recorder: spans are taken around calls into
/// the product's public functions, kept in memory, and written out when
/// the run ends. Disabled, [`Tracer::span`] only calls the closure, so the
/// untraced and traced runs execute the same benchmark code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span called `name` for operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, name, op, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every finished span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Share of the total duration of spans called `parent` that their
    /// direct children cover (1.0 when there is no such span). The
    /// recorder is single-threaded, so siblings never overlap and cover is
    /// the plain sum of child durations.
    pub fn cover_ratio(&self, parent: &str) -> f64 {
        let mut parent_ns = 0u64;
        let mut child_ns = 0u64;
        for s in self.spans.iter().filter(|s| s.name == parent) {
            parent_ns += s.end_ns - s.start_ns;
            child_ns += self.child_ns(s.id);
        }
        if parent_ns == 0 {
            1.0
        } else {
            child_ns as f64 / parent_ns as f64
        }
    }

    /// Self time of one span: its duration minus what its direct children
    /// cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns).saturating_sub(self.child_ns(id))
    }

    fn child_ns(&self, id: u32) -> u64 {
        // Children are recorded after their parent, so scan forward only.
        self.spans[id as usize + 1..]
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"op\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, workload, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The per-layer ledger of one traced run: metric name → value. Only
/// names declared in [`spec::PER_LAYER`] may be set; layers a workload
/// never enters stay at 0.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric {name} is not declared in spec::PER_LAYER"
        );
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, values printed with all their digits.
pub fn result_line(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(40), Some(75));
        assert_eq!(supported_percentile(99), Some(75));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(162), Some(90));
        assert_eq!(supported_percentile(200), Some(95));
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_self_time_and_cover() {
        let mut tr = Tracer::new(true);
        tr.span("parent", 7, |tr| {
            tr.span("child", 7, |_| std::thread::sleep(std::time::Duration::from_millis(4)));
            tr.span("child", 7, |tr| {
                tr.span("grandchild", 7, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        // Only direct children count toward the parent's cover.
        let children =
            (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        let parent = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(tr.self_ns(0), parent - children);
        assert!((tr.cover_ratio("parent") - children as f64 / parent as f64).abs() < 1e-12);
        assert!(tr.cover_ratio("parent") > 0.5 && tr.cover_ratio("parent") <= 1.0);
        assert_eq!(tr.cover_ratio("absent"), 1.0);
        assert_eq!(tr.self_ns(3), spans[3].end_ns - spans[3].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, |_| 41 + 1), 42);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn seeds_give_streams_and_orders() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(9, 3), sub_seed(9, 3));
        let order = seeded_order(16, 5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(order, seeded_order(16, 5));
        assert_ne!(order, seeded_order(16, 6));
        assert!(seeded_order(0, 1).is_empty());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let checks = Checks { attempted: 3, failed: 0 };
        let line = result_line(&checks, &[("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
