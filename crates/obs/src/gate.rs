//! The bench regression gate: diff fresh `BENCH_*.json` artifacts against
//! a committed baseline, with noise-aware thresholds and a ratchet.
//!
//! The sweeps (`online_sweep`, `scenario_sweep`, `observe_pipeline`)
//! already measure the things the ROADMAP cares about — warm-start
//! speedup, pipeline throughput, determinism digests — but until now
//! nothing *compared* a fresh run against the last accepted one, so a
//! perf regression only surfaced when a human read the artifact. The gate
//! closes that loop:
//!
//! * a **baseline** is a flat JSON object mapping
//!   `FILE:json.path` → scalar, committed under `baselines/`;
//! * [`run`] re-extracts the tracked metrics from the current artifacts
//!   and compares each against its baseline under the metric's
//!   [`Direction`] and relative tolerance (the noise allowance — wall
//!   clocks get a loose one, machine-independent ratios a tight one,
//!   determinism digests none);
//! * in [`GateMode::Update`] the baseline is **ratcheted**: improvements
//!   tighten it (a higher-is-better metric only ever moves up), equality
//!   metrics follow the current value, and new metrics are adopted —
//!   regressions never loosen a baseline silently;
//! * the result is a [`GateReport`] (JSON-serializable for the CI
//!   artifact) whose [`GateReport::failed`] drives the exit code of the
//!   `arrow-bench-gate` binary.
//!
//! Metric *paths* support `[*]` wildcards over arrays
//! (`topologies[*].tickets_kept`), so the spec list stays stable as sweeps
//! add topologies.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (speedups, throughput). Regression = current
    /// below `baseline * (1 - tolerance)`.
    HigherIsBetter,
    /// Smaller is better (wall clocks). Regression = current above
    /// `baseline * (1 + tolerance)`.
    LowerIsBetter,
    /// Exact equality (digests, boolean invariants). Any difference is a
    /// regression; tolerance is ignored.
    Equal,
}

impl Direction {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher",
            Direction::LowerIsBetter => "lower",
            Direction::Equal => "equal",
        }
    }
}

/// One tracked metric family: a file, a path pattern (with optional `[*]`
/// wildcards), a direction, and a relative noise tolerance.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Artifact file name, relative to the artifact directory.
    pub file: &'static str,
    /// Dotted path pattern into the artifact (e.g.
    /// `topologies[*].tickets_kept`).
    pub path: &'static str,
    /// How to judge baseline vs current.
    pub direction: Direction,
    /// Allowed relative slack before a difference counts as a regression
    /// (0.25 = fail only beyond 25% worse than baseline).
    pub tolerance: f64,
}

/// The default tracked-metric set for this repo's three bench artifacts.
///
/// Tolerances follow the noise profile: machine-independent *ratios*
/// (warm-vs-cold) get 0.35; raw wall clocks and throughput numbers depend
/// on the machine running the sweep, so they only trip on
/// near-order-of-magnitude collapses (0.75 relative for throughput, 2.0
/// for wall clocks); determinism digests and boolean invariants get exact
/// equality — any drift is a regression.
pub fn default_specs() -> Vec<MetricSpec> {
    use Direction::*;
    let spec = |file, path, direction, tolerance| MetricSpec { file, path, direction, tolerance };
    vec![
        // online_sweep: the warm-start speedup and its correctness bits.
        spec("BENCH_online.json", "speedup", HigherIsBetter, 0.35),
        spec("BENCH_online.json", "objectives_match", Equal, 0.0),
        spec("BENCH_online.json", "winning_identical", Equal, 0.0),
        spec("BENCH_online.json", "warm_wall_seconds", LowerIsBetter, 2.0),
        // scenario_sweep → BENCH_scenarios.json: determinism + throughput.
        spec("BENCH_scenarios.json", "topologies[*].ticket_set_digest", Equal, 0.0),
        spec("BENCH_scenarios.json", "topologies[*].serial_oracle_equal", Equal, 0.0),
        spec("BENCH_scenarios.json", "topologies[*].universe_digest", Equal, 0.0),
        spec("BENCH_scenarios.json", "topologies[*].tickets_kept", Equal, 0.0),
        spec(
            "BENCH_scenarios.json",
            "topologies[*].generation_scenarios_per_sec",
            HigherIsBetter,
            0.75,
        ),
        // serve_soak → BENCH_serve.json: the controller daemon under chaos.
        // Ratios are machine-independent; the fallback rate is a ceiling
        // (every chaos burst forces exactly one fallback, so growth means
        // ordinary epochs started missing the deadline too).
        spec("BENCH_serve.json", "warm_hit_ratio", HigherIsBetter, 0.05),
        spec("BENCH_serve.json", "fallback_rate", LowerIsBetter, 1.0),
        spec("BENCH_serve.json", "epochs_per_sec", HigherIsBetter, 0.75),
        spec("BENCH_serve.json", "p99_epoch_seconds", LowerIsBetter, 2.0),
        spec("BENCH_serve.json", "incidents_complete", Equal, 0.0),
    ]
}

/// Check (read-only) or update (ratchet the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Compare only; the baseline file is not written.
    Check,
    /// Compare, then write the ratcheted baseline back.
    Update,
}

/// Verdict for one concrete metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricStatus {
    /// Within tolerance of the baseline (or an exact match).
    Ok,
    /// Better than baseline beyond noise; `Update` ratchets to it.
    Improved,
    /// Worse than baseline beyond tolerance — fails the gate.
    Regressed,
    /// Present in the artifact but not in the baseline (adopted on
    /// `Update`; informational on `Check`).
    New,
    /// Present in the baseline but missing from the artifact — fails the
    /// gate (a silently vanished metric is a regression in coverage).
    Missing,
}

impl MetricStatus {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MetricStatus::Ok => "ok",
            MetricStatus::Improved => "improved",
            MetricStatus::Regressed => "REGRESSED",
            MetricStatus::New => "new",
            MetricStatus::Missing => "MISSING",
        }
    }
}

/// One row of the gate report.
#[derive(Debug, Clone)]
pub struct GateEntry {
    /// `FILE:concrete.path` key, the baseline's key space.
    pub key: String,
    /// Judgement direction.
    pub direction: Direction,
    /// Tolerance applied.
    pub tolerance: f64,
    /// Baseline value, if one existed.
    pub baseline: Option<Json>,
    /// Current value, if present in the artifact.
    pub current: Option<Json>,
    /// Relative change for numeric metrics (`current/baseline - 1`).
    pub rel_change: Option<f64>,
    /// Verdict.
    pub status: MetricStatus,
}

/// The full gate outcome.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// One entry per concrete metric, in key order.
    pub entries: Vec<GateEntry>,
    /// Artifact files that could not be read or parsed.
    pub file_errors: Vec<String>,
}

impl GateReport {
    /// True when any metric regressed or went missing, or any artifact
    /// failed to load.
    pub fn failed(&self) -> bool {
        !self.file_errors.is_empty()
            || self
                .entries
                .iter()
                .any(|e| matches!(e.status, MetricStatus::Regressed | MetricStatus::Missing))
    }

    /// Counts by status: `(ok, improved, regressed, new, missing)`.
    pub fn tally(&self) -> (usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0);
        for e in &self.entries {
            match e.status {
                MetricStatus::Ok => t.0 += 1,
                MetricStatus::Improved => t.1 += 1,
                MetricStatus::Regressed => t.2 += 1,
                MetricStatus::New => t.3 += 1,
                MetricStatus::Missing => t.4 += 1,
            }
        }
        t
    }

    /// Serializes the report as pretty JSON (the CI artifact).
    pub fn to_json(&self) -> String {
        let (ok, improved, regressed, new, missing) = self.tally();
        let mut out = format!(
            "{{\n  \"failed\": {},\n  \"ok\": {ok},\n  \"improved\": {improved},\n  \
             \"regressed\": {regressed},\n  \"new\": {new},\n  \"missing\": {missing},\n  \
             \"file_errors\": [",
            self.failed()
        );
        for (i, err) in self.file_errors.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", crate::metrics::json_escape(err)));
        }
        out.push_str("],\n  \"metrics\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"key\": \"{}\", \"status\": \"{}\", \"direction\": \"{}\", \
                 \"tolerance\": {}, \"baseline\": {}, \"current\": {}, \"rel_change\": {}}}{}\n",
                crate::metrics::json_escape(&e.key),
                e.status.label(),
                e.direction.label(),
                crate::metrics::json_f64(e.tolerance),
                e.baseline.as_ref().map_or("null".to_string(), Json::to_compact),
                e.current.as_ref().map_or("null".to_string(), Json::to_compact),
                e.rel_change.map_or("null".to_string(), crate::metrics::json_f64),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A compact human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for err in &self.file_errors {
            out.push_str(&format!("!! {err}\n"));
        }
        for e in &self.entries {
            let change = e.rel_change.map_or(String::new(), |r| {
                format!(" ({}{:.1}%)", if r >= 0.0 { "+" } else { "" }, 100.0 * r)
            });
            out.push_str(&format!(
                "{:<9} {:<60} baseline {} -> current {}{}\n",
                e.status.label(),
                e.key,
                e.baseline.as_ref().map_or("-".to_string(), Json::to_compact),
                e.current.as_ref().map_or("-".to_string(), Json::to_compact),
                change
            ));
        }
        let (ok, improved, regressed, new, missing) = self.tally();
        out.push_str(&format!(
            "gate: {ok} ok, {improved} improved, {regressed} regressed, {new} new, \
             {missing} missing -> {}\n",
            if self.failed() { "FAIL" } else { "PASS" }
        ));
        out
    }
}

/// Why the gate itself (not a metric) failed.
#[derive(Debug)]
pub enum GateError {
    /// The baseline file exists but could not be read or parsed.
    BadBaseline(String),
    /// The ratcheted baseline could not be written (`Update` mode).
    WriteFailed(String),
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::BadBaseline(e) => write!(f, "baseline unusable: {e}"),
            GateError::WriteFailed(e) => write!(f, "could not write baseline: {e}"),
        }
    }
}

impl std::error::Error for GateError {}

/// Expands one path pattern against a document: every `[*]` fans out over
/// the array at that point. Returns `(concrete path, value)` pairs.
fn resolve<'a>(doc: &'a Json, pattern: &str) -> Vec<(String, &'a Json)> {
    let mut frontier: Vec<(String, &Json)> = vec![(String::new(), doc)];
    for segment in pattern.split('.') {
        let (member, indices) = match segment.find('[') {
            Some(b) => (&segment[..b], &segment[b..]),
            None => (segment, ""),
        };
        if !member.is_empty() {
            frontier = frontier
                .into_iter()
                .filter_map(|(p, v)| {
                    v.get(member).map(|child| {
                        (
                            if p.is_empty() { member.to_string() } else { format!("{p}.{member}") },
                            child,
                        )
                    })
                })
                .collect();
        }
        // Apply each `[...]` selector in order: `[*]` fans out, `[k]` indexes.
        for idx in indices.split('[').filter(|s| !s.is_empty()) {
            let idx = idx.trim_end_matches(']');
            if idx == "*" {
                frontier = frontier
                    .into_iter()
                    .flat_map(|(p, v)| {
                        v.as_arr()
                            .unwrap_or(&[])
                            .iter()
                            .enumerate()
                            .map(move |(i, child)| (format!("{p}[{i}]"), child))
                            .collect::<Vec<_>>()
                    })
                    .collect();
            } else if let Ok(i) = idx.parse::<usize>() {
                frontier = frontier
                    .into_iter()
                    .filter_map(|(p, v)| v.at(i).map(|child| (format!("{p}[{i}]"), child)))
                    .collect();
            } else {
                return Vec::new();
            }
        }
    }
    frontier
}

/// Judges `current` against `baseline` under `direction`/`tolerance`.
fn judge(
    baseline: &Json,
    current: &Json,
    direction: Direction,
    tolerance: f64,
) -> (MetricStatus, Option<f64>) {
    match direction {
        Direction::Equal => {
            let status =
                if baseline == current { MetricStatus::Ok } else { MetricStatus::Regressed };
            (status, None)
        }
        Direction::HigherIsBetter | Direction::LowerIsBetter => {
            let (Some(b), Some(c)) = (baseline.as_f64(), current.as_f64()) else {
                // Type drift (number became a string, …) is a regression.
                return (MetricStatus::Regressed, None);
            };
            if !b.is_finite() || !c.is_finite() {
                return (MetricStatus::Regressed, None);
            }
            let rel = if b.abs() > 0.0 { c / b - 1.0 } else { c - b };
            let (worse, better) = match direction {
                Direction::HigherIsBetter => (rel < -tolerance, rel > 0.0),
                _ => (rel > tolerance, rel < 0.0),
            };
            let status = if worse {
                MetricStatus::Regressed
            } else if better {
                MetricStatus::Improved
            } else {
                MetricStatus::Ok
            };
            (status, Some(rel))
        }
    }
}

fn load_baseline(path: &Path) -> Result<BTreeMap<String, Json>, GateError> {
    if !path.exists() {
        return Ok(BTreeMap::new());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| GateError::BadBaseline(format!("{}: {e}", path.display())))?;
    let doc = json::parse(&text)
        .map_err(|e| GateError::BadBaseline(format!("{}: {e}", path.display())))?;
    let members = doc
        .as_obj()
        .ok_or_else(|| GateError::BadBaseline(format!("{}: not a JSON object", path.display())))?;
    Ok(members.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
}

fn write_baseline(path: &Path, baseline: &BTreeMap<String, Json>) -> Result<(), GateError> {
    let mut out = String::from("{\n");
    for (i, (k, v)) in baseline.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {}{}\n",
            crate::metrics::json_escape(k),
            v.to_compact(),
            if i + 1 < baseline.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| GateError::WriteFailed(format!("{}: {e}", parent.display())))?;
        }
    }
    std::fs::write(path, out)
        .map_err(|e| GateError::WriteFailed(format!("{}: {e}", path.display())))
}

/// Runs the gate: extracts every concrete metric named by `specs` from
/// the artifacts in `artifact_dir`, compares against the baseline at
/// `baseline_path`, and (in [`GateMode::Update`]) writes the ratcheted
/// baseline back.
pub fn run(
    artifact_dir: &Path,
    baseline_path: &Path,
    specs: &[MetricSpec],
    mode: GateMode,
) -> Result<GateReport, GateError> {
    let mut baseline = load_baseline(baseline_path)?;
    let mut report = GateReport::default();
    let mut seen_keys: Vec<String> = Vec::new();

    // Parse each artifact once.
    let mut docs: BTreeMap<&str, Option<Json>> = BTreeMap::new();
    for spec in specs {
        if docs.contains_key(spec.file) {
            continue;
        }
        let path = artifact_dir.join(spec.file);
        let doc = match std::fs::read_to_string(&path) {
            Ok(text) => match json::parse(&text) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    report.file_errors.push(format!("{}: {e}", spec.file));
                    None
                }
            },
            Err(e) => {
                report.file_errors.push(format!("{}: {e}", spec.file));
                None
            }
        };
        docs.insert(spec.file, doc);
    }

    for spec in specs {
        let Some(Some(doc)) = docs.get(spec.file) else { continue };
        let resolved = resolve(doc, spec.path);
        // Baseline keys this spec owns (for Missing detection): anything
        // under the same file whose path matches the pattern with `[*]`
        // treated as any index.
        let matcher = PatternMatcher::new(spec.file, spec.path);
        let mut current_keys: Vec<String> = Vec::new();
        for (concrete, value) in resolved {
            let key = format!("{}:{}", spec.file, concrete);
            current_keys.push(key.clone());
            seen_keys.push(key.clone());
            let entry = match baseline.get(&key) {
                Some(base) => {
                    let (status, rel_change) = judge(base, value, spec.direction, spec.tolerance);
                    GateEntry {
                        key,
                        direction: spec.direction,
                        tolerance: spec.tolerance,
                        baseline: Some(base.clone()),
                        current: Some(value.clone()),
                        rel_change,
                        status,
                    }
                }
                None => GateEntry {
                    key,
                    direction: spec.direction,
                    tolerance: spec.tolerance,
                    baseline: None,
                    current: Some(value.clone()),
                    rel_change: None,
                    status: MetricStatus::New,
                },
            };
            report.entries.push(entry);
        }
        for key in baseline.keys() {
            if matcher.matches(key) && !current_keys.contains(key) {
                report.entries.push(GateEntry {
                    key: key.clone(),
                    direction: spec.direction,
                    tolerance: spec.tolerance,
                    baseline: baseline.get(key).cloned(),
                    current: None,
                    rel_change: None,
                    status: MetricStatus::Missing,
                });
            }
        }
    }
    report.entries.sort_by(|a, b| a.key.cmp(&b.key));

    if mode == GateMode::Update {
        for entry in &report.entries {
            let Some(current) = &entry.current else { continue };
            let ratcheted = match (entry.status, entry.direction, &entry.baseline) {
                // Adopt new metrics and follow equality metrics.
                (MetricStatus::New, _, _) | (_, Direction::Equal, _) => current.clone(),
                // Ratchet: only ever tighten toward the better value.
                (MetricStatus::Improved, _, _) => current.clone(),
                (_, _, Some(base)) => base.clone(),
                (_, _, None) => current.clone(),
            };
            baseline.insert(entry.key.clone(), ratcheted);
        }
        write_baseline(baseline_path, &baseline)?;
    }
    Ok(report)
}

/// Matches baseline keys (`FILE:a.b[3].c`) against a spec pattern
/// (`FILE:a.b[*].c`), where `[*]` stands for any single index.
struct PatternMatcher {
    prefix_parts: Vec<String>,
}

impl PatternMatcher {
    fn new(file: &str, pattern: &str) -> PatternMatcher {
        PatternMatcher {
            prefix_parts: format!("{file}:{pattern}").split("[*]").map(String::from).collect(),
        }
    }

    fn matches(&self, key: &str) -> bool {
        let mut rest = key;
        for (i, part) in self.prefix_parts.iter().enumerate() {
            if i == 0 {
                match rest.strip_prefix(part.as_str()) {
                    Some(r) => rest = r,
                    None => return false,
                }
                continue;
            }
            // Between parts sits a concrete `[idx]`.
            let Some(after_bracket) = rest.strip_prefix('[') else { return false };
            let Some(close) = after_bracket.find(']') else { return false };
            if !after_bracket[..close].bytes().all(|b| b.is_ascii_digit()) {
                return false;
            }
            rest = &after_bracket[close + 1..];
            match rest.strip_prefix(part.as_str()) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        rest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arrow_gate_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn specs() -> Vec<MetricSpec> {
        vec![
            MetricSpec {
                file: "BENCH_fake.json",
                path: "panel[*].speedup",
                direction: Direction::HigherIsBetter,
                tolerance: 0.25,
            },
            MetricSpec {
                file: "BENCH_fake.json",
                path: "digest",
                direction: Direction::Equal,
                tolerance: 0.0,
            },
        ]
    }

    fn write_artifact(dir: &Path, speedups: &[f64], digest: &str) {
        let panel: Vec<String> = speedups.iter().map(|s| format!("{{\"speedup\": {s}}}")).collect();
        std::fs::write(
            dir.join("BENCH_fake.json"),
            format!("{{\"panel\": [{}], \"digest\": \"{digest}\"}}", panel.join(", ")),
        )
        .expect("write artifact");
    }

    #[test]
    fn fresh_artifacts_pass_after_update_then_check() {
        let dir = temp_dir("pass");
        let baseline = dir.join("baseline.json");
        write_artifact(&dir, &[3.5, 3.2], "abc123");
        // First --update creates the baseline from scratch.
        let report = run(&dir, &baseline, &specs(), GateMode::Update).expect("update succeeds");
        assert!(!report.failed(), "new metrics are not failures:\n{}", report.to_table());
        assert!(baseline.exists());
        // A fresh identical run passes --check.
        let report = run(&dir, &baseline, &specs(), GateMode::Check).expect("check runs");
        assert!(!report.failed(), "{}", report.to_table());
        // Small noise within tolerance also passes.
        write_artifact(&dir, &[3.4, 3.0], "abc123");
        let report = run(&dir, &baseline, &specs(), GateMode::Check).expect("check runs");
        assert!(!report.failed(), "{}", report.to_table());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        let dir = temp_dir("regress");
        let baseline = dir.join("baseline.json");
        write_artifact(&dir, &[3.5, 3.2], "abc123");
        run(&dir, &baseline, &specs(), GateMode::Update).expect("seed baseline");
        // A 40% speedup collapse is far beyond the 25% tolerance.
        write_artifact(&dir, &[2.0, 3.2], "abc123");
        let report = run(&dir, &baseline, &specs(), GateMode::Check).expect("check runs");
        assert!(report.failed(), "regressed artifact must fail:\n{}", report.to_table());
        let regressed: Vec<&GateEntry> =
            report.entries.iter().filter(|e| e.status == MetricStatus::Regressed).collect();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].key, "BENCH_fake.json:panel[0].speedup");
        assert!(regressed[0].rel_change.is_some_and(|r| r < -0.25));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_drift_fails_the_gate() {
        let dir = temp_dir("digest");
        let baseline = dir.join("baseline.json");
        write_artifact(&dir, &[3.5], "abc123");
        run(&dir, &baseline, &specs(), GateMode::Update).expect("seed baseline");
        write_artifact(&dir, &[3.5], "ffff00");
        let report = run(&dir, &baseline, &specs(), GateMode::Check).expect("check runs");
        assert!(report.failed());
        assert!(report
            .entries
            .iter()
            .any(|e| e.key == "BENCH_fake.json:digest" && e.status == MetricStatus::Regressed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ratchet_tightens_on_improvement_and_holds_on_noise() {
        let dir = temp_dir("ratchet");
        let baseline = dir.join("baseline.json");
        write_artifact(&dir, &[3.0], "abc123");
        run(&dir, &baseline, &specs(), GateMode::Update).expect("seed baseline");
        // Improvement ratchets the baseline up …
        write_artifact(&dir, &[4.0], "abc123");
        run(&dir, &baseline, &specs(), GateMode::Update).expect("ratchet");
        let base = load_baseline(&baseline).expect("readable");
        assert_eq!(base.get("BENCH_fake.json:panel[0].speedup").and_then(Json::as_f64), Some(4.0));
        // … and a within-noise dip on a later --update does NOT loosen it.
        write_artifact(&dir, &[3.6], "abc123");
        run(&dir, &baseline, &specs(), GateMode::Update).expect("hold");
        let base = load_baseline(&baseline).expect("readable");
        assert_eq!(
            base.get("BENCH_fake.json:panel[0].speedup").and_then(Json::as_f64),
            Some(4.0),
            "ratchet must never loosen"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vanished_metric_and_missing_file_fail() {
        let dir = temp_dir("missing");
        let baseline = dir.join("baseline.json");
        write_artifact(&dir, &[3.0, 2.8], "abc123");
        run(&dir, &baseline, &specs(), GateMode::Update).expect("seed baseline");
        // The second panel lane vanished.
        write_artifact(&dir, &[3.0], "abc123");
        let report = run(&dir, &baseline, &specs(), GateMode::Check).expect("check runs");
        assert!(report.failed());
        assert!(report
            .entries
            .iter()
            .any(|e| e.key == "BENCH_fake.json:panel[1].speedup"
                && e.status == MetricStatus::Missing));
        // A missing artifact file is a gate failure, not a silent skip.
        std::fs::remove_file(dir.join("BENCH_fake.json")).expect("remove artifact");
        let report = run(&dir, &baseline, &specs(), GateMode::Check).expect("check runs");
        assert!(report.failed());
        assert_eq!(report.file_errors.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_serializes_to_parseable_json() {
        let dir = temp_dir("json");
        let baseline = dir.join("baseline.json");
        write_artifact(&dir, &[3.0], "abc123");
        run(&dir, &baseline, &specs(), GateMode::Update).expect("seed");
        write_artifact(&dir, &[1.0], "abc123");
        let report = run(&dir, &baseline, &specs(), GateMode::Check).expect("check");
        let doc = json::parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(doc.get("failed").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("regressed").and_then(Json::as_u64), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wildcard_matcher_is_exact_about_shape() {
        let m = PatternMatcher::new("F.json", "panel[*].speedup");
        assert!(m.matches("F.json:panel[0].speedup"));
        assert!(m.matches("F.json:panel[12].speedup"));
        assert!(!m.matches("F.json:panel[x].speedup"));
        assert!(!m.matches("F.json:panel[0].speedup.extra"));
        assert!(!m.matches("G.json:panel[0].speedup"));
        let plain = PatternMatcher::new("F.json", "speedup");
        assert!(plain.matches("F.json:speedup"));
        assert!(!plain.matches("F.json:speedup2"));
    }
}
