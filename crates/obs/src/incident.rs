//! Flight-recorder incident dumps: a post-mortem directory per bad epoch.
//!
//! A long-lived controller (ROADMAP item 3) cannot stop to let a human
//! attach a profiler when an epoch blows its deadline — by the next epoch
//! the evidence is gone. The daemon therefore runs a per-epoch
//! [`crate::trace::RingSubscriber`] capture, and when an epoch misses its
//! SLO budget or errors out it hands the ring's records to [`dump`],
//! which freezes everything an investigation needs into a timestamped
//! incident directory:
//!
//! * `incident.json` — reason, epoch index, the triggering event, free
//!   detail, and the critical-path summary;
//! * `trace.jsonl` — the captured records, one JSON object per line
//!   (the same format [`crate::trace::FileSubscriber`] writes, so the
//!   analyzer reads it unchanged);
//! * `critical_path.txt` — the offending epoch's critical path, one
//!   `name  duration_ms` hop per line ([`crate::analyze::SpanTree`]);
//! * `stage_report.json` — per-stage time attribution for the capture;
//! * `metrics.json` — the full metrics-registry snapshot at dump time.
//!
//! Directory names sort chronologically (`incident-<unix_ms>-ep<N>-<reason>`)
//! and collide-proof themselves with a numeric suffix, so chaos soaks
//! that trigger several dumps in one millisecond still keep every one.
//!
//! The dump is deliberately best-effort *atomic per file*: a partially
//! written directory (disk full mid-dump) still holds whatever files
//! completed, and every failure surfaces as `io::Error` — never a panic
//! (this crate ratchets `panic-on-input-path` at zero).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::analyze::{CriticalHop, SpanTree};
use crate::metrics;
use crate::trace::Record;

/// Everything the flight recorder knows about one bad epoch.
#[derive(Debug, Clone)]
pub struct IncidentContext<'a> {
    /// Machine-readable reason slug, e.g. `deadline-miss` or `plan-error`.
    /// Sanitized into the directory name (non `[a-z0-9-]` become `-`).
    pub reason: &'a str,
    /// Epoch index (the daemon's planned-epoch counter).
    pub epoch: u64,
    /// The feed event that triggered the epoch (`tick`, `cut:3`,
    /// `chaos-burst`, ...), verbatim.
    pub trigger: &'a str,
    /// Free-form detail: the miss verdict, the plan error, etc.
    pub detail: &'a str,
    /// The epoch's captured trace records (the ring's contents).
    pub records: &'a [Record],
}

/// What [`dump`] wrote, for callers that assert on incident contents.
#[derive(Debug, Clone)]
pub struct IncidentDump {
    /// The created incident directory.
    pub dir: PathBuf,
    /// Critical path of the offending epoch (empty when the capture held
    /// no finished spans — still an incident, just a blind one).
    pub critical_path: Vec<CriticalHop>,
    /// Finished spans reconstructed from the capture.
    pub spans: usize,
}

impl IncidentDump {
    /// True when `name` appears on the dumped critical path.
    pub fn critical_path_contains(&self, name: &str) -> bool {
        self.critical_path.iter().any(|h| h.name == name)
    }
}

struct IncidentMetrics {
    dumps: metrics::Counter,
}

fn incident_metrics() -> &'static IncidentMetrics {
    static METRICS: std::sync::OnceLock<IncidentMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        metrics::describe("obs.incident.dumps", "flight-recorder incident directories written");
        IncidentMetrics { dumps: metrics::counter("obs.incident.dumps") }
    })
}

/// Milliseconds since the Unix epoch, for sortable directory names.
/// Timestamping dumps is exactly what wall clocks are for; nothing in the
/// planning path reads this.
fn unix_millis() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// Reason slugs feed directory names; keep them filesystem-safe.
fn sanitize(reason: &str) -> String {
    let cleaned: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c.to_ascii_lowercase() } else { '-' })
        .collect();
    if cleaned.is_empty() {
        "incident".to_string()
    } else {
        cleaned
    }
}

/// Picks the root span to walk the critical path from: the *last* root
/// named `epoch` if one finished (the offending epoch is the most recent
/// capture), otherwise the longest root of any name.
fn pick_root(tree: &SpanTree) -> Option<usize> {
    tree.roots
        .iter()
        .copied()
        .rfind(|&r| tree.nodes[r].name == "epoch")
        .or_else(|| tree.roots.iter().copied().max_by_key(|&r| tree.nodes[r].duration_nanos))
}

/// Writes one incident directory under `base_dir` and returns what it
/// wrote. Creates `base_dir` if needed.
pub fn dump(base_dir: &Path, ctx: &IncidentContext<'_>) -> io::Result<IncidentDump> {
    fs::create_dir_all(base_dir)?;
    let stamp = unix_millis();
    let slug = sanitize(ctx.reason);
    let mut dir = base_dir.join(format!("incident-{stamp}-ep{:04}-{slug}", ctx.epoch));
    let mut suffix = 0u32;
    while dir.exists() {
        suffix += 1;
        dir = base_dir.join(format!("incident-{stamp}-ep{:04}-{slug}-{suffix}", ctx.epoch));
    }
    fs::create_dir(&dir)?;

    // trace.jsonl — the raw capture, FileSubscriber-compatible.
    let mut jsonl = String::new();
    for record in ctx.records {
        jsonl.push_str(&record.to_json_line());
        jsonl.push('\n');
    }
    fs::write(dir.join("trace.jsonl"), &jsonl)?;

    // Analyzer products: critical path + per-stage attribution.
    let tree = SpanTree::from_records(ctx.records);
    let critical_path = pick_root(&tree).map(|r| tree.critical_path(r)).unwrap_or_default();
    let mut path_txt = String::new();
    for hop in &critical_path {
        path_txt.push_str(&format!(
            "{:<16} {:>12.3} ms\n",
            hop.name,
            hop.duration_nanos as f64 / 1e6
        ));
    }
    fs::write(dir.join("critical_path.txt"), &path_txt)?;
    fs::write(dir.join("stage_report.json"), tree.stage_report_json())?;

    // The full metrics snapshot at dump time.
    fs::write(dir.join("metrics.json"), metrics::snapshot().to_json())?;

    // incident.json — the manifest tying it all together.
    let mut manifest = String::from("{\n");
    manifest.push_str(&format!("  \"reason\": \"{}\",\n", metrics::json_escape(ctx.reason)));
    manifest.push_str(&format!("  \"epoch\": {},\n", ctx.epoch));
    manifest.push_str(&format!("  \"trigger\": \"{}\",\n", metrics::json_escape(ctx.trigger)));
    manifest.push_str(&format!("  \"detail\": \"{}\",\n", metrics::json_escape(ctx.detail)));
    manifest.push_str(&format!("  \"unix_millis\": {stamp},\n"));
    manifest.push_str(&format!("  \"captured_records\": {},\n", ctx.records.len()));
    manifest.push_str(&format!("  \"finished_spans\": {},\n", tree.nodes.len()));
    manifest.push_str("  \"critical_path\": [");
    for (i, hop) in critical_path.iter().enumerate() {
        if i > 0 {
            manifest.push_str(", ");
        }
        manifest.push_str(&format!("\"{}\"", metrics::json_escape(&hop.name)));
    }
    manifest.push_str("]\n}\n");
    fs::write(dir.join("incident.json"), &manifest)?;

    incident_metrics().dumps.inc();
    crate::event!(warn: "obs.incident.dump",
        "reason" => ctx.reason.to_string(),
        "epoch" => ctx.epoch,
        "dir" => dir.display().to_string());

    Ok(IncidentDump { dir, critical_path, spans: tree.nodes.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::trace::RecordKind;

    fn span_end(
        name: &'static str,
        span_id: u64,
        parent_id: Option<u64>,
        t_nanos: u64,
        duration_nanos: u64,
    ) -> Record {
        Record {
            kind: RecordKind::SpanEnd,
            name,
            span_id,
            parent_id,
            t_nanos,
            duration_nanos: Some(duration_nanos),
            level: crate::Level::Info,
            thread: 1,
            fields: Vec::new(),
        }
    }

    /// epoch { te.phase1 { lp.solve } te.phase2 } — the daemon's shape.
    fn epoch_capture() -> Vec<Record> {
        vec![
            span_end("lp.solve", 3, Some(2), 60, 50),
            span_end("te.phase1", 2, Some(1), 65, 60),
            span_end("te.phase2", 4, Some(1), 95, 25),
            span_end("epoch", 1, None, 100, 100),
        ]
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arrow-incident-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dump_writes_all_artifacts() {
        let base = scratch_dir("all");
        let records = epoch_capture();
        let ctx = IncidentContext {
            reason: "deadline-miss",
            epoch: 7,
            trigger: "chaos-burst",
            detail: "epoch took 3.1s against a 2.0s budget",
            records: &records,
        };
        let dump = dump(&base, &ctx).expect("incident dump succeeds");
        assert!(dump.dir.starts_with(&base));
        for file in [
            "incident.json",
            "trace.jsonl",
            "critical_path.txt",
            "stage_report.json",
            "metrics.json",
        ] {
            let path = dump.dir.join(file);
            assert!(path.is_file(), "missing {file}");
            assert!(fs::metadata(&path).map(|m| m.len()).unwrap_or(0) > 0, "{file} is empty");
        }

        // The critical path walks epoch -> te.phase1 -> lp.solve.
        let names: Vec<&str> = dump.critical_path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["epoch", "te.phase1", "lp.solve"]);
        assert!(dump.critical_path_contains("lp.solve"));
        assert_eq!(dump.spans, 4);

        // The manifest parses and carries the context verbatim.
        let manifest = fs::read_to_string(dump.dir.join("incident.json")).expect("read manifest");
        let doc = json::parse(&manifest).expect("incident.json is valid JSON");
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("deadline-miss"));
        assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("trigger").and_then(Json::as_str), Some("chaos-burst"));
        assert_eq!(doc.get("finished_spans").and_then(Json::as_u64), Some(4));

        // The dumped trace re-analyzes to the same critical path.
        let jsonl = fs::read_to_string(dump.dir.join("trace.jsonl")).expect("read trace");
        let tree = SpanTree::from_jsonl(&jsonl).expect("dumped trace parses");
        let root = tree
            .roots
            .iter()
            .copied()
            .find(|&r| tree.nodes[r].name == "epoch")
            .expect("epoch root");
        let reparsed: Vec<String> =
            tree.critical_path(root).iter().map(|h| h.name.clone()).collect();
        assert_eq!(reparsed, ["epoch", "te.phase1", "lp.solve"]);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn dump_names_collide_proof_and_sanitized() {
        let base = scratch_dir("collide");
        let records = epoch_capture();
        let ctx = IncidentContext {
            reason: "Plan Error!",
            epoch: 1,
            trigger: "tick",
            detail: "",
            records: &records,
        };
        let a = dump(&base, &ctx).expect("first dump");
        let b = dump(&base, &ctx).expect("second dump");
        assert_ne!(a.dir, b.dir, "same-millisecond dumps must not collide");
        let name = a.dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        assert!(name.contains("plan-error-"), "reason sanitized into {name:?}");
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn empty_capture_still_dumps_blind_incident() {
        let base = scratch_dir("blind");
        let ctx = IncidentContext {
            reason: "plan-error",
            epoch: 0,
            trigger: "tick",
            detail: "offline state invalid",
            records: &[],
        };
        let dump = dump(&base, &ctx).expect("blind dump succeeds");
        assert!(dump.critical_path.is_empty());
        assert_eq!(dump.spans, 0);
        assert!(dump.dir.join("incident.json").is_file());
        let _ = fs::remove_dir_all(&base);
    }
}
