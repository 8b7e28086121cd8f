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
//! * `trace.jsonl` — the captured records, one JSON object per line, as
//!   [`crate::trace::to_jsonl`] writes them;
//! * `metrics.json` — the full metrics-registry snapshot at dump time;
//! * `incident.json` — reason, epoch index, the triggering event, free
//!   detail, and the offending epoch's critical path as
//!   `[{"name", "duration_nanos"}]` hops.
//!
//! The critical path is computed by [`crate::analyze::SpanTree::from_jsonl`]
//! from the `trace.jsonl` text the dump has just written, so it is the
//! file's by construction; anything else the analyzer derives (self time,
//! per-stage totals) is read from that file, not written beside it.
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
use crate::json::Json;
use crate::trace::{self, Record};
use crate::{metrics, Counter};

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

static DUMPS: Counter =
    Counter::new("obs.incident.dumps", "flight-recorder incident dumps written");

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

    let jsonl = trace::to_jsonl(ctx.records);
    fs::write(dir.join("trace.jsonl"), &jsonl)?;
    let tree =
        SpanTree::from_jsonl(&jsonl).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let critical_path = pick_root(&tree).map(|r| tree.critical_path(r)).unwrap_or_default();

    fs::write(dir.join("metrics.json"), metrics::snapshot().to_json())?;

    let text = |s: &str| Json::Str(s.to_string());
    let hops = critical_path.iter().map(|hop| {
        Json::obj([
            ("name", text(&hop.name)),
            ("duration_nanos", Json::Num(hop.duration_nanos as f64)),
        ])
    });
    let manifest = Json::obj([
        ("reason", text(ctx.reason)),
        ("epoch", Json::Num(ctx.epoch as f64)),
        ("trigger", text(ctx.trigger)),
        ("detail", text(ctx.detail)),
        ("unix_millis", Json::Num(stamp as f64)),
        ("captured_records", Json::Num(ctx.records.len() as f64)),
        ("finished_spans", Json::Num(tree.nodes.len() as f64)),
        ("critical_path", Json::Arr(hops.collect())),
    ]);
    fs::write(dir.join("incident.json"), manifest.to_pretty() + "\n")?;

    DUMPS.inc();
    crate::event!(warn: "obs.incident.dump",
        "reason" => ctx.reason.to_string(),
        "epoch" => ctx.epoch,
        "dir" => dir.display().to_string());

    Ok(IncidentDump { dir, critical_path, spans: tree.nodes.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::tests::epoch_records;
    use crate::json::{self, Json};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arrow-incident-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dump_writes_all_artifacts() {
        let base = scratch_dir("all");
        let records = epoch_records();
        let ctx = IncidentContext {
            reason: "deadline-miss",
            epoch: 7,
            trigger: "chaos-burst",
            detail: "epoch took 3.1s against a 2.0s budget",
            records: &records,
        };
        let before = metrics::snapshot();
        let dump = dump(&base, &ctx).expect("incident dump succeeds");
        // Other tests dump concurrently: the count moves by at least ours.
        let after = metrics::snapshot();
        assert!(after.counter("obs.incident.dumps") > before.counter("obs.incident.dumps"));
        assert!(dump.dir.starts_with(&base));
        let mut files: Vec<String> = fs::read_dir(&dump.dir)
            .expect("list incident dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["incident.json", "metrics.json", "trace.jsonl"]);
        for file in &files {
            let len = fs::metadata(dump.dir.join(file)).map(|m| m.len()).unwrap_or(0);
            assert!(len > 0, "{file} is empty");
        }

        // The critical path walks epoch -> te.phase1 -> lp.solve.
        let names: Vec<&str> = dump.critical_path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["epoch", "te.phase1", "lp.solve"]);
        assert_eq!(dump.spans, 4);

        // The manifest parses and carries the context verbatim.
        let manifest = fs::read_to_string(dump.dir.join("incident.json")).expect("read manifest");
        let doc = json::parse(&manifest).expect("incident.json is valid JSON");
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("deadline-miss"));
        assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("trigger").and_then(Json::as_str), Some("chaos-burst"));
        assert_eq!(doc.get("captured_records").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("finished_spans").and_then(Json::as_u64), Some(4));

        // Its critical path, names and durations, is the one the analyzer
        // computes from the dumped trace.jsonl.
        let written: Vec<(&str, u64)> = doc
            .get("critical_path")
            .and_then(Json::as_arr)
            .expect("critical_path array")
            .iter()
            .map(|hop| {
                let name = hop.get("name").and_then(Json::as_str).expect("hop name");
                (name, hop.get("duration_nanos").and_then(Json::as_u64).expect("hop duration"))
            })
            .collect();
        let jsonl = fs::read_to_string(dump.dir.join("trace.jsonl")).expect("read trace");
        let tree = SpanTree::from_jsonl(&jsonl).expect("dumped trace parses");
        let root = tree.roots.iter().copied().find(|&r| tree.nodes[r].name == "epoch");
        let reparsed = tree.critical_path(root.expect("epoch root"));
        let reparsed: Vec<(&str, u64)> =
            reparsed.iter().map(|h| (h.name.as_str(), h.duration_nanos)).collect();
        assert_eq!(written, reparsed);
        assert_eq!(written, [("epoch", 100), ("te.phase1", 60), ("lp.solve", 50)]);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn dump_names_collide_proof_and_sanitized() {
        let base = scratch_dir("collide");
        let records = epoch_records();
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
