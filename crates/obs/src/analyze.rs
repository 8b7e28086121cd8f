//! Trace analysis: span-tree reconstruction, self-time attribution and
//! critical paths.
//!
//! The tracing layer answers *what happened*; this module answers *where
//! the time went*. It rebuilds the span tree from finished-span records —
//! either live [`crate::trace::Record`]s out of a
//! [`crate::trace::RingSubscriber`] or a `trace.jsonl` file written by a
//! [`crate::trace::FileSubscriber`] — and computes:
//!
//! * **self time** per span: duration minus the duration of its children
//!   on the same thread (what the stage spent *itself*, not delegating);
//! * **per-stage attribution** (`SpanTree::stage_report`): spans
//!   aggregated by name with counts, total and self time;
//! * **the critical path** ([`SpanTree::critical_path`]): from a root
//!   span, repeatedly descend into the longest child — for ARROW's
//!   synchronous epoch loop this names the stage chain that bounds the
//!   epoch deadline (and must name the LP solve, which the root
//!   crate's `tests/online.rs` asserts).
//!
//! Spans that never finished (no `span_end` record) are dropped — an
//! unfinished span has no duration to attribute. Cross-thread parentage
//! does not exist in this tracer (worker spans are roots on their own
//! thread), so a tree per root is exactly a tree per synchronous stage.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::trace::{Record, RecordKind};

/// One reconstructed (finished) span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Process-unique span id from the trace.
    pub span_id: u64,
    /// Parent span id, if the span was nested.
    pub parent_id: Option<u64>,
    /// Thread the span ran on.
    pub thread: u64,
    /// Start time (nanoseconds since the trace epoch).
    pub(crate) start_nanos: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_nanos: u64,
    /// Indices (into [`SpanTree::nodes`]) of this span's children, in
    /// start order.
    pub children: Vec<usize>,
}

/// One aggregated row of the per-stage report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageStat {
    /// Span name the row aggregates.
    pub name: String,
    /// Number of finished spans with that name.
    pub count: usize,
    /// Summed wall-clock nanoseconds.
    pub(crate) total_nanos: u64,
    /// Summed self-time nanoseconds (total minus time in child spans).
    pub self_nanos: u64,
}

/// One hop of a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Span name at this hop.
    pub name: String,
    /// The concrete span chosen.
    pub span_id: u64,
    /// Its wall-clock duration.
    pub duration_nanos: u64,
}

/// Why a `trace.jsonl` document could not be analyzed.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// A line failed to parse as JSON. Carries the 1-based line number and
    /// the parse error.
    BadLine(usize, json::JsonError),
    /// A record line parsed as JSON but is missing a required field.
    MissingField(usize, &'static str),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::BadLine(line, err) => write!(f, "trace line {line}: {err}"),
            AnalyzeError::MissingField(line, field) => {
                write!(f, "trace line {line}: record is missing field {field:?}")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// The reconstructed forest of finished spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// Every finished span, in end order.
    pub nodes: Vec<SpanNode>,
    /// Indices of root spans (no parent, or parent never finished).
    pub roots: Vec<usize>,
}

impl SpanTree {
    /// Builds the tree from in-memory trace records (e.g.
    /// [`crate::trace::RingSubscriber::records`]). Only
    /// [`RecordKind::SpanEnd`] records contribute — they carry the
    /// duration and re-carry the start fields.
    pub(crate) fn from_records(records: &[Record]) -> SpanTree {
        let spans = records.iter().filter(|r| r.kind == RecordKind::SpanEnd).map(|r| {
            let duration = r.duration_nanos.unwrap_or(0);
            SpanNode {
                name: r.name.to_string(),
                span_id: r.span_id,
                parent_id: r.parent_id,
                thread: r.thread,
                start_nanos: r.t_nanos.saturating_sub(duration),
                duration_nanos: duration,
                children: Vec::new(),
            }
        });
        Self::assemble(spans.collect())
    }

    /// Parses a `trace.jsonl` document (one record per line, the
    /// [`crate::trace::FileSubscriber`] format) and builds the tree.
    pub fn from_jsonl(text: &str) -> Result<SpanTree, AnalyzeError> {
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = json::parse(line).map_err(|e| AnalyzeError::BadLine(i + 1, e))?;
            if doc.get("kind").and_then(Json::as_str) != Some("span_end") {
                continue;
            }
            let field_u64 = |key: &'static str| {
                doc.get(key).and_then(Json::as_u64).ok_or(AnalyzeError::MissingField(i + 1, key))
            };
            let name = doc
                .get("name")
                .and_then(Json::as_str)
                .ok_or(AnalyzeError::MissingField(i + 1, "name"))?
                .to_string();
            let duration = field_u64("duration_nanos")?;
            let end = field_u64("t_nanos")?;
            spans.push(SpanNode {
                name,
                span_id: field_u64("span")?,
                parent_id: doc.get("parent").and_then(Json::as_u64),
                thread: field_u64("thread")?,
                start_nanos: end.saturating_sub(duration),
                duration_nanos: duration,
                children: Vec::new(),
            });
        }
        Ok(Self::assemble(spans))
    }

    /// Links parents to children and identifies roots.
    fn assemble(mut nodes: Vec<SpanNode>) -> SpanTree {
        let index_by_id: BTreeMap<u64, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n.span_id, i)).collect();
        let mut children: Vec<(usize, usize)> = Vec::new();
        let mut roots = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            match node.parent_id.and_then(|p| index_by_id.get(&p)) {
                Some(&parent) => children.push((parent, i)),
                // No parent, or the parent span never finished: a root.
                None => roots.push(i),
            }
        }
        for (parent, child) in children {
            nodes[parent].children.push(child);
        }
        // Children in start order, so stacks and paths read causally.
        let starts: Vec<u64> = nodes.iter().map(|n| n.start_nanos).collect();
        for node in &mut nodes {
            node.children.sort_by_key(|&c| starts[c]);
        }
        roots.sort_by_key(|&r| starts[r]);
        SpanTree { nodes, roots }
    }

    /// Self time of the span at `index`: its duration minus its children's
    /// durations (floored at zero — children measured on other threads or
    /// with clock jitter cannot drive attribution negative).
    pub fn self_nanos(&self, index: usize) -> u64 {
        let Some(node) = self.nodes.get(index) else { return 0 };
        let in_children: u64 =
            node.children.iter().filter_map(|&c| self.nodes.get(c)).map(|c| c.duration_nanos).sum();
        node.duration_nanos.saturating_sub(in_children)
    }

    /// Indices of finished spans named `name`, in end order.
    pub fn spans_named(&self, name: &str) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].name == name).collect()
    }

    /// Aggregates spans by name: count, total and self time, sorted by
    /// total time descending (ties broken by name for determinism).
    pub(crate) fn stage_report(&self) -> Vec<StageStat> {
        let mut by_name: BTreeMap<&str, StageStat> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let entry = by_name.entry(&node.name).or_insert_with(|| StageStat {
                name: node.name.clone(),
                count: 0,
                total_nanos: 0,
                self_nanos: 0,
            });
            entry.count += 1;
            entry.total_nanos += node.duration_nanos;
            entry.self_nanos += self.self_nanos(i);
        }
        let mut rows: Vec<StageStat> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(&b.name)));
        rows
    }

    /// The critical path from the span at `root_index`: the chain formed
    /// by repeatedly descending into the longest-duration child. For a
    /// synchronous stage tree this is the sequence of stages an epoch's
    /// wall clock is bound by — shortening anything off this path cannot
    /// shorten the epoch by more than the next-longest sibling.
    pub fn critical_path(&self, root_index: usize) -> Vec<CriticalHop> {
        let mut path = Vec::new();
        let mut current = root_index;
        while let Some(node) = self.nodes.get(current) {
            path.push(CriticalHop {
                name: node.name.clone(),
                span_id: node.span_id,
                duration_nanos: node.duration_nanos,
            });
            let Some(&longest) = node.children.iter().max_by(|&&a, &&b| {
                match (self.nodes.get(a), self.nodes.get(b)) {
                    (Some(x), Some(y)) => {
                        x.duration_nanos.cmp(&y.duration_nanos).then(y.span_id.cmp(&x.span_id))
                    }
                    (x, y) => x.is_some().cmp(&y.is_some()),
                }
            }) else {
                break;
            };
            current = longest;
        }
        path
    }

    /// Serializes the stage report as a JSON document (the analyzer's
    /// machine-readable output, written into every flight-recorder
    /// incident dump as `stage_report.json`).
    pub(crate) fn stage_report_json(&self) -> String {
        let total_root_nanos: u64 =
            self.roots.iter().filter_map(|&r| self.nodes.get(r)).map(|n| n.duration_nanos).sum();
        let mut out = String::from("{\n  \"spans\": ");
        out.push_str(&self.nodes.len().to_string());
        out.push_str(",\n  \"roots\": ");
        out.push_str(&self.roots.len().to_string());
        out.push_str(",\n  \"root_wall_nanos\": ");
        out.push_str(&total_root_nanos.to_string());
        out.push_str(",\n  \"stages\": [\n");
        let rows = self.stage_report();
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"total_nanos\": {}, \
                 \"self_nanos\": {}, \"mean_seconds\": {}}}{}\n",
                crate::metrics::json_escape(&row.name),
                row.count,
                row.total_nanos,
                row.self_nanos,
                crate::metrics::json_f64(if row.count == 0 {
                    0.0
                } else {
                    row.total_nanos as f64 / row.count as f64 / 1e9
                }),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built record: `(name, id, parent, end_nanos, duration)`.
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

    /// epoch(100) { phase1(60) { solve(50) } phase2(25) } — 15 self.
    fn epoch_records() -> Vec<Record> {
        vec![
            span_end("lp.solve", 3, Some(2), 60, 50),
            span_end("te.phase1", 2, Some(1), 65, 60),
            span_end("te.phase2", 4, Some(1), 95, 25),
            span_end("epoch", 1, None, 100, 100),
        ]
    }

    #[test]
    fn tree_links_children_and_roots() {
        let tree = SpanTree::from_records(&epoch_records());
        assert_eq!(tree.nodes.len(), 4);
        assert_eq!(tree.roots.len(), 1);
        let root = tree.roots[0];
        assert_eq!(tree.nodes[root].name, "epoch");
        let child_names: Vec<&str> =
            tree.nodes[root].children.iter().map(|&c| tree.nodes[c].name.as_str()).collect();
        assert_eq!(child_names, ["te.phase1", "te.phase2"], "children in start order");
    }

    #[test]
    fn self_time_subtracts_children() {
        let tree = SpanTree::from_records(&epoch_records());
        let root = tree.roots[0];
        assert_eq!(tree.self_nanos(root), 15); // 100 - 60 - 25
        let phase1 = tree.spans_named("te.phase1")[0];
        assert_eq!(tree.self_nanos(phase1), 10); // 60 - 50
        let solve = tree.spans_named("lp.solve")[0];
        assert_eq!(tree.self_nanos(solve), 50);
    }

    #[test]
    fn critical_path_descends_longest_child() {
        let tree = SpanTree::from_records(&epoch_records());
        let path = tree.critical_path(tree.roots[0]);
        let names: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["epoch", "te.phase1", "lp.solve"]);
    }

    #[test]
    fn jsonl_roundtrip_matches_in_memory_tree() {
        let records = epoch_records();
        let jsonl: String =
            records.iter().map(|r| r.to_json_line() + "\n").collect::<Vec<_>>().join("");
        let from_file = SpanTree::from_jsonl(&jsonl).expect("valid trace.jsonl");
        let from_memory = SpanTree::from_records(&records);
        assert_eq!(from_file.nodes.len(), from_memory.nodes.len());
        let path_file = from_file.critical_path(from_file.roots[0]);
        let path_memory = from_memory.critical_path(from_memory.roots[0]);
        assert_eq!(path_file, path_memory);
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        let text = "{\"kind\":\"span_end\",\"name\":\"a\",\"span\":1,\"parent\":null,\
                    \"t_nanos\":5,\"duration_nanos\":5,\"level\":\"info\",\"thread\":1,\"fields\":{}}\n\
                    not json\n";
        match SpanTree::from_jsonl(text) {
            Err(AnalyzeError::BadLine(line, _)) => assert_eq!(line, 2),
            other => panic!("expected BadLine, got {other:?}"),
        }
        // A span_end missing its duration is a typed error, not a panic.
        let missing = "{\"kind\":\"span_end\",\"name\":\"a\",\"span\":1,\"parent\":null,\
                       \"t_nanos\":5,\"level\":\"info\",\"thread\":1,\"fields\":{}}\n";
        assert!(matches!(
            SpanTree::from_jsonl(missing),
            Err(AnalyzeError::MissingField(1, "duration_nanos"))
        ));
    }

    #[test]
    fn unfinished_parent_promotes_children_to_roots() {
        // Child references span 99 which never ended.
        let records = vec![span_end("orphan", 5, Some(99), 10, 10)];
        let tree = SpanTree::from_records(&records);
        assert_eq!(tree.roots, vec![0]);
    }

    #[test]
    fn stage_report_aggregates_and_sorts() {
        let records = vec![
            span_end("solve", 2, Some(1), 30, 20),
            span_end("solve", 3, Some(1), 60, 25),
            span_end("epoch", 1, None, 100, 100),
        ];
        let tree = SpanTree::from_records(&records);
        let report = tree.stage_report();
        assert_eq!(report[0].name, "epoch");
        assert_eq!(report[1].name, "solve");
        assert_eq!(report[1].count, 2);
        assert_eq!(report[1].total_nanos, 45);
        assert_eq!(report[1].self_nanos, 45);
        assert_eq!(report[0].self_nanos, 55);
        let json = tree.stage_report_json();
        let doc = crate::json::parse(&json).expect("stage report is valid JSON");
        assert_eq!(doc.get("spans").and_then(Json::as_u64), Some(3));
    }
}
