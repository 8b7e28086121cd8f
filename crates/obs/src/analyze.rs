//! Trace analysis: span-tree reconstruction, self-time attribution and
//! critical paths.
//!
//! The tracing layer answers *what happened*; this module answers *where
//! the time went*. It has one reader: [`SpanTree::from_jsonl`] rebuilds
//! the span tree from `trace.jsonl` text, as [`crate::trace::to_jsonl`]
//! writes it from a [`crate::trace::RingSubscriber`]'s records, and
//! computes:
//!
//! * **self time** per span: duration minus the duration of its children
//!   on the same thread (what the stage spent *itself*, not delegating);
//! * **the critical path** ([`SpanTree::critical_path`]): from a root
//!   span, repeatedly descend into the longest child — for ARROW's
//!   synchronous epoch loop this names the stage chain that bounds the
//!   epoch deadline (and must name the LP solve, which the root
//!   crate's `tests/online.rs` asserts).
//!
//! A span that never finished left no record, so it has no duration to
//! attribute and no node. Cross-thread parentage does not exist in this
//! tracer (worker spans are roots on their own thread), so a tree per
//! root is exactly a tree per synchronous stage.

use std::collections::BTreeMap;

use crate::json::{self, Json};

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
    /// Parses a `trace.jsonl` document (one record per line, as
    /// [`crate::trace::to_jsonl`] writes it) and builds the tree from its
    /// span records; event lines are skipped.
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::trace::{to_jsonl, Record};

    /// A hand-built span record: `(name, id, parent, end_nanos, duration)`.
    fn span(
        name: &'static str,
        span_id: u64,
        parent_id: Option<u64>,
        t_nanos: u64,
        duration_nanos: u64,
    ) -> Record {
        Record {
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

    /// epoch(100) { phase1(60) { solve(50) } phase2(25) } — 15 self; the
    /// daemon's shape, in close order.
    pub(crate) fn epoch_records() -> Vec<Record> {
        vec![
            span("lp.solve", 3, Some(2), 60, 50),
            span("te.phase1", 2, Some(1), 65, 60),
            span("te.phase2", 4, Some(1), 95, 25),
            span("epoch", 1, None, 100, 100),
        ]
    }

    fn tree(records: &[Record]) -> SpanTree {
        SpanTree::from_jsonl(&to_jsonl(records)).expect("the writer's output parses")
    }

    #[test]
    fn tree_links_children_and_roots() {
        let tree = tree(&epoch_records());
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
        let tree = tree(&epoch_records());
        let root = tree.roots[0];
        assert_eq!(tree.self_nanos(root), 15); // 100 - 60 - 25
        let phase1 = tree.spans_named("te.phase1")[0];
        assert_eq!(tree.self_nanos(phase1), 10); // 60 - 50
        let solve = tree.spans_named("lp.solve")[0];
        assert_eq!(tree.self_nanos(solve), 50);
    }

    #[test]
    fn critical_path_descends_longest_child() {
        let tree = tree(&epoch_records());
        let path = tree.critical_path(tree.roots[0]);
        let hops: Vec<(&str, u64)> =
            path.iter().map(|h| (h.name.as_str(), h.duration_nanos)).collect();
        assert_eq!(hops, [("epoch", 100), ("te.phase1", 60), ("lp.solve", 50)]);
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
        let tree = tree(&[span("orphan", 5, Some(99), 10, 10)]);
        assert_eq!(tree.roots, vec![0]);
    }
}
