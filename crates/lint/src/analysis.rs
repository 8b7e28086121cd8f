//! Interprocedural analyses over the workspace call graph.
//!
//! **panic-reachability** — from configured entry points (the controller
//! epoch path, the batched solver, the daemon loop, the snapshot decoder
//! — the one place a file from outside is read), prove that no call
//! path reaches `unwrap`/`expect`/`panic!`-family code in product
//! libraries. A single reachable `unwrap` under
//! `ArrowController::plan_epoch` kills `arrow serve` mid-epoch instead of
//! failing one request, so this is the backstop the §5 five-minute epoch
//! contract leans on. Violations carry the full call chain
//! (`plan_epoch → select_winning → tunnels::disjoint → unwrap`), printed
//! frame-by-frame under `--explain`.
//!
//! **determinism-taint** — sources of nondeterminism (`HashMap`/`HashSet`
//! iteration order, `Instant`/`SystemTime` reads, RNG construction not
//! routed through `derive_seed`) must not be reachable from sink
//! functions that produce digests, `ScenarioId`s, tickets, or plans —
//! the artifacts the byte-identical sharding and soak tests fingerprint.
//!
//! Both analyses honour pragmas: a site justified for the flow rule *or*
//! for its per-file base rule (`panic-on-input-path`,
//! `nondeterministic-iteration`, `wall-clock-in-core`) is accepted debt
//! with a written rationale and does not open a violation.

use crate::callgraph::{CallGraph, Site};
use crate::parser::ParsedFile;
use crate::rules::Violation;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Default panic-reachability entry points (suffix-matched against
/// qualified names; extend with `--entry`).
pub const DEFAULT_ENTRIES: &[&str] = &[
    "ArrowController::plan_epoch",
    "solver::solve_batch",
    "daemon::serve",
    "lottery::generate_tickets",
    "Snapshot::from_json",
];

/// Default determinism-taint sinks: producers of digests, `ScenarioId`s,
/// tickets, and plans (suffix-matched; extend with `--sink`).
pub const DEFAULT_SINKS: &[&str] = &[
    "ScenarioId::of_cut",
    "TicketSet::digest",
    "TicketSet::merge",
    "StandardLp::structure_digest",
    "lottery::generate_tickets",
    "telemetry::generate_tickets",
    "failures::compile_universe",
    "ArrowController::plan_epoch",
];

/// The specs that match no function in `g`. An analysis anchored on such
/// a spec walks nothing and so proves nothing; `--check` fails on any.
pub fn unresolved_specs<'a>(g: &CallGraph, specs: &'a [String]) -> Vec<&'a str> {
    specs.iter().map(String::as_str).filter(|spec| g.resolve_spec(spec).is_empty()).collect()
}

/// Whether a workspace-relative path participates in the call graph:
/// product library code only — dev tools (`crates/lint`, `crates/bench`)
/// and test/bench/example targets are not linked into the controller.
pub fn in_product_graph(rel_path: &str) -> bool {
    if rel_path.starts_with("crates/lint/") || rel_path.starts_with("crates/bench/") {
        return false;
    }
    let (_, kind) = crate::rules::classify(rel_path);
    kind == crate::rules::FileKind::Lib
}

/// The crate directory name a path belongs to (`arrow` for the root
/// package).
fn crate_of(rel_path: &str) -> &str {
    rel_path.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("arrow")
}

/// One interprocedural finding: a site plus the call chain that reaches
/// it from an entry or sink.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `panic-reachability` or `determinism-taint`.
    pub rule: &'static str,
    /// File containing the offending site.
    pub file: String,
    /// The offending site.
    pub site: Site,
    /// Node indices from the entry/sink (first) to the containing fn
    /// (last).
    pub chain: Vec<usize>,
    /// The entry/sink spec that anchored the chain.
    pub anchor: String,
}

/// Short human frame for a node: `Owner::name` for methods,
/// `module::name` otherwise.
pub fn frame_label(g: &CallGraph, id: usize) -> String {
    let n = &g.nodes[id];
    let segs: Vec<&str> = n.qual.split("::").collect();
    if segs.len() >= 2 {
        format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1])
    } else {
        n.simple.clone()
    }
}

/// Compact one-line chain: `plan_epoch → select_winning →
/// tunnels::disjoint → unwrap`.
pub fn render_chain(g: &CallGraph, f: &Finding) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (k, &id) in f.chain.iter().enumerate() {
        if k == 0 {
            parts.push(g.nodes[id].simple.clone());
        } else {
            parts.push(frame_label(g, id));
        }
    }
    parts.push(f.site.what.clone());
    parts.join(" → ")
}

/// Frame-by-frame `--explain` rendering with file:line anchors.
pub fn explain_chain(g: &CallGraph, f: &Finding) -> String {
    let mut out = String::new();
    out.push_str(&format!("[{}] `{}` reachable from `{}`:\n", f.rule, f.site.what, f.anchor));
    for &id in &f.chain {
        let n = &g.nodes[id];
        out.push_str(&format!("    {}:{}  {}\n", n.file, n.line, n.qual));
    }
    out.push_str(&format!("    {}:{}  {}\n", f.file, f.site.line, f.site.what));
    out
}

/// Pragma lookup: is `line` of `file` covered by a pragma for any rule in
/// `rules`?
fn justified(files: &BTreeMap<&str, &ParsedFile>, file: &str, line: u32, rules: &[&str]) -> bool {
    files.get(file).is_some_and(|pf| {
        pf.pragmas
            .iter()
            .any(|p| rules.contains(&p.rule.as_str()) && line >= p.from_line && line <= p.to_line)
    })
}

/// Breadth-first walk from `roots`, recording the parent of each node the
/// first time it is reached (shortest chains, deterministic order).
fn bfs(g: &CallGraph, roots: &[usize]) -> Vec<Option<usize>> {
    // parent[i] = Some(caller) once reached; roots are their own parents.
    let mut parent: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut queue = VecDeque::new();
    for &r in roots {
        if parent[r].is_none() {
            parent[r] = Some(r);
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &g.edges[u] {
            if parent[e.to].is_none() {
                parent[e.to] = Some(u);
                queue.push_back(e.to);
            }
        }
    }
    parent
}

/// Reconstructs the chain root → … → `node` from a BFS parent array.
fn chain_to(parent: &[Option<usize>], node: usize) -> Vec<usize> {
    let mut chain = vec![node];
    let mut at = node;
    while let Some(p) = parent[at] {
        if p == at {
            break;
        }
        chain.push(p);
        at = p;
    }
    chain.reverse();
    chain
}

/// Panic-reachability: every `unwrap`/`expect`/`panic!`-family site
/// reachable from an entry spec, minus pragma-justified sites.
pub fn panic_reachability(
    g: &CallGraph,
    files: &BTreeMap<&str, &ParsedFile>,
    entries: &[String],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen_sites: BTreeMap<(String, u32, u32), ()> = BTreeMap::new();
    for spec in entries {
        let parent = bfs(g, &g.resolve_spec(spec));
        for (id, n) in g.nodes.iter().enumerate() {
            if parent[id].is_none() {
                continue;
            }
            for site in &n.panic_sites {
                let key = (n.file.clone(), site.line, site.col);
                if seen_sites.contains_key(&key) {
                    continue;
                }
                if justified(
                    files,
                    &n.file,
                    site.line,
                    &["panic-reachability", "panic-on-input-path"],
                ) {
                    continue;
                }
                seen_sites.insert(key, ());
                findings.push(Finding {
                    rule: "panic-reachability",
                    file: n.file.clone(),
                    site: site.clone(),
                    chain: chain_to(&parent, id),
                    anchor: spec.clone(),
                });
            }
        }
    }
    findings
}

/// Determinism-taint: every nondeterminism source reachable from a sink
/// spec, minus pragma-justified sites and exempt crates (`obs` is
/// egress-only telemetry; wall clocks are legal where
/// `wall-clock-in-core` already exempts them).
pub fn determinism_taint(
    g: &CallGraph,
    files: &BTreeMap<&str, &ParsedFile>,
    sinks: &[String],
) -> Vec<Finding> {
    let wall_clock_exempt = ["obs", "bench", "lint"];
    let mut findings = Vec::new();
    let mut seen_sites: BTreeMap<(String, u32, u32), ()> = BTreeMap::new();
    for spec in sinks {
        let parent = bfs(g, &g.resolve_spec(spec));
        for (id, n) in g.nodes.iter().enumerate() {
            if parent[id].is_none() {
                continue;
            }
            let krate = crate_of(&n.file);
            for site in &n.source_sites {
                let base_rule = match site.what.as_str() {
                    "HashMap" | "HashSet" => {
                        if krate == "obs" {
                            continue;
                        }
                        "nondeterministic-iteration"
                    }
                    "Instant" | "SystemTime" => {
                        if wall_clock_exempt.contains(&krate) {
                            continue;
                        }
                        "wall-clock-in-core"
                    }
                    _ => "determinism-taint", // RNG construction
                };
                let key = (n.file.clone(), site.line, site.col);
                if seen_sites.contains_key(&key) {
                    continue;
                }
                if justified(files, &n.file, site.line, &["determinism-taint", base_rule]) {
                    continue;
                }
                seen_sites.insert(key, ());
                findings.push(Finding {
                    rule: "determinism-taint",
                    file: n.file.clone(),
                    site: site.clone(),
                    chain: chain_to(&parent, id),
                    anchor: spec.clone(),
                });
            }
        }
    }
    findings
}

/// Converts a finding into the per-file [`Violation`] shape the baseline
/// ratchet and reports understand.
pub fn to_violation(g: &CallGraph, f: &Finding) -> (String, Violation) {
    let msg = format!(
        "{} from `{}`: {}",
        if f.rule == "panic-reachability" { "panic path" } else { "nondeterminism flow" },
        f.anchor,
        render_chain(g, f)
    );
    (f.file.clone(), Violation { rule: f.rule, line: f.site.line, col: f.site.col, msg })
}
