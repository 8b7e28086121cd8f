//! Interprocedural analysis integration tests: parser item tree,
//! call-graph resolution, panic-reachability chains, determinism taint,
//! `--explain` rendering — all over the fixture mini-crate — plus the
//! linter's self-check on its own sources.

use arrow_lint::{
    check_source, determinism_taint, explain_chain, in_product_graph, module_path_of,
    panic_reachability, parse_file, render_chain, CallGraph, ParsedFile,
};
use std::collections::BTreeMap;

const PANICS_SRC: &str = include_str!("fixtures/mini_panics.rs");
const TAINT_SRC: &str = include_str!("fixtures/mini_taint.rs");

/// The fixture sources parsed under synthetic product-lib paths (their
/// real paths live under `tests/`, which `in_product_graph` excludes).
fn fixture() -> Vec<ParsedFile> {
    vec![
        parse_file("crates/mini/src/lib.rs", PANICS_SRC),
        parse_file("crates/mini/src/taint.rs", TAINT_SRC),
    ]
}

fn graph(files: &[ParsedFile]) -> (CallGraph, BTreeMap<&str, &ParsedFile>) {
    let refs: Vec<&ParsedFile> = files.iter().collect();
    let by_path: BTreeMap<&str, &ParsedFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    (CallGraph::build(&refs), by_path)
}

// ---------------------------------------------------------------- parser

#[test]
fn module_paths_follow_workspace_layout() {
    assert_eq!(module_path_of("crates/te/src/schemes/arrow.rs"), vec!["te", "schemes", "arrow"]);
    assert_eq!(module_path_of("crates/lp/src/lib.rs"), vec!["lp"]);
    assert_eq!(module_path_of("src/daemon/mod.rs"), vec!["arrow", "daemon"]);
    assert_eq!(module_path_of("src/bin/arrow.rs"), vec!["arrow", "bin", "arrow"]);
}

#[test]
fn parser_recovers_the_item_tree() {
    let files = fixture();
    let golden: Vec<(String, Option<String>, bool)> =
        files[0].fns.iter().map(|f| (f.qual.clone(), f.owner.clone(), f.is_test)).collect();
    let want = [
        ("mini::Planner::plan_epoch", Some("Planner"), false),
        ("mini::Planner::select_winning", Some("Planner"), false),
        ("mini::paths::disjoint", None, false),
        ("mini::paths::pick", None, false),
        ("mini::tests::test_code_is_outside_the_graph", None, true),
    ];
    assert_eq!(golden.len(), want.len(), "{golden:?}");
    for ((qual, owner, is_test), (wq, wo, wt)) in golden.iter().zip(want) {
        assert_eq!(qual, wq);
        assert_eq!(owner.as_deref(), wo);
        assert_eq!(*is_test, wt, "{wq}");
    }
    // Bodies are real token ranges, not empty placeholders.
    assert!(files[0].fns.iter().all(|f| f.body.1 > f.body.0));
}

// ------------------------------------------------------------ call graph

#[test]
fn graph_excludes_test_fns_and_resolves_specs() {
    let files = fixture();
    let (g, _) = graph(&files);
    assert!(g.resolve_spec("tests::test_code_is_outside_the_graph").is_empty());
    assert_eq!(g.resolve_spec("Planner::plan_epoch").len(), 1);
    assert_eq!(g.resolve_spec("paths::pick").len(), 1);
    // An entry resolves through any qual suffix, not just owner::name.
    assert_eq!(g.resolve_spec("mini::paths::pick"), g.resolve_spec("paths::pick"));
}

#[test]
fn edges_cover_method_path_and_free_calls() {
    let files = fixture();
    let (g, _) = graph(&files);
    let edge = |from: &str, to: &str| {
        let f = g.resolve_spec(from)[0];
        let t = g.resolve_spec(to)[0];
        g.edges[f].iter().any(|e| e.to == t)
    };
    assert!(edge("Planner::plan_epoch", "Planner::select_winning"), "method call");
    assert!(edge("Planner::select_winning", "paths::disjoint"), "module-path call");
    assert!(edge("paths::disjoint", "paths::pick"), "free call");
    // External qualifiers (std::…, Vec::…) resolve to nothing.
    let pick = g.resolve_spec("paths::pick")[0];
    assert!(g.edges[pick].is_empty());
}

#[test]
fn dot_export_marks_panicking_nodes() {
    let files = fixture();
    let (g, _) = graph(&files);
    let dot = g.to_dot();
    assert!(dot.starts_with("digraph callgraph {"), "{dot}");
    assert!(dot.contains("label=\"mini::paths::pick\", color=red"), "{dot}");
    assert!(dot.contains("label=\"mini::taint::collect_ids\", color=orange"), "{dot}");
}

// ----------------------------------------------------- panic reachability

#[test]
fn panic_chain_is_reported_with_full_path() {
    let files = fixture();
    let (g, by_path) = graph(&files);
    let findings = panic_reachability(&g, &by_path, &["Planner::plan_epoch".to_string()]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "panic-reachability");
    assert_eq!(f.file, "crates/mini/src/lib.rs");
    assert_eq!(f.site.what, "unwrap");
    assert_eq!(
        render_chain(&g, f),
        "plan_epoch → Planner::select_winning → paths::disjoint → paths::pick → unwrap"
    );
    let explained = explain_chain(&g, f);
    assert!(explained.contains("reachable from `Planner::plan_epoch`"), "{explained}");
    // Every frame carries a clickable file:line anchor.
    assert_eq!(explained.matches("crates/mini/src/lib.rs:").count(), 5, "{explained}");
}

#[test]
fn unreachable_panics_stay_silent() {
    let files = fixture();
    let (g, by_path) = graph(&files);
    // pick panics, but nothing in the taint file reaches it.
    let findings = panic_reachability(&g, &by_path, &["TicketSet::digest".to_string()]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn pragma_justifies_a_reachable_panic() {
    let src = PANICS_SRC.replace(
        ".unwrap()",
        ".unwrap() // arrow-lint: allow(panic-reachability) — fixture invariant: k >= 1",
    );
    let files = vec![parse_file("crates/mini/src/lib.rs", src.as_str())];
    let (g, by_path) = graph(&files);
    let findings = panic_reachability(&g, &by_path, &["Planner::plan_epoch".to_string()]);
    assert!(findings.is_empty(), "{findings:?}");
}

// ----------------------------------------------------- determinism taint

#[test]
fn hash_iteration_taints_the_digest_sink() {
    let files = fixture();
    let (g, by_path) = graph(&files);
    let findings = determinism_taint(&g, &by_path, &["TicketSet::digest".to_string()]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "determinism-taint");
    assert_eq!(f.file, "crates/mini/src/taint.rs");
    assert_eq!(f.site.what, "HashMap");
    assert_eq!(render_chain(&g, f), "digest → taint::collect_ids → HashMap");
}

#[test]
fn derive_seed_rng_is_not_a_source() {
    let files = fixture();
    let (g, _) = graph(&files);
    // `seeded` constructs an RNG, but the seed routes through derive_seed
    // on the same line, so it carries no source site.
    let seeded = g.resolve_spec("taint::seeded")[0];
    assert!(g.nodes[seeded].source_sites.is_empty(), "{:?}", g.nodes[seeded].source_sites);
}

// ------------------------------------------------------------ graph scope

#[test]
fn product_graph_scope() {
    assert!(in_product_graph("crates/core/src/controller.rs"));
    assert!(in_product_graph("src/daemon/mod.rs"));
    assert!(!in_product_graph("crates/lint/src/main.rs"), "dev tool");
    assert!(!in_product_graph("crates/bench/src/lib.rs"), "dev tool");
    assert!(!in_product_graph("crates/te/tests/determinism.rs"), "test target");
    assert!(!in_product_graph("examples/sweep.rs"), "example");
}

// ---------------------------------------------------- specs on this workspace

#[test]
fn default_specs_resolve_here_and_an_unresolved_spec_fails_check() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let lint = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_arrow-lint"))
            .args(["--root", root, "--check"])
            .args(extra)
            .output()
            .expect("run arrow-lint");
        (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    // Every `DEFAULT_ENTRIES` / `DEFAULT_SINKS` spec names a function of
    // this workspace: none is reported, and the gate is green.
    let (ok, stdout) = lint(&[]);
    assert!(ok && !stdout.contains("resolves to no function"), "{stdout}");
    // A spec that names nothing turns the gate red and is named.
    let (ok, stdout) = lint(&["--sink", "Model::structure_digest"]);
    assert!(!ok, "{stdout}");
    let unresolved: Vec<&str> =
        stdout.lines().filter(|l| l.contains("resolves to no function")).collect();
    assert_eq!(unresolved.len(), 1, "{stdout}");
    assert!(unresolved[0].contains("`Model::structure_digest`"), "{stdout}");
}

// -------------------------------------------------------------- self-check

#[test]
fn linter_self_check_is_clean() {
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&src_dir).expect("lint src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        let src = std::fs::read_to_string(&path).expect("readable source");
        let violations = check_source(&format!("crates/lint/src/{name}"), &src);
        assert!(violations.is_empty(), "crates/lint/src/{name}: {violations:?}");
        checked += 1;
    }
    assert!(checked >= 8, "expected the full lint crate, saw {checked} files");
}
