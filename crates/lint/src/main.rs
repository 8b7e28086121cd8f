//! The `arrow-lint` command-line driver.
//!
//! ```text
//! arrow-lint [--root DIR] [--check] [--json FILE] [--update-baseline]
//!            [--baseline FILE] [--list-rules] [--explain] [--dot FILE]
//!            [--entry SPEC]... [--sink SPEC]...
//! ```
//!
//! Default mode prints diagnostics and a summary (always exit 0).
//! `--check` is the CI gate: exit 1 on any unbaselined violation, bad
//! pragma, baseline drift in either direction (the ratchet only
//! tightens), or entry/sink spec that matches no function.
//! `--update-baseline` rewrites the baseline from the tree.
//!
//! The interprocedural analyses (panic-reachability, determinism-taint)
//! always run; `--explain` prints each flow violation's full call chain
//! frame-by-frame with file:line anchors, `--dot FILE` writes the
//! workspace call graph as Graphviz, and `--entry`/`--sink` add entry
//! points / taint sinks on top of the built-in defaults (suffix-matched
//! qualified names such as `ArrowController::plan_epoch`).

use arrow_lint::analysis::{
    determinism_taint, explain_chain, in_product_graph, panic_reachability, to_violation,
    unresolved_specs, DEFAULT_ENTRIES, DEFAULT_SINKS,
};
use arrow_lint::baseline::{compare, Baseline};
use arrow_lint::callgraph::CallGraph;
use arrow_lint::parser::{parse_file, ParsedFile};
use arrow_lint::rules::{check_file, classify, FileInput, Violation, RULES};
use arrow_lint::walk::{find_root, rel_str, rust_files};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const BASELINE_FILE: &str = "lint-baseline.tsv";

struct Options {
    root: Option<PathBuf>,
    check: bool,
    json: Option<PathBuf>,
    update_baseline: bool,
    baseline: Option<PathBuf>,
    list_rules: bool,
    explain: bool,
    dot: Option<PathBuf>,
    entries: Vec<String>,
    sinks: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        check: false,
        json: None,
        update_baseline: false,
        baseline: None,
        list_rules: false,
        explain: false,
        dot: None,
        entries: Vec::new(),
        sinks: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--update-baseline" => opts.update_baseline = true,
            "--list-rules" => opts.list_rules = true,
            "--explain" => opts.explain = true,
            "--root" => opts.root = Some(next_value(&mut args, "--root")?.into()),
            "--json" => opts.json = Some(next_value(&mut args, "--json")?.into()),
            "--baseline" => opts.baseline = Some(next_value(&mut args, "--baseline")?.into()),
            "--dot" => opts.dot = Some(next_value(&mut args, "--dot")?.into()),
            "--entry" => opts.entries.push(next_value(&mut args, "--entry")?),
            "--sink" => opts.sinks.push(next_value(&mut args, "--sink")?),
            "--help" | "-h" => {
                println!(
                    "arrow-lint: project-specific static analysis\n\n\
                     USAGE: arrow-lint [--root DIR] [--check] [--json FILE]\n\
                            [--update-baseline] [--baseline FILE] [--list-rules]\n\
                            [--explain] [--dot FILE] [--entry SPEC]... [--sink SPEC]..."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("arrow-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for (name, rationale) in RULES {
            println!("{name}\n    {rationale}");
        }
        return ExitCode::SUCCESS;
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = opts.root.clone().or_else(|| find_root(&cwd)) else {
        eprintln!("arrow-lint: no workspace root found (no ancestor Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };
    let baseline_path = opts.baseline.clone().unwrap_or_else(|| root.join(BASELINE_FILE));

    // Lint every file; parse product-library files for the call graph.
    let mut violations: Vec<(String, Violation)> = Vec::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let files = rust_files(&root);
    for rel in &files {
        let rel_s = rel_str(rel);
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("arrow-lint: cannot read {rel_s}: {e}");
                return ExitCode::from(2);
            }
        };
        let (crate_name, kind) = classify(&rel_s);
        let input = FileInput { rel_path: &rel_s, crate_name: &crate_name, kind, src: &src };
        for v in check_file(&input) {
            violations.push((rel_s.clone(), v));
        }
        if in_product_graph(&rel_s) {
            parsed.push(parse_file(&rel_s, &src));
        }
    }

    // Interprocedural analyses over the product call graph.
    let parsed_refs: Vec<&ParsedFile> = parsed.iter().collect();
    let graph = CallGraph::build(&parsed_refs);
    let by_path: BTreeMap<&str, &ParsedFile> =
        parsed.iter().map(|p| (p.rel_path.as_str(), p)).collect();
    let mut entries: Vec<String> = DEFAULT_ENTRIES.iter().map(|s| s.to_string()).collect();
    entries.extend(opts.entries.iter().cloned());
    let mut sinks: Vec<String> = DEFAULT_SINKS.iter().map(|s| s.to_string()).collect();
    sinks.extend(opts.sinks.iter().cloned());
    let mut unresolved = unresolved_specs(&graph, &entries);
    unresolved.extend(unresolved_specs(&graph, &sinks));
    for spec in &unresolved {
        println!("arrow-lint: spec `{spec}` resolves to no function — nothing is checked under it");
    }
    let mut findings = panic_reachability(&graph, &by_path, &entries);
    findings.extend(determinism_taint(&graph, &by_path, &sinks));
    if opts.explain {
        for f in &findings {
            print!("{}", explain_chain(&graph, f));
        }
    }
    for f in &findings {
        violations.push(to_violation(&graph, f));
    }
    if let Some(dot_path) = &opts.dot {
        if let Err(e) = std::fs::write(dot_path, graph.to_dot()) {
            eprintln!("arrow-lint: cannot write {}: {e}", dot_path.display());
            return ExitCode::from(2);
        }
    }

    // Aggregate per (rule, path). Bad pragmas are never baselinable.
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut bad_pragmas = 0usize;
    for (path, v) in &violations {
        if v.rule == "bad-pragma" {
            bad_pragmas += 1;
        } else {
            *counts.entry((v.rule.to_string(), path.clone())).or_insert(0) += 1;
        }
    }

    if opts.update_baseline {
        let text = Baseline::from_counts(&counts).serialize();
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("arrow-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "arrow-lint: baseline updated ({} entries)",
            counts.values().filter(|&&c| c > 0).count()
        );
        if bad_pragmas > 0 {
            eprintln!("arrow-lint: {bad_pragmas} bad pragma(s) remain — they cannot be baselined");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("arrow-lint: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(),
    };
    let ratchet = compare(&baseline, &counts);

    // A violation is "baselined" when its (rule, path) group is within
    // the accepted count; a group over budget reports every member.
    let over_budget = |rule: &str, path: &str| {
        ratchet.regressions.iter().any(|(r, p, _, _)| r == rule && p == path)
    };
    let mut unbaselined = 0usize;
    let mut rule_totals: BTreeMap<&str, (usize, usize)> = BTreeMap::new(); // (new, baselined)
    for (path, v) in &violations {
        let is_new = v.rule == "bad-pragma" || over_budget(v.rule, path);
        let slot = rule_totals.entry(v.rule).or_insert((0, 0));
        if is_new {
            slot.0 += 1;
            unbaselined += 1;
            println!("{path}:{}:{}: [{}] {}", v.line, v.col, v.rule, v.msg);
        } else {
            slot.1 += 1;
            if !opts.check {
                println!("{path}:{}:{}: [{}] (baselined) {}", v.line, v.col, v.rule, v.msg);
            }
        }
    }
    for (rule, path, cur, base) in &ratchet.stale {
        println!(
            "stale baseline: [{rule}] {path} has {cur} violation(s) but {base} baselined — \
             run `cargo run -p arrow-lint -- --update-baseline` to tighten the ratchet"
        );
    }

    // JSON report.
    if let Some(json_path) = &opts.json {
        let mut items = Vec::new();
        for (path, v) in &violations {
            let baselined = v.rule != "bad-pragma" && !over_budget(v.rule, path);
            items.push(format!(
                "    {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"baselined\":{},\"message\":\"{}\"}}",
                json_escape(v.rule),
                json_escape(path),
                v.line,
                v.col,
                baselined,
                json_escape(&v.msg)
            ));
        }
        let summary: Vec<String> = rule_totals
            .iter()
            .map(|(rule, (new, base))| {
                format!("    {{\"rule\":\"{rule}\",\"new\":{new},\"baselined\":{base}}}")
            })
            .collect();
        let clean = unbaselined == 0 && ratchet.is_clean() && unresolved.is_empty();
        let json = format!(
            "{{\n  \"files_checked\": {},\n  \"clean\": {},\n  \"stale_baseline_entries\": {},\n  \"summary\": [\n{}\n  ],\n  \"violations\": [\n{}\n  ]\n}}\n",
            files.len(),
            clean,
            ratchet.stale.len(),
            summary.join(",\n"),
            items.join(",\n")
        );
        if let Err(e) = std::fs::write(json_path, json) {
            eprintln!("arrow-lint: cannot write {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    let baselined_total: usize = rule_totals.values().map(|(_, b)| *b).sum();
    let edge_count: usize = graph.edges.iter().map(Vec::len).sum();
    println!(
        "arrow-lint: call graph {} fn(s), {} edge(s); {} entry / {} sink spec(s), {} flow finding(s)",
        graph.nodes.len(),
        edge_count,
        entries.len(),
        sinks.len(),
        findings.len(),
    );
    println!(
        "arrow-lint: {} file(s), {} unbaselined violation(s), {} baselined, {} stale baseline entr{}",
        files.len(),
        unbaselined,
        baselined_total,
        ratchet.stale.len(),
        if ratchet.stale.len() == 1 { "y" } else { "ies" },
    );

    if opts.check && (unbaselined > 0 || !ratchet.is_clean() || !unresolved.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
