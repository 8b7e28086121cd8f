//! The product policy (DESIGN.md § Static analysis) is one crate-root
//! attribute, `#![cfg_attr(not(test), deny(…))]`, that clippy enforces.
//! This holds every product root to it, including crates added later:
//! each `crates/*` member except the dev tool `bench`, the root library
//! and the CLI.

use std::fs;
use std::path::{Path, PathBuf};

const NO_PANIC: [&str; 7] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "allow_attributes_without_reason",
];

/// The attribute a root must carry, whitespace-free as it is compared.
/// `obs` owns timing, so it alone may name the banned types.
fn policy(banned_types: bool) -> String {
    let lints = banned_types.then_some("disallowed_types").into_iter().chain(NO_PANIC);
    let lints: Vec<String> = lints.map(|l| format!("clippy::{l}")).collect();
    format!("#![cfg_attr(not(test),deny({}))]", lints.join(","))
}

fn product_roots() -> Vec<(PathBuf, bool)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![(root.join("src/lib.rs"), true), (root.join("src/bin/arrow.rs"), true)];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        if name != "bench" && dir.join("Cargo.toml").is_file() {
            roots.push((dir.join("src/lib.rs"), name != "obs"));
        }
    }
    roots.sort();
    roots
}

#[test]
fn every_product_root_denies_the_policy_outside_tests() {
    let roots = product_roots();
    assert!(roots.len() >= 9, "expected 7 product crates + the root lib + the CLI: {roots:?}");
    for (path, banned_types) in roots {
        let src = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e} (a product crate needs a lib root)", path.display())
        });
        let compact: String = src.chars().filter(|c| !c.is_whitespace()).collect();
        let want = policy(banned_types);
        assert!(
            compact.replace(",)", ")").contains(&want),
            "{} does not carry the product policy; add\n{want}",
            path.display()
        );
    }
}
