//! Every experiment's report against `golden/<id>.txt`, byte for byte.
//!
//! The text must not depend on the thread count: CI runs the default
//! tests on the machine's threads and the two `#[ignore]`d ones with
//! `ARROW_THREADS=1`. The goldens are pinned to the `compat/rand` stream;
//! restoring upstream `rand` is a deliberate re-record
//! (`cargo run --release -p arrow-bench -- all --out crates/bench/golden`).

use std::fs;
use std::path::Path;
use std::sync::LazyLock;

use arrow_bench::{compare, run, Ctx, EXPERIMENTS};

/// One context for the whole test binary, so B4 / IBM / Facebook are each
/// set up once however many tests read them.
static CTX: LazyLock<Ctx> = LazyLock::new(Ctx::default);

fn golden(id: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{id}.txt"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check(id: &str) {
    let e = EXPERIMENTS.iter().find(|e| e.id == id).expect("listed in EXPERIMENTS");
    if let Err(msg) = compare(id, &golden(id), &run(e, &CTX)) {
        panic!("{msg}");
    }
}

macro_rules! goldens {
    ($($(#[$attr:meta])* $id:ident),* $(,)?) => {
        const COVERED: &[&str] = &[$(stringify!($id)),*];
        $(
            #[test]
            $(#[$attr])*
            fn $id() {
                check(stringify!($id));
            }
        )*
    };
}

goldens!(
    fig03,
    fig04,
    fig05,
    fig21,
    fig22,
    fig06,
    fig07,
    fig17,
    fig19,
    ext_cl,
    fig11,
    fig12,
    fig20,
    table04,
    #[ignore = "about two minutes: CI runs it in the --ignored step"]
    fig13,
    #[ignore = "about a minute: CI runs it in the --ignored step"]
    table05,
    fig14,
    fig15,
    fig16,
    table06,
    table08,
    thm31,
    ablation_alpha,
    ablation_rounding,
    ablation_playback,
);

#[test]
fn every_experiment_has_a_golden_test() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(COVERED, ids);
}
/// EXPERIMENTS.md's "Measured" cells are the goldens' `measured:` strings
/// (`|` escaped for the table), so the page cannot drift from the code.
#[test]
fn experiments_md_quotes_every_measured_string() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let page = fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap().replace("\\|", "|");
    for e in EXPERIMENTS {
        let text = golden(e.id);
        let summary = text.lines().find(|l| l.starts_with("SUMMARY ")).expect("a SUMMARY line");
        let measured = summary.split_once(" | measured: ").expect("a measured: field").1;
        assert!(page.contains(measured), "EXPERIMENTS.md does not quote {}: {measured}", e.id);
    }
}
