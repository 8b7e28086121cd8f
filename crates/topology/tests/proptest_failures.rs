//! Property tests for the correlated-failure scenario compiler.
//!
//! Two invariants the sharded offline stage leans on:
//!
//! * every compiled scenario carries a valid probability in `(0, 1]`, and
//!   the covered mass (healthy + failures) never exceeds certainty — for
//!   *any* seed, enumeration depth, correlation mechanism, or sampling
//!   budget;
//! * SRLG scenarios never split a shared-risk group: a conduit fails as
//!   one event or not at all.
//!
//! The paper's single- and double-cut lists (`generate_failures`) are
//! pinned bit for bit in `arrow-core`'s `determinism.rs`.

use std::sync::OnceLock;

use arrow_optical::FiberId;
use arrow_topology::{b4, compile_universe, ScenarioSource, SrlgGroup, UniverseConfig, Wan};
use proptest::prelude::*;

fn wan() -> &'static Wan {
    static WAN: OnceLock<Wan> = OnceLock::new();
    WAN.get_or_init(|| b4(17))
}

proptest! {
    #[test]
    fn compiled_probabilities_are_in_unit_interval(
        seed in any::<u64>(),
        max_k in 1usize..=3,
        cutoff_exp in 3u32..=6,
        auto_srlg_size in 0usize..=4,
        maintenance_window in 0usize..=3,
        flapping_count in 0usize..=3,
        max_scenarios in 0usize..=32,
    ) {
        let wan = wan();
        let cfg = UniverseConfig {
            seed,
            max_k,
            cutoff: 10f64.powi(-(cutoff_exp as i32)),
            auto_srlg_size,
            auto_srlg_probability: 2e-3,
            maintenance_window,
            maintenance_probability: 1e-3,
            flapping_count,
            max_scenarios,
            ..Default::default()
        };
        let uni = compile_universe(wan, &cfg);
        for c in &uni.scenarios {
            let p = c.scenario.probability;
            prop_assert!(p > 0.0 && p <= 1.0, "scenario {} probability {p} outside (0,1]", c.id);
            prop_assert!(!c.scenario.cut_fibers.is_empty(), "empty cut compiled as a failure");
        }
        prop_assert!(uni.healthy_probability > 0.0 && uni.healthy_probability <= 1.0);
        let covered = uni.covered_probability();
        prop_assert!(covered <= 1.0, "covered probability {covered} exceeds certainty");
        prop_assert!(covered > 0.0);
        if max_scenarios > 0 {
            prop_assert!(uni.len() <= max_scenarios, "sampling budget ignored");
        }
    }

    #[test]
    fn srlg_scenarios_never_split_a_group(
        seed in any::<u64>(),
        groups in proptest::collection::vec(
            (proptest::collection::vec(0usize..19, 2..5), 1u32..=40),
            1..4,
        ),
    ) {
        let wan = wan();
        let srlg: Vec<SrlgGroup> = groups
            .iter()
            .map(|(fibers, pm)| SrlgGroup {
                fibers: fibers.iter().map(|&f| FiberId(f)).collect(),
                probability: *pm as f64 * 1e-3,
            })
            .collect();
        let cfg = UniverseConfig { seed, max_k: 2, srlg: srlg.clone(), ..Default::default() };
        let uni = compile_universe(wan, &cfg);
        // Normalize each configured group to its sorted-dedup fiber set —
        // the exact cut set its scenario must carry.
        let normalized: Vec<Vec<FiberId>> = srlg
            .iter()
            .map(|g| {
                let mut f = g.fibers.clone();
                f.sort_unstable();
                f.dedup();
                f
            })
            .collect();
        for c in uni.scenarios.iter().filter(|c| c.source == ScenarioSource::Srlg) {
            prop_assert!(
                normalized.iter().any(|g| g == &c.scenario.cut_fibers),
                "SRLG scenario {:?} is not exactly one configured group",
                c.scenario.cut_fibers
            );
        }
        // Conversely: every configured group's cut set exists somewhere in
        // the universe (possibly attributed to a higher-probability k-cut
        // twin after dedup).
        for g in &normalized {
            prop_assert!(
                uni.scenarios.iter().any(|c| &c.scenario.cut_fibers == g),
                "group {g:?} vanished from the universe"
            );
        }
    }
}
