//! The `scenario.*` counters carry the final `UniverseStats` of every
//! universe built, one counter per field, through both entry points.
//! Counters are process-global, so this binary holds this one test.

use arrow_obs::metrics::snapshot;
use arrow_topology::{b4, compile_universe, generate_failures, FailureConfig, UniverseConfig};

#[test]
fn scenario_counters_match_the_final_stats_of_both_entry_points() {
    let fields = ["enumerated", "deduped", "sampled_out", "kept"].map(|f| format!("scenario.{f}"));
    let read = || fields.clone().map(|name| snapshot().counter(&name) as usize);
    let moved_since = |before: [usize; 4]| -> Vec<usize> {
        read().iter().zip(before).map(|(now, then)| now - then).collect()
    };
    let wan = b4(17);

    // `generate_failures` caps after compiling: the counters see the cap.
    let full = generate_failures(&wan, &FailureConfig::default()).len();
    let before = read();
    let capped = generate_failures(&wan, &FailureConfig { max_scenarios: 5, ..Default::default() });
    let n = capped.stats.enumerated;
    assert_eq!(moved_since(before), [n, n - full, full - 5, 5]);

    // `compile_universe` with importance sampling.
    let base = UniverseConfig { max_k: 2, cutoff: 1e-4, ..Default::default() };
    let unsampled = compile_universe(&wan, &base).len();
    let before = read();
    let sampled = compile_universe(&wan, &UniverseConfig { max_scenarios: 24, ..base });
    let n = sampled.stats.enumerated;
    assert_eq!(moved_since(before), [n, n - unsampled, unsampled - 24, 24]);
}
