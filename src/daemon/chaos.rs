//! Chaos mode: deterministic correlated-failure bursts for the daemon.
//!
//! `arrow serve --chaos` injects [`FeedEvent::ChaosBurst`]s into the
//! event feed: correlated multi-fiber cut sets drawn from the same
//! [`compile_universe`] sources the offline sharding pipeline uses
//! (k-combinations and auto-SRLGs), paired with a planning *stall* that
//! burns wall-clock time inside the epoch's deadline window. The stall
//! models controller overload — the exact failure mode the flight
//! recorder exists to capture — and is sized above the SLO budget so
//! every burst forces a deadline miss, a previous-plan fallback, and an
//! incident dump, on demand and deterministically.
//!
//! Determinism: burst cut sets come from a seeded universe compile and
//! burst times are a pure function of the config (mid-interval slots
//! spread evenly across the horizon), so two runs with the same seed
//! inject byte-identical bursts. No wall clock, no extra RNG state.

use arrow_sim::{EventFeed, FeedEvent};
use arrow_topology::{compile_universe, UniverseConfig, Wan};

/// Chaos-mode settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the scenario-universe compile the cut sets come from.
    pub seed: u64,
    /// Number of bursts to inject across the soak.
    pub bursts: u64,
    /// Wall-clock stall injected into each burst epoch's planning window.
    /// Size this above the SLO budget to force a deadline miss.
    pub stall_seconds: f64,
}

/// Cap on the compiled universe feeding the cut sets.
const MAX_SCENARIOS: usize = 32;

/// Earliest epoch a burst may land in (leave the cold-start epoch and the
/// first warm epoch alone so the cache is primed).
const FIRST_BURST_EPOCH: u64 = 2;

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 1337, bursts: 3, stall_seconds: 3.0 }
    }
}

/// Compiles the scenario universe and injects `cfg.bursts` correlated
/// bursts into `feed`, spread evenly across `[FIRST_BURST_EPOCH, epochs)`
/// at mid-interval times (so a burst re-plan lands between two ticks).
/// Returns the number of bursts injected.
pub fn schedule_bursts(
    wan: &Wan,
    feed: &mut EventFeed,
    cfg: &ChaosConfig,
    epochs: u64,
    epoch_interval_s: f64,
) -> u64 {
    if cfg.bursts == 0 || epochs == 0 {
        return 0;
    }
    let universe = compile_universe(
        wan,
        &UniverseConfig {
            seed: cfg.seed,
            max_k: 2,
            auto_srlg_size: 3,
            max_scenarios: MAX_SCENARIOS,
            ..Default::default()
        },
    );
    // Prefer genuinely correlated (multi-fiber) cut sets; fall back to
    // single cuts if the topology is too small to yield any.
    let mut cut_sets: Vec<Vec<usize>> = universe
        .scenarios
        .iter()
        .filter(|s| s.scenario.cut_fibers.len() >= 2)
        .map(|s| s.scenario.cut_fibers.iter().map(|f| f.0).collect())
        .collect();
    if cut_sets.is_empty() {
        cut_sets = universe
            .scenarios
            .iter()
            .filter(|s| !s.scenario.cut_fibers.is_empty())
            .map(|s| s.scenario.cut_fibers.iter().map(|f| f.0).collect())
            .collect();
    }
    if cut_sets.is_empty() {
        return 0;
    }

    let first = FIRST_BURST_EPOCH.min(epochs.saturating_sub(1));
    let span = (epochs - first).max(1);
    let mut injected = 0;
    for i in 0..cfg.bursts {
        let fibers = cut_sets[(i as usize) % cut_sets.len()].clone();
        // Even spread: burst i sits at fraction (i + 0.5)/bursts of the
        // remaining horizon, at the middle of its epoch interval.
        let frac = (i as f64 + 0.5) / cfg.bursts as f64;
        let epoch = first + ((frac * span as f64) as u64).min(span - 1);
        let at = (epoch as f64 + 0.5) * epoch_interval_s;
        feed.inject(at, FeedEvent::ChaosBurst { fibers, stall_seconds: cfg.stall_seconds });
        injected += 1;
    }
    arrow_obs::event!(
        "daemon.chaos.scheduled",
        "bursts" => injected,
        "stall_seconds" => cfg.stall_seconds
    );
    injected
}
