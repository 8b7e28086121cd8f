//! Chaos mode: deterministic correlated-failure bursts for the daemon.
//!
//! `arrow serve --chaos` injects [`FeedEvent::ChaosBurst`]s into the event
//! feed: multi-fiber cut sets from a seeded [`compile_universe`]
//! (k-combinations and auto-SRLGs), each with a planning *stall* that
//! models controller overload. Sized above the SLO budget, a stall forces
//! a deadline miss, a fallback and an incident dump on demand. Burst times
//! are a pure function of the config (mid-interval slots spread evenly
//! across the horizon), so the same seed injects byte-identical bursts.

use arrow_sim::{EventFeed, FeedEvent};
use arrow_topology::{compile_universe, UniverseConfig, Wan};

use super::ServeConfig;

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

/// In chaos mode, compiles the scenario universe and injects the config's
/// bursts into `feed`, spread evenly across `[FIRST_BURST_EPOCH, epochs)`
/// at mid-interval times (so a burst re-plan lands between two ticks).
pub(super) fn schedule_bursts(wan: &Wan, feed: &mut EventFeed, config: &ServeConfig) {
    let Some(cfg) = &config.chaos else { return };
    let epochs = config.epochs;
    if cfg.bursts == 0 || epochs == 0 {
        return;
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
        .map(|s| s.scenario.cut_fibers.iter().map(|f| f.0).collect::<Vec<_>>())
        .filter(|cut| !cut.is_empty())
        .collect();
    if cut_sets.iter().any(|cut| cut.len() >= 2) {
        cut_sets.retain(|cut| cut.len() >= 2);
    }
    if cut_sets.is_empty() {
        return;
    }

    let first = FIRST_BURST_EPOCH.min(epochs.saturating_sub(1));
    let span = (epochs - first).max(1);
    for i in 0..cfg.bursts {
        let fibers = cut_sets[(i as usize) % cut_sets.len()].clone();
        // Even spread: burst i sits at fraction (i + 0.5)/bursts of the
        // remaining horizon, at the middle of its epoch interval.
        let frac = (i as f64 + 0.5) / cfg.bursts as f64;
        let epoch = first + ((frac * span as f64) as u64).min(span - 1);
        let at = (epoch as f64 + 0.5) * config.epoch_interval_s;
        feed.inject(at, FeedEvent::ChaosBurst { fibers, stall_seconds: cfg.stall_seconds });
    }
    arrow_obs::event!(
        "daemon.chaos.scheduled",
        "bursts" => cfg.bursts,
        "stall_seconds" => cfg.stall_seconds
    );
}
