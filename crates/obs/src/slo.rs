//! Epoch-deadline SLO accounting for the online control loop.
//!
//! ARROW's online stage re-plans every TE epoch (five minutes in §5), so
//! its production health is a deadline story: *did this epoch's plan land
//! inside the budget, and how much error budget is left?* This module
//! turns each epoch's wall-clock duration into that accounting:
//!
//! * counters `slo.epoch.met` / `slo.epoch.missed` — per-epoch deadline
//!   verdicts against the configured budget (default 300 s);
//! * gauges `slo.epoch.p50.seconds` / `slo.epoch.p99.seconds` — exact
//!   latency quantiles over a sliding window of recent epochs (the
//!   controller's `epoch.seconds` histogram keeps the lifetime picture at
//!   bucket resolution);
//! * gauges `slo.error_budget.burn_rate` / `slo.error_budget.remaining` —
//!   how fast the windowed miss rate is consuming the error budget implied
//!   by the objective (default 99% of epochs on time), and the fraction of
//!   the lifetime budget still unspent. A burn rate of 1.0 means misses
//!   are arriving exactly as fast as the objective tolerates; above 1.0
//!   the SLO is being burned down.
//!
//! The controller (`ArrowController::plan_epoch` in `arrow-core`)
//! calls [`record_epoch`] once per epoch; a deadline miss additionally
//! emits a `slo.deadline.miss` warn event so trace subscribers see it in
//! context. Configuration is process-global ([`configure`]) because the
//! metrics registry it feeds is too.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::metrics::{Counter, Gauge};

/// Epoch-deadline SLO parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Per-epoch deadline in seconds. Defaults to 300 — the five-minute TE
    /// epoch of §5.
    pub budget_seconds: f64,
    /// Fraction of epochs that must meet the deadline (the SLO objective).
    /// The error budget is `1 - objective`.
    pub objective: f64,
    /// Number of recent epochs over which the rolling quantiles and the
    /// burn rate are computed.
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        DEFAULT_CONFIG
    }
}

/// [`SloConfig::default`], as a constant the engine's `static` can hold.
const DEFAULT_CONFIG: SloConfig = SloConfig { budget_seconds: 300.0, objective: 0.99, window: 128 };

/// The verdict for one recorded epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochVerdict {
    /// The epoch's wall-clock duration, as recorded.
    pub seconds: f64,
    /// The budget it was judged against.
    pub budget_seconds: f64,
    /// Whether the epoch met the deadline (`seconds <= budget`).
    pub met: bool,
    /// Windowed error-budget burn rate after this epoch.
    pub(crate) burn_rate: f64,
}

static MET: Counter = Counter::new("slo.epoch.met", "epochs planned within the SLO budget");
static MISSED: Counter = Counter::new("slo.epoch.missed", "epochs that overran the SLO budget");
static BUDGET: Gauge = Gauge::new("slo.budget.seconds", "per-epoch SLO deadline in seconds");
static P50: Gauge = Gauge::new("slo.epoch.p50.seconds", "windowed median epoch seconds");
static P99: Gauge = Gauge::new("slo.epoch.p99.seconds", "windowed p99 epoch seconds");
static BURN_RATE: Gauge =
    Gauge::new("slo.error_budget.burn_rate", "windowed miss rate over the allowed rate");
static REMAINING: Gauge =
    Gauge::new("slo.error_budget.remaining", "unspent share of the lifetime error budget");

struct SloState {
    config: SloConfig,
    /// Recent epoch durations, newest last, at most `config.window` long.
    recent: VecDeque<f64>,
    /// Deadline misses within `recent`.
    recent_missed: usize,
}

static STATE: Mutex<SloState> =
    Mutex::new(SloState { config: DEFAULT_CONFIG, recent: VecDeque::new(), recent_missed: 0 });

fn lock_state() -> std::sync::MutexGuard<'static, SloState> {
    // A panic while holding the lock leaves consistent (if stale) state;
    // recover rather than poison every later epoch.
    STATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Replaces the process-global SLO configuration and resets the rolling
/// window (lifetime counters are kept: they are registry counters).
pub fn configure(config: SloConfig) {
    let mut state = lock_state();
    state.config = sanitized(config);
    state.recent.clear();
    state.recent_missed = 0;
    BUDGET.set(state.config.budget_seconds);
}

/// The currently configured SLO parameters.
#[cfg(test)]
pub(crate) fn config() -> SloConfig {
    lock_state().config.clone()
}

/// Clamps pathological configurations instead of erroring: the SLO engine
/// must keep accounting with whatever it is given.
fn sanitized(mut config: SloConfig) -> SloConfig {
    if !config.budget_seconds.is_finite() || config.budget_seconds <= 0.0 {
        config.budget_seconds = SloConfig::default().budget_seconds;
    }
    if !config.objective.is_finite() {
        config.objective = SloConfig::default().objective;
    }
    config.objective = config.objective.clamp(0.0, 1.0 - 1e-9);
    config.window = config.window.max(1);
    config
}

/// Exact quantile of a small sample: the ceil(q·n)-th order statistic
/// (sorts a copy; 0.0 when empty).
pub fn exact_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Records one epoch's wall-clock duration against the configured budget,
/// updating every SLO metric, and returns the verdict. Called by the
/// controller once per `plan_epoch`.
pub fn record_epoch(seconds: f64) -> EpochVerdict {
    let mut state = lock_state();
    let budget = state.config.budget_seconds;
    // A non-finite duration can only come from a clock bug; count it as a
    // miss so it is visible rather than silently dropped.
    let met = seconds.is_finite() && seconds <= budget;

    // Both counters move every epoch, so both families are exported from
    // the first epoch on, a zero miss count included.
    MET.add(u64::from(met));
    MISSED.add(u64::from(!met));
    if state.recent.len() == state.config.window {
        if let Some(evicted) = state.recent.pop_front() {
            if !(evicted.is_finite() && evicted <= budget) {
                state.recent_missed = state.recent_missed.saturating_sub(1);
            }
        }
    }
    state.recent.push_back(seconds);
    if !met {
        state.recent_missed += 1;
    }

    // Rolling quantiles, exact over the window.
    let recent = state.recent.make_contiguous();
    let (p50, p99) = (exact_quantile(recent, 0.50), exact_quantile(recent, 0.99));

    // Error budget: the objective tolerates a miss fraction of
    // `1 - objective`. Burn rate is the windowed miss fraction in units of
    // that allowance; remaining is the unspent fraction of the lifetime
    // allowance, clamped at zero once overspent.
    let allowance = 1.0 - state.config.objective;
    let window_miss_fraction = state.recent_missed as f64 / state.recent.len() as f64;
    let burn_rate = window_miss_fraction / allowance;
    let lifetime_miss_fraction = MISSED.get() as f64 / (MET.get() + MISSED.get()) as f64;
    let remaining = (1.0 - lifetime_miss_fraction / allowance).max(0.0);

    BUDGET.set(budget);
    P50.set(p50);
    P99.set(p99);
    BURN_RATE.set(burn_rate);
    REMAINING.set(remaining);
    drop(state);

    if !met {
        crate::event!(
            warn: "slo.deadline.miss",
            "seconds" => seconds,
            "budget_seconds" => budget,
            "burn_rate" => burn_rate,
        );
    }
    EpochVerdict { seconds, budget_seconds: budget, met, burn_rate }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    /// The engine is process-global; tests that reconfigure it must not
    /// interleave.
    fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn verdicts_split_on_the_budget() {
        let _guard = engine_lock();
        configure(SloConfig { budget_seconds: 1.0, objective: 0.5, ..Default::default() });
        let before = metrics::snapshot();
        assert!(record_epoch(0.5).met);
        assert!(!record_epoch(2.0).met);
        assert!(record_epoch(1.0).met, "exactly on budget meets the deadline");
        let after = metrics::snapshot();
        let (met, missed) = (after.counter("slo.epoch.met"), after.counter("slo.epoch.missed"));
        assert_eq!(met - before.counter("slo.epoch.met"), 2);
        assert_eq!(missed - before.counter("slo.epoch.missed"), 1);
        assert_eq!(after.gauge("slo.budget.seconds"), Some(1.0));
        // Remaining is the unspent share of the lifetime allowance: a 0.5
        // objective lets half of every epoch this process judged miss.
        let spent = missed as f64 / (met + missed) as f64 / 0.5;
        assert_eq!(after.gauge("slo.error_budget.remaining"), Some((1.0 - spent).max(0.0)));
    }

    #[test]
    fn burn_rate_scales_with_windowed_misses() {
        let _guard = engine_lock();
        configure(SloConfig { budget_seconds: 1.0, objective: 0.9, window: 10 });
        for _ in 0..9 {
            record_epoch(0.1);
        }
        // 1 miss in a full window of 10 at a 10% allowance: burn rate 1.0.
        let v = record_epoch(5.0);
        assert!(!v.met);
        assert!((v.burn_rate - 1.0).abs() < 1e-9, "burn rate {}", v.burn_rate);
        // A second miss doubles it (2/10 misses over a 0.1 allowance).
        let v = record_epoch(5.0);
        assert!((v.burn_rate - 2.0).abs() < 1e-9, "burn rate {}", v.burn_rate);
        // Misses roll out of the window as fast epochs displace them.
        for _ in 0..10 {
            record_epoch(0.1);
        }
        let snap = metrics::snapshot();
        assert_eq!(snap.gauge("slo.error_budget.burn_rate"), Some(0.0));
    }

    #[test]
    fn rolling_quantiles_track_the_window() {
        let _guard = engine_lock();
        configure(SloConfig { budget_seconds: 100.0, objective: 0.99, window: 100 });
        for i in 1..=100 {
            record_epoch(i as f64 / 100.0);
        }
        let snap = metrics::snapshot();
        let p50 = snap.gauge("slo.epoch.p50.seconds").unwrap_or(0.0);
        let p99 = snap.gauge("slo.epoch.p99.seconds").unwrap_or(0.0);
        assert!((p50 - 0.50).abs() < 1e-9, "p50 {p50}");
        assert!((p99 - 0.99).abs() < 1e-9, "p99 {p99}");
        // Slow epochs entering the window move the tail immediately.
        record_epoch(10.0);
        let p99 = metrics::snapshot().gauge("slo.epoch.p99.seconds").unwrap_or(0.0);
        assert!(p99 > 0.99, "p99 {p99} should feel the outlier");
    }

    #[test]
    fn pathological_configs_are_sanitized() {
        let _guard = engine_lock();
        configure(SloConfig { budget_seconds: f64::NAN, objective: 2.0, window: 0 });
        let cfg = config();
        assert_eq!(cfg.budget_seconds, SloConfig::default().budget_seconds);
        assert!(cfg.objective < 1.0);
        assert_eq!(cfg.window, 1);
        // Non-finite epoch durations count as misses, not silent drops.
        let before = metrics::snapshot().counter("slo.epoch.missed");
        assert!(!record_epoch(f64::NAN).met);
        assert_eq!(metrics::snapshot().counter("slo.epoch.missed"), before + 1);
        configure(SloConfig::default());
    }

    #[test]
    fn deadline_miss_emits_warn_event() {
        let _guard = engine_lock();
        let _sub_guard = crate::trace::test_subscriber_lock();
        configure(SloConfig { budget_seconds: 0.5, ..Default::default() });
        let ring = std::sync::Arc::new(crate::trace::RingSubscriber::new(16));
        crate::trace::install(ring.clone());
        record_epoch(1.0);
        crate::trace::uninstall();
        let warns: Vec<_> = ring
            .records()
            .into_iter()
            .filter(|r| r.name == "slo.deadline.miss" && r.level == crate::Level::Warn)
            .collect();
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].field("budget_seconds").and_then(crate::FieldValue::as_f64), Some(0.5));
        configure(SloConfig::default());
    }
}
