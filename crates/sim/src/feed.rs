//! The daemon's event feed: a seeded, pre-scheduled calendar of epoch
//! ticks, fiber cuts/repairs, and injected chaos bursts.
//!
//! `arrow serve` is driven by the same `EventQueue` calendar the
//! restoration trial uses, but over controller-scale events:
//! every `epoch_interval_s` of simulated time an [`FeedEvent::EpochTick`]
//! fires with a demand-scale factor (a diurnal sinusoid times seeded
//! telemetry jitter), and a seeded Poisson-ish process sprinkles
//! single-fiber cuts (each followed by its repair) between the ticks.
//! Everything is scheduled up front from one [`rand::rngs::StdRng`], so a
//! feed is fully determined by its [`FeedConfig`] — two feeds built from
//! the same config drain to byte-identical event sequences, which the
//! chaos-determinism test asserts.
//!
//! The feed deliberately knows nothing about topologies or scenario
//! universes: it deals in fiber *indices*. The daemon's chaos module maps
//! `compile_universe` cut sets onto those indices and [`EventFeed::inject`]s
//! correlated bursts; keeping that mapping out of this crate keeps
//! `arrow-sim` free of an `arrow-topology` dependency.

use crate::event::{EventQueue, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One event delivered by the feed, in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedEvent {
    /// Start of a TE epoch. `demand_scale` multiplies the base traffic
    /// matrix: diurnal curve × seeded telemetry jitter.
    EpochTick {
        /// Zero-based epoch index.
        epoch: u64,
        /// Demand multiplier for this epoch.
        demand_scale: f64,
    },
    /// A single fiber failed; the controller re-plans immediately.
    FiberCut {
        /// Index of the failed fiber.
        fiber: usize,
    },
    /// A previously cut fiber came back.
    FiberRepair {
        /// Index of the repaired fiber.
        fiber: usize,
    },
    /// A correlated burst (injected by chaos mode): several fibers fail
    /// together and the planning stack is stalled for `stall_seconds` of
    /// wall-clock time, modelling a controller overload.
    ChaosBurst {
        /// Indices of the fibers failing together.
        fibers: Vec<usize>,
        /// Wall-clock stall to inject into the epoch's deadline window.
        stall_seconds: f64,
    },
}

impl FeedEvent {
    /// A compact, deterministic label for event-sequence logs
    /// (`tick:3@x1.084`, `cut:2`, `repair:2`, `burst:1+4@3.0s`).
    pub fn label(&self) -> String {
        match self {
            FeedEvent::EpochTick { epoch, demand_scale } => {
                format!("tick:{epoch}@x{demand_scale:.4}")
            }
            FeedEvent::FiberCut { fiber } => format!("cut:{fiber}"),
            FeedEvent::FiberRepair { fiber } => format!("repair:{fiber}"),
            FeedEvent::ChaosBurst { fibers, stall_seconds } => {
                let list = fibers.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("+");
                format!("burst:{list}@{stall_seconds:.1}s")
            }
        }
    }
}

/// Everything that determines a feed. Same config ⇒ same event sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedConfig {
    /// RNG seed for jitter and cut placement.
    pub seed: u64,
    /// Simulated seconds between epoch ticks (ARROW §5: five minutes).
    pub epoch_interval_s: f64,
    /// Number of epoch ticks to schedule; the feed's horizon is
    /// `epochs * epoch_interval_s`.
    pub epochs: u64,
    /// Fibers the cut process may pick from (0 disables random cuts).
    pub num_fibers: usize,
    /// Mean simulated seconds between random single-fiber cuts
    /// (exponential inter-arrivals; `0.0` disables the cut process).
    pub mean_cut_interval_s: f64,
    /// Simulated seconds from a cut to its repair.
    pub repair_after_s: f64,
    /// Telemetry-noise amplitude: each tick's demand scale is the diurnal
    /// curve times a uniform draw from `[1 - jitter, 1 + jitter]`.
    pub demand_jitter: f64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            seed: 42,
            epoch_interval_s: 300.0,
            epochs: 12,
            num_fibers: 0,
            mean_cut_interval_s: 0.0,
            repair_after_s: 1800.0,
            demand_jitter: 0.05,
        }
    }
}

/// The diurnal demand curve: a 24-hour sinusoid around 1.0, ±25% — the
/// same shape the online sweep replays, continuous in simulated time.
fn diurnal(t: SimTime) -> f64 {
    1.0 + 0.25 * (2.0 * std::f64::consts::PI * t / 86_400.0).sin()
}

/// A drained-in-order calendar of [`FeedEvent`]s.
pub struct EventFeed {
    queue: EventQueue<FeedEvent>,
}

/// `config` with non-finite or negative values clamped to safe ones, so
/// they cannot panic the queue.
fn sanitized(mut config: FeedConfig) -> FeedConfig {
    if !config.epoch_interval_s.is_finite() || config.epoch_interval_s <= 0.0 {
        config.epoch_interval_s = 300.0;
    }
    if !config.mean_cut_interval_s.is_finite() || config.mean_cut_interval_s < 0.0 {
        config.mean_cut_interval_s = 0.0;
    }
    if !config.repair_after_s.is_finite() || config.repair_after_s <= 0.0 {
        config.repair_after_s = 1800.0;
    }
    if !config.demand_jitter.is_finite() || config.demand_jitter < 0.0 {
        config.demand_jitter = 0.0;
    }
    config
}

impl EventFeed {
    /// Schedules the whole calendar — ticks, cuts, repairs — up front
    /// from the config's seed. Non-finite or negative config values are
    /// clamped to safe ones rather than panicking the queue.
    pub fn new(config: FeedConfig) -> EventFeed {
        let config = sanitized(config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut queue = EventQueue::new();
        let horizon = config.epochs as f64 * config.epoch_interval_s;

        // Epoch ticks: one per interval, demand = diurnal × jitter.
        for epoch in 0..config.epochs {
            let t = epoch as f64 * config.epoch_interval_s;
            let jitter = if config.demand_jitter > 0.0 {
                rng.gen_range(1.0 - config.demand_jitter..=1.0 + config.demand_jitter)
            } else {
                1.0
            };
            queue.schedule(t, FeedEvent::EpochTick { epoch, demand_scale: diurnal(t) * jitter });
        }

        // The cut process: exponential inter-arrivals, uniform fiber pick,
        // each cut repaired `repair_after_s` later (repairs may land past
        // the horizon; they are dropped — the daemon has already exited).
        if config.mean_cut_interval_s > 0.0 && config.num_fibers > 0 {
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() * config.mean_cut_interval_s;
                if t >= horizon {
                    break;
                }
                let fiber = rng.gen_range(0..config.num_fibers);
                queue.schedule(t, FeedEvent::FiberCut { fiber });
                let repair_at = t + config.repair_after_s;
                if repair_at < horizon {
                    queue.schedule(repair_at, FeedEvent::FiberRepair { fiber });
                }
            }
        }

        EventFeed { queue }
    }

    /// Injects an extra event (chaos bursts) at simulated time `at`,
    /// clamped to the current simulated clock so a late injection cannot
    /// violate the queue's no-time-travel invariant.
    pub fn inject(&mut self, at: SimTime, event: FeedEvent) {
        let at = if at.is_finite() { at.max(self.queue.now()) } else { self.queue.now() };
        self.queue.schedule(at, event);
    }

    /// Delivers the next event, advancing simulated time. `None` once the
    /// calendar is drained.
    pub fn next_event(&mut self) -> Option<(SimTime, FeedEvent)> {
        self.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut feed: EventFeed) -> Vec<(SimTime, FeedEvent)> {
        let mut out = Vec::new();
        while let Some(ev) = feed.next_event() {
            out.push(ev);
        }
        out
    }

    fn churny() -> FeedConfig {
        FeedConfig {
            seed: 7,
            epochs: 20,
            num_fibers: 12,
            mean_cut_interval_s: 900.0,
            repair_after_s: 600.0,
            ..Default::default()
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = drain(EventFeed::new(churny()));
        let b = drain(EventFeed::new(churny()));
        assert!(!a.is_empty());
        assert_eq!(a, b, "a feed is a pure function of its config");
        let log_a: Vec<String> = a.iter().map(|(t, e)| format!("t={t:.3} {}", e.label())).collect();
        let log_b: Vec<String> = b.iter().map(|(t, e)| format!("t={t:.3} {}", e.label())).collect();
        assert_eq!(log_a, log_b, "labelled logs are byte-identical");
    }

    #[test]
    fn different_seed_different_sequence() {
        let a = drain(EventFeed::new(churny()));
        let b = drain(EventFeed::new(FeedConfig { seed: 8, ..churny() }));
        assert_ne!(a, b);
    }

    #[test]
    fn ticks_cover_every_epoch_in_order() {
        let events = drain(EventFeed::new(churny()));
        let ticks: Vec<u64> = events
            .iter()
            .filter_map(|(_, e)| match e {
                FeedEvent::EpochTick { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(ticks, (0..20).collect::<Vec<_>>());
        // Demand scales stay within diurnal ± jitter bounds.
        for (_, e) in &events {
            if let FeedEvent::EpochTick { demand_scale, .. } = e {
                assert!(
                    (0.7..=1.35).contains(demand_scale),
                    "demand scale {demand_scale} out of envelope"
                );
            }
        }
    }

    #[test]
    fn cuts_are_within_horizon_and_repaired_in_order() {
        let cfg = churny();
        let horizon = cfg.epochs as f64 * cfg.epoch_interval_s;
        let events = drain(EventFeed::new(cfg.clone()));
        let mut down: Vec<usize> = Vec::new();
        let mut cuts = 0;
        for (t, e) in &events {
            assert!(*t < horizon + cfg.repair_after_s);
            match e {
                FeedEvent::FiberCut { fiber } => {
                    cuts += 1;
                    assert!(*fiber < cfg.num_fibers);
                    down.push(*fiber);
                }
                FeedEvent::FiberRepair { fiber } => {
                    let pos = down.iter().position(|f| f == fiber);
                    assert!(pos.is_some(), "repair of a fiber that was never cut");
                    down.remove(pos.unwrap_or(0));
                }
                _ => {}
            }
        }
        assert!(cuts > 0, "a 6000s horizon at mean 900s spacing should see cuts");
    }

    #[test]
    fn time_is_nondecreasing() {
        let events = drain(EventFeed::new(churny()));
        for w in events.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn injected_bursts_are_delivered_at_their_time() {
        let mut feed = EventFeed::new(FeedConfig { epochs: 4, ..Default::default() });
        feed.inject(450.0, FeedEvent::ChaosBurst { fibers: vec![1, 4], stall_seconds: 3.0 });
        let mut seen_at = None;
        while let Some((t, e)) = feed.next_event() {
            if let FeedEvent::ChaosBurst { ref fibers, .. } = e {
                assert_eq!(fibers, &[1, 4]);
                seen_at = Some(t);
            }
        }
        assert_eq!(seen_at, Some(450.0), "burst lands mid-interval");
    }

    #[test]
    fn degenerate_configs_are_clamped_not_panicking() {
        let config = FeedConfig {
            epoch_interval_s: f64::NAN,
            mean_cut_interval_s: -5.0,
            repair_after_s: 0.0,
            demand_jitter: f64::INFINITY,
            epochs: 2,
            num_fibers: 3,
            ..Default::default()
        };
        let clamped = sanitized(config.clone());
        assert_eq!(clamped.epoch_interval_s, 300.0);
        assert_eq!(clamped.mean_cut_interval_s, 0.0);
        assert_eq!(clamped.demand_jitter, 0.0);
        assert_eq!(drain(EventFeed::new(config)).len(), 2, "just the two ticks");
    }
}
