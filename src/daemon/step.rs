//! The serve loop's decisions, as one pure step.
//!
//! [`LoopState::step`] takes a feed event and the epoch it planned, its
//! measured seconds and verdict included, and decides what is counted, what
//! is installed, how the digest folds and which incident to dump. It reads
//! no clock, file or socket; [`super::serve`] is the shell around it.

use arrow_obs::hash::{fnv1a_word, FNV1A_OFFSET};
use arrow_obs::{event, Counter};
use arrow_sim::FeedEvent;

use super::ServeReport;

static EPOCHS: Counter = Counter::new("daemon.epochs", "epochs planned by the serve loop");
static FALLBACK: Counter =
    Counter::new("daemon.fallback", "late epochs that kept the installed plan");
static PLAN_ERRORS: Counter =
    Counter::new("daemon.plan_errors", "epochs that failed with a PlanError");
static CUTS: Counter = Counter::new("daemon.replan.cut", "re-plans on fiber cut or repair events");
static BURSTS: Counter = Counter::new("daemon.chaos.bursts", "chaos bursts delivered to the loop");

/// A computed plan: its winning ticket per scenario, whether Phase I's
/// warm start was an exact cache hit, and the epoch's SLO verdict.
pub(super) struct Planned<'a> {
    pub(super) winning: &'a [usize],
    pub(super) warm_hit: bool,
    pub(super) seconds: f64,
    pub(super) budget_seconds: f64,
    pub(super) met: bool,
}

/// An incident to dump: `deadline-miss` or `plan-error`, the planned-epoch
/// index, the triggering feed event, and the verdict or error text.
pub(super) struct Incident {
    pub(super) reason: &'static str,
    pub(super) epoch: u64,
    pub(super) trigger: String,
    pub(super) detail: String,
}

/// What the loop carries from one event to the next.
pub(super) struct LoopState {
    pub(super) report: ServeReport,
    /// The epoch whose plan is installed (None before the first install).
    pub(super) installed: Option<u64>,
    /// The last tick's demand scale, which re-plans between ticks use.
    last_scale: f64,
    warm_hits: u64,
}

impl LoopState {
    pub(super) fn new() -> LoopState {
        let report = ServeReport { winning_digest: FNV1A_OFFSET, ..ServeReport::default() };
        LoopState { report, installed: None, last_scale: 1.0, warm_hits: 0 }
    }

    /// The demand scale `event` plans at: a tick's own, else the last tick's.
    pub(super) fn scale_for(&self, event: &FeedEvent) -> f64 {
        match event {
            FeedEvent::EpochTick { demand_scale, .. } => *demand_scale,
            _ => self.last_scale,
        }
    }

    /// Accounts `event` (at simulated time `t`) and the epoch it planned.
    /// A plan within budget is installed, and so is a late one with nothing
    /// to fall back on (cold start on a slow machine): a late plan beats no
    /// plan. A late plan with a previous one installed is discarded: a
    /// fallback. A plan error keeps the installed plan and is no fallback.
    /// Returns the incident a deadline miss or plan error must dump.
    pub(super) fn step(
        &mut self,
        t: f64,
        event: &FeedEvent,
        outcome: Result<Planned<'_>, String>,
    ) -> Option<Incident> {
        self.last_scale = self.scale_for(event);
        let r = &mut self.report;
        let (kind, count, counter) = match event {
            FeedEvent::EpochTick { .. } => ("tick", &mut r.ticks, None),
            FeedEvent::FiberCut { .. } => ("fiber-cut", &mut r.cut_replans, Some(&CUTS)),
            FeedEvent::FiberRepair { .. } => ("fiber-repair", &mut r.cut_replans, Some(&CUTS)),
            FeedEvent::ChaosBurst { .. } => ("chaos-burst", &mut r.chaos_bursts, Some(&BURSTS)),
        };
        *count += 1;
        if let Some(counter) = counter {
            counter.inc();
        }
        let line = format!("t={t:.1} {}", event.label());
        let trigger = format!("{kind}: {line}");
        r.event_log.push(line);
        let epoch = r.epochs_planned;
        r.epochs_planned += 1;
        EPOCHS.inc();

        let incident = match outcome {
            Err(detail) => {
                r.plan_errors += 1;
                PLAN_ERRORS.inc();
                event!(warn: "daemon.plan.error", "epoch" => epoch, "error" => detail.clone());
                Some(Incident { reason: "plan-error", epoch, trigger, detail })
            }
            Ok(plan) => {
                r.epoch_seconds.push(plan.seconds);
                // Digest the *computed* plan: deterministic under a fixed
                // seed regardless of how the wall clock judged it.
                r.winning_digest = fnv1a_word(r.winning_digest, epoch);
                for &w in plan.winning {
                    r.winning_digest = fnv1a_word(r.winning_digest, w as u64);
                }
                self.warm_hits += u64::from(plan.warm_hit);
                let incident = (!plan.met).then(|| {
                    let verdict = format!(
                        "epoch took {:.3}s against a {:.3}s budget",
                        plan.seconds, plan.budget_seconds,
                    );
                    let detail = if let Some(previous) = self.installed {
                        r.fallbacks += 1;
                        FALLBACK.inc();
                        event!(warn: "daemon.fallback",
                            "epoch" => epoch,
                            "seconds" => plan.seconds,
                            "budget" => plan.budget_seconds);
                        format!("{verdict}; reusing plan from epoch {previous}")
                    } else {
                        format!("{verdict}; no previous plan, installing late")
                    };
                    Incident { reason: "deadline-miss", epoch, trigger, detail }
                });
                if plan.met || self.installed.is_none() {
                    self.installed = Some(epoch);
                }
                incident
            }
        };
        r.warm_hit_ratio = self.warm_hits as f64 / r.epochs_planned as f64;
        r.installed_history.push(self.installed);
        incident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: FeedEvent = FeedEvent::EpochTick { epoch: 0, demand_scale: 1.25 };

    /// Steps `event` once per entry `i`: `Some(s)` plans ticket `i + 1` in
    /// `s` of a 1 s budget, `None` fails. Incidents read `<epoch> <reason>:
    /// <detail's last clause>`.
    fn run(event: &FeedEvent, seconds: &[Option<f64>]) -> (LoopState, Vec<String>) {
        let mut state = LoopState::new();
        let incidents = (seconds.iter().enumerate())
            .filter_map(|(i, s)| {
                let winner = [i + 1];
                let plan = s.map(|seconds| Planned {
                    winning: &winner,
                    warm_hit: seconds <= 1.0,
                    seconds,
                    budget_seconds: 1.0,
                    met: seconds <= 1.0,
                });
                let inc = state.step(300.0, event, plan.ok_or_else(|| "no tickets".to_string()))?;
                Some(format!("{} {}: {}", inc.epoch, inc.reason, inc.detail.rsplit("; ").next()?))
            })
            .collect();
        (state, incidents)
    }

    /// Epoch seconds, installed history, fallbacks, plan errors, incidents.
    type Case = (&'static [Option<f64>], &'static [Option<u64>], u64, u64, &'static [&'static str]);

    #[test]
    fn step_decides_install_fallback_incident_and_digest() {
        #[rustfmt::skip]
        let cases: [Case; 5] = [
            // On time: installed, no incident.
            (&[Some(0.5)], &[Some(0)], 0, 0, &[]),
            // A late cold start installs late and says so.
            (&[Some(2.0)], &[Some(0)], 0, 0, &["0 deadline-miss: no previous plan, installing late"]),
            // Late with a previous plan: fallback, history repeats, and
            // the detail names the plan that keeps serving.
            (&[Some(0.5), Some(0.5), Some(2.0)], &[Some(0), Some(1), Some(1)], 1, 0,
                &["2 deadline-miss: reusing plan from epoch 1"]),
            // A plan error keeps the plan, is no fallback, and dumps.
            (&[Some(0.5), None], &[Some(0), Some(0)], 0, 1, &["1 plan-error: no tickets"]),
            // Nothing is installed before the first plan and something is
            // ever after: the shell flips `/readyz` once.
            (&[None, None, Some(0.5), None, Some(2.0)], &[None, None, Some(2), Some(2), Some(2)], 1, 3,
                &["0 plan-error: no tickets", "1 plan-error: no tickets",
                  "3 plan-error: no tickets", "4 deadline-miss: reusing plan from epoch 2"]),
        ];
        for (seconds, history, fallbacks, plan_errors, incidents) in cases {
            let (state, got) = run(&TICK, seconds);
            let r = &state.report;
            assert_eq!(r.installed_history, history);
            assert_eq!((r.fallbacks, r.plan_errors), (fallbacks, plan_errors), "{history:?}");
            assert_eq!(got, incidents);
            // Each computed plan folds its epoch and winner; an error, nothing.
            let planned = seconds.iter().zip(0..).filter(|(s, _)| s.is_some());
            let words = planned.flat_map(|(_, i)| [i, i + 1]);
            assert_eq!(r.winning_digest, words.fold(FNV1A_OFFSET, fnv1a_word));
        }
    }

    #[test]
    fn events_are_counted_and_a_dump_names_its_trigger() {
        let burst = FeedEvent::ChaosBurst { fibers: vec![1, 4], stall_seconds: 3.0 };
        let mut state = run(&TICK, &[Some(0.5)]).0;
        for event in [FeedEvent::FiberCut { fiber: 3 }, FeedEvent::FiberRepair { fiber: 3 }] {
            assert_eq!(state.scale_for(&event), 1.25, "a re-plan runs at the last tick's scale");
            state.step(600.0, &event, Err(String::new()));
        }
        let late =
            Planned { winning: &[], warm_hit: true, seconds: 3.0, budget_seconds: 1.0, met: false };
        let incident = state.step(750.0, &burst, Ok(late)).expect("a late burst dumps");
        assert_eq!(incident.trigger, "chaos-burst: t=750.0 burst:1+4@3.0s");
        let detail = "epoch took 3.000s against a 1.000s budget; reusing plan from epoch 0";
        assert_eq!(incident.detail, detail);
        let r = &state.report;
        assert_eq!((r.ticks, r.cut_replans, r.chaos_bursts, r.epochs_planned), (1, 2, 1, 4));
        assert_eq!(r.warm_hit_ratio, 0.5, "warm hits over every planned epoch");
    }
}
