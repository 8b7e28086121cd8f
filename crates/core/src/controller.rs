//! The ARROW controller: the end-to-end pipeline of Fig. 8.
//!
//! **Offline stage** (runs when the IP/optical mapping changes, not per TE
//! epoch): enumerate failure scenarios, solve the RWA relaxation per
//! scenario, and generate LotteryTickets by randomized rounding
//! ([`crate::lottery`]).
//!
//! **Online stage** (every TE epoch, e.g. five minutes): take the current
//! traffic matrix, solve Phase I to pick the winning ticket per scenario,
//! solve Phase II for tunnel allocations, derive router splitting ratios
//! `ω_{f,t}`, and compile each winning ticket into concrete ROADM
//! reconfiguration rules (which wavelengths move onto which surrogate
//! fibers) ready to install so the network reacts in seconds when a cut
//! actually happens (§5).

use crate::lottery::{generate_tickets, LotteryConfig, OfflineStats};
use crate::par::parallel_map;
use arrow_optical::rwa::greedy_assign;
use arrow_optical::FiberPath;
use arrow_te::schemes::arrow::{Arrow, ArrowOnline, ArrowOutcome};
use arrow_te::tunnels::{build_instance, TeInstance, TunnelConfig};
use arrow_te::{RestorationTicket, TicketSet};
use arrow_topology::{FailureScenario, TrafficMatrix, Wan};

/// Wavelength-reconfiguration rules for one failure scenario, installable
/// on the ROADMs ahead of time.
#[derive(Debug, Clone)]
pub struct ReconfigRule {
    /// Index of the scenario this rule serves.
    pub scenario: usize,
    /// The lightpath (failed IP link) being restored.
    pub lightpath: arrow_optical::LightpathId,
    /// Surrogate routes: `(fiber path, spectrum slots to occupy)`.
    pub routes: Vec<(FiberPath, Vec<usize>)>,
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// LotteryTicket generation settings (offline stage).
    pub lottery: LotteryConfig,
    /// Tunnel selection settings.
    pub tunnels: TunnelConfig,
    /// Phase-I slack budget α.
    pub alpha: f64,
    /// LP solver settings for the online stage.
    pub solver: arrow_lp::SolverConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            lottery: LotteryConfig::default(),
            tunnels: TunnelConfig::default(),
            alpha: 0.1,
            solver: arrow_lp::SolverConfig::default(),
        }
    }
}

/// The offline-stage product: scenarios plus their LotteryTickets.
#[derive(Debug, Clone)]
pub struct OfflineState {
    /// Failure scenarios under consideration.
    pub scenarios: Vec<FailureScenario>,
    /// LotteryTickets per scenario.
    pub tickets: TicketSet,
    /// Measurements from the ticket-generation run that produced
    /// `tickets`.
    pub stats: OfflineStats,
}

/// Why the online stage could not produce a [`TePlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A scenario has no LotteryTickets, so Phase I has nothing to choose
    /// from. Carries the index of the first offending scenario.
    NoTickets {
        /// Index of the first scenario with an empty ticket list.
        scenario: usize,
    },
    /// The ticket set covers fewer scenarios than the controller tracks.
    ScenarioMismatch {
        /// Scenarios the controller tracks.
        expected: usize,
        /// Scenario entries present in the ticket set.
        actual: usize,
    },
    /// The TE solve finished without a restoration plan (scenarios exist
    /// but the solver returned none — indicates a scheme-level bug).
    MissingRestorationPlan,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoTickets { scenario } => {
                write!(f, "scenario {scenario} has no LotteryTickets; Phase I needs at least one (the naive ticket) per scenario")
            }
            PlanError::ScenarioMismatch { expected, actual } => {
                write!(
                    f,
                    "ticket set covers {actual} scenarios but the controller tracks {expected}"
                )
            }
            PlanError::MissingRestorationPlan => {
                write!(f, "TE solve returned no restoration plan despite non-empty scenarios")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The online-stage product for one TE epoch.
#[derive(Debug, Clone)]
pub struct TePlan {
    /// Full ARROW outcome (allocation, winning tickets, timings).
    pub outcome: ArrowOutcome,
    /// Per-flow splitting ratios `ω_{f,t}` ready for router installation.
    pub splitting_ratios: Vec<Vec<(arrow_te::TunnelId, f64)>>,
    /// ROADM reconfiguration rules per scenario, realizing each winning
    /// ticket in the optical domain.
    pub reconfig_rules: Vec<ReconfigRule>,
    /// The instance the plan was computed against.
    pub instance: TeInstance,
}

/// Cached online-stage state for [`ArrowController::plan_epoch`]: the
/// expensive tunnel computation and Phase I skeleton are built on the
/// first (cold) epoch and re-used (with patched demands) on every later
/// one.
#[derive(Debug, Clone)]
struct OnlineCache {
    /// Instance built on the cold epoch; later epochs only swap demands
    /// via [`TeInstance::with_demands`].
    instance: TeInstance,
    /// Incremental two-phase solver carrying warm starts across epochs.
    online: ArrowOnline,
}

/// Process-global online-stage counters, flushed once per TE epoch.
struct EpochMetrics {
    cold: arrow_obs::Counter,
    warm: arrow_obs::Counter,
    seconds: arrow_obs::Histogram,
}

impl EpochMetrics {
    fn record(&self, warm: bool, seconds: f64) -> arrow_obs::EpochVerdict {
        if warm {
            self.warm.inc();
        } else {
            self.cold.inc();
        }
        self.seconds.observe(seconds);
        // Feed the SLO engine: did this epoch make its deadline budget
        // (ARROW §5's five-minute TE epoch by default)? Misses are
        // counted, quantiles and error-budget burn updated, and a warn
        // event emitted on a miss.
        arrow_obs::slo::record_epoch(seconds)
    }
}

fn epoch_metrics() -> &'static EpochMetrics {
    static METRICS: std::sync::OnceLock<EpochMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        arrow_obs::metrics::describe("epoch.cold", "cold-start TE epochs planned");
        arrow_obs::metrics::describe("epoch.warm", "warm-start TE epochs planned");
        arrow_obs::metrics::describe(
            "epoch.seconds",
            "wall-clock seconds per online TE epoch (cold or warm)",
        );
        EpochMetrics {
            cold: arrow_obs::metrics::counter("epoch.cold"),
            warm: arrow_obs::metrics::counter("epoch.warm"),
            seconds: arrow_obs::metrics::histogram(
                "epoch.seconds",
                &[1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0],
            ),
        }
    })
}

/// How one planned epoch fared against the deadline, as seen by the SLO
/// engine — returned by [`ArrowController::plan_epoch`] so a long-lived
/// caller (the `arrow serve` daemon) can decide whether the plan is safe
/// to install or the previous plan must be reused.
#[derive(Debug, Clone, Copy)]
pub struct EpochReport {
    /// Whether the epoch found cached online state (tunnels, Phase I
    /// skeleton, warm starts) — `false` for the first epoch after
    /// [`ArrowController::new`] or [`ArrowController::reset_online_cache`].
    pub warm: bool,
    /// Wall-clock seconds the epoch took, including any hook work, read
    /// off its `epoch` span.
    pub seconds: f64,
    /// The SLO verdict ([`arrow_obs::slo::record_epoch`]) for this epoch.
    pub verdict: arrow_obs::EpochVerdict,
}

/// A pre-solve hook for [`ArrowController::plan_epoch`]: runs *inside*
/// the epoch span (and so its clock), after offline validation and
/// before the TE solve. The daemon's chaos mode uses it to model extra
/// planning load — anything the hook burns counts against the epoch
/// deadline exactly like solver time.
pub type EpochHook<'a> = &'a dyn Fn();

/// The ARROW controller.
#[derive(Debug, Clone)]
pub struct ArrowController {
    /// The WAN under control.
    pub wan: Wan,
    /// Controller settings.
    pub config: ControllerConfig,
    offline: OfflineState,
    online: Option<OnlineCache>,
}

impl ArrowController {
    /// Runs the offline stage: parallel ticket generation for the given
    /// scenarios (see [`crate::par`]), keeping the per-scenario
    /// [`OfflineStats`] in [`OfflineState::stats`].
    pub fn new(wan: Wan, scenarios: Vec<FailureScenario>, config: ControllerConfig) -> Self {
        let (tickets, stats) = generate_tickets(&wan, &scenarios, &config.lottery);
        ArrowController {
            offline: OfflineState { scenarios, tickets, stats },
            wan,
            config,
            online: None,
        }
    }

    /// The offline state (scenarios + tickets + generation stats).
    pub fn offline(&self) -> &OfflineState {
        &self.offline
    }

    /// Runs one online TE epoch for the current traffic matrix — the one
    /// way to plan.
    ///
    /// The first epoch (and the first after
    /// [`ArrowController::reset_online_cache`]) is *cold*: it builds
    /// tunnels and the Phase I skeleton. Every later one is *warm*: it
    /// re-uses them, patching demands in place and warm-starting both LP
    /// phases from the previous interval's optimum — what makes the
    /// five-minute deadline (§5) comfortable when consecutive traffic
    /// matrices are close. A warm plan is equivalent to a cold one for the
    /// same traffic matrix (identical winning tickets; Phase II objective
    /// equal up to solver tolerance).
    ///
    /// Fails with [`PlanError`] when the offline state cannot support a
    /// solve — a ticketless scenario or a scenario/ticket-set mismatch —
    /// rather than panicking inside the TE scheme.
    ///
    /// Returns the plan with the measured [`EpochReport`] (wall seconds
    /// and the SLO verdict); the optional pre-solve [`EpochHook`] runs
    /// inside the epoch's span and deadline window. The seconds are read
    /// off the `epoch` span itself, inside it, and feed the
    /// `epoch.seconds` histogram and the verdict, so a deadline miss
    /// reported here is exactly the miss the flight recorder captures.
    pub fn plan_epoch(
        &mut self,
        tm: &TrafficMatrix,
        hook: Option<EpochHook<'_>>,
    ) -> Result<(TePlan, EpochReport), PlanError> {
        let warm = self.online.is_some();
        let span = arrow_obs::span!("epoch", "mode" => if warm { "warm" } else { "cold" });
        self.validate_offline()?;
        if let Some(hook) = hook {
            hook();
        }
        let cache = match self.online.take() {
            Some(cache) => cache,
            None => {
                let instance =
                    build_instance(&self.wan, tm, &self.offline.scenarios, &self.config.tunnels);
                let online = ArrowOnline::new(self.arrow_scheme(), &instance);
                OnlineCache { instance, online }
            }
        };
        let cache = self.online.insert(cache);
        let instance = cache.instance.with_demands(tm);
        let outcome = cache.online.solve(&instance);
        let plan = self.finish_plan(outcome, instance);
        let seconds = span.elapsed_seconds();
        let verdict = epoch_metrics().record(warm, seconds);
        plan.map(|p| (p, EpochReport { warm, seconds, verdict }))
    }

    /// Drops the cached online state (tunnels, LP skeleton, warm starts).
    /// Call after mutating `wan`, `config`, or the offline state in place;
    /// the next [`ArrowController::plan_epoch`] rebuilds from scratch.
    pub fn reset_online_cache(&mut self) {
        self.online = None;
    }

    fn validate_offline(&self) -> Result<(), PlanError> {
        let expected = self.offline.scenarios.len();
        let actual = self.offline.tickets.per_scenario.len();
        if actual != expected {
            return Err(PlanError::ScenarioMismatch { expected, actual });
        }
        if let Some(scenario) = self.offline.tickets.per_scenario.iter().position(|t| t.is_empty())
        {
            return Err(PlanError::NoTickets { scenario });
        }
        Ok(())
    }

    fn arrow_scheme(&self) -> Arrow {
        Arrow {
            tickets: self.offline.tickets.clone(),
            alpha: self.config.alpha,
            solver: self.config.solver.clone(),
        }
    }

    fn finish_plan(
        &self,
        outcome: ArrowOutcome,
        instance: TeInstance,
    ) -> Result<TePlan, PlanError> {
        let splitting_ratios = (0..instance.flows.len())
            .map(|f| outcome.output.alloc.splitting_ratios(&instance, arrow_te::FlowId(f)))
            .collect();
        let restoration = match outcome.output.restoration.as_deref() {
            Some(plan) => plan,
            None if self.offline.scenarios.is_empty() => &[],
            None => return Err(PlanError::MissingRestorationPlan),
        };
        let reconfig_rules = self.compile_rules(restoration);
        Ok(TePlan { outcome, splitting_ratios, reconfig_rules, instance })
    }

    /// Compiles winning tickets into per-scenario ROADM rules by running
    /// the exact greedy wavelength assigner against each ticket's targets.
    /// Every link the scenario fails gets a target, 0 where the ticket
    /// restores nothing: the assigner leaves a link without a target
    /// uncapped, which would restore links the winning ticket did not
    /// budget, ahead of links it did.
    ///
    /// Scenarios are independent, so the assignment fans out over the
    /// [`crate::par`] pool; rule order matches the serial loop (scenario
    /// order, then assigner order within a scenario).
    fn compile_rules(&self, plan: &[RestorationTicket]) -> Vec<ReconfigRule> {
        let work: Vec<(usize, &FailureScenario, &RestorationTicket)> = self
            .offline
            .scenarios
            .iter()
            .zip(plan)
            .enumerate()
            .map(|(qi, (scen, ticket))| (qi, scen, ticket))
            .collect();
        let per_scenario = parallel_map(work, |&(qi, scen, ticket)| {
            let targets: Vec<_> = scen
                .failed_links
                .iter()
                .map(|&link| {
                    let lp_id = self.wan.link(link).lightpath;
                    let per = self.wan.optical.lightpath(lp_id).gbps_per_wavelength;
                    (lp_id, (ticket.restored_gbps(link) / per).round() as usize)
                })
                .collect();
            if targets.iter().all(|&(_, waves)| waves == 0) {
                return Vec::new();
            }
            let assigns = greedy_assign(
                &self.wan.optical,
                &scen.cut_fibers,
                &self.config.lottery.rwa,
                Some(&targets),
            );
            assigns
                .into_iter()
                .filter(|a| !a.routes.is_empty())
                .map(|a| ReconfigRule { scenario: qi, lightpath: a.lightpath, routes: a.routes })
                .collect()
        });
        per_scenario.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    fn controller() -> (ArrowController, TrafficMatrix) {
        let wan = b4(17);
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 5, ..Default::default() });
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let cfg = ControllerConfig {
            lottery: LotteryConfig { num_tickets: 8, ..Default::default() },
            tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
            ..Default::default()
        };
        (ArrowController::new(wan, failures.failure_scenarios(), cfg), tms[0].clone())
    }

    fn plan(ctl: &mut ArrowController, tm: &TrafficMatrix) -> TePlan {
        ctl.plan_epoch(tm, None).expect("valid offline state plans cleanly").0
    }

    /// `ctl` with its offline tickets replaced by `tickets` (degenerate or
    /// hand-built ticket sets).
    fn with_tickets(ctl: &ArrowController, tickets: TicketSet) -> ArrowController {
        let offline = OfflineState { tickets, ..ctl.offline().clone() };
        ArrowController { offline, online: None, ..ctl.clone() }
    }

    #[test]
    fn end_to_end_plan_is_consistent() {
        let (mut ctl, tm) = controller();
        let plan = plan(&mut ctl, &tm.scaled(2.0));
        // Winning tickets exist for every scenario.
        assert_eq!(plan.outcome.winning.len(), ctl.offline().scenarios.len());
        // Splitting ratios normalize per flow.
        for ratios in &plan.splitting_ratios {
            let sum: f64 = ratios.iter().map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // Reconfig rules only restore lightpaths actually failed in their
        // scenario, onto surrogate paths avoiding the cut fibers.
        for rule in &plan.reconfig_rules {
            let scen = &ctl.offline().scenarios[rule.scenario];
            let affected = ctl.wan.optical.affected_lightpaths(&scen.cut_fibers);
            assert!(affected.contains(&rule.lightpath));
            for (path, slots) in &rule.routes {
                assert!(!slots.is_empty());
                for f in &path.fibers {
                    assert!(!scen.cut_fibers.contains(f), "route uses a cut fiber");
                }
            }
        }
    }

    #[test]
    fn offline_state_reused_across_epochs() {
        let (mut ctl, tm) = controller();
        let p1 = plan(&mut ctl, &tm);
        let p2 = plan(&mut ctl, &tm.scaled(1.5));
        // Same scenarios and tickets; different demands may change winners.
        assert_eq!(p1.outcome.winning.len(), p2.outcome.winning.len());
        assert!(p1.outcome.output.alloc.total_admitted() > 0.0);
        assert!(p2.outcome.output.alloc.total_admitted() > 0.0);
    }

    #[test]
    fn warm_plan_matches_cold_plan_across_epochs() {
        let (mut ctl, tm) = controller();
        let mut fresh = ctl.clone();
        for scale in [1.0, 1.4, 0.7] {
            let shifted = tm.scaled(scale);
            fresh.reset_online_cache();
            let cold = plan(&mut fresh, &shifted);
            let warm = plan(&mut ctl, &shifted);
            assert_eq!(warm.outcome.winning, cold.outcome.winning, "scale {scale}");
            let (tw, tc) = (
                warm.outcome.output.alloc.total_admitted(),
                cold.outcome.output.alloc.total_admitted(),
            );
            assert!(
                (tw - tc).abs() <= 1e-6 * (1.0 + tc.abs()),
                "scale {scale}: warm {tw} vs cold {tc}"
            );
            assert_eq!(warm.reconfig_rules.len(), cold.reconfig_rules.len());
        }
        // Later epochs reuse the cached skeleton and start warm.
        let again = plan(&mut ctl, &tm.scaled(1.2));
        assert_ne!(
            again.outcome.phase1_stats.warm,
            arrow_lp::WarmEvent::Cold,
            "cached online state should warm-start Phase I"
        );
        ctl.reset_online_cache();
        let reset = plan(&mut ctl, &tm);
        assert_eq!(reset.outcome.phase1_stats.warm, arrow_lp::WarmEvent::Cold);
    }

    #[test]
    fn first_epoch_is_cold_and_the_next_is_warm() {
        // Other tests plan epochs concurrently, so the global counters can
        // only be required to move by at least what this test did.
        let count = |name: &str| arrow_obs::metrics::snapshot().counter(name);
        let (cold0, warm0) = (count("epoch.cold"), count("epoch.warm"));
        let (mut ctl, tm) = controller();
        let mut warm_flags = Vec::new();
        for reset in [false, false, true, false] {
            if reset {
                ctl.reset_online_cache();
            }
            let (_, report) = ctl.plan_epoch(&tm, None).expect("valid offline state");
            warm_flags.push(report.warm);
        }
        assert_eq!(warm_flags, [false, true, false, true]);
        assert!(count("epoch.cold") >= cold0 + 2, "two cold epochs must be counted cold");
        assert!(count("epoch.warm") >= warm0 + 2, "two warm epochs must be counted warm");
    }

    #[test]
    fn rules_respect_wavelength_counts() {
        let (mut ctl, tm) = controller();
        let plan = plan(&mut ctl, &tm.scaled(3.0));
        for rule in &plan.reconfig_rules {
            let assigned: usize = rule.routes.iter().map(|(_, s)| s.len()).sum();
            let lost = ctl.wan.optical.lightpath(rule.lightpath).wavelength_count();
            assert!(assigned <= lost, "restored more wavelengths than lost");
        }
    }

    #[test]
    fn offline_stats_cover_every_scenario() {
        let (ctl, _) = controller();
        let stats = &ctl.offline().stats;
        assert_eq!(stats.per_scenario.len(), ctl.offline().scenarios.len());
        assert_eq!(stats.total_kept(), ctl.offline().tickets.total_tickets());
        assert!(stats.threads >= 1);
        assert!(stats.wall_seconds >= 0.0 && stats.work_seconds >= 0.0);
    }

    #[test]
    fn ticketless_scenario_is_a_typed_error() {
        let (ctl, tm) = controller();
        // Rebuild the controller with one scenario's tickets emptied out:
        // Phase I would have nothing to choose from there.
        let mut tickets = ctl.offline().tickets.clone();
        tickets.per_scenario[2].clear();
        let mut hollow = with_tickets(&ctl, tickets);
        assert!(matches!(hollow.plan_epoch(&tm, None), Err(PlanError::NoTickets { scenario: 2 })));

        // And with a ticket set that covers too few scenarios.
        let mut truncated = ctl.offline().tickets.clone();
        truncated.per_scenario.pop();
        let mut short = with_tickets(&ctl, truncated);
        assert!(matches!(
            short.plan_epoch(&tm, None),
            Err(PlanError::ScenarioMismatch { expected: 5, actual: 4 })
        ));
    }

    #[test]
    fn rules_restore_no_link_the_winning_ticket_budgets_at_zero() {
        let (ctl, tm) = controller();
        let rwa = &ctl.config.lottery.rwa;
        let optical = &ctl.wan.optical;
        // A cut that fails several links, at least two of them restorable.
        let (qi, restorable) = (ctl.offline().scenarios.iter().enumerate())
            .find_map(|(qi, scen)| {
                let naive = greedy_assign(optical, &scen.cut_fibers, rwa, None);
                let waves: Vec<_> = (naive.iter().filter(|a| a.wavelengths() > 0))
                    .map(|a| (a.lightpath, a.wavelengths()))
                    .collect();
                (waves.len() >= 2).then_some((qi, waves))
            })
            .expect("a B4 cut fails two restorable links");
        // One ticket per scenario; in scenario `qi` the first restorable
        // link is budgeted at 0 and every other at what it can restore.
        let zero = restorable[0].0;
        let per_scenario = (ctl.offline().scenarios.iter().enumerate())
            .map(|(q, scen)| {
                let restored = (scen.failed_links.iter())
                    .map(|&link| {
                        let lp = ctl.wan.link(link).lightpath;
                        let waves = restorable.iter().find(|&&(id, _)| id == lp).map_or(0, |w| w.1);
                        let waves = if q != qi || lp == zero { 0 } else { waves };
                        (link, waves as f64 * optical.lightpath(lp).gbps_per_wavelength)
                    })
                    .collect();
                vec![RestorationTicket { restored }]
            })
            .collect();
        let mut ctl = with_tickets(&ctl, TicketSet::full(per_scenario));
        let plan = plan(&mut ctl, &tm);
        let ticket = &ctl.offline().tickets.for_scenario(qi)[0];
        let rules: Vec<_> = plan.reconfig_rules.iter().filter(|r| r.scenario == qi).collect();
        assert!(!rules.is_empty(), "the budgeted links are restored");
        for rule in rules {
            assert_ne!(rule.lightpath, zero, "a link budgeted at 0 got a rule");
            let link = ctl.wan.link_of_lightpath(rule.lightpath).expect("an IP link");
            let per = optical.lightpath(rule.lightpath).gbps_per_wavelength;
            let budget = (ticket.restored_gbps(link) / per).round() as usize;
            let assigned: usize = rule.routes.iter().map(|(_, s)| s.len()).sum();
            assert!(assigned <= budget, "rule restores {assigned} wavelengths, ticket {budget}");
        }
    }
}
