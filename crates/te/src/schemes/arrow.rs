//! ARROW: restoration-aware TE over LotteryTickets (§3.3, Tables 2 & 3).
//!
//! The two-phase LP design:
//!
//! * **Phase I** (Table 2) — takes every LotteryTicket `z` for every
//!   failure scenario `q` and solves one LP whose slack variables
//!   `Δ_e^{z,q}` measure how much each ticket's restored capacity
//!   `r_e^{z,q}` falls short of what the traffic wants. Constraint (6)
//!   bounds total slack per `(z, q)` by `M^{z,q} = α · Σ_e r_e^{z,q}`.
//! * **Post-processing** — per scenario, the *winning* ticket minimizes
//!   `Σ_e max(0, Δ_e^{z,q})` (the ReLU trick of §3.3).
//! * **Phase II** (Table 3) — re-solves with only the winning tickets'
//!   restored capacities and restorable tunnel sets, yielding the final
//!   allocation `{b_f, a_{f,t}}` and the restoration plan `Z*` installed on
//!   ROADMs.
//!
//! Constraint-size note: the paper's Table 2 ranges over every
//! `(f, q, z)`; most of those rows are duplicates because tickets with the
//! same *support* (set of links restored at all) induce the same
//! restorable-tunnel set `Y_f^{z,q}`. The builder deduplicates on support
//! — a pure formulation-size optimization with identical semantics.
//!
//! **ARROW-Naive** (§6) skips Phase I: it uses a single optical-layer-
//! optimal restoration candidate per scenario and solves Phase II with it.

use super::{base_model, extract_alloc, BaseModel, SchemeOutput, TeScheme};
use crate::index::ScenarioOverlay;
use crate::restoration::{RestorationTicket, TicketSet};
use crate::tunnels::{TeInstance, TunnelId};
use arrow_lp::{LinExpr, PrimalDual, Sense, Solution, SolveStats, SolverConfig, VarId, WarmStart};

/// The ARROW scheme (two-phase, LotteryTicket-driven).
#[derive(Debug, Clone)]
pub struct Arrow {
    /// LotteryTickets per scenario (from `arrow-core`'s Algorithm 1).
    pub tickets: TicketSet,
    /// Slack budget fraction α in `M^{z,q} = α Σ_e r_e^{z,q}` (paper
    /// evaluates α ∈ {0.2, 0.1, 0.05}).
    pub alpha: f64,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl Arrow {
    /// ARROW with default α = 0.1.
    pub fn new(tickets: TicketSet) -> Self {
        Arrow { tickets, alpha: 0.1, solver: SolverConfig::default() }
    }
}

/// Detailed ARROW output: allocation plus the winning ticket per scenario.
#[derive(Debug, Clone)]
pub struct ArrowOutcome {
    /// The scheme output (allocation + restoration plan).
    pub output: SchemeOutput,
    /// Winning ticket index per scenario (into `tickets.per_scenario[q]`).
    pub winning: Vec<usize>,
    /// Phase I LP solve seconds.
    pub phase1_seconds: f64,
    /// Phase II LP solve seconds.
    pub phase2_seconds: f64,
    /// Phase I solver observability (size, iterations, backend, warm event).
    pub phase1_stats: SolveStats,
    /// Phase II solver observability.
    pub phase2_stats: SolveStats,
}

/// Emits the rows one `(scenario, ticket)` pair contributes to either
/// phase: with `cover`, one row per affected flow saying residual plus
/// restorable tunnels cover `b_f` (constraint 4 in Phase I, 10 in Phase
/// II); then one restored-capacity row per used `(link, direction)`
/// (constraint 5 / 11).
///
/// With a slack sink (Phase I) every capacity row gets its own `Δ ≥ 0`
/// column subtracted from the load, and that `Δ` goes to the sink; without
/// one (Phase II) the row is hard.
fn ticket_rows(
    base: &mut BaseModel,
    inst: &TeInstance,
    qi: usize,
    ticket: &RestorationTicket,
    cover: bool,
    mut slack: Option<&mut Vec<VarId>>,
) {
    let overlay = ScenarioOverlay::new(inst, Some(&inst.scenarios[qi]), Some(ticket));
    if cover {
        for (fi, flow) in inst.flows.iter().enumerate() {
            // Skip flows untouched by this scenario: the row collapses
            // to constraint (1).
            if flow.tunnels.iter().all(|&t| overlay.survives(t)) {
                continue;
            }
            // Residual (`T_f^q`) plus restorable (`Y_f^{z,q}`) tunnels.
            let covered: Vec<_> = flow.tunnels.iter().filter(|&&t| overlay.alive(t)).collect();
            if covered.is_empty() {
                // Nothing survives or restores: the flow is best-effort
                // under this scenario (the loss is accounted during
                // playback, not by zeroing b).
                continue;
            }
            let mut e = LinExpr::term(base.b[fi], -1.0);
            for &&t in &covered {
                e.add_term(base.a[t.0], 1.0);
            }
            base.model.add_con(e, Sense::Ge, 0.0);
        }
    }
    // Like healthy capacity, restored capacity is per direction.
    for &(link, r) in &ticket.restored {
        for fwd in [true, false] {
            // Load of restorable tunnels crossing (link, dir).
            let mut e = LinExpr::sum_vars(
                inst.tunnels_on(link, fwd).filter(|&t| overlay.restorable(t)).map(|t| base.a[t.0]),
            );
            if e.terms.is_empty() {
                continue;
            }
            if let Some(sink) = slack.as_deref_mut() {
                // Δ ≥ 0 measures how far traffic *wants* to exceed the
                // ticket's restored capacity; a tiny objective penalty
                // (added by Phase I) pins it to that minimum so the
                // post-processing comparison is meaningful.
                let delta = base.model.add_var(0.0, arrow_lp::INF);
                e.add_term(delta, -1.0);
                sink.push(delta);
            }
            base.model.add_con(e, Sense::Le, r);
        }
    }
}

impl Arrow {
    /// Builds the Phase I model (Table 2) without solving it.
    pub(crate) fn build_phase1(&self, inst: &TeInstance) -> BaseModel {
        assert_eq!(
            self.tickets.per_scenario.len(),
            inst.scenarios.len(),
            "ticket set must align with the scenario list"
        );
        let mut base = base_model(inst);
        // Objective: max Σ b_f minus a tiny slack penalty that pins each
        // Δ to exactly max(0, load − r) without perturbing throughput.
        let mut obj = LinExpr::sum_vars(base.b.iter().copied());
        for qi in 0..inst.scenarios.len() {
            let tickets = self.tickets.for_scenario(qi);
            // Constraint (4) is deduplicated by ticket support (same
            // support => same restorable set Y).
            let supports: Vec<_> = tickets.iter().map(RestorationTicket::support).collect();
            for (zi, ticket) in tickets.iter().enumerate() {
                let is_first_with_support = !supports[..zi].contains(&supports[zi]);
                // Constraints (5)+(6): restored capacity with slack.
                let mut slacks = Vec::new();
                ticket_rows(&mut base, inst, qi, ticket, is_first_with_support, Some(&mut slacks));
                if slacks.is_empty() {
                    continue;
                }
                let m = self.alpha * ticket.total_gbps();
                base.model.add_con(LinExpr::sum_vars(slacks.iter().copied()), Sense::Le, m);
                for delta in slacks {
                    obj.add_term(delta, -1e-4);
                }
            }
        }
        base.model.set_objective(obj, arrow_lp::Objective::Maximize);
        base
    }

    /// Post-processing on a Phase I solution: the winning ticket per
    /// scenario.
    pub(crate) fn select_winning(
        &self,
        inst: &TeInstance,
        base: &BaseModel,
        sol: &Solution,
    ) -> Vec<usize> {
        // Winning ticket per scenario: the paper's rule is
        // `min_z Σ_e max(0, Δ_e^{z,q})`. The LP leaves Δ degenerate when
        // capacity is plentiful (many exact ties), so the score is
        // evaluated directly from the Phase-I traffic: for each ticket,
        //   stranded = allocation on affected tunnels the ticket fails to
        //              restore (they stay dark), plus
        //   overflow = max(0, restorable-tunnel load − r_e) per direction
        //              (the minimal feasible Δ).
        // Ties still break toward the ticket restoring the most capacity.
        inst.scenarios
            .iter()
            .enumerate()
            .map(|(qi, scen)| {
                let tickets = self.tickets.for_scenario(qi);
                let traffic = |t: TunnelId| sol.value(base.a[t.0]).max(0.0);
                let score = |ticket: &RestorationTicket| -> i64 {
                    let overlay = ScenarioOverlay::new(inst, Some(scen), Some(ticket));
                    let stranded: f64 = (0..inst.tunnels.len())
                        .map(TunnelId)
                        .filter(|&t| !overlay.alive(t))
                        .map(traffic)
                        .sum();
                    let mut overflow = 0.0f64;
                    for &(link, r) in &ticket.restored {
                        for fwd in [true, false] {
                            let load: f64 = inst
                                .tunnels_on(link, fwd)
                                .filter(|&t| overlay.restorable(t))
                                .map(traffic)
                                .sum();
                            overflow += (load - r).max(0.0);
                        }
                    }
                    ((stranded + overflow) * 100.0).round() as i64
                };
                // Scored once per ticket: a score walks every tunnel, and
                // the comparator runs twice per comparison.
                let scores: Vec<i64> = tickets.iter().map(score).collect();
                // Total order even for pathological (NaN) capacities:
                // integer score ascending, then restored capacity
                // descending via total_cmp, then first index.
                tickets
                    .iter()
                    .enumerate()
                    .min_by(|(za, ta), (zb, tb)| {
                        scores[*za]
                            .cmp(&scores[*zb])
                            .then(tb.total_gbps().total_cmp(&ta.total_gbps()))
                            .then(za.cmp(zb))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Builds the Phase II model (Table 3) without solving it: the hard
    /// rows (10) and (11) of the winning tickets only.
    pub(crate) fn build_phase2(
        &self,
        inst: &TeInstance,
        winning: &[usize],
    ) -> (BaseModel, Vec<RestorationTicket>) {
        let mut base = base_model(inst);
        let plan: Vec<RestorationTicket> = winning
            .iter()
            .enumerate()
            .map(|(qi, &zi)| self.tickets.for_scenario(qi)[zi].clone())
            .collect();
        for (qi, ticket) in plan.iter().enumerate() {
            ticket_rows(&mut base, inst, qi, ticket, true, None);
        }
        (base, plan)
    }
}

impl TeScheme for Arrow {
    fn name(&self) -> String {
        "ARROW".into()
    }

    /// A one-shot solve is the first interval of a fresh [`ArrowOnline`].
    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        ArrowOnline::new(self.clone(), inst).solve(inst).output
    }
}

/// The two-phase solver: one implementation for a one-shot solve and for
/// consecutive online intervals.
///
/// The online stage runs every TE epoch against the same topology,
/// tunnels, scenarios, and tickets — only the traffic matrix changes. This
/// solver exploits that:
///
/// * the Phase I constraint skeleton is built **once** and demand enters
///   it only through the `b_f` upper bounds, which are patched in place;
/// * each solve warm-starts from the previous interval's optimum (simplex
///   basis and/or primal–dual point, whichever the backend consumes);
/// * the Phase II model is cached keyed on the winning-ticket vector and
///   re-solved warm when the winners repeat; a fresh Phase II model is
///   seeded from the Phase I allocation (its `b`/`a` variables are the
///   shared prefix of both models).
///
/// Changing the instance *structure* (flows, tunnels, scenarios) requires
/// a new `ArrowOnline`; [`ArrowOnline::solve`] asserts the shape matches.
#[derive(Debug, Clone)]
pub struct ArrowOnline {
    arrow: Arrow,
    phase1: BaseModel,
    phase1_warm: Option<WarmStart>,
    phase2: Option<Phase2Cache>,
    /// `(flows, tunnels, scenarios)` of the instance the skeleton was
    /// built from.
    shape: (usize, usize, usize),
}

/// Cached Phase II state, valid while the winning tickets repeat.
#[derive(Debug, Clone)]
struct Phase2Cache {
    winning: Vec<usize>,
    base: BaseModel,
    plan: Vec<RestorationTicket>,
    warm: Option<WarmStart>,
}

/// Phase II build → solve → extract, the one place a Phase II LP is
/// solved ([`ArrowOnline::solve`] and [`ArrowNaive`] both end here).
///
/// `slot` carries the model across calls: it is re-solved warm while the
/// winners repeat and rebuilt when they change. A rebuilt model starts
/// from `seed` — the Phase I solution, when there was a Phase I — and
/// cold otherwise.
fn solve_phase2(
    arrow: &Arrow,
    slot: &mut Option<Phase2Cache>,
    inst: &TeInstance,
    winning: &[usize],
    seed: Option<&Solution>,
) -> (SchemeOutput, SolveStats) {
    let cached = slot.as_ref().is_some_and(|c| c.winning == winning);
    let _span = arrow_obs::span!(
        "te.phase2",
        "flows" => inst.flows.len(),
        "cached" => cached,
    );
    let cache = match slot.take() {
        Some(c) if cached => c,
        _ => {
            let (base, plan) = arrow.build_phase2(inst, winning);
            // Seed Phase II from the Phase I allocation: both models
            // allocate b then a first, so the variable prefix is shared.
            // (No basis: the row sets differ, so only the point maps.)
            let ncols = base.model.num_vars();
            let warm = seed.map(|sol1| {
                WarmStart::from_point(PrimalDual { x: sol1.x[..ncols].to_vec(), y: Vec::new() })
            });
            Phase2Cache { winning: winning.to_vec(), base, plan, warm }
        }
    };
    let cache = slot.insert(cache);
    for (fi, f) in inst.flows.iter().enumerate() {
        cache.base.model.set_bounds(cache.base.b[fi], 0.0, f.demand_gbps);
    }
    let sol2 = arrow_lp::solve_with(&cache.base.model, &arrow.solver, cache.warm.as_ref());
    assert!(sol2.status.is_usable(), "ARROW Phase II LP failed: {:?}", sol2.status);
    cache.warm = sol2.warm_start();
    let alloc = extract_alloc(inst, &cache.base, &sol2, "ARROW");
    (SchemeOutput { alloc, restoration: Some(cache.plan.clone()) }, sol2.stats)
}

impl ArrowOnline {
    /// Builds the Phase I skeleton for `inst`'s structure. Demands present
    /// in `inst` are immaterial: every [`ArrowOnline::solve`] re-patches
    /// them from its own instance.
    pub fn new(arrow: Arrow, inst: &TeInstance) -> Self {
        let phase1 = arrow.build_phase1(inst);
        let shape = (inst.flows.len(), inst.tunnels.len(), inst.scenarios.len());
        ArrowOnline { arrow, phase1, phase1_warm: None, phase2: None, shape }
    }

    /// One interval: patch demands, solve Phase I (warm after the first
    /// interval), pick the winners, solve Phase II.
    ///
    /// `inst` must share the structure of the instance this solver was
    /// built from — typically produced by
    /// [`TeInstance::with_demands`](crate::tunnels::TeInstance::with_demands).
    pub fn solve(&mut self, inst: &TeInstance) -> ArrowOutcome {
        assert_eq!(
            self.shape,
            (inst.flows.len(), inst.tunnels.len(), inst.scenarios.len()),
            "instance structure changed; rebuild ArrowOnline"
        );
        let sol1 = {
            let _span = arrow_obs::span!(
                "te.phase1",
                "flows" => inst.flows.len(),
                "scenarios" => inst.scenarios.len(),
                "warm" => self.phase1_warm.is_some(),
            );
            // Demand enters Phase I only through the b_f upper bounds.
            for (fi, f) in inst.flows.iter().enumerate() {
                self.phase1.model.set_bounds(self.phase1.b[fi], 0.0, f.demand_gbps);
            }
            arrow_lp::solve_with(&self.phase1.model, &self.arrow.solver, self.phase1_warm.as_ref())
        };
        assert!(sol1.status.is_usable(), "ARROW Phase I LP failed: {:?}", sol1.status);
        self.phase1_warm = sol1.warm_start();
        let winning = {
            let _span = arrow_obs::span!("te.select", "scenarios" => inst.scenarios.len());
            self.arrow.select_winning(inst, &self.phase1, &sol1)
        };
        let (output, phase2_stats) =
            solve_phase2(&self.arrow, &mut self.phase2, inst, &winning, Some(&sol1));
        ArrowOutcome {
            output,
            winning,
            phase1_seconds: sol1.stats.solve_seconds,
            phase2_seconds: phase2_stats.solve_seconds,
            phase1_stats: sol1.stats,
            phase2_stats,
        }
    }
}

/// ARROW-Naive: Phase II with one optical-layer-optimal ticket (§6).
#[derive(Debug, Clone)]
pub struct ArrowNaive {
    /// The single restoration candidate per scenario (from the RWA).
    pub tickets: Vec<RestorationTicket>,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl TeScheme for ArrowNaive {
    fn name(&self) -> String {
        "ARROW-Naive".into()
    }

    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        let arrow = Arrow {
            tickets: TicketSet::full(self.tickets.iter().map(|t| vec![t.clone()]).collect()),
            alpha: 0.1,
            solver: self.solver.clone(),
        };
        let winning = vec![0; inst.scenarios.len()];
        let (mut output, _) = solve_phase2(&arrow, &mut None, inst, &winning, None);
        output.alloc.scheme = self.name();
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::ffc::Ffc;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_obs::hash::{check_pins, word_fold, FNV1A_OFFSET};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    fn instance(scale: f64, max_scenarios: usize) -> TeInstance {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios, ..Default::default() });
        build_instance(
            &wan,
            &tms[0].scaled(scale),
            &failures.failure_scenarios(),
            &TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: true },
        )
    }

    /// Tickets granting full restoration of every failed link.
    fn full_tickets(inst: &TeInstance) -> TicketSet {
        let uniform = |s| vec![RestorationTicket::uniform(&inst.wan, s, 1.0)];
        TicketSet::full(inst.scenarios.iter().map(uniform).collect())
    }

    /// Tickets restoring nothing.
    fn empty_tickets(inst: &TeInstance) -> TicketSet {
        TicketSet::none(inst.scenarios.len())
    }

    #[test]
    fn full_restoration_matches_maxflow() {
        // If every failure is fully restorable, failures are invisible and
        // ARROW should admit exactly what the failure-oblivious LP admits.
        let inst = instance(4.0, 8);
        let mf = super::super::maxflow::MaxFlow::default().solve(&inst);
        let arrow = Arrow::new(full_tickets(&inst)).solve(&inst);
        let (t_mf, t_ar) = (mf.alloc.throughput(&inst), arrow.alloc.throughput(&inst));
        assert!(
            (t_mf - t_ar).abs() < 2e-3,
            "full restoration should equal MaxFlow: {t_ar} vs {t_mf}"
        );
    }

    #[test]
    fn no_restoration_sandwiched_by_ffc_and_maxflow() {
        let inst = instance(4.0, 8);
        let arrow = Arrow::new(empty_tickets(&inst)).solve(&inst);
        let mf = super::super::maxflow::MaxFlow::default().solve(&inst);
        let t = arrow.alloc.throughput(&inst);
        assert!(t <= mf.alloc.throughput(&inst) + 1e-6);
        // With zero tickets ARROW still protects the enumerated scenarios,
        // so it cannot beat MaxFlow but must stay positive.
        assert!(t > 0.0);
    }

    #[test]
    fn more_restoration_never_hurts() {
        let inst = instance(4.0, 8);
        let none = Arrow::new(empty_tickets(&inst)).solve(&inst).alloc.throughput(&inst);
        let full = Arrow::new(full_tickets(&inst)).solve(&inst).alloc.throughput(&inst);
        assert!(full >= none - 1e-6, "full {full} < none {none}");
    }

    #[test]
    fn winning_ticket_tracks_demand() {
        // Reconstruction of Fig. 7: one scenario, two failed links, three
        // tickets; the demand profile makes ticket "(100, 400)" the winner.
        let inst = instance(1.0, 4);
        // Find a scenario with ≥1 failed link to attach tickets to.
        let q0 = &inst.scenarios[0];
        assert!(!q0.failed_links.is_empty());
        let link = q0.failed_links[0];
        let cap = inst.wan.link(link).capacity_gbps;
        let mut per_scenario: Vec<Vec<RestorationTicket>> = inst
            .scenarios
            .iter()
            .map(|s| vec![RestorationTicket::uniform(&inst.wan, s, 0.0)])
            .collect();
        // Scenario 0 gets two candidates: nothing vs full for `link`.
        per_scenario[0] = vec![
            RestorationTicket { restored: vec![(link, 0.0)] },
            RestorationTicket { restored: vec![(link, cap)] },
        ];
        let arrow = Arrow::new(TicketSet::full(per_scenario));
        let outcome = ArrowOnline::new(arrow, &inst).solve(&inst.scaled(4.0));
        // The full-restoration candidate must win scenario 0.
        assert_eq!(outcome.winning[0], 1, "full-restoration ticket should win");
    }

    #[test]
    fn naive_equals_arrow_with_single_ticket() {
        let inst = instance(3.0, 6);
        let tickets: Vec<RestorationTicket> =
            inst.scenarios.iter().map(|s| RestorationTicket::uniform(&inst.wan, s, 0.5)).collect();
        let naive =
            ArrowNaive { tickets: tickets.clone(), solver: Default::default() }.solve(&inst);
        let arrow = Arrow::new(TicketSet::full(tickets.into_iter().map(|t| vec![t]).collect()))
            .solve(&inst);
        assert!(
            (naive.alloc.throughput(&inst) - arrow.alloc.throughput(&inst)).abs() < 1e-4,
            "single-ticket ARROW must equal ARROW-Naive"
        );
    }

    #[test]
    fn arrow_beats_ffc_under_load() {
        // The headline effect: restoration awareness admits more demand
        // than failure-aware TE that treats cuts as fatal.
        let inst = instance(5.0, 8);
        let arrow = Arrow::new(full_tickets(&inst)).solve(&inst);
        let ffc = Ffc::k1().solve(&inst);
        let (t_a, t_f) = (arrow.alloc.throughput(&inst), ffc.alloc.throughput(&inst));
        assert!(t_a > t_f, "ARROW {t_a} should beat FFC-1 {t_f} under load");
    }

    #[test]
    fn restoration_plan_is_returned_per_scenario() {
        let inst = instance(2.0, 5);
        let out = Arrow::new(full_tickets(&inst)).solve(&inst);
        let plan = out.restoration.expect("ARROW returns a plan");
        assert_eq!(plan.len(), inst.scenarios.len());
        for (q, ticket) in inst.scenarios.iter().zip(&plan) {
            for &(l, _) in &ticket.restored {
                assert!(q.failed_links.contains(&l), "plan restores a non-failed link");
            }
        }
    }

    /// Tickets restoring half of each failed link's capacity, plus an
    /// empty candidate — gives Phase I a real choice to make.
    fn half_or_nothing_tickets(inst: &TeInstance) -> TicketSet {
        TicketSet::full(
            inst.scenarios
                .iter()
                .map(|s| {
                    vec![
                        RestorationTicket::uniform(&inst.wan, s, 0.5),
                        RestorationTicket::uniform(&inst.wan, s, 0.0),
                    ]
                })
                .collect(),
        )
    }

    /// `structure_digest`, and a [`word_fold`] of the lb/ub/rhs/obj bit
    /// patterns: together every number a solver reads from the model. The
    /// trailing `-0.0` is the objective offset a maximizing model's
    /// standard form once carried; it stays in the fold so the pins hold.
    fn model_digests(model: &arrow_lp::Model) -> [u64; 2] {
        let lp = model.to_standard();
        let values = lp.lb.iter().chain(&lp.ub).chain(&lp.rhs).chain(&lp.obj).chain([&-0.0]);
        [lp.structure_digest(), values.fold(FNV1A_OFFSET, |h, v| word_fold(h, v.to_bits()))]
    }

    #[test]
    fn phase_models_are_pinned_bit_for_bit() {
        // `playback_b4` and `epoch_b4_cold` hash PDHG output, which follows
        // row order, coefficients, senses, bounds and rhs exactly — any
        // rewrite of the builders must leave these pins alone.
        let inst = instance(4.0, 6);
        let arrow = Arrow::new(half_or_nothing_tickets(&inst));
        let winning: Vec<usize> = (0..inst.scenarios.len()).map(|q| q % 2).collect();
        let [s1, v1] = model_digests(&arrow.build_phase1(&inst).model);
        let [s2, v2] = model_digests(&arrow.build_phase2(&inst, &winning).0.model);
        check_pins(&[
            ("phase_model.phase1.structure", s1),
            ("phase_model.phase1.values", v1),
            ("phase_model.phase2.structure", s2),
            ("phase_model.phase2.values", v2),
        ])
        .unwrap();
    }

    #[test]
    fn phase1_solutions_are_pinned_bit_for_bit() {
        // The exact-simplex audit of `epoch_b4_cold` compares winners picked
        // from this solve, and every serve epoch runs it under PDHG. A
        // rewrite of either backend must leave the iteration counts and
        // every output bit alone, cold and restarted from the returned basis
        // or point.
        let inst = instance(4.0, 6);
        let model = Arrow::new(half_or_nothing_tickets(&inst)).build_phase1(&inst).model;
        let mut got = Vec::new();
        for (backend, cfg) in
            [("simplex", SolverConfig::exact()), ("pdhg", SolverConfig::first_order(1e-7))]
        {
            let cold = arrow_lp::solve(&model, &cfg);
            let warm = arrow_lp::solve_with(&model, &cfg, cold.warm_start().as_ref());
            got.push((format!("phase1_solve.{backend}.cold"), cold.digest()));
            got.push((format!("phase1_solve.{backend}.warm"), warm.digest()));
        }
        check_pins(&got).unwrap();
    }

    #[test]
    fn online_warm_resolve_matches_cold_across_demand_sweep() {
        // B4 Phase II warm-start regression: re-solving shifted demand
        // matrices warm must reproduce the cold winners and objective.
        let inst = instance(4.0, 6);
        let arrow = Arrow::new(half_or_nothing_tickets(&inst));
        let mut online = ArrowOnline::new(arrow.clone(), &inst);
        for scale in [1.0, 1.25, 0.8] {
            let shifted = inst.scaled(scale);
            let warm = online.solve(&shifted);
            let cold = ArrowOnline::new(arrow.clone(), &shifted).solve(&shifted);
            assert_eq!(cold.phase1_stats.warm, arrow_lp::WarmEvent::Cold);
            assert_eq!(warm.winning, cold.winning, "scale {scale}: winners diverged");
            let (tw, tc) =
                (warm.output.alloc.throughput(&shifted), cold.output.alloc.throughput(&shifted));
            assert!(
                (tw - tc).abs() <= 1e-6 * (1.0 + tc.abs()),
                "scale {scale}: warm {tw} vs cold {tc}"
            );
        }
        // After the first interval every Phase I solve starts warm.
        let again = online.solve(&inst.scaled(1.1));
        assert_ne!(again.phase1_stats.warm, arrow_lp::WarmEvent::Cold);
        assert_ne!(again.phase2_stats.warm, arrow_lp::WarmEvent::Cold);
    }

    #[test]
    #[should_panic(expected = "structure changed")]
    fn online_rejects_mismatched_instance() {
        let inst = instance(1.0, 4);
        let mut online = ArrowOnline::new(Arrow::new(empty_tickets(&inst)), &inst);
        let other = instance(1.0, 3); // fewer scenarios
        let _ = online.solve(&other);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_ticket_set_panics() {
        let inst = instance(1.0, 5);
        let bad = TicketSet::none(inst.scenarios.len() + 1);
        let _ = ArrowOnline::new(Arrow::new(bad), &inst);
    }

    #[test]
    fn ticket_support_dedup_is_semantically_safe() {
        // Two tickets with identical support but different capacities must
        // both be selectable; dedup only merges constraint (4) rows.
        let inst = instance(4.0, 4);
        let q0 = &inst.scenarios[0];
        let link = q0.failed_links[0];
        let cap = inst.wan.link(link).capacity_gbps;
        let mut per_scenario: Vec<Vec<RestorationTicket>> =
            inst.scenarios.iter().map(|_| vec![RestorationTicket::empty()]).collect();
        per_scenario[0] = vec![
            RestorationTicket { restored: vec![(link, 0.25 * cap)] },
            RestorationTicket { restored: vec![(link, cap)] }, // same support
        ];
        let outcome =
            ArrowOnline::new(Arrow::new(TicketSet::full(per_scenario)), &inst).solve(&inst);
        assert_eq!(outcome.winning[0], 1, "larger-capacity ticket should win");
    }
}
