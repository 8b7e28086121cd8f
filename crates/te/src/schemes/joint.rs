//! The intractable joint IP/optical formulation (Appendices A.4 & A.5).
//!
//! Two artifacts from the paper are reproduced here:
//!
//! 1. **Formulation size accounting** (Table 8): the number of binary
//!    variables, continuous variables, and constraints the optimal joint
//!    IP/optical TE (Table 7) would require for a given instance. The
//!    counts follow Table 7's index sets — `ξ_{φ,w}^{e,k,q}` over
//!    (scenario, failed link, candidate path, fiber-on-path, wavelength
//!    slot) and `λ_e^{k,q}` integers — and demonstrate *why* ARROW's
//!    LotteryTicket abstraction exists.
//!
//! 2. **Binary ILP ticket selection** (Table 9): the exact
//!    one-ticket-per-scenario selection via big-M binaries. Solvable only
//!    on small instances; used in tests to confirm that the two-phase LP's
//!    winning tickets are optimal or near-optimal (the Theorem 3.1
//!    assumption).

use crate::index::ScenarioOverlay;
use crate::restoration::TicketSet;
use crate::tunnels::TeInstance;
use arrow_lp::{LinExpr, Objective, Sense, SolverConfig, VarId};
use arrow_optical::k_shortest_paths;

/// Size of the joint IP/optical formulation for one instance (Table 8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JointSize {
    /// Binary wavelength-assignment variables `ξ_{φ,w}^{e,k,q}`.
    pub binary_vars: u128,
    /// Continuous variables (`a_{f,t}`, `b_f`, `r_e^q`) plus integers `λ`.
    pub continuous_vars: u128,
    /// Constraint rows (18)–(27).
    pub constraints: u128,
}

/// Counts the joint formulation's size for `inst` with `k` candidate
/// restoration paths per failed link.
///
/// Counting rules (Table 7 index sets):
/// * `ξ` — for each scenario `q`, failed link `e`, path `k' ≤ k`, every
///   fiber `φ` on that path, every slot `w`: one binary.
/// * `λ_e^{k,q}` — one integer per (q, e, path).
/// * constraints (23): per (q, fiber-on-some-path, w); (24): per
///   (q, e, k', φ∈path); (25): per (q, e, k', w, adjacent fiber pair);
///   (26)+(27): per (q, e); plus the TE rows (18)–(22).
pub fn joint_formulation_size(inst: &TeInstance, k: usize) -> JointSize {
    let slots = inst.wan.optical.num_slots() as u128;
    let mut size = JointSize::default();
    // TE rows (18)-(20).
    size.continuous_vars += (inst.tunnels.len() + inst.flows.len()) as u128;
    size.constraints += (inst.flows.len() + inst.used_dir_links().len()) as u128;
    for scen in &inst.scenarios {
        // (21): per affected flow; (22): per failed link.
        size.constraints += inst.flows.len() as u128 + scen.failed_links.len() as u128;
        for &link in &scen.failed_links {
            let l = inst.wan.link(link);
            let (src, dst) = (inst.wan.site_roadm[l.a.0], inst.wan.site_roadm[l.b.0]);
            let paths =
                k_shortest_paths(&inst.wan.optical, src, dst, k, &scen.cut_fibers, f64::INFINITY);
            for p in &paths {
                let flen = p.fibers.len() as u128;
                size.binary_vars += flen * slots; // ξ over (φ ∈ path, w)
                size.continuous_vars += 1; // λ_e^{k,q}
                size.constraints += flen; // (24)
                size.constraints += flen.saturating_sub(1) * slots; // (25)
            }
            size.continuous_vars += 1; // r_e^q
            size.constraints += 2; // (26), (27)
        }
        // (23): per (fiber, slot) — bounded by the whole fiber plant.
        size.constraints += inst.wan.optical.num_fibers() as u128 * slots;
    }
    size
}

/// Exact LotteryTicket selection as a binary ILP (Table 9).
///
/// Returns `(objective, winning ticket per scenario)`. Only call on small
/// instances — the model has one binary per (scenario, ticket) and big-M
/// constraints per (flow, scenario, ticket).
pub fn binary_ticket_selection(
    inst: &TeInstance,
    tickets: &TicketSet,
    solver: &SolverConfig,
) -> Option<(f64, Vec<usize>)> {
    use crate::schemes::base_model;
    let mut base = base_model(inst);
    let big_m: f64 = inst
        .flows
        .iter()
        .map(|f| f.demand_gbps)
        .fold(0.0, f64::max)
        .max(inst.wan.links.iter().map(|l| l.capacity_gbps).fold(0.0, f64::max))
        * 4.0;
    let mut selectors: Vec<Vec<VarId>> = Vec::new();
    for (qi, scen) in inst.scenarios.iter().enumerate() {
        let mut xs = Vec::new();
        for ticket in tickets.for_scenario(qi) {
            let x = base.model.add_binary();
            xs.push(x);
            let overlay = ScenarioOverlay::new(inst, Some(scen), Some(ticket));
            // (31): Σ_{t∈Y∪T^q} a ≥ b_f − M(1−x)
            for (fi, flow) in inst.flows.iter().enumerate() {
                if flow.tunnels.iter().all(|&t| overlay.survives(t)) {
                    continue;
                }
                let covered: Vec<_> = flow.tunnels.iter().filter(|&&t| overlay.alive(t)).collect();
                if covered.is_empty() {
                    continue; // best-effort flow (mirrors the LP two-phase)
                }
                let mut e = LinExpr::term(base.b[fi], -1.0).add(x, -big_m);
                for &&t in &covered {
                    e.add_term(base.a[t.0], 1.0);
                }
                base.model.add_con(e, Sense::Ge, -big_m);
            }
            // (32): restorable-tunnel load ≤ r + M(1−x), per direction.
            for &(link, r) in &ticket.restored {
                for fwd in [true, false] {
                    let users: Vec<VarId> = inst
                        .tunnels_on(link, fwd)
                        .filter(|&t| overlay.restorable(t))
                        .map(|t| base.a[t.0])
                        .collect();
                    if users.is_empty() {
                        continue;
                    }
                    let e = LinExpr::sum_vars(users).add(x, big_m);
                    base.model.add_con(e, Sense::Le, r + big_m);
                }
            }
        }
        // (33): exactly one ticket per scenario.
        base.model.add_con(LinExpr::sum_vars(xs.iter().copied()), Sense::Eq, 1.0);
        selectors.push(xs);
    }
    base.model.set_objective(LinExpr::sum_vars(base.b.iter().copied()), Objective::Maximize);
    let sol = arrow_lp::solve(&base.model, solver);
    if !sol.status.is_optimal() {
        return None;
    }
    let winning = selectors
        .iter()
        .map(|xs| xs.iter().position(|&x| sol.value(x) > 0.5).unwrap_or(0))
        .collect();
    Some((sol.objective, winning))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restoration::RestorationTicket;
    use crate::schemes::arrow::{Arrow, ArrowOnline};
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    fn tiny_instance() -> TeInstance {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 2, ..Default::default() });
        build_instance(
            &wan,
            &tms[0].scaled(4.0),
            &failures.failure_scenarios(),
            &TunnelConfig {
                tunnels_per_flow: 3,
                prefer_fiber_disjoint: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn joint_size_grows_with_scenarios_and_slots() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let f_small =
            generate_failures(&wan, &FailureConfig { max_scenarios: 3, ..Default::default() });
        let f_big =
            generate_failures(&wan, &FailureConfig { max_scenarios: 12, ..Default::default() });
        let i_small =
            build_instance(&wan, &tms[0], &f_small.failure_scenarios(), &Default::default());
        let i_big = build_instance(&wan, &tms[0], &f_big.failure_scenarios(), &Default::default());
        let s_small = joint_formulation_size(&i_small, 3);
        let s_big = joint_formulation_size(&i_big, 3);
        assert!(s_big.binary_vars > s_small.binary_vars);
        assert!(s_big.constraints > s_small.constraints);
        // Even the small B4 instance needs many thousands of binaries —
        // the Table 8 "intractable" story.
        assert!(s_small.binary_vars > 1_000, "binaries: {}", s_small.binary_vars);
    }

    #[test]
    fn binary_ilp_agrees_with_two_phase_winner() {
        let inst = tiny_instance();
        // Two tickets per scenario: restore-nothing vs restore-everything.
        let tickets = TicketSet::full(
            inst.scenarios
                .iter()
                .map(|s| {
                    vec![
                        RestorationTicket {
                            restored: s.failed_links.iter().map(|&l| (l, 0.0)).collect(),
                        },
                        RestorationTicket {
                            restored: s
                                .failed_links
                                .iter()
                                .map(|&l| (l, inst.wan.link(l).capacity_gbps))
                                .collect(),
                        },
                    ]
                })
                .collect(),
        );
        let (ilp_obj, ilp_winning) =
            binary_ticket_selection(&inst, &tickets, &SolverConfig::default())
                .expect("tiny ILP must solve");
        let outcome = ArrowOnline::new(Arrow::new(tickets), &inst).solve(&inst);
        // The exact ILP picks full restoration everywhere; the LP two-phase
        // must match both the selection and (approximately) the objective.
        assert_eq!(ilp_winning, outcome.winning);
        let lp_obj = outcome.output.alloc.total_admitted();
        assert!(
            (ilp_obj - lp_obj).abs() / ilp_obj.max(1.0) < 1e-3,
            "ILP {ilp_obj} vs two-phase {lp_obj}"
        );
    }
}
