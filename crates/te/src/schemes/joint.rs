//! The intractable joint IP/optical formulation (Appendix A.4), counted.
//!
//! **Formulation size accounting** (Table 8): the number of binary
//! variables, continuous variables, and constraints the optimal joint
//! IP/optical TE (Table 7) would require for a given instance. The counts
//! follow Table 7's index sets — `ξ_{φ,w}^{e,k,q}` over (scenario, failed
//! link, candidate path, fiber-on-path, wavelength slot) and `λ_e^{k,q}`
//! integers — and demonstrate *why* ARROW's LotteryTicket abstraction
//! exists. Nothing here builds or solves the integer program.
//!
//! Table 9's binary ticket selection (Appendix A.5, one binary per ticket
//! with big-M rows (31)–(33)) optimizes the Phase II objective over every
//! winner vector at once. The tests below check the two-phase winners
//! against that optimum by enumerating the winner vectors and solving each
//! Phase II LP exactly, so no integer solver is needed.

use crate::tunnels::TeInstance;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restoration::{RestorationTicket, TicketSet};
    use crate::schemes::arrow::{Arrow, ArrowOnline};
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_lp::SolverConfig;
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
            &TunnelConfig { tunnels_per_flow: 3, prefer_fiber_disjoint: true },
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
    fn two_phase_winners_maximize_phase2_over_every_winner_vector() {
        let inst = tiny_instance();
        // Two tickets per scenario: restore-nothing vs restore-everything.
        let tickets = TicketSet::full(
            inst.scenarios
                .iter()
                .map(|s| {
                    vec![
                        RestorationTicket::uniform(&inst.wan, s, 0.0),
                        RestorationTicket::uniform(&inst.wan, s, 1.0),
                    ]
                })
                .collect(),
        );
        // Every winner vector in Π_q Z_q, counted like an odometer, with its
        // exact Phase II optimum: what Table 9's ILP maximizes over.
        let arrow = Arrow::new(tickets.clone());
        let sizes: Vec<usize> =
            (0..inst.scenarios.len()).map(|q| tickets.for_scenario(q).len()).collect();
        let mut winning = vec![0; sizes.len()];
        let mut objectives = Vec::new();
        loop {
            let (base, _) = arrow.build_phase2(&inst, &winning);
            let sol = arrow_lp::solve(&base.model, &SolverConfig::exact());
            assert!(sol.status.is_optimal(), "Phase II for {winning:?}: {:?}", sol.status);
            objectives.push((winning.clone(), sol.objective));
            let Some(q) = (0..sizes.len()).find(|&q| winning[q] + 1 < sizes[q]) else { break };
            winning[q] += 1;
            winning[..q].fill(0);
        }
        assert_eq!(objectives.len(), sizes.iter().product::<usize>());
        let best = objectives.iter().map(|&(_, o)| o).fold(f64::NEG_INFINITY, f64::max);

        // The two-phase winners are an argmax, and their admitted traffic
        // is the maximum.
        let outcome = ArrowOnline::new(Arrow::new(tickets), &inst).solve(&inst);
        let chosen = objectives
            .iter()
            .find(|(w, _)| *w == outcome.winning)
            .map(|&(_, o)| o)
            .expect("two-phase winners index the ticket lists");
        assert!(
            chosen >= best - 1e-9 * best.abs().max(1.0),
            "winners {:?} reach {chosen}, the best vector reaches {best}",
            outcome.winning
        );
        let admitted = outcome.output.alloc.total_admitted();
        assert!(
            (best - admitted).abs() / best.max(1.0) < 1e-3,
            "enumerated optimum {best} vs two-phase {admitted}"
        );
    }
}
