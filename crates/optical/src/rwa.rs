//! Routing and Wavelength Assignment (RWA) for restoration.
//!
//! Implements Appendix A.2 of the paper. Given a set of cut fibers, the
//! lightpaths (IP links) riding them must be re-homed onto *surrogate*
//! fiber paths:
//!
//! 1. **Routing** — for each failed lightpath, compute `k` shortest
//!    surrogate paths avoiding the cut fibers, capped by the modulation
//!    reach (Table 6). Multiple restored wavelengths of one IP link may
//!    split across several surrogate paths (LACP aggregates them).
//! 2. **Wavelength assignment** — an LP deciding how many wavelengths each
//!    `(link, path)` pair restores on which slots, subject to per-fiber slot
//!    availability and the wavelength-continuity constraint (a slot variable
//!    spans *all* fibers of its path, which is exactly constraint (16)).
//!    The 0/1 ILP is relaxed to an LP per the paper; the fractional
//!    wavelength counts `λ_e` seed ARROW's randomized rounding.
//!
//! The module also provides an **exact greedy first-fit assigner**, used (a)
//! to build ARROW-Naive's single restoration plan and (b) as the ticket
//! feasibility check (§3.2 "Handling LotteryTickets' feasibility"). The
//! greedy check is conservative: it may reject a ticket a smarter exact
//! search could realize, but it never accepts an infeasible one.

use crate::graph::{FiberId, LightpathId, OpticalNetwork};
use crate::ksp::{k_shortest_paths, FiberPath};
use crate::modulation::ModulationTable;
use crate::spectrum::SpectrumMask;
use arrow_lp::{LinExpr, Model, Objective, Sense, SolverConfig};

/// Configuration of the restoration RWA.
#[derive(Debug, Clone)]
pub struct RwaConfig {
    /// Number of candidate surrogate paths per failed IP link.
    pub k_paths: usize,
    /// Allow transponders to retune to any free frequency. When `false`,
    /// restored wavelengths may only reuse their original slots (the
    /// "without frequency tuning" variant of Fig. 17).
    pub allow_retuning: bool,
    /// Allow stepping down the modulation when the surrogate path exceeds
    /// the current modulation's reach (Appendix A.1).
    pub allow_modulation_change: bool,
    /// Modulation spec sheet.
    pub modulation: ModulationTable,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl Default for RwaConfig {
    fn default() -> Self {
        RwaConfig {
            k_paths: 3,
            allow_retuning: true,
            allow_modulation_change: false,
            modulation: ModulationTable::default(),
            solver: SolverConfig::default(),
        }
    }
}

/// Fractional restoration of one failed IP link.
#[derive(Debug, Clone)]
pub struct LinkRestoration {
    /// Which lightpath (IP link) this describes.
    pub lightpath: LightpathId,
    /// Wavelengths lost with the cut (γ_e).
    pub lost_wavelengths: usize,
    /// Candidate surrogate paths (possibly empty if disconnected).
    pub paths: Vec<FiberPath>,
    /// Per-wavelength datarate usable on each candidate path.
    pub path_gbps: Vec<f64>,
    /// Fractional restored wavelengths per path (LP relaxation output).
    pub per_path_wavelengths: Vec<f64>,
    /// Total fractional restored wavelengths, `λ_e = Σ_k λ_e^k`.
    pub wavelengths: f64,
    /// Effective per-wavelength Gbps (path-weighted average; falls back to
    /// the best path's rate when nothing was restored).
    pub gbps_per_wavelength: f64,
}

impl LinkRestoration {
    /// Fractional restorable capacity in Gbps.
    pub fn restored_gbps(&self) -> f64 {
        self.wavelengths * self.gbps_per_wavelength
    }
}

/// The outcome of the relaxed RWA for one fiber-cut scenario.
#[derive(Debug, Clone)]
pub struct RwaSolution {
    /// One entry per failed IP link, in [`OpticalNetwork::affected_lightpaths`] order.
    pub links: Vec<LinkRestoration>,
    /// Total fractional restored wavelengths.
    pub total_wavelengths: f64,
}

/// Per-wavelength datarate usable by lightpath `lp` on a path of the given
/// length, or `None` if no modulation reaches.
fn usable_gbps(cfg: &RwaConfig, current_gbps: f64, length_km: f64) -> Option<f64> {
    if cfg.modulation.supports_without_change(current_gbps, length_km) {
        Some(current_gbps)
    } else if cfg.allow_modulation_change {
        cfg.modulation.max_gbps_for_length(length_km).map(|g| g.min(current_gbps))
    } else {
        None
    }
}

/// Computes candidate surrogate paths for every lightpath affected by `cut`.
fn candidate_paths(
    net: &OpticalNetwork,
    cut: &[FiberId],
    cfg: &RwaConfig,
) -> Vec<(LightpathId, Vec<FiberPath>, Vec<f64>)> {
    net.affected_lightpaths(cut)
        .into_iter()
        .map(|id| {
            let lp = net.lightpath(id);
            let reach_cap = if cfg.allow_modulation_change {
                cfg.modulation.max_reach_km()
            } else {
                cfg.modulation
                    .reach_for_gbps(lp.gbps_per_wavelength)
                    .unwrap_or_else(|| cfg.modulation.max_reach_km())
            };
            let paths = k_shortest_paths(net, lp.src, lp.dst, cfg.k_paths, cut, reach_cap);
            let mut kept = Vec::new();
            let mut gbps = Vec::new();
            for p in paths {
                if let Some(g) = usable_gbps(cfg, lp.gbps_per_wavelength, p.length_km) {
                    kept.push(p);
                    gbps.push(g);
                }
            }
            (id, kept, gbps)
        })
        .collect()
}

/// The relaxed wavelength-assignment LP for one cut, before solving.
///
/// Produced by [`build_relaxed`]; solve [`RelaxedRwaLp::model`] with any
/// backend and feed the result to [`RelaxedRwaLp::extract`]. Splitting
/// build from solve lets [`solve_relaxed_batch`] submit a whole chunk of
/// scenario LPs as one [`arrow_lp::solve_batch`] call.
#[derive(Debug)]
pub struct RelaxedRwaLp {
    /// The assembled LP (maximization).
    pub model: Model,
    /// `(lightpath, candidate paths, per-wavelength Gbps)` per affected link.
    cands: Vec<(LightpathId, Vec<FiberPath>, Vec<f64>)>,
    /// `slot_vars[e][k]` = `(slot, var)` pairs for link `e`, path `k`.
    slot_vars: Vec<Vec<Vec<(usize, arrow_lp::VarId)>>>,
}

/// Builds the relaxed wavelength-assignment LP (Appendix A.2, constraints
/// 14–17 with ξ relaxed to `[0, 1]`) without solving it.
pub fn build_relaxed(net: &OpticalNetwork, cut: &[FiberId], cfg: &RwaConfig) -> RelaxedRwaLp {
    let masks = net.restoration_spectrum(cut);
    let cands = candidate_paths(net, cut, cfg);
    let mut model = Model::new();
    // var_index[(link_idx, path_idx)] -> per-slot variables (slot, VarId)
    let mut slot_vars: Vec<Vec<Vec<(usize, arrow_lp::VarId)>>> = Vec::new();
    // Per (fiber, slot), at `fiber * num_slots + slot`: variables that
    // would occupy it. Constraint (14) rows are emitted in index order, that
    // is by fiber, then slot; the LP's resolution of degenerate ties follows
    // row order, so the offline stage's determinism contract rests on it.
    let slots = net.num_slots();
    let mut usage: Vec<Vec<arrow_lp::VarId>> = vec![Vec::new(); masks.len() * slots];

    for (id, paths, _) in &cands {
        let lp = net.lightpath(*id);
        let mut per_path = Vec::new();
        for path in paths {
            let mut vars = Vec::new();
            for w in 0..slots {
                if !cfg.allow_retuning && !lp.slots.contains(&w) {
                    continue;
                }
                // Wavelength continuity: slot must be free on every fiber.
                if path.fibers.iter().any(|&f| masks[f.0].is_occupied(w)) {
                    continue;
                }
                let v = model.add_var(0.0, 1.0);
                vars.push((w, v));
                for &f in &path.fibers {
                    usage[f.0 * slots + w].push(v);
                }
            }
            per_path.push(vars);
        }
        slot_vars.push(per_path);
    }
    // Constraint (14): each free slot on each fiber used at most once.
    // Rows with a single variable are implied by the [0, 1] bound — skip.
    for vars in usage {
        if vars.len() >= 2 {
            model.add_con(LinExpr::sum_vars(vars), Sense::Le, 1.0);
        }
    }
    // Constraint (17): restored wavelengths per link ≤ lost wavelengths.
    for (e, (id, _, _)) in cands.iter().enumerate() {
        let gamma = net.lightpath(*id).wavelength_count() as f64;
        let all: Vec<_> = slot_vars[e].iter().flatten().map(|&(_, v)| v).collect();
        if !all.is_empty() {
            model.add_con(LinExpr::sum_vars(all), Sense::Le, gamma);
        }
    }
    // Objective: the paper maximizes the restored wavelength count
    // Σ_e Σ_k λ_e^k; with per-path modulations a wavelength restored on a
    // short 400G-capable path is worth more than one forced onto a long
    // 100G path, so each wavelength is weighted by its path's datarate
    // (pure count would be indifferent and could pick low-rate paths).
    let mut obj = LinExpr::new();
    for (e, (_, _, gbps)) in cands.iter().enumerate() {
        for (k, vars) in slot_vars[e].iter().enumerate() {
            for &(_, v) in vars {
                obj.add_term(v, gbps[k].max(1.0));
            }
        }
    }
    model.set_objective(obj, Objective::Maximize);
    RelaxedRwaLp { model, cands, slot_vars }
}

impl RelaxedRwaLp {
    /// Interprets an LP solution of [`RelaxedRwaLp::model`] as fractional
    /// per-link restorations.
    pub fn extract(self, net: &OpticalNetwork, sol: &arrow_lp::Solution) -> RwaSolution {
        let mut links = Vec::new();
        let mut total = 0.0;
        for (e, (id, paths, gbps)) in self.cands.into_iter().enumerate() {
            let per_path_wavelengths: Vec<f64> = self.slot_vars[e]
                .iter()
                .map(|vars| vars.iter().map(|&(_, v)| sol.value(v).clamp(0.0, 1.0)).sum())
                .collect();
            let wavelengths: f64 = per_path_wavelengths.iter().sum();
            let gbps_per_wavelength = if wavelengths > 1e-9 {
                per_path_wavelengths.iter().zip(gbps.iter()).map(|(l, g)| l * g).sum::<f64>()
                    / wavelengths
            } else {
                gbps.iter().copied().fold(0.0, f64::max)
            };
            total += wavelengths;
            links.push(LinkRestoration {
                lightpath: id,
                lost_wavelengths: net.lightpath(id).wavelength_count(),
                paths,
                path_gbps: gbps,
                per_path_wavelengths,
                wavelengths,
                gbps_per_wavelength,
            });
        }
        RwaSolution { links, total_wavelengths: total }
    }
}

/// Solves the relaxed wavelength-assignment LP for one cut.
pub fn solve_relaxed(net: &OpticalNetwork, cut: &[FiberId], cfg: &RwaConfig) -> RwaSolution {
    let lp = build_relaxed(net, cut, cfg);
    let sol = arrow_lp::solve(&lp.model, &cfg.solver);
    lp.extract(net, &sol)
}

/// Solves the relaxed RWA for a whole chunk of cut scenarios as one
/// [`arrow_lp::solve_batch`] call.
///
/// Every scenario cuts different fibers, so every LP has its own rows and
/// columns and the lanes solve one after another, sharing only the simplex
/// buffers. Per-scenario results are bitwise identical to calling
/// [`solve_relaxed`] on each cut, so offline ticket digests do not depend
/// on the chunking.
pub fn solve_relaxed_batch(
    net: &OpticalNetwork,
    cuts: &[&[FiberId]],
    cfg: &RwaConfig,
) -> Vec<RwaSolution> {
    let lps: Vec<RelaxedRwaLp> = cuts.iter().map(|cut| build_relaxed(net, cut, cfg)).collect();
    let models: Vec<&Model> = lps.iter().map(|lp| &lp.model).collect();
    let sols = arrow_lp::solve_batch(&models, &cfg.solver);
    lps.into_iter().zip(&sols).map(|(lp, sol)| lp.extract(net, sol)).collect()
}

/// An exact (integral) wavelength assignment for one failed link.
#[derive(Debug, Clone)]
pub struct ExactAssignment {
    /// Which lightpath this restores.
    pub lightpath: LightpathId,
    /// `(path, slots assigned on that path)` pairs.
    pub routes: Vec<(FiberPath, Vec<usize>)>,
    /// Per-wavelength Gbps on each route (parallel to `routes`).
    pub route_gbps: Vec<f64>,
}

impl ExactAssignment {
    /// Number of wavelengths restored.
    pub fn wavelengths(&self) -> usize {
        self.routes.iter().map(|(_, s)| s.len()).sum()
    }

    /// Restored capacity in Gbps.
    pub fn restored_gbps(&self) -> f64 {
        self.routes
            .iter()
            .zip(self.route_gbps.iter())
            .map(|((_, slots), g)| slots.len() as f64 * g)
            .sum()
    }
}

/// Greedy first-fit exact assignment.
///
/// `targets` caps how many wavelengths each affected link should restore
/// (`None` = as many as were lost). Links are processed in the given order;
/// slots are assigned first-fit respecting continuity. Returns one
/// assignment per affected link (possibly restoring fewer than requested).
pub fn greedy_assign(
    net: &OpticalNetwork,
    cut: &[FiberId],
    cfg: &RwaConfig,
    targets: Option<&[(LightpathId, usize)]>,
) -> Vec<ExactAssignment> {
    let mut masks: Vec<SpectrumMask> = net.restoration_spectrum(cut);
    let cands = candidate_paths(net, cut, cfg);
    let mut out = Vec::new();
    for (id, paths, gbps) in cands {
        let lp = net.lightpath(id);
        let want = targets
            .and_then(|t| t.iter().find(|(tid, _)| *tid == id).map(|&(_, n)| n))
            .unwrap_or(lp.wavelength_count())
            .min(lp.wavelength_count());
        let mut assigned = 0usize;
        let mut routes: Vec<(FiberPath, Vec<usize>)> = Vec::new();
        let mut route_gbps = Vec::new();
        for (k, path) in paths.iter().enumerate() {
            if assigned >= want {
                break;
            }
            let mut slots = Vec::new();
            // Prefer original slots first (no retuning latency), then scan.
            let original_first: Vec<usize> = if cfg.allow_retuning {
                let mut order: Vec<usize> = lp.slots.clone();
                order.extend((0..net.num_slots()).filter(|w| !lp.slots.contains(w)));
                order
            } else {
                lp.slots.clone()
            };
            for w in original_first {
                if assigned >= want {
                    break;
                }
                if path.fibers.iter().all(|&f| masks[f.0].is_free(w)) {
                    for &f in &path.fibers {
                        masks[f.0].occupy(w);
                    }
                    slots.push(w);
                    assigned += 1;
                }
            }
            if !slots.is_empty() {
                routes.push((path.clone(), slots));
                route_gbps.push(gbps[k]);
            }
        }
        out.push(ExactAssignment { lightpath: id, routes, route_gbps });
    }
    out
}

/// Checks whether per-link restoration targets are simultaneously
/// realizable in the optical domain (the LotteryTicket feasibility filter).
///
/// Conservative: links are attempted in descending target order with greedy
/// first-fit; a `true` answer is always realizable, a `false` answer may
/// occasionally reject a realizable ticket.
pub fn is_feasible(
    net: &OpticalNetwork,
    cut: &[FiberId],
    cfg: &RwaConfig,
    targets: &[(LightpathId, usize)],
) -> bool {
    let mut ordered: Vec<(LightpathId, usize)> = targets.to_vec();
    ordered.sort_by_key(|&(_, want)| std::cmp::Reverse(want));
    let assignments = greedy_assign(net, cut, cfg, Some(&ordered));
    targets.iter().all(|&(id, want)| {
        assignments.iter().find(|a| a.lightpath == id).is_some_and(|a| a.wavelengths() >= want)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Lightpath;

    /// The Fig. 7 setup: B--C direct fiber carrying two IP links (4 + 8
    /// wavelengths), plus a top path (B-X-C) with 3 free slots end-to-end
    /// and a bottom path (B-Y-C) with 2 free slots end-to-end.
    fn fig7() -> (OpticalNetwork, FiberId, LightpathId, LightpathId) {
        let mut net = OpticalNetwork::new(16);
        let b = net.add_roadm();
        let c = net.add_roadm();
        let x = net.add_roadm();
        let y = net.add_roadm();
        let f_bc = net.add_fiber(b, c, 100.0).unwrap();
        let f_bx = net.add_fiber(b, x, 100.0).unwrap();
        let f_xc = net.add_fiber(x, c, 100.0).unwrap();
        let f_by = net.add_fiber(b, y, 100.0).unwrap();
        let f_yc = net.add_fiber(y, c, 100.0).unwrap();
        // Failing links on the direct fiber.
        let ip1 = net
            .provision(Lightpath {
                src: b,
                dst: c,
                path: vec![f_bc],
                slots: vec![0, 1, 2, 3],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
        let ip2 = net
            .provision(Lightpath {
                src: b,
                dst: c,
                path: vec![f_bc],
                slots: vec![4, 5, 6, 7, 8, 9, 10, 11],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
        // Background traffic leaves 3 free slots on the top path and 2 on
        // the bottom path (occupy the rest end-to-end).
        for w in 3..16 {
            net.provision(Lightpath {
                src: b,
                dst: x,
                path: vec![f_bx],
                slots: vec![w],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
            net.provision(Lightpath {
                src: x,
                dst: c,
                path: vec![f_xc],
                slots: vec![w],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
        }
        for w in 2..16 {
            net.provision(Lightpath {
                src: b,
                dst: y,
                path: vec![f_by],
                slots: vec![w],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
            net.provision(Lightpath {
                src: y,
                dst: c,
                path: vec![f_yc],
                slots: vec![w],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
        }
        (net, f_bc, ip1, ip2)
    }

    #[test]
    fn relaxed_rwa_restores_five_of_twelve() {
        let (net, f_bc, _, _) = fig7();
        let sol = solve_relaxed(&net, &[f_bc], &RwaConfig::default());
        // Top path has 3 free slots, bottom has 2 => 5 restorable total.
        assert!(
            (sol.total_wavelengths - 5.0).abs() < 1e-4,
            "restored {} wavelengths",
            sol.total_wavelengths
        );
        // No link exceeds its lost wavelength count.
        for l in &sol.links {
            assert!(l.wavelengths <= l.lost_wavelengths as f64 + 1e-6);
        }
    }

    #[test]
    fn batched_rwa_matches_sequential_and_handles_empty_cut() {
        let (net, f_bc, _, _) = fig7();
        let cfg = RwaConfig::default();
        // Lane 0 has zero cut links (an empty LP); lanes 1 and 2 repeat the
        // same cut, so they share structure and exercise lane grouping.
        let cut = [f_bc];
        let cuts: [&[FiberId]; 3] = [&[], &cut, &cut];
        let batched = solve_relaxed_batch(&net, &cuts, &cfg);
        assert_eq!(batched.len(), 3);
        assert!(batched[0].links.is_empty());
        assert_eq!(batched[0].total_wavelengths, 0.0);
        for b in &batched[1..] {
            let seq = solve_relaxed(&net, &cut, &cfg);
            assert_eq!(seq.links.len(), b.links.len());
            assert_eq!(seq.total_wavelengths.to_bits(), b.total_wavelengths.to_bits());
            for (ls, lb) in seq.links.iter().zip(&b.links) {
                assert_eq!(ls.lightpath, lb.lightpath);
                for (a, c) in ls.per_path_wavelengths.iter().zip(&lb.per_path_wavelengths) {
                    assert_eq!(a.to_bits(), c.to_bits());
                }
            }
        }
    }

    #[test]
    fn greedy_assignment_is_integral_and_consistent() {
        let (net, f_bc, _, _) = fig7();
        let assigns = greedy_assign(&net, &[f_bc], &RwaConfig::default(), None);
        let total: usize = assigns.iter().map(|a| a.wavelengths()).sum();
        assert_eq!(total, 5);
        // No slot is double-assigned on any fiber.
        let mut used: std::collections::HashSet<(usize, usize)> = Default::default();
        for a in &assigns {
            for (path, slots) in &a.routes {
                for &f in &path.fibers {
                    for &w in slots {
                        assert!(used.insert((f.0, w)), "fiber {f:?} slot {w} double used");
                    }
                }
            }
        }
    }

    #[test]
    fn feasibility_check_accepts_candidates_and_rejects_overask() {
        let (net, f_bc, ip1, ip2) = fig7();
        let cfg = RwaConfig::default();
        // Fig. 7 candidate 2: (1 wavelength for IP1, 4 for IP2).
        assert!(is_feasible(&net, &[f_bc], &cfg, &[(ip1, 1), (ip2, 4)]));
        // Candidate 1: (2, 3).
        assert!(is_feasible(&net, &[f_bc], &cfg, &[(ip1, 2), (ip2, 3)]));
        // Asking for six total wavelengths cannot work (only 5 free e2e).
        assert!(!is_feasible(&net, &[f_bc], &cfg, &[(ip1, 2), (ip2, 4)]));
    }

    #[test]
    fn no_retuning_restricts_to_original_slots() {
        let (net, f_bc, _, _) = fig7();
        let cfg = RwaConfig { allow_retuning: false, ..Default::default() };
        let sol = solve_relaxed(&net, &[f_bc], &cfg);
        // Free slots are 0..3 (top) and 0..2 (bottom); IP1 owns slots 0-3 so
        // it can restore, IP2 owns 4-11 which are occupied on surrogates.
        let by_id: Vec<f64> = sol.links.iter().map(|l| l.wavelengths).collect();
        assert!(by_id[0] > 0.0, "IP1 should restore without retuning");
        assert!(by_id[1] < 1e-6, "IP2 cannot restore without retuning");
    }

    #[test]
    fn disconnected_link_restores_nothing() {
        let mut net = OpticalNetwork::new(4);
        let a = net.add_roadm();
        let b = net.add_roadm();
        let f = net.add_fiber(a, b, 100.0).unwrap();
        net.provision(Lightpath {
            src: a,
            dst: b,
            path: vec![f],
            slots: vec![0],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        let sol = solve_relaxed(&net, &[f], &RwaConfig::default());
        assert_eq!(sol.links.len(), 1);
        assert_eq!(sol.links[0].wavelengths, 0.0);
        assert!(sol.links[0].paths.is_empty());
    }

    #[test]
    fn modulation_reach_limits_paths() {
        // Direct 100 km fiber cut; only surrogate is 6,000 km — beyond all
        // modulations, so nothing restores even with modulation change.
        let mut net = OpticalNetwork::new(4);
        let a = net.add_roadm();
        let b = net.add_roadm();
        let c = net.add_roadm();
        let f_ab = net.add_fiber(a, b, 100.0).unwrap();
        net.add_fiber(a, c, 3000.0).unwrap();
        net.add_fiber(c, b, 3000.0).unwrap();
        net.provision(Lightpath {
            src: a,
            dst: b,
            path: vec![f_ab],
            slots: vec![0],
            gbps_per_wavelength: 400.0,
        })
        .unwrap();
        let strict = solve_relaxed(&net, &[f_ab], &RwaConfig::default());
        assert_eq!(strict.links[0].paths.len(), 0);
        let relaxed_cfg = RwaConfig { allow_modulation_change: true, ..Default::default() };
        let relaxed = solve_relaxed(&net, &[f_ab], &relaxed_cfg);
        // 6,000 km exceeds even the 100G reach (5,000 km): still nothing.
        assert_eq!(relaxed.links[0].paths.len(), 0);
    }

    #[test]
    fn modulation_change_enables_longer_surrogates() {
        // 400G on 900 km primary; surrogate is 2,000 km => needs 200G.
        let mut net = OpticalNetwork::new(4);
        let a = net.add_roadm();
        let b = net.add_roadm();
        let c = net.add_roadm();
        let f_ab = net.add_fiber(a, b, 900.0).unwrap();
        net.add_fiber(a, c, 1000.0).unwrap();
        net.add_fiber(c, b, 1000.0).unwrap();
        net.provision(Lightpath {
            src: a,
            dst: b,
            path: vec![f_ab],
            slots: vec![0, 1],
            gbps_per_wavelength: 400.0,
        })
        .unwrap();
        let strict = solve_relaxed(&net, &[f_ab], &RwaConfig::default());
        assert_eq!(strict.total_wavelengths, 0.0);
        let cfg = RwaConfig { allow_modulation_change: true, ..Default::default() };
        let sol = solve_relaxed(&net, &[f_ab], &cfg);
        assert!((sol.total_wavelengths - 2.0).abs() < 1e-6);
        assert!((sol.links[0].gbps_per_wavelength - 200.0).abs() < 1e-6);
    }
}
