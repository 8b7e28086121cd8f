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
use crate::modulation;
use crate::spectrum::SpectrumMask;
use arrow_lp::{LinExpr, Model, Objective, Sense, SolverConfig};

/// Number of candidate surrogate paths per failed IP link.
const K_PATHS: usize = 3;

/// Configuration of the restoration RWA.
#[derive(Debug, Clone)]
pub struct RwaConfig {
    /// Allow transponders to retune to any free frequency. When `false`,
    /// restored wavelengths may only reuse their original slots (the
    /// "without frequency tuning" variant of Fig. 17).
    pub allow_retuning: bool,
    /// Allow stepping down the modulation when the surrogate path exceeds
    /// the current modulation's reach (Appendix A.1).
    pub allow_modulation_change: bool,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl Default for RwaConfig {
    fn default() -> Self {
        RwaConfig {
            allow_retuning: true,
            allow_modulation_change: false,
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
    /// Fractional restored wavelengths per path (LP relaxation output).
    pub(crate) per_path_wavelengths: Vec<f64>,
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
    if modulation::supports_without_change(current_gbps, length_km) {
        Some(current_gbps)
    } else if cfg.allow_modulation_change {
        modulation::max_gbps_for_length(length_km).map(|g| g.min(current_gbps))
    } else {
        None
    }
}

/// `(lightpath, candidate surrogate paths, per-wavelength Gbps per path)`.
type Candidates = (LightpathId, Vec<FiberPath>, Vec<f64>);

/// Computes candidate surrogate paths for every lightpath affected by `cut`.
fn candidate_paths(net: &OpticalNetwork, cut: &[FiberId], cfg: &RwaConfig) -> Vec<Candidates> {
    net.affected_lightpaths(cut)
        .into_iter()
        .map(|id| {
            let lp = net.lightpath(id);
            let reach_cap = if cfg.allow_modulation_change {
                modulation::MAX_REACH_KM
            } else {
                modulation::reach_for_gbps(lp.gbps_per_wavelength)
                    .unwrap_or(modulation::MAX_REACH_KM)
            };
            let paths = k_shortest_paths(net, lp.src, lp.dst, K_PATHS, cut, reach_cap);
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

/// The RWA view of one cut, computed once: the restoration spectrum, each
/// affected lightpath's candidate paths (in `affected_lightpaths` order)
/// and its first-fit slot order (original slots, then the rest if it may
/// retune). A greedy call works on its own copy of the masks, so a reused
/// view answers exactly as a fresh one.
#[derive(Debug, Clone)]
pub struct RwaCut<'a> {
    net: &'a OpticalNetwork,
    cfg: &'a RwaConfig,
    masks: Vec<SpectrumMask>,
    cands: Vec<Candidates>,
    slot_orders: Vec<Vec<usize>>,
}

impl<'a> RwaCut<'a> {
    /// Computes the view of `cut`.
    pub fn new(net: &'a OpticalNetwork, cut: &[FiberId], cfg: &'a RwaConfig) -> Self {
        let cands = candidate_paths(net, cut, cfg);
        let slot_order = |id: &LightpathId| {
            let own = &net.lightpath(*id).slots;
            let rest = (0..net.num_slots()).filter(|w| cfg.allow_retuning && !own.contains(w));
            own.iter().copied().chain(rest).collect()
        };
        let slot_orders = cands.iter().map(|(id, _, _)| slot_order(id)).collect();
        RwaCut { net, cfg, masks: net.restoration_spectrum(cut), cands, slot_orders }
    }

    /// Builds the relaxed wavelength-assignment LP (Appendix A.2,
    /// constraints 14–17 with ξ relaxed to `[0, 1]`) without solving it.
    pub fn build_relaxed(&self) -> RelaxedRwaLp {
        let (net, masks) = (self.net, &self.masks);
        let mut model = Model::new();
        // var_index[(link_idx, path_idx)] -> per-slot variables (slot, VarId)
        let mut slot_vars: Vec<Vec<Vec<(usize, arrow_lp::VarId)>>> = Vec::new();
        // Per (fiber, slot), at `fiber * num_slots + slot`: variables that
        // would occupy it. Constraint (14) rows are emitted in index order, by
        // fiber, then slot; the LP's resolution of degenerate ties follows row
        // order, so the offline stage's determinism contract rests on it.
        let slots = net.num_slots();
        let mut usage: Vec<Vec<arrow_lp::VarId>> = vec![Vec::new(); masks.len() * slots];

        for (id, paths, _) in &self.cands {
            let lp = net.lightpath(*id);
            let mut per_path = Vec::new();
            for path in paths {
                let mut vars = Vec::new();
                for w in 0..slots {
                    if !self.cfg.allow_retuning && !lp.slots.contains(&w) {
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
        for (e, (id, _, _)) in self.cands.iter().enumerate() {
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
        for (e, (_, _, gbps)) in self.cands.iter().enumerate() {
            for (k, vars) in slot_vars[e].iter().enumerate() {
                for &(_, v) in vars {
                    obj.add_term(v, gbps[k].max(1.0));
                }
            }
        }
        model.set_objective(obj, Objective::Maximize);
        RelaxedRwaLp { model, cands: self.cands.clone(), slot_vars }
    }

    /// Solves the relaxed wavelength-assignment LP.
    pub fn solve_relaxed(&self) -> RwaSolution {
        let lp = self.build_relaxed();
        let sol = arrow_lp::solve(&lp.model, &self.cfg.solver);
        lp.extract(self.net, &sol)
    }

    /// Greedy first-fit exact assignment: links in `affected_lightpaths`
    /// order, each over its candidate paths and slot order, respecting
    /// continuity. `targets` (at most one entry per lightpath) only caps a
    /// link's count; `None` or no entry means as many as it lost. Returns
    /// one assignment per affected link (possibly restoring fewer).
    pub fn greedy_assign(&self, targets: Option<&[(LightpathId, usize)]>) -> Vec<ExactAssignment> {
        let mut masks = self.masks.clone();
        let mut out = Vec::with_capacity(self.cands.len());
        for ((id, paths, gbps), order) in self.cands.iter().zip(&self.slot_orders) {
            let lost = self.net.lightpath(*id).wavelength_count();
            let want = targets
                .and_then(|t| t.iter().find(|(tid, _)| tid == id).map(|&(_, n)| n))
                .unwrap_or(lost)
                .min(lost);
            let mut assigned = 0usize;
            let mut routes: Vec<(FiberPath, Vec<usize>)> = Vec::new();
            let mut route_gbps = Vec::new();
            for (path, &g) in paths.iter().zip(gbps) {
                if assigned >= want {
                    break;
                }
                let mut slots = Vec::new();
                for &w in order {
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
                    route_gbps.push(g);
                }
            }
            out.push(ExactAssignment { lightpath: *id, routes, route_gbps });
        }
        out
    }

    /// Checks whether per-link restoration targets (at most one entry per
    /// lightpath, in any order) are simultaneously realizable: the
    /// LotteryTicket feasibility filter, one greedy pass capped by them.
    /// Conservative: a `true` answer is always realizable, a `false` answer
    /// may occasionally reject a realizable ticket.
    pub fn is_feasible(&self, targets: &[(LightpathId, usize)]) -> bool {
        let assignments = self.greedy_assign(Some(targets));
        targets.iter().all(|&(id, want)| {
            assignments.iter().find(|a| a.lightpath == id).is_some_and(|a| a.wavelengths() >= want)
        })
    }
}

/// The relaxed wavelength-assignment LP for one cut, before solving.
///
/// Produced by [`RwaCut::build_relaxed`]; solve [`RelaxedRwaLp::model`] with
/// any backend and feed the result to [`RelaxedRwaLp::extract`].
#[derive(Debug)]
pub struct RelaxedRwaLp {
    /// The assembled LP (maximization).
    pub model: Model,
    /// The view's candidates, one entry per affected link.
    cands: Vec<Candidates>,
    /// `slot_vars[e][k]` = `(slot, var)` pairs for link `e`, path `k`.
    slot_vars: Vec<Vec<Vec<(usize, arrow_lp::VarId)>>>,
}

/// [`RwaCut::build_relaxed`] on a fresh view of `cut`.
pub fn build_relaxed(net: &OpticalNetwork, cut: &[FiberId], cfg: &RwaConfig) -> RelaxedRwaLp {
    RwaCut::new(net, cut, cfg).build_relaxed()
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
                per_path_wavelengths,
                wavelengths,
                gbps_per_wavelength,
            });
        }
        RwaSolution { links, total_wavelengths: total }
    }
}

/// [`RwaCut::solve_relaxed`] on a fresh view of `cut`.
pub fn solve_relaxed(net: &OpticalNetwork, cut: &[FiberId], cfg: &RwaConfig) -> RwaSolution {
    RwaCut::new(net, cut, cfg).solve_relaxed()
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

/// [`RwaCut::greedy_assign`] on a fresh view of `cut`.
pub fn greedy_assign(
    net: &OpticalNetwork,
    cut: &[FiberId],
    cfg: &RwaConfig,
    targets: Option<&[(LightpathId, usize)]>,
) -> Vec<ExactAssignment> {
    RwaCut::new(net, cut, cfg).greedy_assign(targets)
}

/// [`RwaCut::is_feasible`] on a fresh view of `cut`.
pub fn is_feasible(
    net: &OpticalNetwork,
    cut: &[FiberId],
    cfg: &RwaConfig,
    targets: &[(LightpathId, usize)],
) -> bool {
    RwaCut::new(net, cut, cfg).is_feasible(targets)
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

    // The Fig. 7 tests run each check through the free function (a fresh
    // view per call) and through one view that serves every call of the test.

    #[test]
    fn relaxed_rwa_restores_five_of_twelve() {
        let (net, f_bc, _, _) = fig7();
        let cfg = RwaConfig::default();
        let view = RwaCut::new(&net, &[f_bc], &cfg);
        for sol in [solve_relaxed(&net, &[f_bc], &cfg), view.solve_relaxed()] {
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
    }

    #[test]
    fn greedy_assignment_is_integral_and_consistent() {
        let (net, f_bc, _, _) = fig7();
        let cfg = RwaConfig::default();
        let view = RwaCut::new(&net, &[f_bc], &cfg);
        let runs = [greedy_assign(&net, &[f_bc], &cfg, None), view.greedy_assign(None)];
        for assigns in runs.iter().chain([&view.greedy_assign(None)]) {
            let total: usize = assigns.iter().map(|a| a.wavelengths()).sum();
            assert_eq!(total, 5);
            // No slot is double-assigned on any fiber.
            let mut used: std::collections::HashSet<(usize, usize)> = Default::default();
            for a in assigns {
                for (path, slots) in &a.routes {
                    for &f in &path.fibers {
                        for &w in slots {
                            assert!(used.insert((f.0, w)), "fiber {f:?} slot {w} double used");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn feasibility_check_accepts_candidates_and_rejects_overask() {
        let (net, f_bc, ip1, ip2) = fig7();
        let cfg = RwaConfig::default();
        let view = RwaCut::new(&net, &[f_bc], &cfg);
        // Fig. 7 candidate 2 (1 wavelength for IP1, 4 for IP2) and candidate
        // 1 (2, 3) fit; six wavelengths cannot (only 5 are free end to end).
        for (targets, fits) in [
            ([(ip1, 1), (ip2, 4)], true),
            ([(ip1, 2), (ip2, 3)], true),
            ([(ip1, 2), (ip2, 4)], false),
        ] {
            assert_eq!(is_feasible(&net, &[f_bc], &cfg, &targets), fits, "{targets:?}");
            assert_eq!(view.is_feasible(&targets), fits, "{targets:?} on the shared view");
        }
    }

    #[test]
    fn no_retuning_restricts_to_original_slots() {
        let (net, f_bc, _, _) = fig7();
        let cfg = RwaConfig { allow_retuning: false, ..Default::default() };
        let view = RwaCut::new(&net, &[f_bc], &cfg);
        for sol in [solve_relaxed(&net, &[f_bc], &cfg), view.solve_relaxed()] {
            // Free slots are 0..3 (top) and 0..2 (bottom); IP1 owns slots 0-3
            // so it can restore, IP2 owns 4-11 which are occupied on
            // surrogates.
            let by_id: Vec<f64> = sol.links.iter().map(|l| l.wavelengths).collect();
            assert!(by_id[0] > 0.0, "IP1 should restore without retuning");
            assert!(by_id[1] < 1e-6, "IP2 cannot restore without retuning");
        }
        let greedy = view.greedy_assign(None);
        assert!(greedy[0].wavelengths() > 0 && greedy[1].wavelengths() == 0);
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
