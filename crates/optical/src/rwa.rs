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
use arrow_lp::{LinExpr, Model, Objective, Sense, SolverConfig, VarId};

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

/// `(lightpath, candidate surrogate paths, per-wavelength Gbps per path,
/// first-fit slot order)`.
type Candidates = (LightpathId, Vec<FiberPath>, Vec<f64>, Vec<usize>);

/// Computes candidate surrogate paths and the first-fit slot order (its
/// original slots, then the rest ascending if it may retune) of every
/// lightpath affected by `cut` (`affected`, in
/// [`OpticalNetwork::affected_lightpaths`] order).
fn candidate_paths(
    net: &OpticalNetwork,
    cut: &[FiberId],
    affected: &[LightpathId],
    cfg: &RwaConfig,
) -> Vec<Candidates> {
    affected
        .iter()
        .map(|&id| {
            let lp = net.lightpath(id);
            let reach_cap = if cfg.allow_modulation_change {
                modulation::MAX_REACH_KM
            } else {
                modulation::reach_for_gbps(lp.gbps_per_wavelength)
                    .unwrap_or(modulation::MAX_REACH_KM)
            };
            let (mut kept, mut gbps) = (Vec::new(), Vec::new());
            for p in k_shortest_paths(net, lp.src, lp.dst, K_PATHS, cut, reach_cap) {
                if let Some(g) = usable_gbps(cfg, lp.gbps_per_wavelength, p.length_km) {
                    kept.push(p);
                    gbps.push(g);
                }
            }
            // The other slots are those a mask of the original ones leaves free.
            let mut own = SpectrumMask::new(net.num_slots());
            lp.slots.iter().for_each(|&w| _ = own.occupy(w));
            let rest = own.free_slots().filter(|_| cfg.allow_retuning);
            (id, kept, gbps, lp.slots.iter().copied().chain(rest).collect())
        })
        .collect()
}

/// The RWA view of one cut, computed once: the restoration spectrum and,
/// in `affected_lightpaths` order, each affected lightpath's candidate
/// paths and first-fit slot order (original slots, then the rest if it
/// may retune). A greedy call works on its own copy of the masks, so a
/// reused view answers exactly as a fresh one.
#[derive(Debug, Clone)]
pub struct RwaCut<'a> {
    net: &'a OpticalNetwork,
    cfg: &'a RwaConfig,
    masks: Vec<SpectrumMask>,
    cands: Vec<Candidates>,
}

impl<'a> RwaCut<'a> {
    /// Computes the view of `cut`.
    pub fn new(net: &'a OpticalNetwork, cut: &[FiberId], cfg: &'a RwaConfig) -> Self {
        let affected = net.affected_lightpaths(cut);
        let cands = candidate_paths(net, cut, &affected, cfg);
        RwaCut { net, cfg, masks: net.restoration_spectrum(cut, &affected), cands }
    }

    /// Builds the relaxed wavelength-assignment LP (Appendix A.2,
    /// constraints 14–17 with ξ relaxed to `[0, 1]`) without solving it.
    ///
    /// Variables are created link by link, path by path, slot ascending.
    /// Constraint (14) has one row per `(fiber, slot)` that two or more of
    /// them would occupy, in the order of the key `fiber * slots + slot`
    /// (by fiber, then slot), each row's variables in creation order: a
    /// counting sort of the occupancies by key. The LP's resolution of
    /// degenerate ties follows row order, so the offline stage's
    /// determinism contract rests on it.
    pub fn build_relaxed(&self) -> RelaxedRwaLp {
        let (net, slots) = (self.net, self.net.num_slots());
        let mut model = Model::new();
        let mut obj = LinExpr::new();
        // The variables, where each link's and (link, path)'s run of them
        // ends, and the key of every fiber each one occupies.
        let (mut vars, mut link_ends, mut path_ends) = (Vec::new(), Vec::new(), Vec::new());
        let mut occupancy: Vec<(usize, VarId)> = Vec::new();
        let mut free = SpectrumMask::new(slots);
        for (id, paths, gbps, _) in &self.cands {
            let own = &net.lightpath(*id).slots;
            for (path, &g) in paths.iter().zip(gbps) {
                // Wavelength continuity: a slot must be free on every fiber.
                free.union_of(path.fibers.iter().map(|f| &self.masks[f.0]));
                for w in free.free_slots() {
                    if !self.cfg.allow_retuning && !own.contains(&w) {
                        continue;
                    }
                    let v = model.add_var(0.0, 1.0);
                    vars.push(v);
                    // The paper maximizes the restored wavelength count; with
                    // per-path modulations each is weighted by its path's
                    // datarate, or pure count could pick low-rate paths.
                    obj.add_term(v, g.max(1.0));
                    occupancy.extend(path.fibers.iter().map(|f| (f.0 * slots + w, v)));
                }
                path_ends.push(vars.len());
            }
            link_ends.push(vars.len());
        }
        // Constraint (14): each free slot on each fiber used at most once.
        // Rows with a single variable are implied by the [0, 1] bound — skip.
        // `ends[key]` counts up to where the key's run ends.
        let mut ends = vec![0usize; self.masks.len() * slots + 1];
        for &(key, _) in &occupancy {
            ends[key + 1] += 1;
        }
        for key in 1..ends.len() {
            ends[key] += ends[key - 1];
        }
        // Every entry of `by_key` is overwritten: it starts as a copy.
        let mut by_key: Vec<VarId> = occupancy.iter().map(|&(_, v)| v).collect();
        for &(key, v) in &occupancy {
            by_key[ends[key]] = v;
            ends[key] += 1;
        }
        let mut begin = 0;
        for &end in &ends[..ends.len() - 1] {
            if end - begin >= 2 {
                model.add_con(by_key[begin..end].iter().map(|&v| (v, 1.0)), Sense::Le, 1.0);
            }
            begin = end;
        }
        // Constraint (17): restored wavelengths per link ≤ lost wavelengths.
        let mut begin = 0;
        for ((id, ..), &end) in self.cands.iter().zip(&link_ends) {
            if end > begin {
                let gamma = net.lightpath(*id).wavelength_count() as f64;
                model.add_con(vars[begin..end].iter().map(|&v| (v, 1.0)), Sense::Le, gamma);
            }
            begin = end;
        }
        model.set_objective(obj, Objective::Maximize);
        RelaxedRwaLp { model, cands: self.cands.clone(), path_ends }
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
        let mut out = Vec::with_capacity(self.cands.len());
        self.greedy(targets.unwrap_or(&[]), Some(&mut out));
        out
    }

    /// Checks whether per-link restoration targets (at most one entry per
    /// lightpath, in any order) are simultaneously realizable: the
    /// LotteryTicket feasibility filter, one greedy pass capped by them.
    /// Conservative: a `true` answer is always realizable, a `false` answer
    /// may occasionally reject a realizable ticket.
    pub fn is_feasible(&self, targets: &[(LightpathId, usize)]) -> bool {
        self.greedy(targets, None)
    }

    /// The one greedy pass of [`RwaCut::greedy_assign`] and
    /// [`RwaCut::is_feasible`], each link capped at its first entry of
    /// `targets` (or at what it lost). With `record`, it pushes every
    /// link's assignment there. Without, it only counts, and returns
    /// whether every entry of `targets` names an affected link that got at
    /// least its count; it stops at the first link that falls short, since
    /// links are served in order and a later one cannot change the answer.
    fn greedy(
        &self,
        targets: &[(LightpathId, usize)],
        mut record: Option<&mut Vec<ExactAssignment>>,
    ) -> bool {
        let (mut masks, mut met) = (self.masks.clone(), 0);
        let mut free = SpectrumMask::new(self.net.num_slots());
        for (id, paths, gbps, order) in &self.cands {
            let lost = self.net.lightpath(*id).wavelength_count();
            let mut asks = targets.iter().filter(|(t, _)| t == id).map(|&(_, n)| n);
            let want = asks.clone().next().unwrap_or(lost).min(lost);
            let (mut assigned, mut routes, mut route_gbps) = (0, Vec::new(), Vec::new());
            for (path, &g) in paths.iter().zip(gbps) {
                if assigned >= want {
                    break;
                }
                // `free` is the union of the path's fibers, kept as it fills.
                free.union_of(path.fibers.iter().map(|f| &masks[f.0]));
                let mut slots = Vec::new();
                for &w in order {
                    if assigned >= want {
                        break;
                    }
                    if free.occupy(w) {
                        path.fibers.iter().for_each(|f| _ = masks[f.0].occupy(w));
                        slots.extend(record.is_some().then_some(w));
                        assigned += 1;
                    }
                }
                if !slots.is_empty() {
                    routes.push((path.clone(), slots));
                    route_gbps.push(g);
                }
            }
            let Some(out) = record.as_deref_mut() else {
                met += asks.clone().count();
                if asks.any(|n| n > assigned) {
                    return false;
                }
                continue;
            };
            out.push(ExactAssignment { lightpath: *id, routes, route_gbps });
        }
        met == targets.len()
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
    /// Where each (link, path) pair's slot variables end: the model's
    /// variables are those runs, link by link, path by path.
    path_ends: Vec<usize>,
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
        let (mut ends, mut begin) = (self.path_ends.iter(), 0);
        for (id, paths, gbps, _) in self.cands {
            let per_path_wavelengths: Vec<f64> = (ends.by_ref().take(paths.len()))
                .map(|&end| {
                    let run = &sol.x[std::mem::replace(&mut begin, end)..end];
                    run.iter().map(|x| x.clamp(0.0, 1.0)).sum()
                })
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
