//! `offline_b4` / `offline_ibm`: LotteryTicket generation over a compiled
//! correlated-failure universe (Algorithm 1, the offline stage).
//!
//! The timed region calls `generate_tickets_shard` on the strided shards
//! of the universe in rotation until the time is up, so every call does
//! the same kind of work on the full variety of scenarios. The traced run
//! adds a serial
//! shadow of Algorithm 1 built from the public pieces, whose per-scenario
//! counts must equal the product's own `ScenarioStats`.

use std::time::Instant;

use arrow_wan::core::lottery::round_once;
use arrow_wan::core::{default_threads, FractionalRestoration, ScenarioStats};
use arrow_wan::lp::{BackendKind, Model, Solution};
use arrow_wan::optical::rwa::build_relaxed;
use arrow_wan::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{cpu_seconds, mean, sub_seed, Checks, Ledger, Timed, Tracer};
use crate::Workload;

/// Which WAN, how much of its universe, and how it is cut into calls.
pub struct OfflineShape {
    pub ibm: bool,
    /// `UniverseConfig::max_scenarios` (0 keeps the whole universe).
    pub max_scenarios: usize,
    /// Strided shards the universe is served in, one per timed call.
    pub shards: usize,
    /// Scenarios of shard 0 the traced shadow decomposes.
    pub shadow_scenarios: usize,
}

/// B4's whole universe (484 scenarios at the default seed) in 4 calls.
pub const B4: OfflineShape =
    OfflineShape { ibm: false, max_scenarios: 0, shards: 4, shadow_scenarios: 32 };
/// IBM capped at 32 scenarios: one call is two 16-scenario chunks, one per
/// worker thread.
pub const IBM: OfflineShape =
    OfflineShape { ibm: true, max_scenarios: 32, shards: 1, shadow_scenarios: 8 };

/// The correlated universe every offline workload compiles: exhaustive
/// 3-cuts, auto SRLG conduits, maintenance windows and flapping fibers.
///
/// Its seed stays the product's default: the fiber probabilities decide
/// which cut sets clear the cutoff, so a seeded universe is a different
/// set of LPs per seed (scenarios/s moved by 4x across ten seeds on IBM)
/// and no two runs would measure the same thing.
pub fn universe_config(max_scenarios: usize) -> UniverseConfig {
    UniverseConfig {
        max_k: 3,
        cutoff: 1e-5,
        auto_srlg_size: 3,
        auto_srlg_probability: 1e-3,
        maintenance_window: 2,
        maintenance_probability: 5e-4,
        flapping_count: 2,
        flapping_boost: 4.0,
        max_scenarios,
        ..Default::default()
    }
}

pub struct Offline {
    shape: &'static OfflineShape,
    wan: Wan,
    universe: ScenarioUniverse,
    lottery: LotteryConfig,
    /// Digest of each shard's ticket set, from the first time it ran.
    digests: Vec<Option<u64>>,
    next_shard: usize,
    /// Shard 0's statistics from its first timed call: a fixed scenario
    /// set, so its counts repeat exactly at a fixed seed.
    shard0: Option<OfflineStats>,
    shadow_scenarios: usize,
    compile_seconds: f64,
}

impl Offline {
    pub fn build(shape: &'static OfflineShape, seed: u64, smoke: bool) -> Self {
        let wan = if shape.ibm { ibm(17) } else { b4(17) };
        let t0 = Instant::now();
        let universe = compile_universe(&wan, &universe_config(shape.max_scenarios));
        let compile_seconds = t0.elapsed().as_secs_f64();
        let lottery =
            LotteryConfig { num_tickets: 12, seed: sub_seed(seed, 1), ..Default::default() };
        // Warm-up on a quarter of the universe: first-touch page faults and
        // allocator growth happen here, not in the first timed call. That is
        // 8 chunks on B4 and 1 on IBM — never 2: two chunks on two threads
        // finish with the slower one, which made set-up time swing twice as
        // far as throughput whenever a neighbour held one vCPU.
        let warm_up = ShardSpec { index: 0, of: 4 };
        std::hint::black_box(generate_tickets_shard(&wan, &universe, &lottery, warm_up));
        Offline {
            shape,
            wan,
            universe,
            lottery,
            digests: vec![None; shape.shards],
            next_shard: 0,
            shard0: None,
            shadow_scenarios: if smoke {
                shape.shadow_scenarios / 4
            } else {
                shape.shadow_scenarios
            },
            compile_seconds,
        }
    }
}

impl Workload for Offline {
    fn run(&mut self, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Timed {
        let (mut ops, mut wall) = (0u64, 0.0f64);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let index = self.next_shard;
            self.next_shard = (index + 1) % self.shape.shards;
            let spec = ShardSpec { index, of: self.shape.shards };
            let t0 = Instant::now();
            let (set, stats) = tr.span("core.lottery.generate_tickets_shard", ops, |_| {
                generate_tickets_shard(&self.wan, &self.universe, &self.lottery, spec)
            });
            wall += t0.elapsed().as_secs_f64();
            ops += stats.per_scenario.len() as u64;

            // Output checks: no scenario is left without a ticket, and the
            // same shard always yields the same bytes.
            for tickets in &set.per_scenario {
                checks.check(!tickets.is_empty(), || {
                    format!("shard {index}: a scenario has no ticket")
                });
            }
            let digest = set.digest();
            let first = *self.digests[index].get_or_insert(digest);
            checks.check(first == digest, || {
                format!(
                    "shard {index}: digest {digest:016x} differs from its first run's {first:016x}"
                )
            });
            if index == 0 {
                self.shard0.get_or_insert(stats);
            }
        }
        Timed { ops, ops_per_s: ops as f64 / wall.max(1e-12), cpu_s: cpu_seconds() - cpu0 }
    }

    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks) {
        ledger.set("topology.failures.compile_universe_s", self.compile_seconds);
        let Some(s0) = self.shard0.take() else { return };
        let rounds: usize = s0.per_scenario.iter().map(|s| s.rounds).sum();
        ledger.set("core.lottery.rounds", rounds as f64);
        ledger.set("core.lottery.kept", s0.total_kept() as f64);
        ledger.set("core.lottery.infeasible", s0.total_infeasible() as f64);
        ledger.set("core.lottery.duplicates", s0.total_duplicates() as f64);
        ledger.set("core.lottery.kept_ratio", s0.total_kept() as f64 / rounds.max(1) as f64);
        ledger.set("core.lottery.work_s", s0.work_seconds);
        ledger.set("core.lottery.wall_s", s0.wall_seconds);
        ledger.set("core.par.threads", default_threads() as f64);
        ledger.set("core.par.speedup", s0.speedup());

        let picked: Vec<&ScenarioStats> =
            s0.per_scenario.iter().take(self.shadow_scenarios).collect();
        let mut lp = LpTally::default();
        let mut largest: Option<Model> = None;
        for stats in &picked {
            let model = self.shadow_scenario(stats, tr, &mut lp, checks);
            if largest.as_ref().is_none_or(|m| model.num_cons() > m.num_cons()) {
                largest = Some(model);
            }
        }
        lp.report(ledger);
        let per_scenario =
            |name: &str| tr.seconds_of(name).iter().sum::<f64>() / picked.len() as f64;
        ledger.set("optical.rwa.build_s", per_scenario("optical.rwa.build_relaxed"));
        ledger.set("optical.rwa.extract_s", per_scenario("optical.rwa.extract"));
        ledger.set("core.lottery.fractional_seed_s", per_scenario("core.lottery.fractional_seed"));
        let feasible = tr.seconds_of("optical.rwa.is_feasible");
        ledger.set("optical.rwa.is_feasible_us", mean(&feasible) * 1e6);
        ledger.set("optical.rwa.is_feasible_calls", feasible.len() as f64);
        ledger.set(
            "core.lottery.round_once_us",
            mean(&tr.seconds_of("core.lottery.round_once")) * 1e6,
        );
        ledger.set(
            "optical.rwa.greedy_assign_us",
            mean(&tr.seconds_of("optical.rwa.greedy_assign")) * 1e6,
        );
        let cover = tr.cover_ratio("offline.scenario");
        ledger.set("core.lottery.layers_cover_ratio", cover);
        checks.check(cover >= 0.9, || {
            format!("offline.scenario children cover only {cover:.3} of their parents")
        });

        self.batch_probe(&picked, ledger);
        if let Some(model) = largest {
            sparse_probe(&model, ledger);
        }
    }

    /// Digest of shard 0's tickets.
    fn pin(&self) -> u64 {
        self.digests[0].unwrap_or(0)
    }
}

/// Sums of the `SolveStats` the shadow's LP solves returned, by backend.
#[derive(Default)]
struct LpTally {
    simplex: Vec<arrow_wan::lp::SolveStats>,
    pdhg: Vec<arrow_wan::lp::SolveStats>,
    nonoptimal: usize,
    rows: Vec<f64>,
    nnz: Vec<f64>,
}

impl LpTally {
    fn add(&mut self, sol: &Solution) {
        if !sol.status.is_optimal() {
            self.nonoptimal += 1;
        }
        self.rows.push(sol.stats.rows as f64);
        self.nnz.push(sol.stats.nnz as f64);
        match sol.stats.backend {
            BackendKind::Pdhg => self.pdhg.push(sol.stats),
            _ => self.simplex.push(sol.stats),
        }
    }

    fn report(&self, ledger: &mut Ledger) {
        ledger.set("lp.solver.nonoptimal", self.nonoptimal as f64);
        ledger.set("optical.rwa.lp_rows_mean", mean(&self.rows));
        ledger.set("optical.rwa.lp_nnz_mean", mean(&self.nnz));
        if !self.simplex.is_empty() {
            let n = self.simplex.len() as f64;
            let seconds: f64 = self.simplex.iter().map(|s| s.solve_seconds).sum();
            let iterations: usize = self.simplex.iter().map(|s| s.iterations).sum();
            let refactors: usize = self.simplex.iter().map(|s| s.refactors).sum();
            ledger.set("lp.simplex.solve_s", seconds / n);
            ledger.set("lp.simplex.iterations", iterations as f64 / n);
            ledger.set("lp.simplex.us_per_iter", seconds * 1e6 / iterations.max(1) as f64);
            ledger.set("lp.simplex.refactors", refactors as f64 / n);
        }
        if !self.pdhg.is_empty() {
            crate::online::report_pdhg(&self.pdhg, ledger);
        }
    }
}

impl Offline {
    /// One scenario of Algorithm 1 rebuilt from the product's public
    /// pieces under an `offline.scenario` parent span. Returns the
    /// scenario's relaxed-RWA model for the batch and sparse probes.
    fn shadow_scenario(
        &self,
        product: &ScenarioStats,
        tr: &mut Tracer,
        lp: &mut LpTally,
        checks: &mut Checks,
    ) -> Model {
        let index = product.scenario;
        let op = index as u64;
        let scen = self.universe.scenario(index);
        let (wan, cfg) = (&self.wan, &self.lottery);
        let net = &wan.optical;

        let (model, kept, infeasible, duplicates) = tr.span("offline.scenario", op, |tr| {
            let relaxed = tr.span("optical.rwa.build_relaxed", op, |_| {
                build_relaxed(net, &scen.cut_fibers, &cfg.rwa)
            });
            let model = relaxed.model.clone();
            let sol =
                tr.span("lp.solve", op, |_| arrow_wan::lp::solve(&relaxed.model, &cfg.rwa.solver));
            lp.add(&sol);
            let rwa = tr.span("optical.rwa.extract", op, |_| relaxed.extract(net, &sol));
            let seed: Vec<FractionalRestoration> = rwa
                .links
                .iter()
                .filter_map(|l| {
                    Some(FractionalRestoration {
                        link: wan.link_of_lightpath(l.lightpath)?,
                        wavelengths: l.wavelengths,
                        lost_wavelengths: l.lost_wavelengths,
                        gbps_per_wavelength: l.gbps_per_wavelength,
                    })
                })
                .collect();

            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, index as u64));
            let mut tickets: Vec<RestorationTicket> = Vec::new();
            let (mut infeasible, mut duplicates) = (0usize, 0usize);
            for _ in 0..cfg.num_tickets {
                let counts = tr.span("core.lottery.round_once", op, |_| {
                    round_once(&mut rng, &seed, cfg.delta)
                });
                let targets: Vec<_> = seed
                    .iter()
                    .zip(&counts)
                    .map(|(f, &c)| (wan.link(f.link).lightpath, c))
                    .collect();
                let feasible = tr.span("optical.rwa.is_feasible", op, |_| {
                    is_feasible(net, &scen.cut_fibers, &cfg.rwa, &targets)
                });
                if !feasible {
                    infeasible += 1;
                    continue;
                }
                let ticket = RestorationTicket {
                    restored: seed
                        .iter()
                        .zip(&counts)
                        .map(|(f, &c)| (f.link, c as f64 * f.gbps_per_wavelength))
                        .collect(),
                };
                if tickets.contains(&ticket) {
                    duplicates += 1;
                } else {
                    tickets.push(ticket);
                }
            }
            (model, tickets.len(), infeasible, duplicates)
        });
        // The shadow is only a valid decomposition if it does what the
        // product did: same draws rejected, same draws deduplicated.
        // (A scenario whose every draw was rejected keeps the naive ticket.)
        let product_kept = if product.naive_fallback { 0 } else { product.kept };
        let same = (kept, infeasible, duplicates)
            == (product_kept, product.infeasible, product.duplicates);
        checks.check(same, || {
            format!(
                "scenario {index}: shadow kept/infeasible/duplicate {kept}/{infeasible}/{duplicates} \
                 vs product {}/{}/{}",
                product.kept, product.infeasible, product.duplicates
            )
        });

        // Whole-call figures beside the decomposition, outside the parent.
        tr.span("core.lottery.fractional_seed", op, |_| fractional_seed(wan, scen, &cfg.rwa));
        tr.span("optical.rwa.greedy_assign", op, |_| {
            greedy_assign(net, &scen.cut_fibers, &cfg.rwa, None)
        });
        model
    }

    /// Does the product's first 16-scenario chunk form a PDHG panel when
    /// its RWA models go through `solve_batch`, and what does the batch
    /// cost against solving the same 16 one by one?
    fn batch_probe(&self, picked: &[&ScenarioStats], ledger: &mut Ledger) {
        let models: Vec<Model> = picked
            .iter()
            .take(16)
            .map(|s| {
                let cut = &self.universe.scenario(s.scenario).cut_fibers;
                build_relaxed(&self.wan.optical, cut, &self.lottery.rwa).model
            })
            .collect();
        let solver = &self.lottery.rwa.solver;
        let t0 = Instant::now();
        let batched = arrow_wan::lp::solve_batch(&models, solver);
        ledger.set("lp.batch.chunk16_s", t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for m in &models {
            std::hint::black_box(arrow_wan::lp::solve(m, solver));
        }
        ledger.set("lp.batch.seq16_s", t0.elapsed().as_secs_f64());
        let paneled = batched.iter().filter(|s| s.stats.lanes >= 2).count();
        ledger.set("lp.batch.paneled_ratio", paneled as f64 / models.len().max(1) as f64);
    }
}

/// `mul_vec` / `mul_transpose_vec` on one RWA constraint matrix. The
/// matrix is cache-resident at this size, so the ledger carries ns per
/// nonzero and the computed bytes per nonzero, not a bandwidth ratio.
fn sparse_probe(model: &Model, ledger: &mut Ledger) {
    let a = model.to_standard().a;
    let (rows, cols, nnz) = (a.rows(), a.cols(), a.nnz().max(1));
    let x = vec![1.0; cols];
    let y = vec![1.0; rows];
    let mut ax = vec![0.0; rows];
    let mut aty = vec![0.0; cols];
    let reps = (20_000_000 / nnz).clamp(100, 20_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        a.mul_vec(std::hint::black_box(&x), &mut ax);
        std::hint::black_box(&ax);
    }
    let forward = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        a.mul_transpose_vec(std::hint::black_box(&y), &mut aty);
        std::hint::black_box(&aty);
    }
    let transpose = t0.elapsed().as_secs_f64();
    let per_nnz = 1e9 / (reps * nnz) as f64;
    ledger.set("lp.sparse.mul_vec_ns_per_nnz", forward * per_nnz);
    ledger.set("lp.sparse.mul_transpose_vec_ns_per_nnz", transpose * per_nnz);
    // CSR: f64 value + usize column per nonzero, a row pointer per row,
    // plus the dense input and output vectors.
    let bytes = nnz * 16 + (rows + 1) * 8 + (rows + cols) * 8;
    ledger.set("lp.sparse.bytes_per_nnz", bytes as f64 / nnz as f64);
}
