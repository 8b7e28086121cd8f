//! Algorithm 1: LotteryTicket generation by randomized rounding.
//!
//! For each fiber-cut scenario the relaxed RWA (Appendix A.2) yields a
//! *fractional* number of restorable wavelengths `λ_e` per failed IP link.
//! Each LotteryTicket is built by rounding those fractions randomly:
//!
//! 1. pick a rounding stride `x₁ ∈ {1, …, δ}` uniformly (line 6);
//! 2. round **up** to `min(⌈λ⌉ + x₁, γ_e)` with probability equal to the
//!    fractional part, else **down** to `max(⌊λ⌋ − x₁, 0)` (lines 7–11);
//! 3. convert wavelengths to Gbps via the link's modulation (line 12).
//!
//! Integer `λ_e` would leave zero probability of exploring neighbours, so
//! per Appendix A.2 the probabilities become 0.3 round-up / 0.3 round-down
//! / 0.4 keep.
//!
//! Randomly rounded tickets may over-ask the optical layer, so a
//! feasibility filter (greedy exact assignment, §3.2 "Handling
//! LotteryTickets' feasibility") drops unrealizable tickets. A scenario
//! whose every draw is dropped receives the *naive* ticket — the greedy
//! exact realization of the RWA optimum — so at least one feasible
//! candidate always exists (this is also exactly ARROW-Naive's plan).

use arrow_obs::hash::splitmix64;
use arrow_obs::{Counter, Histogram};
use arrow_optical::rwa::{greedy_assign, solve_relaxed, RwaConfig, RwaCut, RwaSolution};
use arrow_optical::LightpathId;
use arrow_te::restoration::{RestorationTicket, TicketSet};
use arrow_topology::{FailureScenario, ScenarioUniverse, Wan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for Algorithm 1.
#[derive(Debug, Clone)]
pub struct LotteryConfig {
    /// Number of LotteryTickets |Z| per scenario (before filtering; §6 uses
    /// 80/90/120 for B4/IBM/Facebook).
    pub num_tickets: usize,
    /// Maximum rounding stride δ.
    pub delta: usize,
    /// Drop tickets that the optical layer cannot realize.
    pub feasibility_filter: bool,
    /// RWA settings (surrogate paths, retuning, modulation).
    pub rwa: RwaConfig,
    /// Master RNG seed for ticket generation.
    ///
    /// Each scenario derives its own independent stream as
    /// `StdRng::seed_from_u64(derive_seed(seed, scenario_index))` (see
    /// [`derive_seed`]), so the ticket set for a scenario depends only on
    /// `(seed, scenario_index, scenario, config)` — never on how many
    /// threads the offline stage ran on, the order scenarios were
    /// scheduled in, or how many tickets *other* scenarios drew. Equal
    /// seeds give byte-identical [`TicketSet`]s on 1 thread and N.
    pub seed: u64,
}

impl Default for LotteryConfig {
    fn default() -> Self {
        LotteryConfig {
            num_tickets: 20,
            delta: 2,
            feasibility_filter: true,
            // Per Appendix A.1 the RWA keeps the current modulation when
            // the surrogate path's length permits and otherwise steps down
            // to the best alternative — without this, high-rate links
            // whose reach is short would be unrestorable.
            rwa: RwaConfig { allow_modulation_change: true, ..RwaConfig::default() },
            seed: 41,
        }
    }
}

/// Per-link fractional seed from the RWA used by the rounding loop.
#[derive(Debug, Clone)]
pub struct FractionalRestoration {
    /// The failed IP link.
    pub link: arrow_topology::IpLinkId,
    /// Fractional restorable wavelengths `λ_e`.
    pub wavelengths: f64,
    /// Wavelengths lost (`γ_e`, the rounding cap).
    pub lost_wavelengths: usize,
    /// Effective Gbps per restored wavelength (modulation).
    pub gbps_per_wavelength: f64,
}

/// Per-lightpath wavelength counts one ticket stands for: the counts the
/// feasibility filter accepted for a rounded ticket, the greedy
/// assignment's counts for the naive one. A ticket's Gbps price the counts
/// at the seed's path-weighted rate, so they cannot be recovered from the
/// Gbps and the lightpath's primary rate; the ROADM rules restore these.
pub(crate) type Targets = Vec<(LightpathId, usize)>;

/// Maps an [`RwaSolution`]'s lightpath restorations onto IP links. Links
/// whose lightpath has no surrogate path get `λ_e = 0`.
fn restorations_from(wan: &Wan, sol: &RwaSolution) -> Vec<FractionalRestoration> {
    sol.links
        .iter()
        .filter_map(|l| {
            let link = wan.link_of_lightpath(l.lightpath)?;
            Some(FractionalRestoration {
                link,
                wavelengths: l.wavelengths,
                lost_wavelengths: l.lost_wavelengths,
                gbps_per_wavelength: l.gbps_per_wavelength,
            })
        })
        .collect()
}

/// Solves the RWA relaxation for one scenario and maps the result onto IP
/// links.
pub fn fractional_seed(
    wan: &Wan,
    scenario: &FailureScenario,
    rwa: &RwaConfig,
) -> Vec<FractionalRestoration> {
    let sol = solve_relaxed(&wan.optical, &scenario.cut_fibers, rwa);
    restorations_from(wan, &sol)
}

/// The greedy exact realization of the RWA optimum — ARROW-Naive's single
/// restoration candidate for the scenario.
pub fn naive_ticket(wan: &Wan, scenario: &FailureScenario, rwa: &RwaConfig) -> RestorationTicket {
    naive_from(wan, &RwaCut::new(&wan.optical, &scenario.cut_fibers, rwa)).0
}

/// [`naive_ticket`] on the scenario's view, with its [`Targets`].
fn naive_from(wan: &Wan, view: &RwaCut) -> (RestorationTicket, Targets) {
    let assigns = view.greedy_assign(None);
    let restored = (assigns.iter())
        .filter_map(|a| Some((wan.link_of_lightpath(a.lightpath)?, a.restored_gbps())))
        .collect();
    let targets = assigns.iter().map(|a| (a.lightpath, a.wavelengths())).collect();
    (RestorationTicket { restored }, targets)
}

/// The optically-realized version of a ticket: run the exact greedy
/// assigner against the ticket's per-link wavelength targets and report
/// what the hardware can actually deliver.
///
/// Feasible tickets realize exactly; tickets that over-promise (e.g. when
/// the feasibility filter was disabled) realize to less. Playback grounded
/// in realized tickets never credits capacity the ROADMs cannot switch.
pub fn realize_ticket(
    wan: &Wan,
    scenario: &FailureScenario,
    ticket: &RestorationTicket,
    rwa: &RwaConfig,
) -> RestorationTicket {
    // Greedy-assign as many wavelengths as the optical layer permits, then
    // cap each link at the ticket's promise. Conservative: under heavy
    // spectrum contention a realizable-but-unbalanced promise may realize
    // below its paper value, never above it.
    let assigns = greedy_assign(&wan.optical, &scenario.cut_fibers, rwa, None);
    RestorationTicket {
        restored: ticket
            .restored
            .iter()
            .map(|&(link, promised)| {
                let lp_id = wan.link(link).lightpath;
                let got = assigns
                    .iter()
                    .find(|a| a.lightpath == lp_id)
                    .map(|a| a.restored_gbps())
                    .unwrap_or(0.0);
                (link, got.min(promised))
            })
            .collect(),
    }
}

/// Rounds one fractional seed into integer wavelength counts (lines 4–11).
///
/// Every count is in `[0, lost_wavelengths]` for its link (γ_e caps the
/// round-up, zero floors the round-down) — `tests/proptest_core.rs` pins
/// this for arbitrary fractional seeds.
pub fn round_once(rng: &mut StdRng, seed: &[FractionalRestoration], delta: usize) -> Vec<usize> {
    seed.iter()
        .map(|f| {
            let lambda = f.wavelengths;
            let floor = lambda.floor();
            let frac = lambda - floor;
            let x1 = rng.gen_range(1..=delta.max(1)) as f64;
            let x2: f64 = rng.gen_range(0.0..1.0);
            let rounded = if frac > 1e-9 {
                if x2 < frac {
                    (lambda.ceil() + x1).min(f.lost_wavelengths as f64)
                } else {
                    (floor - x1).max(0.0)
                }
            } else {
                // Non-fractional λ: 0.3 up / 0.3 down / 0.4 keep (App. A.2).
                if x2 < 0.3 {
                    (lambda + x1).min(f.lost_wavelengths as f64)
                } else if x2 < 0.6 {
                    (lambda - x1).max(0.0)
                } else {
                    lambda
                }
            };
            rounded as usize
        })
        .collect()
}

/// Derives the RNG seed for one scenario's ticket stream from the master
/// seed — two rounds of splitmix64 over `(seed, index)`.
///
/// This is the offline stage's determinism contract: every scenario owns
/// an independent `StdRng` derived only from `(cfg.seed, scenario_index)`,
/// so scenarios can be generated in any order, on any number of threads,
/// and still produce byte-identical tickets. The mixing is splitmix64
/// (Steele et al.), whose avalanche keeps adjacent indices' streams
/// uncorrelated even though indices differ by one bit.
pub fn derive_seed(seed: u64, scenario_index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(scenario_index))
}

/// Per-scenario offline-stage measurements (one entry of
/// [`OfflineStats`]).
#[derive(Debug, Clone, Default)]
pub struct ScenarioStats {
    /// Index of the scenario in the input slice.
    pub scenario: usize,
    /// Total seconds of work for this scenario, read off its
    /// `offline.scenario` span: the relaxed-RWA solve (its nested
    /// `offline.rwa` span), rounding and the feasibility filter.
    pub seconds: f64,
    /// Rounding draws attempted (Algorithm 1's |Z| budget).
    pub rounds: usize,
    /// Draws dropped by the optical feasibility filter.
    pub infeasible: usize,
    /// Feasible draws dropped as duplicates of an earlier ticket.
    pub duplicates: usize,
    /// Tickets kept for this scenario.
    pub kept: usize,
    /// Whether the always-realizable naive candidate was added as a
    /// fallback because every rounded draw was filtered.
    pub naive_fallback: bool,
}

/// Offline-stage report: what Algorithm 1 did per scenario, and how the
/// wall clock compared to the serial work sum.
#[derive(Debug, Clone, Default)]
pub struct OfflineStats {
    /// Per-scenario measurements, parallel to the scenario slice.
    pub per_scenario: Vec<ScenarioStats>,
    /// End-to-end wall-clock seconds for the offline stage, read off its
    /// `offline` span.
    pub wall_seconds: f64,
    /// Sum of per-scenario work seconds (the serial-equivalent cost).
    pub work_seconds: f64,
    /// Worker threads the stage ran on.
    pub threads: usize,
}

impl OfflineStats {
    /// Total tickets kept across scenarios.
    pub fn total_kept(&self) -> usize {
        self.per_scenario.iter().map(|s| s.kept).sum()
    }

    /// Total draws dropped by the feasibility filter.
    pub fn total_infeasible(&self) -> usize {
        self.per_scenario.iter().map(|s| s.infeasible).sum()
    }

    /// Total feasible draws dropped as duplicates.
    pub fn total_duplicates(&self) -> usize {
        self.per_scenario.iter().map(|s| s.duplicates).sum()
    }

    /// Parallel speedup actually realized: work seconds / wall seconds.
    pub fn speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.work_seconds / self.wall_seconds
        } else {
            1.0
        }
    }

    /// One-line human summary (printed by `arrow plan` as its `offline:`
    /// line).
    pub fn summary(&self) -> String {
        format!(
            "{} scenarios -> {} tickets ({} infeasible, {} duplicate) on {} thread(s): \
             {:.2}s wall, {:.2}s work, {:.2}x speedup",
            self.per_scenario.len(),
            self.total_kept(),
            self.total_infeasible(),
            self.total_duplicates(),
            self.threads,
            self.wall_seconds,
            self.work_seconds,
            self.speedup()
        )
    }
}

/// Algorithm 1 for the scenario at global index `index`: the cut's one
/// [`RwaCut`] and its relaxed RWA under an `offline.rwa` span, then
/// rounding and the feasibility filter (and any naive ticket) on that same
/// view, all inside one `offline.scenario` span whose seconds are the
/// scenario's [`ScenarioStats::seconds`].
///
/// Owns the scenario's derived RNG stream (the rounding draws are the only
/// consumer), so tickets depend solely on `(wan, scen, index, cfg)` —
/// identical on whichever worker, and in whatever order, the scenario runs.
/// Each kept ticket comes with its [`Targets`], in the same order.
fn scenario_tickets(
    wan: &Wan,
    index: usize,
    scen: &FailureScenario,
    cfg: &LotteryConfig,
) -> (Vec<RestorationTicket>, Vec<Targets>, ScenarioStats) {
    let span = arrow_obs::span!(
        "offline.scenario",
        "scenario" => index,
        "cut_fibers" => scen.cut_fibers.len(),
    );
    let rwa_span = arrow_obs::span!("offline.rwa", "scenario" => index);
    let view = RwaCut::new(&wan.optical, &scen.cut_fibers, &cfg.rwa);
    let seed = restorations_from(wan, &view.solve_relaxed());
    drop(rwa_span);
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, index as u64));
    let mut stats = ScenarioStats { scenario: index, ..Default::default() };
    let mut tickets: Vec<RestorationTicket> = Vec::new();
    let mut accepted: Vec<Targets> = Vec::new();
    for _ in 0..cfg.num_tickets {
        stats.rounds += 1;
        let counts = round_once(&mut rng, &seed, cfg.delta);
        let targets: Targets =
            seed.iter().zip(&counts).map(|(f, &c)| (wan.link(f.link).lightpath, c)).collect();
        if cfg.feasibility_filter && !view.is_feasible(&targets) {
            stats.infeasible += 1;
            continue;
        }
        let ticket = RestorationTicket {
            restored: seed
                .iter()
                .zip(&counts)
                .map(|(f, &c)| (f.link, c as f64 * f.gbps_per_wavelength))
                .collect(),
        };
        // Identical tickets are kept once: a duplicate would only add
        // identical constraints to the LP.
        if !tickets.contains(&ticket) {
            tickets.push(ticket);
            accepted.push(targets);
        } else {
            stats.duplicates += 1;
        }
    }
    if tickets.is_empty() {
        // Every rounded candidate was infeasible: fall back to the
        // always-realizable greedy candidate so the TE has one.
        let (naive, targets) = naive_from(wan, &view);
        tickets.push(naive);
        accepted.push(targets);
        stats.naive_fallback = true;
    }
    stats.kept = tickets.len();
    stats.seconds = span.elapsed_seconds();
    SCENARIOS.inc();
    ROUNDS.add(stats.rounds as u64);
    KEPT.add(stats.kept as u64);
    INFEASIBLE.add(stats.infeasible as u64);
    DUPLICATES.add(stats.duplicates as u64);
    NAIVE_FALLBACKS.add(u64::from(stats.naive_fallback));
    SCENARIO_SECONDS.observe(stats.seconds);
    (tickets, accepted, stats)
}

// Process-global offline-stage metrics, flushed once per scenario.
static SCENARIOS: Counter =
    Counter::new("offline.scenarios", "failure scenarios run through Algorithm 1");
static ROUNDS: Counter = Counter::new("offline.rounds", "LotteryTicket rounding draws attempted");
static KEPT: Counter = Counter::new("offline.tickets.kept", "LotteryTickets kept");
static INFEASIBLE: Counter =
    Counter::new("offline.tickets.infeasible", "draws the feasibility filter dropped");
static DUPLICATES: Counter =
    Counter::new("offline.tickets.duplicates", "feasible draws dropped as duplicates");
static NAIVE_FALLBACKS: Counter =
    Counter::new("offline.naive_fallbacks", "scenarios that kept only the naive ticket");
static SCENARIO_SECONDS: Histogram = Histogram::new(
    "offline.scenario.seconds",
    "offline seconds per scenario (RWA, rounding, filter)",
    &[1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0],
);

/// Algorithm 1 over `(global index, scenario)` pairs on `threads` workers
/// — the one body behind every generator except the serial oracle.
///
/// One scenario is one unit of work ([`scenario_tickets`]): workers pull
/// the next scenario as they finish the last, so one costly scenario holds
/// back only itself. Neither the worker count nor the order scenarios are
/// picked up in changes ticket bytes — every RNG stream derives from the
/// scenario's global index ([`derive_seed`]). Returns the tickets, their
/// [`Targets`] (the controller compiles its ROADM rules from them) and the
/// run's stats.
pub(crate) fn generate_parallel(
    wan: &Wan,
    work: Vec<(usize, &FailureScenario)>,
    cfg: &LotteryConfig,
    threads: usize,
) -> (Vec<Vec<RestorationTicket>>, Vec<Vec<Targets>>, OfflineStats) {
    let threads = threads.max(1);
    let span = arrow_obs::span!(
        "offline",
        "scenarios" => work.len(),
        "threads" => threads,
        "num_tickets" => cfg.num_tickets,
    );
    let per_scenario = crate::par::parallel_map_with(threads, work, |&(g, scen)| {
        scenario_tickets(wan, g, scen, cfg)
    });
    let mut tickets = Vec::with_capacity(per_scenario.len());
    let mut targets = Vec::with_capacity(per_scenario.len());
    let mut stats = OfflineStats {
        per_scenario: Vec::with_capacity(per_scenario.len()),
        threads,
        ..Default::default()
    };
    for (set, accepted, s) in per_scenario {
        stats.work_seconds += s.seconds;
        stats.per_scenario.push(s);
        tickets.push(set);
        targets.push(accepted);
    }
    stats.wall_seconds = span.elapsed_seconds();
    (tickets, targets, stats)
}

/// Generates the LotteryTicket set for every scenario (Algorithm 1 applied
/// per scenario, plus the always-feasible naive fallback) on
/// [`crate::par::default_threads`] workers, with the [`OfflineStats`]
/// report of the run.
///
/// Output is identical for every thread count — see
/// [`LotteryConfig::seed`] and [`generate_tickets_serial`].
pub fn generate_tickets(
    wan: &Wan,
    scenarios: &[FailureScenario],
    cfg: &LotteryConfig,
) -> (TicketSet, OfflineStats) {
    generate_tickets_with_threads(wan, scenarios, cfg, crate::par::default_threads())
}

/// [`generate_tickets`] with an explicit worker count (the determinism
/// regression tests and the offline sweep pin 1/2/N threads through this).
pub fn generate_tickets_with_threads(
    wan: &Wan,
    scenarios: &[FailureScenario],
    cfg: &LotteryConfig,
    threads: usize,
) -> (TicketSet, OfflineStats) {
    let (tickets, _, stats) =
        generate_parallel(wan, scenarios.iter().enumerate().collect(), cfg, threads);
    (TicketSet::full(tickets), stats)
}

/// One deterministic slice of a scenario universe: shard `index` of `of`
/// owns the global scenario indices `i` with `i % of == index`.
///
/// The strided (round-robin) slice balances work when scenarios are
/// sorted by descending probability — contiguous chunks would give shard
/// 0 all the expensive high-probability scenarios. Because every
/// scenario's RNG stream derives from its *global* index
/// ([`derive_seed`]), the shard layout never changes ticket bytes: a
/// shard's entry for a global index equals the single-shard run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's position in `0..of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl ShardSpec {
    /// The trivial sharding: one shard covering everything.
    pub fn whole() -> Self {
        ShardSpec { index: 0, of: 1 }
    }

    /// Global scenario indices this shard owns out of `n` scenarios.
    ///
    /// `of` must be ≥ 1 and `index < of` (asserted — a malformed spec is
    /// a programming error, not data).
    pub fn indices(&self, n: usize) -> Vec<usize> {
        assert!(self.of >= 1, "ShardSpec.of must be >= 1");
        assert!(self.index < self.of, "ShardSpec.index {} out of 0..{}", self.index, self.of);
        (self.index..n).step_by(self.of).collect()
    }
}

/// Generates tickets for one shard of a compiled scenario universe
/// ([`ShardSpec::whole`] for all of it).
///
/// The returned [`TicketSet`] covers exactly the universe indices in
/// [`ShardSpec::indices`], carries them in `scenario_indices`, and digests
/// deterministically; each entry equals the single-shard result's entry
/// for the same global index, byte for byte
/// (`crates/core/tests/determinism.rs` pins this).
pub fn generate_tickets_shard(
    wan: &Wan,
    universe: &ScenarioUniverse,
    cfg: &LotteryConfig,
    shard: ShardSpec,
) -> (TicketSet, OfflineStats) {
    let globals = shard.indices(universe.len());
    let work = globals.iter().map(|&g| (g, universe.scenario(g))).collect();
    let (tickets, _, stats) = generate_parallel(wan, work, cfg, crate::par::default_threads());
    (TicketSet::sharded(globals.into_iter().zip(tickets).collect()), stats)
}

/// The documented serial reference for the determinism contract: plain
/// `iter().map()` over the same per-scenario body, on the calling thread,
/// with no thread pool and no stats.
///
/// Every generator (any thread count, any sharding) must produce a
/// `TicketSet` equal to this — `crates/core/tests/determinism.rs` and
/// `batch_lp.rs` enforce it.
pub fn generate_tickets_serial(
    wan: &Wan,
    scenarios: &[FailureScenario],
    cfg: &LotteryConfig,
) -> TicketSet {
    TicketSet::full(
        scenarios
            .iter()
            .enumerate()
            .map(|(i, scen)| scenario_tickets(wan, i, scen, cfg).0)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrow_optical::rwa::is_feasible;
    use arrow_topology::{b4, generate_failures, FailureConfig};

    fn setup() -> (Wan, Vec<FailureScenario>) {
        let wan = b4(17);
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 5, ..Default::default() });
        (wan, failures.failure_scenarios())
    }

    #[test]
    fn every_scenario_gets_at_least_the_naive_ticket() {
        let (wan, scens) = setup();
        let (set, _) = generate_tickets(&wan, &scens, &LotteryConfig::default());
        assert_eq!(set.per_scenario.len(), scens.len());
        for tickets in &set.per_scenario {
            assert!(!tickets.is_empty());
        }
    }

    #[test]
    fn tickets_respect_gamma_bounds() {
        let (wan, scens) = setup();
        let cfg = LotteryConfig { num_tickets: 30, ..Default::default() };
        let (set, _) = generate_tickets(&wan, &scens, &cfg);
        for (scen, tickets) in scens.iter().zip(&set.per_scenario) {
            for t in tickets {
                for &(link, gbps) in &t.restored {
                    assert!(scen.failed_links.contains(&link), "ticket names a healthy link");
                    let cap = wan.link(link).capacity_gbps;
                    assert!(gbps <= cap + 1e-6, "restored {gbps} exceeds lost capacity {cap}");
                    assert!(gbps >= 0.0);
                }
            }
        }
    }

    #[test]
    fn rounding_explores_distinct_candidates() {
        let (wan, scens) = setup();
        let cfg =
            LotteryConfig { num_tickets: 40, feasibility_filter: false, ..Default::default() };
        let (set, _) = generate_tickets(&wan, &scens, &cfg);
        // At least one scenario with a fractional/partial seed should
        // produce several distinct tickets.
        let max_distinct = set.per_scenario.iter().map(|t| t.len()).max().unwrap();
        assert!(max_distinct >= 3, "rounding produced {max_distinct} distinct tickets");
    }

    #[test]
    fn filtered_tickets_are_realizable() {
        let (wan, scens) = setup();
        let cfg = LotteryConfig { num_tickets: 25, ..Default::default() };
        let (set, targets, _) =
            generate_parallel(&wan, scens.iter().enumerate().collect(), &cfg, 2);
        for ((scen, tickets), accepted) in scens.iter().zip(&set).zip(&targets) {
            assert_eq!(tickets.len(), accepted.len(), "one target list per kept ticket");
            // Re-check realizability via the same filter, at the counts it
            // accepted (a ticket's Gbps price them at the seed's rate, not
            // the primary one).
            for accepted in accepted {
                assert!(
                    is_feasible(&wan.optical, &scen.cut_fibers, &cfg.rwa, accepted),
                    "an infeasible ticket survived the filter"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (wan, scens) = setup();
        let cfg = LotteryConfig::default();
        let (a, _) = generate_tickets(&wan, &scens, &cfg);
        let (b, _) = generate_tickets(&wan, &scens, &cfg);
        for (ta, tb) in a.per_scenario.iter().zip(&b.per_scenario) {
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn naive_ticket_matches_greedy_assignment() {
        let (wan, scens) = setup();
        let t = naive_ticket(&wan, &scens[0], &RwaConfig::default());
        // Every restored link is a failed link, and capacity is integral
        // wavelengths × modulation.
        for &(link, gbps) in &t.restored {
            assert!(scens[0].failed_links.contains(&link));
            let lp = wan.optical.lightpath(wan.link(link).lightpath);
            let per = lp.gbps_per_wavelength;
            let waves = gbps / per;
            assert!((waves - waves.round()).abs() < 1e-9, "non-integral wavelengths");
        }
    }

    #[test]
    fn realize_ticket_grounds_over_promises() {
        let (wan, scens) = setup();
        let cfg = LotteryConfig::default();
        // A ticket demanding full capacity on every failed link usually
        // over-promises; its realization must not exceed the promise and
        // must equal the greedy-feasible amount.
        let scen = &scens[0];
        let greedy_total = naive_ticket(&wan, scen, &cfg.rwa).total_gbps();
        let over = arrow_te::RestorationTicket::uniform(&wan, scen, 1.0);
        let realized = realize_ticket(&wan, scen, &over, &cfg.rwa);
        assert!(realized.total_gbps() <= over.total_gbps() + 1e-9);
        // Greedy realization of "everything" is the naive plan.
        assert!((realized.total_gbps() - greedy_total).abs() < 1e-6);
        // A feasible ticket realizes (at least) itself.
        let naive = naive_ticket(&wan, scen, &cfg.rwa);
        let again = realize_ticket(&wan, scen, &naive, &cfg.rwa);
        assert!(again.total_gbps() >= naive.total_gbps() - 1e-6);
    }

    #[test]
    fn round_once_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let seed = vec![FractionalRestoration {
            link: arrow_topology::IpLinkId(0),
            wavelengths: 2.4,
            lost_wavelengths: 4,
            gbps_per_wavelength: 100.0,
        }];
        for _ in 0..200 {
            let c = round_once(&mut rng, &seed, 3);
            assert!(c[0] <= 4, "exceeded γ_e");
        }
    }

    #[test]
    fn gbps_weighted_fractional_seed() {
        let (wan, scens) = setup();
        let seed = fractional_seed(&wan, &scens[0], &RwaConfig::default());
        assert!(!seed.is_empty());
        for f in &seed {
            assert!(f.wavelengths >= -1e-9);
            assert!(f.wavelengths <= f.lost_wavelengths as f64 + 1e-6);
            // A link with no surrogate path restores nothing and reports a
            // zero modulation rate; otherwise the rate must be positive.
            if f.wavelengths > 1e-9 {
                assert!(f.gbps_per_wavelength > 0.0);
            }
        }
    }
}
