//! Probabilistic fiber-cut scenarios.
//!
//! Follows §6 "Fiber cut scenarios": each fiber's failure probability is
//! drawn from a Weibull distribution (shape 0.8, scale 0.02, per TeaVaR's
//! methodology), and the scenario set enumerates single and double fiber
//! cuts whose joint probability exceeds a cutoff (0.001 for B4/IBM, 0.0002
//! for Facebook). When a fiber fails, every IP link riding it fails
//! simultaneously.
//!
//! [`compile_universe`] is the one enumerator: exhaustive k-cuts plus the
//! correlated mechanisms (SRLG conduits, maintenance windows, flapping
//! fibers) into a [`ScenarioUniverse`]. [`generate_failures`] is the
//! paper's set on top of it: `max_k: 2` and a most-probable cap.

use crate::distributions::weibull;
use crate::wan::{IpLinkId, Wan};
use arrow_obs::hash::{fnv1a_word, splitmix64, FNV1A_OFFSET};
use arrow_obs::Counter;
use arrow_optical::FiberId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One failure scenario: a set of cut fibers with its probability.
#[derive(Debug, Clone)]
pub struct FailureScenario {
    /// Fibers cut in this scenario. A universe lists no empty cut: its
    /// healthy state is [`ScenarioUniverse::healthy_probability`].
    pub cut_fibers: Vec<FiberId>,
    /// Joint probability of exactly this cut set.
    pub probability: f64,
    /// IP links that fail (derived from the cross-layer mapping).
    pub failed_links: Vec<IpLinkId>,
}

/// Configuration of [`generate_failures`]: the paper's scenario set.
#[derive(Debug, Clone)]
pub struct FailureConfig {
    /// Scenario probability cutoff (paper: 1e-3 B4/IBM, 2e-4 Facebook).
    pub cutoff: f64,
    /// Cap on the number of scenarios, keeping the most probable (`0` = no
    /// cap). The paper's probabilistic approach "only considers
    /// highly-probable failure scenarios".
    pub max_scenarios: usize,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig { cutoff: 1e-3, max_scenarios: 0 }
    }
}

/// Clamps an accumulated probability mass to `[.., 1.0]`, surfacing any
/// real overflow (duplicate scenarios) as a warn event + counter rather
/// than silently returning an impossible mass. Tolerates float roundoff.
fn clamp_covered(sum: f64) -> f64 {
    static OVERFLOWS: Counter =
        Counter::new("scenario.prob.overflow", "probability sums above 1, clamped");
    if sum > 1.0 + 1e-9 {
        arrow_obs::event!(warn: "failures.covered_probability.overflow", "sum" => sum);
        OVERFLOWS.inc();
    }
    sum.min(1.0)
}

/// The paper's scenario set: every single and double fiber cut whose
/// probability clears `cfg.cutoff`, most probable first, capped at the
/// `cfg.max_scenarios` most probable.
///
/// This is [`compile_universe`] with `max_k: 2`, the cutoff and every
/// correlation mechanism off. The cap is a deterministic top-k, unlike
/// [`UniverseConfig::max_scenarios`]'s importance sampling; the scenarios
/// it drops count in `stats.sampled_out`.
pub fn generate_failures(wan: &Wan, cfg: &FailureConfig) -> ScenarioUniverse {
    let mut universe =
        compile(wan, &UniverseConfig { max_k: 2, cutoff: cfg.cutoff, ..Default::default() });
    if cfg.max_scenarios > 0 && universe.len() > cfg.max_scenarios {
        universe.stats.sampled_out += universe.len() - cfg.max_scenarios;
        universe.scenarios.truncate(cfg.max_scenarios);
        universe.stats.kept = universe.len();
    }
    record_stats(&universe.stats);
    universe
}

// ---------------------------------------------------------------------------
// Scenario compiler: correlated multi-failure universes.
// ---------------------------------------------------------------------------

/// Stable content identity of a failure scenario: FNV-1a over the sorted,
/// deduplicated cut-fiber ids.
///
/// Two scenarios that cut the same fibers get the same id no matter which
/// mechanism produced them (k-cut enumeration, an SRLG group, a
/// maintenance window) or in what order the fibers were listed — this is
/// what the compiler dedups on and what shard digests build over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ScenarioId(pub u64);

impl ScenarioId {
    /// Digest of a cut set (order- and duplicate-insensitive).
    pub(crate) fn of_cut(cut: &[FiberId]) -> ScenarioId {
        let mut ids: Vec<usize> = cut.iter().map(|f| f.0).collect();
        ids.sort_unstable();
        ids.dedup();
        let len = fnv1a_word(FNV1A_OFFSET, ids.len() as u64);
        ScenarioId(ids.into_iter().fold(len, |h, id| fnv1a_word(h, id as u64)))
    }
}

impl std::fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Which compiler mechanism produced a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioSource {
    /// Exhaustive independent k-cut enumeration (k = `cut_fibers.len()`).
    KCut,
    /// A shared-risk link group — fibers in one conduit failing together.
    Srlg,
    /// A rolling maintenance window taking a fiber span down.
    Maintenance,
    /// A flapping fiber (elevated failure probability) — still a k-cut,
    /// but tagged so reports can attribute the mass.
    Flapping,
}

/// One compiled scenario: the failure set plus its identity and origin.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Content digest of the cut set (see [`ScenarioId`]).
    pub id: ScenarioId,
    /// The mechanism that generated it (after dedup, the one whose
    /// probability estimate won).
    pub source: ScenarioSource,
    /// The failure scenario itself (cut fibers, exact probability, failed
    /// IP links).
    pub scenario: FailureScenario,
}

/// A shared-risk link group: fibers sharing a conduit/right-of-way that a
/// single backhoe takes out together.
#[derive(Debug, Clone)]
pub struct SrlgGroup {
    /// The fibers that fail as one.
    pub fibers: Vec<FiberId>,
    /// Probability of the conduit cut (clamped into `(0, 0.5]` at
    /// compile time).
    pub probability: f64,
}

/// Weibull shape for per-fiber failure probability (paper: 0.8).
const WEIBULL_SHAPE: f64 = 0.8;
/// Weibull scale for per-fiber failure probability (paper: 0.02).
const WEIBULL_SCALE: f64 = 0.02;

/// Configuration of [`compile_universe`].
///
/// With every correlation knob off and `max_k: 2` this is the paper's
/// single- and double-cut scenario set, which [`generate_failures`]
/// builds on.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// RNG seed for per-fiber probabilities and importance sampling.
    pub seed: u64,
    /// Exhaustive-enumeration budget: all cut sets of up to this many
    /// fibers whose joint probability clears `cutoff` (0 = no k-cuts, only
    /// the SRLG and maintenance mechanisms).
    pub max_k: usize,
    /// Joint-probability cutoff pruning the k-cut enumeration. Pruning is
    /// exact: per-fiber probabilities are capped at 0.5, so extending a
    /// cut never raises its probability.
    pub cutoff: f64,
    /// Explicit shared-risk groups (conduits).
    pub srlg: Vec<SrlgGroup>,
    /// Auto-generate SRLGs by chunking consecutive fiber ids into
    /// conduits of this size (0 = off). Builders lay parallel fibers at
    /// adjacent ids, so consecutive chunks approximate shared trenches.
    pub auto_srlg_size: usize,
    /// Conduit-cut probability for auto-generated SRLGs.
    pub auto_srlg_probability: f64,
    /// Fibers per rolling maintenance window (0 = off). Windows do not
    /// overlap: each starts where the previous one ends.
    pub maintenance_window: usize,
    /// Fraction of time a window's fiber span is under maintenance.
    pub maintenance_probability: f64,
    /// Number of highest-probability fibers treated as flapping (0 = off).
    pub flapping_count: usize,
    /// Multiplier applied to a flapping fiber's failure probability
    /// (capped at 0.5).
    pub flapping_boost: f64,
    /// Importance-sample the universe down to this many scenarios
    /// (0 = keep everything). Sampling is weighted without replacement by
    /// exact scenario probability (Efraimidis–Spirakis keys), so the kept
    /// scenarios are the probable ones and each keeps its *exact*
    /// probability — coverage shrinks, correctness does not.
    pub max_scenarios: usize,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            seed: 31,
            max_k: 2,
            cutoff: 1e-3,
            srlg: Vec::new(),
            auto_srlg_size: 0,
            auto_srlg_probability: 5e-4,
            maintenance_window: 0,
            maintenance_probability: 1e-3,
            flapping_count: 0,
            flapping_boost: 8.0,
            max_scenarios: 0,
        }
    }
}

/// What the compiler did: `kept + deduped + sampled_out == enumerated`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UniverseStats {
    /// Candidate scenarios produced by all mechanisms before dedup.
    pub enumerated: usize,
    /// Candidates dropped because another mechanism already produced the
    /// same cut set (the higher-probability estimate wins).
    pub(crate) deduped: usize,
    /// Candidates dropped by importance sampling or by
    /// [`generate_failures`]' most-probable cap.
    pub(crate) sampled_out: usize,
    /// Scenarios in the final universe.
    pub kept: usize,
}

/// A compiled, deduplicated, optionally sampled set of failure scenarios:
/// the one scenario representation, from [`compile_universe`] or
/// [`generate_failures`].
///
/// Scenarios are sorted by descending probability (ties broken by
/// [`ScenarioId`]) and hold **failure** scenarios only; the healthy state
/// lives in `healthy_probability`. Ticket generation shards over the
/// universe by global index (`arrow-core`'s `ShardSpec`), so this order
/// is part of the determinism contract: equal configs compile equal
/// universes, byte for byte.
#[derive(Debug, Clone)]
pub struct ScenarioUniverse {
    /// Per-fiber failure probability (after flapping boosts).
    pub(crate) fiber_prob: Vec<f64>,
    /// Probability that no fiber fails.
    pub healthy_probability: f64,
    /// The compiled failure scenarios, most probable first.
    pub scenarios: Vec<CompiledScenario>,
    /// Compile-time accounting.
    pub stats: UniverseStats,
}

impl ScenarioUniverse {
    /// Number of failure scenarios in the universe.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the universe holds no failure scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The failure scenario at global index `i`.
    pub fn scenario(&self, i: usize) -> &FailureScenario {
        &self.scenarios[i].scenario
    }

    /// Per-scenario probabilities, parallel to the global index order.
    #[cfg(test)]
    pub(crate) fn probabilities(&self) -> Vec<f64> {
        self.scenarios.iter().map(|c| c.scenario.probability).collect()
    }

    /// The failure scenarios as a plain slice-able vector (the shape the
    /// ticket generator and TE instances consume).
    pub fn failure_scenarios(&self) -> Vec<FailureScenario> {
        self.scenarios.iter().map(|c| c.scenario.clone()).collect()
    }

    /// Probability mass covered by the universe plus the healthy state,
    /// clamped to 1.
    ///
    /// Independent k-cuts are disjoint events, but correlated sources are
    /// not disjoint from them, and a hand-assembled universe may list a
    /// cut set twice; the raw sum can then pass certainty and corrupt every
    /// availability figure downstream. It is clamped at 1.0 and the
    /// overflow reported through obs instead.
    pub fn covered_probability(&self) -> f64 {
        clamp_covered(
            self.healthy_probability
                + self.scenarios.iter().map(|c| c.scenario.probability).sum::<f64>(),
        )
    }

    /// Order-sensitive digest of the universe (ids + probability bits), so
    /// two processes can assert they compiled the same universe before
    /// comparing shards.
    pub fn digest(&self) -> u64 {
        let len = fnv1a_word(FNV1A_OFFSET, self.scenarios.len() as u64);
        self.scenarios
            .iter()
            .fold(len, |h, c| fnv1a_word(fnv1a_word(h, c.id.0), c.scenario.probability.to_bits()))
    }
}

/// One candidate scenario mid-compilation (pre-dedup).
struct Candidate {
    id: ScenarioId,
    source: ScenarioSource,
    cut: Vec<FiberId>,
    probability: f64,
}

/// Exhaustive k-cut DFS: enumerates cut sets of size ≤ `max_k` whose
/// joint probability under independent fiber failures clears `cutoff`.
///
/// Probability is extended incrementally as `p / (1 - p_f) * p_f` per
/// added fiber; the benchmark's `max_k: 3` universes pin its bits. Pruning
/// is exact: each `p_f ≤ 0.5`, so extending a cut never increases its
/// probability, and any branch below the cutoff can be dropped with
/// everything beneath it.
struct KCutDfs<'a> {
    fiber_prob: &'a [f64],
    flapping: &'a [bool],
    max_k: usize,
    cutoff: f64,
    out: Vec<Candidate>,
}

impl KCutDfs<'_> {
    fn walk(&mut self, start: usize, p: f64, cut: &mut Vec<usize>) {
        if cut.len() >= self.max_k {
            return;
        }
        for f in start..self.fiber_prob.len() {
            let pf = self.fiber_prob[f];
            if pf <= 0.0 {
                continue;
            }
            let pc = p / (1.0 - pf) * pf;
            if pc < self.cutoff {
                continue;
            }
            cut.push(f);
            let fibers: Vec<FiberId> = cut.iter().map(|&i| FiberId(i)).collect();
            let source = if cut.iter().any(|&i| self.flapping[i]) {
                ScenarioSource::Flapping
            } else {
                ScenarioSource::KCut
            };
            self.out.push(Candidate {
                id: ScenarioId::of_cut(&fibers),
                source,
                cut: fibers,
                probability: pc,
            });
            self.walk(f + 1, pc, cut);
            cut.pop();
        }
    }
}

/// Compiles a correlated multi-failure [`ScenarioUniverse`] for one WAN.
///
/// Mechanisms, in order: exhaustive k-cut enumeration (with flapping
/// boosts applied first), explicit + auto SRLG conduit groups, rolling
/// maintenance windows; then content dedup by [`ScenarioId`] (highest
/// probability estimate wins), a descending-probability sort, and
/// optional importance sampling down to `max_scenarios`. Obs: one
/// `scenario.compile` span, a `scenario.compile.done` event, and one
/// `scenario.<field>` counter per [`UniverseStats`] field.
pub fn compile_universe(wan: &Wan, cfg: &UniverseConfig) -> ScenarioUniverse {
    let universe = compile(wan, cfg);
    record_stats(&universe.stats);
    universe
}

static ENUMERATED: Counter =
    Counter::new("scenario.enumerated", "candidate scenarios before dedup");
static DEDUPED: Counter =
    Counter::new("scenario.deduped", "candidates dropped as duplicate cut sets");
static SAMPLED_OUT: Counter =
    Counter::new("scenario.sampled_out", "scenarios dropped by sampling or the cap");
static KEPT: Counter = Counter::new("scenario.kept", "scenarios in compiled universes");

/// Emits a finished universe's [`UniverseStats`], one counter per field.
fn record_stats(stats: &UniverseStats) {
    ENUMERATED.add(stats.enumerated as u64);
    DEDUPED.add(stats.deduped as u64);
    SAMPLED_OUT.add(stats.sampled_out as u64);
    KEPT.add(stats.kept as u64);
    arrow_obs::event!(
        "scenario.compile.done",
        "enumerated" => stats.enumerated,
        "deduped" => stats.deduped,
        "sampled_out" => stats.sampled_out,
        "kept" => stats.kept,
    );
}

/// [`compile_universe`] without the stats emission, so that
/// [`generate_failures`] emits the stats after its cap.
fn compile(wan: &Wan, cfg: &UniverseConfig) -> ScenarioUniverse {
    let nf = wan.optical.num_fibers();
    let _span = arrow_obs::span!(
        "scenario.compile",
        "fibers" => nf,
        "max_k" => cfg.max_k,
        "max_scenarios" => cfg.max_scenarios,
    );

    // Per-fiber probabilities from the seeded Weibull stream, then
    // flapping boosts.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut fiber_prob: Vec<f64> =
        (0..nf).map(|_| weibull(&mut rng, WEIBULL_SHAPE, WEIBULL_SCALE).min(0.5)).collect();
    let mut flapping = vec![false; nf];
    if cfg.flapping_count > 0 && nf > 0 {
        let mut by_prob: Vec<usize> = (0..nf).collect();
        by_prob.sort_by(|&a, &b| fiber_prob[b].total_cmp(&fiber_prob[a]).then_with(|| a.cmp(&b)));
        for &f in by_prob.iter().take(cfg.flapping_count) {
            fiber_prob[f] = (fiber_prob[f] * cfg.flapping_boost).min(0.5);
            flapping[f] = true;
        }
    }
    let healthy_probability: f64 = fiber_prob.iter().map(|p| 1.0 - p).product();

    // Mechanism 1: exhaustive k-cuts above the cutoff.
    let mut dfs = KCutDfs {
        fiber_prob: &fiber_prob,
        flapping: &flapping,
        max_k: cfg.max_k,
        cutoff: cfg.cutoff,
        out: Vec::new(),
    };
    let mut cut_buf: Vec<usize> = Vec::with_capacity(cfg.max_k);
    dfs.walk(0, healthy_probability, &mut cut_buf);
    let mut candidates: Vec<Candidate> = dfs.out;

    // Mechanism 2: SRLG conduit groups (explicit, then auto-chunked).
    let mut groups: Vec<SrlgGroup> = cfg.srlg.clone();
    if cfg.auto_srlg_size >= 2 {
        for chunk_start in (0..nf).step_by(cfg.auto_srlg_size) {
            let fibers: Vec<FiberId> =
                (chunk_start..(chunk_start + cfg.auto_srlg_size).min(nf)).map(FiberId).collect();
            if fibers.len() >= 2 {
                groups.push(SrlgGroup { fibers, probability: cfg.auto_srlg_probability });
            }
        }
    }
    for g in &groups {
        let p = g.probability.min(0.5);
        if p <= 0.0 || g.fibers.is_empty() {
            continue;
        }
        let mut fibers = g.fibers.clone();
        fibers.sort_unstable();
        fibers.dedup();
        candidates.push(Candidate {
            id: ScenarioId::of_cut(&fibers),
            source: ScenarioSource::Srlg,
            cut: fibers,
            probability: p,
        });
    }

    // Mechanism 3: rolling maintenance windows over the fiber span.
    if cfg.maintenance_window > 0 && cfg.maintenance_probability > 0.0 {
        for start in (0..nf).step_by(cfg.maintenance_window) {
            let fibers: Vec<FiberId> =
                (start..(start + cfg.maintenance_window).min(nf)).map(FiberId).collect();
            if fibers.is_empty() {
                continue;
            }
            candidates.push(Candidate {
                id: ScenarioId::of_cut(&fibers),
                source: ScenarioSource::Maintenance,
                cut: fibers,
                probability: cfg.maintenance_probability.min(0.5),
            });
        }
    }

    let enumerated = candidates.len();

    // Dedup by content id: sort by (probability desc, id) and keep the
    // first (= highest-probability estimate) of each cut set. When two
    // mechanisms model the same physical failure, the larger estimate is
    // the conservative one for availability.
    candidates
        .sort_by(|a, b| b.probability.total_cmp(&a.probability).then_with(|| a.id.cmp(&b.id)));
    let mut seen: std::collections::BTreeSet<ScenarioId> = std::collections::BTreeSet::new();
    let before_dedup = candidates.len();
    candidates.retain(|c| seen.insert(c.id));
    let deduped = before_dedup - candidates.len();

    // Importance sampling: weighted without replacement via
    // Efraimidis–Spirakis keys (ln(u)/w, keep the largest). The per-
    // scenario uniform draw is keyed by (seed, id), so the selection is
    // independent of enumeration order; kept scenarios keep their exact
    // probability.
    let mut sampled_out = 0;
    if cfg.max_scenarios > 0 && candidates.len() > cfg.max_scenarios {
        let mut keyed: Vec<(f64, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // Keyed by (seed, ScenarioId), so the draw does not depend
                // on enumeration order.
                let mut srng = StdRng::seed_from_u64(splitmix64(cfg.seed ^ c.id.0));
                let u: f64 = srng.gen_range(0.0..1.0);
                // w > 0 (candidates with p <= 0 never enter); ln(u) ≤ 0,
                // so larger keys mean more probable / luckier draws.
                (u.max(f64::MIN_POSITIVE).ln() / c.probability, i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut keep: Vec<usize> = keyed.iter().take(cfg.max_scenarios).map(|&(_, i)| i).collect();
        keep.sort_unstable();
        sampled_out = candidates.len() - keep.len();
        let mut kept_candidates = Vec::with_capacity(keep.len());
        let mut keep_iter = keep.into_iter().peekable();
        for (i, c) in candidates.into_iter().enumerate() {
            if keep_iter.peek() == Some(&i) {
                keep_iter.next();
                kept_candidates.push(c);
            }
        }
        candidates = kept_candidates;
        // Already in (probability desc, id) order — the retain-style pass
        // above preserves it.
    }

    let scenarios: Vec<CompiledScenario> = candidates
        .into_iter()
        .map(|c| {
            let failed_links = wan.links_failed_by(&c.cut);
            CompiledScenario {
                id: c.id,
                source: c.source,
                scenario: FailureScenario {
                    cut_fibers: c.cut,
                    probability: c.probability,
                    failed_links,
                },
            }
        })
        .collect();

    let stats = UniverseStats { enumerated, deduped, sampled_out, kept: scenarios.len() };
    ScenarioUniverse { fiber_prob, healthy_probability, scenarios, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::b4;

    #[test]
    fn singles_exceeding_cutoff_are_present() {
        let wan = b4(17);
        let uni = generate_failures(&wan, &FailureConfig::default());
        let singles = uni.scenarios.iter().filter(|c| c.scenario.cut_fibers.len() == 1).count();
        // With mean p≈0.0227 and cutoff 1e-3, essentially all 19 singles stay.
        assert!(singles >= 15, "only {singles} single-cut scenarios");
        assert!(uni.scenarios.iter().all(|c| matches!(c.scenario.cut_fibers.len(), 1 | 2)));
    }

    #[test]
    fn scenarios_sorted_and_above_cutoff() {
        let wan = b4(17);
        let cfg = FailureConfig::default();
        let probs = generate_failures(&wan, &cfg).probabilities();
        for w in probs.windows(2) {
            assert!(w[0] >= w[1], "not sorted");
        }
        assert!(probs.iter().all(|&p| p >= cfg.cutoff));
    }

    #[test]
    fn failed_links_match_cross_layer_mapping() {
        let wan = b4(17);
        for s in generate_failures(&wan, &FailureConfig::default()).failure_scenarios() {
            assert_eq!(s.failed_links, wan.links_failed_by(&s.cut_fibers));
            assert!(
                !s.failed_links.is_empty()
                    || s.cut_fibers
                        .iter()
                        .all(|&f| { wan.optical.affected_lightpaths(&[f]).is_empty() })
            );
        }
    }

    #[test]
    fn max_scenarios_keeps_most_probable() {
        let wan = b4(17);
        let full = generate_failures(&wan, &FailureConfig::default());
        let capped =
            generate_failures(&wan, &FailureConfig { max_scenarios: 5, ..Default::default() });
        assert_eq!(capped.len(), 5);
        let bits = |u: &ScenarioUniverse| -> Vec<(ScenarioId, u64)> {
            u.scenarios.iter().map(|c| (c.id, c.scenario.probability.to_bits())).collect()
        };
        assert_eq!(bits(&capped), bits(&full)[..5]);
        assert_eq!(capped.healthy_probability.to_bits(), full.healthy_probability.to_bits());
        // The truncated scenarios are accounted for.
        let stats = &capped.stats;
        assert_eq!(stats.sampled_out, full.len() - 5);
        assert_eq!(stats.kept + stats.deduped + stats.sampled_out, stats.enumerated);
    }

    #[test]
    fn probability_mass_is_sane() {
        let wan = b4(17);
        let uni = generate_failures(&wan, &FailureConfig::default());
        assert!(uni.healthy_probability > 0.5);
        let covered = uni.covered_probability();
        assert!(covered > 0.9 && covered <= 1.0 + 1e-9, "covered {covered}");
    }

    #[test]
    fn doubles_can_be_disabled() {
        let wan = b4(17);
        let uni = compile_universe(
            &wan,
            &UniverseConfig { max_k: 1, cutoff: 1e-6, ..Default::default() },
        );
        assert!(uni.scenarios.iter().all(|c| c.scenario.cut_fibers.len() == 1));
    }

    #[test]
    fn covered_probability_clamps_duplicate_accumulation() {
        // Regression: a duplicated cut (same scenario listed twice) used
        // to push the covered mass past 1.0 silently. It must clamp.
        let wan = b4(17);
        let mut uni = generate_failures(&wan, &FailureConfig::default());
        let copy = uni.scenarios.clone();
        uni.scenarios.extend(copy.iter().cloned().chain(copy.iter().cloned()));
        let covered = uni.covered_probability();
        assert_eq!(covered, 1.0, "triple-counted scenarios must clamp to exactly 1.0");
    }

    #[test]
    fn scenario_id_is_order_and_duplicate_insensitive() {
        let a = ScenarioId::of_cut(&[FiberId(3), FiberId(1), FiberId(7)]);
        let b = ScenarioId::of_cut(&[FiberId(7), FiberId(3), FiberId(1), FiberId(3)]);
        assert_eq!(a, b);
        assert_ne!(a, ScenarioId::of_cut(&[FiberId(3), FiberId(1)]));
        assert_ne!(ScenarioId::of_cut(&[]), ScenarioId::of_cut(&[FiberId(0)]));
    }

    #[test]
    fn compiled_universe_is_sorted_deduped_and_deterministic() {
        let wan = b4(17);
        let cfg = UniverseConfig {
            max_k: 3,
            cutoff: 1e-5,
            auto_srlg_size: 3,
            auto_srlg_probability: 2e-3,
            maintenance_window: 2,
            maintenance_probability: 1e-3,
            flapping_count: 2,
            ..Default::default()
        };
        let uni = compile_universe(&wan, &cfg);
        assert!(!uni.is_empty());
        // Sorted by descending probability.
        let probs = uni.probabilities();
        for w in probs.windows(2) {
            assert!(w[0] >= w[1], "universe not sorted");
        }
        // No duplicate content ids.
        let mut ids: Vec<ScenarioId> = uni.scenarios.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate ScenarioId survived dedup");
        // Stats add up.
        assert_eq!(
            uni.stats.kept + uni.stats.deduped + uni.stats.sampled_out,
            uni.stats.enumerated
        );
        // Bitwise-stable recompile.
        assert_eq!(uni.digest(), compile_universe(&wan, &cfg).digest());
    }

    #[test]
    fn importance_sampling_caps_and_keeps_exact_probabilities() {
        let wan = b4(17);
        let base = UniverseConfig { max_k: 3, cutoff: 1e-7, ..Default::default() };
        let full = compile_universe(&wan, &base);
        assert!(full.len() > 40, "want a big universe, got {}", full.len());
        let capped = compile_universe(&wan, &UniverseConfig { max_scenarios: 24, ..base.clone() });
        assert_eq!(capped.len(), 24);
        assert_eq!(capped.stats.sampled_out, full.len() - 24);
        // Every sampled scenario keeps the exact probability of its
        // unsampled twin.
        for c in &capped.scenarios {
            let twin = full.scenarios.iter().find(|f| f.id == c.id);
            let twin = twin.unwrap_or_else(|| panic!("sampled scenario {} not in full", c.id));
            assert_eq!(c.scenario.probability.to_bits(), twin.scenario.probability.to_bits());
        }
    }

    #[test]
    fn maintenance_and_srlg_sources_are_present() {
        let wan = b4(17);
        for max_k in [0, 1] {
            let uni = compile_universe(
                &wan,
                &UniverseConfig {
                    max_k,
                    auto_srlg_size: 4,
                    auto_srlg_probability: 3e-3,
                    maintenance_window: 3,
                    maintenance_probability: 2e-3,
                    ..Default::default()
                },
            );
            let count = |source| uni.scenarios.iter().filter(|c| c.source == source).count();
            assert!(count(ScenarioSource::Srlg) > 0, "no SRLG scenarios compiled");
            assert!(count(ScenarioSource::Maintenance) > 0, "no maintenance scenarios compiled");
            // `max_k: 0` enumerates no k-cuts at all.
            assert_eq!(count(ScenarioSource::KCut) == 0, max_k == 0, "max_k {max_k}");
            // Multi-fiber scenarios derive their failed links cross-layer.
            for c in &uni.scenarios {
                assert_eq!(c.scenario.failed_links, wan.links_failed_by(&c.scenario.cut_fibers));
            }
        }
    }
}
