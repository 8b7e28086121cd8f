//! Correlated multi-failure scenario sweep: compile → shard → merge.
//!
//! Compiles a [`ScenarioUniverse`] (exhaustive k-cuts, SRLG conduit
//! groups, rolling maintenance windows, flapping fibers, importance
//! sampling) on B4 and IBM, runs sharded LotteryTicket generation, merges
//! the shards, and asserts the merged [`TicketSet`] is byte-identical to
//! the single-shard run — the contract that makes the offline stage
//! embarrassingly parallel across *processes*, not just threads.
//!
//! Reports obs metrics (`scenario.compiled`, `scenario.sampled`,
//! per-shard `offline.scenario` spans) and writes `BENCH_scenarios.json`
//! (scenarios/sec, kept/dedup/infeasible counts, per-shard digests).
//!
//! Also checks the chunked generator against the sequential one: its
//! output must be byte-identical to the serial oracle
//! (`generate_tickets_serial`, one unbatched LP per scenario); the verdict
//! is `topologies[*].serial_oracle_equal` in the artifact.
//!
//! Run: `cargo run --release --example scenario_sweep` — or with
//! `-- --smoke` for the small CI universe (2 shards, B4 only).

use arrow_wan::obs::RingSubscriber;
use arrow_wan::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

/// Floor on the universe size — below this, `generation_scenarios_per_sec`
/// measures fixed costs, not the generator.
const MIN_PIPELINE_SCENARIOS: usize = 64;

struct TopologyReport {
    name: String,
    universe: ScenarioUniverse,
    compile_seconds: f64,
    unsharded_digest: u64,
    unsharded_wall: f64,
    offline: OfflineStats,
    shard_runs: Vec<ShardRun>,
    pool_tickets: usize,
    pool_mass: f64,
}

struct ShardRun {
    of: usize,
    shard_digests: Vec<u64>,
    merged_digest: u64,
    scenario_spans: usize,
    wall_seconds: f64,
}

fn sweep_topology(
    name: &str,
    wan: &Wan,
    ucfg: &UniverseConfig,
    lcfg: &LotteryConfig,
    shard_counts: &[usize],
    ring: &RingSubscriber,
) -> TopologyReport {
    println!("== scenario sweep: {} ==", wan.summary());

    ring.clear();
    let universe = compile_universe(wan, ucfg);
    let compile_spans = ring.finished_spans("scenario.compile");
    assert_eq!(compile_spans.len(), 1, "one compile span per universe");
    let compile_seconds = compile_spans[0].duration_seconds().expect("span carries duration");
    println!(
        "universe: {} scenarios (enumerated {}, dedup {}, sampled out {}) in {:.3}s | \
         covered {:.6} | digest {:016x}",
        universe.len(),
        universe.stats.enumerated,
        universe.stats.deduped,
        universe.stats.sampled_out,
        compile_seconds,
        universe.covered_probability(),
        universe.digest()
    );
    assert!(
        universe.len() >= MIN_PIPELINE_SCENARIOS,
        "pipeline comparison needs >= {MIN_PIPELINE_SCENARIOS} scenarios, got {} — widen the \
         universe config",
        universe.len()
    );
    let by_source =
        |src: ScenarioSource| universe.scenarios.iter().filter(|c| c.source == src).count();
    println!(
        "  sources: {} k-cut | {} flapping | {} srlg | {} maintenance | max cut size {}",
        by_source(ScenarioSource::KCut),
        by_source(ScenarioSource::Flapping),
        by_source(ScenarioSource::Srlg),
        by_source(ScenarioSource::Maintenance),
        universe.scenarios.iter().map(|c| c.scenario.cut_fibers.len()).max().unwrap_or(0)
    );

    // Warm the process once (first-touch page faults and lazy allocator
    // growth dominate a cold first run) so the wall clocks below measure
    // the steady state.
    let _ = generate_tickets_shard(wan, &universe, lcfg, ShardSpec::whole());

    // Single-shard reference run. Timed as the min over three repeats —
    // the universes here finish in tens of milliseconds, where scheduler
    // noise swamps a single wall-clock sample.
    let mut unsharded_wall = f64::INFINITY;
    let mut reference = None;
    for _ in 0..3 {
        ring.clear();
        let (set, stats) = generate_tickets_shard(wan, &universe, lcfg, ShardSpec::whole());
        let reference_spans = ring.finished_spans("offline.scenario").len();
        assert_eq!(reference_spans, universe.len(), "one offline.scenario span per scenario");
        unsharded_wall = unsharded_wall.min(stats.wall_seconds);
        reference = Some((set, stats));
    }
    let (full, offline) = reference.expect("three reference runs");
    assert!(full.is_full());
    let full_digest = full.digest();
    println!(
        "unsharded: {} | {:.1} scenarios/s | digest {:016x}",
        offline.summary(),
        universe.len() as f64 / unsharded_wall.max(1e-9),
        full_digest
    );

    // Same universe through the serial oracle: one unbatched LP per
    // scenario, no pool, no chunks. Output must be byte-identical, and the
    // oracle must emit the same one-span-per-scenario trace.
    ring.clear();
    let serial = generate_tickets_serial(wan, &universe.failure_scenarios(), lcfg);
    assert_eq!(
        ring.finished_spans("offline.scenario").len(),
        universe.len(),
        "serial oracle must emit one offline.scenario span per scenario"
    );
    assert_eq!(serial, full, "batched run is not byte-identical to the serial oracle");
    assert_eq!(serial.digest(), full_digest, "serial/batched digest mismatch");
    println!("serial oracle: digests equal ✓");

    // Sharded runs: generate each shard independently, merge, compare.
    let mut shard_runs = Vec::new();
    for &of in shard_counts {
        ring.clear();
        let mut wall = 0.0;
        let mut shards = Vec::with_capacity(of);
        for index in 0..of {
            let (set, stats) =
                generate_tickets_shard(wan, &universe, lcfg, ShardSpec { index, of });
            wall += stats.wall_seconds;
            shards.push(set);
        }
        let scenario_spans = ring.finished_spans("offline.scenario").len();
        assert_eq!(scenario_spans, universe.len(), "per-shard spans must cover the universe");
        let shard_digests: Vec<u64> = shards.iter().map(|s| s.digest()).collect();
        let merged = TicketSet::merge_all(shards).expect("honest shards must merge");
        let merged_digest = merged.digest();
        assert_eq!(merged, full, "{of}-shard merge is not byte-identical to the unsharded run");
        assert_eq!(merged_digest, full_digest, "digest mismatch at {of} shards");
        println!(
            "  {of} shard(s): merged digest {merged_digest:016x} == unsharded ✓ \
             ({scenario_spans} offline.scenario spans, {wall:.2}s summed wall)"
        );
        shard_runs.push(ShardRun {
            of,
            shard_digests,
            merged_digest,
            scenario_spans,
            wall_seconds: wall,
        });
    }

    // Deduplicated weighted ticket pool across the whole universe.
    let pool = full.weighted_pool(&universe.probabilities());
    let pool_mass: f64 = pool.iter().map(|w| w.probability).sum();
    println!(
        "ticket pool: {} tickets kept of {} generated ({} cross-scenario duplicates) | \
         pooled mass {:.6}\n",
        pool.len(),
        full.total_tickets(),
        full.total_tickets() - pool.len(),
        pool_mass
    );

    TopologyReport {
        name: name.to_string(),
        universe,
        compile_seconds,
        unsharded_digest: full_digest,
        unsharded_wall,
        offline,
        shard_runs,
        pool_tickets: pool.len(),
        pool_mass,
    }
}

fn report_json(reports: &[TopologyReport]) -> String {
    let mut out = String::from("{\n  \"topologies\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let s = &r.universe.stats;
        let mut shards = String::new();
        for (j, sr) in r.shard_runs.iter().enumerate() {
            let digests: Vec<String> =
                sr.shard_digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
            let _ = write!(
                shards,
                "{}{{\"of\":{},\"merged_digest\":\"{:016x}\",\"scenario_spans\":{},\
                 \"wall_seconds\":{:.6},\"shard_digests\":[{}]}}",
                if j > 0 { "," } else { "" },
                sr.of,
                sr.merged_digest,
                sr.scenario_spans,
                sr.wall_seconds,
                digests.join(",")
            );
        }
        let _ = writeln!(
            out,
            "    {{\"name\":\"{}\",\"scenarios\":{},\"enumerated\":{},\"deduped\":{},\
             \"sampled_out\":{},\"covered_probability\":{:.9},\"universe_digest\":\"{:016x}\",\
             \"compile_seconds\":{:.6},\"compile_scenarios_per_sec\":{:.1},\
             \"generation_wall_seconds\":{:.6},\"generation_scenarios_per_sec\":{:.1},\
             \"tickets_kept\":{},\"tickets_infeasible\":{},\"tickets_duplicate\":{},\
             \"ticket_set_digest\":\"{:016x}\",\"serial_oracle_equal\":true,\
             \"pool_tickets\":{},\"pool_mass\":{:.9},\"shard_runs\":[{}]}}{}",
            r.name,
            s.kept,
            s.enumerated,
            s.deduped,
            s.sampled_out,
            r.universe.covered_probability(),
            r.universe.digest(),
            r.compile_seconds,
            s.enumerated as f64 / r.compile_seconds.max(1e-9),
            r.unsharded_wall,
            s.kept as f64 / r.unsharded_wall.max(1e-9),
            r.offline.total_kept(),
            r.offline.total_infeasible(),
            r.offline.total_duplicates(),
            r.unsharded_digest,
            r.pool_tickets,
            r.pool_mass,
            shards,
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    let snap = arrow_wan::obs::metrics::snapshot();
    let _ = writeln!(
        out,
        "  ],\n  \"obs\": {{\"scenario.compiled\":{},\"scenario.sampled\":{},\
         \"scenario.dedup\":{},\"offline.scenarios\":{},\"offline.tickets.kept\":{}}}\n}}",
        snap.counter("scenario.compiled"),
        snap.counter("scenario.sampled"),
        snap.counter("scenario.dedup"),
        snap.counter("offline.scenarios"),
        snap.counter("offline.tickets.kept")
    );
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ring = Arc::new(RingSubscriber::new(1 << 16));
    arrow_wan::obs::trace::install(ring.clone());

    // Both modes compile at least MIN_PIPELINE_SCENARIOS scenarios:
    // generation throughput is meaningless on a handful of LPs (fixed costs
    // dominate). Smoke stays cheap by keeping num_tickets low instead.
    let (ucfg, lcfg, shard_counts): (UniverseConfig, LotteryConfig, Vec<usize>) = if smoke {
        (
            UniverseConfig {
                max_k: 3,
                cutoff: 1e-5,
                auto_srlg_size: 3,
                auto_srlg_probability: 1e-3,
                maintenance_window: 2,
                maintenance_probability: 5e-4,
                max_scenarios: MIN_PIPELINE_SCENARIOS,
                ..Default::default()
            },
            LotteryConfig { num_tickets: 6, ..Default::default() },
            vec![2],
        )
    } else {
        (
            UniverseConfig {
                max_k: 3,
                cutoff: 1e-5,
                auto_srlg_size: 3,
                auto_srlg_probability: 1e-3,
                maintenance_window: 2,
                maintenance_probability: 5e-4,
                flapping_count: 2,
                flapping_boost: 4.0,
                max_scenarios: 96,
                ..Default::default()
            },
            LotteryConfig { num_tickets: 12, ..Default::default() },
            vec![2, 4],
        )
    };

    let mut reports = Vec::new();
    let b4_wan = b4(17);
    reports.push(sweep_topology("B4", &b4_wan, &ucfg, &lcfg, &shard_counts, &ring));
    let ibm_wan = if smoke { None } else { Some(ibm(17)) };
    if let Some(wan) = &ibm_wan {
        reports.push(sweep_topology("IBM", wan, &ucfg, &lcfg, &shard_counts, &ring));
    }

    arrow_wan::obs::trace::uninstall();

    let json = report_json(&reports);
    std::fs::write("BENCH_scenarios.json", &json).expect("write BENCH_scenarios.json");
    println!("wrote BENCH_scenarios.json");
    println!(
        "all {} topology sweep(s): every shard merge reproduced the unsharded TicketSet",
        reports.len()
    );
}
