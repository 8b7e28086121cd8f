//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and the per-layer ledger. `BENCHMARK.json` at
//! the repository root states the same tables for the driver; a test keeps
//! the two equal.

/// One workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` (end-to-end only) is the share of the parent's
/// median by which the metric may worsen before a change is a regression.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Seed used when `--seed` is not given; the digest pins below hold at it.
pub const DEFAULT_SEED: u64 = 42;

/// Output digests (`Workload::pin`) at [`DEFAULT_SEED`] on the unmodified
/// tree. They do not depend on the run length.
pub const PINS: &[(&str, u64)] = &[
    ("offline_b4", 0xf3b1_561f_c1d7_a9b6),
    ("offline_ibm", 0x9150_d62b_5711_91cc),
    ("serve_b4_warm", 0x1a76_40aa_c5cb_e225),
    ("epoch_b4_cold", 0x6484_2137_53b0_07ca),
    ("playback_b4", 0x4070_429c_a45c_0656),
];

/// Run length used when `--seconds` is not given (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 15.0;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "offline_b4",
        why: "many small same-family RWA LPs (dense simplex) over B4's full correlated universe: \
              where offline-stage and batching work must show and online-only work must not",
    },
    WorkloadSpec {
        name: "offline_ibm",
        why:
            "the same offline layer on IBM: fewer, 5x larger LPs and a third of rounds infeasible, \
              so a change tuned to B4's many-small-LP shape shows its cost here",
    },
    WorkloadSpec {
        name: "serve_b4_warm",
        why: "the production steady state: the serve daemon re-planning warm-started PDHG epochs \
              from a seeded feed with cuts, recorder and live scrapes; offline work must not show",
    },
    WorkloadSpec {
        name: "epoch_b4_cold",
        why: "every epoch pays build_instance, the Phase I skeleton and a cold PDHG solve: \
              model-build work shows here and warm-start work shows nothing",
    },
    WorkloadSpec {
        name: "playback_b4",
        why: "audits one plan against the whole universe with play_scenario and does no LP work: \
              the control on which every LP change must read no change",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// One operation is a scenario (`offline_*`), an epoch tick (`serve_*`,
/// `epoch_*`) or a played scenario (`playback_*`).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0 }
}

/// Per-layer ledger, printed by every workload with `--trace 1`; a layer
/// the workload never enters reads 0. README.md maps each to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("lp.simplex.solve_s", "s", "lower"),
    layer("lp.simplex.iterations", "count", "lower"),
    layer("lp.simplex.us_per_iter", "us", "lower"),
    layer("lp.simplex.refactors", "count", "lower"),
    layer("lp.pdhg.solve_s", "s", "lower"),
    layer("lp.pdhg.iterations", "count", "lower"),
    layer("lp.pdhg.ns_per_iter_nnz", "ns", "lower"),
    layer("lp.pdhg.restarts", "count", "lower"),
    layer("lp.pdhg.warm_hit_ratio", "ratio", "higher"),
    layer("lp.batch.paneled_ratio", "ratio", "higher"),
    layer("lp.batch.chunk16_s", "s", "lower"),
    layer("lp.batch.seq16_s", "s", "lower"),
    layer("lp.sparse.mul_vec_ns_per_nnz", "ns", "lower"),
    layer("lp.sparse.mul_transpose_vec_ns_per_nnz", "ns", "lower"),
    layer("lp.sparse.bytes_per_nnz", "B", "lower"),
    layer("lp.solver.nonoptimal", "count", "lower"),
    layer("optical.rwa.build_s", "s", "lower"),
    layer("optical.rwa.extract_s", "s", "lower"),
    layer("optical.rwa.is_feasible_us", "us", "lower"),
    layer("optical.rwa.is_feasible_calls", "count", "lower"),
    layer("optical.rwa.greedy_assign_us", "us", "lower"),
    layer("optical.rwa.lp_rows_mean", "count", "lower"),
    layer("optical.rwa.lp_nnz_mean", "count", "lower"),
    layer("core.lottery.fractional_seed_s", "s", "lower"),
    layer("core.lottery.round_once_us", "us", "lower"),
    layer("core.lottery.rounds", "count", "higher"),
    layer("core.lottery.kept", "count", "higher"),
    layer("core.lottery.infeasible", "count", "lower"),
    layer("core.lottery.duplicates", "count", "lower"),
    layer("core.lottery.kept_ratio", "ratio", "higher"),
    layer("core.lottery.work_s", "s", "lower"),
    layer("core.lottery.wall_s", "s", "lower"),
    layer("core.lottery.layers_cover_ratio", "ratio", "higher"),
    layer("core.par.threads", "count", "higher"),
    layer("core.par.speedup", "ratio", "higher"),
    layer("topology.failures.compile_universe_s", "s", "lower"),
    layer("te.tunnels.build_instance_s", "s", "lower"),
    layer("te.tunnels.with_demands_us", "us", "lower"),
    layer("te.arrow.online_new_s", "s", "lower"),
    layer("te.arrow.solve_s", "s", "lower"),
    layer("te.arrow.nonlp_s", "s", "lower"),
    layer("te.arrow.phase1_solve_s", "s", "lower"),
    layer("te.arrow.phase2_solve_s", "s", "lower"),
    layer("te.arrow.phase1_iterations", "count", "lower"),
    layer("te.arrow.phase2_iterations", "count", "lower"),
    layer("te.arrow.admitted_fraction", "ratio", "higher"),
    layer("te.eval.play_scenario_us", "us", "lower"),
    layer("te.eval.availability", "ratio", "higher"),
    layer("core.controller.plan_epoch_s", "s", "lower"),
    layer("core.controller.self_s", "s", "lower"),
    layer("core.controller.offline_new_s", "s", "lower"),
    layer("core.controller.layers_cover_ratio", "ratio", "higher"),
    layer("sim.feed.next_event_ns", "ns", "lower"),
    layer("daemon.epoch_p50_s", "s", "lower"),
    layer("daemon.epoch_tail_s", "s", "lower"),
    layer("daemon.epoch_tail_percentile", "%", "higher"),
    layer("daemon.epochs", "count", "higher"),
    layer("daemon.loop_overhead_s", "s", "lower"),
    layer("daemon.overhead_ratio", "ratio", "lower"),
    layer("daemon.warm_hit_ratio", "ratio", "higher"),
    layer("daemon.fallbacks", "count", "lower"),
    layer("daemon.incidents", "count", "lower"),
    layer("daemon.cut_replans", "count", "higher"),
    layer("daemon.scrapes_ok", "count", "higher"),
    layer("obs.export.scrape_us", "us", "lower"),
    layer("obs.trace.overhead_ratio", "ratio", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.spans", "count", "lower"),
];

/// Whether `name` is a legal workload or metric name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrow_wan::obs::json::{self, Json};

    #[test]
    fn name_regex() {
        for ok in ["ops_per_s", "lp.pdhg.ns_per_iter_nnz", "a", "9lives", "x-y.z_0"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "-x", "has space", "slash/y", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key).unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key}"))
    }

    /// The emitted vocabulary is exactly what BENCHMARK.json declares.
    #[test]
    fn benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(field(&doc, "run_seconds").as_f64(), Some(DEFAULT_SECONDS));

        let workloads = field(&doc, "workloads").as_arr().expect("array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (have, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(have, "name").as_str(), Some(want.name));
            assert_eq!(field(have, "why").as_str(), Some(want.why));
        }
        for (key, table, bounded) in
            [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)]
        {
            let listed = field(&doc, key).as_arr().expect("array");
            assert_eq!(listed.len(), table.len(), "{key}");
            for (have, want) in listed.iter().zip(table) {
                assert_eq!(field(have, "name").as_str(), Some(want.name));
                assert_eq!(field(have, "unit").as_str(), Some(want.unit), "{}", want.name);
                assert_eq!(field(have, "better").as_str(), Some(want.better), "{}", want.name);
                if bounded {
                    assert_eq!(field(have, "bound").as_f64(), Some(want.bound), "{}", want.name);
                }
            }
        }
    }
}
