//! Integration tests for the `arrow serve` daemon loop.
//!
//! `serve` drives process-global observability state (the installed
//! tracer, the SLO window, the exporter readiness flag), so every test
//! here serializes on one mutex rather than racing over the globals. The
//! CLI's answers to the same bad values are process tests in `tests/cli.rs`.

use arrow_wan::daemon::{serve, ChaosConfig, ServeConfig, ServeError};
use arrow_wan::obs::json::{self, Json};
use arrow_wan::prelude::b4;
use std::path::PathBuf;
use std::sync::Mutex;

static SERVE_LOCK: Mutex<()> = Mutex::new(());

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arrow-serve-test-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

/// A small, cut-free run: ticks only plus whatever chaos injects.
fn base_config(tag: &str) -> ServeConfig {
    ServeConfig {
        seed: 7,
        epochs: 4,
        scenarios: 3,
        tickets: 4,
        mean_cut_interval_s: 0.0,
        scrape_every: 0,
        incident_dir: scratch_dir(tag),
        ..Default::default()
    }
}

/// A negative or non-finite demand scale is user input, not a bug: the
/// daemon answers with a typed error and never reaches
/// `TrafficMatrix::scaled`'s assertion.
#[test]
fn bad_demand_scale_is_rejected_without_a_panic() {
    let _guard = SERVE_LOCK.lock().expect("serve lock");
    for scale in [-1.0, f64::NAN, f64::INFINITY] {
        let config = ServeConfig { demand_scale: scale, ..base_config("bad-scale") };
        let err = serve(b4(17), &config).expect_err("bad demand_scale must be rejected");
        assert!(matches!(err, ServeError::Config(_)), "scale {scale}: {err}");
    }
}

/// A demand jitter outside `[0, 1]` is rejected the same way. Past 1 a
/// tick's draw from `[1 - j, 1 + j]` can scale demand below zero, and 1.5
/// under `base_config`'s seed did, panicking in `TrafficMatrix::scaled`;
/// NaN and negative values used to run silently as 0.
#[test]
fn bad_demand_jitter_is_rejected_without_a_panic() {
    let _guard = SERVE_LOCK.lock().expect("serve lock");
    for jitter in [f64::NAN, -0.1, f64::INFINITY, 1.5] {
        let config = ServeConfig { demand_jitter: jitter, ..base_config("bad-jitter") };
        let err = serve(b4(17), &config).expect_err("bad demand_jitter must be rejected");
        assert!(matches!(err, ServeError::Config(_)), "jitter {jitter}: {err}");
    }
}

/// A deadline that is not a positive number of seconds is rejected the same
/// way; it used to be swapped for 300 s while the CLI printed what was typed.
#[test]
fn bad_budget_is_rejected_not_replaced() {
    let _guard = SERVE_LOCK.lock().expect("serve lock");
    for budget in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
        let config = ServeConfig { budget_seconds: budget, ..base_config("bad-budget") };
        let err = serve(b4(17), &config).expect_err("bad budget_seconds must be rejected");
        assert!(matches!(err, ServeError::Config(_)), "budget {budget}: {err}");
    }
}

/// A chaos stall no thread can sleep for — NaN, negative, infinite, or past
/// `Duration::MAX` — is rejected up front; `inf` and `1e30` used to panic in
/// `Duration::from_secs_f64` at the first burst, `nan` and `-1` to run as 0 s.
#[test]
fn bad_chaos_stall_is_rejected_without_a_panic() {
    let _guard = SERVE_LOCK.lock().expect("serve lock");
    for stall in [f64::INFINITY, 1e30, f64::NAN, -1.0] {
        let config = ServeConfig {
            chaos: Some(ChaosConfig { bursts: 1, stall_seconds: stall, ..Default::default() }),
            ..base_config("bad-stall")
        };
        let err = serve(b4(17), &config).expect_err("bad stall_seconds must be rejected");
        assert!(matches!(err, ServeError::Config(_)), "stall {stall}: {err}");
    }
}

#[test]
fn forced_slow_epoch_falls_back_to_previous_plan() {
    let _guard = SERVE_LOCK.lock().expect("serve lock");
    let fallbacks_before = arrow_wan::obs::metrics::snapshot().counter("daemon.fallback");

    // One burst whose stall (2.5 s) blows a 1 s budget; healthy warm
    // epochs run well under it, so exactly one epoch may miss.
    let config = ServeConfig {
        budget_seconds: 1.0,
        chaos: Some(ChaosConfig { bursts: 1, stall_seconds: 2.5, ..Default::default() }),
        ..base_config("fallback")
    };
    let report = serve(b4(17), &config).expect("daemon run");

    assert_eq!(report.chaos_bursts, 1, "the scheduled burst must be delivered");
    assert_eq!(report.fallbacks, 1, "the stalled epoch must fall back");
    assert_eq!(report.plan_errors, 0);
    let fallbacks_after = arrow_wan::obs::metrics::snapshot().counter("daemon.fallback");
    assert_eq!(fallbacks_after - fallbacks_before, 1, "daemon.fallback must count the miss");

    // The installed plan did not advance on the missed epoch: the last
    // history entry repeats the previous one.
    let h = &report.installed_history;
    assert!(h.len() >= 2);
    assert_eq!(
        h[h.len() - 1],
        h[h.len() - 2],
        "deadline miss must keep the previous epoch's plan installed"
    );
    assert!(h[h.len() - 1].is_some(), "a plan must have been installed before the miss");

    // And the miss left a complete flight-recorder incident behind.
    assert_eq!(report.incidents.len(), 1);
    let inc = &report.incidents[0];
    assert!(
        inc.critical_path_contains("lp.solve"),
        "incident critical path must reach lp.solve, got {:?}",
        inc.critical_path.iter().map(|h| h.name.as_str()).collect::<Vec<_>>()
    );
    assert!(inc.dir.join("trace.jsonl").exists());
    assert!(inc.dir.join("incident.json").exists());
    std::fs::remove_dir_all(&config.incident_dir).ok();
}

#[test]
fn same_seed_chaos_soaks_are_byte_identical() {
    let _guard = SERVE_LOCK.lock().expect("serve lock");

    // Zero-stall bursts: the chaos *schedule* is exercised without any
    // wall-clock dependence, so the whole run is a pure function of the
    // seed — event sequence and computed plans alike.
    let config = ServeConfig {
        chaos: Some(ChaosConfig { bursts: 2, stall_seconds: 0.0, ..Default::default() }),
        ..base_config("determinism")
    };
    let a = serve(b4(17), &config).expect("first run");
    let b = serve(b4(17), &config).expect("second run");

    assert_eq!(a.event_log, b.event_log, "same seed must replay the same event sequence");
    assert_eq!(
        a.winning_digest, b.winning_digest,
        "same seed must compute the same winning tickets every epoch"
    );
    assert_eq!(a.chaos_bursts, 2);
    assert_eq!(a.fallbacks, 0, "zero-stall bursts must not miss the deadline");

    let other = ServeConfig { seed: 8, ..config.clone() };
    let c = serve(b4(17), &other).expect("different-seed run");
    assert_ne!(a.event_log, c.event_log, "a different seed must change the event sequence");
}

/// The seeded chaos soak behind ROADMAP item 2's p99 acceptance: B4 under
/// a 2 s budget, random cut/repair re-plans, and bursts stalling 3 s. The
/// stall is 1.5× the budget, so every burst must miss, while a healthy
/// warm epoch runs ~10× under it, so nothing else may.
fn soak(epochs: u64, bursts: u64) {
    let _guard = SERVE_LOCK.lock().expect("serve lock");
    let config = ServeConfig {
        seed: 42,
        epochs,
        budget_seconds: 2.0,
        scenarios: 4,
        tickets: 8,
        demand_scale: 2.0,
        scrape_every: 5,
        incident_dir: scratch_dir(&format!("soak-{epochs}")),
        chaos: Some(ChaosConfig { bursts, stall_seconds: 3.0, ..Default::default() }),
        ..Default::default()
    };
    let report = serve(b4(17), &config).expect("daemon run");

    assert!(
        report.warm_hit_ratio >= 0.925,
        "warm-hit ratio {:.4} below the 0.925 floor",
        report.warm_hit_ratio
    );
    assert_eq!(report.chaos_bursts, bursts, "feed dropped a scheduled chaos burst");
    assert_eq!(
        report.fallbacks, report.chaos_bursts,
        "every chaos burst must miss the deadline and fall back to the previous plan"
    );
    assert_eq!(
        report.incidents.len() as u64,
        report.chaos_bursts + report.plan_errors,
        "every deadline miss must produce an incident dump"
    );
    // Each dump on disk is complete, and its written critical path names
    // the LP solve. Checked before the aggregate flag below, so a failure
    // names the dump and prints its path.
    for inc in &report.incidents {
        for artifact in ["trace.jsonl", "metrics.json", "incident.json"] {
            assert!(inc.dir.join(artifact).exists(), "{} lacks {artifact}", inc.dir.display());
        }
        let manifest =
            std::fs::read_to_string(inc.dir.join("incident.json")).expect("read incident.json");
        let manifest = json::parse(&manifest).expect("incident.json parses");
        let path: Vec<&str> = manifest
            .get("critical_path")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|hop| hop.get("name").and_then(Json::as_str))
            .collect();
        assert!(path.contains(&"lp.solve"), "{}: critical path {path:?}", inc.dir.display());
    }
    assert!(
        report.incidents_reach_lp_solve,
        "an incident dump's critical path failed to reach lp.solve"
    );
    assert_eq!(report.plan_errors, 0, "soak must plan every epoch");
    assert_eq!(report.readyz_before, 503, "/readyz must be 503 before the first plan");
    assert_eq!(report.readyz_after, 200, "/readyz must be 200 once a plan is installed");
    assert!(
        report.scrapes_ok >= report.epochs_planned / 5 / 2,
        "live /metrics scrapes failed mid-soak ({} ok)",
        report.scrapes_ok
    );
    std::fs::remove_dir_all(&config.incident_dir).ok();
}

/// 30 ticks and one burst (≈ 5 s in release).
#[test]
fn soak_smoke_holds_every_gate() {
    soak(30, 1);
}

/// 200 ticks and three bursts (≈ 17 s in release): CI runs it with
/// `cargo test --release --test serve -- --ignored`.
#[test]
#[ignore]
fn soak_full_holds_every_gate() {
    soak(200, 3);
}
