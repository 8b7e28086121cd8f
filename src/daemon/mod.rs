//! `arrow serve` — the long-lived ARROW controller daemon (ROADMAP
//! item 3).
//!
//! ARROW's deployment model (§5) is a controller re-planning every TE
//! epoch against live failure and demand telemetry. This module is that
//! loop: a seeded [`arrow_sim::EventFeed`] drives it — epoch ticks with
//! diurnal-plus-jitter demand perturbation, fiber cut/repair events that
//! trigger immediate re-plans — and every epoch runs through
//! [`ArrowController::plan_epoch`], reusing the warm-start cache across
//! hundreds of epochs while the [`arrow_obs::export`] listener serves
//! `/metrics`, `/snapshot.json`, `/healthz`, and `/readyz` live.
//!
//! Three observability behaviours are the point:
//!
//! * **flight recorder** ([`recorder::FlightRecorder`]): a per-epoch ring
//!   capture; an SLO deadline miss or plan error freezes the offending
//!   epoch's span tree, critical path, metrics snapshot, and triggering
//!   event into a timestamped incident directory;
//! * **deadline-miss fallback**: a plan computed past the budget is *not*
//!   installed — the previous epoch's plan keeps serving (counted by
//!   `slo.epoch.missed` and the `daemon.fallback` counter, with a warn
//!   event attached), because installing a stale-demand plan late is
//!   worse than keeping the one the network is already converged on;
//! * **chaos mode** ([`chaos`]): seeded, deterministic correlated bursts
//!   from `compile_universe` cut sets, each with a planning stall sized
//!   to force the above two paths on demand.
//!
//! Readiness: `/readyz` stays 503 through offline ticket generation and
//! flips to 200 after the first successfully installed plan.

pub mod chaos;
pub mod recorder;

use std::path::PathBuf;

use arrow_core::{ArrowController, ControllerConfig, EpochHook, LotteryConfig, TePlan};
use arrow_obs::hash::{fnv1a_word, FNV1A_OFFSET};
use arrow_obs::incident::IncidentDump;
use arrow_obs::slo::SloConfig;
use arrow_obs::{event, export, slo, Counter};
use arrow_sim::{EventFeed, FeedConfig, FeedEvent};
use arrow_te::TunnelConfig;
use arrow_topology::{generate_failures, gravity_matrices, FailureConfig, TrafficConfig, Wan};

pub use chaos::ChaosConfig;
pub use recorder::FlightRecorder;

/// Everything that determines a daemon run. Same config + same topology
/// seed ⇒ the same event sequence and the same computed plans.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for the event feed (ticks, jitter, random cuts).
    pub seed: u64,
    /// Epoch ticks to run; the daemon exits when the feed drains.
    pub epochs: u64,
    /// Simulated seconds between ticks (ARROW §5: five minutes).
    pub epoch_interval_s: f64,
    /// SLO deadline budget per epoch, in wall-clock seconds.
    pub budget_seconds: f64,
    /// Failure scenarios the controller plans against.
    pub scenarios: usize,
    /// LotteryTickets per scenario (offline stage).
    pub tickets: usize,
    /// Tunnels per flow.
    pub tunnels_per_flow: usize,
    /// LP backend for the online solves. Defaults to PDHG: across
    /// hundreds of warm re-solves its primal–dual point keeps paying off
    /// under demand perturbation in *either* direction, whereas a simplex
    /// basis goes primal-infeasible (warm miss, cold re-solve) whenever
    /// the diurnal curve drops demand below the incumbent allocation.
    pub backend: arrow_lp::Backend,
    /// Base demand multiplier applied to the gravity matrix.
    pub demand_scale: f64,
    /// Telemetry-noise amplitude on each tick's demand, in `[0, 1]`.
    pub demand_jitter: f64,
    /// Mean simulated seconds between random single-fiber cuts (0 = off).
    pub mean_cut_interval_s: f64,
    /// Simulated seconds from a cut to its repair.
    pub repair_after_s: f64,
    /// Exporter bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Directory incident dumps are written under.
    pub incident_dir: PathBuf,
    /// Flight-recorder ring capacity, in trace records.
    pub recorder_capacity: usize,
    /// Self-scrape `/metrics` + `/readyz` over the real socket every N
    /// planned epochs (0 disables; the soak uses this to prove live
    /// Prometheus scrapes throughout the run).
    pub scrape_every: u64,
    /// Chaos mode: inject correlated bursts with planning stalls.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 42,
            epochs: 48,
            epoch_interval_s: 300.0,
            budget_seconds: SloConfig::default().budget_seconds,
            scenarios: 4,
            tickets: 8,
            tunnels_per_flow: 4,
            demand_scale: 2.0,
            demand_jitter: 0.05,
            backend: arrow_lp::Backend::Pdhg,
            mean_cut_interval_s: 2400.0,
            repair_after_s: 1800.0,
            addr: "127.0.0.1:0".to_string(),
            incident_dir: PathBuf::from("incidents"),
            recorder_capacity: 16384,
            scrape_every: 10,
            chaos: None,
        }
    }
}

/// Why the daemon could not start or finish a run. Per-epoch plan errors
/// do *not* end the run — they produce incident dumps and the loop keeps
/// serving the previous plan; this type covers run-level failures only.
#[derive(Debug)]
pub enum ServeError {
    /// The exporter could not bind, or an incident dump failed to write.
    Io(std::io::Error),
    /// The [`ServeConfig`] cannot be served (e.g. a negative or non-finite
    /// `demand_scale` or chaos `stall_seconds`, or a `demand_jitter`
    /// outside `[0, 1]`); nothing was started.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "daemon i/o: {e}"),
            ServeError::Config(e) => write!(f, "daemon config: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What one daemon run did, for the CLI summary and the soak's assertions.
#[derive(Debug)]
pub struct ServeReport {
    /// Total epochs planned (ticks + cut/repair re-plans + chaos bursts).
    pub epochs_planned: u64,
    /// Epoch ticks consumed.
    pub ticks: u64,
    /// Re-plans triggered by fiber cut/repair events.
    pub cut_replans: u64,
    /// Chaos bursts delivered.
    pub chaos_bursts: u64,
    /// Deadline misses that fell back to the previous installed plan.
    pub fallbacks: u64,
    /// Epochs whose solve returned a typed `PlanError`.
    pub plan_errors: u64,
    /// Epochs whose Phase-I LP warm start was an exact cache hit.
    pub warm_hits: u64,
    /// `warm_hits / epochs_planned`.
    pub warm_hit_ratio: f64,
    /// After each planned epoch: which epoch's plan was installed (None
    /// until the first successful epoch). A fallback shows up as the
    /// previous entry repeating.
    pub installed_history: Vec<Option<u64>>,
    /// Incident dumps written (deadline misses + plan errors).
    pub incidents: Vec<IncidentDump>,
    /// True when every incident dump's critical path reached `lp.solve`.
    pub incidents_reach_lp_solve: bool,
    /// The deterministic event log: `t=<sim s> <label>` per feed event.
    pub event_log: Vec<String>,
    /// FNV-1a digest over every *computed* epoch's winning tickets
    /// (computed plans are deterministic under a fixed seed even when
    /// wall-clock verdicts differ, so this is the determinism witness).
    pub winning_digest: u64,
    /// Wall seconds per planned epoch, in planning order.
    pub epoch_seconds: Vec<f64>,
    /// Wall seconds for the whole loop (excluding offline generation), on
    /// the trace clock the epochs' spans use.
    pub wall_seconds: f64,
    /// Live self-scrapes that returned 200 with the epoch histogram.
    pub scrapes_ok: u64,
    /// `/readyz` HTTP status observed before the first epoch (503).
    pub readyz_before: u16,
    /// `/readyz` HTTP status observed after the loop (200 on success).
    pub readyz_after: u16,
    /// The exporter address the run served on.
    pub metrics_addr: String,
}

impl ServeReport {
    /// Exact p99 over the per-epoch wall clocks (0.0 when empty).
    pub fn p99_epoch_seconds(&self) -> f64 {
        slo::exact_quantile(&self.epoch_seconds, 0.99)
    }
}

static EPOCHS: Counter = Counter::new("daemon.epochs", "epochs planned by the serve loop");
static FALLBACK: Counter =
    Counter::new("daemon.fallback", "late epochs that kept the installed plan");
static PLAN_ERRORS: Counter =
    Counter::new("daemon.plan_errors", "epochs that failed with a PlanError");
static CUT_REPLANS: Counter =
    Counter::new("daemon.replan.cut", "re-plans on fiber cut or repair events");
static BURSTS: Counter = Counter::new("daemon.chaos.bursts", "chaos bursts delivered to the loop");
static SCRAPES: Counter = Counter::new("daemon.scrapes", "successful self-scrapes of /metrics");

/// HTTP status code of a raw response string (0 when unparseable).
fn status_of(response: &str) -> u16 {
    response.split_whitespace().nth(1).and_then(|s| s.parse::<u16>().ok()).unwrap_or(0)
}

/// Runs the daemon to feed exhaustion and reports what happened.
///
/// The loop: drain the seeded event feed; every tick re-plans with the
/// tick's perturbed demand, every cut/repair re-plans immediately with
/// the current demand, every chaos burst re-plans under an injected
/// stall. A plan computed within budget is installed (and flips
/// `/readyz` on first success); a late plan is discarded in favour of
/// the previous one (fallback + incident dump); a `PlanError` keeps the
/// previous plan too (incident dump, no fallback count).
pub fn serve(wan: Wan, config: &ServeConfig) -> Result<ServeReport, ServeError> {
    if !(config.demand_scale.is_finite() && config.demand_scale >= 0.0) {
        return Err(ServeError::Config(format!(
            "demand_scale must be finite and >= 0, got {}",
            config.demand_scale
        )));
    }
    // Each tick scales demand by a draw from [1 - j, 1 + j]: past 1 a tick
    // can go negative, which `TrafficMatrix::scaled` asserts against.
    if !(0.0..=1.0).contains(&config.demand_jitter) {
        return Err(ServeError::Config(format!(
            "demand_jitter must be in [0, 1], got {}",
            config.demand_jitter
        )));
    }
    if !(config.budget_seconds.is_finite() && config.budget_seconds > 0.0) {
        return Err(ServeError::Config(format!(
            "budget_seconds must be finite and > 0, got {}",
            config.budget_seconds
        )));
    }
    // One test for NaN, infinite, negative and too large to sleep for.
    if let Some(stall) = config.chaos.as_ref().map(|c| c.stall_seconds) {
        if std::time::Duration::try_from_secs_f64(stall).is_err() {
            return Err(ServeError::Config(format!(
                "chaos stall_seconds must be a number of seconds from 0 to u64::MAX, got {stall}"
            )));
        }
    }
    // SLO budget for this run; also resets the rolling window so the
    // verdicts below start clean.
    slo::configure(SloConfig { budget_seconds: config.budget_seconds, ..SloConfig::default() });

    export::set_ready(false);
    let mut exporter = export::spawn(config.addr.as_str()).map_err(ServeError::Io)?;
    let addr = exporter.local_addr();
    let readyz_before = export::http_get(addr, "/readyz").map(|r| status_of(&r)).unwrap_or(0);

    // Offline stage: scenarios, demand, LotteryTickets.
    let num_fibers = wan.optical.num_fibers();
    let chaos_wan = config.chaos.as_ref().map(|_| wan.clone());
    let failures = generate_failures(
        &wan,
        &FailureConfig { max_scenarios: config.scenarios.max(1), ..Default::default() },
    );
    let base_tm = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() })
        [0]
    .scaled(config.demand_scale);
    let mut controller = ArrowController::new(
        wan,
        failures.failure_scenarios(),
        ControllerConfig {
            lottery: LotteryConfig { num_tickets: config.tickets.max(1), ..Default::default() },
            tunnels: TunnelConfig {
                tunnels_per_flow: config.tunnels_per_flow.max(1),
                ..Default::default()
            },
            solver: arrow_lp::SolverConfig { backend: config.backend, ..Default::default() },
            ..Default::default()
        },
    );

    // The calendar: ticks + cuts from the seed, bursts from chaos mode.
    let mut feed = EventFeed::new(FeedConfig {
        seed: config.seed,
        epoch_interval_s: config.epoch_interval_s,
        epochs: config.epochs,
        num_fibers,
        mean_cut_interval_s: config.mean_cut_interval_s,
        repair_after_s: config.repair_after_s,
        demand_jitter: config.demand_jitter,
    });
    if let (Some(chaos_cfg), Some(chaos_wan)) = (config.chaos.as_ref(), chaos_wan.as_ref()) {
        chaos::schedule_bursts(
            chaos_wan,
            &mut feed,
            chaos_cfg,
            config.epochs,
            config.epoch_interval_s,
        );
    }

    let recorder = FlightRecorder::install(config.recorder_capacity, &config.incident_dir);

    let mut report = ServeReport {
        epochs_planned: 0,
        ticks: 0,
        cut_replans: 0,
        chaos_bursts: 0,
        fallbacks: 0,
        plan_errors: 0,
        warm_hits: 0,
        warm_hit_ratio: 0.0,
        installed_history: Vec::new(),
        incidents: Vec::new(),
        incidents_reach_lp_solve: true,
        event_log: Vec::new(),
        winning_digest: FNV1A_OFFSET,
        epoch_seconds: Vec::new(),
        wall_seconds: 0.0,
        scrapes_ok: 0,
        readyz_before,
        readyz_after: 0,
        metrics_addr: addr.to_string(),
    };
    let mut installed: Option<(u64, TePlan)> = None;
    let mut last_scale = 1.0_f64;
    // A bare stopwatch, not a span: a `daemon.loop` span would become
    // every epoch's parent in the flight recorder's captures.
    let loop_clock = arrow_obs::SpanGuard::disabled();

    while let Some((t, ev)) = feed.next_event() {
        report.event_log.push(format!("t={t:.1} {}", ev.label()));
        let (trigger, stall_seconds) = match &ev {
            FeedEvent::EpochTick { demand_scale, .. } => {
                report.ticks += 1;
                last_scale = *demand_scale;
                ("tick", 0.0)
            }
            FeedEvent::FiberCut { .. } => {
                report.cut_replans += 1;
                CUT_REPLANS.inc();
                ("fiber-cut", 0.0)
            }
            FeedEvent::FiberRepair { .. } => {
                report.cut_replans += 1;
                CUT_REPLANS.inc();
                ("fiber-repair", 0.0)
            }
            FeedEvent::ChaosBurst { stall_seconds, .. } => {
                report.chaos_bursts += 1;
                BURSTS.inc();
                ("chaos-burst", *stall_seconds)
            }
        };
        let trigger_label =
            format!("{trigger}: {}", report.event_log.last().map(String::as_str).unwrap_or(""));
        let epoch_idx = report.epochs_planned;
        let tm = base_tm.scaled(last_scale);

        recorder.begin_epoch();
        let stall_hook = move || {
            event!(warn: "daemon.chaos.stall", "seconds" => stall_seconds);
            std::thread::sleep(std::time::Duration::from_secs_f64(stall_seconds));
        };
        let hook: Option<EpochHook<'_>> =
            if stall_seconds > 0.0 { Some(&stall_hook) } else { None };

        match controller.plan_epoch(&tm, hook) {
            Ok((plan, epoch_report)) => {
                report.epochs_planned += 1;
                EPOCHS.inc();
                report.epoch_seconds.push(epoch_report.seconds);
                // Digest the *computed* plan: deterministic under a fixed
                // seed regardless of how the wall clock judged it.
                report.winning_digest = fnv1a_word(report.winning_digest, epoch_idx);
                for &w in &plan.outcome.winning {
                    report.winning_digest = fnv1a_word(report.winning_digest, w as u64);
                }
                if plan.outcome.phase1_stats.warm == arrow_lp::WarmEvent::Hit {
                    report.warm_hits += 1;
                }
                let late = !epoch_report.verdict.met;
                if late {
                    // A deadline miss is an incident. With a previous plan
                    // to fall back on, that plan stays installed and the
                    // late one is discarded.
                    let verdict = format!(
                        "epoch took {:.3}s against a {:.3}s budget",
                        epoch_report.seconds, epoch_report.verdict.budget_seconds,
                    );
                    let detail = if let Some((previous, _)) = &installed {
                        report.fallbacks += 1;
                        FALLBACK.inc();
                        event!(warn: "daemon.fallback",
                            "epoch" => epoch_idx,
                            "seconds" => epoch_report.seconds,
                            "budget" => epoch_report.verdict.budget_seconds);
                        format!("{verdict}; reusing plan from epoch {previous}")
                    } else {
                        format!("{verdict}; no previous plan, installing late")
                    };
                    let dump = recorder
                        .capture("deadline-miss", epoch_idx, &trigger_label, &detail)
                        .map_err(ServeError::Io)?;
                    report.incidents_reach_lp_solve &= dump.critical_path_contains("lp.solve");
                    report.incidents.push(dump);
                }
                // A plan within budget is installed, and so is a late one
                // with nothing to fall back on (cold start on a slow
                // machine): a late plan beats no plan.
                if !late || installed.is_none() {
                    installed = Some((epoch_idx, plan));
                    if !export::ready() {
                        export::set_ready(true);
                        event!("daemon.ready", "epoch" => epoch_idx);
                    }
                }
            }
            Err(e) => {
                report.epochs_planned += 1;
                EPOCHS.inc();
                report.plan_errors += 1;
                PLAN_ERRORS.inc();
                event!(warn: "daemon.plan.error", "epoch" => epoch_idx, "error" => e.to_string());
                let dump = recorder
                    .capture("plan-error", epoch_idx, &trigger_label, &e.to_string())
                    .map_err(ServeError::Io)?;
                // A plan error dies before the LP; its critical path is
                // whatever the capture holds, so no lp.solve expectation.
                report.incidents.push(dump);
            }
        }
        report.installed_history.push(installed.as_ref().map(|(i, _)| *i));

        // Live self-scrape over the real socket: the daemon is its own
        // first Prometheus client.
        if config.scrape_every > 0 && report.epochs_planned.is_multiple_of(config.scrape_every) {
            let metrics_ok = export::http_get(addr, "/metrics")
                .map(|r| status_of(&r) == 200 && r.contains("epoch_seconds"))
                .unwrap_or(false);
            let readyz_ok =
                export::http_get(addr, "/readyz").map(|r| status_of(&r) == 200).unwrap_or(false);
            if metrics_ok && readyz_ok {
                report.scrapes_ok += 1;
                SCRAPES.inc();
            }
        }
    }

    report.wall_seconds = loop_clock.elapsed_seconds();
    report.warm_hit_ratio = if report.epochs_planned > 0 {
        report.warm_hits as f64 / report.epochs_planned as f64
    } else {
        0.0
    };
    report.readyz_after = export::http_get(addr, "/readyz").map(|r| status_of(&r)).unwrap_or(0);
    drop(recorder);
    exporter.shutdown();
    Ok(report)
}
