//! `arrow serve` — the long-lived ARROW controller daemon (ROADMAP
//! item 3).
//!
//! ARROW's deployment model (§5) is a controller re-planning every TE
//! epoch against live failure and demand telemetry. This module is that
//! loop: a seeded [`arrow_sim::EventFeed`] drives it — epoch ticks with
//! diurnal-plus-jitter demand perturbation, fiber cut/repair events that
//! trigger immediate re-plans, and (in chaos mode, [`ChaosConfig`])
//! correlated bursts with a planning stall — and every epoch runs through
//! [`ArrowController::plan_epoch`], reusing the warm-start cache across
//! hundreds of epochs while the [`arrow_obs::export`] listener serves
//! `/metrics`, `/snapshot.json`, `/healthz`, and `/readyz` live.
//!
//! The loop is a pure step in a thin shell. `step` decides, from the feed
//! event and the epoch's outcome (its measured seconds and verdict
//! included), what is counted, whether the plan is installed or the
//! previous one keeps serving (a deadline-miss fallback: installing a
//! stale-demand plan late is worse than keeping the one the network has
//! converged on), how the winners fold into the digest, and which
//! incident to dump. [`serve`] does the I/O: it plans, has the flight
//! recorder (a per-epoch trace ring) dump the incident, flips `/readyz`
//! from 503 to 200 on the first installed plan, and scrapes itself.

mod chaos;
mod recorder;
mod step;

use std::net::SocketAddr;
use std::path::PathBuf;

use arrow_core::{ArrowController, ControllerConfig, EpochHook, LotteryConfig};
use arrow_obs::incident::IncidentDump;
use arrow_obs::slo::SloConfig;
use arrow_obs::{event, export, slo, Counter};
use arrow_sim::{EventFeed, FeedConfig, FeedEvent};
use arrow_te::TunnelConfig;
use arrow_topology::{generate_failures, gravity_matrices, FailureConfig, TrafficConfig, Wan};

pub use chaos::ChaosConfig;
use recorder::FlightRecorder;
use step::{LoopState, Planned};

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
    /// `demand_scale`, feed duration or chaos `stall_seconds`, or a
    /// `demand_jitter` outside `[0, 1]`); nothing was started.
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
#[derive(Debug, Default)]
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
    /// Share of planned epochs whose Phase-I LP warm start was an exact
    /// cache hit.
    pub warm_hit_ratio: f64,
    /// After each planned epoch: which epoch's plan was installed (None
    /// until the first successful epoch). A fallback shows up as the
    /// previous entry repeating.
    pub installed_history: Vec<Option<u64>>,
    /// Incident dumps written (deadline misses + plan errors).
    pub incidents: Vec<IncidentDump>,
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

static SCRAPES: Counter = Counter::new("daemon.scrapes", "successful self-scrapes of /metrics");

/// `GET path` from the exporter: the HTTP status (0 when the request or
/// its status line fails) and the raw response.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let response = export::http_get(addr, path).unwrap_or_default();
    (response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0), response)
}

/// Rejects a [`ServeConfig`] that cannot be served, before anything starts.
fn check(c: &ServeConfig) -> Result<(), ServeError> {
    let (gt0, ge0) = ("finite and > 0", "finite and >= 0");
    let rules = [
        ("demand_scale", c.demand_scale, ge0, c.demand_scale >= 0.0),
        // Each tick scales demand by a draw from [1 - j, 1 + j]: past 1 a
        // tick can go negative, which `TrafficMatrix::scaled` asserts against.
        ("demand_jitter", c.demand_jitter, "in [0, 1]", (0.0..=1.0).contains(&c.demand_jitter)),
        ("budget_seconds", c.budget_seconds, gt0, c.budget_seconds > 0.0),
        // The feed would replace these quietly, and chaos bursts are timed
        // off the raw interval: a NaN one put every burst at t = 0.
        ("epoch_interval_s", c.epoch_interval_s, gt0, c.epoch_interval_s > 0.0),
        ("mean_cut_interval_s", c.mean_cut_interval_s, ge0, c.mean_cut_interval_s >= 0.0),
        ("repair_after_s", c.repair_after_s, gt0, c.repair_after_s > 0.0),
    ];
    let bad = rules.into_iter().find(|&(_, value, _, ok)| !(ok && value.is_finite()));
    if let Some((name, value, rule, _)) = bad {
        return Err(ServeError::Config(format!("{name} must be {rule}, got {value}")));
    }
    // One test for NaN, infinite, negative and too large to sleep for.
    let stall = c.chaos.as_ref().map_or(0.0, |chaos| chaos.stall_seconds);
    if std::time::Duration::try_from_secs_f64(stall).is_err() {
        return Err(ServeError::Config(format!(
            "chaos stall_seconds must be a number of seconds from 0 to u64::MAX, got {stall}"
        )));
    }
    Ok(())
}

/// Runs the daemon to feed exhaustion and reports what happened: every
/// tick re-plans at the tick's perturbed demand, every cut/repair at the
/// current demand, every chaos burst under an injected stall.
pub fn serve(wan: Wan, config: &ServeConfig) -> Result<ServeReport, ServeError> {
    check(config)?;
    // SLO budget for this run; also resets the rolling window so the
    // verdicts below start clean.
    slo::configure(SloConfig { budget_seconds: config.budget_seconds, ..SloConfig::default() });

    export::set_ready(false);
    let exporter = export::spawn(config.addr.as_str()).map_err(ServeError::Io)?;
    let addr = exporter.local_addr();
    let readyz_before = get(addr, "/readyz").0;

    // The calendar: ticks + cuts from the seed, bursts from chaos mode.
    let mut feed = EventFeed::new(FeedConfig {
        seed: config.seed,
        epoch_interval_s: config.epoch_interval_s,
        epochs: config.epochs,
        num_fibers: wan.optical.num_fibers(),
        mean_cut_interval_s: config.mean_cut_interval_s,
        repair_after_s: config.repair_after_s,
        demand_jitter: config.demand_jitter,
    });
    chaos::schedule_bursts(&wan, &mut feed, config);

    // Offline stage: scenarios, demand, LotteryTickets.
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

    let recorder = FlightRecorder::install(config.recorder_capacity, &config.incident_dir);

    let mut state = LoopState::new();
    // A bare stopwatch, not a span: a `daemon.loop` span would become
    // every epoch's parent in the flight recorder's captures.
    let loop_clock = arrow_obs::SpanGuard::disabled();

    while let Some((t, ev)) = feed.next_event() {
        let stall_seconds = match &ev {
            FeedEvent::ChaosBurst { stall_seconds, .. } => *stall_seconds,
            _ => 0.0,
        };
        let tm = base_tm.scaled(state.scale_for(&ev));

        recorder.begin_epoch();
        let stall_hook = move || {
            event!(warn: "daemon.chaos.stall", "seconds" => stall_seconds);
            std::thread::sleep(std::time::Duration::from_secs_f64(stall_seconds));
        };
        let hook = (stall_seconds > 0.0).then_some(&stall_hook as EpochHook<'_>);
        let planned = controller.plan_epoch(&tm, hook);
        let outcome = match &planned {
            Ok((plan, epoch)) => Ok(Planned {
                winning: &plan.outcome.winning,
                warm_hit: plan.outcome.phase1_stats.warm == arrow_lp::WarmEvent::Hit,
                seconds: epoch.seconds,
                budget_seconds: epoch.verdict.budget_seconds,
                met: epoch.verdict.met,
            }),
            Err(e) => Err(e.to_string()),
        };

        if let Some(incident) = state.step(t, &ev, outcome) {
            state.report.incidents.push(recorder.capture(&incident).map_err(ServeError::Io)?);
        }
        if let (Some(epoch), false) = (state.installed, export::ready()) {
            export::set_ready(true);
            event!("daemon.ready", "epoch" => epoch);
        }

        // Live self-scrape over the real socket: the daemon is its own
        // first Prometheus client.
        let report = &mut state.report;
        if config.scrape_every > 0 && report.epochs_planned.is_multiple_of(config.scrape_every) {
            let (status, metrics) = get(addr, "/metrics");
            let metrics_ok = status == 200 && metrics.contains("epoch_seconds");
            if metrics_ok && get(addr, "/readyz").0 == 200 {
                report.scrapes_ok += 1;
                SCRAPES.inc();
            }
        }
    }

    let mut report = state.report;
    report.wall_seconds = loop_clock.elapsed_seconds();
    report.readyz_before = readyz_before;
    report.readyz_after = get(addr, "/readyz").0;
    report.metrics_addr = addr.to_string();
    // Dropping `recorder` uninstalls the tracer, then `exporter` stops.
    Ok(report)
}
