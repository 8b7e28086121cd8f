//! `serve_b4_warm` and `epoch_b4_cold`: the online stage on B4.
//!
//! Both drive the same controller (4 scenarios × 40 tickets, 4 tunnels
//! per flow, PDHG) from `EventFeed` calendars, closed loop with one
//! client: real ticks arrive every 300 s, three orders above the service
//! time, so there is no queue to grow and the latency limit is the epoch
//! budget. A missed budget, a plan error or a fallback counts as a failed
//! operation.
//!
//! A PDHG epoch costs anything from 8 ms to 2 s depending on the demand
//! step it follows, and which steps a feed seed draws moved ticks/s by
//! ±16 % between seeds — more than any bound could absorb. So the
//! calendars are a fixed pool and `--seed` draws the order they are played
//! in: every seed does the same work, starting somewhere else.
//!
//! * `serve_b4_warm` runs whole `daemon::serve` sessions — warm-started
//!   epochs, cut/repair re-plans, flight recorder, live self-scrapes.
//! * `epoch_b4_cold` drops the online cache before every tick, so each
//!   epoch rebuilds the instance and the Phase I skeleton and solves cold.
//!
//! The traced run replays epochs through `plan_epoch` beside a twin
//! `ArrowOnline` fed the same demands, which splits an epoch into tunnel
//! patching, the two-phase solve, and the controller's own remainder.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use arrow_wan::lp::{BackendKind, SolveStats};
use arrow_wan::obs::{export, slo, RingSubscriber, SloConfig};
use arrow_wan::prelude::*;
use arrow_wan::sim::{EventFeed, FeedConfig, FeedEvent};

use crate::harness::{
    cpu_seconds, mean, median, percentile, seeded_order, supported_percentile, Checks, Ledger,
    Timed, Tracer,
};
use crate::Workload;

const SCENARIOS: usize = 4;
const TICKETS: usize = 40;
const TUNNELS_PER_FLOW: usize = 4;
const DEMAND_SCALE: f64 = 3.0;
const DEMAND_JITTER: f64 = 0.05;
const MEAN_CUT_INTERVAL_S: f64 = 2400.0;
const REPAIR_AFTER_S: f64 = 1800.0;
/// Epoch budget standing in for the paper's five minutes at B4 scale:
/// 2.5× the slowest cold epoch seen on the 2-core reference machine, so
/// that an honest run misses no deadline.
const BUDGET_SECONDS: f64 = 5.0;
/// Cold ticks re-solved with exact simplex to check the PDHG plans.
const EXACT_SAMPLES: usize = 3;
/// Feed seeds of the `serve` sessions one run plays, in seeded order.
const SESSION_FEEDS: [u64; 3] = [1, 2, 3];
/// Ticks per session for each second of `--seconds`: three sessions take
/// about `--seconds` on the reference machine (3.5 ticks/s).
const SESSION_TICKS_PER_SECOND: f64 = 1.2;
/// Feed seed of the warm-up, layer-ledger and cold-epoch calendars.
const FIXED_FEED: u64 = 42;
/// Ticks of the cold-epoch pool one run cycles through, in seeded order.
const COLD_POOL: usize = 16;
/// Leading epochs of a shadow replay that also run the twin `ArrowOnline`.
const TWIN_EPOCHS: usize = 12;

/// The controller `daemon::serve` builds for these settings, and its base
/// traffic matrix (demand ×3). The serve shadow's winning digest proves
/// the two stay in step.
pub fn controller(wan: Wan, solver: SolverConfig) -> (ArrowController, TrafficMatrix) {
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: SCENARIOS, ..Default::default() });
    let base_tm = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() })
        [0]
    .scaled(DEMAND_SCALE);
    let ctl = ArrowController::new(
        wan,
        failures.failure_scenarios().to_vec(),
        ControllerConfig {
            lottery: LotteryConfig { num_tickets: TICKETS, ..Default::default() },
            tunnels: TunnelConfig { tunnels_per_flow: TUNNELS_PER_FLOW, ..Default::default() },
            solver,
            ..Default::default()
        },
    );
    (ctl, base_tm)
}

pub fn pdhg() -> SolverConfig {
    SolverConfig { backend: Backend::Pdhg, ..Default::default() }
}

fn feed(seed: u64, ticks: u64, num_fibers: usize) -> EventFeed {
    EventFeed::new(FeedConfig {
        seed,
        epoch_interval_s: 300.0,
        epochs: ticks,
        num_fibers,
        mean_cut_interval_s: if num_fibers > 0 { MEAN_CUT_INTERVAL_S } else { 0.0 },
        repair_after_s: REPAIR_AFTER_S,
        demand_jitter: DEMAND_JITTER,
    })
}

fn admitted_fraction(plan: &TePlan) -> f64 {
    plan.outcome.output.alloc.total_admitted() / plan.instance.total_demand().max(1e-12)
}

/// FNV-1a fold, the same one `ServeReport::winning_digest` uses.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Mean per-solve figures of a set of PDHG solves.
pub fn report_pdhg(stats: &[SolveStats], ledger: &mut Ledger) {
    let n = stats.len().max(1) as f64;
    let seconds: f64 = stats.iter().map(|s| s.solve_seconds).sum();
    let iterations: usize = stats.iter().map(|s| s.iterations).sum();
    let iter_nnz: f64 = stats.iter().map(|s| (s.iterations * s.nnz) as f64).sum();
    let restarts: usize = stats.iter().map(|s| s.restarts).sum();
    let hits = stats.iter().filter(|s| s.warm == WarmEvent::Hit).count();
    ledger.set("lp.pdhg.solve_s", seconds / n);
    ledger.set("lp.pdhg.iterations", iterations as f64 / n);
    ledger.set("lp.pdhg.ns_per_iter_nnz", seconds * 1e9 / iter_nnz.max(1.0));
    ledger.set("lp.pdhg.restarts", restarts as f64 / n);
    ledger.set("lp.pdhg.warm_hit_ratio", hits as f64 / n);
}

/// Replays `scales` (one demand multiplier per planned epoch) through
/// `plan_epoch` beside a twin `ArrowOnline`, recording the span tree
/// `epoch → {core.controller.plan_epoch, epoch.twin → te.*}` and filling
/// the `te.*`, `lp.pdhg.*` and `core.controller.*` rows of the ledger.
/// Returns the digest of the winners, folded as `serve` folds its own.
fn shadow_epochs(
    ctl: &mut ArrowController,
    base_tm: &TrafficMatrix,
    scales: &[f64],
    cold: bool,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    checks: &mut Checks,
) -> u64 {
    struct Twin {
        instance: TeInstance,
        online: ArrowOnline,
    }
    let mut twin: Option<Twin> = None;
    let mut lp_stats: Vec<SolveStats> = Vec::new();
    let (mut p1_s, mut p2_s, mut p1_it, mut p2_it) = (vec![], vec![], vec![], vec![]);
    let (mut admitted, mut nonlp) = (vec![], vec![]);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    for (epoch, &scale) in scales.iter().enumerate() {
        let op = epoch as u64;
        let tm = base_tm.scaled(scale);
        if cold {
            ctl.reset_online_cache();
            twin = None;
        }
        tr.span("epoch", op, |tr| {
            let planned = tr.span("core.controller.plan_epoch", op, |_| ctl.plan_epoch(&tm, None));
            let Ok((plan, _)) = planned else {
                checks.check(false, || format!("shadow epoch {epoch}: plan error"));
                return;
            };
            digest = fnv1a(digest, &op.to_le_bytes());
            for &w in &plan.outcome.winning {
                digest = fnv1a(digest, &(w as u64).to_le_bytes());
            }
            let out = &plan.outcome;
            for s in [out.phase1_stats, out.phase2_stats] {
                if s.backend == BackendKind::Pdhg {
                    lp_stats.push(s);
                }
            }
            p1_s.push(out.phase1_stats.solve_seconds);
            p2_s.push(out.phase2_stats.solve_seconds);
            p1_it.push(out.phase1_stats.iterations as f64);
            p2_it.push(out.phase2_stats.iterations as f64);
            admitted.push(admitted_fraction(&plan));

            if epoch >= TWIN_EPOCHS {
                return;
            }
            tr.span("epoch.twin", op, |tr| {
                let t = twin.get_or_insert_with(|| {
                    let instance = tr.span("te.tunnels.build_instance", op, |_| {
                        build_instance(&ctl.wan, &tm, &ctl.offline().scenarios, &ctl.config.tunnels)
                    });
                    let arrow = Arrow {
                        tickets: ctl.offline().tickets.clone(),
                        alpha: ctl.config.alpha,
                        solver: ctl.config.solver.clone(),
                    };
                    let online =
                        tr.span("te.arrow.online_new", op, |_| ArrowOnline::new(arrow, &instance));
                    Twin { instance, online }
                });
                let instance =
                    tr.span("te.tunnels.with_demands", op, |_| t.instance.with_demands(&tm));
                let t0 = Instant::now();
                let twin_out = tr.span("te.arrow.solve", op, |_| t.online.solve(&instance));
                nonlp.push(
                    t0.elapsed().as_secs_f64() - twin_out.phase1_seconds - twin_out.phase2_seconds,
                );
                checks.check(twin_out.winning == out.winning, || {
                    format!("shadow epoch {epoch}: twin ArrowOnline picked different winners")
                });
            });
        });
    }

    report_pdhg(&lp_stats, ledger);
    ledger.set("te.arrow.phase1_solve_s", mean(&p1_s));
    ledger.set("te.arrow.phase2_solve_s", mean(&p2_s));
    ledger.set("te.arrow.phase1_iterations", mean(&p1_it));
    ledger.set("te.arrow.phase2_iterations", mean(&p2_it));
    ledger.set("te.arrow.admitted_fraction", mean(&admitted));
    ledger.set("te.arrow.nonlp_s", mean(&nonlp));
    ledger.set("te.arrow.solve_s", mean(&tr.seconds_of("te.arrow.solve")));
    ledger.set("te.arrow.online_new_s", mean(&tr.seconds_of("te.arrow.online_new")));
    ledger.set("te.tunnels.build_instance_s", mean(&tr.seconds_of("te.tunnels.build_instance")));
    ledger.set("te.tunnels.with_demands_us", mean(&tr.seconds_of("te.tunnels.with_demands")) * 1e6);

    // "The layers add up": the twin's pieces must account for what
    // plan_epoch took; the rest is the controller's own work (validation,
    // splitting ratios, compile_rules).
    let twinned = scales.len().min(TWIN_EPOCHS);
    let plan_s: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "core.controller.plan_epoch" && (s.op as usize) < twinned)
        .map(|s| s.seconds())
        .sum();
    let twin_s: f64 = tr.seconds_of("epoch.twin").iter().sum();
    let n = twinned.max(1) as f64;
    ledger.set("core.controller.plan_epoch_s", plan_s / n);
    ledger.set("core.controller.self_s", (plan_s - twin_s) / n);
    let cover = twin_s / plan_s.max(1e-12);
    ledger.set("core.controller.layers_cover_ratio", cover);
    for (what, ratio) in [
        ("twin layers / plan_epoch", cover),
        ("epoch children", tr.cover_ratio("epoch")),
        ("epoch.twin children", tr.cover_ratio("epoch.twin")),
    ] {
        checks.check(ratio >= 0.9, || format!("{what} cover only {ratio:.3}"));
    }
    digest
}

// ---------------------------------------------------------------- serve

pub struct Serve {
    wan: Wan,
    /// The order this run plays [`SESSION_FEEDS`] in.
    order: Vec<usize>,
    /// Ticks of the session `layers` decomposes (two simulated hours).
    ledger_ticks: u64,
    /// Warm epochs each replay of the subscriber probe plans.
    probe_epochs: usize,
    incident_dir: PathBuf,
    /// Winning digest of the warm-up session.
    warm_up_digest: u64,
}

impl Serve {
    pub fn build(seed: u64, smoke: bool, out_dir: &std::path::Path) -> Self {
        let mut w = Serve {
            wan: b4(17),
            order: seeded_order(SESSION_FEEDS.len(), seed),
            ledger_ticks: if smoke { 3 } else { 24 },
            probe_epochs: if smoke { 1 } else { 8 },
            incident_dir: out_dir.join("incidents"),
            warm_up_digest: 0,
        };
        // Warm-up: a two-tick session pays process-wide lazy set-up (the
        // metrics registry, the exporter thread, allocator growth).
        w.warm_up_digest = w.session(FIXED_FEED, 2).expect("warm-up serve session").winning_digest;
        if smoke {
            w.order.truncate(1);
        }
        w
    }

    fn session(&self, feed_seed: u64, ticks: u64) -> Result<ServeReport, ServeError> {
        serve(
            self.wan.clone(),
            &ServeConfig {
                seed: feed_seed,
                epochs: ticks,
                epoch_interval_s: 300.0,
                budget_seconds: BUDGET_SECONDS,
                scenarios: SCENARIOS,
                tickets: TICKETS,
                tunnels_per_flow: TUNNELS_PER_FLOW,
                backend: Backend::Pdhg,
                demand_scale: DEMAND_SCALE,
                demand_jitter: DEMAND_JITTER,
                mean_cut_interval_s: MEAN_CUT_INTERVAL_S,
                repair_after_s: REPAIR_AFTER_S,
                addr: "127.0.0.1:0".to_string(),
                incident_dir: self.incident_dir.clone(),
                recorder_capacity: 16384,
                scrape_every: 10,
                chaos: None,
            },
        )
    }
}

impl Workload for Serve {
    /// Not a time box: a session cannot be cut short, so the run plays the
    /// whole pool once, each session sized from `seconds`.
    fn run(&mut self, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Timed {
        let session_ticks = ((SESSION_TICKS_PER_SECOND * seconds).round() as u64).max(2);
        let (mut ticks, mut wall) = (0u64, 0.0f64);
        let cpu0 = cpu_seconds();
        for (nth, &slot) in self.order.iter().enumerate() {
            let t0 = Instant::now();
            let report = tr.span("daemon.serve", nth as u64, |_| {
                self.session(SESSION_FEEDS[slot], session_ticks)
            });
            wall += t0.elapsed().as_secs_f64();
            match report {
                Ok(report) => {
                    ticks += report.ticks;
                    check_session(&report, checks);
                }
                Err(e) => checks.check(false, || format!("serve session failed: {e}")),
            }
        }
        Timed { ops: ticks, ops_per_s: ticks as f64 / wall.max(1e-12), cpu_s: cpu_seconds() - cpu0 }
    }

    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks) {
        let report = match self.session(FIXED_FEED, self.ledger_ticks) {
            Ok(report) => report,
            Err(e) => return checks.check(false, || format!("ledger serve session failed: {e}")),
        };
        check_session(&report, checks);
        let n = report.epoch_seconds.len();
        let busy: f64 = report.epoch_seconds.iter().sum();
        ledger.set("daemon.epochs", n as f64);
        ledger.set("daemon.epoch_p50_s", median(&report.epoch_seconds));
        if let Some(p) = supported_percentile(n) {
            ledger.set("daemon.epoch_tail_percentile", p as f64);
            ledger.set("daemon.epoch_tail_s", percentile(&report.epoch_seconds, p as f64 / 100.0));
        }
        ledger.set("daemon.loop_overhead_s", report.wall_seconds - busy);
        ledger.set("daemon.overhead_ratio", (report.wall_seconds - busy) / report.wall_seconds);
        ledger.set("daemon.warm_hit_ratio", report.warm_hit_ratio);
        ledger.set("daemon.fallbacks", report.fallbacks as f64);
        ledger.set("daemon.incidents", report.incidents.len() as f64);
        ledger.set("daemon.cut_replans", report.cut_replans as f64);
        ledger.set("daemon.scrapes_ok", report.scrapes_ok as f64);

        // Shadow loop: the session's own calendar, re-planned in the open.
        let mut calendar = feed(FIXED_FEED, self.ledger_ticks, self.wan.optical.num_fibers());
        let t0 = Instant::now();
        let mut events = 0u32;
        let mut scales = Vec::new();
        let mut last_scale = 1.0;
        while let Some((_, event)) = calendar.next_event() {
            events += 1;
            if let FeedEvent::EpochTick { demand_scale, .. } = event {
                last_scale = demand_scale;
            }
            scales.push(last_scale);
        }
        ledger.set("sim.feed.next_event_ns", t0.elapsed().as_nanos() as f64 / events.max(1) as f64);

        slo::configure(SloConfig { budget_seconds: BUDGET_SECONDS, ..Default::default() });
        let t0 = Instant::now();
        let (mut ctl, base_tm) = controller(self.wan.clone(), pdhg());
        ledger.set("core.controller.offline_new_s", t0.elapsed().as_secs_f64());
        let shadow = shadow_epochs(&mut ctl, &base_tm, &scales, false, tr, ledger, checks);
        checks.check(shadow == report.winning_digest, || {
            format!(
                "shadow loop winning digest {shadow:016x} differs from serve's {:016x}",
                report.winning_digest
            )
        });

        scrape_probe(ledger, checks);
        subscriber_probe(&ctl, &base_tm, &scales[..scales.len().min(self.probe_epochs)], ledger);
    }

    fn pin(&self) -> u64 {
        self.warm_up_digest
    }
}

/// Every planned epoch is an operation; an error, a fallback or a late
/// plan (each writes an incident) is a failed one. The session as a whole
/// must also end ready, with every due self-scrape answered.
fn check_session(report: &ServeReport, checks: &mut Checks) {
    let bad = report.plan_errors.max(report.incidents.len() as u64);
    checks.attempted += report.epochs_planned;
    checks.failed += bad;
    let scrapes_due = report.epochs_planned / 10;
    checks.check(
        bad == 0 && report.readyz_after == 200 && report.scrapes_ok == scrapes_due,
        || {
            format!(
            "serve session: {} plan errors, {} fallbacks, {} incidents, readyz {}, scrapes {}/{}",
            report.plan_errors,
            report.fallbacks,
            report.incidents.len(),
            report.readyz_after,
            report.scrapes_ok,
            scrapes_due
        )
        },
    );
}

/// Cost of one loopback `GET /metrics` against the live exporter.
fn scrape_probe(ledger: &mut Ledger, checks: &mut Checks) {
    let Ok(mut exporter) = export::spawn("127.0.0.1:0") else {
        checks.check(false, || "exporter could not bind a loopback port".to_string());
        return;
    };
    let addr = exporter.local_addr();
    let mut micros = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        let ok = export::http_get(addr, "/metrics").is_ok_and(|r| r.contains("epoch_seconds"));
        micros.push(t0.elapsed().as_secs_f64() * 1e6);
        checks.check(ok, || "loopback scrape of /metrics failed".to_string());
    }
    exporter.shutdown();
    ledger.set("obs.export.scrape_us", median(&micros));
}

/// What an installed `RingSubscriber` costs: the same warm epochs on
/// clones of one controller, with the subscriber and without. The first
/// replay only warms the caches the other two share.
fn subscriber_probe(
    ctl: &ArrowController,
    base_tm: &TrafficMatrix,
    scales: &[f64],
    ledger: &mut Ledger,
) {
    let replay = |ctl: &mut ArrowController| {
        let t0 = Instant::now();
        for &scale in scales {
            let _ = std::hint::black_box(ctl.plan_epoch(&base_tm.scaled(scale), None));
        }
        t0.elapsed().as_secs_f64()
    };
    replay(&mut ctl.clone());
    let plain = replay(&mut ctl.clone());
    arrow_wan::obs::trace::install(Arc::new(RingSubscriber::new(16384)));
    let traced = replay(&mut ctl.clone());
    arrow_wan::obs::trace::uninstall();
    ledger.set("obs.trace.overhead_ratio", traced / plain.max(1e-12) - 1.0);
}

// ----------------------------------------------------------------- cold

/// One cold tick kept for the exact-solver check.
struct ColdSample {
    scale: f64,
    winning: Vec<usize>,
    admitted_gbps: f64,
}

pub struct ColdEpochs {
    ctl: ArrowController,
    base_tm: TrafficMatrix,
    /// Demand multipliers of the pool's ticks, in this run's order.
    pool: Vec<f64>,
    next: usize,
    offline_new_seconds: f64,
    samples: Vec<ColdSample>,
    /// Leading ticks of the pool the traced shadow replays.
    shadow_ticks: usize,
    /// Digest over the sampled ticks' winners.
    winning_digest: u64,
}

impl ColdEpochs {
    pub fn build(seed: u64, smoke: bool) -> Self {
        slo::configure(SloConfig { budget_seconds: BUDGET_SECONDS, ..Default::default() });
        let t0 = Instant::now();
        let (mut ctl, base_tm) = controller(b4(17), pdhg());
        let offline_new_seconds = t0.elapsed().as_secs_f64();
        // Warm-up: one cold epoch at the base demand.
        ctl.plan_epoch(&base_tm, None).expect("warm-up epoch plans");
        // The first ticks of one jittered calendar, cuts off.
        let mut calendar = feed(FIXED_FEED, COLD_POOL as u64, 0);
        let mut ticks = Vec::new();
        while let Some((_, FeedEvent::EpochTick { demand_scale, .. })) = calendar.next_event() {
            ticks.push(demand_scale);
        }
        ColdEpochs {
            ctl,
            base_tm,
            pool: seeded_order(ticks.len(), seed).into_iter().map(|i| ticks[i]).collect(),
            next: 0,
            offline_new_seconds,
            samples: Vec::new(),
            shadow_ticks: if smoke { 1 } else { 4 },
            winning_digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Workload for ColdEpochs {
    fn run(&mut self, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Timed {
        let (mut ops, mut wall) = (0u64, 0.0f64);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let demand_scale = self.pool[self.next];
            self.next = (self.next + 1) % self.pool.len();
            let tm = self.base_tm.scaled(demand_scale);
            let t0 = Instant::now();
            let planned = tr.span("run.cold_epoch", ops, |_| {
                self.ctl.reset_online_cache();
                self.ctl.plan_epoch(&tm, None)
            });
            wall += t0.elapsed().as_secs_f64();
            ops += 1;
            match planned {
                Ok((plan, report)) => {
                    checks.check(report.verdict.met, || {
                        format!(
                            "cold epoch took {:.3}s, over the {BUDGET_SECONDS}s budget",
                            report.seconds
                        )
                    });
                    if self.samples.len() < EXACT_SAMPLES {
                        for &w in &plan.outcome.winning {
                            self.winning_digest =
                                fnv1a(self.winning_digest, &(w as u64).to_le_bytes());
                        }
                        self.samples.push(ColdSample {
                            scale: demand_scale,
                            winning: plan.outcome.winning.clone(),
                            admitted_gbps: plan.outcome.output.alloc.total_admitted(),
                        });
                    }
                }
                Err(e) => checks.check(false, || format!("cold epoch failed: {e}")),
            }
        }
        Timed { ops, ops_per_s: ops as f64 / wall.max(1e-12), cpu_s: cpu_seconds() - cpu0 }
    }

    /// A second controller on exact simplex must pick the same winners and
    /// admit the same traffic (1e-4 relative) on the sampled ticks.
    fn verify(&mut self, checks: &mut Checks) {
        let (mut exact, _) = controller(self.ctl.wan.clone(), SolverConfig::exact());
        for s in self.samples.drain(..) {
            exact.reset_online_cache();
            match exact.plan_epoch(&self.base_tm.scaled(s.scale), None) {
                Ok((plan, _)) => {
                    let admitted = plan.outcome.output.alloc.total_admitted();
                    let rel = (admitted - s.admitted_gbps).abs() / admitted.abs().max(1e-12);
                    checks.check(plan.outcome.winning == s.winning && rel <= 1e-4, || {
                        format!(
                            "tick x{:.4}: PDHG winners {:?} admitted {:.6} vs exact {:?} {:.6}",
                            s.scale, s.winning, s.admitted_gbps, plan.outcome.winning, admitted
                        )
                    });
                }
                Err(e) => checks.check(false, || format!("exact reference failed: {e}")),
            }
        }
    }

    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks) {
        ledger.set("core.controller.offline_new_s", self.offline_new_seconds);
        let scales = &self.pool[..self.shadow_ticks];
        shadow_epochs(&mut self.ctl, &self.base_tm, scales, true, tr, ledger, checks);
    }

    fn pin(&self) -> u64 {
        self.winning_digest
    }
}
