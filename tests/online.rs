//! The online stage over a diurnal B4 day (§5): ARROW re-plans every TE
//! epoch, so a warm epoch must plan exactly what a cold one plans, and the
//! telemetry plane must see, time and attribute every epoch.
//!
//! Both tests install the process-global tracer and read global metrics,
//! so they serialize on one mutex.

use arrow_wan::obs::{export, metrics, slo, trace};
use arrow_wan::obs::{FieldValue, RingSubscriber, SloConfig, SpanTree};
use arrow_wan::prelude::*;
use std::sync::{Arc, Mutex};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Diurnal scale factors: a day sampled every ~2.7 hours, tracing the
/// trough–peak–trough curve around the base gravity matrix.
const DIURNAL: [f64; 9] = [0.60, 0.75, 0.95, 1.10, 1.15, 1.05, 0.90, 0.72, 0.62];

/// B4 with its four most probable cuts, 40 tickets a scenario and 4
/// tunnels a flow, plus the base matrix at 3×. The offline stage runs
/// here, inside whatever tracer the caller installed.
fn diurnal_controller() -> (ArrowController, TrafficMatrix) {
    let wan = b4(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let tm = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() })[0]
        .scaled(3.0);
    let cfg = ControllerConfig {
        lottery: LotteryConfig { num_tickets: 40, ..Default::default() },
        tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
        ..Default::default()
    };
    (ArrowController::new(wan, failures.failure_scenarios(), cfg), tm)
}

struct Interval {
    objective: f64,
    winning: Vec<usize>,
    phase1: SolveStats,
}

/// Plans the diurnal day once. The cold sweep empties the online cache
/// before every interval, the warm one only before its first.
fn sweep(ctl: &mut ArrowController, tm: &TrafficMatrix, warm: bool) -> Vec<Interval> {
    let ring = Arc::new(RingSubscriber::new(4096));
    trace::install(ring.clone());
    let mut out = Vec::new();
    for (i, &scale) in DIURNAL.iter().enumerate() {
        if !warm || i == 0 {
            ctl.reset_online_cache();
        }
        let (plan, _) = ctl.plan_epoch(&tm.scaled(scale), None).expect("valid offline state plans");
        out.push(Interval {
            objective: plan.outcome.output.alloc.total_admitted(),
            winning: plan.outcome.winning.clone(),
            phase1: plan.outcome.phase1_stats,
        });
    }
    trace::uninstall();
    let epochs = ring.finished_spans("epoch");
    assert_eq!(epochs.len(), DIURNAL.len(), "one epoch span per diurnal interval");
    for (i, span) in epochs.iter().enumerate() {
        assert_eq!(
            span.field("mode").and_then(FieldValue::as_str),
            Some(if warm && i > 0 { "warm" } else { "cold" }),
            "epoch {i}'s span mode matches the sweep variant"
        );
    }
    out
}

#[test]
fn warm_epochs_plan_what_cold_epochs_plan_with_less_phase1_work() {
    let _guard = TRACE_LOCK.lock().expect("trace lock");
    let (mut ctl, tm) = diurnal_controller();
    let cold = sweep(&mut ctl, &tm, false);
    let warm = sweep(&mut ctl, &tm, true);

    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(c.winning, w.winning, "interval {i}: warm winning tickets diverged from cold");
        let rel = (c.objective - w.objective).abs() / (1.0 + c.objective.abs());
        assert!(rel <= 1e-6, "interval {i}: warm Phase II objective off by {rel:.2e} relative");
    }

    // Work, not wall clock: after the first interval Phase I resumes from
    // the previous optimum and needs at most half the cold iterations
    // (measured at 02406d7: warm 68 096 vs cold 192 640). PDHG iteration
    // counts are pinned bit for bit, so this cannot flake. Phase II's
    // warm event is not asserted: its misses are ROADMAP item 7(b)'s open
    // deficiency. Item 2 re-judges this check when it changes the online
    // backend.
    for (i, w) in warm.iter().enumerate().skip(1) {
        assert_eq!(w.phase1.warm, WarmEvent::Hit, "interval {i}: Phase I did not resume warm");
    }
    let iterations =
        |sweep: &[Interval]| sweep.iter().map(|iv| iv.phase1.iterations).sum::<usize>();
    let (cold_iters, warm_iters) = (iterations(&cold), iterations(&warm));
    assert!(
        2 * warm_iters <= cold_iters,
        "warm Phase I took {warm_iters} iterations, over half of cold's {cold_iters}"
    );
}

#[test]
fn observed_diurnal_replay_is_scraped_traced_and_attributed() {
    let _guard = TRACE_LOCK.lock().expect("trace lock");
    // Sized to hold the whole run (≈ 70 records): a ring that evicted
    // would lose the offline span, and the exact counts below would fail.
    let ring = Arc::new(RingSubscriber::new(4096));
    trace::install(ring.clone());
    // The five-minute TE epoch (§5) is the default budget; configuring
    // also resets the rolling window.
    slo::configure(SloConfig::default());
    let mut exporter = export::spawn("127.0.0.1:0").expect("bind telemetry exporter");

    let (mut ctl, tm) = diurnal_controller();
    let slo_met_before = metrics::snapshot().counter("slo.epoch.met");
    let mut reported = Vec::new();
    for &scale in &DIURNAL {
        let (_, report) = ctl.plan_epoch(&tm.scaled(scale), None).expect("valid offline state");
        reported.push(report.seconds);
    }
    trace::uninstall();
    let dir = std::env::temp_dir().join(format!("arrow-online-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace_path = dir.join("trace.jsonl");
    std::fs::write(&trace_path, trace::to_jsonl(&ring.records())).expect("write trace.jsonl");

    // Scrape over a real socket, the curl-equivalent GET: the exposition
    // carries the epoch histogram and the SLO series the epochs just fed.
    let addr = exporter.local_addr();
    let health = export::http_get(addr, "/healthz").expect("GET /healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "healthz: {health}");
    let scrape = export::http_get(addr, "/metrics").expect("GET /metrics");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "metrics: {scrape}");
    assert!(scrape.contains("text/plain; version=0.0.4"), "prometheus content type");
    let body = scrape.split("\r\n\r\n").nth(1).unwrap_or("");
    for needle in [
        "# HELP epoch_seconds ",
        "# TYPE epoch_seconds histogram",
        "epoch_seconds_bucket{le=\"+Inf\"}",
        "epoch_seconds_count",
        "# TYPE slo_epoch_met counter",
        "# TYPE slo_epoch_missed counter",
        "slo_error_budget_burn_rate",
        "slo_epoch_p99_seconds",
    ] {
        assert!(body.contains(needle), "/metrics body is missing {needle:?}");
    }
    // Every family is documented where it is declared: a `# HELP` line
    // whose text is more than the family's own name or a generic
    // `arrow-obs <kind> <name>` placeholder.
    let families: Vec<&str> =
        body.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect();
    assert!(families.len() >= 20, "only {} families exported", families.len());
    for family in families {
        let help = body.lines().find_map(|l| l.strip_prefix(&format!("# HELP {family} ")));
        let help = help.unwrap_or_else(|| panic!("{family} has no # HELP line"));
        let generic = help.trim().is_empty() || help == family || help.starts_with("arrow-obs ");
        assert!(!generic, "{family} has no help text: {help:?}");
    }
    exporter.shutdown();
    let slo_met = metrics::snapshot().counter("slo.epoch.met") - slo_met_before;
    assert_eq!(slo_met as usize, DIURNAL.len(), "every diurnal epoch beats the five-minute budget");

    // The written file, read back the way an offline investigation reads
    // it: a span is one line, one offline stage, one epoch per interval.
    let text = std::fs::read_to_string(&trace_path).expect("read trace.jsonl back");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!text.contains("\"kind\":\"span_start\""), "a span is one record");
    for (name, spans) in [("offline", 1), ("epoch", DIURNAL.len())] {
        let needle = format!("\"kind\":\"span_end\",\"name\":\"{name}\",");
        let ends = text.lines().filter(|line| line.contains(&needle)).count();
        assert_eq!(ends, spans, "{name} span_end records in trace.jsonl");
    }

    // Analyzer contract: every epoch's critical path descends into the LP
    // solve, and named child spans cover at least half of epoch wall time.
    let tree = SpanTree::from_jsonl(&text).expect("trace.jsonl parses");
    let epochs = tree.spans_named("epoch");

    // One clock: each report's seconds are read off its own epoch span,
    // inside it, so they never exceed the span and trail it by < 1 ms.
    for (&e, &seconds) in epochs.iter().zip(&reported) {
        let span = tree.nodes[e].duration_nanos as f64 / 1e9;
        assert!(seconds <= span && span - seconds < 1e-3, "report {seconds} s, span {span} s");
    }
    let (mut covered_nanos, mut epoch_nanos) = (0, 0);
    for &e in &epochs {
        let path: Vec<_> = tree.critical_path(e).into_iter().map(|hop| hop.name).collect();
        assert!(path.iter().any(|n| n == "lp.solve"), "critical path misses lp.solve: {path:?}");
        epoch_nanos += tree.nodes[e].duration_nanos;
        covered_nanos += tree.nodes[e].duration_nanos - tree.self_nanos(e);
    }
    let coverage = covered_nanos as f64 / epoch_nanos.max(1) as f64;
    assert!(coverage >= 0.5, "child spans cover {:.1}% of epoch wall", 100.0 * coverage);

    // Every online phase ran once per epoch, inside an epoch, and took time.
    let epoch_ids: Vec<u64> = epochs.iter().map(|&e| tree.nodes[e].span_id).collect();
    for phase in ["te.phase1", "te.select", "te.phase2"] {
        let spans = tree.spans_named(phase);
        assert_eq!(spans.len(), DIURNAL.len(), "one {phase} span per epoch");
        for s in spans.into_iter().map(|s| &tree.nodes[s]) {
            assert!(s.duration_nanos > 0, "{phase} span has a zero duration");
            let parent = s.parent_id.expect("te.* spans are nested");
            assert!(epoch_ids.contains(&parent), "{phase} span is not a child of an epoch");
        }
    }
}
