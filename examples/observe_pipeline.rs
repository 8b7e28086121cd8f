//! Full-pipeline run report through the `arrow-obs` layer.
//!
//! Runs the complete ARROW pipeline on B4 — offline LotteryTicket
//! generation, then a nine-interval diurnal replay through the warm online
//! path — with a `FileSubscriber` installed, and writes:
//!
//! * `trace.jsonl` — every span and event, one JSON record per line
//!   (span ends re-carry their fields plus a `duration_nanos`), and
//! * `metrics.json` — the full metrics-registry snapshot.
//!
//! * `trace.folded` — flamegraph-compatible collapsed stacks, and
//! * `stage_report.json` — the analyzer's per-stage attribution report.
//!
//! While the replay runs, a telemetry exporter serves `/metrics`,
//! `/snapshot.json`, and `/healthz` on an ephemeral localhost port; the
//! example scrapes itself (a curl-equivalent GET over a real socket) and
//! asserts the Prometheus text carries the `epoch_seconds` histogram and
//! the SLO counters the epoch loop feeds.
//!
//! It then prints a per-stage wall-clock breakdown table assembled from
//! the trace and asserts the span tree the CI smoke check relies on:
//! exactly one `offline` span, nine `epoch` spans, and phase-1 / winner
//! selection / phase-2 spans with non-zero durations — plus the analyzer
//! contract: every epoch's critical path descends into `lp.solve`, and
//! ≥50% of epoch wall time is attributed to named child spans.
//!
//! Run: `cargo run --release --example observe_pipeline`

use arrow_wan::obs::analyze::SpanTree;
use arrow_wan::obs::slo::SloConfig;
use arrow_wan::obs::{FanoutSubscriber, FieldValue, FileSubscriber, RecordKind, RingSubscriber};
use arrow_wan::prelude::*;
use std::sync::Arc;

/// The same diurnal curve the online sweep replays (§5).
const DIURNAL: [f64; 9] = [0.60, 0.75, 0.95, 1.10, 1.15, 1.05, 0.90, 0.72, 0.62];

fn main() {
    // Trace to disk for the artifact and to a ring for the in-process
    // breakdown + assertions.
    let file = Arc::new(FileSubscriber::create("trace.jsonl").expect("create trace.jsonl"));
    let ring = Arc::new(RingSubscriber::new(65536));
    arrow_wan::obs::trace::install(Arc::new(FanoutSubscriber::new(vec![
        file.clone(),
        ring.clone(),
    ])));

    // Epoch-deadline SLO: ARROW's five-minute TE epoch (§5) is the default
    // budget; configuring explicitly also resets the rolling window so the
    // counters asserted below start from a known state.
    arrow_wan::obs::slo::configure(SloConfig::default());

    // Serve live telemetry for the whole run: /metrics, /snapshot.json,
    // /healthz on an ephemeral localhost port.
    let mut exporter =
        arrow_wan::obs::export::spawn("127.0.0.1:0").expect("bind telemetry exporter");
    println!("telemetry: http://{}/metrics", exporter.local_addr());

    // Offline stage: parallel ticket generation (emits the `offline` span
    // with one `offline.scenario` span per worker item).
    let wan = b4(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let scens = failures.failure_scenarios().to_vec();
    let cfg = ControllerConfig {
        lottery: LotteryConfig { num_tickets: 40, ..Default::default() },
        tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
        ..Default::default()
    };
    println!("== observe_pipeline: {} ==", wan.summary());
    let mut ctl = ArrowController::new(wan, scens, cfg);
    println!("offline: {}", ctl.offline().stats.summary());

    // Online stage: diurnal replay over the warm path (one `epoch` span
    // per interval, each wrapping te.phase1 / te.select / te.phase2).
    let tm = gravity_matrices(&ctl.wan, &TrafficConfig { num_matrices: 1, ..Default::default() })
        [0]
    .scaled(3.0);
    let slo_met_before = arrow_wan::obs::metrics::snapshot().counter("slo.epoch.met");
    for (i, &scale) in DIURNAL.iter().enumerate() {
        let (plan, _) =
            ctl.plan_epoch(&tm.scaled(scale), None).expect("valid offline state plans cleanly");
        println!(
            "epoch {i}: scale {scale:.2} -> admitted {:.1} Gbps, winners {:?}",
            plan.outcome.output.alloc.total_admitted(),
            plan.outcome.winning
        );
    }

    arrow_wan::obs::trace::uninstall();
    file.flush().expect("flush trace.jsonl");
    let metrics = arrow_wan::obs::metrics::snapshot();
    std::fs::write("metrics.json", metrics.to_json()).expect("write metrics.json");
    println!("\nwrote trace.jsonl + metrics.json");

    // Scrape ourselves over a real socket — the curl-equivalent GET the
    // acceptance criteria name — and assert the exposition carries the
    // epoch histogram and the SLO series the epoch loop just fed.
    let addr = exporter.local_addr();
    let health = arrow_wan::obs::export::http_get(addr, "/healthz").expect("GET /healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "healthz: {health}");
    let scrape = arrow_wan::obs::export::http_get(addr, "/metrics").expect("GET /metrics");
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
    exporter.shutdown();
    let slo_met = metrics.counter("slo.epoch.met") - slo_met_before;
    let slo_missed = metrics.counter("slo.epoch.missed");
    println!(
        "scraped /metrics: {} bytes; SLO verdicts this run: {slo_met} met, {slo_missed} missed",
        body.len()
    );
    assert_eq!(slo_met as usize, DIURNAL.len(), "every diurnal epoch beats the five-minute budget");

    // Analyzer: rebuild the span forest from the trace *file* (the same
    // path an offline investigation takes), attribute time, and write the
    // flamegraph + stage report artifacts.
    let trace_text = std::fs::read_to_string("trace.jsonl").expect("read trace.jsonl back");
    let tree = SpanTree::from_jsonl(&trace_text).expect("trace.jsonl parses");
    std::fs::write("trace.folded", tree.collapsed_stacks()).expect("write trace.folded");
    std::fs::write("stage_report.json", tree.stage_report_json()).expect("write stage_report.json");
    println!("wrote trace.folded + stage_report.json");

    let epoch_indices = tree.spans_named("epoch");
    assert_eq!(epoch_indices.len(), DIURNAL.len(), "one epoch tree per interval");
    let mut covered_nanos = 0u64;
    let mut epoch_nanos = 0u64;
    for &e in &epoch_indices {
        let path = tree.critical_path(e);
        let names: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
        assert!(
            names.contains(&"lp.solve"),
            "epoch critical path must descend into the LP solve, got {names:?}"
        );
        epoch_nanos += tree.nodes[e].duration_nanos;
        covered_nanos += tree.nodes[e].duration_nanos - tree.self_nanos(e);
    }
    let coverage = covered_nanos as f64 / epoch_nanos.max(1) as f64;
    // The slowest epoch's critical path, hop by hop.
    let slowest = epoch_indices
        .iter()
        .copied()
        .max_by_key(|&e| tree.nodes[e].duration_nanos)
        .expect("nine epochs");
    println!(
        "\ncritical path of slowest epoch ({:.1} ms):",
        tree.nodes[slowest].duration_seconds() * 1e3
    );
    for hop in tree.critical_path(slowest) {
        println!("  {:<12} {:>9.3} ms", hop.name, hop.duration_nanos as f64 / 1e6);
    }
    println!("epoch child-span coverage: {:.1}%", 100.0 * coverage);
    assert!(
        coverage >= 0.5,
        "expected >=50% of epoch wall attributed to named child spans, got {:.1}%",
        100.0 * coverage
    );

    // Per-stage wall-clock breakdown from the trace.
    let records = ring.records();
    println!("\nstage          | spans | total s  | mean ms");
    for stage in
        ["offline", "offline.scenario", "epoch", "te.phase1", "te.select", "te.phase2", "lp.solve"]
    {
        let durations: Vec<f64> = records
            .iter()
            .filter(|r| r.kind == RecordKind::SpanEnd && r.name == stage)
            .filter_map(|r| r.duration_seconds())
            .collect();
        let total: f64 = durations.iter().sum();
        let mean_ms = if durations.is_empty() { 0.0 } else { 1e3 * total / durations.len() as f64 };
        println!("{stage:<14} | {:>5} | {total:>8.3} | {mean_ms:>7.3}", durations.len());
    }

    // Span-tree assertions (the CI smoke check greps trace.jsonl for the
    // same structure).
    let finished = |name: &str| -> Vec<_> {
        records
            .iter()
            .filter(|r| r.kind == RecordKind::SpanEnd && r.name == name)
            .collect::<Vec<_>>()
    };
    assert_eq!(finished("offline").len(), 1, "exactly one offline span");
    let epochs = finished("epoch");
    assert_eq!(epochs.len(), DIURNAL.len(), "one epoch span per diurnal interval");
    // The first epoch builds tunnels and the Phase I skeleton; every later
    // one re-uses them.
    let modes: Vec<_> =
        epochs.iter().map(|e| e.field("mode").and_then(FieldValue::as_str)).collect();
    assert_eq!(modes[0], Some("cold"), "the first epoch starts from an empty cache");
    assert!(modes[1..].iter().all(|&m| m == Some("warm")), "later epochs run warm: {modes:?}");
    for phase in ["te.phase1", "te.select", "te.phase2"] {
        let spans = finished(phase);
        assert_eq!(spans.len(), DIURNAL.len(), "one {phase} span per epoch");
        assert!(
            spans.iter().all(|s| s.duration_nanos.unwrap_or(0) > 0),
            "{phase} spans have non-zero durations"
        );
    }
    // Parentage: every te.* span sits inside an epoch span.
    let epoch_ids: Vec<u64> = records
        .iter()
        .filter(|r| r.kind == RecordKind::SpanStart && r.name == "epoch")
        .map(|r| r.span_id)
        .collect();
    assert!(
        records
            .iter()
            .filter(|r| r.kind == RecordKind::SpanStart && r.name.starts_with("te."))
            .all(|r| r.parent_id.is_some_and(|p| epoch_ids.contains(&p))),
        "te.* spans are children of epoch spans"
    );
    println!(
        "\nOK: span tree covers offline, {} epochs, and all three online phases",
        epochs.len()
    );
}
