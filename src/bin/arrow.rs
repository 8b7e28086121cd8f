//! `arrow` — command-line front end for the ARROW reproduction.
//!
//! Subcommands (run `arrow help` for usage):
//!
//! * `topology <b4|ibm|facebook>` — build a Table-4 WAN and print its
//!   cross-layer statistics.
//! * `restore <topo> --fiber <id>` — simulate a fiber cut and print the
//!   RWA restoration outcome per failed IP link.
//! * `plan <topo>` — run the full ARROW controller (offline LotteryTickets
//!   + online two-phase TE) and print the plan.
//! * `availability <topo> --scheme <name> --scale <x>` — evaluate a TE
//!   scheme's availability at a demand scale.
//! * `latency` — replay the §5 testbed restoration trial with and without
//!   noise loading.
//! * `mps <topo> --out <file>` — export the MaxFlow TE LP as an MPS file
//!   for cross-checking with external solvers.
//! * `serve <topo>` — run the long-lived controller daemon: a seeded
//!   event feed drives re-planning epoch after epoch, `/metrics` and
//!   `/readyz` are served live, and deadline misses dump flight-recorder
//!   incidents. `--chaos true` injects correlated failure bursts.
//!
//! Argument parsing is deliberately plain `std` (no CLI dependency): flags
//! are `--key value` pairs after the positional arguments, and each
//! subcommand rejects a flag it does not know.

// Product policy (DESIGN.md § Static analysis): the CLI neither panics
// nor touches hash-ordered or wall-clock types; tests may.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::allow_attributes_without_reason
    )
)]

use arrow_wan::prelude::*;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: arrow <command> [args]\n\
     \n\
     commands:\n\
     \u{20}topology     <b4|ibm|facebook> [--seed N]\n\
     \u{20}restore      <b4|ibm|facebook> --fiber N [--seed N] [--modulation-change true]\n\
     \u{20}plan         <b4|ibm|facebook> [--tickets N] [--scenarios N] [--scale X] [--seed N]\n\
     \u{20}availability <b4|ibm|facebook> [--scheme arrow|naive|ffc1|ffc2|teavar|ecmp]\n\
     \u{20}             [--scale X] [--scenarios N] [--seed N]\n\
     \u{20}latency\n\
     \u{20}mps          <b4|ibm|facebook> --out FILE [--seed N]\n\
     \u{20}serve        <b4|ibm|facebook> [--epochs N] [--budget S] [--chaos true]\n\
     \u{20}             [--bursts N] [--stall S] [--addr HOST:PORT] [--incident-dir DIR]\n\
     \u{20}             [--tickets N] [--scenarios N] [--scale X] [--seed N]\n\
     \u{20}             [--feed-seed N] [--chaos-seed N]\n\
     \u{20}help"
}

/// Parses `--key value` flags after `skip` positional arguments. A key
/// outside `cmd`'s `known` flags is an error, so a typo never silently
/// runs the defaults.
fn parse_flags(
    args: &[String],
    skip: usize,
    cmd: &str,
    known: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter().skip(skip);
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("expected --flag, got {k}"));
        };
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key} for {cmd}\n{}", usage()));
        }
        let Some(v) = it.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        flags.insert(key.to_string(), v.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v}")),
    }
}

/// `--scale X`: a demand multiplier, so it must be finite and non-negative
/// (`f64::from_str` accepts `nan`, `inf` and `-1`, which would otherwise
/// reach `TrafficMatrix::scaled`'s assertion or negative LP bounds).
fn scale_flag(flags: &BTreeMap<String, String>, default: f64) -> Result<f64, String> {
    let scale: f64 = flag(flags, "scale", default)?;
    if scale.is_finite() && scale >= 0.0 {
        Ok(scale)
    } else {
        Err(format!("invalid value for --scale: {scale} (expected a finite number >= 0)"))
    }
}

fn build_wan(name: &str, seed: u64) -> Result<Wan, String> {
    match name {
        "b4" => Ok(b4(seed)),
        "ibm" => Ok(ibm(seed)),
        "facebook" => Ok(facebook_like(seed)),
        other => Err(format!("unknown topology {other} (expected b4|ibm|facebook)")),
    }
}

fn cmd_topology(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("topology name required")?;
    let flags = parse_flags(args, 1, "topology", &["seed"])?;
    let wan = build_wan(name, flag(&flags, "seed", 17u64)?)?;
    println!("{}", wan.summary());
    wan.validate()?;
    println!("total IP capacity: {:.1} Tbps", wan.total_capacity_gbps() / 1000.0);
    let utils: Vec<f64> = wan.optical.fibers().iter().map(|f| f.spectrum.utilization()).collect();
    let mean = utils.iter().sum::<f64>() / utils.len() as f64;
    let max = utils.iter().fold(0.0f64, |a, &b| a.max(b));
    println!(
        "fiber spectrum utilization: mean {:.0}%, max {:.0}%, {} slots/fiber",
        mean * 100.0,
        max * 100.0,
        wan.optical.num_slots()
    );
    let lpf = wan.ip_links_per_fiber();
    println!(
        "IP links per fiber: mean {:.1}, max {}",
        lpf.iter().sum::<usize>() as f64 / lpf.len() as f64,
        lpf.iter().max().unwrap_or(&0)
    );
    Ok(())
}

fn cmd_restore(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("topology name required")?;
    let flags = parse_flags(args, 1, "restore", &["fiber", "modulation-change", "seed"])?;
    let wan = build_wan(name, flag(&flags, "seed", 17u64)?)?;
    let fiber: usize = flag(&flags, "fiber", 0usize)?;
    if fiber >= wan.optical.num_fibers() {
        return Err(format!("fiber {fiber} out of range (< {})", wan.optical.num_fibers()));
    }
    let rwa = RwaConfig {
        allow_modulation_change: flag(&flags, "modulation-change", true)?,
        ..Default::default()
    };
    let cut = [FiberId(fiber)];
    let failed = wan.links_failed_by(&cut);
    println!("cutting fiber {fiber}: {} IP links fail", failed.len());
    let sol = solve_relaxed(&wan.optical, &cut, &rwa);
    let mut lost = 0.0;
    let mut restored = 0.0;
    for l in &sol.links {
        let lp = wan.optical.lightpath(l.lightpath);
        lost += lp.capacity_gbps();
        restored += l.restored_gbps();
        println!(
            "  lightpath {:>3}: lost {:>2} λ ({:>6.0} Gbps) -> restorable {:>5.2} λ ({:>6.0} Gbps) over {} path(s)",
            l.lightpath.0,
            l.lost_wavelengths,
            lp.capacity_gbps(),
            l.wavelengths,
            l.restored_gbps(),
            l.paths.len()
        );
    }
    println!(
        "restoration ratio U = {:.0}% ({:.0} of {:.0} Gbps)",
        if lost > 0.0 { restored / lost * 100.0 } else { 100.0 },
        restored,
        lost
    );
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("topology name required")?;
    let flags = parse_flags(args, 1, "plan", &["tickets", "scenarios", "scale", "seed"])?;
    let seed = flag(&flags, "seed", 17u64)?;
    let scale = scale_flag(&flags, 1.0)?;
    let wan = build_wan(name, seed)?;
    let failures = generate_failures(
        &wan,
        &FailureConfig { max_scenarios: flag(&flags, "scenarios", 6usize)?, ..Default::default() },
    );
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let mut controller = ArrowController::new(
        wan,
        failures.failure_scenarios(),
        ControllerConfig {
            lottery: LotteryConfig {
                num_tickets: flag(&flags, "tickets", 8usize)?,
                ..Default::default()
            },
            tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
            ..Default::default()
        },
    );
    let (plan, _) =
        controller.plan_epoch(&tms[0].scaled(scale), None).map_err(|e| e.to_string())?;
    let alloc = &plan.outcome.output.alloc;
    println!("offline: {}", controller.offline().stats.summary());
    println!(
        "admitted {:.0} Gbps ({:.1}% of demand) | phase I {:.2}s + phase II {:.2}s",
        alloc.total_admitted(),
        100.0 * alloc.throughput(&plan.instance),
        plan.outcome.phase1_seconds,
        plan.outcome.phase2_seconds
    );
    println!("winning tickets: {:?}", plan.outcome.winning);
    println!("{} ROADM reconfiguration rules pre-installed", plan.reconfig_rules.len());
    for rule in plan.reconfig_rules.iter().take(10) {
        let waves: usize = rule.routes.iter().map(|(_, s)| s.len()).sum();
        println!(
            "  scenario {:>2}: lightpath {:>3} -> {waves} λ over {} route(s)",
            rule.scenario,
            rule.lightpath.0,
            rule.routes.len()
        );
    }
    Ok(())
}

fn cmd_availability(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("topology name required")?;
    let flags = parse_flags(args, 1, "availability", &["scheme", "scale", "scenarios", "seed"])?;
    let seed = flag(&flags, "seed", 17u64)?;
    let scale = scale_flag(&flags, 1.0)?;
    let wan = build_wan(name, seed)?;
    let failures = generate_failures(
        &wan,
        &FailureConfig { max_scenarios: flag(&flags, "scenarios", 8usize)?, ..Default::default() },
    );
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let inst = build_instance(
        &wan,
        &tms[0],
        &failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
    )
    .scaled(scale);
    let scheme_name: String = flag(&flags, "scheme", "arrow".to_string())?;
    let out = match scheme_name.as_str() {
        "arrow" => {
            let (tickets, _) = generate_tickets(
                &wan,
                &inst.scenarios,
                &LotteryConfig { num_tickets: 8, ..Default::default() },
            );
            Arrow::new(tickets).solve(&inst)
        }
        "naive" => {
            let lottery = LotteryConfig::default();
            let naive: Vec<RestorationTicket> =
                inst.scenarios.iter().map(|s| naive_ticket(&wan, s, &lottery.rwa)).collect();
            ArrowNaive { tickets: naive, solver: Default::default() }.solve(&inst)
        }
        "ffc1" => Ffc::k1().solve(&inst),
        "ffc2" => Ffc::k2().solve(&inst),
        "teavar" => TeaVar::default().solve(&inst),
        "ecmp" => Ecmp.solve(&inst),
        other => return Err(format!("unknown scheme {other}")),
    };
    let cfg = PlaybackConfig::default();
    let avail = availability(&inst, &out, &cfg);
    let thr = play_scenario(&inst, &out.alloc, None, None, &cfg).satisfaction;
    println!(
        "{}: throughput {:.4}, availability {:.6} (over {} failure scenarios)",
        out.alloc.scheme,
        thr,
        avail,
        inst.scenarios.len()
    );
    Ok(())
}

fn cmd_latency(args: &[String]) -> Result<(), String> {
    parse_flags(args, 0, "latency", &[])?;
    let tb = build_testbed().map_err(|e| format!("Fig. 10 testbed: {e}"))?;
    for (label, noise) in [("ARROW (noise loading)", true), ("legacy", false)] {
        let r = restoration_trial(&tb, tb.fibers[3], noise, &RoadmParams::default());
        println!(
            "{label}: restored {:.0} of {:.0} Gbps in {:.1} s",
            r.restored_gbps, r.lost_gbps, r.total_latency_s
        );
    }
    Ok(())
}

fn cmd_mps(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("topology name required")?;
    let flags = parse_flags(args, 1, "mps", &["out", "seed"])?;
    let out_path = flags.get("out").ok_or("--out FILE required")?.clone();
    let wan = build_wan(name, flag(&flags, "seed", 17u64)?)?;
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let inst = build_instance(
        &wan,
        &tms[0],
        &failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
    );
    // The failure-oblivious TE LP (constraints (1)-(3)).
    let model = MaxFlow::model(&inst);
    let mps = arrow_wan::lp::mps::to_mps(&model, &format!("arrow_{name}_maxflow"));
    std::fs::write(&out_path, &mps).map_err(|e| format!("write {out_path}: {e}"))?;
    println!(
        "wrote MaxFlow TE LP ({} vars, {} rows) to {out_path}",
        model.num_vars(),
        model.num_cons()
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("topology name required")?;
    let known = [
        "epochs",
        "budget",
        "chaos",
        "bursts",
        "stall",
        "addr",
        "incident-dir",
        "tickets",
        "scenarios",
        "scale",
        "seed",
        "feed-seed",
        "chaos-seed",
    ];
    let flags = parse_flags(args, 1, "serve", &known)?;
    let seed = flag(&flags, "seed", 17u64)?;
    let wan = build_wan(name, seed)?;
    let chaos = if flag(&flags, "chaos", false)? {
        // `nan`, `-1`, `inf` and `1e30` all parse as f64; none is a time
        // a burst can stall for.
        let stall_seconds: f64 = flag(&flags, "stall", 3.0)?;
        if std::time::Duration::try_from_secs_f64(stall_seconds).is_err() {
            return Err(format!(
                "invalid value for --stall: {stall_seconds} (expected a number of seconds from 0 to u64::MAX)"
            ));
        }
        Some(ChaosConfig {
            seed: flag(&flags, "chaos-seed", 1337u64)?,
            bursts: flag(&flags, "bursts", 3u64)?,
            stall_seconds,
        })
    } else {
        None
    };
    // `f64::from_str` accepts `nan`, `0` and `-1`; a deadline must be a
    // positive number of seconds.
    let budget_seconds: f64 = flag(&flags, "budget", ServeConfig::default().budget_seconds)?;
    if !(budget_seconds.is_finite() && budget_seconds > 0.0) {
        return Err(format!(
            "invalid value for --budget: {budget_seconds} (expected a finite number > 0)"
        ));
    }
    let config = ServeConfig {
        seed: flag(&flags, "feed-seed", 42u64)?,
        epochs: flag(&flags, "epochs", 48u64)?,
        budget_seconds,
        scenarios: flag(&flags, "scenarios", 4usize)?,
        tickets: flag(&flags, "tickets", 8usize)?,
        demand_scale: scale_flag(&flags, 2.0)?,
        addr: flag(&flags, "addr", "127.0.0.1:0".to_string())?,
        incident_dir: std::path::PathBuf::from(flag(
            &flags,
            "incident-dir",
            "incidents".to_string(),
        )?),
        chaos,
        ..Default::default()
    };
    println!(
        "arrow serve: {name} topology, {} epochs, {:.1}s budget, chaos {}",
        config.epochs,
        config.budget_seconds,
        if config.chaos.is_some() { "on" } else { "off" },
    );
    let report = serve(wan, &config).map_err(|e| e.to_string())?;
    println!("exporter listened on http://{}", report.metrics_addr);
    println!(
        "planned {} epochs ({} ticks, {} cut/repair re-plans, {} chaos bursts) in {:.1}s",
        report.epochs_planned,
        report.ticks,
        report.cut_replans,
        report.chaos_bursts,
        report.wall_seconds
    );
    println!(
        "warm-hit ratio {:.3} | p99 epoch {:.3}s | {} fallbacks | {} plan errors | {} live scrapes",
        report.warm_hit_ratio,
        arrow_wan::obs::slo::exact_quantile(&report.epoch_seconds, 0.99),
        report.fallbacks,
        report.plan_errors,
        report.scrapes_ok
    );
    println!(
        "/readyz: {} before first plan -> {} after",
        report.readyz_before, report.readyz_after
    );
    if report.incidents.is_empty() {
        println!("no incidents (every epoch met its {:.1}s budget)", config.budget_seconds);
    } else {
        println!("{} incident dump(s):", report.incidents.len());
        for inc in &report.incidents {
            println!(
                "  {} ({} spans, critical path {} hops)",
                inc.dir.display(),
                inc.spans,
                inc.critical_path.len()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "topology" => cmd_topology(rest),
        "restore" => cmd_restore(rest),
        "plan" => cmd_plan(rest),
        "availability" => cmd_availability(rest),
        "latency" => cmd_latency(rest),
        "mps" => cmd_mps(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
