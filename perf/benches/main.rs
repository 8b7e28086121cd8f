//! The repository's benchmark. One process runs one named workload at one
//! seed, checks its outputs, and prints every metric by name with its
//! unit; the last line of standard output is the JSON result the driver
//! reads (see `BENCHMARK.json` and `README.md`).
//!
//! ```text
//! arrow-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! arrow-perf all [--runs N] [--seed N] [--seconds S] [--out FILE]
//! arrow-perf compare A.jsonl B.jsonl
//! ```

mod compare;
mod harness;
mod offline;
mod online;
mod playback;
mod spec;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{median, peak_rss_mib, result_line, Checks, Ledger, Timed, Tracer};

/// A workload after set-up. `build` functions do the set-up (inputs, the
/// product's offline work the timed region depends on, one warm-up).
pub trait Workload {
    /// The timed region: operations in a closed loop until `seconds` have
    /// passed, with spans around each call into the product when `tr` is
    /// enabled. Cheap output checks happen inline.
    fn run(&mut self, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Timed;

    /// Untimed output checks that need a reference computation.
    fn verify(&mut self, _checks: &mut Checks) {}

    /// Traced run only: decompose the workload's operations into layers
    /// and fill the ledger.
    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger, checks: &mut Checks);

    /// A digest of this run's outputs, pinned at the default seed.
    fn pin(&self) -> u64;
}

/// Where traces and incident dumps go: `perf/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn build(workload: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "offline_b4" => Box::new(offline::Offline::build(&offline::B4, seed, smoke)),
        "offline_ibm" => Box::new(offline::Offline::build(&offline::IBM, seed, smoke)),
        "serve_b4_warm" => Box::new(online::Serve::build(seed, smoke, &out_dir())),
        "epoch_b4_cold" => Box::new(online::ColdEpochs::build(seed, smoke)),
        "playback_b4" => Box::new(playback::Playback::build(seed)),
        _ => return None,
    })
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the size: one set-up, one short session, small shadows.
    pub smoke: bool,
}

/// `(name, unit, value)` per metric, in the order `spec` declares them.
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Runs one workload and returns its tally and the metrics to print.
pub fn run(args: &RunArgs) -> Option<(Checks, Metrics)> {
    let mut checks = Checks::default();

    // Set up several times and report the median, so that set-up time is a
    // steady number: three builds before the timed region (the last is the
    // instance measured) and two after it, so that the samples straddle the
    // machine's fast and slow spells instead of all landing in one.
    let (before, after) = if args.smoke { (1, 0) } else { (3, 2) };
    let mut setup_seconds = Vec::new();
    let mut timed_build = || {
        let t0 = Instant::now();
        let workload = build(&args.workload, args.seed, args.smoke);
        setup_seconds.push(t0.elapsed().as_secs_f64());
        workload
    };
    let mut workload = timed_build()?;
    for _ in 1..before {
        drop(workload);
        workload = timed_build()?;
    }

    let (metrics, pin) = if args.trace {
        // A quarter of the time untraced, a quarter with spans around the
        // same calls (their ratio is the tracing overhead), then the
        // workload's layer decomposition.
        let mut ledger = Ledger::default();
        let mut tracer = Tracer::new(true);
        let plain = workload.run(args.seconds / 4.0, &mut Tracer::new(false), &mut checks);
        let traced = workload.run(args.seconds / 4.0, &mut tracer, &mut checks);
        ledger.set("bench.trace_overhead_ratio", plain.ops_per_s / traced.ops_per_s - 1.0);
        workload.layers(&mut tracer, &mut ledger, &mut checks);
        ledger.set("bench.spans", tracer.spans().len() as f64);
        let path = out_dir().join(format!("{}.trace.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&path, &args.workload) {
            checks.check(false, || format!("writing {}: {e}", path.display()));
        }
        let metrics = spec::PER_LAYER.iter().map(|m| (m.name, m.unit, ledger.get(m.name)));
        (metrics.collect(), workload.pin())
    } else {
        let timed = workload.run(args.seconds, &mut Tracer::new(false), &mut checks);
        workload.verify(&mut checks);
        let peak_rss = peak_rss_mib();
        let pin = workload.pin();
        drop(workload);
        for _ in 0..after {
            timed_build()?;
        }
        let value = |name: &str| match name {
            "ops_per_s" => timed.ops_per_s,
            "cpu_ms_per_op" => timed.cpu_s * 1e3 / timed.ops.max(1) as f64,
            "peak_rss_mb" => peak_rss,
            "setup_s" => median(&setup_seconds),
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        (spec::END_TO_END.iter().map(|m| (m.name, m.unit, value(m.name))).collect(), pin)
    };

    if args.seed == spec::DEFAULT_SEED && !args.smoke {
        let pinned = spec::PINS.iter().find(|(name, _)| *name == args.workload).map(|p| p.1);
        checks.check(pinned == Some(pin), || {
            format!(
                "{}: output digest {pin:016x} differs from the pin {pinned:016x?}",
                args.workload
            )
        });
    }
    Some((checks, metrics))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: arrow-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         arrow-perf all [--runs N] [--seed N] [--seconds S] [--out FILE]\n       \
         arrow-perf compare A.jsonl B.jsonl\nworkloads:"
    );
    for w in spec::WORKLOADS {
        eprintln!("  {:<14} {}", w.name, w.why);
    }
    ExitCode::from(2)
}

/// `--flag value` pairs and bare flags after the optional subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<Result<T, ()>> {
        let at = self.0.iter().position(|a| a == flag)?;
        Some(self.0.get(at + 1).and_then(|v| v.parse().ok()).ok_or(()))
    }

    fn or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ()> {
        self.value(flag).unwrap_or(Ok(default))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = match argv.first().map(String::as_str) {
        Some("all" | "compare") => Some(argv.remove(0)),
        _ => None,
    };
    let flags = Flags(argv);
    let parsed = (|| {
        Ok::<_, ()>((
            flags.or("--seed", spec::DEFAULT_SEED)?,
            flags.or("--seconds", spec::DEFAULT_SECONDS)?,
            flags.or("--trace", 0u8)?,
            flags.or("--runs", 10usize)?,
        ))
    })();
    let Ok((seed, seconds, trace, runs)) = parsed else { return usage() };
    if !(seconds > 0.0 && seconds <= 600.0) || trace > 1 {
        return usage();
    }

    match subcommand.as_deref() {
        Some("compare") => match flags.0.as_slice() {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        Some(_) => {
            let out = flags.or("--out", "perf/out/runs.jsonl".to_string()).unwrap_or_default();
            compare::run_all(runs, seed, seconds, out.as_ref())
        }
        None => {
            let Some(Ok(workload)) = flags.value::<String>("--workload") else { return usage() };
            let args =
                RunArgs { workload, seed, seconds, trace: trace == 1, smoke: flags.has("--smoke") };
            eprintln!(
                "# arrow-perf {} seed={} seconds={} trace={} threads={} pdhg_tol={:e} auto_threshold={}",
                args.workload,
                args.seed,
                args.seconds,
                trace,
                arrow_wan::core::default_threads(),
                arrow_wan::lp::SolverConfig::default().pdhg.tol,
                arrow_wan::lp::SolverConfig::default().auto_threshold,
            );
            let Some((checks, metrics)) = run(&args) else { return usage() };
            for (name, unit, value) in &metrics {
                println!("{name:<44} {value:>16.6} {unit}");
            }
            // A run that measured exits 0 even when a check failed: the
            // result line's `correct` and `failed` carry the verdict.
            println!("{}", result_line(&checks, &metrics));
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, at a tenth of the size, traced and untraced: runs
    /// clean and emits exactly the declared metric sets.
    #[test]
    fn smoke_every_workload_emits_the_declared_metrics() {
        for w in spec::WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: w.name.to_string(),
                    seed: 7,
                    seconds: 0.4,
                    trace,
                    smoke: true,
                };
                let (checks, metrics) = run(&args).expect("known workload");
                assert_eq!(checks.failed, 0, "{} trace={trace}", w.name);
                assert!(checks.attempted >= 1);
                let table = if trace { spec::PER_LAYER } else { spec::END_TO_END };
                let names: Vec<_> = metrics.iter().map(|m| (m.0, m.1)).collect();
                let declared: Vec<_> = table.iter().map(|m| (m.name, m.unit)).collect();
                assert_eq!(names, declared, "{} trace={trace}", w.name);
                assert!(metrics.iter().all(|m| m.2.is_finite()));
                if !trace {
                    assert!(metrics.iter().all(|m| m.2 > 0.0), "{}: {metrics:?}", w.name);
                }
            }
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        let args =
            RunArgs { workload: "nope".into(), seed: 1, seconds: 0.1, trace: false, smoke: true };
        assert!(run(&args).is_none());
    }
}
