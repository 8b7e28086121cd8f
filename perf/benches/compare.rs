//! `all` and `compare`: the repeatability procedure and the
//! parent-versus-change report.
//!
//! `all` runs every workload `--runs` times, one process per run, each
//! with another seed, writes one JSON object per run to a file, and prints
//! every end-to-end metric's median and spread (interquartile range over
//! median). `compare` reads two such files and judges each workload ×
//! metric against its bound: a median worse by more than the bound is a
//! regression; a side whose own spread exceeds the bound makes the pair
//! unresolved instead of unchanged.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use arrow_wan::obs::json::{self, Json};

use crate::harness::{median, spread};
use crate::spec;

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn run_all(runs: usize, first_seed: u64, seconds: f64, out: &Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        for seed in first_seed..first_seed + runs as u64 {
            let child = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let stdout = match child {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("{} seed {seed}: {}", w.name, String::from_utf8_lossy(&o.stderr));
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let result = stdout.lines().last().unwrap_or_default();
            all_correct &= result.contains("\"correct\": true");
            eprintln!("{} seed {seed}: {result}", w.name);
            lines.push(format!(
                "{{\"workload\":\"{}\",\"seed\":{seed},\"result\":{result}}}",
                w.name
            ));
        }
    }
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(out))
        .and_then(|mut f| f.write_all((lines.join("\n") + "\n").as_bytes()));
    if let Err(e) = written {
        eprintln!("writing {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    match load(out) {
        Ok(runs) => print_spreads(&runs),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    println!("wrote {}", out.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let doc = json::parse(line).map_err(|e| bad(&format!("{e:?}")))?;
        let workload =
            doc.get("workload").and_then(Json::as_str).ok_or_else(|| bad("no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no result.metrics"))?;
        for (name, metric) in metrics {
            let value =
                metric.get("value").and_then(Json::as_f64).ok_or_else(|| bad("no value"))?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

fn print_spreads(runs: &Runs) {
    println!(
        "{:<16} {:<16} {:>5} {:>14} {:>9} {:>7}",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    for (workload, metrics) in runs {
        for m in spec::END_TO_END {
            let Some(values) = metrics.get(m.name) else { continue };
            println!(
                "{workload:<16} {:<16} {:>5} {:>14.6} {:>8.2}% {:>6.0}%",
                m.name,
                values.len(),
                median(values),
                spread(values) * 100.0,
                m.bound * 100.0
            );
        }
    }
}

pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (parent, change) = match (load(a), load(b)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "A spread", "B spread", "bound"
    );
    let mut regressions = 0;
    for (workload, metrics) in &parent {
        for m in spec::END_TO_END {
            let (Some(va), Some(vb)) =
                (metrics.get(m.name), change.get(workload).and_then(|c| c.get(m.name)))
            else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let (sa, sb) = (spread(va), spread(vb));
            // Positive = worse, as a share of the parent's median.
            let worse = if m.better == "higher" { (ma - mb) / ma } else { (mb - ma) / ma };
            let verdict = if worse > m.bound {
                regressions += 1;
                "REGRESSION"
            } else if sa > m.bound || sb > m.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {:<16} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                m.name,
                (mb - ma) / ma * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0
            );
        }
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{regressions} regression(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_file(name: &str, ops: &[f64]) -> std::path::PathBuf {
        let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out/compare-test"));
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(name);
        let lines: Vec<String> = ops
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\":\"offline_b4\",\"seed\":1,\"result\":{{\"correct\": true, \
                     \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"ops_per_s\": \
                     {{\"value\": {v}, \"unit\": \"1/s\"}}}}}}}}"
                )
            })
            .collect();
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    #[test]
    fn compare_flags_a_throughput_drop_beyond_the_bound() {
        let a = runs_file("a.jsonl", &[100.0, 101.0, 99.0]);
        let same = runs_file("same.jsonl", &[98.0, 100.0, 102.0]);
        let slow = runs_file("slow.jsonl", &[70.0, 71.0, 69.0]);
        assert_eq!(load(&a).unwrap()["offline_b4"]["ops_per_s"], vec![100.0, 101.0, 99.0]);
        assert_eq!(compare(&a, &same), ExitCode::SUCCESS);
        assert_eq!(compare(&a, &slow), ExitCode::FAILURE);
        assert_eq!(compare(&slow, &a), ExitCode::SUCCESS, "a gain is not a regression");
    }
}
