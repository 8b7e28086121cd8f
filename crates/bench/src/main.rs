//! `arrow-repro` — regenerate the paper's tables and figures by id.

use std::path::PathBuf;
use std::process::ExitCode;
use std::{fs, io};

use arrow_bench::{Ctx, Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let inv = match parse_args(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    match execute(&inv, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// What the `arrow-repro` command line asked for.
struct Invocation {
    /// Experiments to run, in command-line order (`all` = the registry).
    experiments: Vec<&'static Experiment>,
    /// Write `<dir>/<id>.txt` per report instead of printing them.
    out: Option<PathBuf>,
}

/// Parses `<id>… | all [--out <dir>]`. The error is the usage text, with
/// the offending argument first and every known id listed.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let usage = |problem: String| {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        format!(
            "{problem}\nusage: arrow-repro <id>... | all [--out <dir>]\nknown ids: {}",
            ids.join(" ")
        )
    };
    let mut inv = Invocation { experiments: Vec::new(), out: None };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            let dir = args.next().ok_or_else(|| usage("--out needs a directory".into()))?;
            inv.out = Some(PathBuf::from(dir));
        } else if arg == "all" {
            inv.experiments.extend(EXPERIMENTS);
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.id == arg) {
            inv.experiments.push(e);
        } else {
            let kind = if arg.starts_with('-') { "flag" } else { "experiment" };
            return Err(usage(format!("unknown {kind} {arg:?}")));
        }
    }
    if inv.experiments.is_empty() {
        return Err(usage("no experiment named".into()));
    }
    Ok(inv)
}

/// Runs an invocation: each report goes to `stdout`, or with `--out` to
/// `<dir>/<id>.txt` (the directory is created) with one `wrote` line each.
fn execute(inv: &Invocation, stdout: &mut impl io::Write) -> io::Result<()> {
    let named = |path: &std::path::Path, e: io::Error| {
        io::Error::new(e.kind(), format!("{}: {e}", path.display()))
    };
    if let Some(dir) = &inv.out {
        fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    }
    let ctx = Ctx::default();
    for e in &inv.experiments {
        let text = arrow_bench::run(e, &ctx);
        match &inv.out {
            Some(dir) => {
                let path = dir.join(format!("{}.txt", e.id));
                fs::write(&path, text).map_err(|e| named(&path, e))?;
                writeln!(stdout, "wrote {}", path.display())?;
            }
            None => stdout.write_all(text.as_bytes())?,
        }
    }
    stdout.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn ids_all_and_out_parse() {
        let inv = parse_args(args("fig14 thm31 --out golden")).unwrap();
        assert_eq!(inv.experiments.iter().map(|e| e.id).collect::<Vec<_>>(), ["fig14", "thm31"]);
        assert_eq!(inv.out, Some(PathBuf::from("golden")));
        assert_eq!(parse_args(args("all")).unwrap().experiments.len(), EXPERIMENTS.len());
    }

    #[test]
    fn unknown_id_or_flag_is_a_usage_error_listing_the_known_ids() {
        for line in ["fig99", "fig14 --fast", "--out", ""] {
            let usage = parse_args(args(line)).err().unwrap_or_else(|| panic!("{line:?} parsed"));
            assert!(usage.contains("known ids: fig03 "), "{usage}");
            assert!(usage.contains("table05") && usage.contains("ablation_playback"), "{usage}");
        }
        assert!(parse_args(args("fig99"))
            .err()
            .unwrap()
            .starts_with("unknown experiment \"fig99\""));
        assert!(parse_args(args("-x")).err().unwrap().starts_with("unknown flag \"-x\""));
    }

    #[test]
    fn unwritable_out_is_an_io_error_naming_the_path() {
        // A directory cannot be created under a device node, whoever runs this.
        let inv = parse_args(args("table06 --out /dev/null/golden")).unwrap();
        let err = execute(&inv, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().starts_with("/dev/null/golden: "), "{err}");
    }
}
