//! The `arrow` binary as a process. Every command README's quickstart
//! lists exits 0 and prints its key line; bad input, a mistyped flag
//! included, exits 1 with `error: …` and never 101 (a panic).

use std::process::Command;

/// Runs `arrow args…` and returns its exit code, stdout and stderr.
fn arrow(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_arrow"))
        .args(args)
        .output()
        .expect("run the arrow binary");
    let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Runs a command that must be refused as a usage error and returns its
/// stdout and stderr.
fn refused(args: &[&str]) -> (String, String) {
    let (code, stdout, stderr) = arrow(args);
    assert_eq!(code, Some(1), "arrow {}: {stderr}", args.join(" "));
    (stdout, stderr)
}

#[test]
fn readme_quickstart_commands_succeed() {
    let mps = std::env::temp_dir().join(format!("arrow-cli-test-{}.mps", std::process::id()));
    let mps_arg = mps.to_str().expect("temp path is UTF-8");
    let cases: [(&[&str], &[&str]); 6] = [
        (&["topology", "b4"], &["B4: 12 routers / 12 ROADMs, 19 fibers, 52 IP links"]),
        (&["restore", "b4", "--fiber", "5"], &["cutting fiber 5: 3 IP links fail"]),
        (&["plan", "ibm", "--tickets", "8"], &["ROADM reconfiguration rules pre-installed"]),
        (&["availability", "b4", "--scheme", "ffc1"], &["FFC-1: throughput"]),
        // The §5 testbed trial, agreeing with the `fig12` golden.
        (
            &["latency"],
            &[
                "ARROW (noise loading): restored 2800 of 2800 Gbps in 7.0 s",
                "legacy: restored 2800 of 2800 Gbps in 882.0 s",
            ],
        ),
        (&["mps", "b4", "--out", mps_arg], &["wrote MaxFlow TE LP"]),
    ];
    for (args, lines) in cases {
        let (code, stdout, stderr) = arrow(args);
        assert_eq!(code, Some(0), "arrow {}: {stderr}", args.join(" "));
        for line in lines {
            assert!(stdout.contains(line), "arrow {} lacks {line:?}:\n{stdout}", args.join(" "));
        }
    }
    let written = std::fs::read_to_string(&mps).expect("mps wrote its --out file");
    std::fs::remove_file(&mps).ok();
    assert!(written.contains("\nNAME arrow_b4_maxflow\n"), "not the B4 MPS file: {written:.80}");
}

/// `parse_flags` used to take any `--key value`, so `topology b4 --sead 5`
/// printed the seed-17 B4 and exited 0. `--amps` was deleted from `latency`.
#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    let cases: [&[&str]; 8] = [
        &["topology", "b4", "--sead", "5"],
        &["restore", "b4", "--sead", "5"],
        &["plan", "b4", "--sead", "5"],
        &["availability", "b4", "--sead", "5"],
        &["latency", "--sead", "5"],
        &["latency", "--amps", "34"],
        &["mps", "b4", "--sead", "5"],
        &["serve", "b4", "--sead", "5"],
    ];
    for args in cases {
        let (stdout, stderr) = refused(args);
        let (cmd, flag) = (args[0], args[args.len() - 2]);
        let error = format!("error: unknown flag {flag} for {cmd}\nusage: arrow");
        assert!(stderr.starts_with(&error), "arrow {}: {stderr}", args.join(" "));
        assert!(stdout.is_empty(), "arrow {} ran anyway: {stdout}", args.join(" "));
    }
}

#[test]
fn bad_scale_is_a_usage_error() {
    for (cmd, scale) in
        [("plan", "-1"), ("plan", "nan"), ("availability", "-0.5"), ("serve", "inf")]
    {
        let (_, stderr) = refused(&[cmd, "b4", "--scale", scale]);
        assert!(stderr.contains("invalid value for --scale"), "{stderr}");
    }
}

#[test]
fn bad_budget_is_a_usage_error() {
    for budget in ["nan", "-1", "0"] {
        let (stdout, stderr) = refused(&["serve", "b4", "--budget", budget]);
        assert!(stderr.contains("invalid value for --budget"), "{stderr}");
        assert!(stdout.is_empty(), "no banner for a rejected budget");
    }
}

#[test]
fn bad_chaos_stall_is_a_usage_error() {
    for stall in ["inf", "1e30", "nan", "-1"] {
        let (stdout, stderr) =
            refused(&["serve", "b4", "--epochs", "3", "--chaos", "true", "--stall", stall]);
        assert!(stderr.contains("invalid value for --stall"), "{stderr}");
        assert!(stdout.is_empty(), "no banner for a rejected stall");
    }
}
