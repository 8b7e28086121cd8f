//! `arrow-repro` — regenerate the paper's tables and figures by id.

use std::process::ExitCode;

fn main() -> ExitCode {
    let inv = match arrow_bench::parse_args(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    match arrow_bench::execute(&inv, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
