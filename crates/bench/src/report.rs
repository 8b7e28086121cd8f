//! The text one experiment prints, and the comparer that holds it to its
//! checked-in golden.

use std::cell::Cell;
use std::fmt::{self, Write as _};

use arrow_topology::hash::{fnv1a_word, FNV1A_OFFSET};

use crate::Experiment;

/// One experiment's output. It has a `write_fmt` that cannot fail, so
/// `writeln!(r, "{:>6.2}", x)` appends a line and there is no `Result` to
/// drop.
///
/// Every `f64` on its way into the text goes through [`Report::n`], which
/// folds its bits into an FNV-1a digest printed as the last line — so a
/// change below the printed precision still changes the text. Integers
/// print exactly and need no such help.
pub struct Report {
    id: &'static str,
    text: String,
    digest: Cell<u64>,
}

impl Report {
    /// An empty report under the experiment's banner.
    pub(crate) fn new(e: &Experiment) -> Self {
        let mut r = Report { id: e.id, text: String::new(), digest: Cell::new(FNV1A_OFFSET) };
        writeln!(r, "{}", "=".repeat(74));
        writeln!(r, "{}: {}", e.id, e.title);
        writeln!(r, "paper reference: {}", e.paper);
        writeln!(r, "{}", "-".repeat(74));
        r
    }

    /// What `write!` / `writeln!` call.
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.text.write_fmt(args).expect("writing to a String cannot fail");
    }

    /// Passes a number about to be printed through the digest.
    pub fn n(&self, x: f64) -> f64 {
        self.digest.set(fnv1a_word(self.digest.get(), x.to_bits()));
        x
    }

    /// Prints an empirical CDF as evenly-spaced percentile rows.
    pub fn cdf(&mut self, label: &str, values: &[f64], points: usize) {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        if sorted.is_empty() {
            writeln!(self, "{label}: (no data)");
            return;
        }
        writeln!(self, "{label} CDF ({} samples):", sorted.len());
        for i in 0..=points {
            let pct = i as f64 / points as f64;
            let idx = ((sorted.len() - 1) as f64 * pct).round() as usize;
            writeln!(self, "  p{:<3.0} {:>12.3}", pct * 100.0, self.n(sorted[idx]));
        }
    }

    /// The paper-vs-measured line; EXPERIMENTS.md quotes `measured`
    /// verbatim and a test holds it to that.
    pub fn summary(&mut self, paper: &str, measured: &str) {
        let id = self.id;
        writeln!(self, "{}", "-".repeat(74));
        writeln!(self, "SUMMARY {id} | paper: {paper} | measured: {measured}");
    }

    /// The finished text, closed by the digest line.
    pub(crate) fn finish(mut self) -> String {
        let digest = self.digest.get();
        writeln!(self, "digest {digest:016x}");
        self.text
    }
}

/// Holds an experiment's output to its golden, byte for byte. The error
/// names the experiment, the first differing line and how to re-record.
pub fn compare(id: &str, golden: &str, actual: &str) -> Result<(), String> {
    if golden == actual {
        return Ok(());
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let at = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i));
    let what = match at {
        Some(i) => format!(
            "line {}\n  golden: {}\n  actual: {}",
            i + 1,
            want.get(i).unwrap_or(&"<end of text>"),
            got.get(i).unwrap_or(&"<end of text>")
        ),
        None => "line endings only".to_string(),
    };
    Err(format!(
        "{id}: output differs from crates/bench/golden/{id}.txt at {what}\n\
         if the change is intended, re-record with\n  \
         cargo run --release -p arrow-bench -- {id} --out crates/bench/golden"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_changed_digit_is_reported_with_its_line_and_the_rerecord_command() {
        let golden = "fig99: a table\n  p50        0.7699\n  p100       0.7875\n";
        let actual = golden.replace("0.7875", "0.7876");
        let msg = compare("fig99", golden, &actual).unwrap_err();
        assert!(msg.starts_with("fig99: "), "{msg}");
        assert!(msg.contains("line 3\n"), "{msg}");
        assert!(msg.contains("golden:   p100       0.7875"), "{msg}");
        assert!(msg.contains("actual:   p100       0.7876"), "{msg}");
        assert!(msg.contains("-- fig99 --out crates/bench/golden"), "{msg}");
        assert!(compare("fig99", golden, golden).is_ok());
        // A truncated run is a difference too.
        let msg = compare("fig99", golden, "fig99: a table\n").unwrap_err();
        assert!(msg.contains("line 2\n") && msg.contains("actual: <end of text>"), "{msg}");
    }
}
