//! The workspace's 64-bit mixers and its pin table.
//!
//! Two folds share FNV-1a 64's offset basis and prime. They give different
//! digests for the same words, and every pinned digest went through one of
//! them, so they must stay two functions:
//!
//! * [`fnv1a_word`] is FNV-1a proper, one byte at a time. It feeds the
//!   product's content digests (`ScenarioId::of_cut`, the universe, ticket,
//!   serve-soak and paper-table digests) and through them `perf/`'s workload
//!   pins.
//! * [`word_fold`] folds a whole 64-bit word with one multiply; it is not
//!   FNV-1a. It feeds `StandardLp::structure_digest`, `Solution::digest` and
//!   the test pins.
//!
//! [`splitmix64`] derives one independent seed per scenario. [`check_pins`]
//! holds a test's digests to the pin table, `tests/pins.txt` (DESIGN.md
//! § Testing strategy, "Pins").

use std::fmt;

/// FNV-1a 64's offset basis: the digest of nothing, under either fold.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `word` into an FNV-1a 64 digest: a [`word_fold`] of each of its
/// little-endian bytes.
#[inline]
pub fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().into_iter().fold(hash, |h, byte| word_fold(h, u64::from(byte)))
}

/// Folds `word` into `hash` whole: one xor and one multiply by FNV's prime.
/// Not FNV-1a, which folds bytes ([`fnv1a_word`]).
#[inline]
pub fn word_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// splitmix64's output mix (Steele et al.): a bijection whose avalanche
/// keeps the streams of adjacent seeds uncorrelated although they differ
/// in one bit.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pin table, read at run time from a path fixed relative to this
/// crate, so no binary embeds it.
const PIN_TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/pins.txt");

/// One line of the pin table: `name kind 0x<16 hex digits>`, where `kind`
/// is `formulation` (solver-independent output) or `trajectory` (what a
/// solver happened to compute, and what is built from it).
struct Pin {
    name: String,
    kind: String,
    digest: u64,
}

/// Why [`check_pins`] failed: the table is unreadable, malformed or lacks a
/// name, or pins moved. `Debug` prints the report, so a test's `unwrap`
/// shows it.
pub struct PinReport(String);

impl fmt::Debug for PinReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Parses the pin table: blank and `#` lines are comments, and names are
/// strictly ascending.
fn parse_pins(text: &str) -> Result<Vec<Pin>, PinReport> {
    let mut pins: Vec<Pin> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let pin = match line.split(' ').collect::<Vec<_>>()[..] {
            [name, kind @ ("formulation" | "trajectory"), hex] => (hex.strip_prefix("0x"))
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .filter(|digest| format!("{digest:#018x}") == hex)
                .map(|digest| Pin { name: name.to_owned(), kind: kind.to_owned(), digest }),
            _ => None,
        };
        match pin {
            Some(pin) if pins.last().is_none_or(|last| last.name < pin.name) => pins.push(pin),
            _ => {
                let want = "want `name formulation|trajectory 0x<16 lowercase hex digits>`, sorted";
                return Err(PinReport(format!("{PIN_TABLE}:{}: {want}: {line:?}", i + 1)));
            }
        }
    }
    Ok(pins)
}

/// Holds one test's batch of `(name, digest)` pairs to `tests/pins.txt`. On
/// a mismatch the report lists every pin of the batch that moved, with the
/// lines that would re-pin them.
pub fn check_pins<N: AsRef<str>>(got: &[(N, u64)]) -> Result<(), PinReport> {
    let table = std::fs::read_to_string(PIN_TABLE)
        .map_err(|e| PinReport(format!("{PIN_TABLE}: {e}")))
        .and_then(|text| parse_pins(&text))?;
    let (mut moved, mut lines) = (String::new(), String::new());
    for (name, got) in got {
        let name = name.as_ref();
        let Some(Pin { kind, digest, .. }) = table.iter().find(|pin| pin.name == name) else {
            let line = format!("{name} formulation|trajectory {got:#018x}");
            return Err(PinReport(format!("{PIN_TABLE} has no pin {name}: add `{line}`")));
        };
        if digest != got {
            moved += &format!("  {name} ({kind}): pinned {digest:#018x}, got {got:#018x}\n");
            lines += &format!("{name} {kind} {got:#018x}\n");
        }
    }
    if moved.is_empty() {
        return Ok(());
    }
    Err(PinReport(format!("pins of tests/pins.txt moved:\n{moved}replacement lines:\n{lines}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known answers recorded from the copies these replaced (`ScenarioId::of_cut`,
    // `failures::mix64`, `lottery::derive_seed`'s `splitmix`) at a305390.
    #[test]
    fn fnv1a_word_known_answers() {
        assert_eq!(fnv1a_word(FNV1A_OFFSET, 0), 0xa8c7_f832_281a_39c5);
        assert_eq!(fnv1a_word(FNV1A_OFFSET, 0xdead_beef), 0x7513_fc78_a110_e05b);
        // `ScenarioId::of_cut(&[FiberId(3), FiberId(1), FiberId(3)])`: the
        // length, then the sorted, deduplicated ids.
        let h = [2, 1, 3].into_iter().fold(FNV1A_OFFSET, fnv1a_word);
        assert_eq!(h, 0x6128_b57d_5d0b_9565);
    }

    // Recorded from `StandardLp::structure_digest`'s own fold at 4e25072.
    #[test]
    fn word_fold_known_answers() {
        assert_eq!(word_fold(FNV1A_OFFSET, 0), 0xaf63_bd4c_8601_b7df);
        // `structure_digest` of the one-row model `x + 2y <= 14`: rows,
        // columns, then per row its sense and `(column, value bits)` pairs.
        let words = [1, 2, 0, 0, 1f64.to_bits(), 1, 2f64.to_bits()];
        assert_eq!(words.into_iter().fold(FNV1A_OFFSET, word_fold), 0x5718_ccf0_409a_0767);
    }

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(42), 0xbdd7_3226_2feb_6e95);
        // `derive_seed(42, 7)`.
        assert_eq!(splitmix64(42 ^ splitmix64(7)), 0x6eab_8625_df26_8fbc);
    }

    /// The table parses, so every kind is known, every digest has 16 hex
    /// digits and names are unique and sorted. After a header, blank lines
    /// split it into one block per group of names (the part before the first
    /// `.`), each opened by one `#` line saying what the group folds.
    #[test]
    fn pin_table_parses_and_documents_every_group() {
        let text = std::fs::read_to_string(PIN_TABLE).expect("the pin table is checked in");
        assert!(!parse_pins(&text).unwrap().is_empty());
        let mut blocks = text.trim_end().split("\n\n");
        assert!(blocks.next().is_some_and(|header| header.lines().all(|l| l.starts_with('#'))));
        let mut groups = Vec::new();
        for block in blocks {
            let (comment, pins) = block.split_once('\n').unwrap_or((block, ""));
            let group = pins.split('.').next().unwrap_or_default();
            assert!(comment.starts_with(&format!("# {group}: ")), "{comment:?} opens {group:?}");
            assert!(pins.lines().all(|l| l.starts_with(&format!("{group}."))), "{block}");
            assert!(!groups.contains(&group), "group {group:?} split");
            groups.push(group);
        }
        for bad in [
            "a solver 0x0123456789abcdef",
            "a trajectory 0x0123456789ABCDEF",
            "b trajectory 0x0123456789abcdef\na trajectory 0x0123456789abcdef",
        ] {
            assert!(parse_pins(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn a_moved_pin_names_both_digests_and_its_replacement_line() {
        let text = std::fs::read_to_string(PIN_TABLE).expect("the pin table is checked in");
        let pin = parse_pins(&text).unwrap().swap_remove(0);
        let (name, kind, got) = (pin.name.as_str(), pin.kind.as_str(), pin.digest ^ 1);
        check_pins(&[(name, pin.digest)]).unwrap();
        let PinReport(report) = check_pins(&[(name, pin.digest), (name, got)]).unwrap_err();
        let pinned = format!("  {name} ({kind}): pinned {:#018x}, got {got:#018x}", pin.digest);
        assert!(report.contains(&format!("moved:\n{pinned}\nreplacement")), "{report}");
        assert!(report.ends_with(&format!("\n{name} {kind} {got:#018x}\n")), "{report}");
        assert!(check_pins(&[("no.such.pin", 7)]).is_err());
    }
}
