//! The workspace's two 64-bit mixers: FNV-1a for content digests
//! ([`crate::ScenarioId`], the universe, ticket, serve-soak and paper-table
//! digests) and splitmix64 for deriving one independent seed per scenario.
//! Tests and goldens pin every value either one feeds, so neither may change
//! a bit.

/// FNV-1a 64's offset basis: the digest of nothing.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `word` into an FNV-1a 64 digest, one byte at a time over its
/// little-endian bytes.
#[inline]
pub fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .into_iter()
        .fold(hash, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
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

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(42), 0xbdd7_3226_2feb_6e95);
        // `derive_seed(42, 7)`.
        assert_eq!(splitmix64(42 ^ splitmix64(7)), 0x6eab_8625_df26_8fbc);
    }
}
