//! Fiber spectrum occupancy.
//!
//! A fiber's usable band is divided into fixed-width wavelength slots
//! (ITU-T G.694.1 DWDM grid; today's fibers carry 48–96 wavelengths in the
//! C-band depending on channel spacing — paper §4, footnote 7). A
//! [`SpectrumMask`] tracks which slots are occupied by provisioned
//! wavelengths, mirroring the binary `φ.spectrum[w]` vector of Appendix A.2.

/// Occupancy bitset over the wavelength slots of one fiber.
///
/// Bit **set** means the slot is **occupied** by a working wavelength; clear
/// means the slot is free (or carrying ASE noise, which is displaceable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpectrumMask {
    words: Vec<u64>,
    num_slots: usize,
}

impl SpectrumMask {
    /// An all-free mask with `num_slots` slots.
    pub fn new(num_slots: usize) -> Self {
        assert!(num_slots > 0, "a fiber needs at least one slot");
        SpectrumMask { words: vec![0; num_slots.div_ceil(64)], num_slots }
    }

    /// Number of slots in the grid.
    #[cfg(test)]
    pub(crate) fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Whether slot `w` is occupied.
    pub(crate) fn is_occupied(&self, w: usize) -> bool {
        assert!(w < self.num_slots, "slot {w} out of range {}", self.num_slots);
        self.words[w / 64] & (1u64 << (w % 64)) != 0
    }

    /// Whether slot `w` is free.
    pub fn is_free(&self, w: usize) -> bool {
        !self.is_occupied(w)
    }

    /// Marks slot `w` occupied. Returns `false` if it already was.
    pub fn occupy(&mut self, w: usize) -> bool {
        if self.is_occupied(w) {
            return false;
        }
        self.words[w / 64] |= 1u64 << (w % 64);
        true
    }

    /// Frees slot `w`. Returns `false` if it was already free.
    pub fn release(&mut self, w: usize) -> bool {
        if self.is_free(w) {
            return false;
        }
        self.words[w / 64] &= !(1u64 << (w % 64));
        true
    }

    /// Number of occupied slots.
    pub fn occupied_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of free slots.
    pub fn free_count(&self) -> usize {
        self.num_slots - self.occupied_count()
    }

    /// Fraction of slots occupied — the paper's *spectrum utilization*
    /// (Fig. 5a).
    pub fn utilization(&self) -> f64 {
        self.occupied_count() as f64 / self.num_slots as f64
    }

    /// Iterates over the indices of free slots, ascending.
    pub fn free_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.words.iter().enumerate();
        let free = words.flat_map(|(i, &word)| {
            let mut free = !word;
            std::iter::from_fn(move || {
                let bit = (free != 0).then(|| free.trailing_zeros() as usize)?;
                free &= free - 1;
                Some(i * 64 + bit)
            })
        });
        // Bits past the last slot are never set, so they read free.
        free.take_while(|&w| w < self.num_slots)
    }

    /// Iterates over the indices of occupied slots, ascending.
    pub fn occupied_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_slots).filter(move |&w| self.is_occupied(w))
    }

    /// Extends the grid to `new_slots` slots; the appended slots start
    /// free. Used by the Appendix A.10 C+L upgrade. No-op if `new_slots`
    /// is not larger than the current grid.
    pub(crate) fn extend_to(&mut self, new_slots: usize) {
        if new_slots <= self.num_slots {
            return;
        }
        self.num_slots = new_slots;
        self.words.resize(new_slots.div_ceil(64), 0);
    }

    /// Makes this mask the union of `masks`' occupied slots: a slot is
    /// free here iff it is free on every one of them (all free if there
    /// are none). All grids must be this one's.
    pub(crate) fn union_of<'a>(&mut self, masks: impl IntoIterator<Item = &'a SpectrumMask>) {
        self.words.fill(0);
        for mask in masks {
            debug_assert_eq!(mask.num_slots, self.num_slots, "grids differ");
            for (w, &m) in self.words.iter_mut().zip(&mask.words) {
                *w |= m;
            }
        }
    }

    /// The slots free in *both* masks — the usable spectrum across two
    /// fibers under the wavelength-continuity constraint (§2.3, Fig. 5b).
    pub fn free_intersection(&self, other: &SpectrumMask) -> SpectrumMask {
        assert_eq!(self.num_slots, other.num_slots, "grids differ");
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| a | b) // occupied in either => not usable
            .collect();
        SpectrumMask { words, num_slots: self.num_slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupy_and_release_roundtrip() {
        let mut m = SpectrumMask::new(96);
        assert!(m.is_free(40));
        assert!(m.occupy(40));
        assert!(!m.occupy(40), "double occupy must report false");
        assert!(m.is_occupied(40));
        assert_eq!(m.occupied_count(), 1);
        assert!(m.release(40));
        assert!(!m.release(40));
        assert_eq!(m.occupied_count(), 0);
    }

    #[test]
    fn counts_and_utilization() {
        let mut m = SpectrumMask::new(10);
        for w in 0..4 {
            m.occupy(w);
        }
        assert_eq!(m.occupied_count(), 4);
        assert_eq!(m.free_count(), 6);
        assert!((m.utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn free_slot_iteration() {
        let mut m = SpectrumMask::new(5);
        m.occupy(1);
        m.occupy(3);
        let free: Vec<_> = m.free_slots().collect();
        assert_eq!(free, vec![0, 2, 4]);
        let occ: Vec<_> = m.occupied_slots().collect();
        assert_eq!(occ, vec![1, 3]);
    }

    #[test]
    fn continuity_intersection_mirrors_fig5b() {
        // Three fibers each 75% free can still share only a sliver.
        let mut a = SpectrumMask::new(4);
        let mut b = SpectrumMask::new(4);
        a.occupy(0); // free: 1,2,3
        b.occupy(1); // free: 0,2,3
        let usable = a.free_intersection(&b);
        let free: Vec<_> = usable.free_slots().collect();
        assert_eq!(free, vec![2, 3]);
    }

    #[test]
    fn works_across_word_boundaries() {
        let mut m = SpectrumMask::new(130);
        m.occupy(63);
        m.occupy(64);
        m.occupy(129);
        assert_eq!(m.occupied_count(), 3);
        assert!(m.is_occupied(63) && m.is_occupied(64) && m.is_occupied(129));
        assert!(m.is_free(128));
    }

    #[test]
    fn extend_to_keeps_occupancy_and_adds_free_slots() {
        let mut m = SpectrumMask::new(4);
        m.occupy(1);
        m.extend_to(130);
        assert_eq!(m.num_slots(), 130);
        assert!(m.is_occupied(1));
        assert!(m.is_free(4) && m.is_free(129));
        assert_eq!(m.occupied_count(), 1);
        // Shrinking is a no-op.
        m.extend_to(2);
        assert_eq!(m.num_slots(), 130);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        let m = SpectrumMask::new(8);
        let _ = m.is_free(8);
    }
}
