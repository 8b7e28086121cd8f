//! Optical-layer network: ROADM nodes, fiber edges, provisioned lightpaths.
//!
//! This module models the bottom half of Fig. 1: ROADMs connected by fibers,
//! each fiber carrying a spectrum of wavelength slots, and *lightpaths* —
//! groups of wavelengths routed end-to-end over a fiber path. One lightpath
//! is the optical realization of one IP link (one router port-channel); its
//! light passes through intermediate ROADMs purely in the optical domain, so
//! the IP layer sees a direct link between the endpoints (Fig. 2).

use crate::spectrum::SpectrumMask;

/// Identifier of a ROADM site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoadmId(pub usize);

/// Identifier of a fiber (undirected edge between two ROADMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiberId(pub usize);

/// Identifier of a provisioned lightpath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LightpathId(pub usize);

/// One fiber span between two ROADM sites.
#[derive(Debug, Clone)]
pub struct Fiber {
    /// One endpoint.
    pub a: RoadmId,
    /// The other endpoint.
    pub b: RoadmId,
    /// Physical length in km (drives modulation reach and amplifier count).
    pub length_km: f64,
    /// Spectrum occupancy of this fiber.
    pub spectrum: SpectrumMask,
}

impl Fiber {
    /// The endpoint opposite `r`.
    ///
    /// Calling this with a ROADM that is not an endpoint is a caller bug;
    /// debug builds assert, release builds return `a` (the graph walks
    /// that use this always iterate a node's own incident fibers, so the
    /// precondition holds by construction).
    pub fn other_end(&self, r: RoadmId) -> RoadmId {
        debug_assert!(self.touches(r), "ROADM {r:?} is not an endpoint of this fiber");
        if r == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Whether `r` is an endpoint.
    pub fn touches(&self, r: RoadmId) -> bool {
        r == self.a || r == self.b
    }
}

/// A provisioned lightpath: `wavelength_count` wavelengths on a contiguous
/// fiber path, all on the same spectrum slots end-to-end (wavelength
/// continuity), all modulated at `gbps_per_wavelength`.
#[derive(Debug, Clone)]
pub struct Lightpath {
    /// Source ROADM (add/drop site).
    pub src: RoadmId,
    /// Destination ROADM (add/drop site).
    pub dst: RoadmId,
    /// Fibers traversed, in order from `src` to `dst`.
    pub path: Vec<FiberId>,
    /// Spectrum slots used, identical on every fiber of the path.
    pub slots: Vec<usize>,
    /// Datarate of each wavelength (from the modulation table).
    pub gbps_per_wavelength: f64,
}

impl Lightpath {
    /// Total IP-layer capacity this lightpath provides, in Gbps.
    pub fn capacity_gbps(&self) -> f64 {
        self.slots.len() as f64 * self.gbps_per_wavelength
    }

    /// Number of wavelengths (γ_e in the paper's RWA formulation).
    pub fn wavelength_count(&self) -> usize {
        self.slots.len()
    }
}

/// Errors from building or mutating an optical network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpticalError {
    /// A referenced ROADM does not exist.
    UnknownRoadm(usize),
    /// A referenced fiber does not exist.
    UnknownFiber(usize),
    /// The fiber path is empty or not contiguous from src to dst.
    BrokenPath,
    /// A required spectrum slot is already occupied on some fiber.
    SlotOccupied {
        /// The offending fiber.
        fiber: usize,
        /// The occupied slot.
        slot: usize,
    },
    /// A spectrum slot beyond the fiber grid.
    SlotOutOfRange {
        /// The offending slot.
        slot: usize,
        /// Slots per fiber.
        num_slots: usize,
    },
}

impl std::fmt::Display for OpticalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpticalError::UnknownRoadm(r) => write!(f, "unknown ROADM {r}"),
            OpticalError::UnknownFiber(x) => write!(f, "unknown fiber {x}"),
            OpticalError::BrokenPath => write!(f, "fiber path is not contiguous"),
            OpticalError::SlotOccupied { fiber, slot } => {
                write!(f, "slot {slot} already occupied on fiber {fiber}")
            }
            OpticalError::SlotOutOfRange { slot, num_slots } => {
                write!(f, "slot {slot} is outside the {num_slots}-slot grid")
            }
        }
    }
}

impl std::error::Error for OpticalError {}

/// The optical network: ROADM sites, fibers, and provisioned lightpaths.
#[derive(Debug, Clone)]
pub struct OpticalNetwork {
    num_slots: usize,
    num_roadms: usize,
    fibers: Vec<Fiber>,
    /// Fiber ids incident to each ROADM.
    adjacency: Vec<Vec<FiberId>>,
    lightpaths: Vec<Lightpath>,
}

impl OpticalNetwork {
    /// An empty network whose fibers will carry `num_slots` wavelength slots.
    pub fn new(num_slots: usize) -> Self {
        OpticalNetwork {
            num_slots,
            num_roadms: 0,
            fibers: Vec::new(),
            adjacency: Vec::new(),
            lightpaths: Vec::new(),
        }
    }

    /// Adds a ROADM site.
    pub fn add_roadm(&mut self) -> RoadmId {
        let id = RoadmId(self.num_roadms);
        self.num_roadms += 1;
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds `n` ROADM sites, returning their ids.
    pub fn add_roadms(&mut self, n: usize) -> Vec<RoadmId> {
        (0..n).map(|_| self.add_roadm()).collect()
    }

    /// Adds a fiber between two existing ROADMs.
    pub fn add_fiber(
        &mut self,
        a: RoadmId,
        b: RoadmId,
        length_km: f64,
    ) -> Result<FiberId, OpticalError> {
        for r in [a, b] {
            if r.0 >= self.num_roadms {
                return Err(OpticalError::UnknownRoadm(r.0));
            }
        }
        let id = FiberId(self.fibers.len());
        self.fibers.push(Fiber { a, b, length_km, spectrum: SpectrumMask::new(self.num_slots) });
        self.adjacency[a.0].push(id);
        self.adjacency[b.0].push(id);
        Ok(id)
    }

    /// Number of wavelength slots per fiber.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of ROADM sites.
    pub fn num_roadms(&self) -> usize {
        self.num_roadms
    }

    /// Number of fibers.
    pub fn num_fibers(&self) -> usize {
        self.fibers.len()
    }

    /// All fibers, indexable by [`FiberId`].
    pub fn fibers(&self) -> &[Fiber] {
        &self.fibers
    }

    /// One fiber.
    pub fn fiber(&self, id: FiberId) -> &Fiber {
        &self.fibers[id.0]
    }

    /// Fibers incident to a ROADM.
    pub fn incident_fibers(&self, r: RoadmId) -> &[FiberId] {
        &self.adjacency[r.0]
    }

    /// All provisioned lightpaths, indexable by [`LightpathId`].
    pub fn lightpaths(&self) -> &[Lightpath] {
        &self.lightpaths
    }

    /// One lightpath.
    pub fn lightpath(&self, id: LightpathId) -> &Lightpath {
        &self.lightpaths[id.0]
    }

    /// Total length of a fiber path in km.
    pub fn path_length_km(&self, path: &[FiberId]) -> f64 {
        path.iter().map(|&f| self.fibers[f.0].length_km).sum()
    }

    /// Validates that `path` is a contiguous walk from `src` to `dst`.
    pub fn validate_path(
        &self,
        src: RoadmId,
        dst: RoadmId,
        path: &[FiberId],
    ) -> Result<(), OpticalError> {
        if path.is_empty() {
            return Err(OpticalError::BrokenPath);
        }
        let mut at = src;
        for &fid in path {
            let fiber = self.fibers.get(fid.0).ok_or(OpticalError::UnknownFiber(fid.0))?;
            if !fiber.touches(at) {
                return Err(OpticalError::BrokenPath);
            }
            at = fiber.other_end(at);
        }
        if at != dst {
            return Err(OpticalError::BrokenPath);
        }
        Ok(())
    }

    /// Provisions a lightpath, occupying its slots on every fiber of the
    /// path. Slots must lie on the grid, be distinct, and be free on all
    /// fibers (wavelength continuity); nothing is occupied on an error.
    pub fn provision(&mut self, lp: Lightpath) -> Result<LightpathId, OpticalError> {
        self.validate_path(lp.src, lp.dst, &lp.path)?;
        for (i, &w) in lp.slots.iter().enumerate() {
            if w >= self.num_slots {
                return Err(OpticalError::SlotOutOfRange { slot: w, num_slots: self.num_slots });
            }
            if lp.slots[..i].contains(&w) {
                return Err(OpticalError::SlotOccupied { fiber: lp.path[0].0, slot: w });
            }
        }
        for &fid in &lp.path {
            for &w in &lp.slots {
                if self.fibers[fid.0].spectrum.is_occupied(w) {
                    return Err(OpticalError::SlotOccupied { fiber: fid.0, slot: w });
                }
            }
        }
        for &fid in &lp.path {
            for &w in &lp.slots {
                self.fibers[fid.0].spectrum.occupy(w);
            }
        }
        let id = LightpathId(self.lightpaths.len());
        self.lightpaths.push(lp);
        Ok(id)
    }

    /// Lightpaths whose fiber path traverses any of `cut` — the IP links
    /// that go dark when those fibers are cut.
    pub fn affected_lightpaths(&self, cut: &[FiberId]) -> Vec<LightpathId> {
        self.lightpaths
            .iter()
            .enumerate()
            .filter(|(_, lp)| lp.path.iter().any(|f| cut.contains(f)))
            .map(|(i, _)| LightpathId(i))
            .collect()
    }

    /// Spectrum availability for restoration after cutting `cut`:
    /// per-fiber masks where the failed lightpaths' own slots (on surviving
    /// fibers) have been released — their transponders go idle, freeing the
    /// spectrum they occupied.
    pub fn restoration_spectrum(&self, cut: &[FiberId]) -> Vec<SpectrumMask> {
        let mut masks: Vec<SpectrumMask> = self.fibers.iter().map(|f| f.spectrum.clone()).collect();
        for lp_id in self.affected_lightpaths(cut) {
            let lp = &self.lightpaths[lp_id.0];
            for &fid in &lp.path {
                if cut.contains(&fid) {
                    continue;
                }
                for &w in &lp.slots {
                    masks[fid.0].release(w);
                }
            }
        }
        masks
    }

    /// Upgrades every fiber to a C+L spectrum (Appendix A.10): the grid
    /// grows to `new_slots` slots, with existing C-band occupancy kept and
    /// the appended L-band slots free (to be noise-loaded). Returns the
    /// number of slots added per fiber.
    ///
    /// # Panics
    /// Panics if `new_slots` is smaller than the current grid — an L-band
    /// upgrade never shrinks spectrum.
    pub fn enable_l_band(&mut self, new_slots: usize) -> usize {
        assert!(
            new_slots >= self.num_slots,
            "C+L upgrade cannot shrink the grid ({} -> {new_slots})",
            self.num_slots
        );
        let added = new_slots - self.num_slots;
        for fiber in self.fibers.iter_mut() {
            fiber.spectrum.extend_to(new_slots);
        }
        self.num_slots = new_slots;
        added
    }

    /// The band a slot belongs to, given the C-band width `c_slots`.
    pub fn band_of(slot: usize, c_slots: usize) -> crate::spectrum::Band {
        if slot < c_slots {
            crate::spectrum::Band::C
        } else {
            crate::spectrum::Band::L
        }
    }

    /// Provisioned capacity (Gbps) riding each fiber — `W_φ` in §2.3.
    pub fn provisioned_gbps_per_fiber(&self) -> Vec<f64> {
        let mut cap = vec![0.0; self.fibers.len()];
        for lp in &self.lightpaths {
            for &fid in &lp.path {
                cap[fid.0] += lp.capacity_gbps();
            }
        }
        cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small triangle network with one lightpath A--B.
    fn triangle() -> (OpticalNetwork, Vec<RoadmId>, Vec<FiberId>) {
        let mut net = OpticalNetwork::new(8);
        let r = net.add_roadms(3);
        let fab = net.add_fiber(r[0], r[1], 100.0).unwrap();
        let fbc = net.add_fiber(r[1], r[2], 150.0).unwrap();
        let fca = net.add_fiber(r[2], r[0], 200.0).unwrap();
        (net, r, vec![fab, fbc, fca])
    }

    #[test]
    fn build_and_query() {
        let (net, r, f) = triangle();
        assert_eq!(net.num_roadms(), 3);
        assert_eq!(net.num_fibers(), 3);
        assert_eq!(net.incident_fibers(r[0]).len(), 2);
        assert_eq!(net.fiber(f[0]).other_end(r[0]), r[1]);
        assert_eq!(net.path_length_km(&[f[0], f[1]]), 250.0);
    }

    #[test]
    fn provision_occupies_spectrum_end_to_end() {
        let (mut net, r, f) = triangle();
        let id = net
            .provision(Lightpath {
                src: r[0],
                dst: r[2],
                path: vec![f[0], f[1]],
                slots: vec![0, 1],
                gbps_per_wavelength: 200.0,
            })
            .unwrap();
        assert_eq!(net.lightpath(id).capacity_gbps(), 400.0);
        assert!(net.fiber(f[0]).spectrum.is_occupied(0));
        assert!(net.fiber(f[1]).spectrum.is_occupied(1));
        assert!(net.fiber(f[2]).spectrum.is_free(0));
    }

    #[test]
    fn provision_rejects_collisions() {
        let (mut net, r, f) = triangle();
        net.provision(Lightpath {
            src: r[0],
            dst: r[1],
            path: vec![f[0]],
            slots: vec![3],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        let err = net
            .provision(Lightpath {
                src: r[0],
                dst: r[2],
                path: vec![f[0], f[1]],
                slots: vec![3],
                gbps_per_wavelength: 100.0,
            })
            .unwrap_err();
        assert_eq!(err, OpticalError::SlotOccupied { fiber: f[0].0, slot: 3 });
        // And nothing was partially occupied on fiber 1.
        assert!(net.fiber(f[1]).spectrum.is_free(3));
    }

    #[test]
    fn provision_rejects_slots_off_the_grid_and_listed_twice() {
        let (mut net, r, f) = triangle();
        let mut lp = Lightpath {
            src: r[0],
            dst: r[1],
            path: vec![f[0]],
            slots: vec![2, 8],
            gbps_per_wavelength: 100.0,
        };
        // Slot 8 of an 8-slot grid used to reach `SpectrumMask`'s assert.
        let err = net.provision(lp.clone()).unwrap_err();
        assert_eq!(err, OpticalError::SlotOutOfRange { slot: 8, num_slots: 8 });
        lp.slots = vec![2, 2];
        let err = net.provision(lp).unwrap_err();
        assert_eq!(err, OpticalError::SlotOccupied { fiber: f[0].0, slot: 2 });
        assert_eq!(net.fiber(f[0]).spectrum.occupied_count(), 0, "nothing partially occupied");
    }

    #[test]
    fn broken_paths_rejected() {
        let (mut net, r, f) = triangle();
        let err = net
            .provision(Lightpath {
                src: r[0],
                dst: r[2],
                path: vec![f[1]], // does not start at r0
                slots: vec![0],
                gbps_per_wavelength: 100.0,
            })
            .unwrap_err();
        assert_eq!(err, OpticalError::BrokenPath);
    }

    #[test]
    fn affected_lightpaths_and_release() {
        let (mut net, r, f) = triangle();
        net.provision(Lightpath {
            src: r[0],
            dst: r[2],
            path: vec![f[0], f[1]],
            slots: vec![0],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        net.provision(Lightpath {
            src: r[2],
            dst: r[0],
            path: vec![f[2]],
            slots: vec![1],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        let affected = net.affected_lightpaths(&[f[1]]);
        assert_eq!(affected, vec![LightpathId(0)]);
        // After cutting f1, the failed lightpath's slot on f0 is released.
        let masks = net.restoration_spectrum(&[f[1]]);
        assert!(masks[f[0].0].is_free(0));
        // The healthy lightpath on f2 keeps its slot.
        assert!(masks[f[2].0].is_occupied(1));
    }

    #[test]
    fn l_band_upgrade_expands_all_fibers() {
        let (mut net, r, f) = triangle();
        net.provision(Lightpath {
            src: r[0],
            dst: r[1],
            path: vec![f[0]],
            slots: vec![0, 1],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        let before_free = net.fiber(f[0]).spectrum.free_count();
        let added = net.enable_l_band(16);
        assert_eq!(added, 8);
        assert_eq!(net.num_slots(), 16);
        assert!(net.fiber(f[0]).spectrum.is_occupied(0), "C-band data kept");
        assert_eq!(net.fiber(f[0]).spectrum.free_count(), before_free + 8);
        // New lightpaths may use L-band slots end-to-end.
        net.provision(Lightpath {
            src: r[0],
            dst: r[2],
            path: vec![f[2]],
            slots: vec![12],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        assert_eq!(OpticalNetwork::band_of(3, 8), crate::spectrum::Band::C);
        assert_eq!(OpticalNetwork::band_of(12, 8), crate::spectrum::Band::L);
    }

    #[test]
    fn provisioned_capacity_per_fiber() {
        let (mut net, r, f) = triangle();
        net.provision(Lightpath {
            src: r[0],
            dst: r[2],
            path: vec![f[0], f[1]],
            slots: vec![0, 1, 2],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        let cap = net.provisioned_gbps_per_fiber();
        assert_eq!(cap, vec![300.0, 300.0, 0.0]);
    }
}
