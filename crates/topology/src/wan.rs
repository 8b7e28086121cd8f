//! Cross-layer WAN model: IP links over optical lightpaths.
//!
//! A [`Wan`] couples the IP layer (datacenter sites and IP links, the TE's
//! view) with the optical layer (`arrow_optical::OpticalNetwork`). Every IP
//! link is realized by exactly one lightpath (a port-channel worth of
//! wavelengths riding one fiber path, Fig. 1), so cutting a fiber maps
//! directly to a set of failed IP links.

use arrow_optical::{FiberId, LightpathId, OpticalNetwork, RoadmId};

/// Identifier of an IP-layer site (a datacenter/router location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

/// Identifier of an IP link (a router port-channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpLinkId(pub usize);

/// An IP link between two sites, realized by one lightpath.
#[derive(Debug, Clone)]
pub struct IpLink {
    /// One endpoint.
    pub a: SiteId,
    /// The other endpoint.
    pub b: SiteId,
    /// The optical lightpath realizing this link.
    pub lightpath: LightpathId,
    /// Capacity in Gbps (per direction; links are full-duplex).
    pub capacity_gbps: f64,
}

impl IpLink {
    /// The endpoint opposite `s`.
    ///
    /// Calling this with a site that is not an endpoint is a caller bug;
    /// debug builds assert, release builds return `a` (callers only reach
    /// this through a site's own incident-link lists, so the precondition
    /// holds by construction).
    pub fn other_end(&self, s: SiteId) -> SiteId {
        debug_assert!(s == self.a || s == self.b, "site {s:?} is not an endpoint of this IP link");
        if s == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// The two-layer WAN.
#[derive(Debug, Clone)]
pub struct Wan {
    /// Human-readable topology name (for reports).
    pub name: String,
    /// The optical layer.
    pub optical: OpticalNetwork,
    /// ROADM co-located with each site (index = site id).
    pub site_roadm: Vec<RoadmId>,
    /// IP links, indexable by [`IpLinkId`].
    pub links: Vec<IpLink>,
}

impl Wan {
    /// Number of IP-layer sites.
    pub fn num_sites(&self) -> usize {
        self.site_roadm.len()
    }

    /// Number of IP links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// One IP link.
    pub fn link(&self, id: IpLinkId) -> &IpLink {
        &self.links[id.0]
    }

    /// IP links incident to a site.
    pub fn incident_links(&self, s: SiteId) -> Vec<IpLinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a == s || l.b == s)
            .map(|(i, _)| IpLinkId(i))
            .collect()
    }

    /// IP links that fail when the given fibers are cut.
    pub fn links_failed_by(&self, cut: &[FiberId]) -> Vec<IpLinkId> {
        let failed_lps = self.optical.affected_lightpaths(cut);
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| failed_lps.contains(&l.lightpath))
            .map(|(i, _)| IpLinkId(i))
            .collect()
    }

    /// The IP link realized by a lightpath, if any.
    pub fn link_of_lightpath(&self, lp: LightpathId) -> Option<IpLinkId> {
        self.links.iter().position(|l| l.lightpath == lp).map(IpLinkId)
    }

    /// Total IP capacity in Gbps (sum over links, single direction).
    pub fn total_capacity_gbps(&self) -> f64 {
        self.links.iter().map(|l| l.capacity_gbps).sum()
    }

    /// Number of IP links riding each fiber (the Fig. 22a distribution).
    pub fn ip_links_per_fiber(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.optical.num_fibers()];
        for l in &self.links {
            for &f in &self.optical.lightpath(l.lightpath).path {
                counts[f.0] += 1;
            }
        }
        counts
    }

    /// Wavelengths per IP link (the Fig. 22b distribution).
    pub fn wavelengths_per_link(&self) -> Vec<usize> {
        self.links.iter().map(|l| self.optical.lightpath(l.lightpath).wavelength_count()).collect()
    }

    /// Sanity check: every site's ROADM exists, every link's site and
    /// lightpath ids are in range, its lightpath connects its sites' ROADMs
    /// and its capacity matches the lightpath. Returns a description of the
    /// first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let num_roadms = self.optical.num_roadms();
        if let Some((s, r)) = self.site_roadm.iter().enumerate().find(|(_, r)| r.0 >= num_roadms) {
            return Err(format!("site {s}: ROADM {} out of range ({num_roadms} ROADMs)", r.0));
        }
        for (i, l) in self.links.iter().enumerate() {
            let lp = (self.optical.lightpaths().get(l.lightpath.0))
                .ok_or_else(|| format!("link {i}: lightpath {} out of range", l.lightpath.0))?;
            let roadm = |s: SiteId| {
                (self.site_roadm.get(s.0).copied())
                    .ok_or_else(|| format!("link {i}: site {} out of range", s.0))
            };
            let (ra, rb) = (roadm(l.a)?, roadm(l.b)?);
            if !(lp.src == ra && lp.dst == rb || lp.src == rb && lp.dst == ra) {
                return Err(format!("link {i}: lightpath endpoints do not match sites"));
            }
            if (lp.capacity_gbps() - l.capacity_gbps).abs() > 1e-6 {
                return Err(format!(
                    "link {i}: capacity {} != lightpath capacity {}",
                    l.capacity_gbps,
                    lp.capacity_gbps()
                ));
            }
        }
        Ok(())
    }

    /// A one-line summary matching Table 4's columns.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} routers / {} ROADMs, {} fibers, {} IP links",
            self.name,
            self.num_sites(),
            self.optical.num_roadms(),
            self.optical.num_fibers(),
            self.num_links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrow_optical::Lightpath;

    fn tiny_wan() -> Wan {
        let mut net = OpticalNetwork::new(8);
        let r = net.add_roadms(3);
        let f01 = net.add_fiber(r[0], r[1], 100.0).unwrap();
        let f12 = net.add_fiber(r[1], r[2], 100.0).unwrap();
        let lp0 = net
            .provision(Lightpath {
                src: r[0],
                dst: r[1],
                path: vec![f01],
                slots: vec![0, 1],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
        let lp1 = net
            .provision(Lightpath {
                src: r[0],
                dst: r[2],
                path: vec![f01, f12],
                slots: vec![2],
                gbps_per_wavelength: 100.0,
            })
            .unwrap();
        Wan {
            name: "tiny".into(),
            optical: net,
            site_roadm: vec![r[0], r[1], r[2]],
            links: vec![
                IpLink { a: SiteId(0), b: SiteId(1), lightpath: lp0, capacity_gbps: 200.0 },
                IpLink { a: SiteId(0), b: SiteId(2), lightpath: lp1, capacity_gbps: 100.0 },
            ],
        }
    }

    #[test]
    fn fiber_cut_maps_to_ip_links() {
        let wan = tiny_wan();
        // Fiber 0 carries both links; fiber 1 only the express link.
        assert_eq!(wan.links_failed_by(&[FiberId(0)]).len(), 2);
        assert_eq!(wan.links_failed_by(&[FiberId(1)]), vec![IpLinkId(1)]);
    }

    #[test]
    fn validation_passes_and_stats_add_up() {
        let wan = tiny_wan();
        wan.validate().unwrap();
        assert_eq!(wan.total_capacity_gbps(), 300.0);
        assert_eq!(wan.ip_links_per_fiber(), vec![2, 1]);
        assert_eq!(wan.wavelengths_per_link(), vec![2, 1]);
        assert_eq!(wan.incident_links(SiteId(0)).len(), 2);
        assert_eq!(wan.link(IpLinkId(0)).other_end(SiteId(0)), SiteId(1));
    }

    #[test]
    fn validation_catches_capacity_mismatch() {
        let mut wan = tiny_wan();
        wan.links[0].capacity_gbps = 999.0;
        assert!(wan.validate().is_err());
    }

    #[test]
    fn validation_names_the_link_and_the_out_of_range_id() {
        // Each of these indexed out of bounds inside `validate` itself.
        let mut wan = tiny_wan();
        wan.links[1].a = SiteId(7);
        assert_eq!(wan.validate().unwrap_err(), "link 1: site 7 out of range");
        let mut wan = tiny_wan();
        wan.links[0].b = SiteId(3);
        assert_eq!(wan.validate().unwrap_err(), "link 0: site 3 out of range");
        let mut wan = tiny_wan();
        wan.links[1].lightpath = LightpathId(2);
        assert_eq!(wan.validate().unwrap_err(), "link 1: lightpath 2 out of range");
        let mut wan = tiny_wan();
        wan.site_roadm[2] = RoadmId(3);
        assert_eq!(wan.validate().unwrap_err(), "site 2: ROADM 3 out of range (3 ROADMs)");
    }

    #[test]
    fn summary_mentions_counts() {
        let s = tiny_wan().summary();
        assert!(s.contains("3 routers"));
        assert!(s.contains("2 fibers"));
        assert!(s.contains("2 IP links"));
    }
}
