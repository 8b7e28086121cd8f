//! Testbed (§5, Fig. 10–12, Fig. 20) on the discrete-event simulator.

use arrow_sim::{build_testbed, restoration_trial, AmplifierChain, AmplifierParams, RoadmParams};

use crate::{Ctx, Report};

/// Fig. 11 — the end-to-end fiber-cut restoration trial on the §5 testbed:
/// cutting fiber C–D takes down 3 IP links / 14 wavelengths / 2.8 Tbps;
/// ARROW reconfigures them onto surrogate paths.
pub(crate) fn fig11(_: &Ctx, r: &mut Report) {
    let tb = build_testbed().expect("Fig. 10 testbed is self-consistent");
    writeln!(r, "healthy IP links:");
    for (i, lp) in tb.net.lightpaths().iter().enumerate() {
        writeln!(
            r,
            "  link {}: {:?} ↔ {:?}  {} λ × {:.0}G = {:.1} Tbps over {} fiber(s)",
            i,
            lp.src,
            lp.dst,
            lp.wavelength_count(),
            r.n(lp.gbps_per_wavelength),
            r.n(lp.capacity_gbps() / 1000.0),
            lp.path.len()
        );
    }
    let cut = tb.fibers[3];
    let affected = tb.net.affected_lightpaths(&[cut]);
    writeln!(r, "\ncutting fiber C–D: {} IP links fail", affected.len());
    let trial = restoration_trial(&tb, cut, true, &RoadmParams::default());
    writeln!(
        r,
        "restored {:.0} of {:.0} Gbps via surrogate paths in {:.1} s",
        r.n(trial.restored_gbps),
        r.n(trial.lost_gbps),
        r.n(trial.total_latency_s)
    );
    r.summary(
        "3 IP links fail; 2.8 Tbps reconfigured onto healthy fibers",
        &format!(
            "{} links fail; {:.1} of {:.1} Tbps restored",
            affected.len(),
            r.n(trial.restored_gbps / 1000.0),
            r.n(trial.lost_gbps / 1000.0)
        ),
    );
    assert_eq!(affected.len(), 3);
    assert_eq!(trial.lost_gbps, 2800.0);
}

/// Fig. 12 — end-to-end restoration latency: state-of-the-art amplifier
/// reconfiguration vs ARROW's noise loading.
///
/// Paper: 1,021 s (≈17 min) legacy vs 8 s with ARROW — 127× faster; the
/// existing wavelengths on the surrogate fibers are unaffected.
pub(crate) fn fig12(_: &Ctx, r: &mut Report) {
    let tb = build_testbed().expect("Fig. 10 testbed is self-consistent");
    let params = RoadmParams::default();
    let legacy = restoration_trial(&tb, tb.fibers[3], false, &params);
    let arrow = restoration_trial(&tb, tb.fibers[3], true, &params);

    for (label, trial) in [("legacy", &legacy), ("ARROW", &arrow)] {
        writeln!(r, "{label} restoration timeline:");
        for p in &trial.timeline {
            writeln!(r, "  t={:8.1}s  restored {:6.0} Gbps", r.n(p.time_s), r.n(p.restored_gbps));
        }
        writeln!(r, "  -> total {:.1} s\n", r.n(trial.total_latency_s));
    }
    let ratio = legacy.total_latency_s / arrow.total_latency_s;
    r.summary(
        "legacy 1,021 s vs ARROW 8 s (127x)",
        &format!(
            "legacy {:.0} s vs ARROW {:.1} s ({:.0}x)",
            r.n(legacy.total_latency_s),
            r.n(arrow.total_latency_s),
            r.n(ratio)
        ),
    );
    assert!(arrow.total_latency_s < 15.0);
    assert!(ratio > 50.0);
}

/// Fig. 20 — legacy wavelength reconfiguration is slow: amplifiers adjust
/// power with observe–analyze–act loops across a 2,000 km, 24-amplifier
/// path, taking ~14 minutes.
pub(crate) fn fig20(_: &Ctx, r: &mut Report) {
    let chain = AmplifierChain::for_length(2000.0, 84.0, AmplifierParams::default());
    writeln!(r, "amplifier sites: {}", chain.sites);
    writeln!(r, "normalized output power over time:");
    for (t, p) in chain.power_staircase(0.0) {
        let bar = "#".repeat((p * 40.0) as usize);
        writeln!(r, "  t={:6.0}s  {:>5.2} {}", r.n(t), r.n(p), bar);
    }
    let total_min = chain.total_convergence_seconds() / 60.0;
    r.summary(
        "4 wavelengths over 24 amplifier sites: 14 minutes",
        &format!("{} sites converge in {:.1} minutes", chain.sites, r.n(total_min)),
    );
    assert!((10.0..20.0).contains(&total_min));
}
