//! Restoration analyses (§2.3, Appendix A.1/A.6/A.10): what the optical
//! layer can give back after a cut, on the toy network of Fig. 7 and
//! across every single cut of the Facebook-like plant.

use arrow_optical::{
    is_feasible, path_inflation_analysis, roadm_reconfig_count, solve_relaxed, FiberId, Lightpath,
    OpticalNetwork, RwaConfig,
};

use crate::{share, single_cut_stats, Ctx, Report, Topology};

/// Fig. 6 — restoration ratio `U_φ = W'_φ / W_φ` of every fiber under all
/// single-cut scenarios, and its relation to provisioned capacity.
///
/// Paper: 34% of fibers fully restorable, 62% partially, 4% not at all;
/// fibers carrying > 10 Tbps are almost never fully restorable.
pub fn fig06(_: &Ctx, r: &mut Report) {
    let cuts = single_cut_stats(&Topology::Facebook.wan(), &RwaConfig::default());
    let ratios = &cuts.ratios;

    let pct: Vec<f64> = ratios.iter().map(|r| r.ratio() * 100.0).collect();
    r.cdf("restoration ratio (%)", &pct, 10);
    let partial = 1.0 - cuts.full - cuts.none;

    // (b) ratio vs provisioned capacity, bucketed.
    writeln!(r, "\nrestoration ratio vs provisioned capacity:");
    writeln!(r, "  {:>16} {:>10} {:>12}", "capacity bucket", "fibers", "mean ratio");
    for (lo, hi) in [(0.0, 1000.0), (1000.0, 3000.0), (3000.0, 6000.0), (6000.0, f64::INFINITY)] {
        let bucket: Vec<&_> =
            ratios.iter().filter(|r| r.provisioned_gbps >= lo && r.provisioned_gbps < hi).collect();
        if bucket.is_empty() {
            continue;
        }
        let mean: f64 = bucket.iter().map(|r| r.ratio()).sum::<f64>() / bucket.len() as f64;
        let label = if hi.is_finite() {
            format!("{:.0}-{:.0} Gbps", lo, hi)
        } else {
            format!("> {:.0} Gbps", lo)
        };
        writeln!(r, "  {:>16} {:>10} {:>11.0}%", label, bucket.len(), r.n(mean * 100.0));
    }

    r.summary(
        "34% full, 62% partial, 4% none; big fibers never fully restorable",
        &format!(
            "{:.0}% full, {:.0}% partial, {:.0}% none across {} fibers",
            r.n(cuts.full * 100.0),
            r.n(partial * 100.0),
            r.n(cuts.none * 100.0),
            ratios.len()
        ),
    );
}

/// Fig. 7 — several restoration candidates, equal at the optical layer,
/// unequal for throughput: the motivating example behind LotteryTickets.
///
/// Paper: with demands (100, 400) Gbps, candidates (200,300)/(100,400)/
/// (300,200) deliver 400/500/300 Gbps — only candidate 2 is optimal.
pub fn fig07(_: &Ctx, r: &mut Report) {
    // Build the Fig. 7 network: direct fiber with IP1 (4λ) + IP2 (8λ);
    // detours with 3 and 2 free end-to-end slots.
    let mut net = OpticalNetwork::new(16);
    let b = net.add_roadm();
    let c = net.add_roadm();
    let x = net.add_roadm();
    let y = net.add_roadm();
    let f_bc = net.add_fiber(b, c, 100.0).unwrap();
    let f_bx = net.add_fiber(b, x, 120.0).unwrap();
    let f_xc = net.add_fiber(x, c, 120.0).unwrap();
    let f_by = net.add_fiber(b, y, 140.0).unwrap();
    let f_yc = net.add_fiber(y, c, 140.0).unwrap();
    let mut light = |src, dst, fiber, slots: Vec<usize>| {
        let path = vec![fiber];
        net.provision(Lightpath { src, dst, path, slots, gbps_per_wavelength: 100.0 }).unwrap()
    };
    let ip1 = light(b, c, f_bc, (0..4).collect());
    let ip2 = light(b, c, f_bc, (4..12).collect());
    for w in 3..16 {
        light(b, x, f_bx, vec![w]);
        light(x, c, f_xc, vec![w]);
    }
    for w in 2..16 {
        light(b, y, f_by, vec![w]);
        light(y, c, f_yc, vec![w]);
    }

    let rwa = RwaConfig::default();
    let relaxed = solve_relaxed(&net, &[f_bc], &rwa);
    writeln!(
        r,
        "optical layer: {:.1} of 12 lost wavelengths restorable\n",
        r.n(relaxed.total_wavelengths)
    );
    writeln!(
        r,
        "{:>10} {:>12} {:>12} {:>10} {:>12}",
        "candidate", "IP1 (Gbps)", "IP2 (Gbps)", "feasible", "throughput"
    );
    let demands = (100.0f64, 400.0f64);
    let mut best = (0, 0.0);
    for (i, &(w1, w2)) in [(2usize, 3usize), (1, 4), (3, 2)].iter().enumerate() {
        let feasible = is_feasible(&net, &[f_bc], &rwa, &[(ip1, w1), (ip2, w2)]);
        let thr = demands.0.min(w1 as f64 * 100.0) + demands.1.min(w2 as f64 * 100.0);
        writeln!(
            r,
            "{:>10} {:>12} {:>12} {:>10} {:>12.0}",
            i + 1,
            w1 * 100,
            w2 * 100,
            feasible,
            r.n(thr)
        );
        if thr > best.1 {
            best = (i + 1, thr);
        }
    }
    r.summary(
        "candidate 2 wins with 500 Gbps (vs 400 and 300)",
        &format!("candidate {} wins with {:.0} Gbps", best.0, r.n(best.1)),
    );
    assert_eq!(best.0, 2);
}

/// Fig. 17 — restoration-path length inflation relative to primary paths,
/// with and without transponder frequency tuning (Appendix A.1).
///
/// Paper: ~50% of restoration paths are *shorter* than the primary path
/// (no modulation change needed), and all restoration paths stay below
/// 5,000 km (so every restored wavelength supports at least 100 Gbps).
pub fn fig17(_: &Ctx, r: &mut Report) {
    let wan = Topology::Facebook.wan();
    for (label, retune) in [("with frequency tuning", true), ("without frequency tuning", false)] {
        let cfg = RwaConfig { allow_retuning: retune, ..Default::default() };
        let infl = path_inflation_analysis(&wan.optical, &cfg);
        if infl.is_empty() {
            writeln!(r, "{label}: no restorable links");
            continue;
        }
        let ratios: Vec<f64> = infl.iter().map(|p| p.ratio()).collect();
        r.cdf(&format!("R-path / P-path length ratio ({label})"), &ratios, 10);
        let shorter = share(&ratios, |&x| x <= 1.0);
        let mut longest: Vec<f64> = infl.iter().map(|p| p.restoration_km).collect();
        longest.sort_by(|a, b| b.total_cmp(a));
        writeln!(
            r,
            "  {label}: {:.0}% of R-paths no longer than their P-path; top-10 longest R-paths (km): {:?}\n",
            r.n(shorter * 100.0),
            longest.iter().take(10).map(|k| r.n(k.round())).collect::<Vec<_>>()
        );
        if retune {
            let max = longest.first().copied().unwrap_or(0.0);
            r.summary(
                "≈50% of R-paths shorter than P-path; all < 5,000 km",
                &format!(
                    "{:.0}% shorter-or-equal; longest R-path {:.0} km",
                    r.n(shorter * 100.0),
                    r.n(max)
                ),
            );
            assert!(max < 5000.0, "restoration paths must respect modulation reach");
        }
    }
}

/// Fig. 19 — number of ROADMs that must be reconfigured per fiber cut,
/// split into add/drop vs intermediate (Appendix A.6).
///
/// Paper: for 80% of cuts, ≤10 add/drop and ≤6 intermediate ROADMs.
pub fn fig19(_: &Ctx, r: &mut Report) {
    let wan = Topology::Facebook.wan();
    let cfg = RwaConfig::default();
    let mut add_drop = Vec::new();
    let mut intermediate = Vec::new();
    for f in 0..wan.optical.num_fibers() {
        if wan.optical.affected_lightpaths(&[FiberId(f)]).is_empty() {
            continue;
        }
        let c = roadm_reconfig_count(&wan.optical, FiberId(f), &cfg);
        add_drop.push(c.add_drop as f64);
        intermediate.push(c.intermediate as f64);
    }
    r.cdf("add/drop ROADMs per cut", &add_drop, 10);
    r.cdf("intermediate ROADMs per cut", &intermediate, 10);
    let p80 = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        s[((s.len() - 1) as f64 * 0.8) as usize]
    };
    r.summary(
        "80% of cuts: ≤10 add/drop, ≤6 intermediate",
        &format!(
            "p80 add/drop {:.0}, p80 intermediate {:.0} across {} cuts",
            r.n(p80(&add_drop)),
            r.n(p80(&intermediate)),
            add_drop.len()
        ),
    );
}

/// Extension (Appendix A.10): C+L-band optical systems.
///
/// The paper argues ARROW extends smoothly to next-generation C+L systems:
/// the LotteryTicket abstraction is orthogonal to the transmission band,
/// and noise loading simply covers the L band too. This quantifies the
/// effect the upgrade has on restorability: doubling the usable spectrum
/// turns partially-restorable fibers into fully-restorable ones.
pub fn ext_cl(_: &Ctx, r: &mut Report) {
    let cfg = RwaConfig { allow_modulation_change: true, ..Default::default() };
    let wan_c = Topology::Facebook.wan();
    let mut wan_cl = wan_c.clone();
    let added = wan_cl.optical.enable_l_band(192);
    writeln!(
        r,
        "C band: {} slots; after upgrade: {} slots (+{added} L-band slots per fiber)\n",
        96,
        wan_cl.optical.num_slots()
    );
    let [c, cl] = [("C only ", &wan_c), ("C + L  ", &wan_cl)].map(|(name, wan)| {
        let cuts = single_cut_stats(wan, &cfg);
        writeln!(
            r,
            "{name}: mean restoration ratio {:.0}%, fully restorable fibers {:.0}%",
            r.n(cuts.mean * 100.0),
            r.n(cuts.full * 100.0)
        );
        cuts
    });
    r.summary(
        "L-band expansion raises restorable capacity (A.10 extension)",
        &format!(
            "mean ratio {:.0}% -> {:.0}%; fully restorable {:.0}% -> {:.0}%",
            r.n(c.mean * 100.0),
            r.n(cl.mean * 100.0),
            r.n(c.full * 100.0),
            r.n(cl.full * 100.0)
        ),
    );
    assert!(cl.mean >= c.mean - 1e-9, "more spectrum cannot hurt restorability");
    assert!(cl.full >= c.full - 1e-9);
}
