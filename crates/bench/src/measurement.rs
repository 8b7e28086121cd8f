//! Measurement section (§2, Appendix A.7/A.8): seeded synthetic telemetry
//! and the generated Facebook-like fiber plant.

use arrow_optical::SpectrumMask;
use arrow_topology::telemetry::{
    downtime_share, generate_tickets, monthly_wavelength_deployments, RootCause,
};

use crate::{share, Ctx, Report, Topology};

/// Fig. 3 — analysis of 600 WAN failure tickets: repair-time CDF per root
/// cause (a) and share of total downtime (b).
///
/// Paper: 50% of fiber-cut events last longer than 9 h, 10% last over a
/// day, and fiber cuts account for 67% of total downtime.
pub(crate) fn fig03(_: &Ctx, r: &mut Report) {
    let tickets = generate_tickets(600, 7);

    // (a) repair-time CDF per cause.
    for cause in RootCause::ALL {
        let hours: Vec<f64> =
            tickets.iter().filter(|t| t.cause == cause).map(|t| t.repair_hours).collect();
        r.cdf(&format!("repair hours [{}]", cause.label()), &hours, 10);
    }

    // (b) downtime share per cause.
    writeln!(r, "\ndowntime share by root cause:");
    let shares = downtime_share(&tickets);
    for (cause, share) in &shares {
        writeln!(r, "  {:<12} {:>6.1}%", cause.label(), r.n(share * 100.0));
    }

    let mut cut_hours: Vec<f64> =
        tickets.iter().filter(|t| t.cause == RootCause::FiberCut).map(|t| t.repair_hours).collect();
    cut_hours.sort_by(|a, b| a.total_cmp(b));
    let median = cut_hours[cut_hours.len() / 2];
    let over_day = share(&cut_hours, |&h| h > 24.0);
    let cut_share =
        shares.iter().find(|(c, _)| *c == RootCause::FiberCut).map(|&(_, s)| s).unwrap();
    r.summary(
        "cuts: median repair 9 h, 10% > 24 h, 67% of downtime",
        &format!(
            "cuts: median repair {:.1} h, {:.0}% > 24 h, {:.0}% of downtime",
            r.n(median),
            r.n(over_day * 100.0),
            r.n(cut_share * 100.0)
        ),
    );
}

/// Fig. 4 — impact of fiber cuts on IP-layer capacity: lost-capacity time
/// series for the worst site pairs (a) and CDF of lost capacity per cut (b).
///
/// Paper: ~16 cut events/month; individual events cost up to 8 Tbps.
pub(crate) fn fig04(_: &Ctx, r: &mut Report) {
    // Three years of cuts at the paper's observed rate.
    let months = 36;
    let tickets = generate_tickets(16 * months, 11);
    let cuts: Vec<f64> = tickets
        .iter()
        .filter(|t| t.cause == RootCause::FiberCut && t.lost_capacity_gbps > 0.0)
        .map(|t| t.lost_capacity_gbps)
        .collect();

    // (a) monthly time series (sum of event losses per month as a proxy
    // for the per-site-pair series).
    writeln!(r, "monthly lost-capacity series (Gbps):");
    let per_month = cuts.len() / months;
    for m in 0..months {
        let lo = m * per_month;
        let hi = ((m + 1) * per_month).min(cuts.len());
        let peak = cuts[lo..hi].iter().fold(0.0f64, |a, &b| a.max(b));
        writeln!(r, "  month {:>2}: peak event {:>7.0} Gbps", m + 1, r.n(peak));
    }

    // (b) CDF of lost capacity per event.
    r.cdf("\nlost capacity per cut event (Gbps)", &cuts, 10);

    let max = cuts.iter().fold(0.0f64, |a, &b| a.max(b));
    r.summary(
        "events cost up to 8 Tbps of IP capacity",
        &format!("max event loss {:.1} Tbps across {} cut events", r.n(max / 1000.0), cuts.len()),
    );
}

/// Fig. 5 — spectrum utilization of the (Facebook-like) fiber plant.
///
/// Paper: 95% of fibers have spectrum utilization below 60%, i.e. at least
/// 40% spare room for wavelength reconfiguration. Part (b)'s continuity
/// effect (available ≠ usable spectrum) is demonstrated on three fibers.
pub(crate) fn fig05(_: &Ctx, r: &mut Report) {
    let wan = Topology::Facebook.wan();
    let utils: Vec<f64> =
        wan.optical.fibers().iter().map(|f| f.spectrum.utilization() * 100.0).collect();
    r.cdf("spectrum utilization (%)", &utils, 10);
    let below60 = share(&utils, |&u| u < 60.0);

    // Fig. 5b: wavelength continuity shrinks usable spectrum.
    writeln!(r, "\ncontinuity effect (Fig. 5b): three fibers, each 75% available:");
    let mut a = SpectrumMask::new(4);
    let mut b = SpectrumMask::new(4);
    let mut c = SpectrumMask::new(4);
    a.occupy(0);
    b.occupy(1);
    c.occupy(2);
    let usable = a.free_intersection(&b).free_intersection(&c);
    writeln!(
        r,
        "  per-fiber availability 75%; end-to-end usable: {:.0}% (slots {:?})",
        r.n(100.0 * usable.free_count() as f64 / 4.0),
        usable.free_slots().collect::<Vec<_>>()
    );

    r.summary(
        "95% of fibers below 60% utilization",
        &format!("{:.0}% of fibers below 60% utilization", r.n(below60 * 100.0)),
    );
}

/// Fig. 21 — monthly wavelength deployments (Nov 2019 – Apr 2021), with
/// the COVID-19 surge from March 2020.
pub(crate) fn fig21(_: &Ctx, r: &mut Report) {
    let months = 18; // Nov 2019 .. Apr 2021
    let series = monthly_wavelength_deployments(months, 5, 3);
    for (m, count) in series.iter().enumerate() {
        let bar = "#".repeat(count / 12);
        writeln!(r, "  month {:>2}: {:>4} {}", m + 1, count, bar);
    }
    let before: f64 = series[..5].iter().sum::<usize>() as f64 / 5.0;
    let after: f64 = series[5..].iter().sum::<usize>() as f64 / (months - 5) as f64;
    r.summary(
        "deployments increase markedly after the surge month",
        &format!(
            "mean {:.0}/month before vs {:.0}/month after ({:.1}x)",
            r.n(before),
            r.n(after),
            r.n(after / before)
        ),
    );
}

/// Fig. 22 — the IP↔optical mapping distributions guiding IP-layer
/// generation: (a) IP links per fiber, (b) wavelengths per IP link.
///
/// Paper: the IP topology is denser than the optical topology; most IP
/// links carry a handful of wavelengths with a heavy tail.
pub(crate) fn fig22(_: &Ctx, r: &mut Report) {
    let wan = Topology::Facebook.wan();
    let per_fiber: Vec<f64> = wan.ip_links_per_fiber().iter().map(|&c| c as f64).collect();
    let per_link: Vec<f64> = wan.wavelengths_per_link().iter().map(|&c| c as f64).collect();
    r.cdf("IP links per fiber", &per_fiber, 10);
    r.cdf("wavelengths per IP link", &per_link, 10);
    let mean_lpf = per_fiber.iter().sum::<f64>() / per_fiber.len() as f64;
    let mean_wpl = per_link.iter().sum::<f64>() / per_link.len() as f64;
    r.summary(
        "IP layer denser than optical; wavelength counts heavy-tailed",
        &format!(
            "mean {:.1} IP links/fiber ({} links over {} fibers); mean {:.1} λ/IP link (max {:.0})",
            r.n(mean_lpf),
            wan.num_links(),
            wan.optical.num_fibers(),
            r.n(mean_wpl),
            r.n(per_link.iter().fold(0.0f64, |a, &b| a.max(b))),
        ),
    );
}
