//! Property tests for the offline stage's numeric invariants.
//!
//! Two properties the paper's correctness argument leans on:
//!
//! * `round_once` (Algorithm 1 lines 4–11) always produces wavelength
//!   counts in `[0, γ_e]` — the round-up is capped by the lost-wavelength
//!   budget and the round-down floors at zero — for *any* fractional seed
//!   with `λ_e ≤ γ_e` (which `fractional_seed` guarantees).
//! * `realize_ticket` is grounded: the optical layer never credits a link
//!   with more Gbps than its ticket promised, so playback availability is
//!   conservative even for over-promising tickets.

use std::sync::OnceLock;

use arrow_core::lottery::{realize_ticket, round_once, FractionalRestoration, LotteryConfig};
use arrow_te::RestorationTicket;
use arrow_topology::{b4, generate_failures, FailureConfig, FailureScenario, IpLinkId, Wan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> &'static (Wan, Vec<FailureScenario>) {
    static FIXTURE: OnceLock<(Wan, Vec<FailureScenario>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let wan = b4(17);
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 6, ..Default::default() });
        let scens = failures.failure_scenarios();
        (wan, scens)
    })
}

proptest! {
    #[test]
    fn round_once_stays_within_gamma(
        // Per link: lost wavelengths γ_e and the RWA fraction of it that is
        // restorable (λ_e = frac · γ_e ≤ γ_e, as fractional_seed yields).
        links in proptest::collection::vec((0usize..=12, 0.0f64..=1.0), 1..8),
        delta in 1usize..5,
        rng_seed in any::<u64>(),
    ) {
        let seed: Vec<FractionalRestoration> = links
            .iter()
            .enumerate()
            .map(|(i, &(lost, frac))| FractionalRestoration {
                link: IpLinkId(i),
                wavelengths: frac * lost as f64,
                lost_wavelengths: lost,
                gbps_per_wavelength: 100.0,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for _ in 0..16 {
            let counts = round_once(&mut rng, &seed, delta);
            prop_assert_eq!(counts.len(), seed.len());
            for (f, &c) in seed.iter().zip(&counts) {
                prop_assert!(
                    c <= f.lost_wavelengths,
                    "count {} exceeds γ_e = {} (λ_e = {})",
                    c,
                    f.lost_wavelengths,
                    f.wavelengths
                );
            }
        }
    }

    #[test]
    fn realize_ticket_never_exceeds_the_promise(
        scenario_sel in 0usize..6,
        scales in proptest::collection::vec(0.0f64..=2.0, 16),
    ) {
        let (wan, scens) = fixture();
        let scen = &scens[scenario_sel % scens.len()];
        // Promise an arbitrary fraction (up to 2x!) of each failed link's
        // capacity; the realization must stay at or below every promise.
        let ticket = RestorationTicket {
            restored: scen
                .failed_links
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    (l, scales[i % scales.len()] * wan.link(l).capacity_gbps)
                })
                .collect(),
        };
        let cfg = LotteryConfig::default();
        let realized = realize_ticket(wan, scen, &ticket, &cfg.rwa);
        prop_assert_eq!(realized.restored.len(), ticket.restored.len());
        for (&(link, promised), &(rlink, got)) in
            ticket.restored.iter().zip(&realized.restored)
        {
            prop_assert_eq!(link, rlink);
            prop_assert!(got >= 0.0, "negative restoration on link {:?}", link);
            prop_assert!(
                got <= promised + 1e-9,
                "link {:?} realized {} > promised {}",
                link,
                got,
                promised
            );
        }
        prop_assert!(realized.total_gbps() <= ticket.total_gbps() + 1e-9);
    }
}
