//! # arrow-optical — the optical-layer substrate
//!
//! Models the bottom half of the ARROW system (the paper's Fig. 1/Fig. 2
//! optical view): ROADM sites connected by fibers, per-fiber DWDM spectrum
//! occupancy, provisioned lightpaths (the optical realization of IP links),
//! transponder modulation reach (Table 6), surrogate-path routing (Yen's
//! k-shortest paths), and the restoration Routing-and-Wavelength-Assignment
//! formulation of Appendix A.2 with both an LP relaxation (the seed for
//! LotteryTicket randomized rounding) and an exact greedy assigner (the
//! ticket feasibility filter and the ARROW-Naive restoration plan).
//!
//! Analyses built on top reproduce the paper's measurement methodology:
//! restoration ratios (Fig. 6), restoration-path inflation (Fig. 17) and
//! ROADM reconfiguration counts (Fig. 19).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Product policy (DESIGN.md § Static analysis): library code neither
// panics nor touches hash-ordered or wall-clock types; tests may.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::allow_attributes_without_reason
    )
)]

pub mod graph;
pub mod ksp;
pub mod modulation;
pub mod restoration;
pub mod rwa;
pub mod spectrum;

pub use graph::{Fiber, FiberId, Lightpath, LightpathId, OpticalError, OpticalNetwork, RoadmId};
pub use ksp::{k_shortest_paths, shortest_path, FiberPath};
pub use modulation::{ModulationRow, ModulationTable};
pub use restoration::{
    all_single_cut_ratios, empirical_cdf, path_inflation_analysis, roadm_reconfig_count,
    PathInflation, RestorationRatio, RoadmReconfigCount,
};
pub use rwa::{
    greedy_assign, is_feasible, solve_relaxed, ExactAssignment, LinkRestoration, RwaConfig,
    RwaSolution,
};
pub use spectrum::{Band, SpectrumMask, DEFAULT_SLOTS};
