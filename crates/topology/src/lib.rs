//! # arrow-topology — WAN topologies, demands, and failure scenarios
//!
//! The data substrate for the ARROW evaluation (§6): the three topologies
//! of Table 4 (B4, IBM, and a generated Facebook-like WAN) with their
//! cross-layer IP↔optical mapping, gravity-model traffic matrices with
//! diurnal variation, the Weibull fiber-cut scenario universe (one
//! enumerator for the paper's single and double cuts and for correlated
//! SRLG / maintenance / flapping failures), and seeded synthetic
//! operational telemetry matching the §2 measurement aggregates (failure
//! tickets, lost capacity, wavelength deployments).

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

pub mod builders;
pub mod distributions;
pub mod failures;
pub mod hash;
pub mod io;
pub mod telemetry;
pub mod traffic;
pub mod wan;

pub use builders::{b4, facebook_like, ibm, is_two_edge_connected, IpLayerConfig};
pub use failures::{
    compile_universe, generate_failures, CompiledScenario, FailureConfig, FailureScenario,
    ScenarioId, ScenarioSource, ScenarioUniverse, SrlgGroup, UniverseConfig, UniverseStats,
};
pub use io::Snapshot;
pub use traffic::{gravity_matrices, TrafficConfig, TrafficMatrix};
pub use wan::{IpLink, IpLinkId, SiteId, Wan};
