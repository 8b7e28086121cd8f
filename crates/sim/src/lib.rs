//! # arrow-sim — discrete-event optical reconfiguration simulator
//!
//! The substitute for the paper's physical testbed (§5): an event-driven
//! model of what happens between a fiber cut and restored IP capacity.
//! Amplifier chains re-converge sequentially with observe–analyze–act
//! loops (Appendix A.7, Fig. 20); ROADMs reconfigure in two parallel
//! groups (Appendix A.6); ASE noise loading (§4) keeps every channel lit
//! so the amplifier stage vanishes. The Fig. 10 testbed (4 ROADMs, 34
//! amplifiers, 2,160 km) is built in [`testbed`] and reproduces the
//! Fig. 11/12 trial: 2.8 Tbps restored in ~8 s with noise loading vs
//! ~17 min without.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
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

pub mod amplifier;
mod event;
pub mod feed;
pub mod roadm;
pub mod testbed;

pub use amplifier::{AmplifierChain, AmplifierParams};
pub use feed::{EventFeed, FeedConfig, FeedEvent};
pub use roadm::RoadmParams;
pub use testbed::{build_testbed, restoration_trial, Testbed};
