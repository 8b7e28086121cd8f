//! # arrow-core — the paper's primary contribution
//!
//! ARROW's restoration-aware control plane (Fig. 8): the **LotteryTicket**
//! abstraction between the optical layer and the TE (§3.2), the Algorithm-1
//! randomized-rounding generator seeded by the relaxed RWA, the feasibility
//! filter, the Theorem 3.1 probabilistic-optimality calculator, and the
//! [`controller::ArrowController`] tying the offline stage (tickets) to the
//! online stage (two-phase TE, splitting ratios, ROADM reconfiguration
//! rules).
//!
//! The pieces compose like the paper's system diagram:
//!
//! ```text
//! IP/optical mapping ──► RWA relaxation ──► randomized rounding ──► LotteryTickets
//!                                                                       │ (offline)
//! traffic matrix ──► Phase I (pick winner) ──► Phase II (allocate) ──► ω_{f,t} + Z*
//!                                                                       │ (online)
//!                                              Z* ──► ROADM reconfiguration rules
//! ```

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

pub mod controller;
pub mod lottery;
pub mod par;
pub mod theorem;

pub use controller::{
    ArrowController, ControllerConfig, EpochHook, PlanError, ReconfigRule, TePlan,
};
pub use lottery::{
    derive_seed, fractional_seed, generate_tickets, generate_tickets_serial,
    generate_tickets_shard, generate_tickets_with_threads, naive_ticket, realize_ticket,
    FractionalRestoration, LotteryConfig, OfflineStats, ScenarioStats, ShardSpec,
};
pub use par::{default_threads, parallel_map};
pub use theorem::{
    kappa, optimality_probability, tickets_for_target, LinkRounding, RoundDirection,
};
