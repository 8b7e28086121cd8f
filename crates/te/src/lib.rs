//! # arrow-te — traffic engineering substrate and algorithms
//!
//! The IP-layer half of the ARROW reproduction: tunnels and TE instances
//! (Table 1's standard input), the comparison schemes of §6 (ECMP, MaxFlow,
//! FFC-1/2, TeaVaR), the paper's restoration-aware two-phase ARROW TE
//! (Tables 2 & 3) plus ARROW-Naive, the intractable joint IP/optical
//! formulation's size accounting (Tables 7–9), and the playback/metric
//! engine computing availability, throughput, availability-guaranteed
//! throughput, and the router-port cost model (§6.1–§6.3).
//!
//! LotteryTicket *generation* (Algorithm 1) lives in `arrow-core`; this
//! crate consumes tickets as plain data ([`restoration::TicketSet`]).

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

pub mod alloc;
pub mod eval;
mod index;
pub mod restoration;
pub mod schemes;
pub mod tunnels;

pub use alloc::TeAllocation;
pub use restoration::{RestorationTicket, TicketSet};
pub use schemes::arrow::{Arrow, ArrowNaive, ArrowOnline, ArrowOutcome};
pub use schemes::ecmp::Ecmp;
pub use schemes::ffc::Ffc;
pub use schemes::joint::{joint_formulation_size, JointSize};
pub use schemes::maxflow::MaxFlow;
pub use schemes::teavar::TeaVar;
pub use schemes::{SchemeOutput, TeScheme};
pub use tunnels::{
    build_instance, DirLink, DirectedHop, Flow, FlowId, TeInstance, Tunnel, TunnelConfig, TunnelId,
};
