//! # arrow-wan — ARROW: Restoration-Aware Traffic Engineering
//!
//! A from-scratch Rust reproduction of *ARROW: Restoration-Aware Traffic
//! Engineering* (Zhong et al., SIGCOMM 2021): when a WAN fiber is cut, the
//! wavelengths it carried are reconfigured onto healthy surrogate fibers,
//! and the traffic-engineering controller decides — jointly with the
//! optical layer's constraints — *which* IP links to restore and by how
//! much.
//!
//! The workspace splits along the paper's architecture; this umbrella
//! crate re-exports everything for convenient use in tests and
//! downstream code:
//!
//! * [`lp`] — LP solver toolkit (simplex, PDHG).
//! * [`optical`] — fibers, spectrum, RWA, restoration analyses.
//! * [`topology`] — B4/IBM/Facebook-like WANs, demands, failure scenarios.
//! * [`te`] — TE schemes: ECMP, MaxFlow, FFC, TeaVaR, ARROW Phase I/II.
//! * [`core`] — LotteryTickets (Algorithm 1), Theorem 3.1, the controller.
//! * [`sim`] — event-driven restoration-latency simulator (the testbed).
//! * [`obs`] — structured tracing + metrics registry every crate emits
//!   into (`tests/online.rs` traces, scrapes and analyzes a full run).
//! * [`daemon`] — the `arrow serve` epoch loop: event-feed driven
//!   re-planning with a flight recorder, deadline-miss fallback, and
//!   chaos mode (soaked by `tests/serve.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use arrow_wan::prelude::*;
//!
//! // Build the B4 WAN, traffic, and probabilistic fiber-cut scenarios.
//! let wan = b4(17);
//! let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
//! let failures = generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
//!
//! // Offline: LotteryTickets; online: restoration-aware TE.
//! let mut controller = ArrowController::new(
//!     wan,
//!     failures.failure_scenarios(),
//!     ControllerConfig {
//!         lottery: LotteryConfig { num_tickets: 6, ..Default::default() },
//!         tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
//!         ..Default::default()
//!     },
//! );
//! let (plan, report) = controller.plan_epoch(&tms[0], None).expect("every scenario has tickets");
//! assert!(!report.warm, "the first epoch builds tunnels and the Phase I skeleton");
//! assert!(plan.outcome.output.alloc.total_admitted() > 0.0);
//! ```

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

pub mod daemon;

pub use arrow_core as core;
pub use arrow_lp as lp;
pub use arrow_obs as obs;
pub use arrow_optical as optical;
pub use arrow_sim as sim;
pub use arrow_te as te;
pub use arrow_topology as topology;

/// One-stop imports for tests and downstream code.
pub mod prelude {
    pub use crate::daemon::{serve, ChaosConfig, ServeConfig, ServeError, ServeReport};
    pub use arrow_core::{
        derive_seed, fractional_seed, generate_tickets, generate_tickets_serial,
        generate_tickets_shard, generate_tickets_with_threads, kappa, naive_ticket,
        optimality_probability, realize_ticket, tickets_for_target, ArrowController,
        ControllerConfig, LinkRounding, LotteryConfig, OfflineStats, PlanError, ReconfigRule,
        RoundDirection, ScenarioStats, ShardSpec, TePlan,
    };
    pub use arrow_lp::{
        Backend, LinExpr, Model, Objective, Sense, SolveStats, SolverConfig, WarmEvent, WarmStart,
    };
    pub use arrow_optical::{
        all_single_cut_ratios, empirical_cdf, greedy_assign, is_feasible, k_shortest_paths,
        path_inflation_analysis, roadm_reconfig_count, solve_relaxed, FiberId, Lightpath,
        LightpathId, OpticalNetwork, RoadmId, RwaConfig, SpectrumMask,
    };
    pub use arrow_sim::{
        build_testbed, restoration_trial, AmplifierChain, AmplifierParams, RoadmParams,
    };
    pub use arrow_te::{
        build_instance, eval::availability, eval::availability_guaranteed_throughput,
        eval::normalize_demand_scale, eval::play_scenario, eval::required_router_ports,
        eval::PlaybackConfig, Arrow, ArrowNaive, ArrowOnline, Ecmp, Ffc, FlowId, MaxFlow,
        RestorationTicket, SchemeOutput, TeInstance, TeScheme, TeaVar, TicketSet, TunnelConfig,
        TunnelId,
    };
    pub use arrow_topology::{
        b4, compile_universe, facebook_like, generate_failures, gravity_matrices, ibm,
        CompiledScenario, FailureConfig, FailureScenario, IpLink, IpLinkId, ScenarioId,
        ScenarioSource, ScenarioUniverse, SiteId, SrlgGroup, TrafficConfig, TrafficMatrix,
        UniverseConfig, UniverseStats, Wan,
    };
}
