//! TE schemes: the paper's comparison set (§6).
//!
//! * [`ecmp`] — equal split over tunnels, failure-oblivious baseline \[21\].
//! * [`maxflow`] — throughput-maximal LP, failure-oblivious.
//! * [`ffc`] — Forward Fault Correction \[63\]: zero loss under any `k`
//!   simultaneous fiber cuts.
//! * [`teavar`] — TeaVaR \[17\]: CVaR_β hedging over probabilistic scenarios.
//! * [`arrow`] — the paper's contribution: restoration-aware two-phase TE
//!   over LotteryTickets, plus ARROW-Naive.
//! * [`joint`] — the intractable joint IP/optical formulation (Appendix
//!   A.4/A.5): size accounting for Table 8 and an exact reference solvable
//!   only on toy instances.
//!
//! Every scheme implements [`TeScheme`], producing a [`SchemeOutput`]: the
//! allocation plus (for restoration-aware schemes) the restoration plan the
//! playback engine applies per scenario.

pub mod arrow;
pub mod ecmp;
pub mod ffc;
pub mod joint;
pub mod maxflow;
pub mod teavar;

use crate::alloc::TeAllocation;
use crate::restoration::RestorationTicket;
use crate::tunnels::{DirLink, TeInstance};
use arrow_lp::{LinExpr, Model, Objective, Sense, VarId};

/// Output of one TE solve.
#[derive(Debug, Clone)]
pub struct SchemeOutput {
    /// The bandwidth allocation.
    pub alloc: TeAllocation,
    /// Restoration plan per scenario (aligned with `inst.scenarios`), when
    /// the scheme is restoration-aware; `None` means fiber cuts are fatal.
    pub restoration: Option<Vec<RestorationTicket>>,
}

/// A traffic-engineering scheme.
pub trait TeScheme {
    /// Display name (used in reports and EXPERIMENTS.md tables).
    fn name(&self) -> String;
    /// Computes allocations for the instance.
    fn solve(&self, inst: &TeInstance) -> SchemeOutput;
}

/// Shared LP skeleton: variables `b_f ∈ [0, d_f]`, `a_{f,t} ≥ 0`, the
/// standard constraints (1)–(3) of Table 2, and the `max Σ b_f` objective.
#[derive(Debug, Clone)]
pub(crate) struct BaseModel {
    pub model: Model,
    /// `b_f` variables, indexed by flow.
    pub b: Vec<VarId>,
    /// `a_{f,t}` variables, indexed by tunnel.
    pub a: Vec<VarId>,
}

pub(crate) fn base_model(inst: &TeInstance) -> BaseModel {
    let mut model = Model::new();
    let b: Vec<VarId> = inst.flows.iter().map(|f| model.add_var(0.0, f.demand_gbps)).collect();
    let a: Vec<VarId> = inst.tunnels.iter().map(|_| model.add_nonneg()).collect();
    // (1) Σ_{t ∈ T_f} a_{f,t} ≥ b_f
    for (i, f) in inst.flows.iter().enumerate() {
        let mut e = LinExpr::sum_vars(f.tunnels.iter().map(|&t| a[t.0]));
        e.add_term(b[i], -1.0);
        model.add_con(e, Sense::Ge, 0.0);
    }
    // (2) per directed link: Σ a_{f,t} L[t,e] ≤ c_e
    for key in inst.used_dir_links() {
        let DirLink(link, fwd) = key;
        let cap = inst.wan.link(link).capacity_gbps;
        model.add_con(
            LinExpr::sum_vars(inst.tunnels_on(link, fwd).map(|t| a[t.0])),
            Sense::Le,
            cap,
        );
    }
    // Objective: maximize network throughput.
    model.set_objective(LinExpr::sum_vars(b.iter().copied()), Objective::Maximize);
    BaseModel { model, b, a }
}

/// Extracts an allocation from a solved base model.
pub(crate) fn extract_alloc(
    inst: &TeInstance,
    base: &BaseModel,
    sol: &arrow_lp::Solution,
    scheme: &str,
) -> TeAllocation {
    TeAllocation {
        b: base.b.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        a: base.a.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        scheme: scheme.to_string(),
        solve_seconds: sol.stats.solve_seconds,
    }
    .repaired(inst)
    .clamped(inst)
}

impl TeAllocation {
    /// Clamps `b_f` to demand (guards against solver tolerance overshoot).
    pub(crate) fn clamped(mut self, inst: &TeInstance) -> Self {
        for (i, f) in inst.flows.iter().enumerate() {
            self.b[i] = self.b[i].min(f.demand_gbps);
        }
        self
    }

    /// Restores capacity feasibility after an approximate solve (the
    /// first-order backend converges to a tolerance): if any directed link
    /// is oversubscribed, every allocation is scaled down uniformly by the
    /// worst overload factor — which preserves all covering constraints.
    pub(crate) fn repaired(mut self, inst: &TeInstance) -> Self {
        let mut rho: f64 = 1.0;
        for key in inst.used_dir_links() {
            let DirLink(link, fwd) = key;
            let load: f64 = inst.tunnels_on(link, fwd).map(|t| self.a[t.0]).sum();
            let cap = inst.wan.link(link).capacity_gbps;
            if cap > 0.0 {
                rho = rho.max(load / cap);
            }
        }
        if rho > 1.0 + 1e-9 {
            for v in self.a.iter_mut().chain(self.b.iter_mut()) {
                *v /= rho;
            }
        }
        self
    }
}
