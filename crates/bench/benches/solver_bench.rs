//! Criterion micro-benchmarks of the LP substrate: the simplex and PDHG
//! backends on TE-shaped problems, the restoration RWA, and ARROW's
//! two-phase solve. These are the building blocks behind the Fig. 15
//! runtime numbers.

use arrow_core::{generate_tickets, LotteryConfig};
use arrow_lp::{Backend, SolverConfig};
use arrow_te::{build_instance, Arrow, MaxFlow, TeScheme, TunnelConfig};
use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_te_lp_backends(c: &mut Criterion) {
    let wan = b4(17);
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 8, ..Default::default() });
    let inst = build_instance(
        &wan,
        &tms[0],
        failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
    );
    let mut group = c.benchmark_group("te_lp");
    group.sample_size(10);
    group.bench_function("maxflow_simplex_b4", |b| {
        b.iter(|| {
            let mut scheme = MaxFlow::default();
            scheme.solver.backend = Backend::Simplex;
            std::hint::black_box(scheme.solve(&inst));
        })
    });
    group.bench_function("maxflow_pdhg_b4", |b| {
        b.iter(|| {
            let scheme = MaxFlow { solver: SolverConfig::first_order(1e-6) };
            std::hint::black_box(scheme.solve(&inst));
        })
    });
    group.finish();
}

fn bench_rwa(c: &mut Criterion) {
    let wan = b4(17);
    let mut group = c.benchmark_group("rwa");
    group.sample_size(10);
    group.bench_function("relaxed_rwa_single_cut_b4", |b| {
        b.iter(|| {
            std::hint::black_box(arrow_optical::solve_relaxed(
                &wan.optical,
                &[arrow_optical::FiberId(0)],
                &arrow_optical::RwaConfig::default(),
            ));
        })
    });
    group.bench_function("greedy_assign_single_cut_b4", |b| {
        b.iter(|| {
            std::hint::black_box(arrow_optical::greedy_assign(
                &wan.optical,
                &[arrow_optical::FiberId(0)],
                &arrow_optical::RwaConfig::default(),
                None,
            ));
        })
    });
    group.finish();
}

fn bench_arrow_two_phase(c: &mut Criterion) {
    let wan = b4(17);
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 6, ..Default::default() });
    let inst = build_instance(
        &wan,
        &tms[0],
        failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
    );
    let (tickets, _) = generate_tickets(
        &wan,
        &inst.scenarios,
        &LotteryConfig { num_tickets: 8, ..Default::default() },
    );
    let mut group = c.benchmark_group("arrow");
    group.sample_size(10);
    group.bench_function("two_phase_b4_8_tickets", |b| {
        let arrow = Arrow::new(tickets.clone());
        b.iter(|| std::hint::black_box(arrow.solve(&inst)))
    });
    group.finish();
}

criterion_group!(benches, bench_te_lp_backends, bench_rwa, bench_arrow_two_phase);
criterion_main!(benches);
