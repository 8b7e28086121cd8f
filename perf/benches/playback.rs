//! `playback_b4`: one plan audited against the whole failure universe.
//!
//! A single `plan_epoch` at demand scale 3.0 yields the allocation; the
//! timed region plays it with `eval::play_scenario` against every
//! scenario of the `offline_b4` universe (each with its naive restoration
//! ticket) at 40 demand levels, row by row, until the time is up. No LP is
//! solved inside the timed region: this is the control workload for every
//! LP change, and the only place `te::eval`'s per-play maps show end to end.

use std::time::Instant;

use arrow_wan::prelude::*;

use crate::harness::{cpu_seconds, mean, seeded_order, Checks, Ledger, Timed, Tracer};
use crate::offline::universe_config;
use crate::online::{controller, pdhg};
use crate::Workload;

/// Demand levels: `instance.scaled(0.6 + 0.015·k)`, k in 0..40.
const DEMAND_POINTS: usize = 40;

pub struct Playback {
    universe: ScenarioUniverse,
    tickets: Vec<RestorationTicket>,
    plan: TePlan,
    /// The plan's instance at each demand level.
    rows: Vec<TeInstance>,
    /// The order this run visits the rows in, and how far it has come.
    order: Vec<usize>,
    visits: usize,
    /// Per row, from its first visit: probability-weighted satisfaction
    /// and the bit pattern of the plain sum (the repeat check).
    first_visit: Vec<Option<(f64, u64)>>,
}

impl Playback {
    pub fn build(seed: u64) -> Self {
        let wan = b4(17);
        let universe = compile_universe(&wan, &universe_config(0));
        let rwa = LotteryConfig::default().rwa;
        let tickets: Vec<RestorationTicket> =
            universe.scenarios.iter().map(|c| naive_ticket(&wan, &c.scenario, &rwa)).collect();

        let (mut ctl, tm) = controller(wan, pdhg());
        let (plan, _) = ctl.plan_epoch(&tm, None).expect("the audited plan");
        let rows: Vec<TeInstance> =
            (0..DEMAND_POINTS).map(|k| plan.instance.scaled(0.6 + 0.015 * k as f64)).collect();
        let w = Playback {
            universe,
            tickets,
            plan,
            rows,
            order: seeded_order(DEMAND_POINTS, seed),
            visits: 0,
            first_visit: vec![None; DEMAND_POINTS],
        };
        // Warm-up: two rows, not recorded.
        let mut discard = Checks::default();
        for row in 0..2 {
            w.play_row(row, 0, &mut Tracer::new(false), &mut discard);
        }
        w
    }

    /// Plays every scenario at one demand level. Returns the
    /// probability-weighted satisfaction and the plain sum.
    fn play_row(
        &self,
        row: usize,
        first_op: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> (f64, f64) {
        let cfg = PlaybackConfig::default();
        let alloc = &self.plan.outcome.output.alloc;
        let instance = &self.rows[row];
        let (mut weighted, mut sum) = (0.0, 0.0);
        let mut out_of_range = 0u64;
        for (i, (compiled, ticket)) in self.universe.scenarios.iter().zip(&self.tickets).enumerate()
        {
            let scenario = &compiled.scenario;
            let satisfaction = tr.span("te.eval.play_scenario", first_op + i as u64, |_| {
                play_scenario(instance, alloc, Some(scenario), Some(ticket), &cfg).satisfaction
            });
            if !(0.0..=1.0 + 1e-9).contains(&satisfaction) {
                out_of_range += 1;
            }
            weighted += scenario.probability * satisfaction;
            sum += satisfaction;
        }
        checks.attempted += self.universe.len() as u64;
        checks.failed += out_of_range;
        if out_of_range > 0 {
            eprintln!("FAILED: row {row}: {out_of_range} satisfaction(s) outside [0, 1]");
        }
        (weighted, sum)
    }

    /// Availability over the rows visited so far: demand satisfaction
    /// weighted by scenario probability, normalised over the universe.
    pub fn availability(&self) -> f64 {
        let mass: f64 = self.universe.scenarios.iter().map(|c| c.scenario.probability).sum();
        let rows: Vec<f64> = self.first_visit.iter().flatten().map(|&(w, _)| w / mass).collect();
        mean(&rows)
    }
}

impl Workload for Playback {
    fn run(&mut self, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Timed {
        let per_row = self.universe.len() as u64;
        let (mut ops, mut wall) = (0u64, 0.0f64);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let row = self.order[self.visits % DEMAND_POINTS];
            self.visits += 1;
            let t0 = Instant::now();
            let (weighted, sum) = self.play_row(row, ops, tr, checks);
            wall += t0.elapsed().as_secs_f64();
            ops += per_row;
            // Playback is a pure function of the plan: a row must repeat
            // bit for bit.
            let (_, first_bits) = *self.first_visit[row].get_or_insert((weighted, sum.to_bits()));
            checks.check(first_bits == sum.to_bits(), || {
                format!("row {row}: satisfaction sum changed between visits")
            });
        }
        Timed { ops, ops_per_s: ops as f64 / wall.max(1e-12), cpu_s: cpu_seconds() - cpu0 }
    }

    fn layers(&mut self, tr: &mut Tracer, ledger: &mut Ledger, _checks: &mut Checks) {
        ledger.set("te.eval.play_scenario_us", mean(&tr.seconds_of("te.eval.play_scenario")) * 1e6);
        ledger.set("te.eval.availability", self.availability());
        ledger.set("te.arrow.admitted_fraction", {
            let alloc = &self.plan.outcome.output.alloc;
            alloc.total_admitted() / self.plan.instance.total_demand().max(1e-12)
        });
    }

    /// Bits of the first visited row's satisfaction sum.
    fn pin(&self) -> u64 {
        self.first_visit[self.order[0]].map_or(0, |(_, bits)| bits)
    }
}
