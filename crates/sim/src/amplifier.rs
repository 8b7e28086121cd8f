//! Cascaded EDFA amplifier model (Appendix A.7).
//!
//! Adding or removing wavelengths changes the power distribution a fiber's
//! amplifiers see. Legacy operation re-stabilizes each amplifier with
//! repeated *observe–analyze–act* gain-control loops; the paper's shadowed
//! production maintenance (Fig. 20) re-configured 4 wavelengths across a
//! 2,000 km path with 24 cascaded amplifier sites in 14 minutes — i.e.
//! ~35 s per amplifier, converging sequentially down the cascade (an
//! amplifier can only settle once its upstream input is stable).
//!
//! With ASE noise loading (§4) every channel is lit at all times, so a
//! reconfiguration changes *which* channels carry data but not the power
//! envelope — the cascade never has to re-converge.

use crate::event::{EventQueue, SimTime};

/// One amplifier site's convergence behaviour.
#[derive(Debug, Clone, Copy)]
pub struct AmplifierParams {
    /// Seconds of observe–analyze–act looping needed per amplifier when
    /// the channel power distribution changes (paper: ~35 s).
    pub(crate) converge_seconds: f64,
}

impl Default for AmplifierParams {
    fn default() -> Self {
        AmplifierParams { converge_seconds: 35.0 }
    }
}

/// A chain of amplifier sites along one fiber path.
#[derive(Debug, Clone)]
pub struct AmplifierChain {
    /// Number of amplifier sites in cascade order.
    pub sites: usize,
    /// Per-site behaviour.
    pub params: AmplifierParams,
}

impl AmplifierChain {
    /// A chain sized for a fiber path: one site per `span_km` of length
    /// (default spacing in long-haul plants is ~80–100 km).
    pub fn for_length(length_km: f64, span_km: f64, params: AmplifierParams) -> Self {
        assert!(span_km > 0.0);
        AmplifierChain { sites: (length_km / span_km).ceil().max(1.0) as usize, params }
    }

    /// Simulates the sequential convergence of the cascade after a power
    /// change at `start`: returns the time each site stabilizes, last
    /// entry being the end-to-end stabilization time.
    pub(crate) fn convergence_times(&self, start: SimTime) -> Vec<SimTime> {
        #[derive(Debug)]
        struct Converged(
            /// index of the amplifier site that settled
            usize,
        );
        let mut q = EventQueue::new();
        // Site 0 sees the new power immediately; each downstream site can
        // only start once its upstream neighbour has settled.
        if self.sites > 0 {
            q.schedule(start + self.params.converge_seconds, Converged(0));
        }
        let mut times = vec![0.0; self.sites];
        while let Some((t, Converged(i))) = q.pop() {
            times[i] = t;
            if i + 1 < self.sites {
                q.schedule(t + self.params.converge_seconds, Converged(i + 1));
            }
        }
        times
    }

    /// End-to-end stabilization latency after a power change (0 when the
    /// chain is empty).
    pub fn total_convergence_seconds(&self) -> f64 {
        self.sites as f64 * self.params.converge_seconds
    }

    /// The Fig. 20 staircase: normalized optical power at the chain output
    /// over time, rising one step as each amplifier settles. Returns
    /// `(time, normalized power ∈ [0, 1])` samples.
    pub fn power_staircase(&self, start: SimTime) -> Vec<(SimTime, f64)> {
        let mut out = vec![(start, 0.0)];
        for (i, t) in self.convergence_times(start).into_iter().enumerate() {
            out.push((t, (i + 1) as f64 / self.sites as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig20_shape_24_amps_14_minutes() {
        // The paper's shadowed maintenance: 24 amplifier sites, ~14 min.
        let chain = AmplifierChain { sites: 24, params: AmplifierParams::default() };
        let total = chain.total_convergence_seconds();
        assert!((700.0..1000.0).contains(&total), "total {total} s should be ~14 min");
        let times = chain.convergence_times(0.0);
        assert_eq!(times.len(), 24);
        // Strictly increasing cascade.
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((times[23] - total).abs() < 1e-9);
    }

    #[test]
    fn staircase_reaches_full_power() {
        let chain = AmplifierChain { sites: 4, params: AmplifierParams { converge_seconds: 10.0 } };
        let stairs = chain.power_staircase(5.0);
        assert_eq!(stairs.first().unwrap(), &(5.0, 0.0));
        assert_eq!(stairs.last().unwrap(), &(45.0, 1.0));
        assert_eq!(stairs.len(), 5);
    }

    #[test]
    fn chain_sizing_by_span() {
        let chain = AmplifierChain::for_length(540.0, 80.0, AmplifierParams::default());
        assert_eq!(chain.sites, 7);
        let tiny = AmplifierChain::for_length(10.0, 80.0, AmplifierParams::default());
        assert_eq!(tiny.sites, 1);
    }
}
