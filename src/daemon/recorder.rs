//! The flight recorder: a per-epoch ring capture with incident dumps.
//!
//! The daemon does not write every span of a soak to disk — hundreds of
//! epochs of healthy traces are noise. Instead it keeps one bounded
//! [`RingSubscriber`] installed for the whole run and clears it at the top
//! of every epoch, so the ring always holds exactly the *current* epoch's
//! spans (one record each) and events. When an epoch misses its SLO
//! deadline or errors out, [`FlightRecorder::capture`] freezes the ring
//! into a timestamped incident directory via [`arrow_obs::incident`]:
//! `trace.jsonl`, `metrics.json`, and `incident.json`, which names the
//! triggering feed event and the epoch's critical path. Healthy epochs
//! cost one ring reset and nothing else.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use arrow_obs::incident::{self, IncidentContext, IncidentDump};
use arrow_obs::trace::{self, RingSubscriber};

/// Owns the installed ring subscriber and the incident directory.
pub struct FlightRecorder {
    ring: Arc<RingSubscriber>,
    incident_dir: PathBuf,
    installed: bool,
}

impl FlightRecorder {
    /// Creates the ring (capacity floored at 1024 records so one epoch's
    /// span tree always fits) and installs it as the process tracer.
    pub fn install(capacity: usize, incident_dir: impl Into<PathBuf>) -> FlightRecorder {
        let ring = Arc::new(RingSubscriber::new(capacity.max(1024)));
        trace::install(ring.clone());
        FlightRecorder { ring, incident_dir: incident_dir.into(), installed: true }
    }

    /// Resets the capture window: call at the top of every epoch.
    pub fn begin_epoch(&self) {
        self.ring.clear();
    }

    /// Where incident directories are written.
    pub fn incident_dir(&self) -> &PathBuf {
        &self.incident_dir
    }

    /// Freezes the current capture into an incident directory.
    pub fn capture(
        &self,
        reason: &str,
        epoch: u64,
        trigger: &str,
        detail: &str,
    ) -> io::Result<IncidentDump> {
        let records = self.ring.records();
        incident::dump(
            &self.incident_dir,
            &IncidentContext { reason, epoch, trigger, detail, records: &records },
        )
    }

    /// Uninstalls the tracer. Idempotent; also runs on drop.
    pub fn uninstall(&mut self) {
        if self.installed {
            trace::uninstall();
            self.installed = false;
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.uninstall();
    }
}
