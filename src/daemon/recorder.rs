//! The flight recorder: a per-epoch ring capture with incident dumps.
//!
//! One bounded [`RingSubscriber`] stays installed for the whole run and is
//! cleared at the top of every epoch, so it holds exactly the current
//! epoch's spans and events; healthy epochs cost one ring reset and no
//! disk. [`FlightRecorder::capture`] freezes the ring into a timestamped
//! incident directory via [`arrow_obs::incident`]: `trace.jsonl`,
//! `metrics.json`, and `incident.json`, which names the triggering feed
//! event and the epoch's critical path.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use arrow_obs::incident::{self, IncidentContext, IncidentDump};
use arrow_obs::trace::{self, RingSubscriber};

use super::step::Incident;

/// Owns the installed ring subscriber and the incident directory; the
/// tracer is uninstalled on drop.
pub(super) struct FlightRecorder {
    ring: Arc<RingSubscriber>,
    incident_dir: PathBuf,
}

impl FlightRecorder {
    /// Creates the ring (capacity floored at 1024 records so one epoch's
    /// span tree always fits) and installs it as the process tracer.
    pub(super) fn install(capacity: usize, incident_dir: impl Into<PathBuf>) -> FlightRecorder {
        let ring = Arc::new(RingSubscriber::new(capacity.max(1024)));
        trace::install(ring.clone());
        FlightRecorder { ring, incident_dir: incident_dir.into() }
    }

    /// Resets the capture window: call at the top of every epoch.
    pub(super) fn begin_epoch(&self) {
        self.ring.clear();
    }

    /// Freezes the current capture into an incident directory.
    pub(super) fn capture(&self, inc: &Incident) -> io::Result<IncidentDump> {
        let Incident { reason, epoch, trigger, detail } = inc;
        let records = self.ring.records();
        let context = IncidentContext { reason, epoch: *epoch, trigger, detail, records: &records };
        incident::dump(&self.incident_dir, &context)
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        trace::uninstall();
    }
}
