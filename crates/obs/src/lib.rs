//! # arrow-obs — structured tracing and metrics for the ARROW workspace
//!
//! ARROW's claim rests on operational timing: the online stage must pick a
//! winning LotteryTicket and re-allocate traffic within a TE epoch after a
//! fiber cut. Answering "how long did it take and why" therefore needs one
//! instrumentation layer every crate emits into and every sweep reads out
//! of, instead of per-binary `Instant::now()` bookkeeping. This crate is
//! that layer, in two halves:
//!
//! * [`metrics`] — a process-global registry of counters, gauges, and
//!   fixed-bucket histograms, each one `static` declared where it is
//!   emitted with its name and help text, its atomics inline. Always on
//!   (an update is a handful of atomic operations), snapshot on demand as
//!   JSON or Prometheus-style text exposition.
//! * [`trace`] — structured spans and events: [`span!`]/[`event!`] with a
//!   thread-local span stack, monotonic timestamps, and key-value fields,
//!   recorded into an installed [`trace::RingSubscriber`]. A span is one
//!   record, emitted when it closes with its start fields, parentage and
//!   duration; an event is one record. Spans are also the
//!   one clock product code reads: [`trace::SpanGuard::elapsed_seconds`]
//!   times the region a span brackets. With no subscriber installed a
//!   span is one relaxed atomic load plus one monotonic clock read —
//!   fields are not even evaluated and nothing allocates — so
//!   instrumentation is effectively free when off.
//!
//! The ring is the one subscriber: a bounded in-memory buffer that tests
//! and sweeps read, the daemon's flight recorder dumps, and
//! [`trace::to_jsonl`] writes as a `trace.jsonl` file (one record per
//! line), which [`SpanTree::from_jsonl`] reads back.
//!
//! On top of the two halves sits the **telemetry plane**:
//!
//! * [`export`] — a zero-dependency HTTP listener serving `/metrics`
//!   (Prometheus text), `/snapshot.json`, `/healthz`, and `/readyz`
//!   (readiness, flipped by the controller daemon) from any binary;
//! * [`incident`] — flight-recorder incident dumps: freeze a bad epoch's
//!   trace, metrics snapshot, and a manifest naming its critical path into
//!   a timestamped directory for post-mortems;
//! * [`slo`] — the epoch-deadline SLO engine (deadline-miss counters,
//!   rolling p50/p99, error-budget burn rate), fed by the controller once
//!   per epoch;
//! * [`analyze`] — span-tree reconstruction from `trace.jsonl`: self time
//!   per span and the critical path through an epoch;
//! * [`json`] — the workspace's one std-only JSON value tree, parser and
//!   writer: reads the crate's own writers back, and carries
//!   `arrow-topology`'s experiment snapshots;
//! * [`hash`] — the workspace's two digest folds, its seed mixer, and the
//!   lookup that holds tests to the pin table `tests/pins.txt`.
//!
//! Deliberately omitted, in the spirit of the repo's synchronous CPU-bound
//! design: no async integration, no sampling, no per-record levels beyond
//! info/warn, no cross-thread span parentage (a span opened on a worker
//! thread is a root on that thread; records carry a thread id instead),
//! and no external dependencies of any kind.
//!
//! ## Quickstart
//!
//! ```
//! use arrow_obs::{event, span, Counter};
//! use std::sync::Arc;
//!
//! // Metrics are always on: one static per metric, with its help text.
//! static SOLVES: Counter = Counter::new("doc.solves", "LP solves completed");
//! SOLVES.inc();
//!
//! // Traces go to an installed subscriber.
//! let ring = Arc::new(arrow_obs::trace::RingSubscriber::new(64));
//! arrow_obs::trace::install(ring.clone());
//! {
//!     let _epoch = span!("doc.epoch", "interval" => 3_usize);
//!     event!("doc.note", "detail" => "inside the span");
//! } // span closed here, duration recorded
//! arrow_obs::trace::uninstall();
//!
//! assert_eq!(ring.finished_spans("doc.epoch").len(), 1);
//! assert!(arrow_obs::metrics::snapshot().counter("doc.solves") >= 1);
//! ```

// The counting-allocator test harness (zero-allocation contract for the
// disabled tracing path) needs a `GlobalAlloc` impl, which is unsafe; the
// shipped library remains entirely safe code.
#![cfg_attr(not(test), forbid(unsafe_code))]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
// Product policy (DESIGN.md § Static analysis): library code does not
// panic. `obs` owns timing, so it may use wall clocks and hash maps.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::allow_attributes_without_reason
    )
)]

pub mod analyze;
pub mod export;
pub mod hash;
pub mod incident;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod trace;

pub use analyze::SpanTree;
pub use export::http_get;
pub use incident::{IncidentContext, IncidentDump};
pub use metrics::{Counter, Gauge, Histogram, Snapshot};
pub use slo::{EpochVerdict, SloConfig};
pub use trace::{FieldValue, Level, Record, RingSubscriber, SpanGuard};
