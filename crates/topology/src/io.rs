//! JSON persistence for topologies, traffic, and failure models.
//!
//! Experiment artifacts (the generated WAN, its traffic matrices, the
//! sampled failure model) can be saved and reloaded so that runs are
//! reproducible byte-for-byte even across versions of the generators.
//! Plain `serde_json` text — diffable, greppable, no custom format.

use crate::failures::FailureModel;
use crate::traffic::TrafficMatrix;
use crate::wan::Wan;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A self-contained experiment snapshot: one WAN with its demands and
/// failure model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// The two-layer WAN.
    pub wan: Wan,
    /// Traffic matrices (time epochs).
    pub traffic: Vec<TrafficMatrix>,
    /// The probabilistic failure model.
    pub failures: FailureModel,
}

/// Errors from snapshot I/O.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Parse(serde_json::Error),
    /// The decoded snapshot fails cross-layer validation.
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(e) => write!(f, "parse error: {e}"),
            IoError::Invalid(m) => write!(f, "invalid snapshot: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Parse(e)
    }
}

/// What every consumer of a [`FailureModel`] assumes about it, checked
/// against the WAN it was loaded with.
fn validate_failures(model: &FailureModel, wan: &Wan) -> Result<(), String> {
    let num_fibers = wan.optical.num_fibers();
    if !model.scenarios.first().is_some_and(|s| s.is_healthy()) {
        return Err("failure model must list the healthy scenario first".to_string());
    }
    if model.fiber_prob.len() != num_fibers {
        return Err(format!(
            "fiber_prob has {} entries, WAN has {num_fibers} fibers",
            model.fiber_prob.len()
        ));
    }
    let mut probabilities =
        model.fiber_prob.iter().chain(model.scenarios.iter().map(|s| &s.probability));
    if let Some(p) = probabilities.find(|p| !(0.0..=1.0).contains(*p)) {
        return Err(format!("failure probability {p} is not in [0, 1]"));
    }
    for (i, s) in model.scenarios.iter().enumerate() {
        if let Some(f) = s.cut_fibers.iter().find(|f| f.0 >= num_fibers) {
            return Err(format!("scenario {i} cuts fiber {}, WAN has {num_fibers}", f.0));
        }
        if let Some(l) = s.failed_links.iter().find(|l| l.0 >= wan.num_links()) {
            return Err(format!("scenario {i} fails link {}, WAN has {}", l.0, wan.num_links()));
        }
    }
    Ok(())
}

impl Snapshot {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, IoError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses from JSON and validates the cross-layer mapping, the traffic
    /// dimensions and the failure model.
    pub fn from_json(text: &str) -> Result<Self, IoError> {
        let snap: Snapshot = serde_json::from_str(text)?;
        snap.wan.validate().map_err(IoError::Invalid)?;
        for tm in &snap.traffic {
            if tm.num_sites() != snap.wan.num_sites() {
                return Err(IoError::Invalid(format!(
                    "traffic matrix over {} sites, WAN has {}",
                    tm.num_sites(),
                    snap.wan.num_sites()
                )));
            }
        }
        validate_failures(&snap.failures, &snap.wan).map_err(IoError::Invalid)?;
        Ok(snap)
    }

    /// Writes the snapshot to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads and validates a snapshot from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, IoError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::b4;
    use crate::failures::{generate, FailureConfig};
    use crate::traffic::{gravity_matrices, TrafficConfig};

    fn snapshot() -> Snapshot {
        let wan = b4(17);
        let traffic =
            gravity_matrices(&wan, &TrafficConfig { num_matrices: 2, ..Default::default() });
        let failures = generate(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
        Snapshot { wan, traffic, failures }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let snap = snapshot();
        let json = snap.to_json().unwrap();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back.wan.num_links(), snap.wan.num_links());
        assert_eq!(back.wan.optical.num_fibers(), snap.wan.optical.num_fibers());
        assert_eq!(back.traffic.len(), 2);
        assert_eq!(back.traffic[0].total(), snap.traffic[0].total());
        assert_eq!(back.failures.scenarios.len(), snap.failures.scenarios.len());
        // Spectrum occupancy survives (private bitset fields).
        let f0 = arrow_optical::FiberId(0);
        assert_eq!(
            back.wan.optical.fiber(f0).spectrum.occupied_count(),
            snap.wan.optical.fiber(f0).spectrum.occupied_count()
        );
    }

    #[test]
    fn file_roundtrip() {
        let snap = snapshot();
        let dir = std::env::temp_dir().join("arrow_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b4.json");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.wan.summary(), snap.wan.summary());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_json_is_rejected() {
        assert!(matches!(Snapshot::from_json("{not json"), Err(IoError::Parse(_))));
    }

    /// Round-trips `snap` with its failure model edited and returns the
    /// rejection message.
    fn rejection(edit: impl FnOnce(&mut Snapshot)) -> String {
        let mut snap = snapshot();
        edit(&mut snap);
        match Snapshot::from_json(&snap.to_json().unwrap()) {
            Err(IoError::Invalid(m)) => m,
            other => panic!("expected IoError::Invalid, got {other:?}"),
        }
    }

    #[test]
    fn empty_scenario_list_is_rejected() {
        // Used to decode fine and then panic in `failure_scenarios()`.
        assert!(rejection(|s| s.failures.scenarios.clear()).contains("healthy scenario first"));
        let empty = FailureModel { fiber_prob: Vec::new(), scenarios: Vec::new() };
        assert!(empty.failure_scenarios().is_empty());
    }

    #[test]
    fn missing_healthy_scenario_is_rejected() {
        assert!(rejection(|s| {
            s.failures.scenarios.remove(0);
        })
        .contains("healthy scenario"));
    }

    #[test]
    fn fiber_prob_of_the_wrong_length_is_rejected() {
        assert!(rejection(|s| {
            s.failures.fiber_prob.pop();
        })
        .contains("fiber_prob has"));
    }

    #[test]
    fn out_of_range_fiber_and_link_ids_are_rejected() {
        let cut =
            rejection(|s| s.failures.scenarios[1].cut_fibers.push(arrow_optical::FiberId(999)));
        assert!(cut.contains("cuts fiber 999"), "{cut}");
        let link = rejection(|s| s.failures.scenarios[1].failed_links.push(crate::IpLinkId(999)));
        assert!(link.contains("fails link 999"), "{link}");
    }

    #[test]
    fn probabilities_outside_the_unit_interval_are_rejected() {
        for bad in [-0.1, 1.5, f64::INFINITY, f64::NAN] {
            assert!(
                rejection(|s| s.failures.scenarios[1].probability = bad).contains("not in [0, 1]")
            );
            assert!(rejection(|s| s.failures.fiber_prob[0] = bad).contains("not in [0, 1]"));
        }
    }

    #[test]
    fn mismatched_traffic_is_rejected() {
        let mut snap = snapshot();
        snap.traffic.push(crate::traffic::TrafficMatrix::zeros(3));
        let json = snap.to_json().unwrap();
        assert!(matches!(Snapshot::from_json(&json), Err(IoError::Invalid(_))));
    }
}
