//! JSON persistence for topologies, traffic, and failure scenarios — the one
//! module that knows the snapshot format.
//!
//! Experiment artifacts (the generated WAN, its traffic matrices, its
//! failure scenario universe) can be saved and reloaded so that runs are
//! reproducible byte-for-byte even across versions of the generators.
//! Plain JSON text through [`arrow_obs::json`] — diffable, greppable.
//!
//! The document carries **primary data only**: slot and ROADM counts,
//! fibers as endpoints and length, lightpaths, the site→ROADM map, IP
//! links, each matrix's `n` and row-major demands, per-fiber failure
//! probabilities, the healthy probability, and each scenario's cut set,
//! probability and source. Everything derived — spectrum occupancy, ROADM
//! adjacency, the links a cut fails, a scenario's [`ScenarioId`] — is
//! rebuilt on load by the constructors that enforce the invariants
//! ([`OpticalNetwork::provision`], [`TrafficMatrix::from_row_major`],
//! [`Wan::links_failed_by`], [`ScenarioId::of_cut`]), so a file cannot put
//! a model into a state the builders could not. A file that is not JSON
//! is [`IoError::Parse`]; JSON that is not a consistent snapshot is
//! [`IoError::Invalid`], naming the JSON path of the offending value
//! (`wan.links[3].a`).

use crate::failures::{
    CompiledScenario, FailureScenario, ScenarioId, ScenarioSource, ScenarioUniverse, UniverseStats,
};
use crate::traffic::TrafficMatrix;
use crate::wan::{IpLink, SiteId, Wan};
use arrow_obs::json::{self, Json, JsonError};
use arrow_optical::{Fiber, FiberId, Lightpath, LightpathId, OpticalNetwork, RoadmId};
use std::fmt::Display;
use std::path::Path;

/// A self-contained experiment snapshot: one WAN with its demands and
/// failure scenarios.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The two-layer WAN.
    pub wan: Wan,
    /// Traffic matrices (time epochs).
    pub traffic: Vec<TrafficMatrix>,
    /// The failure scenario universe.
    pub failures: ScenarioUniverse,
}

/// Errors from snapshot I/O.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The text is not JSON.
    Parse(JsonError),
    /// The JSON is not a consistent snapshot: a field is missing, unknown
    /// or of the wrong type, or the decoded model fails validation.
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

impl From<JsonError> for IoError {
    fn from(e: JsonError) -> Self {
        IoError::Parse(e)
    }
}

/// Caps on the two counts a file states outright (every other size is the
/// length of an array in the text): each allocates per unit before any
/// cross-check could reject it. Generous — a C+L flex grid is under 2 k
/// slots.
const MAX_SLOTS: usize = 4096;
const MAX_ROADMS: usize = 1 << 20;
/// Cap on a length (km) or capacity (Gbps); finite, so sums stay finite.
const MAX_QUANTITY: f64 = 1e12;

fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn arr<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> Json) -> Json {
    Json::Arr(items.into_iter().map(f).collect())
}

fn int(n: usize) -> Json {
    Json::Num(n as f64)
}

/// A value of the document plus the JSON path that reached it.
struct Node<'a> {
    json: &'a Json,
    path: String,
}

impl<'a> Node<'a> {
    fn err(&self, what: impl Display) -> IoError {
        let colon = if self.path.is_empty() { "" } else { ": " };
        IoError::Invalid(format!("{}{colon}{what}", self.path))
    }

    /// The members of an object whose key set is exactly `names`.
    fn fields<const N: usize>(&self, names: [&str; N]) -> Result<[Node<'a>; N], IoError> {
        let members = self.json.as_obj().ok_or_else(|| self.err("expected an object"))?;
        if let Some((key, _)) = members.iter().find(|(k, _)| !names.contains(&k.as_str())) {
            return Err(self.err(format!("unknown field `{key}`")));
        }
        let dot = if self.path.is_empty() { "" } else { "." };
        let child = |name: &str| Node {
            json: self.json.get(name).unwrap_or(&Json::Null),
            path: format!("{}{dot}{name}", self.path),
        };
        for name in names {
            match members.iter().filter(|(k, _)| k == name).count() {
                1 => {}
                0 => return Err(child(name).err("missing field")),
                _ => return Err(child(name).err("duplicate field")),
            }
        }
        Ok(names.map(child))
    }

    /// The items of an array, each decoded by `item`.
    fn list<T>(&self, item: impl FnMut(Node<'a>) -> Result<T, IoError>) -> Result<Vec<T>, IoError> {
        let items = self.json.as_arr().ok_or_else(|| self.err("expected an array"))?;
        let node = |(i, json)| Node { json, path: format!("{}[{i}]", self.path) };
        items.iter().enumerate().map(node).map(item).collect()
    }

    fn string(&self) -> Result<String, IoError> {
        self.json.as_str().map(str::to_string).ok_or_else(|| self.err("expected a string"))
    }

    fn number(&self) -> Result<f64, IoError> {
        self.json.as_f64().ok_or_else(|| self.err("expected a number"))
    }

    /// A number in `0..=max` (`1e999` parses to infinity).
    fn within(&self, max: f64) -> Result<f64, IoError> {
        let v = self.number()?;
        if (0.0..=max).contains(&v) {
            return Ok(v);
        }
        Err(self.err(format!("{v} is not in [0, {max}]")))
    }

    fn index(&self) -> Result<usize, IoError> {
        (self.json.as_u64().and_then(|n| usize::try_from(n).ok()))
            .ok_or_else(|| self.err("expected a non-negative integer"))
    }

    fn count(&self, min: usize, max: usize) -> Result<usize, IoError> {
        let n = self.index()?;
        if (min..=max).contains(&n) {
            return Ok(n);
        }
        Err(self.err(format!("{n} is outside {min}..={max}")))
    }
}

fn wan_to_json(wan: &Wan) -> Json {
    let fiber = |f: &Fiber| {
        obj([("a", int(f.a.0)), ("b", int(f.b.0)), ("length_km", Json::Num(f.length_km))])
    };
    let lightpath = |lp: &Lightpath| {
        obj([
            ("src", int(lp.src.0)),
            ("dst", int(lp.dst.0)),
            ("path", arr(&lp.path, |f| int(f.0))),
            ("slots", arr(&lp.slots, |&w| int(w))),
            ("gbps_per_wavelength", Json::Num(lp.gbps_per_wavelength)),
        ])
    };
    let link = |l: &IpLink| {
        obj([
            ("a", int(l.a.0)),
            ("b", int(l.b.0)),
            ("lightpath", int(l.lightpath.0)),
            ("capacity_gbps", Json::Num(l.capacity_gbps)),
        ])
    };
    obj([
        ("name", Json::Str(wan.name.clone())),
        ("num_slots", int(wan.optical.num_slots())),
        ("num_roadms", int(wan.optical.num_roadms())),
        ("fibers", arr(wan.optical.fibers(), fiber)),
        ("lightpaths", arr(wan.optical.lightpaths(), lightpath)),
        ("site_roadm", arr(&wan.site_roadm, |r| int(r.0))),
        ("links", arr(&wan.links, link)),
    ])
}

fn wan_from_json(node: &Node) -> Result<Wan, IoError> {
    let [name, num_slots, num_roadms, fibers, lightpaths, site_roadm, links] = node.fields([
        "name",
        "num_slots",
        "num_roadms",
        "fibers",
        "lightpaths",
        "site_roadm",
        "links",
    ])?;
    let mut optical = OpticalNetwork::new(num_slots.count(1, MAX_SLOTS)?);
    optical.add_roadms(num_roadms.count(0, MAX_ROADMS)?);
    for f in fibers.list(Ok)? {
        let [a, b, km] = f.fields(["a", "b", "length_km"])?;
        let (a, b) = (RoadmId(a.index()?), RoadmId(b.index()?));
        optical.add_fiber(a, b, km.within(MAX_QUANTITY)?).map_err(|e| f.err(e))?;
    }
    for lp in lightpaths.list(Ok)? {
        let [src, dst, path, slots, gbps] =
            lp.fields(["src", "dst", "path", "slots", "gbps_per_wavelength"])?;
        let lightpath = Lightpath {
            src: RoadmId(src.index()?),
            dst: RoadmId(dst.index()?),
            path: path.list(|f| f.index().map(FiberId))?,
            slots: slots.list(|w| w.index())?,
            gbps_per_wavelength: gbps.within(MAX_QUANTITY)?,
        };
        optical.provision(lightpath).map_err(|e| lp.err(e))?;
    }
    let links = links.list(|l| {
        let [a, b, lightpath, gbps] = l.fields(["a", "b", "lightpath", "capacity_gbps"])?;
        Ok(IpLink {
            a: SiteId(a.index()?),
            b: SiteId(b.index()?),
            lightpath: LightpathId(lightpath.index()?),
            capacity_gbps: gbps.within(MAX_QUANTITY)?,
        })
    })?;
    let site_roadm = site_roadm.list(|r| r.index().map(RoadmId))?;
    let wan = Wan { name: name.string()?, optical, site_roadm, links };
    wan.validate().map_err(|e| node.err(e))?;
    Ok(wan)
}

fn matrix_to_json(tm: &TrafficMatrix) -> Json {
    let sites = || (0..tm.num_sites()).map(SiteId);
    let demand = sites().flat_map(|s| sites().map(move |d| Json::Num(tm.demand(s, d))));
    obj([("n", int(tm.num_sites())), ("demand", Json::Arr(demand.collect()))])
}

fn matrix_from_json(node: &Node, wan: &Wan) -> Result<TrafficMatrix, IoError> {
    let [n, demand] = node.fields(["n", "demand"])?;
    let n = n.index()?;
    if n != wan.num_sites() {
        return Err(node.err(format!("matrix over {n} sites, WAN has {}", wan.num_sites())));
    }
    TrafficMatrix::from_row_major(n, demand.list(|d| d.number())?).map_err(|e| node.err(e))
}

const SOURCES: [ScenarioSource; 4] = [
    ScenarioSource::KCut,
    ScenarioSource::Srlg,
    ScenarioSource::Maintenance,
    ScenarioSource::Flapping,
];

/// A [`ScenarioSource`]'s name in the file.
fn source_name(source: ScenarioSource) -> &'static str {
    match source {
        ScenarioSource::KCut => "k_cut",
        ScenarioSource::Srlg => "srlg",
        ScenarioSource::Maintenance => "maintenance",
        ScenarioSource::Flapping => "flapping",
    }
}

fn failures_to_json(universe: &ScenarioUniverse) -> Json {
    let scenario = |c: &CompiledScenario| {
        obj([
            ("cut_fibers", arr(&c.scenario.cut_fibers, |f| int(f.0))),
            ("probability", Json::Num(c.scenario.probability)),
            ("source", Json::Str(source_name(c.source).to_string())),
        ])
    };
    obj([
        ("fiber_prob", arr(&universe.fiber_prob, |&p| Json::Num(p))),
        ("healthy_probability", Json::Num(universe.healthy_probability)),
        ("scenarios", arr(&universe.scenarios, scenario)),
    ])
}

/// Decodes the scenario universe and checks what every consumer of a
/// [`ScenarioUniverse`] assumes about it against the WAN it was saved
/// with: no empty or repeated cut set, no cut naming an unknown fiber.
/// Compile-time accounting is not in the file, so a loaded universe
/// reports every scenario as kept.
fn failures_from_json(node: &Node, wan: &Wan) -> Result<ScenarioUniverse, IoError> {
    let [fiber_prob, healthy, scenarios] =
        node.fields(["fiber_prob", "healthy_probability", "scenarios"])?;
    let num_fibers = wan.optical.num_fibers();
    let fiber_prob = fiber_prob.list(|p| p.within(1.0))?;
    if fiber_prob.len() != num_fibers {
        let n = fiber_prob.len();
        return Err(node.err(format!("fiber_prob has {n} entries, WAN has {num_fibers} fibers")));
    }
    let mut seen = std::collections::BTreeMap::new();
    let scenarios = scenarios.list(|s| {
        let [cut_fibers, probability, source] =
            s.fields(["cut_fibers", "probability", "source"])?;
        let cut_fibers = cut_fibers.list(|f| f.index().map(FiberId))?;
        if cut_fibers.is_empty() {
            return Err(s.err("empty cut set (the healthy state is `healthy_probability`)"));
        }
        if let Some(f) = cut_fibers.iter().find(|f| f.0 >= num_fibers) {
            return Err(s.err(format!("cuts fiber {}, WAN has {num_fibers} fibers", f.0)));
        }
        let id = ScenarioId::of_cut(&cut_fibers);
        if let Some(first) = seen.insert(id, s.path.clone()) {
            return Err(s.err(format!("repeats the cut set of {first}")));
        }
        let name = source.string()?;
        let source = (SOURCES.into_iter().find(|&k| source_name(k) == name))
            .ok_or_else(|| source.err(format!("unknown source `{name}`")))?;
        let probability = probability.within(1.0)?;
        let failed_links = wan.links_failed_by(&cut_fibers);
        let scenario = FailureScenario { cut_fibers, probability, failed_links };
        Ok(CompiledScenario { id, source, scenario })
    })?;
    let n = scenarios.len();
    let stats = UniverseStats { enumerated: n, deduped: 0, sampled_out: 0, kept: n };
    Ok(ScenarioUniverse { fiber_prob, healthy_probability: healthy.within(1.0)?, scenarios, stats })
}

impl Snapshot {
    /// Serializes to indented JSON. A non-finite number (no builder
    /// produces one) is written as `null`, which [`Self::from_json`]
    /// rejects.
    pub fn to_json(&self) -> String {
        obj([
            ("wan", wan_to_json(&self.wan)),
            ("traffic", arr(&self.traffic, matrix_to_json)),
            ("failures", failures_to_json(&self.failures)),
        ])
        .to_pretty()
    }

    /// Parses from JSON, rebuilding the optical layer, the matrices and
    /// the failed-link sets through their validating constructors, and
    /// validates the cross-layer mapping, the traffic dimensions and the
    /// failure scenarios. Hostile input yields an [`IoError`], never a panic.
    pub fn from_json(text: &str) -> Result<Self, IoError> {
        let doc = json::parse(text)?;
        let root = Node { json: &doc, path: String::new() };
        let [wan, traffic, failures] = root.fields(["wan", "traffic", "failures"])?;
        let wan = wan_from_json(&wan)?;
        let traffic = traffic.list(|tm| matrix_from_json(&tm, &wan))?;
        let failures = failures_from_json(&failures, &wan)?;
        Ok(Snapshot { wan, traffic, failures })
    }

    /// Writes the snapshot to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        std::fs::write(path, self.to_json())?;
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
    use crate::builders::{b4, facebook_like, ibm};
    use crate::failures::{compile_universe, generate_failures, FailureConfig, UniverseConfig};
    use crate::traffic::{gravity_matrices, TrafficConfig};

    fn snapshot_of(wan: Wan) -> Snapshot {
        let traffic =
            gravity_matrices(&wan, &TrafficConfig { num_matrices: 2, ..Default::default() });
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
        Snapshot { wan, traffic, failures }
    }

    #[test]
    fn json_roundtrip_is_byte_identical_and_rebuilds_derived_state() {
        for wan in [b4(17), ibm(17), facebook_like(17)] {
            let snap = snapshot_of(wan);
            let json = snap.to_json();
            let back = Snapshot::from_json(&json).unwrap();
            assert_eq!(back.to_json(), json, "{}", snap.wan.name);
            // Spectrum occupancy and failed links are not in the file.
            let occupied = |w: &Wan| -> Vec<usize> {
                w.optical.fibers().iter().map(|f| f.spectrum.occupied_count()).collect()
            };
            assert_eq!(occupied(&back.wan), occupied(&snap.wan));
            assert!(occupied(&back.wan).iter().sum::<usize>() > 0);
            for (b, s) in back.failures.scenarios.iter().zip(&snap.failures.scenarios) {
                assert_eq!(b.scenario.failed_links, s.scenario.failed_links);
            }
        }
    }

    #[test]
    fn correlated_universe_roundtrip_keeps_digest_and_sources() {
        let wan = b4(17);
        let failures = compile_universe(
            &wan,
            &UniverseConfig {
                max_k: 2,
                auto_srlg_size: 3,
                maintenance_window: 2,
                flapping_count: 2,
                ..Default::default()
            },
        );
        let sources = |u: &ScenarioUniverse| -> Vec<ScenarioSource> {
            u.scenarios.iter().map(|c| c.source).collect()
        };
        for source in SOURCES {
            assert!(sources(&failures).contains(&source), "no {source:?} scenario to round-trip");
        }
        let snap = Snapshot { wan, traffic: Vec::new(), failures };
        let back = Snapshot::from_json(&snap.to_json()).unwrap().failures;
        assert_eq!(back.digest(), snap.failures.digest());
        assert_eq!(sources(&back), sources(&snap.failures));
        assert_eq!(back.healthy_probability.to_bits(), snap.failures.healthy_probability.to_bits());
    }

    #[test]
    fn file_roundtrip() {
        let snap = snapshot_of(b4(17));
        let dir = std::env::temp_dir().join("arrow_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b4.json");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.wan.summary(), snap.wan.summary());
        std::fs::remove_file(&path).ok();
    }

    /// Replaces the value at `path` (written the way errors print it).
    fn set(doc: &mut Json, path: &str, value: &str) {
        let at =
            path.split(['.', '[']).fold(doc, |json, seg| match (json, seg.strip_suffix(']')) {
                (Json::Arr(items), Some(i)) => &mut items[i.parse::<usize>().unwrap()],
                (Json::Obj(members), None) => {
                    &mut members
                        .iter_mut()
                        .find(|(k, _)| k == seg)
                        .unwrap_or_else(|| panic!("{seg}"))
                        .1
                }
                (other, _) => panic!("{seg} does not index {other:?}"),
            });
        *at = json::parse(value).unwrap();
    }

    /// Every row replaces one value of a valid B4 document and must come
    /// back as a typed error that names the problem. The first three rows
    /// and the deep nesting at the end are the inputs the derive-based
    /// decoder this one replaced panicked or aborted on.
    #[test]
    fn hostile_snapshots_yield_typed_errors() {
        let snap = snapshot_of(b4(17));
        let valid = json::parse(&snap.to_json()).unwrap();
        let first_cut = format!(
            "{:?}",
            snap.failures.scenario(0).cut_fibers.iter().map(|f| f.0).collect::<Vec<_>>()
        );
        let rows = [
            ("wan.links[0].a", "9999", "wan: link 0: site 9999 out of range"),
            ("wan.links[0].lightpath", "9999", "wan: link 0: lightpath 9999 out of range"),
            // Derived state is not part of the format, so it cannot be short.
            (
                "wan.fibers[0]",
                r#"{"a": 0, "b": 1, "length_km": 330, "spectrum": {"words": []}}"#,
                "wan.fibers[0]: unknown field `spectrum`",
            ),
            ("wan.site_roadm[3]", "12", "wan: site 3: ROADM 12 out of range"),
            ("wan.fibers[2].b", "12", "wan.fibers[2]: unknown ROADM 12"),
            ("wan.lightpaths[1].path", "[0, 77]", "wan.lightpaths[1]: unknown fiber 77"),
            ("wan.lightpaths[1].src", "99", "wan.lightpaths[1]: fiber path is not contiguous"),
            ("wan.lightpaths[0].path", "[0, 0]", "wan.lightpaths[0]: fiber path is not contiguous"),
            ("wan.lightpaths[0].slots", "[0, 64]", "slot 64 is outside the 64-slot grid"),
            ("wan.lightpaths[0].slots", "[5, 5]", "slot 5 already occupied on fiber 0"),
            // A second lightpath on the first one's fiber and slot.
            (
                "wan.lightpaths[1]",
                r#"{"src": 0, "dst": 1, "path": [0], "slots": [0], "gbps_per_wavelength": 100}"#,
                "wan.lightpaths[1]: slot 0 already occupied on fiber 0",
            ),
            ("wan.links[2].capacity_gbps", "1", "wan: link 2: capacity 1 != lightpath capacity"),
            (
                "wan.lightpaths[0].gbps_per_wavelength",
                "\"1e999\"",
                "gbps_per_wavelength: inf is not in [0, ",
            ),
            ("wan.fibers[0].length_km", "-1", "wan.fibers[0].length_km: -1 is not in [0, "),
            ("wan.num_slots", "0", "wan.num_slots: 0 is outside 1..=4096"),
            ("wan.num_slots", "1e15", "wan.num_slots: 1000000000000000 is outside"),
            ("wan.num_roadms", "1e15", "wan.num_roadms: 1000000000000000 is outside"),
            ("traffic[1].n", "11", "traffic[1]: matrix over 11 sites, WAN has 12"),
            ("traffic[0].demand", "[0, 1, 1, 0]", "traffic[0]: 4 demands do not fill a 12 x 12"),
            ("traffic[0].demand[1]", "-3", "traffic[0]: demand 0 -> 1 is -3"),
            ("traffic[0].demand[1]", "\"1e999\"", "traffic[0]: demand 0 -> 1 is inf"),
            // What the writer emits for NaN.
            ("traffic[0].demand[1]", "null", "traffic[0].demand[1]: expected a number"),
            ("traffic[0].demand[13]", "2", "traffic[0]: self-demand at site 1"),
            ("failures.fiber_prob[0]", "1.5", "failures.fiber_prob[0]: 1.5 is not in [0, 1]"),
            (
                "failures.scenarios[1].probability",
                "-0.1",
                "scenarios[1].probability: -0.1 is not in [0, 1]",
            ),
            (
                "failures.scenarios[1].probability",
                "\"1e999\"",
                "scenarios[1].probability: inf is not in [0, 1]",
            ),
            ("failures.fiber_prob", "[0.1]", "failures: fiber_prob has 1 entries, WAN has 19"),
            ("failures.scenarios[1].cut_fibers", "[999]", "scenarios[1]: cuts fiber 999, WAN has"),
            ("failures.scenarios[1].cut_fibers", "[19]", "scenarios[1]: cuts fiber 19, WAN has 19"),
            ("failures.scenarios[1].cut_fibers", "[]", "failures.scenarios[1]: empty cut set"),
            (
                "failures.scenarios[2].cut_fibers",
                &first_cut,
                "failures.scenarios[2]: repeats the cut set of failures.scenarios[0]",
            ),
            (
                "failures.scenarios[1].source",
                "\"earthquake\"",
                "failures.scenarios[1].source: unknown source `earthquake`",
            ),
            ("failures.healthy_probability", "null", "failures.healthy_probability: expected a"),
            ("failures.healthy_probability", "1.5", "healthy_probability: 1.5 is not in [0, 1]"),
            (
                "wan.links[3]",
                r#"{"a": 0, "a": 0, "b": 1, "lightpath": 3, "capacity_gbps": 1}"#,
                "wan.links[3].a: duplicate field",
            ),
            (
                "wan.links[3]",
                r#"{"b": 1, "lightpath": 3, "capacity_gbps": 1}"#,
                "wan.links[3].a: missing field",
            ),
            ("wan.links[3].a", "\"0\"", "wan.links[3].a: expected a non-negative integer"),
            ("wan.links", "{}", "wan.links: expected an array"),
        ];
        for (path, value, expected) in rows {
            let mut doc = valid.clone();
            set(&mut doc, path, value);
            // Infinity exists only as text: the writer prints it as `null`.
            let text = doc.to_pretty().replace("\"1e999\"", "1e999");
            match Snapshot::from_json(&text) {
                Err(IoError::Invalid(m)) => assert!(m.contains(expected), "{m} vs {expected}"),
                other => panic!("{expected}: expected IoError::Invalid, got {other:?}"),
            }
        }

        // Text that is not JSON at all: the document cut at every 1/64th of
        // its length, and nesting that used to overflow the parser's stack.
        let text = valid.to_pretty();
        let cuts = (1..64).map(|k| text[..text.len() * k / 64].to_string());
        for bad in cuts.chain(["{not json".to_string(), "[".repeat(2_000_000)]) {
            let err = Snapshot::from_json(&bad).unwrap_err();
            assert!(matches!(err, IoError::Parse(_)), "{err}");
        }
    }
}
