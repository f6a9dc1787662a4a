//! [`TopologySpec`] — the serialisable "which topology" tag used by
//! experiment specs and scenario files.
//!
//! The wire form is an externally tagged map with a lowercase tag:
//!
//! ```toml
//! [topology.dragonfly]
//! p = 4
//! a = 8
//! h = 4
//!
//! # or
//! [topology.fattree]
//! k = 4
//!
//! # or
//! [topology.hyperx]
//! p = 2
//! rows = 6
//! cols = 6
//! ```
//!
//! The pre-trait scenario format — a bare `[topology]` table with
//! `p`/`a`/`h` keys — still deserialises as a Dragonfly, so every
//! existing scenario file keeps working unchanged.

use crate::any::AnyTopology;
use crate::config::DragonflyConfig;
use crate::fattree::{FatTree, FatTreeConfig};
use crate::hyperx::{HyperX, HyperXConfig};
use crate::topology::Dragonfly;
use serde::{Deserialize, Error, Serialize, Value};

/// A serialisable topology description: the tagged union of every
/// registered topology's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// The paper's Dragonfly, `(p, a, h)`.
    Dragonfly(DragonflyConfig),
    /// A three-level k-ary fat-tree.
    FatTree(FatTreeConfig),
    /// A 2-D HyperX / flattened butterfly, `(p, rows, cols)`.
    HyperX(HyperXConfig),
}

impl TopologySpec {
    /// The lowercase wire tag of the variant.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TopologySpec::Dragonfly(_) => "dragonfly",
            TopologySpec::FatTree(_) => "fattree",
            TopologySpec::HyperX(_) => "hyperx",
        }
    }

    /// Validate the parameters, returning a friendly message naming the
    /// topology and the violated constraint: the structural rules of each
    /// fabric, then [`TopologySpec::check_id_widths`].
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TopologySpec::Dragonfly(cfg) => DragonflyConfig::new(cfg.p, cfg.a, cfg.h)
                .map(|_| ())
                .map_err(|e| format!("dragonfly: {e}")),
            TopologySpec::FatTree(cfg) => cfg.validate().map_err(|e| format!("fattree: {e}")),
            TopologySpec::HyperX(cfg) => cfg.validate().map_err(|e| format!("hyperx: {e}")),
        }?;
        self.check_id_widths()
    }

    /// Whether every id of the built system fits the field a packet packs
    /// it into: at most 256 host ports per router (an 8-bit source slot),
    /// radix 65,535 (16-bit ports, `u16::MAX` meaning none), 65,536 domains
    /// (a 16-bit destination group), and at most `u32::MAX` routers and
    /// nodes, so every id stays below the `u32::MAX` sentinel. Counted
    /// without building anything, in checked arithmetic.
    fn check_id_widths(&self) -> Result<(), String> {
        let mul = |a: usize, b: usize| a.checked_mul(b);
        let (hosts, radix, domains, routers, nodes) = match *self {
            TopologySpec::Dragonfly(DragonflyConfig { p, a, h }) => {
                let groups = mul(a, h).and_then(|ah| ah.checked_add(1));
                let routers = groups.and_then(|g| mul(g, a));
                let radix = p.checked_add(a - 1).and_then(|r| r.checked_add(h));
                (p, radix, groups, routers, routers.and_then(|m| mul(m, p)))
            }
            TopologySpec::FatTree(cfg) => {
                let half = cfg.half();
                let cores = mul(half, half);
                let routers = mul(cfg.k, cfg.k).and_then(|r| r.checked_add(cores?));
                (
                    half,
                    Some(cfg.k),
                    Some(cfg.k),
                    routers,
                    cores.and_then(|c| mul(c, cfg.k)),
                )
            }
            TopologySpec::HyperX(cfg) => {
                let radix = cfg.p.checked_add(cfg.cols - 1);
                let radix = radix.and_then(|r| r.checked_add(cfg.rows - 1));
                let routers = mul(cfg.rows, cfg.cols);
                (
                    cfg.p,
                    radix,
                    Some(cfg.rows),
                    routers,
                    routers.and_then(|m| mul(m, cfg.p)),
                )
            }
        };
        let limits = [
            (
                "host ports per router",
                Some(hosts),
                256,
                "8-bit source slot",
            ),
            ("radix", radix, 65_535, "16-bit port, 65,535 meaning none"),
            ("domains", domains, 65_536, "16-bit destination group"),
            (
                "routers",
                routers,
                u32::MAX as usize,
                "32-bit id, u32::MAX meaning none",
            ),
            (
                "nodes",
                nodes,
                u32::MAX as usize,
                "32-bit id, u32::MAX meaning none",
            ),
        ];
        for (field, count, limit, why) in limits {
            match count {
                Some(count) if count <= limit => {}
                Some(count) => {
                    return Err(format!(
                        "{}: {count} {field} exceeds the limit of {limit} (a packet's {why})",
                        self.kind_name()
                    ))
                }
                None => {
                    return Err(format!(
                        "{}: counting its {field} overflows a machine word; the limit is \
                         {limit} (a packet's {why})",
                        self.kind_name()
                    ))
                }
            }
        }
        Ok(())
    }

    /// Build the wired topology (the spec must be valid — run
    /// [`TopologySpec::validate`] on untrusted input first).
    pub fn build(&self) -> AnyTopology {
        match self {
            TopologySpec::Dragonfly(cfg) => Dragonfly::new(*cfg).into(),
            TopologySpec::FatTree(cfg) => FatTree::new(*cfg).into(),
            TopologySpec::HyperX(cfg) => HyperX::new(*cfg).into(),
        }
    }

    /// Number of compute nodes the built system would have.
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologySpec::Dragonfly(cfg) => cfg.nodes(),
            TopologySpec::FatTree(cfg) => cfg.nodes(),
            TopologySpec::HyperX(cfg) => cfg.nodes(),
        }
    }

    /// Number of locality domains (Dragonfly groups / fat-tree pods /
    /// HyperX rows) the built system would have.
    pub fn num_domains(&self) -> usize {
        match self {
            TopologySpec::Dragonfly(cfg) => cfg.groups(),
            TopologySpec::FatTree(cfg) => cfg.pods(),
            TopologySpec::HyperX(cfg) => cfg.rows,
        }
    }

    /// Registered topologies with their parameter schemas — the data
    /// behind `qadaptive-cli topologies`.
    pub fn catalog() -> Vec<TopologyKindInfo> {
        vec![
            TopologyKindInfo {
                name: "dragonfly",
                parameters: "p (nodes/router), a (routers/group), h (global links/router)",
                constraints: "p, a, h >= 1; a >= 2; balanced when a = 2p = 2h",
                domains: "groups (g = a*h + 1)",
                example: "[topology.dragonfly]\np = 4\na = 8\nh = 4",
            },
            TopologyKindInfo {
                name: "fattree",
                parameters: "k (switch arity)",
                constraints: "k even, k >= 2; k pods, k^2/4 cores, k^3/4 hosts",
                domains: "pods (plus each pod's slice of the core)",
                example: "[topology.fattree]\nk = 4",
            },
            TopologyKindInfo {
                name: "hyperx",
                parameters: "p (nodes/router), rows, cols (router grid)",
                constraints: "p >= 1; rows, cols >= 2; all-to-all in each dimension",
                domains: "rows (column links are the global dimension)",
                example: "[topology.hyperx]\np = 2\nrows = 6\ncols = 6",
            },
        ]
    }
}

/// Catalog entry describing one registered topology kind.
#[derive(Debug, Clone, Copy)]
pub struct TopologyKindInfo {
    /// Wire tag (`dragonfly`, `fattree`, `hyperx`).
    pub name: &'static str,
    /// Parameter summary.
    pub parameters: &'static str,
    /// Structural constraints checked by validation.
    pub constraints: &'static str,
    /// What the locality domains (sharding units) are.
    pub domains: &'static str,
    /// Minimal scenario-file snippet.
    pub example: &'static str,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec::Dragonfly(DragonflyConfig::default())
    }
}

impl From<DragonflyConfig> for TopologySpec {
    fn from(cfg: DragonflyConfig) -> Self {
        TopologySpec::Dragonfly(cfg)
    }
}

impl From<FatTreeConfig> for TopologySpec {
    fn from(cfg: FatTreeConfig) -> Self {
        TopologySpec::FatTree(cfg)
    }
}

impl From<HyperXConfig> for TopologySpec {
    fn from(cfg: HyperXConfig) -> Self {
        TopologySpec::HyperX(cfg)
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::Dragonfly(cfg) => cfg.fmt(f),
            TopologySpec::FatTree(cfg) => cfg.fmt(f),
            TopologySpec::HyperX(cfg) => cfg.fmt(f),
        }
    }
}

impl Serialize for TopologySpec {
    fn to_value(&self) -> Value {
        let (tag, inner) = match self {
            TopologySpec::Dragonfly(cfg) => ("dragonfly", cfg.to_value()),
            TopologySpec::FatTree(cfg) => ("fattree", cfg.to_value()),
            TopologySpec::HyperX(cfg) => ("hyperx", cfg.to_value()),
        };
        Value::Map(vec![(tag.to_string(), inner)])
    }
}

impl Deserialize for TopologySpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Map(entries) = v else {
            return Err(Error::msg(format!(
                "topology must be a map, found {}",
                v.kind()
            )));
        };
        // Externally tagged form: a single `{ kind: { params } }` entry.
        if let [(tag, inner)] = entries.as_slice() {
            match tag.to_ascii_lowercase().replace(['_', '-'], "").as_str() {
                "dragonfly" => return DragonflyConfig::from_value(inner).map(Self::Dragonfly),
                "fattree" => return FatTreeConfig::from_value(inner).map(Self::FatTree),
                "hyperx" | "flattenedbutterfly" => {
                    return HyperXConfig::from_value(inner).map(Self::HyperX)
                }
                _ => {}
            }
        }
        // Legacy untagged Dragonfly: a bare `{ p, a, h }` table (every
        // pre-trait scenario file).
        if v.get("p").is_some() && v.get("a").is_some() && v.get("h").is_some() {
            return DragonflyConfig::from_value(v).map(Self::Dragonfly);
        }
        Err(Error::msg(
            "unknown topology: expected `[topology.dragonfly]` (p, a, h), \
             `[topology.fattree]` (k), `[topology.hyperx]` (p, rows, cols), \
             or the legacy bare `[topology]` Dragonfly table with p/a/h",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Topology;

    #[test]
    fn tagged_forms_round_trip_through_toml_and_json() {
        for spec in [
            TopologySpec::Dragonfly(DragonflyConfig::tiny()),
            TopologySpec::FatTree(FatTreeConfig::tiny()),
            TopologySpec::HyperX(HyperXConfig::tiny()),
        ] {
            let value = spec.to_value();
            assert_eq!(TopologySpec::from_value(&value).unwrap(), spec);
        }
    }

    #[test]
    fn legacy_untagged_dragonfly_still_parses() {
        let legacy = Value::Map(vec![
            ("p".into(), Value::Int(2)),
            ("a".into(), Value::Int(4)),
            ("h".into(), Value::Int(2)),
        ]);
        assert_eq!(
            TopologySpec::from_value(&legacy).unwrap(),
            TopologySpec::Dragonfly(DragonflyConfig::tiny())
        );
    }

    #[test]
    fn unknown_topologies_get_a_helpful_error() {
        let bad = Value::Map(vec![("torus".into(), Value::Map(vec![]))]);
        let err = TopologySpec::from_value(&bad).unwrap_err().to_string();
        assert!(err.contains("dragonfly"), "{err}");
        assert!(err.contains("fattree"), "{err}");
        assert!(err.contains("hyperx"), "{err}");
    }

    #[test]
    fn validation_messages_name_the_topology_and_constraint() {
        let odd = TopologySpec::FatTree(FatTreeConfig { k: 5 });
        let err = odd.validate().unwrap_err();
        assert!(err.contains("fattree"), "{err}");
        assert!(err.contains("even"), "{err}");
        let flat = TopologySpec::HyperX(HyperXConfig {
            p: 2,
            rows: 1,
            cols: 8,
        });
        assert!(flat.validate().unwrap_err().contains("2x2"));
        let zero = TopologySpec::Dragonfly(DragonflyConfig { p: 0, a: 4, h: 2 });
        assert!(zero.validate().unwrap_err().contains("dragonfly"));
        assert!(TopologySpec::default().validate().is_ok());
    }

    #[test]
    fn build_produces_matching_counts() {
        for spec in [
            TopologySpec::Dragonfly(DragonflyConfig::tiny()),
            TopologySpec::FatTree(FatTreeConfig::tiny()),
            TopologySpec::HyperX(HyperXConfig::tiny()),
        ] {
            let topo = spec.build();
            assert_eq!(topo.num_nodes(), spec.num_nodes());
            assert_eq!(topo.num_domains(), spec.num_domains());
            assert_eq!(topo.kind_name(), spec.kind_name());
        }
    }

    #[test]
    fn catalog_covers_every_variant() {
        let names: Vec<&str> = TopologySpec::catalog().iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["dragonfly", "fattree", "hyperx"]);
    }
}
