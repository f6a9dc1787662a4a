//! Q-value initialisation.
//!
//! The paper initialises Q-values "to the theoretical packet delivery time
//! without any congestion through a minimal routing path". We refine this
//! per column: the value of (row, port) is the congestion-free time of the
//! first hop through that port plus the congestion-free minimal delivery
//! time from the neighbouring router onwards. This makes the initial
//! `argmin` of every row coincide with the minimal path, so an untrained
//! Q-adaptive router behaves like minimal routing (exactly what the paper's
//! convergence plots show at t = 0 under low load).
//!
//! The estimates are topology-generic: the first-hop cost comes from the
//! port's link kind and the remaining time from
//! [`Topology::estimate_hops_to_domain`] /
//! [`Topology::minimal_hop_kinds`], so the same initialisation works on
//! the Dragonfly, the fat-tree and the HyperX (and reproduces the
//! pre-trait Dragonfly values bit for bit).

use dragonfly_engine::config::EngineConfig;
use dragonfly_topology::ids::{GroupId, Port, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use std::sync::Arc;

use crate::paged::PagedQTable;
use crate::qtable::QTable;
use crate::two_level::TwoLevelQTable;

/// Congestion-free delivery-time estimate from `router` to *some* node in
/// `domain` (the topology's typical-case hop sequence).
pub fn theoretical_to_domain(
    topo: &AnyTopology,
    cfg: &EngineConfig,
    router: RouterId,
    domain: GroupId,
) -> f64 {
    cfg.theoretical_delivery_ns(topo.estimate_hops_to_domain(router, domain)) as f64
}

/// Congestion-free delivery-time estimate from `router` to a specific
/// destination router.
pub fn theoretical_to_router(
    topo: &AnyTopology,
    cfg: &EngineConfig,
    router: RouterId,
    dest: RouterId,
) -> f64 {
    let kinds = topo.minimal_hop_kinds(router, dest);
    cfg.theoretical_delivery_ns(&kinds) as f64
}

/// The congestion-free cost of leaving `router` through fabric `port` and
/// then minimally reaching `domain`.
pub fn port_then_domain_estimate(
    topo: &AnyTopology,
    cfg: &EngineConfig,
    router: RouterId,
    port: Port,
    domain: GroupId,
) -> f64 {
    let kind = topo.link_kind(router, port);
    let neighbor = topo.neighbor_router(router, port);
    if topo.domain_of_router(neighbor) == domain
        && neighbor != router
        && topo.host_ports(neighbor) > 0
    {
        // The next router is already in the destination domain *and* can
        // eject; only the ejection (plus possibly one more local hop,
        // averaged away) is left. Use the exact remaining estimate of
        // zero further hops. Node-less routers (fat-tree aggs/cores) fall
        // through to the domain estimate, which still charges the hops
        // down to an edge switch.
        return cfg.hop_ns(kind) as f64 + cfg.ejection_ns() as f64;
    }
    cfg.hop_ns(kind) as f64 + theoretical_to_domain(topo, cfg, neighbor, domain)
}

/// Build a fully initialised two-level Q-table for one router: rows are
/// `(destination domain, source slot)`, columns are this router's fabric
/// ports.
pub fn init_two_level_table(
    topo: &AnyTopology,
    cfg: &EngineConfig,
    router: RouterId,
) -> TwoLevelQTable {
    TwoLevelQTable::from_fn(
        topo.num_domains(),
        topo.max_nodes_per_router(),
        topo.fabric_ports(router),
        |domain, _slot, col| {
            let port = topo.port_for_column(router, col);
            port_then_domain_estimate(topo, cfg, router, port, domain)
        },
    )
}

/// Build a fully initialised original (destination-router indexed) Q-table
/// for one router.
pub fn init_qtable(topo: &AnyTopology, cfg: &EngineConfig, router: RouterId) -> QTable {
    QTable::from_fn(
        topo.num_routers(),
        topo.fabric_ports(router),
        |dest, col| {
            let port = topo.port_for_column(router, col);
            let kind = topo.link_kind(router, port);
            let neighbor = topo.neighbor_router(router, port);
            if neighbor == dest {
                cfg.hop_ns(kind) as f64 + cfg.ejection_ns() as f64
            } else {
                cfg.hop_ns(kind) as f64 + theoretical_to_router(topo, cfg, neighbor, dest)
            }
        },
    )
}

/// The paged counterpart of [`init_two_level_table`]: same shape, same
/// deterministic init values, but a row is stored only once written. The
/// init closure owns a clone of the topology (topologies are O(1)
/// arithmetic over their configuration, so the clone is cheap) and
/// evaluates one row on demand, without allocating, instead of eagerly
/// filling `rows × columns` cells.
pub fn init_two_level_paged(
    topo: &AnyTopology,
    cfg: &EngineConfig,
    router: RouterId,
) -> PagedQTable {
    let nodes_per_router = topo.max_nodes_per_router().max(1);
    let rows = topo.num_domains() * topo.max_nodes_per_router();
    let columns = topo.fabric_ports(router);
    let topo = topo.clone();
    let cfg = *cfg;
    PagedQTable::new(
        rows,
        columns,
        Arc::new(move |row, out| {
            // The two-level init is slot-independent: row j·p + n maps to
            // domain j, and the slot does not enter the estimate.
            let domain = GroupId::from_index(row / nodes_per_router);
            for (col, value) in out.iter_mut().enumerate() {
                let port = topo.port_for_column(router, col);
                *value = port_then_domain_estimate(&topo, &cfg, router, port, domain);
            }
        }),
    )
}

/// The paged counterpart of [`init_qtable`]: one row per destination
/// router, stored only once written.
pub fn init_qtable_paged(topo: &AnyTopology, cfg: &EngineConfig, router: RouterId) -> PagedQTable {
    let rows = topo.num_routers();
    let columns = topo.fabric_ports(router);
    let topo = topo.clone();
    let cfg = *cfg;
    PagedQTable::new(
        rows,
        columns,
        Arc::new(move |row, out| {
            let dest = RouterId::from_index(row);
            for (col, value) in out.iter_mut().enumerate() {
                let port = topo.port_for_column(router, col);
                let kind = topo.link_kind(router, port);
                let neighbor = topo.neighbor_router(router, port);
                *value = if neighbor == dest {
                    cfg.hop_ns(kind) as f64 + cfg.ejection_ns() as f64
                } else {
                    cfg.hop_ns(kind) as f64 + theoretical_to_router(&topo, &cfg, neighbor, dest)
                };
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::QValueTable;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::{Dragonfly, FatTree, FatTreeConfig, HyperX, HyperXConfig};

    fn setup() -> (AnyTopology, EngineConfig) {
        (
            Dragonfly::new(DragonflyConfig::tiny()).into(),
            EngineConfig::paper(5),
        )
    }

    #[test]
    fn initial_argmin_matches_the_minimal_path_across_groups() {
        let (topo, cfg) = setup();
        let df = topo.as_dragonfly().unwrap().clone();
        let router = RouterId(0);
        let table = init_two_level_table(&topo, &cfg, router);
        for group in df.groups() {
            if group == df.group_of_router(router) {
                continue;
            }
            // The minimal path towards any router of `group` starts either
            // at our own global link to it or at the local link towards the
            // gateway router.
            let (gateway, gport) = df.gateway(df.group_of_router(router), group);
            let expected_port = if gateway == router {
                gport
            } else {
                df.local_port_to(router, gateway)
            };
            let expected_col = df.layout().qtable_column(expected_port).unwrap();
            let (best_col, _) = table.best_for(group, 0);
            assert_eq!(
                best_col, expected_col,
                "group {group:?}: initial best port should be the minimal one"
            );
        }
    }

    #[test]
    fn init_values_are_positive_and_bounded_on_every_topology() {
        let cfg = EngineConfig::paper(5);
        let topologies: Vec<AnyTopology> = vec![
            Dragonfly::new(DragonflyConfig::tiny()).into(),
            FatTree::new(FatTreeConfig::tiny()).into(),
            HyperX::new(HyperXConfig::tiny()).into(),
        ];
        for topo in topologies {
            for r in [0, topo.num_routers() / 2, topo.num_routers() - 1] {
                let router = RouterId::from_index(r);
                let table = init_two_level_table(&topo, &cfg, router);
                assert_eq!(table.columns(), topo.fabric_ports(router));
                for row in 0..table.rows() {
                    for col in 0..table.columns() {
                        let v = table.get(row, col);
                        assert!(v > 0.0, "{}: row {row} col {col}", topo.kind_name());
                        // Worst initial estimate: a hop plus a short
                        // minimal route plus ejection — well under 10 µs
                        // with paper timing.
                        assert!(
                            v < 10_000.0,
                            "{}: row {row} col {col}: {v}",
                            topo.kind_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn qtable_init_matches_direct_theoretical_time_for_neighbors() {
        let (topo, cfg) = setup();
        let router = RouterId(0);
        let table = init_qtable(&topo, &cfg, router);
        // For a directly connected destination, the init through the direct
        // port equals one hop plus ejection.
        for col in 0..topo.fabric_ports(router) {
            let port = topo.port_for_column(router, col);
            let neighbor = topo.neighbor_router(router, port);
            let v = table.value(neighbor, col);
            let kind = topo.link_kind(router, port);
            assert_eq!(v, (cfg.hop_ns(kind) + cfg.ejection_ns()) as f64);
        }
    }

    #[test]
    fn paged_init_matches_dense_init_cell_for_cell() {
        let cfg = EngineConfig::paper(5);
        let topologies: Vec<AnyTopology> = vec![
            Dragonfly::new(DragonflyConfig::tiny()).into(),
            FatTree::new(FatTreeConfig::tiny()).into(),
            HyperX::new(HyperXConfig::tiny()).into(),
        ];
        for topo in topologies {
            for r in [0, topo.num_routers() - 1] {
                let router = RouterId::from_index(r);
                let dense = init_two_level_table(&topo, &cfg, router);
                let paged = init_two_level_paged(&topo, &cfg, router);
                assert_eq!(paged.rows(), dense.rows(), "{}", topo.kind_name());
                assert_eq!(paged.columns(), dense.columns());
                assert_eq!(paged.values(), dense.values(), "{}", topo.kind_name());
                for row in 0..dense.rows() {
                    assert_eq!(paged.best_in_row(row), dense.best_in_row(row));
                }
                let dense_q = init_qtable(&topo, &cfg, router);
                let paged_q = init_qtable_paged(&topo, &cfg, router);
                assert_eq!(paged_q.values(), dense_q.values(), "{}", topo.kind_name());
            }
        }
    }

    #[test]
    fn theoretical_to_domain_is_cheaper_inside_own_domain() {
        let (topo, cfg) = setup();
        let router = RouterId(0);
        let own = theoretical_to_domain(&topo, &cfg, router, topo.domain_of_router(router));
        let other = theoretical_to_domain(&topo, &cfg, router, GroupId(3));
        assert!(own < other);
    }
}
