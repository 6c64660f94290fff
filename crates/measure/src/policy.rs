//! Valley-free policy routing.
//!
//! The plain [`crate::routing::RoutingOracle`] models BGP's preference
//! for staying inside a domain with a cost penalty. This module models
//! the *hard* constraint real interdomain routing obeys: the valley-free
//! rule over customer/provider/peer relationships. Paths climb
//! customer→provider links, cross at most one peering, then descend —
//! and a destination reachable in few hops through a "valley" must take
//! the long way around, producing the path inflation measured in real
//! traceroutes.
//!
//! Implemented as a layered Dijkstra over (router, phase) states:
//! phase `Up` (still climbing) and `Down` (committed to descending).

use crate::routing::{INTER_COST, INTRA_COST};
use geotopo_bgp::{AsRelations, Relationship};
use geotopo_topology::{RouterId, Topology};
use std::collections::{BTreeSet, HashMap};

/// Builds size-inferred AS relationships for a topology: sizes from
/// router counts, adjacencies from interdomain links.
pub fn infer_relations(topology: &Topology, provider_ratio: f64) -> AsRelations {
    let mut sizes: HashMap<geotopo_bgp::AsId, usize> = HashMap::new();
    for (_, r) in topology.routers() {
        *sizes.entry(r.asn).or_insert(0) += 1;
    }
    let adjacencies: Vec<_> = topology
        .links()
        .filter(|(id, _)| topology.is_interdomain(*id))
        .map(|(id, _)| {
            let (a, b) = topology.link_routers(id);
            (topology.router(a).asn, topology.router(b).asn)
        })
        .collect();
    AsRelations::infer(&sizes, adjacencies, provider_ratio)
}

const UP: usize = 0;
const DOWN: usize = 1;

/// A valley-free shortest-path forest from one source.
#[derive(Debug)]
pub struct PolicyOracle {
    source: RouterId,
    /// Per (router, phase): predecessor state, encoded as
    /// `router * 2 + phase` (usize::MAX = none).
    parent: Vec<usize>,
    dist: Vec<u64>,
    n: usize,
}

impl PolicyOracle {
    /// Runs the layered Dijkstra from `source` under `relations`.
    pub fn new(topology: &Topology, relations: &AsRelations, source: RouterId) -> Self {
        let n = topology.num_routers();
        let mut dist = vec![u64::MAX; 2 * n];
        let mut parent = vec![usize::MAX; 2 * n];
        // An ordered set pops the lexicographic (dist, state) minimum
        // exactly like the old BinaryHeap<Reverse<..>> did; this module
        // is off the hot path, so the simpler structure wins over a
        // second bucket queue (and clippy's `disallowed_types` keeps
        // BinaryHeap out of everything but the routing reference).
        let mut frontier: BTreeSet<(u64, usize)> = BTreeSet::new();
        let start = source.0 as usize * 2 + UP;
        dist[start] = 0;
        frontier.insert((0, start));
        while let Some((d, state)) = frontier.pop_first() {
            if d > dist[state] {
                continue;
            }
            let u = RouterId((state / 2) as u32);
            let phase = state % 2;
            let as_u = topology.router(u).asn;
            for e in topology.neighbors(u) {
                let v = e.neighbor();
                let as_v = topology.router(v).asn;
                let (next_phase, cost) = if as_u == as_v {
                    (phase, INTRA_COST)
                } else {
                    match relations.get(as_u, as_v) {
                        Some(Relationship::CustomerToProvider) if phase == UP => (UP, INTER_COST),
                        Some(Relationship::PeerToPeer) if phase == UP => (DOWN, INTER_COST),
                        Some(Relationship::ProviderToCustomer) => (DOWN, INTER_COST),
                        _ => continue, // valley or unknown edge: forbidden
                    }
                };
                let next = v.0 as usize * 2 + next_phase;
                let nd = d + cost;
                if nd < dist[next] {
                    dist[next] = nd;
                    parent[next] = state;
                    frontier.insert((nd, next));
                }
            }
        }
        PolicyOracle {
            source,
            parent,
            dist,
            n,
        }
    }

    /// The source router.
    pub fn source(&self) -> RouterId {
        self.source
    }

    /// Best policy-compliant cost to `dst`, if reachable.
    pub fn cost(&self, dst: RouterId) -> Option<u64> {
        let i = dst.0 as usize * 2;
        let best = self.dist[i + UP].min(self.dist[i + DOWN]);
        if best == u64::MAX {
            None
        } else {
            Some(best)
        }
    }

    /// The router path source → `dst` under valley-free routing, or
    /// `None` if no compliant path exists.
    pub fn path(&self, dst: RouterId) -> Option<Vec<RouterId>> {
        let i = dst.0 as usize * 2;
        let end = if self.dist[i + UP] <= self.dist[i + DOWN] {
            i + UP
        } else {
            i + DOWN
        };
        if self.dist[end] == u64::MAX {
            return None;
        }
        let mut states = vec![end];
        let mut cur = end;
        let mut guard = 0;
        while self.parent[cur] != usize::MAX && guard <= 2 * self.n {
            cur = self.parent[cur];
            states.push(cur);
            guard += 1;
        }
        states.reverse();
        let mut path: Vec<RouterId> = Vec::with_capacity(states.len());
        for s in states {
            let r = RouterId((s / 2) as u32);
            if path.last() != Some(&r) {
                path.push(r);
            }
        }
        debug_assert_eq!(path.first(), Some(&self.source));
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingOracle;
    use geotopo_bgp::AsId;
    use geotopo_geo::GeoPoint;
    use geotopo_topology::TopologyBuilder;

    fn loc(i: usize) -> GeoPoint {
        GeoPoint::new(10.0 + i as f64 * 0.2, 20.0).unwrap()
    }

    /// Two stub ASes (2, 3) hanging off a provider (1); a direct
    /// peer link between the stubs' routers exists but belongs to a
    /// *sibling* relationship scenario we control via sizes.
    fn two_stubs_one_provider() -> (geotopo_topology::Topology, Vec<RouterId>) {
        let mut b = TopologyBuilder::new();
        // AS1: big provider (3 routers), AS2/AS3: single-router stubs.
        let p0 = b.add_router(loc(0), AsId(1));
        let p1 = b.add_router(loc(1), AsId(1));
        let p2 = b.add_router(loc(2), AsId(1));
        let s2 = b.add_router(loc(3), AsId(2));
        let s3 = b.add_router(loc(4), AsId(3));
        b.add_link_auto(p0, p1).unwrap();
        b.add_link_auto(p1, p2).unwrap();
        b.add_link_auto(s2, p0).unwrap();
        b.add_link_auto(s3, p2).unwrap();
        (b.build(), vec![p0, p1, p2, s2, s3])
    }

    #[test]
    fn stub_to_stub_goes_through_provider() {
        let (t, r) = two_stubs_one_provider();
        let rel = infer_relations(&t, 2.0);
        let oracle = PolicyOracle::new(&t, &rel, r[3]);
        let path = oracle.path(r[4]).unwrap();
        assert_eq!(path, vec![r[3], r[0], r[1], r[2], r[4]]);
    }

    #[test]
    fn provider_reaches_customers() {
        let (t, r) = two_stubs_one_provider();
        let rel = infer_relations(&t, 2.0);
        let oracle = PolicyOracle::new(&t, &rel, r[1]);
        assert!(oracle.path(r[3]).is_some());
        assert!(oracle.path(r[4]).is_some());
    }

    /// A "valley" topology: stub AS4 is multihomed to two providers
    /// (AS2, AS3) that are both customers of tier-1 AS1. Traffic from
    /// AS2 to AS3 must NOT transit customer AS4 even though that path
    /// has fewer hops.
    #[test]
    fn transit_through_customer_forbidden() {
        let mut b = TopologyBuilder::new();
        // Sizes: AS1 = 4 routers, AS2 = AS3 = 2, AS4 = 1.
        let t1a = b.add_router(loc(0), AsId(1));
        let t1b = b.add_router(loc(1), AsId(1));
        let t1c = b.add_router(loc(2), AsId(1));
        let t1d = b.add_router(loc(3), AsId(1));
        b.add_link_auto(t1a, t1b).unwrap();
        b.add_link_auto(t1b, t1c).unwrap();
        b.add_link_auto(t1c, t1d).unwrap();
        let a2a = b.add_router(loc(4), AsId(2));
        let a2b = b.add_router(loc(5), AsId(2));
        b.add_link_auto(a2a, a2b).unwrap();
        let a3a = b.add_router(loc(6), AsId(3));
        let a3b = b.add_router(loc(7), AsId(3));
        b.add_link_auto(a3a, a3b).unwrap();
        let stub = b.add_router(loc(8), AsId(4));
        // AS2 and AS3 attach to the tier-1 at opposite ends.
        b.add_link_auto(a2a, t1a).unwrap();
        b.add_link_auto(a3a, t1d).unwrap();
        // The multihomed customer: short cut between AS2 and AS3.
        b.add_link_auto(a2b, stub).unwrap();
        b.add_link_auto(a3b, stub).unwrap();
        let t = b.build();
        let rel = infer_relations(&t, 2.0);

        let policy = PolicyOracle::new(&t, &rel, a2b);
        let path = policy.path(a3b).unwrap();
        assert!(
            !path.contains(&stub),
            "policy path transits the customer: {path:?}"
        );
        // The unconstrained oracle happily uses the valley.
        let plain = RoutingOracle::new(&t, a2b);
        let short = plain.path(a3b).unwrap();
        assert!(short.contains(&stub), "plain path avoids valley: {short:?}");
        // And policy inflation is real: strictly more hops.
        assert!(path.len() > short.len());
    }

    #[test]
    fn policy_paths_are_valley_free() {
        let (t, r) = two_stubs_one_provider();
        let rel = infer_relations(&t, 2.0);
        for &src in &r {
            let oracle = PolicyOracle::new(&t, &rel, src);
            for &dst in &r {
                if let Some(path) = oracle.path(dst) {
                    let as_path: Vec<_> = path.iter().map(|&x| t.router(x).asn).collect();
                    assert!(rel.is_valley_free(&as_path), "{src:?}→{dst:?}: {as_path:?}");
                }
            }
        }
    }

    #[test]
    fn unreachable_without_compliant_path() {
        // Two stubs sharing only a peer link peer↔peer can reach each
        // other (one peak crossing) — but a third stub behind one of
        // them cannot cross two peerings.
        let mut b = TopologyBuilder::new();
        let a = b.add_router(loc(0), AsId(1));
        let c = b.add_router(loc(1), AsId(2));
        let d = b.add_router(loc(2), AsId(3));
        b.add_link_auto(a, c).unwrap();
        b.add_link_auto(c, d).unwrap();
        let t = b.build();
        // Equal sizes: both edges become peerings.
        let rel = infer_relations(&t, 3.0);
        let oracle = PolicyOracle::new(&t, &rel, a);
        assert!(oracle.path(c).is_some());
        assert_eq!(oracle.path(d), None, "two peer crossings must be illegal");
    }
}
