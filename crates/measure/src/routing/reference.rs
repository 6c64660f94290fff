//! Reference `BinaryHeap` Dijkstra.
//!
//! The original `RoutingOracle` solver, kept verbatim as the
//! differential-testing baseline for the bucket-queue implementation in
//! the parent module: `measure/tests/properties.rs` asserts the two
//! produce bit-identical `dist`/`parent` trees over random topologies.
//! This module is the one sanctioned `BinaryHeap` user in the workspace
//! (clippy's `disallowed_types` bans it everywhere else) — production
//! paths must use the bucket queue.

// The differential-testing baseline keeps the textbook heap solver.
#![allow(clippy::disallowed_types)]

use super::{INTER_COST, INTRA_COST};
use geotopo_topology::{RouterId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Runs the textbook heap-based Dijkstra from `source`, returning the
/// `(dist, parent)` arrays in the same encoding the oracle uses
/// (`u64::MAX` = unreachable, `parent[source] = None`).
pub fn solve(topology: &Topology, source: RouterId) -> (Vec<u64>, Vec<Option<RouterId>>) {
    let n = topology.num_routers();
    let mut dist = vec![u64::MAX; n];
    let mut parent: Vec<Option<RouterId>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[source.0 as usize] = 0;
    heap.push(Reverse((0, source.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for e in topology.neighbors(RouterId(u)) {
            let w = if topology.is_interdomain(e.link()) {
                INTER_COST
            } else {
                INTRA_COST
            };
            let nd = d + w;
            let v = e.neighbor();
            if nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                parent[v.0 as usize] = Some(RouterId(u));
                heap.push(Reverse((nd, v.0)));
            }
        }
    }
    (dist, parent)
}
