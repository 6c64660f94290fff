//! The campaign prologue both collectors share: a destination list drawn
//! over the allocated address space, and the router serving each
//! destination.

use crate::skitter::DEST_CHUNK;
use geotopo_bgp::trie::PrefixTrie;
use geotopo_stats::{AliasTable, ChunkExec};
use geotopo_topology::generate::GroundTruth;
use geotopo_topology::RouterId;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Draws up to `n` distinct destination addresses from `rng`, in draw
/// order, and resolves the access router each attaches to (`None` when
/// no AS owns the address or the owner has no routers).
///
/// Addresses spread over the allocated space, weighted by allocation
/// capacity ("the destination lists are created with the aim to cover
/// all blocks of 256 addresses"). A draw that repeats an address is
/// retried, up to `10 * n` draws in all. The attach router is a
/// deterministic member of the owning AS, `routers_of_as(asn)[ip % len]`.
/// It is a pure function of the world and touches no RNG, so the
/// chunked resolution through `exec` is byte-identical at any
/// parallelism.
pub(crate) fn sample_destinations(
    gt: &GroundTruth,
    n: usize,
    rng: &mut StdRng,
    exec: &impl ChunkExec,
) -> (Vec<Ipv4Addr>, Vec<Option<RouterId>>) {
    let weights: Vec<f64> = gt.allocations.iter().map(|a| a.capacity() as f64).collect();
    let pick = AliasTable::new(&weights).expect("non-empty allocations"); // lint: allow(unwrap): generated worlds always allocate prefixes
    let mut ips: Vec<Ipv4Addr> = Vec::with_capacity(n);
    let mut seen: HashSet<Ipv4Addr> = HashSet::new();
    let mut guard = 0usize;
    while ips.len() < n && guard < n * 10 {
        guard += 1;
        let alloc = &gt.allocations[pick.sample(rng)];
        let prefix = alloc.prefixes[rng.random_range(0..alloc.prefixes.len())];
        let Some(ip) = prefix.nth(rng.random_range(0..prefix.size())) else {
            continue;
        };
        if seen.insert(ip) {
            ips.push(ip);
        }
    }

    // Ground-truth address ownership (who a destination belongs to).
    let mut owner = PrefixTrie::new();
    for alloc in &gt.allocations {
        for &p in &alloc.prefixes {
            owner.insert(p, alloc.asn);
        }
    }
    let t = &gt.topology;
    let attach = exec
        .dispatch(ips.len().div_ceil(DEST_CHUNK), &|c| {
            let hi = ((c + 1) * DEST_CHUNK).min(ips.len());
            ips[c * DEST_CHUNK..hi]
                .iter()
                .map(|&ip| {
                    let (asn, _) = owner.lookup(ip)?;
                    let members = t.routers_of_as(*asn);
                    if members.is_empty() {
                        return None;
                    }
                    Some(members[(u32::from(ip) as usize) % members.len()])
                })
                .collect::<Vec<_>>()
        })
        .concat();
    (ips, attach)
}
