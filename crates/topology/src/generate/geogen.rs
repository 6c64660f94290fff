//! `geogen` — the geography-aware topology generator the paper envisions.
//!
//! The paper's conclusion calls for "the next generation of topology
//! generators, which we envisage as producing router-level graphs
//! annotated with attributes such as link latencies, AS identifiers and
//! geographical locations". `geogen` is that generator, built directly
//! from the paper's three findings:
//!
//! 1. routers are placed ∝ population^α inside a region (Section IV);
//! 2. a mixture of exponentially distance-sensitive links (share `q`,
//!    decay `L`) and distance-independent links (share `1−q`) — the
//!    75–95% / 25–5% split of Section V;
//! 3. AS labels drawn from a Zipf size distribution with geographically
//!    clustered assignment (Section VI).
//!
//! The output is a labelled [`Topology`] plus per-link latencies.

use super::waxman::GenError;
use crate::graph::{RouterId, Topology, TopologyBuilder};
use crate::latency::LatencyModel;
use geotopo_bgp::AsId;
use geotopo_geo::{GeoPoint, Region, SpatialIndex};
use geotopo_population::SyntheticPopulation;
use geotopo_stats::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// `geogen` parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoGenConfig {
    /// Number of routers.
    pub n: usize,
    /// Target mean degree.
    pub mean_degree: f64,
    /// Region to generate within.
    pub region: Region,
    /// Total population of the region (drives the synthetic raster).
    pub population: f64,
    /// Superlinear placement exponent α (paper: 1.2–1.7).
    pub alpha: f64,
    /// Exponential decay length of distance-sensitive links, miles.
    pub decay_miles: f64,
    /// Share of non-tree links that are distance-sensitive (paper:
    /// 0.75–0.95).
    pub distance_sensitive_share: f64,
    /// Number of ASes to label routers with.
    pub n_ases: usize,
    /// Zipf exponent for AS sizes.
    pub as_zipf: f64,
    /// Latency model for link annotation.
    pub latency: LatencyModel,
    /// RNG seed.
    pub seed: u64,
}

impl GeoGenConfig {
    /// A US-like default at the given size.
    pub fn us_default(n: usize, seed: u64) -> Self {
        GeoGenConfig {
            n,
            mean_degree: 3.0,
            region: geotopo_geo::RegionSet::us(),
            population: 299e6,
            alpha: 1.25,
            decay_miles: 145.0,
            distance_sensitive_share: 0.85,
            n_ases: (n / 25).max(4),
            as_zipf: 1.0,
            latency: LatencyModel::default(),
            seed,
        }
    }
}

/// `geogen` output: the annotated router-level graph.
#[derive(Debug, Clone)]
pub struct GeoGenOutput {
    /// The generated topology (locations and AS labels on routers).
    pub topology: Topology,
    /// Per-link one-way latency in milliseconds, indexed by link id.
    pub latencies_ms: Vec<f64>,
}

/// Runs the generator.
///
/// # Errors
///
/// Rejects zero sizes, α ≤ 0, shares outside [0, 1], or a mean degree
/// below 2 (the connectivity backbone alone is degree ≈ 2).
pub fn geogen(cfg: &GeoGenConfig) -> Result<GeoGenOutput, GenError> {
    if cfg.n == 0 {
        return Err(GenError::BadParameter("n"));
    }
    if cfg.n_ases == 0 || cfg.n_ases > cfg.n {
        return Err(GenError::BadParameter("n_ases"));
    }
    if cfg.alpha <= 0.0 || !cfg.alpha.is_finite() {
        return Err(GenError::BadParameter("alpha"));
    }
    if !(0.0..=1.0).contains(&cfg.distance_sensitive_share) {
        return Err(GenError::BadParameter("distance_sensitive_share"));
    }
    if cfg.mean_degree < 2.0 || !cfg.mean_degree.is_finite() {
        return Err(GenError::BadParameter("mean_degree"));
    }
    if cfg.decay_miles <= 0.0 || !cfg.decay_miles.is_finite() {
        return Err(GenError::BadParameter("decay_miles"));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Population-driven placement.
    let pop_cfg = SyntheticPopulation::developed(cfg.region.clone(), cfg.population);
    let pop = pop_cfg
        .generate(cfg.seed.wrapping_add(17))
        .map_err(|_| GenError::BadParameter("population"))?;
    let sampler = pop
        .point_sampler(cfg.alpha)
        .map_err(|_| GenError::BadParameter("population"))?;
    let locations: Vec<GeoPoint> = (0..cfg.n).map(|_| sampler.sample(&mut rng)).collect();

    // AS labels: Zipf sizes, assigned by geographic proximity — each AS
    // seeds at a random router and grows outward, giving spatially
    // coherent domains.
    let zipf = Zipf::new(cfg.n_ases, cfg.as_zipf).expect("validated"); // lint: allow(unwrap): parameters validated above
    let mut sizes: Vec<usize> = (1..=cfg.n_ases)
        .map(|k| ((zipf.pmf(k) * cfg.n as f64).round() as usize).max(1))
        .collect();
    let mut sum: usize = sizes.iter().sum();
    let mut k = 0;
    while sum > cfg.n {
        if sizes[k % cfg.n_ases] > 1 {
            sizes[k % cfg.n_ases] -= 1;
            sum -= 1;
        }
        k += 1;
    }
    while sum < cfg.n {
        sizes[k % cfg.n_ases] += 1;
        sum += 1;
        k += 1;
    }
    let spatial = SpatialIndex::new(locations.clone(), 1.0);
    let mut asn_of = vec![AsId(0); cfg.n];
    let mut unassigned: usize = cfg.n;
    for (idx, &size) in sizes.iter().enumerate() {
        let asn = AsId(idx as u32 + 1);
        // Seed at an unassigned router.
        let mut seed_r = rng.random_range(0..cfg.n);
        let mut guard = 0;
        while asn_of[seed_r] != AsId(0) && guard < cfg.n * 2 {
            seed_r = rng.random_range(0..cfg.n);
            guard += 1;
        }
        if asn_of[seed_r] != AsId(0) {
            if let Some(free) = asn_of.iter().position(|&a| a == AsId(0)) {
                seed_r = free;
            } else {
                break;
            }
        }
        // Claim the nearest `size` unassigned routers around the seed.
        let mut claimed = 0usize;
        let mut radius = 50.0;
        while claimed < size && radius < 25_000.0 {
            let nearby = spatial.within(&locations[seed_r], radius);
            for i in nearby {
                if claimed >= size {
                    break;
                }
                if asn_of[i as usize] == AsId(0) {
                    asn_of[i as usize] = asn;
                    claimed += 1;
                    unassigned -= 1;
                }
            }
            radius *= 2.0;
        }
        if unassigned == 0 {
            break;
        }
    }
    // Sweep leftovers into the last AS.
    for a in asn_of.iter_mut() {
        if *a == AsId(0) {
            *a = AsId(cfg.n_ases as u32);
        }
    }

    // Backbone chain plus extras up to the degree target.
    let est_links = (cfg.mean_degree * cfg.n as f64 / 2.0) as usize + cfg.n / 8;
    let mut b = TopologyBuilder::with_capacity(cfg.n, est_links);
    let ids: Vec<RouterId> = locations
        .iter()
        .zip(&asn_of)
        .map(|(p, a)| b.add_router(*p, *a))
        .collect();

    // Backbone: nearest-neighbour chain guaranteeing connectivity —
    // attach each router (in index order) to its nearest already-attached
    // neighbour, approximated by nearest overall (cheap and short-linked).
    for i in 1..cfg.n {
        let mut best: Option<(usize, f64)> = None;
        spatial.for_each_within(&locations[i], cfg.decay_miles * 4.0, |j, d| {
            if (j as usize) < i {
                match best {
                    Some((_, bd)) if bd <= d => {}
                    _ => best = Some((j as usize, d)),
                }
            }
        });
        let j = match best {
            Some((j, _)) => j,
            None => {
                // Nothing nearby yet; fall back to a uniformly random
                // earlier router (rare, keeps the graph whole).
                rng.random_range(0..i)
            }
        };
        let _ = b.add_link_auto(ids[i], ids[j]);
    }

    // Extra links: mixture of distance-sensitive and distance-independent.
    let target = (cfg.mean_degree * cfg.n as f64 / 2.0) as usize;
    let extra = target.saturating_sub(b.num_links());
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra && attempts < extra * 30 + 100 {
        attempts += 1;
        let u = rng.random_range(0..cfg.n);
        let v = if rng.random::<f64>() < cfg.distance_sensitive_share {
            // v ∝ exp(−d/L) among routers within 4L.
            let mut cand: Vec<(u32, f64)> = Vec::new();
            spatial.for_each_within(&locations[u], 4.0 * cfg.decay_miles, |i, d| {
                if i as usize != u {
                    cand.push((i, d));
                }
            });
            if cand.is_empty() {
                continue;
            }
            let weights: Vec<f64> = cand
                .iter()
                .map(|(_, d)| (-d / cfg.decay_miles).exp())
                .collect();
            let total: f64 = weights.iter().sum();
            let mut draw = rng.random::<f64>() * total;
            let mut pick = cand.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                draw -= w;
                if draw <= 0.0 {
                    pick = i;
                    break;
                }
            }
            cand[pick].0 as usize
        } else {
            rng.random_range(0..cfg.n)
        };
        if u != v && !b.has_link(ids[u], ids[v]) && b.add_link_auto(ids[u], ids[v]).is_ok() {
            added += 1;
        }
    }

    let topology = b.build();
    let latencies_ms = cfg.latency.label(&topology);
    Ok(GeoGenOutput {
        topology,
        latencies_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn out(n: usize, seed: u64) -> GeoGenOutput {
        geogen(&GeoGenConfig::us_default(n, seed)).expect("geogen")
    }

    #[test]
    fn rejects_bad_config() {
        let mut c = GeoGenConfig::us_default(100, 1);
        c.n = 0;
        assert!(geogen(&c).is_err());
        let mut c = GeoGenConfig::us_default(100, 1);
        c.distance_sensitive_share = 1.5;
        assert!(geogen(&c).is_err());
        let mut c = GeoGenConfig::us_default(100, 1);
        c.n_ases = 500;
        assert!(geogen(&c).is_err());
    }

    #[test]
    fn produces_connected_annotated_graph() {
        let g = out(800, 3);
        assert_eq!(g.topology.num_routers(), 800);
        assert_eq!(g.latencies_ms.len(), g.topology.num_links());
        assert!((metrics::giant_component_fraction(&g.topology) - 1.0).abs() < 1e-9);
        assert!(g.latencies_ms.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn every_router_has_an_as_label() {
        let g = out(500, 4);
        for (_, r) in g.topology.routers() {
            assert_ne!(r.asn, AsId(0));
        }
    }

    #[test]
    fn mean_degree_near_target() {
        let g = out(1000, 5);
        let d = metrics::average_degree(&g.topology);
        assert!((d - 3.0).abs() < 0.6, "mean degree {d}");
    }

    #[test]
    fn links_are_mostly_short() {
        let g = out(1000, 6);
        let lengths = metrics::link_lengths_miles(&g.topology);
        let short = lengths.iter().filter(|&&d| d < 600.0).count();
        let frac = short as f64 / lengths.len() as f64;
        assert!(frac > 0.7, "short fraction {frac}");
    }

    #[test]
    fn as_labels_are_spatially_coherent() {
        // Intradomain links should dominate because ASes grow by
        // proximity and links prefer short distances.
        let g = out(1000, 7);
        let intra = metrics::intradomain_fraction(&g.topology);
        assert!(intra > 0.5, "intradomain fraction {intra}");
    }

    #[test]
    fn placement_is_population_clustered() {
        // Box-counting dimension well below 2 = clustered placement.
        let g = out(2000, 8);
        let pts: Vec<_> = g.topology.routers().map(|(_, r)| r.location).collect();
        let res = geotopo_geo::box_counting_dimension(
            &geotopo_geo::RegionSet::us(),
            &pts,
            &geotopo_geo::boxcount::default_scales(),
        )
        .unwrap();
        assert!(res.dimension < 1.9, "dimension {}", res.dimension);
    }
}
