//! Section V — Links and Distance.
//!
//! The empirical distance preference function (equation 1):
//!
//! ```text
//! f̂(d) = (# links with length in [d, d+b)) / (# node pairs at distance in [d, d+b))
//! ```
//!
//! - [`distance_preference`] estimates f̂ for one region (Figure 4). The
//!   exact denominator counts node pairs per distinct location (a
//!   location holding `c` nodes contributes `c·(c−1)/2` pairs, two
//!   locations `c₁·c₂`), so it costs O(locations²). Above a threshold on
//!   the number of in-region nodes we use a grid-convolution estimator
//!   (cells of half a bin width; cell pairs contribute `n₁·n₂` pairs at
//!   their centre distance, in-cell pairs sit at 0.5214 × the cell side).
//! - [`fig5_fit`] fits `ln f(d)` on `d` over the small-`d` regime — a
//!   straight line means Waxman-form exponential decay (Figure 5).
//! - [`fig6_cumulated`] cumulates f over the large-`d` regime and fits a
//!   straight line — linearity means distance independence (Figure 6).
//! - [`sensitivity_limit`] intersects the exponential fit with the
//!   large-`d` mean to find the distance-sensitivity limit and the share
//!   of links below it (Table V: 75–95%).

use crate::pipeline::GeoDataset;
use crate::report::{FigureData, Panel, Series};
use geotopo_geo::{haversine_miles, GeoPoint, PatchGrid, Region, RegionSet};
use geotopo_stats::{fit_line, fit_semilog, BinnedRatio, LinearFit};
use serde::{Deserialize, Serialize};

/// Binning parameters per region (the paper's Figure 4 captions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionBins {
    /// The region analysed.
    pub region: Region,
    /// Bin width in miles (US 35, Europe 15, Japan 11).
    pub bin_miles: f64,
    /// Number of bins (the paper uses 100 everywhere).
    pub n_bins: usize,
    /// Upper end of the "small d" regime in miles (Figure 5's x-ranges).
    pub small_d_miles: f64,
}

impl RegionBins {
    /// The paper's three study regions with their bin sizes.
    pub fn paper() -> Vec<RegionBins> {
        vec![
            RegionBins {
                region: RegionSet::us(),
                bin_miles: 35.0,
                n_bins: 100,
                small_d_miles: 250.0,
            },
            RegionBins {
                region: RegionSet::europe(),
                bin_miles: 15.0,
                n_bins: 100,
                small_d_miles: 300.0,
            },
            RegionBins {
                region: RegionSet::japan(),
                bin_miles: 11.0,
                n_bins: 100,
                small_d_miles: 200.0,
            },
        ]
    }
}

/// The estimated distance preference function for one region.
#[derive(Debug, Clone)]
pub struct DistancePreference {
    /// Region name.
    pub region: String,
    /// Paired link/pair histograms.
    pub binned: BinnedRatio,
    /// Small-d cutoff used downstream.
    pub small_d_miles: f64,
    /// Nodes inside the region.
    pub n_nodes: usize,
    /// Links with both endpoints inside the region.
    pub n_links: usize,
}

/// Estimates f̂(d) for one region.
///
/// `exact_pairs` forces the exact denominator, whose cost is quadratic in
/// the number of distinct in-region locations; otherwise the
/// grid-convolution approximation is used above 4,000 in-region nodes
/// (the threshold counts nodes, not locations).
pub fn distance_preference(
    dataset: &GeoDataset,
    bins: &RegionBins,
    exact_pairs: bool,
) -> DistancePreference {
    distance_preference_with_threshold(dataset, bins, exact_pairs, 4000)
}

/// [`distance_preference`] with an explicit in-region node-count
/// threshold above which the grid-convolution denominator is used
/// (exposed for the accuracy ablation bench and tests).
pub fn distance_preference_with_threshold(
    dataset: &GeoDataset,
    bins: &RegionBins,
    exact_pairs: bool,
    grid_threshold: usize,
) -> DistancePreference {
    let region = &bins.region;
    let mut binned = BinnedRatio::new(bins.bin_miles, bins.n_bins);

    // In-region nodes.
    let mut in_region = vec![false; dataset.nodes.len()];
    let mut members = Vec::new();
    for (i, n) in dataset.nodes.iter().enumerate() {
        if region.contains(&n.location) {
            in_region[i] = true;
            members.push(n.location);
        }
    }

    // Numerator: link lengths.
    let mut n_links = 0usize;
    for &(a, b) in &dataset.links {
        if in_region[a as usize] && in_region[b as usize] {
            binned.add_num(dataset.link_length_miles((a, b)));
            n_links += 1;
        }
    }

    // Denominator: node-pair distances.
    if exact_pairs || members.len() <= grid_threshold {
        add_member_pairs(&mut binned, &members);
    } else {
        // Grid convolution: half-bin cells.
        let cell_arcmin = (bins.bin_miles / 2.0) / 69.0 * 60.0;
        let grid = PatchGrid::new(region.clone(), cell_arcmin).expect("valid region");
        let counts = grid.tally(members.iter().copied());
        let mut occupied: Vec<(usize, u64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        occupied.sort_unstable();
        let centers: Vec<_> = occupied
            .iter()
            .map(|&(i, _)| {
                grid.cell_center(geotopo_geo::PatchCell {
                    row: i / grid.cols(),
                    col: i % grid.cols(),
                })
            })
            .collect();
        // Mean distance of two uniform points in a square of side s is
        // ≈ 0.5214 s; use it for the in-cell pair distance.
        let cell_miles = bins.bin_miles / 2.0;
        for (k, &(_, c)) in occupied.iter().enumerate() {
            if c > 1 {
                binned.add_den_n(0.5214 * cell_miles, c * (c - 1) / 2);
            }
            for (l, &(_, c2)) in occupied.iter().enumerate().skip(k + 1) {
                let d = haversine_miles(&centers[k], &centers[l]);
                if d < bins.bin_miles * bins.n_bins as f64 {
                    binned.add_den_n(d, c * c2);
                }
            }
        }
    }

    DistancePreference {
        region: region.name.clone(),
        binned,
        small_d_miles: bins.small_d_miles,
        n_nodes: members.len(),
        n_links,
    }
}

/// Adds every unordered pair of `members` to the denominator, exactly.
///
/// City-granular mapping snaps most members onto shared coordinates, so
/// the pairs are counted per distinct location: a location holding `c`
/// members adds `c·(c−1)/2` pairs at its self-distance and two locations
/// holding `c₁` and `c₂` add `c₁·c₂` pairs at their distance. Locations
/// are keyed by the coordinates' bit patterns, so each pair is binned at
/// the same `haversine_miles` value as a loop over member pairs would
/// give (the formula is symmetric in its arguments), in O(locations²).
fn add_member_pairs(binned: &mut BinnedRatio, members: &[GeoPoint]) {
    let key = |p: &GeoPoint| (p.lat().to_bits(), p.lon().to_bits());
    let mut sorted = members.to_vec();
    sorted.sort_unstable_by_key(key);
    let mut groups: Vec<(GeoPoint, u64)> = Vec::new();
    for p in sorted {
        match groups.last_mut() {
            Some((last, c)) if key(last) == key(&p) => *c += 1,
            _ => groups.push((p, 1)),
        }
    }
    for (k, &(p, c)) in groups.iter().enumerate() {
        binned.add_den_n(haversine_miles(&p, &p), c * (c - 1) / 2);
        for &(q, c2) in &groups[k + 1..] {
            binned.add_den_n(haversine_miles(&p, &q), c * c2);
        }
    }
}

/// Figure 4 series: (d, f̂(d)) for every bin with a defined estimate.
pub(crate) fn fig4_series(dp: &DistancePreference) -> Series {
    Series {
        label: dp.region.clone(),
        points: dp
            .binned
            .ratios()
            .into_iter()
            .filter_map(|b| b.value.map(|v| (b.d, v)))
            .collect(),
    }
}

/// Figure 5: the semi-log fit over the small-`d` regime. Returns the
/// `(d, ln f)` points and the linear fit (slope = −1/(αL) in Waxman
/// terms).
pub fn fig5_fit(dp: &DistancePreference) -> (Vec<(f64, f64)>, Option<LinearFit>) {
    // The first bin is dominated by co-located pairs: city-granularity
    // mapping snaps same-metro endpoints to identical coordinates, so
    // f(0) spikes far above the exponential trend. Start the fit at the
    // second bin.
    let pts: Vec<(f64, f64)> = dp
        .binned
        .ratios()
        .into_iter()
        .skip(1)
        .filter(|b| b.d < dp.small_d_miles)
        .filter_map(|b| match b.value {
            Some(v) if v > 0.0 => Some((b.d, v)),
            _ => None,
        })
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().cloned().unzip();
    let fit = fit_semilog(&xs, &ys).ok();
    let log_pts = pts.iter().map(|&(d, v)| (d, v.ln())).collect();
    (log_pts, fit)
}

/// The Waxman decay length αL implied by a Figure 5 fit (−1/slope).
pub fn waxman_decay_miles(fit: &LinearFit) -> Option<f64> {
    if fit.slope < 0.0 {
        Some(-1.0 / fit.slope)
    } else {
        None
    }
}

/// Figure 6: the cumulated preference `F(d)` over the large-`d` regime
/// with a linear fit (linearity ⇒ distance independence).
pub fn fig6_cumulated(dp: &DistancePreference) -> (Vec<(f64, f64)>, Option<LinearFit>) {
    let all = dp.binned.cumulated().points;
    let large: Vec<(f64, f64)> = all
        .iter()
        .cloned()
        .filter(|&(d, _)| d >= dp.small_d_miles)
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = large.iter().cloned().unzip();
    let fit = fit_line(&xs, &ys).ok();
    (large, fit)
}

/// One row of Table V.
#[derive(Debug, Clone, Serialize, Deserialize)]
// analyze: allow(dead-pub): returned by the section builders; callers read fields without naming the type
pub struct Table5Row {
    /// Region name.
    pub region: String,
    /// The distance-sensitivity limit in miles.
    pub limit_miles: f64,
    /// Fraction of links shorter than the limit.
    pub frac_below: f64,
    /// Implied Waxman decay length αL in miles.
    pub decay_miles: f64,
}

/// Table V: intersects the small-`d` exponential fit with the mean
/// large-`d` level to find the limit of distance sensitivity, then
/// reports the fraction of links below it.
pub fn sensitivity_limit(dp: &DistancePreference) -> Option<Table5Row> {
    let (_, fit) = fig5_fit(dp);
    let fit = fit?;
    if fit.slope >= 0.0 {
        return None;
    }
    // Mean f over the large-d regime.
    let first_large_bin = (dp.small_d_miles / dp.binned.bin_width()) as usize;
    let flat = dp.binned.mean_ratio_in(first_large_bin, dp.binned.bins())?;
    if flat <= 0.0 {
        return None;
    }
    let limit = (flat.ln() - fit.intercept) / fit.slope;
    if !limit.is_finite() || limit <= 0.0 {
        return None;
    }
    let frac_below = dp.binned.num_fraction_below(limit)?;
    Some(Table5Row {
        region: dp.region.clone(),
        limit_miles: limit,
        frac_below,
        decay_miles: waxman_decay_miles(&fit)?,
    })
}

/// Assembles Figure 4 (and optionally 5/6 views) as figure data.
pub fn fig4(dps: &[DistancePreference], dataset_label: &str) -> FigureData {
    FigureData {
        id: "Figure 4".into(),
        title: "Empirical Distance Preference Function".into(),
        panels: dps
            .iter()
            .map(|dp| Panel {
                label: format!("{} ({})", dp.region, dataset_label),
                series: vec![fig4_series(dp)],
                fit: None,
                axes: "d (miles) vs f(d)".into(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GeoNode;
    use geotopo_bgp::AsId;
    use geotopo_measure::NodeKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes a dataset in the US box whose links follow a known
    /// mixture: exponential decay of length L plus a uniform tail.
    fn waxman_dataset(n: usize, decay: f64, sensitive_share: f64, seed: u64) -> GeoDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes: Vec<GeoNode> = (0..n)
            .map(|i| {
                let lat = rng.random_range(26.0..49.0);
                let lon = rng.random_range(-124.0..-68.0);
                GeoNode {
                    ip: std::net::Ipv4Addr::from(0x01000000 + i as u32),
                    location: GeoPoint::new(lat, lon).unwrap(),
                    asn: AsId(1),
                }
            })
            .collect();
        let mut links = Vec::new();
        let mut set = std::collections::HashSet::new();
        let target = n * 2;
        let mut produced = 0usize;
        // `sensitive_share` is the share of *accepted* links: each link
        // is either drawn by rejection from the exponential kernel or
        // uniformly at random.
        while produced < target {
            let (a, b) = if rng.random::<f64>() < sensitive_share {
                // Rejection-sample a distance-sensitive pair.
                let mut pair = None;
                for _ in 0..100_000 {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    if a == b {
                        continue;
                    }
                    let d = haversine_miles(&nodes[a].location, &nodes[b].location);
                    if rng.random::<f64>() < (-d / decay).exp() {
                        pair = Some((a, b));
                        break;
                    }
                }
                match pair {
                    Some(p) => p,
                    None => continue,
                }
            } else {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                if a == b {
                    continue;
                }
                (a, b)
            };
            produced += 1;
            let key = if a < b { (a, b) } else { (b, a) };
            if set.insert(key) {
                links.push((key.0 as u32, key.1 as u32));
            }
        }
        GeoDataset {
            kind: NodeKind::Interface,
            nodes,
            links,
            stats: Default::default(),
        }
    }

    fn us_bins() -> RegionBins {
        RegionBins {
            region: RegionSet::us(),
            bin_miles: 35.0,
            n_bins: 100,
            small_d_miles: 250.0,
        }
    }

    #[test]
    fn exponential_decay_recovered() {
        let d = waxman_dataset(1500, 150.0, 1.0, 1);
        let dp = distance_preference(&d, &us_bins(), true);
        let (_, fit) = fig5_fit(&dp);
        let fit = fit.expect("fit exists");
        assert!(fit.slope < 0.0, "slope {}", fit.slope);
        let decay = waxman_decay_miles(&fit).unwrap();
        assert!((decay - 150.0).abs() < 60.0, "decay {decay} expected ~150");
    }

    #[test]
    fn mixture_has_flat_tail_and_limit() {
        let d = waxman_dataset(1500, 120.0, 0.9, 2);
        let dp = distance_preference(&d, &us_bins(), true);
        let row = sensitivity_limit(&dp).expect("limit exists");
        assert!(
            row.limit_miles > 100.0 && row.limit_miles < 2500.0,
            "{row:?}"
        );
        assert!(row.frac_below > 0.5, "frac {}", row.frac_below);
    }

    #[test]
    fn pure_random_links_have_no_negative_slope_structure() {
        let d = waxman_dataset(800, 150.0, 0.0, 3);
        let dp = distance_preference(&d, &us_bins(), true);
        let (_, fit) = fig5_fit(&dp);
        if let Some(fit) = fit {
            // f(d) is flat: decay length (if any) is enormous.
            if fit.slope < 0.0 {
                assert!(
                    -1.0 / fit.slope > 700.0,
                    "spurious short decay {}",
                    -1.0 / fit.slope
                );
            }
        }
    }

    /// The all-pairs loop that [`add_member_pairs`] replaced: one
    /// `haversine_miles` per member pair, in member order.
    fn all_pairs_reference(binned: &mut BinnedRatio, members: &[GeoPoint]) {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                binned.add_den(haversine_miles(&members[i], &members[j]));
            }
        }
    }

    /// Checks the grouped denominator against the all-pairs reference:
    /// every bin, the overflow and rejected counts, and the in-range total.
    fn assert_member_pairs_match(members: &[GeoPoint], bin_miles: f64) {
        let mut grouped = BinnedRatio::new(bin_miles, 100);
        add_member_pairs(&mut grouped, members);
        let mut reference = BinnedRatio::new(bin_miles, 100);
        all_pairs_reference(&mut reference, members);
        let den = |b: &BinnedRatio| b.ratios().iter().map(|r| r.den).collect::<Vec<_>>();
        assert_eq!(den(&grouped), den(&reference));
        assert_eq!(grouped.den_total(), reference.den_total());
        // The serialized histogram carries the overflow and rejected counts.
        let json = |b: &BinnedRatio| serde_json::to_value(b).unwrap()["denominator"].clone();
        assert_eq!(json(&grouped), json(&reference));
        let n = members.len() as u64;
        let overflow = json(&grouped)["overflow"].as_u64().unwrap();
        assert_eq!(grouped.den_total() + overflow, n * n.saturating_sub(1) / 2);
    }

    fn point(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn grouped_pairs_match_all_pairs_with_heavy_colocation() {
        let mut rng = StdRng::seed_from_u64(21);
        let sites: Vec<GeoPoint> = (0..25)
            .map(|_| {
                point(
                    rng.random_range(26.0..49.0),
                    rng.random_range(-124.0..-68.0),
                )
            })
            .collect();
        let members: Vec<GeoPoint> = (0..700)
            .map(|_| sites[rng.random_range(0..sites.len())])
            .collect();
        assert_member_pairs_match(&members, 35.0);
    }

    #[test]
    fn grouped_pairs_match_all_pairs_when_all_distinct() {
        let mut rng = StdRng::seed_from_u64(22);
        let members: Vec<GeoPoint> = (0..300)
            .map(|_| {
                point(
                    rng.random_range(-60.0..70.0),
                    rng.random_range(-180.0..180.0),
                )
            })
            .collect();
        assert_member_pairs_match(&members, 35.0);
    }

    #[test]
    fn grouped_pairs_match_all_pairs_across_the_antimeridian() {
        let mut rng = StdRng::seed_from_u64(23);
        let sites: Vec<GeoPoint> = (0..12)
            .map(|i| {
                let lon = rng.random_range(179.0..180.0);
                point(
                    rng.random_range(-20.0..20.0),
                    if i % 2 == 0 { lon } else { -lon },
                )
            })
            .chain([point(0.0, 180.0), point(0.0, -179.999)])
            .collect();
        let members: Vec<GeoPoint> = (0..200)
            .map(|_| sites[rng.random_range(0..sites.len())])
            .collect();
        assert_member_pairs_match(&members, 11.0);
    }

    #[test]
    fn grouped_pairs_match_all_pairs_for_signed_zeros() {
        // Latitude keeps the sign of zero, so `0.0` and `-0.0` are two
        // locations at distance zero; longitude normalizes `-0.0` away.
        let sites = [
            point(0.0, 10.0),
            point(-0.0, 10.0),
            point(5.0, 0.0),
            point(5.0, -0.0),
            point(-0.0, -0.0),
        ];
        let members: Vec<GeoPoint> = (0..40).map(|i| sites[i * 7 % sites.len()]).collect();
        assert_member_pairs_match(&members, 11.0);
    }

    #[test]
    fn grouped_pairs_match_all_pairs_for_tiny_inputs() {
        assert_member_pairs_match(&[], 35.0);
        assert_member_pairs_match(&[point(40.0, -75.0)], 35.0);
    }

    #[test]
    fn grid_convolution_matches_exact() {
        let d = waxman_dataset(1200, 150.0, 0.9, 4);
        let bins = us_bins();
        let exact = distance_preference(&d, &bins, true);
        let approx = distance_preference_with_threshold(&d, &bins, false, 0);
        // In-range pair totals agree closely...
        let total_exact = exact.binned.den_total();
        let total_approx = approx.binned.den_total();
        let rel = (total_exact as f64 - total_approx as f64).abs() / total_exact as f64;
        assert!(rel < 0.02, "total pair counts differ by {rel}");
        // ...and the per-bin estimates agree closely where defined.
        let re = exact.binned.ratios();
        let ra = approx.binned.ratios();
        let mut compared = 0;
        for (be, ba) in re.iter().zip(&ra) {
            if let (Some(ve), Some(va)) = (be.value, ba.value) {
                if be.den > 5000 {
                    compared += 1;
                    let denom = ve.max(1e-12);
                    assert!(
                        ((ve - va) / denom).abs() < 0.5,
                        "bin at {}: exact {ve} approx {va}",
                        be.d
                    );
                }
            }
        }
        assert!(compared > 20, "only {compared} bins comparable");
    }

    #[test]
    fn fig6_linear_for_flat_tail() {
        // A fat distance-independent share makes the large-d regime well
        // sampled; its cumulation must be close to linear.
        let d = waxman_dataset(1200, 120.0, 0.6, 5);
        let dp = distance_preference(&d, &us_bins(), true);
        let (pts, fit) = fig6_cumulated(&dp);
        assert!(pts.len() > 10);
        let fit = fit.unwrap();
        assert!(fit.r2 > 0.9, "r2 {}", fit.r2);
        assert!(fit.slope > 0.0);
    }

    #[test]
    fn out_of_region_nodes_ignored() {
        let mut d = waxman_dataset(300, 150.0, 1.0, 6);
        let n = d.nodes.len();
        d.nodes.push(GeoNode {
            ip: "9.9.9.9".parse().unwrap(),
            location: GeoPoint::new(35.7, 139.7).unwrap(), // Tokyo
            asn: AsId(1),
        });
        d.links.push((0, n as u32));
        let dp = distance_preference(&d, &us_bins(), true);
        assert_eq!(dp.n_nodes, n);
        // The transpacific link is not an in-region link.
        assert_eq!(dp.n_links, d.links.len() - 1);
    }

    #[test]
    fn empty_region_yields_no_limit() {
        let d = waxman_dataset(200, 150.0, 1.0, 7);
        let bins = RegionBins {
            region: RegionSet::japan(),
            bin_miles: 11.0,
            n_bins: 100,
            small_d_miles: 200.0,
        };
        let dp = distance_preference(&d, &bins, true);
        assert_eq!(dp.n_nodes, 0);
        assert!(sensitivity_limit(&dp).is_none());
    }
}
