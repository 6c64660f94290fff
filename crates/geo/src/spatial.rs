//! Spatial index over point locations.
//!
//! Link generation asks "which routers lie within r miles of p" millions
//! of times, and the gazetteer asks "which city is nearest to p" once per
//! router; an equal-angle grid bucket index answers both in time
//! proportional to the local density.

use crate::{GeoPoint, EARTH_RADIUS_MILES};
use std::f64::consts::FRAC_PI_2;
use std::ops::Range;

/// Grid-bucket spatial index over indexed points.
///
/// Buckets are slices of packed parallel arrays (point index,
/// latitude/longitude in radians, cos-latitude), so a bucket scan is a
/// sequential sweep over dense f64 lanes — the dominant cost when metro
/// buckets hold thousands of routers. The lanes hold exactly the values
/// the haversine formula derives per point, so distances assembled from
/// them are bit-identical to [`haversine_miles`](crate::haversine_miles).
/// The bucket table is dense over the occupied rows, which suits coarse
/// cells (1° cells: at most 181 × 360 offsets).
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    cell_deg: f64,
    /// Number of longitude columns (`360 / cell_deg`).
    lon_cells: i32,
    /// Lowest occupied row key.
    row_min: i32,
    /// Bucket `b` (row-major from row `row_min`, column `-lon_cells / 2`)
    /// owns packed slots `bucket_start[b]..bucket_start[b + 1]`.
    bucket_start: Vec<u32>,
    /// Least cos(latitude) over each occupied row's band, from `row_min`.
    row_cos_min: Vec<f64>,
    /// Point index per packed slot (bucket-grouped; ascending within a
    /// bucket).
    slot_idx: Vec<u32>,
    /// `GeoPoint::lat_rad` per packed slot.
    slot_lat_rad: Vec<f64>,
    /// `GeoPoint::lon_rad` per packed slot.
    slot_lon_rad: Vec<f64>,
    /// cos(latitude in radians) per packed slot.
    slot_cos_lat: Vec<f64>,
}

/// A query centre with its per-query constants.
struct Probe {
    at: GeoPoint,
    lat_rad: f64,
    lon_rad: f64,
    cos_lat: f64,
    row: i32,
    col: i32,
}

/// The haversine term `hav(d/R) = sin²(Δφ/2) + cosφ₁·cosφ₂·sin²(Δλ/2)`
/// of an angle given in degrees.
fn hav_deg(deg: f64) -> f64 {
    let s = (deg.to_radians() * 0.5).sin();
    s * s
}

/// The haversine term of `miles` scaled by `margin`, capped at the
/// antipode. Bounds pad by 1 + 1e-6, far above f64 roundoff, so they
/// reject only what is provably farther than `miles`.
fn hav_miles(miles: f64, margin: f64) -> f64 {
    let s = (miles * margin / (2.0 * EARTH_RADIUS_MILES))
        .min(FRAC_PI_2)
        .sin();
    s * s
}

/// Finishes the haversine from its term, with the operation order of
/// [`haversine_miles`](crate::haversine_miles).
fn finish_distance(h: f64) -> f64 {
    EARTH_RADIUS_MILES * (2.0 * h.sqrt().clamp(0.0, 1.0).asin())
}

/// The nearest-search order: distance by `total_cmp`, then lower index.
fn precedes(a: (u32, f64), b: (u32, f64)) -> bool {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)).is_lt()
}

impl SpatialIndex {
    /// Builds an index with buckets of `cell_deg` degrees (1.0 is a good
    /// default: ~69 miles of latitude per bucket).
    ///
    /// # Panics
    ///
    /// Panics if `cell_deg` is not positive and finite or does not divide
    /// 360° (programming error).
    pub fn new(points: Vec<GeoPoint>, cell_deg: f64) -> Self {
        let lon_cells = (360.0 / cell_deg).round();
        assert!(
            cell_deg.is_finite() && cell_deg > 0.0 && (lon_cells * cell_deg - 360.0).abs() < 1e-9,
            "bad cell size"
        );
        let mut index = SpatialIndex {
            cell_deg,
            lon_cells: lon_cells as i32,
            row_min: 0,
            bucket_start: vec![0],
            row_cos_min: Vec::new(),
            slot_idx: Vec::new(),
            slot_lat_rad: Vec::new(),
            slot_lon_rad: Vec::new(),
            slot_cos_lat: Vec::new(),
        };
        let keys: Vec<(i32, i32)> = points.iter().map(|p| index.key(p)).collect();
        // No points, no rows: `row_max` is then `row_min - 1`.
        let rows = keys.iter().map(|k| k.0);
        let (row_min, row_max) = (rows.clone().min().unwrap_or(0), rows.max().unwrap_or(-1));
        index.row_min = row_min;
        let cos = |row: i32| (f64::from(row) * cell_deg).to_radians().cos();
        index.row_cos_min = (row_min..=row_max)
            .map(|row| cos(row).min(cos(row + 1)).max(0.0))
            .collect();
        let buckets: Vec<usize> = keys.iter().map(|&(r, c)| index.bucket(r, c)).collect();
        index.bucket_start = vec![0; index.row_cos_min.len() * lon_cells as usize + 1];
        for &b in &buckets {
            index.bucket_start[b] += 1;
        }
        for b in 1..index.bucket_start.len() {
            index.bucket_start[b] += index.bucket_start[b - 1];
        }
        // Counting sort: each entry now ends its bucket; placing points in
        // reverse walks it back to the start, ascending within a bucket.
        index.slot_idx = vec![0; points.len()];
        for (i, &b) in buckets.iter().enumerate().rev() {
            index.bucket_start[b] -= 1;
            index.slot_idx[index.bucket_start[b] as usize] = i as u32;
        }
        let slot_points = index.slot_idx.iter().map(|&i| &points[i as usize]);
        index.slot_lat_rad = slot_points.clone().map(GeoPoint::lat_rad).collect();
        index.slot_lon_rad = slot_points.clone().map(GeoPoint::lon_rad).collect();
        index.slot_cos_lat = slot_points.map(|p| p.lat_rad().cos()).collect();
        index
    }

    /// The `(row, col)` bucket key of `p`; +180° shares -180°'s column.
    fn key(&self, p: &GeoPoint) -> (i32, i32) {
        let col = (p.lon() / self.cell_deg).floor() as i32;
        ((p.lat() / self.cell_deg).floor() as i32, self.wrap_col(col))
    }

    /// Wraps a column key around the globe into
    /// `-lon_cells / 2..lon_cells - lon_cells / 2`.
    fn wrap_col(&self, col: i32) -> i32 {
        let half = self.lon_cells / 2;
        (col + half).rem_euclid(self.lon_cells) - half
    }

    /// Flat index of the bucket at an occupied `row` and a wrapped `col`.
    fn bucket(&self, row: i32, col: i32) -> usize {
        ((row - self.row_min) * self.lon_cells + col + self.lon_cells / 2) as usize
    }

    /// Highest occupied row key (below `row_min` when empty).
    fn row_max(&self) -> i32 {
        self.row_min + self.row_cos_min.len() as i32 - 1
    }

    /// Packed slots of the buckets `(row, col)..=(row, last_col)`
    /// (wrapped columns in order); empty outside the occupied rows.
    fn slots(&self, row: i32, col: i32, last_col: i32) -> Range<usize> {
        if row < self.row_min || row > self.row_max() {
            return 0..0;
        }
        let start = self.bucket_start[self.bucket(row, col)] as usize;
        start..self.bucket_start[self.bucket(row, last_col) + 1] as usize
    }

    fn probe(&self, center: &GeoPoint) -> Probe {
        let (row, col) = self.key(center);
        let (lat_rad, lon_rad) = (center.lat_rad(), center.lon_rad());
        let cos_lat = lat_rad.cos();
        Probe {
            at: *center,
            lat_rad,
            lon_rad,
            cos_lat,
            row,
            col,
        }
    }

    /// `hav(Δφ_min)` from the probe to row `row`'s latitude band: a lower
    /// bound on `h` for every point in the row.
    fn row_hav_min(&self, probe: &Probe, row: i32) -> f64 {
        let lat_lo = f64::from(row) * self.cell_deg;
        let dphi_min_deg = (lat_lo - probe.at.lat()).max(probe.at.lat() - lat_lo - self.cell_deg);
        hav_deg(dphi_min_deg.max(0.0))
    }

    /// Lower bound on `h` over row `row` at longitude gap `dlam_deg`:
    /// `hav(Δφ_min) + cosφ_c·cosφ_min·hav(Δλ_min)`.
    fn cell_hav_min(&self, probe: &Probe, row: i32, hav_phi_min: f64, dlam_deg: f64) -> f64 {
        let cos_row_min = self.row_cos_min[(row - self.row_min) as usize];
        hav_phi_min + probe.cos_lat * cos_row_min * hav_deg(dlam_deg)
    }

    /// Calls `visit(slot, h)`, in slot order, for every point of bucket
    /// `(row, col)` whose haversine term `h` from the probe (bit-identical
    /// to the one inside [`haversine_miles`](crate::haversine_miles)) is at
    /// most `cutoff`, and returns the number of points scanned. The bucket
    /// is skipped when its [`SpatialIndex::cell_hav_min`] exceeds the
    /// cutoff, and a point when its `|Δφ|` alone does (the central angle is
    /// at least `|Δφ|`). `sin²(Δλ/2)` is 2π-periodic, so unwrapped
    /// longitude differences are safe.
    fn scan_bucket(
        &self,
        probe: &Probe,
        (row, col): (i32, i32),
        hav_phi_min: f64,
        cutoff: f64,
        visit: &mut impl FnMut(usize, f64),
    ) -> usize {
        let slots = self.slots(row, col, col);
        // Degrees east from the probe to the column's west edge.
        let east = (f64::from(col) * self.cell_deg - probe.at.lon()).rem_euclid(360.0);
        let dlam_min_deg = east.min(360.0 - self.cell_deg - east).max(0.0);
        if slots.is_empty() || self.cell_hav_min(probe, row, hav_phi_min, dlam_min_deg) > cutoff {
            return 0;
        }
        let max_dlat_rad = 2.0 * cutoff.min(1.0).sqrt().asin();
        for k in slots.clone() {
            let dlat = self.slot_lat_rad[k] - probe.lat_rad;
            if dlat.abs() > max_dlat_rad {
                continue;
            }
            let dlon = self.slot_lon_rad[k] - probe.lon_rad;
            let s_lat = (dlat / 2.0).sin();
            let s_lon = (dlon / 2.0).sin();
            let h = s_lat * s_lat + probe.cos_lat * self.slot_cos_lat[k] * (s_lon * s_lon);
            if h <= cutoff {
                visit(k, h);
            }
        }
        slots.len()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.slot_idx.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.slot_idx.is_empty()
    }

    /// Indices of all points within `radius_miles` of `center`
    /// (inclusive).
    pub fn within(&self, center: &GeoPoint, radius_miles: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_radius(center, radius_miles, |i| out.push(i));
        out
    }

    /// Calls `visit(slot, h)` for a superset of the points within the
    /// radius, in bucket-scan order (rows south to north, then columns
    /// west to east), each bucket the radius can reach once.
    fn scan_candidates<F: FnMut(usize, f64)>(
        &self,
        center: &GeoPoint,
        radius_miles: f64,
        mut visit: F,
    ) {
        // Reach: the radius as an angle ρ (over-estimated at 69 miles per
        // degree) plus a cell. On a cap of radius ρ at latitude φ, |Δλ|
        // peaks at asin(sin ρ / cos φ); a cap over a pole spans every
        // longitude (so does a ratio that roundoff lifts to 1).
        let reach_deg = radius_miles / 69.0;
        let lat_reach = (reach_deg / self.cell_deg).ceil() as i32 + 1;
        let sin_ratio = reach_deg.to_radians().sin() / center.lat().to_radians().cos();
        let lon_reach_deg = if center.lat().abs() + reach_deg >= 90.0 || sin_ratio >= 1.0 {
            180.0
        } else {
            sin_ratio.asin().to_degrees()
        };
        let lon_reach = ((lon_reach_deg / self.cell_deg).ceil() as i32 + 1).min(self.lon_cells / 2);
        // Offsets ±lon_cells/2 wrap to one column: visit it once.
        let dc_hi = lon_reach.min(self.lon_cells - 1 - lon_reach);
        let probe = self.probe(center);
        let cutoff = hav_miles(radius_miles, 1.000_001);
        for row in probe.row - lat_reach..=probe.row + lat_reach {
            let hav_phi_min = self.row_hav_min(&probe, row);
            if hav_phi_min > cutoff {
                continue;
            }
            for dc in -lon_reach..=dc_hi {
                let cell = (row, self.wrap_col(probe.col + dc));
                self.scan_bucket(&probe, cell, hav_phi_min, cutoff, &mut visit);
            }
        }
    }

    /// Calls `f(index, distance_miles)` for each point within the radius
    /// (inclusive), in bucket-scan order, with the exact
    /// [`haversine_miles`](crate::haversine_miles) distance.
    pub fn for_each_within<F: FnMut(u32, f64)>(
        &self,
        center: &GeoPoint,
        radius_miles: f64,
        mut f: F,
    ) {
        self.scan_candidates(center, radius_miles, |k, h| {
            let d = finish_distance(h);
            if d <= radius_miles {
                f(self.slot_idx[k], d);
            }
        });
    }

    /// Calls `f(index)` for each point within the radius (inclusive), in
    /// the same order as [`SpatialIndex::for_each_within`], without
    /// reporting distances. Skips the `asin`/`sqrt` finish for points
    /// conservatively inside the radius (`h < hav(r·(1−ε))` implies
    /// `d < r`), falling back to the exact distance in the boundary
    /// sliver — the accepted set is identical to `for_each_within`'s.
    pub fn for_each_in_radius<F: FnMut(u32)>(
        &self,
        center: &GeoPoint,
        radius_miles: f64,
        mut f: F,
    ) {
        let hav_radius_shrunk = hav_miles(radius_miles, 0.999_999);
        self.scan_candidates(center, radius_miles, |k, h| {
            if h < hav_radius_shrunk || finish_distance(h) <= radius_miles {
                f(self.slot_idx[k]);
            }
        });
    }

    /// The point nearest to `center` with its exact
    /// [`haversine_miles`](crate::haversine_miles) distance, or `None` if
    /// the index is empty; ties go to the lower index. Allocation-free.
    pub fn nearest(&self, center: &GeoPoint) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        self.search(center, |i, d| match best {
            Some(b) if !precedes((i, d), b) => None,
            _ => Some(best.insert((i, d)).1),
        });
        best
    }

    /// The `k` points nearest to `center` as `(index, distance)`, in
    /// [`SpatialIndex::nearest`]'s order, each point once; fewer if the
    /// index holds fewer than `k`.
    pub fn nearest_k(&self, center: &GeoPoint, k: usize) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut best: Vec<(u32, f64)> = Vec::with_capacity(k.min(self.len()));
        self.search(center, |i, d| {
            let at = best.partition_point(|&e| precedes(e, (i, d)));
            if at < k {
                best.truncate(k - 1);
                best.insert(at, (i, d));
            }
            best.get(k.wrapping_sub(1)).map(|kth| kth.1)
        });
        best
    }

    /// The exact nearest scan: square rings of buckets outward from the
    /// centre's bucket, each bucket once (column offsets stay in one
    /// canonical range, so the date-line wrap never revisits a column).
    /// Points within the padded cutoff go to `offer(index, distance)`,
    /// which returns the cutoff distance once its result is full. After
    /// each ring the scan stops once every point is seen, or once the row
    /// and column bounds show that no unscanned bucket — in a row beyond
    /// the ring, or in a column beyond it — can hold a point within the
    /// cutoff.
    fn search<F: FnMut(u32, f64) -> Option<f64>>(&self, center: &GeoPoint, mut offer: F) {
        let probe = self.probe(center);
        let row_max = self.row_max();
        let half = self.lon_cells / 2;
        let (dc_min, dc_max) = (-half, self.lon_cells - 1 - half);
        // Degrees from the probe to its column's nearer edge.
        let off = (probe.at.lon() - f64::from(probe.col) * self.cell_deg).rem_euclid(360.0);
        let edge_gap = off.min(self.cell_deg - off).max(0.0);
        let last_ring = half.max(probe.row - self.row_min).max(row_max - probe.row);
        let (mut cutoff, mut seen) = (f64::INFINITY, 0);
        for ring in 0..=last_ring {
            // Columns beyond the ring lie at least `col_gap` degrees away.
            let col_gap = f64::from(ring) * self.cell_deg + edge_gap;
            let cols_beyond = ring < dc_max || -ring > dc_min;
            let mut beyond = f64::INFINITY;
            for row in (probe.row - ring).max(self.row_min)..=(probe.row + ring).min(row_max) {
                // `dc_min..=dc_max` is also the wrapped column-key range:
                // these are the slots of the whole row.
                if self.slots(row, dc_min, dc_max).is_empty() {
                    continue;
                }
                let hav_phi_min = self.row_hav_min(&probe, row);
                if cols_beyond {
                    beyond = beyond.min(self.cell_hav_min(&probe, row, hav_phi_min, col_gap));
                }
                if hav_phi_min > cutoff {
                    continue;
                }
                // The ring's top and bottom rows take every column, the
                // rows between only its two edge columns.
                let top_or_bottom = (row - probe.row).abs() == ring;
                let step = if top_or_bottom { 1 } else { 2 * ring as usize };
                let dcs = (-ring..=ring)
                    .step_by(step)
                    .filter(|dc| (dc_min..=dc_max).contains(dc));
                for dc in dcs {
                    let cell = (row, self.wrap_col(probe.col + dc));
                    seen += self.scan_bucket(&probe, cell, hav_phi_min, cutoff, &mut |k, h| {
                        if let Some(d) = offer(self.slot_idx[k], finish_distance(h)) {
                            cutoff = hav_miles(d, 1.000_001);
                        }
                    });
                }
            }
            // The nearest rows beyond the ring inside the occupied range.
            let above = (probe.row + ring + 1).max(self.row_min);
            let below = (probe.row - ring - 1).min(row_max);
            for row in [above, below] {
                if (self.row_min..=row_max).contains(&row) {
                    beyond = beyond.min(self.row_hav_min(&probe, row));
                }
            }
            if beyond > cutoff || seen == self.len() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haversine_miles;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn within_matches_brute_force() {
        let pts: Vec<GeoPoint> = (0..500)
            .map(|i| {
                let lat = 30.0 + (i % 25) as f64 * 0.8;
                let lon = -120.0 + (i / 25) as f64 * 2.0;
                p(lat, lon)
            })
            .collect();
        let idx = SpatialIndex::new(pts.clone(), 1.0);
        let center = p(38.0, -100.0);
        for radius in [50.0, 200.0, 800.0] {
            let mut got = idx.within(&center, radius);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, q)| haversine_miles(&center, q) <= radius)
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "radius {radius}");
        }
    }

    #[test]
    fn nearest_finds_closest() {
        let pts = vec![p(0.0, 0.0), p(5.0, 5.0), p(0.2, 0.2)];
        let idx = SpatialIndex::new(pts, 1.0);
        let (i, d) = idx.nearest(&p(0.05, 0.05)).unwrap();
        assert_eq!(i, 0);
        assert!(d < 10.0);
    }

    #[test]
    fn nearest_falls_back_to_full_scan() {
        let pts = vec![p(80.0, 170.0)];
        let idx = SpatialIndex::new(pts, 1.0);
        // Nothing near the antipode-ish probe; the widening scan still
        // finds the single point.
        let (i, _) = idx.nearest(&p(-80.0, -10.0)).unwrap();
        assert_eq!(i, 0);
    }

    #[test]
    fn empty_index() {
        let idx = SpatialIndex::new(vec![], 1.0);
        assert!(idx.is_empty());
        assert_eq!(idx.nearest(&p(0.0, 0.0)), None);
        assert!(idx.nearest_k(&p(0.0, 0.0), 3).is_empty());
        assert!(idx.within(&p(0.0, 0.0), 1000.0).is_empty());
    }

    #[test]
    fn point_at_exactly_180_longitude_is_reachable() {
        let idx = SpatialIndex::new(vec![p(10.0, 180.0)], 1.0);
        for lon in [179.5, -179.5, 180.0] {
            let center = p(10.0, lon);
            assert_eq!(idx.within(&center, 50.0), vec![0], "lon {lon}");
            assert_eq!(idx.nearest(&center).map(|(i, _)| i), Some(0), "lon {lon}");
        }
    }

    #[test]
    fn date_line_neighbors_found() {
        let pts = vec![p(0.0, 179.9), p(0.0, -179.9)];
        let idx = SpatialIndex::new(pts, 1.0);
        let got = idx.within(&p(0.0, 179.95), 50.0);
        assert_eq!(got.len(), 2, "date-line wrap missed: {got:?}");
    }

    /// A deterministic pseudo-random point cloud clustered like metros,
    /// including date-line and high-latitude clusters.
    fn dense_cloud(n: usize) -> Vec<GeoPoint> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let centers = [
            (40.7, -74.0),
            (35.7, 139.7),
            (51.5, -0.1),
            (0.0, 179.9),
            (68.0, 20.0),
            (-33.9, 151.2),
        ];
        (0..n)
            .map(|i| {
                let (clat, clon) = centers[i % centers.len()];
                let lat = (clat + (next() - 0.5) * 2.5).clamp(-89.9, 89.9);
                let mut lon = clon + (next() - 0.5) * 2.5;
                if lon > 180.0 {
                    lon -= 360.0;
                }
                if lon <= -180.0 {
                    lon += 360.0;
                }
                p(lat, lon)
            })
            .collect()
    }

    #[test]
    fn filtered_scan_matches_brute_force_exactly() {
        // The pruned/packed scan must report exactly the brute-force
        // match set with bit-identical haversine distances. The polar
        // probes reach across the pole: one around the whole globe, where
        // the offsets -180 and +180 wrap to one column that must be
        // visited once, and one whose cap holds the pole, where every
        // longitude is in reach.
        let mut pts = dense_cloud(4000);
        pts.extend([p(88.5, -179.5), p(89.0, 150.0)]);
        let idx = SpatialIndex::new(pts.clone(), 1.0);
        let mut probes = Vec::new();
        for &(clat, clon) in &[(40.9, -73.8), (0.05, -179.95), (68.4, 20.5), (35.7, 139.7)] {
            for radius in [12.0, 40.0, 150.0] {
                probes.push((clat, clon, radius));
            }
        }
        probes.extend([(88.0, 0.0, 1000.0), (80.0, 0.0, 800.0)]);
        for (clat, clon, radius) in probes {
            let center = p(clat, clon);
            let mut got: Vec<(u32, f64)> = Vec::new();
            idx.for_each_within(&center, radius, |i, d| got.push((i, d)));
            let want: Vec<(u32, f64)> = pts
                .iter()
                .enumerate()
                .filter_map(|(i, q)| {
                    let d = haversine_miles(&center, q);
                    (d <= radius).then_some((i as u32, d))
                })
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort_by_key(|&(i, _)| i);
            assert_eq!(got_sorted, want, "center {clat},{clon} radius {radius}");
        }
    }

    /// All points ordered by (distance `total_cmp`, index), with
    /// distances as bits so comparisons are exact.
    fn brute_force_order(pts: &[GeoPoint], center: &GeoPoint) -> Vec<(u32, u64)> {
        let mut all: Vec<(u32, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, q)| (i as u32, haversine_miles(center, q)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
    }

    #[test]
    fn nearest_and_nearest_k_match_brute_force_exactly() {
        // Sparse clouds leave wide gaps between occupied buckets, so the
        // ring scan's stopping bound decides the answer; polar, date-line
        // and exactly-±180° points and probes stress it where a
        // latitude-blind bound fails.
        let mut pts = dense_cloud(60);
        pts.extend([
            p(84.3, 30.0),
            p(85.5, 36.5),
            p(90.0, 0.0),
            p(-89.5, 100.0),
            p(10.0, 180.0),
            p(10.0, -180.0),
            p(0.0, 179.99),
            p(40.7, -74.0),
            p(40.7, -74.0),
        ]);
        let idx = SpatialIndex::new(pts.clone(), 1.0);
        let probes = [
            (85.5, 30.0),
            (89.9, -150.0),
            (-90.0, 0.0),
            (10.0, 180.0),
            (10.0, -179.0),
            (0.0, -179.99),
            (40.7, -74.0),
            (0.0, 0.0),
            (-45.0, -100.0),
            (68.4, 20.5),
        ];
        for (clat, clon) in probes {
            let center = p(clat, clon);
            let want = brute_force_order(&pts, &center);
            let bits = |(i, d): (u32, f64)| (i, d.to_bits());
            assert_eq!(
                idx.nearest(&center).map(bits),
                Some(want[0]),
                "nearest at {clat},{clon}"
            );
            for k in [0, 1, 3, 10, pts.len() + 5] {
                let got: Vec<(u32, u64)> =
                    idx.nearest_k(&center, k).into_iter().map(bits).collect();
                let n = k.min(pts.len());
                assert_eq!(got, want[..n], "nearest_k({k}) at {clat},{clon}");
            }
        }
    }

    #[test]
    fn in_radius_matches_for_each_within_order() {
        // The distance-free fast path must accept the same points in the
        // same (bucket-scan) order as the distance-reporting scan.
        let pts = dense_cloud(4000);
        let idx = SpatialIndex::new(pts, 1.0);
        for &(clat, clon) in &[(40.9, -73.8), (0.05, -179.95), (68.4, 20.5)] {
            let center = p(clat, clon);
            for radius in [12.0, 40.0, 150.0] {
                let mut with_d: Vec<u32> = Vec::new();
                idx.for_each_within(&center, radius, |i, _| with_d.push(i));
                let mut without_d: Vec<u32> = Vec::new();
                idx.for_each_in_radius(&center, radius, |i| without_d.push(i));
                assert_eq!(with_d, without_d, "center {clat},{clon} radius {radius}");
            }
        }
    }
}
