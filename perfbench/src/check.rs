//! Output checks: FNV-1a digests of the experiment results, processed
//! datasets and served answers, the stored reference digests they are
//! compared against, and the tally of attempted and failed operations.

use geotopo::core::experiments::ExperimentResult;
use geotopo::core::ProcessedDataset;
use geotopo::query::QueryAnswer;
use std::collections::BTreeMap;

/// Digests by key: `experiment/<id>`, `dataset/<tool>-<collector>`,
/// `answers`.
pub type Digests = BTreeMap<String, u64>;

/// 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds a length-prefixed string, so adjacent fields cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Feeds a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One digest per experiment: id, title, rendered text and JSON data.
pub fn experiment_digests(results: &[ExperimentResult]) -> Digests {
    results
        .iter()
        .map(|r| {
            let mut h = Fnv::new();
            h.str(&r.id);
            h.str(&r.title);
            h.str(&r.text);
            h.str(&serde_json::to_string(&r.json).expect("experiment JSON serializes"));
            (format!("experiment/{}", r.id), h.finish())
        })
        .collect()
}

/// One digest per processed dataset, over every node, link and counter.
pub fn dataset_digests<'a>(datasets: impl IntoIterator<Item = &'a ProcessedDataset>) -> Digests {
    datasets
        .into_iter()
        .map(|d| {
            let mut h = Fnv::new();
            let ds = &d.dataset;
            h.str(&format!("{:?}", ds.kind));
            h.u64(ds.nodes.len() as u64);
            for n in &ds.nodes {
                h.u64(u64::from(u32::from(n.ip)));
                h.u64(n.location.lat().to_bits());
                h.u64(n.location.lon().to_bits());
                h.u64(u64::from(n.asn.0));
            }
            h.u64(ds.links.len() as u64);
            for &(a, b) in &ds.links {
                h.u64((u64::from(a) << 32) | u64::from(b));
            }
            let s = &ds.stats;
            for v in [
                s.unmapped_location,
                s.location_ties,
                s.unmapped_as,
                s.dropped_links,
            ] {
                h.u64(v as u64);
            }
            let key = format!("dataset/{}-{}", d.mapper, d.collector).to_lowercase();
            (key, h.finish())
        })
        .collect()
}

/// Feeds served answers, in request order, into a running digest.
pub fn feed_answers(h: &mut Fnv, answers: &[QueryAnswer]) {
    for a in answers {
        h.u64(u64::from(a.ip));
        h.u64(u64::from(a.known));
        match a.location {
            Some(p) => {
                h.u64(p.lat().to_bits());
                h.u64(p.lon().to_bits());
            }
            None => h.u64(u64::MAX),
        }
        h.u64(a.city.map_or(u64::MAX, u64::from));
        h.u64(a.city_miles.to_bits());
        h.u64(u64::from(a.origin.0));
        h.u64(a.matched_len.map_or(u64::MAX, u64::from));
        h.str(a.source);
        h.u64(u64::from(a.fallback));
    }
}

/// Parses the stored reference digests of one run seed and workload,
/// by world seed.
///
/// Each non-blank, non-`#` line reads
/// `<run seed> <world seed> <workload> <key> <hex>`: answers depend on
/// both seeds (the hitlist is drawn from the run seed), everything else
/// on the world alone.
pub fn reference(text: &str, seed: u64, workload: &str) -> Result<BTreeMap<u64, Digests>, String> {
    let mut out: BTreeMap<u64, Digests> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [run, world, w, key, hex] = fields[..] else {
            return Err(format!("reference line {}: expected 5 fields", i + 1));
        };
        let parse = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("reference line {}: bad seed", i + 1))
        };
        if parse(run)? == seed && w == workload {
            let v = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("reference line {}: bad digest", i + 1))?;
            out.entry(parse(world)?)
                .or_default()
                .insert(key.to_string(), v);
        }
    }
    Ok(out)
}

/// Renders digests as reference lines for one world of a run.
pub fn reference_lines(digests: &Digests, seed: u64, world: u64, workload: &str) -> String {
    digests
        .iter()
        .map(|(k, v)| format!("{seed} {world} {workload} {k} {v:016x}\n"))
        .collect()
}

/// Keys whose digests differ between `expected` and `got`, including
/// keys present on one side only.
pub fn mismatches(expected: &Digests, got: &Digests) -> Vec<String> {
    let mut keys: Vec<&String> = expected.keys().chain(got.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| expected.get(*k) != got.get(*k))
        .map(|k| match (expected.get(k), got.get(k)) {
            (Some(e), Some(g)) => format!("{k}: expected {e:016x}, got {g:016x}"),
            (Some(_), None) => format!("{k}: missing"),
            _ => format!("{k}: unexpected"),
        })
        .collect()
}

/// Attempted and failed operations of one run. A failed operation is
/// printed to stderr as it is counted.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (reproductions, resumes, lookups).
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; it fails when `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems.iter().take(10) {
                eprintln!("[perfbench] FAILED {what}: {p}");
            }
        }
    }

    /// Counts `n` lookups, of which `bad` failed their answer check.
    pub fn lookups(&mut self, n: u64, bad: &[String]) {
        self.attempted += n;
        self.failed += bad.len() as u64;
        for p in bad.iter().take(10) {
            eprintln!("[perfbench] FAILED lookup: {p}");
        }
    }

    /// Failed over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(pairs: &[(&str, u64)]) -> Digests {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn digest_mismatch_counts_as_failure() {
        let expected = digests(&[("experiment/fig4", 1), ("answers", 2)]);
        let mut tally = Tally::default();
        tally.op("reproduce", &mismatches(&expected, &expected.clone()));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let changed = digests(&[("experiment/fig4", 1), ("answers", 3)]);
        let problems = mismatches(&expected, &changed);
        assert_eq!(problems.len(), 1);
        tally.op("reproduce", &problems);
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        let missing = digests(&[("answers", 2)]);
        tally.op("reproduce", &mismatches(&expected, &missing));
        assert_eq!(tally.failed, 2);
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reference_round_trips_and_filters() {
        let d = digests(&[("answers", 0xabc), ("dataset/x", u64::MAX)]);
        let mut text = String::from("# comment\n");
        text += &reference_lines(&d, 2002, 2002, "reproduce-small");
        text += &reference_lines(&digests(&[("answers", 1)]), 2002, 77, "reproduce-small");
        text += &reference_lines(&digests(&[("answers", 2)]), 2002, 2002, "resume-serve");
        text += &reference_lines(&digests(&[("answers", 3)]), 5, 2002, "reproduce-small");
        let parsed = reference(&text, 2002, "reproduce-small").expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.get(&2002), Some(&d));
        assert!(reference(&text, 2002, "reproduce-large")
            .expect("parses")
            .is_empty());
        assert!(reference("2002 2002 x y", 2002, "x").is_err());
    }

    #[test]
    fn fnv_matches_known_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
