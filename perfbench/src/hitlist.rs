//! The seeded query hitlist: 80% interface addresses drawn uniformly,
//! 20% uniform random IPv4 addresses, in draw order (so consecutive
//! requests touch unrelated parts of the snapshot and route table).

use std::net::Ipv4Addr;

/// Share of draws that pick a known interface.
const KNOWN_SHARE: f64 = 0.8;

/// SplitMix64: a small, well-mixed generator, so the hitlist depends
/// only on the seed and not on any library's RNG stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One hitlist slot, drawn before the world exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// A uniform draw over the interface list (scaled to its length
    /// when the world is known).
    Interface(u64),
    /// A uniform random IPv4 address.
    Random(u32),
}

/// Draws `n` hitlist slots from `seed`.
pub fn plan(seed: u64, n: usize) -> Vec<Draw> {
    let mut rng = SplitMix64::new(seed ^ 0x0048_4954_4C49_5354);
    (0..n)
        .map(|_| {
            let coin = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if coin < KNOWN_SHARE {
                Draw::Interface(rng.next_u64())
            } else {
                Draw::Random(rng.next_u64() as u32)
            }
        })
        .collect()
}

/// Turns drawn slots into addresses over `interfaces` (the world's
/// interface addresses in topology order).
pub fn materialize(plan: &[Draw], interfaces: &[Ipv4Addr]) -> Vec<Ipv4Addr> {
    let n = interfaces.len() as u128;
    plan.iter()
        .map(|d| match *d {
            // Multiply-shift maps 64 random bits uniformly onto 0..n.
            Draw::Interface(r) if n > 0 => interfaces[((u128::from(r) * n) >> 64) as usize],
            Draw::Interface(r) => Ipv4Addr::from(r as u32),
            Draw::Random(bits) => Ipv4Addr::from(bits),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hitlist() {
        let ifaces: Vec<Ipv4Addr> = (0..500u32)
            .map(|i| Ipv4Addr::from(0x0A00_0000 + i))
            .collect();
        let a = materialize(&plan(2002, 5_000), &ifaces);
        let b = materialize(&plan(2002, 5_000), &ifaces);
        assert_eq!(a, b);
        let c = materialize(&plan(2003, 5_000), &ifaces);
        assert_ne!(a, c);
    }

    #[test]
    fn known_share_is_near_eighty_percent() {
        let p = plan(7, 100_000);
        let known = p.iter().filter(|d| matches!(d, Draw::Interface(_))).count();
        let share = known as f64 / p.len() as f64;
        assert!((share - KNOWN_SHARE).abs() < 0.01, "share {share}");
    }

    #[test]
    fn interface_draws_stay_in_range_and_spread() {
        let ifaces: Vec<Ipv4Addr> = (0..10u32).map(Ipv4Addr::from).collect();
        let addrs = materialize(&plan(1, 10_000), &ifaces);
        let mut hits = [0usize; 10];
        for a in addrs {
            let v = u32::from(a);
            if v < 10 {
                hits[v as usize] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h > 600), "{hits:?}");
    }
}
