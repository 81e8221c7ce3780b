//! Named, reproducible random-number streams.
//!
//! One master seed fans out to independent ChaCha8 streams keyed by a
//! stable string name ("winds", "weather", "link-failures", ...). Two
//! subsystems never share a stream, so adding randomness to one never
//! perturbs another — runs stay comparable across experiments, which
//! is what makes the ablations (E10–E12) honest A/B comparisons.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Factory for deterministic per-subsystem RNG streams.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master_seed: u64,
}

impl RngStreams {
    /// Create a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self { master_seed }
    }

    /// Derive the deterministic stream for `name`.
    pub fn stream(&self, name: &str) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.master_seed ^ fnv1a(name))
    }

    /// Derive a stream for `name` specialized by an index (e.g. one
    /// stream per balloon).
    pub fn indexed_stream(&self, name: &str, index: u64) -> ChaCha8Rng {
        let mixed = fnv1a(name) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ChaCha8Rng::seed_from_u64(self.master_seed ^ mixed)
    }
}

/// FNV-1a over the stream name: stable across runs and platforms
/// (unlike `DefaultHasher`, whose output is unspecified).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a = RngStreams::new(42);
        let b = RngStreams::new(42);
        let xs: Vec<u64> = a
            .stream("winds")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let ys: Vec<u64> = b
            .stream("winds")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_names_different_streams() {
        let f = RngStreams::new(42);
        let xs: Vec<u64> = f
            .stream("winds")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let ys: Vec<u64> = f
            .stream("weather")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_seeds_different_streams() {
        let xs: Vec<u64> = RngStreams::new(1)
            .stream("w")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let ys: Vec<u64> = RngStreams::new(2)
            .stream("w")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn indexed_streams_are_independent() {
        let f = RngStreams::new(7);
        let a: Vec<u64> = f
            .indexed_stream("balloon", 0)
            .sample_iter(rand::distributions::Standard)
            .take(4)
            .collect();
        let b: Vec<u64> = f
            .indexed_stream("balloon", 1)
            .sample_iter(rand::distributions::Standard)
            .take(4)
            .collect();
        assert_ne!(a, b);
        // And reproducible.
        let a2: Vec<u64> = f
            .indexed_stream("balloon", 0)
            .sample_iter(rand::distributions::Standard)
            .take(4)
            .collect();
        assert_eq!(a, a2);
    }
}
