//! Deterministic pseudo-random tensor initialisation.
//!
//! Model weights in this reproduction are synthetic (the paper's results
//! depend on tensor *shapes*, not values), but they must be
//! deterministic so functional tests are reproducible across runs and
//! partition strategies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Result, Tensor};

/// Deterministic tensor generator seeded per logical weight name.
///
/// The same `(seed, name)` pair always yields the same tensor, so model
/// construction order cannot perturb weights.
#[derive(Debug, Clone)]
pub struct WeightRng {
    seed: u64,
}

impl WeightRng {
    /// Create a generator with a global model seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn rng_for(&self, name: &str) -> StdRng {
        // FNV-1a over the name, mixed with the model seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(self.seed ^ h)
    }

    /// Uniform tensor in `[-scale, scale]` keyed by `name`.
    pub fn uniform(&self, name: &str, dims: &[usize], scale: f32) -> Result<Tensor> {
        let mut rng = self.rng_for(name);
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-scale..=scale)).collect();
        Tensor::from_vec(data, dims)
    }

    /// Kaiming-style uniform init for a `[fan_in, fan_out]` weight.
    pub fn kaiming(&self, name: &str, fan_in: usize, fan_out: usize) -> Result<Tensor> {
        let scale = (1.0 / fan_in.max(1) as f32).sqrt();
        self.uniform(name, &[fan_in, fan_out], scale)
    }
}

/// A fast deterministic hash for cache keys and test data generation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th draw of a splitmix64 stream over `seed`: the one
/// decorrelation scheme every seeded stream in the simulator uses
/// (disturbance traces, runtime traffic, fleet worlds).
pub fn draw(seed: u64, i: u64) -> u64 {
    splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_name() {
        let rng = WeightRng::new(42);
        let a = rng.uniform("layer0.wq", &[4, 4], 1.0).unwrap();
        let b = rng.uniform("layer0.wq", &[4, 4], 1.0).unwrap();
        assert_eq!(a, b);
        let c = rng.uniform("layer0.wk", &[4, 4], 1.0).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WeightRng::new(1).uniform("w", &[8], 1.0).unwrap();
        let b = WeightRng::new(2).uniform("w", &[8], 1.0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_respects_scale() {
        let t = WeightRng::new(7).uniform("w", &[1000], 0.25).unwrap();
        assert!(t.data().iter().all(|&x| (-0.25..=0.25).contains(&x)));
    }

    #[test]
    fn kaiming_scale_shrinks_with_fan_in() {
        let rng = WeightRng::new(3);
        let big = rng.kaiming("w", 4096, 16).unwrap();
        let bound = (1.0f32 / 4096.0).sqrt();
        assert!(big.data().iter().all(|&x| x.abs() <= bound));
        assert_eq!(big.shape().dims(), &[4096, 16]);
    }

    #[test]
    fn splitmix_is_stable() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
