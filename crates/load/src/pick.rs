//! Index selection distributions for a load generator.
//!
//! Real workloads are rarely uniform: a few related-data groups are hot
//! and most are cold. [`Selector`] supports both shapes — uniform (every
//! group equally likely) and zipfian with configurable skew (rank-`k`
//! group chosen with probability ∝ `1 / k^s`), via a precomputed CDF and
//! binary search so a pick is O(log n) with no per-pick allocation.

use rand::rngs::StdRng;
use rand::Rng;

/// Which distribution a [`Selector`] draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Every index equally likely.
    Uniform,
    /// Zipfian with the given skew exponent `s > 0` (typical: ~1.0).
    Zipf(f64),
}

impl Dist {
    /// Parses `uniform`, `zipf` (skew 1.1) or `zipf:<skew>`.
    pub fn parse(s: &str) -> Option<Dist> {
        match s {
            "uniform" => Some(Dist::Uniform),
            "zipf" => Some(Dist::Zipf(1.1)),
            other => {
                let skew: f64 = other.strip_prefix("zipf:")?.parse().ok()?;
                if skew.is_finite() && skew > 0.0 {
                    Some(Dist::Zipf(skew))
                } else {
                    None
                }
            }
        }
    }
}

impl std::fmt::Display for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dist::Uniform => write!(f, "uniform"),
            Dist::Zipf(s) => write!(f, "zipf:{s}"),
        }
    }
}

/// Draws indices in `[0, n)` from a fixed distribution.
pub struct Selector {
    n: usize,
    /// Cumulative probabilities for zipf; empty for uniform.
    cdf: Vec<f64>,
}

impl Selector {
    /// A selector over `n` indices (`n` must be nonzero).
    pub fn new(n: usize, dist: Dist) -> Selector {
        assert!(n > 0, "selector over zero indices");
        let cdf = match dist {
            Dist::Uniform => Vec::new(),
            Dist::Zipf(s) => {
                let mut weights: Vec<f64> =
                    (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
                let total: f64 = weights.iter().sum();
                let mut cum = 0.0;
                for w in weights.iter_mut() {
                    cum += *w / total;
                    *w = cum;
                }
                // Guard the tail against float rounding.
                if let Some(last) = weights.last_mut() {
                    *last = 1.0;
                }
                weights
            }
        };
        Selector { n, cdf }
    }

    /// Draws one index.
    pub fn pick(&self, rng: &mut StdRng) -> usize {
        if self.cdf.is_empty() {
            return rng.gen_range(0..self.n);
        }
        let r: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < r).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn parse_accepts_known_shapes() {
        assert_eq!(Dist::parse("uniform"), Some(Dist::Uniform));
        assert_eq!(Dist::parse("zipf"), Some(Dist::Zipf(1.1)));
        assert_eq!(Dist::parse("zipf:0.9"), Some(Dist::Zipf(0.9)));
        assert_eq!(Dist::parse("zipf:-1"), None);
        assert_eq!(Dist::parse("zipf:nan"), None);
        assert_eq!(Dist::parse("pareto"), None);
    }

    #[test]
    fn uniform_covers_all_indices() {
        let sel = Selector::new(16, Dist::Uniform);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[sel.pick(&mut rng)] = true;
        }
        assert!(seen.iter().all(|s| *s), "uniform left an index undrawn");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let sel = Selector::new(64, Dist::Zipf(1.1));
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            counts[sel.pick(&mut rng)] += 1;
        }
        // Rank 0 must dominate the tail decisively.
        assert!(
            counts[0] > 10 * counts[63].max(1),
            "no zipfian skew: {counts:?}"
        );
        // And the top 8 ranks should hold the majority of the mass.
        let head: u32 = counts[..8].iter().sum();
        assert!(head > 10_000, "head mass {head} too small");
    }

    #[test]
    fn zipf_cdf_is_monotone_and_complete() {
        let sel = Selector::new(100, Dist::Zipf(0.99));
        assert!(sel.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*sel.cdf.last().unwrap(), 1.0);
    }

    #[test]
    fn single_index_selector_always_picks_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        for dist in [Dist::Uniform, Dist::Zipf(1.0)] {
            let sel = Selector::new(1, dist);
            for _ in 0..10 {
                assert_eq!(sel.pick(&mut rng), 0);
            }
        }
    }
}
