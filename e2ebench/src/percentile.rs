//! Percentiles from raw samples.
//!
//! Every percentile the benchmark reports is computed here, from the
//! driver's own samples — never from the serving layer's histogram
//! buckets, whose quantiles are bucket upper bounds and can exceed the
//! observed maximum.

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `sorted`, an
/// ascending slice: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let rank = rank_of(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n`
/// samples, `ceil(p/100 · n)` clamped to `1..=n`.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let exact = p / 100.0 * n as f64;
    // Guard the float product against landing a hair above an integer.
    let rank = (exact - 1e-9).ceil().max(1.0) as usize;
    Some(rank.min(n))
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank_of(n, p).map_or(0, |rank| n - rank)
}

/// The smallest sample count whose `p`-th percentile has at least
/// `beyond` samples past it — how large a phase must be before it may
/// report that percentile.
pub fn min_samples_for(p: f64, beyond: usize) -> usize {
    let mut n = beyond + 1;
    while samples_beyond(n, p) < beyond {
        n += 1;
    }
    n
}

/// Sorts a copy of `samples` ascending (samples are finite by
/// construction: durations).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: the definition read literally — the smallest sample
    /// `x` with `|{s ≤ x}| ≥ p/100 · n`.
    fn oracle(sorted: &[f64], p: f64) -> f64 {
        let n = sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&x| sorted.iter().filter(|&&s| s <= x).count() as f64 >= p / 100.0 * n - 1e-9)
            .expect("non-empty")
    }

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn matches_sorted_vector_oracle() {
        for seed in 0..40u64 {
            let mut next = lcg(seed);
            let n = 1 + (seed as usize * 37) % 1500;
            // Coarse values force ties, which the oracle must agree on.
            let samples: Vec<f64> = (0..n).map(|_| (next() * 50.0).floor()).collect();
            let s = sorted(&samples);
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(nearest_rank(&s, p), Some(oracle(&s, p)), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_never_exceeds_observed_extremes() {
        let s = sorted(&[3.0, 1.0, 2.0]);
        assert_eq!(nearest_rank(&s, 100.0), Some(3.0));
        assert_eq!(nearest_rank(&s, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten samples past it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(min_samples_for(99.0, 10), 1000);
        assert_eq!(min_samples_for(50.0, 10), 20);
        assert_eq!(min_samples_for(99.9, 10), 10_000);
        for n in [1usize, 10, 99, 100, 101, 1000, 1001, 5000] {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p99 = nearest_rank(&s, 99.0).expect("non-empty");
            let beyond = s.iter().filter(|&&x| x > p99).count();
            assert_eq!(beyond, samples_beyond(n, 99.0), "n={n}");
        }
    }
}
