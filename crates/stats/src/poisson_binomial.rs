//! Exact Poisson-binomial distribution via dynamic programming.
//!
//! Given independent Bernoulli trials with success probabilities
//! `p_1, …, p_n`, the Poisson-binomial distribution describes the number
//! of successes. `mp-core` uses it to compute, exactly, the probability
//! that *at most `k − 1` other databases outrank a candidate database* —
//! the heart of the expected partial correctness `E[Cor_p(DBk)]`
//! (paper Eq. 6): database `i` is in the true top-k iff fewer than `k`
//! of the `n − 1` other databases beat it.
//!
//! The DP is the textbook `O(n²)` convolution, which is exact and far
//! cheaper than the naive `O(2^n)` enumeration; for the paper's `n = 20`
//! databases it is effectively free.

use crate::float::{exact_one, exact_zero};
use serde::{Deserialize, Serialize};

/// The exact distribution of the number of successes among independent,
/// non-identical Bernoulli trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonBinomial {
    /// `pmf[j] = P(exactly j successes)`, `j = 0..=n`.
    pmf: Vec<f64>,
}

impl PoissonBinomial {
    /// Computes the distribution for the given success probabilities.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` or non-finite.
    pub fn new(probs: &[f64]) -> Self {
        for &p in probs {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "Bernoulli probability out of range: {p}"
            );
        }
        let mut pmf = vec![0.0; probs.len() + 1];
        pmf[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            // Iterate downward so each trial is folded in exactly once.
            for j in (0..=i + 1).rev() {
                let stay = if j <= i { pmf[j] * (1.0 - p) } else { 0.0 };
                let from_below = if j > 0 { pmf[j - 1] * p } else { 0.0 };
                pmf[j] = stay + from_below;
            }
        }
        let pb = Self { pmf };
        pb.debug_assert_normalized();
        pb
    }

    /// Debug-build check that the pmf is a probability vector
    /// (non-negative, summing to 1 within `1e-9`) — lint rule L6.
    pub fn debug_assert_normalized(&self) {
        debug_assert!(
            self.pmf.iter().all(|&p| p >= 0.0)
                && (self.pmf.iter().sum::<f64>() - 1.0).abs() <= 1e-9,
            "PoissonBinomial pmf must be non-negative and sum to 1"
        );
    }

    /// Number of trials `n`.
    pub fn trials(&self) -> usize {
        self.pmf.len() - 1
    }

    /// `P(exactly j successes)`; zero for `j > n`.
    pub fn pmf(&self, j: usize) -> f64 {
        self.pmf.get(j).copied().unwrap_or(0.0)
    }

    /// `P(at most j successes)`.
    pub fn cdf(&self, j: usize) -> f64 {
        let hi = j.min(self.pmf.len() - 1);
        self.pmf[..=hi].iter().sum::<f64>().min(1.0)
    }

    /// Expected number of successes.
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| j as f64 * p)
            .sum()
    }

    /// The full probability mass function, index = success count.
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }
}

/// An *incremental* Poisson-binomial accumulator: the same exact DP as
/// [`PoissonBinomial`], but mutable — trials can be pushed, removed, and
/// swapped in `O(n)` each instead of rebuilding the whole `O(n²)` DP.
///
/// This is the engine behind `mp-core`'s greedy-probing fast path: the
/// per-database "how many rivals beat me" distribution is built once per
/// state, then each hypothetical probe of database `h` only *patches*
/// `h`'s beat-probability — a leave-one-out [`Self::remove`] followed by
/// re-inserting a 0/1 trial — rather than recomputing the full DP.
///
/// Removal is a stable deconvolution of the pmf by one Bernoulli factor:
/// with `f` the current pmf and `q = 1 − p`,
///
/// ```text
/// f[j] = g[j]·q + g[j−1]·p
/// ```
///
/// is solved forward (`g[j] = (f[j] − g[j−1]·p)/q`) when `p ≤ ½` and
/// backward (`g[j−1] = (f[j] − g[j]·q)/p`) when `p > ½`, so the divisor
/// is always ≥ ½ and the recurrence never amplifies rounding error.
/// `p ∈ {0, 1}` are exact shifts.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalPoissonBinomial {
    /// `pmf[j] = P(exactly j successes)`, `j = 0..=n`.
    pmf: Vec<f64>,
    /// The success probability of each live trial, in insertion order.
    probs: Vec<f64>,
}

impl Default for IncrementalPoissonBinomial {
    // mp-lint: allow(L6): pure delegation — `Self::new` runs the normalization debug_assert
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalPoissonBinomial {
    /// An empty accumulator (zero trials: `P(0 successes) = 1`).
    pub fn new() -> Self {
        let acc = Self {
            pmf: vec![1.0],
            probs: Vec::new(),
        };
        acc.debug_assert_normalized();
        acc
    }

    /// Debug-build check that the pmf is a probability vector
    /// (non-negative, summing to 1 within `1e-9`) — lint rule L6.
    pub fn debug_assert_normalized(&self) {
        debug_assert!(
            self.pmf.iter().all(|&p| p >= 0.0)
                && (self.pmf.iter().sum::<f64>() - 1.0).abs() <= 1e-9,
            "IncrementalPoissonBinomial pmf must be non-negative and sum to 1"
        );
    }

    /// Builds the accumulator from `probs` by successive pushes; the
    /// resulting pmf is identical to [`PoissonBinomial::new`]'s.
    pub fn from_probs(probs: &[f64]) -> Self {
        let mut acc = Self {
            pmf: Vec::with_capacity(probs.len() + 1),
            probs: Vec::new(),
        };
        acc.pmf.push(1.0);
        for &p in probs {
            acc.push(p);
        }
        acc.debug_assert_normalized();
        acc
    }

    /// Folds in one more trial with success probability `p`. `O(n)`.
    ///
    /// `p ∈ {0, 1}` append or shift the pmf instead of running the fold:
    /// for a pmf without `−0.0` entries (one built by pushes never holds
    /// one) the fold's `x·1 + y·0` and `x·0 + y·1` are exactly `x` and
    /// `y`, so both shortcuts are bit-identical to the full pass.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or non-finite.
    pub fn push(&mut self, p: f64) {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "Bernoulli probability out of range: {p}"
        );
        self.probs.push(p);
        if exact_zero(p) {
            self.pmf.push(0.0);
            return;
        }
        if exact_one(p) {
            self.pmf.insert(0, 0.0);
            return;
        }
        // The fold's end terms add an exact `+0.0` (`0 + x·p` at the new
        // top, `x·q + 0` at the bottom), which leaves a non-negative `x`
        // unchanged, so they are written without it.
        let q = 1.0 - p;
        let top = self.pmf[self.pmf.len() - 1] * p;
        for j in (1..self.pmf.len()).rev() {
            self.pmf[j] = self.pmf[j] * q + self.pmf[j - 1] * p;
        }
        self.pmf[0] *= q;
        self.pmf.push(top);
    }

    /// Drops every trial (back to `P(0 successes) = 1`), keeping both
    /// allocations for the next round of pushes.
    pub fn clear(&mut self) {
        self.pmf.clear();
        self.pmf.push(1.0);
        self.probs.clear();
    }

    /// Removes the trial at `index` (indices shift down, as in
    /// `Vec::remove`) and returns its probability. `O(n)`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> f64 {
        let p = self.probs.remove(index);
        let n = self.pmf.len() - 1;
        let mut out = Vec::with_capacity(n);
        deconvolve(&self.pmf, p, &mut out);
        self.pmf = out;
        p
    }

    /// Replaces the trial at `index` with probability `p_new`, returning
    /// the old probability. `O(n)` — one deconvolution + one fold, with
    /// no reallocation of the trials vector.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds or `p_new` is invalid.
    pub fn swap(&mut self, index: usize, p_new: f64) -> f64 {
        assert!(
            p_new.is_finite() && (0.0..=1.0).contains(&p_new),
            "Bernoulli probability out of range: {p_new}"
        );
        let old = self.probs[index];
        let n = self.pmf.len() - 1;
        let mut out = Vec::with_capacity(n + 1);
        deconvolve(&self.pmf, old, &mut out);
        // Fold the replacement back in (same downward pass as `push`).
        out.push(0.0);
        let m = out.len() - 1;
        for j in (0..=m).rev() {
            let stay = if j < m { out[j] * (1.0 - p_new) } else { 0.0 };
            let from_below = if j > 0 { out[j - 1] * p_new } else { 0.0 };
            out[j] = stay + from_below;
        }
        self.pmf = out;
        self.probs[index] = p_new;
        old
    }

    /// Writes the pmf of the distribution *without* the trial at `index`
    /// into `out` (length `n`), leaving the accumulator untouched — the
    /// leave-one-out query the greedy fast path issues per candidate.
    /// `O(n)`, no allocation beyond `out`'s capacity.
    pub fn excluding_into(&self, index: usize, out: &mut Vec<f64>) {
        deconvolve(&self.pmf, self.probs[index], out);
    }

    /// The first `len` entries of [`Self::excluding_into`]'s pmf, bit for
    /// bit, written into `out` (cleared first) — for callers that only
    /// read `P(at most len − 1 successes)` of the leave-one-out
    /// distribution. A forward deconvolution (`p ≤ ½`) stops after `len`
    /// steps; a backward one (`p > ½`) starts at the pmf's highest
    /// non-zero entry instead of the top.
    ///
    /// The backward start is exact: above the highest non-zero entry
    /// every `f[j]` is `+0.0`, and the full recurrence turns each of them
    /// into `(+0.0 − 0·q)/p = +0.0`, so it enters the non-zero part with
    /// the same `+0.0` carry the shortened one starts from. This needs
    /// the zeros to be positive; a pmf built by [`Self::push`] never
    /// holds `−0.0` (every term is a sum of products of non-negative
    /// factors, and a deconvolution clamps to `[+0.0, 1]`).
    ///
    /// # Panics
    /// Panics if `index` is out of bounds or `len` exceeds the trials.
    pub fn excluding_prefix_into(&self, index: usize, len: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(len, 0.0);
        deconvolve_prefix(&self.pmf, self.top(), self.probs[index], out);
    }

    /// [`Self::excluding_prefix_into`] for every trial in `indices` at
    /// once: `out` (cleared first) holds `len` entries per index, in
    /// `indices` order, each bit-identical to the single query.
    ///
    /// The backward deconvolutions are serial divide chains over the
    /// same pmf, independent of each other, so they run four trials at a
    /// time in `[f64; 4]` lanes: the same operations per lane, with the
    /// four chains' latencies overlapping. A short last group repeats
    /// its final lane.
    ///
    /// # Panics
    /// Panics if an index is out of bounds or `len` exceeds the trials.
    pub fn excluding_prefixes_into(&self, indices: &[usize], len: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(indices.len() * len, 0.0);
        if len == 0 {
            return;
        }
        let top = self.top();
        // Pending backward lanes: (success probability, output offset).
        let mut lanes = [(0.0f64, 0usize); 4];
        let mut pending = 0;
        for (c, &index) in indices.iter().enumerate() {
            let p = self.probs[index];
            let dst = c * len;
            if exact_zero(p) || exact_one(p) || p <= 0.5 {
                deconvolve_prefix(&self.pmf, top, p, &mut out[dst..dst + len]);
                continue;
            }
            lanes[pending] = (p, dst);
            pending += 1;
            if pending == lanes.len() {
                backward_prefix_lanes(&self.pmf, top, lanes, len, out);
                pending = 0;
            }
        }
        if pending > 0 {
            let last = lanes[pending - 1];
            lanes[pending..].fill(last);
            backward_prefix_lanes(&self.pmf, top, lanes, len, out);
        }
    }

    /// Index of the highest non-zero pmf entry (0 if there is none).
    fn top(&self) -> usize {
        self.pmf.iter().rposition(|&x| !exact_zero(x)).unwrap_or(0)
    }

    /// Number of live trials `n`.
    pub fn trials(&self) -> usize {
        self.probs.len()
    }

    /// The live trial probabilities, in insertion order.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// `P(exactly j successes)`; zero for `j > n`.
    pub fn pmf(&self, j: usize) -> f64 {
        self.pmf.get(j).copied().unwrap_or(0.0)
    }

    /// `P(at most j successes)`.
    pub fn cdf(&self, j: usize) -> f64 {
        let hi = j.min(self.pmf.len() - 1);
        self.pmf[..=hi].iter().sum::<f64>().min(1.0)
    }

    /// Expected number of successes.
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| j as f64 * p)
            .sum()
    }

    /// The full probability mass function, index = success count.
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }
}

/// Divides the Poisson-binomial pmf `f` (over `n` trials) by the
/// Bernoulli factor `p`, writing the `n − 1`-trial pmf into `out`.
///
/// Direction is chosen so the divisor is `max(p, 1 − p) ≥ ½`; each term
/// is clamped to `[0, 1]` to absorb last-ulp drift (the true values are
/// probabilities, so clamping never moves an exact result).
fn deconvolve(f: &[f64], p: f64, out: &mut Vec<f64>) {
    let n = f.len() - 1;
    assert!(n >= 1, "cannot remove a trial from an empty accumulator");
    out.clear();
    if exact_zero(p) {
        // The trial never fired: f already is g with a trailing zero.
        out.extend_from_slice(&f[..n]);
    } else if exact_one(p) {
        // The trial always fired: g is f shifted down by one success.
        out.extend_from_slice(&f[1..]);
    } else if p <= 0.5 {
        let q = 1.0 - p;
        let mut prev = 0.0;
        for &fj in &f[..n] {
            let g = ((fj - prev * p) / q).clamp(0.0, 1.0);
            out.push(g);
            prev = g;
        }
    } else {
        out.resize(n, 0.0);
        let q = 1.0 - p;
        let mut next = 0.0;
        for j in (0..n).rev() {
            let g = ((f[j + 1] - next * q) / p).clamp(0.0, 1.0);
            out[j] = g;
            next = g;
        }
    }
}

/// Writes the first `out.len()` entries of [`deconvolve`]`(f, p)` into
/// `out`, with the same operations in the same order per entry. `top`
/// is the highest non-zero index of `f`; the backward recurrence starts
/// there (see [`IncrementalPoissonBinomial::excluding_prefix_into`]).
fn deconvolve_prefix(f: &[f64], top: usize, p: f64, out: &mut [f64]) {
    let n = f.len() - 1;
    let len = out.len();
    assert!(n >= 1, "cannot remove a trial from an empty accumulator");
    assert!(len <= n, "prefix of {len} entries from a {n}-entry pmf");
    if exact_zero(p) {
        out.copy_from_slice(&f[..len]);
    } else if exact_one(p) {
        out.copy_from_slice(&f[1..=len]);
    } else if p <= 0.5 {
        let q = 1.0 - p;
        let mut prev = 0.0;
        for (g, &fj) in out.iter_mut().zip(&f[..len]) {
            *g = ((fj - prev * p) / q).clamp(0.0, 1.0);
            prev = *g;
        }
    } else {
        let q = 1.0 - p;
        let mut next = 0.0;
        for j in (len..top).rev() {
            next = ((f[j + 1] - next * q) / p).clamp(0.0, 1.0);
        }
        let stored = len.min(top);
        out[stored..].fill(0.0);
        for j in (0..stored).rev() {
            next = ((f[j + 1] - next * q) / p).clamp(0.0, 1.0);
            out[j] = next;
        }
    }
}

/// Four backward prefix deconvolutions of the same pmf `f` in lockstep:
/// lane `l` divides by `lanes[l].0` (`> ½`, not 1) and writes its `len`
/// entries at `out[lanes[l].1..]`. Per lane, the operations are exactly
/// [`deconvolve_prefix`]'s backward branch; entries from `top` up are
/// the `+0.0` that `out` was filled with.
fn backward_prefix_lanes(
    f: &[f64],
    top: usize,
    lanes: [(f64, usize); 4],
    len: usize,
    out: &mut [f64],
) {
    let p = lanes.map(|(p, _)| p);
    let q = p.map(|p| 1.0 - p);
    let mut next = [0.0f64; 4];
    let step = |fj: f64, next: &mut [f64; 4]| {
        for l in 0..4 {
            next[l] = ((fj - next[l] * q[l]) / p[l]).clamp(0.0, 1.0);
        }
    };
    for j in (len..top).rev() {
        step(f[j + 1], &mut next);
    }
    for j in (0..len.min(top)).rev() {
        step(f[j + 1], &mut next);
        for (l, &(_, dst)) in lanes.iter().enumerate() {
            out[dst + j] = next[l];
        }
    }
}

/// `P(at most `limit` successes)` among trials with probabilities
/// `probs`, computed with a truncated DP in `O(n · limit)`.
///
/// Equivalent to `PoissonBinomial::new(probs).cdf(limit)` but avoids
/// materializing mass above `limit + 1` successes — the common case in
/// top-k membership queries where `limit = k − 1 ≪ n`. The DP state
/// lives on the stack for `limit ≤ 14` (every marginal and own-marginal
/// cell calls this once per support point) and on the heap above it;
/// both run the same operations.
pub fn at_most(probs: &[f64], limit: usize) -> f64 {
    let cap = limit.min(probs.len());
    if cap + 2 <= AT_MOST_STACK {
        let mut state = [0.0f64; AT_MOST_STACK];
        at_most_in(probs, &mut state[..cap + 2])
    } else {
        at_most_in(probs, &mut vec![0.0; cap + 2])
    }
}

/// Length of [`at_most`]'s stack state: `limit + 2` entries fit for
/// `limit ≤ 14`, which covers every `k ≤ 15`.
const AT_MOST_STACK: usize = 16;

/// [`at_most`]'s DP over a zeroed state of `cap + 2` entries:
/// `state[j] = P(exactly j successes so far)`, truncated at `cap + 1`
/// where the overflow bucket absorbs everything above the limit.
fn at_most_in(probs: &[f64], state: &mut [f64]) -> f64 {
    let cap = state.len() - 2;
    state[0] = 1.0;
    for &p in probs {
        if exact_zero(p) {
            continue;
        }
        for j in (0..=cap + 1).rev() {
            let from_below = if j > 0 { state[j - 1] * p } else { 0.0 };
            let stay = if j <= cap {
                state[j] * (1.0 - p)
            } else {
                state[j]
            };
            state[j] = stay + from_below;
        }
    }
    state[..=cap].iter().sum::<f64>().clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The heap-allocating `at_most` the stack-state version replaced,
    /// kept as a bitwise oracle.
    fn at_most_oracle(probs: &[f64], limit: usize) -> f64 {
        let cap = limit.min(probs.len());
        let mut state = vec![0.0f64; cap + 2];
        state[0] = 1.0;
        for &p in probs {
            if exact_zero(p) {
                continue;
            }
            for j in (0..=cap + 1).rev() {
                let from_below = if j > 0 { state[j - 1] * p } else { 0.0 };
                let stay = if j <= cap {
                    state[j] * (1.0 - p)
                } else {
                    state[j]
                };
                state[j] = stay + from_below;
            }
        }
        state[..=cap].iter().sum::<f64>().clamp(0.0, 1.0)
    }

    /// Brute-force oracle: enumerate all 2^n outcomes.
    fn brute_force_pmf(probs: &[f64]) -> Vec<f64> {
        let n = probs.len();
        let mut pmf = vec![0.0; n + 1];
        for mask in 0u32..(1 << n) {
            let mut p = 1.0;
            let mut successes = 0;
            for (i, &pi) in probs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= pi;
                    successes += 1;
                } else {
                    p *= 1.0 - pi;
                }
            }
            pmf[successes] += p;
        }
        pmf
    }

    #[test]
    fn matches_binomial_for_identical_probs() {
        // p = 0.5, n = 4 → binomial: 1/16, 4/16, 6/16, 4/16, 1/16.
        let pb = PoissonBinomial::new(&[0.5; 4]);
        let want = [1.0, 4.0, 6.0, 4.0, 1.0].map(|x| x / 16.0);
        for (j, &w) in want.iter().enumerate() {
            assert!((pb.pmf(j) - w).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn degenerate_probabilities() {
        let pb = PoissonBinomial::new(&[1.0, 0.0, 1.0]);
        assert_eq!(pb.pmf(2), 1.0);
        assert_eq!(pb.pmf(0), 0.0);
        assert_eq!(pb.cdf(1), 0.0);
        assert_eq!(pb.cdf(2), 1.0);
    }

    #[test]
    fn empty_trials() {
        let pb = PoissonBinomial::new(&[]);
        assert_eq!(pb.trials(), 0);
        assert_eq!(pb.pmf(0), 1.0);
        assert_eq!(pb.cdf(0), 1.0);
        assert_eq!(pb.mean(), 0.0);
    }

    #[test]
    fn mean_is_sum_of_probs() {
        let probs = [0.1, 0.9, 0.3, 0.5];
        let pb = PoissonBinomial::new(&probs);
        assert!((pb.mean() - probs.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn at_most_matches_full_cdf() {
        let probs = [0.12, 0.7, 0.33, 0.51, 0.08, 0.95];
        let pb = PoissonBinomial::new(&probs);
        for limit in 0..=probs.len() {
            let fast = at_most(&probs, limit);
            assert!(
                (fast - pb.cdf(limit)).abs() < 1e-12,
                "limit={limit}: {fast} vs {}",
                pb.cdf(limit)
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_probability() {
        PoissonBinomial::new(&[1.5]);
    }

    #[test]
    fn incremental_push_is_bitwise_identical_to_batch() {
        // `from_probs` folds trials in the same order with the same
        // arithmetic as the batch DP, so the pmfs are *equal*, not just
        // close.
        let probs = [0.12, 0.7, 0.33, 0.51, 0.08, 0.95, 0.0, 1.0];
        let inc = IncrementalPoissonBinomial::from_probs(&probs);
        let batch = PoissonBinomial::new(&probs);
        assert_eq!(inc.pmf_slice(), batch.pmf_slice());
        assert_eq!(inc.trials(), 8);
        assert!((inc.mean() - batch.mean()).abs() < 1e-15);
    }

    #[test]
    fn remove_inverts_push() {
        let base = [0.2, 0.5, 0.81, 0.4];
        for (idx, _) in base.iter().enumerate() {
            let mut inc = IncrementalPoissonBinomial::from_probs(&base);
            let removed = inc.remove(idx);
            assert_eq!(removed, base[idx]);
            let mut rest = base.to_vec();
            rest.remove(idx);
            let want = PoissonBinomial::new(&rest);
            for j in 0..=rest.len() {
                assert!(
                    (inc.pmf(j) - want.pmf(j)).abs() < 1e-12,
                    "idx={idx} j={j}: {} vs {}",
                    inc.pmf(j),
                    want.pmf(j)
                );
            }
        }
    }

    #[test]
    fn remove_handles_degenerate_trials() {
        // p = 0 and p = 1 take the exact shift paths.
        let mut inc = IncrementalPoissonBinomial::from_probs(&[0.0, 1.0, 0.6]);
        assert_eq!(inc.remove(1), 1.0);
        assert_eq!(inc.remove(0), 0.0);
        let want = PoissonBinomial::new(&[0.6]);
        for j in 0..=1 {
            assert!((inc.pmf(j) - want.pmf(j)).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_replaces_one_trial() {
        let mut inc = IncrementalPoissonBinomial::from_probs(&[0.2, 0.9, 0.4]);
        let old = inc.swap(1, 0.05);
        assert_eq!(old, 0.9);
        assert_eq!(inc.probs(), &[0.2, 0.05, 0.4]);
        let want = PoissonBinomial::new(&[0.2, 0.05, 0.4]);
        for j in 0..=3 {
            assert!((inc.pmf(j) - want.pmf(j)).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn excluding_into_leaves_accumulator_untouched() {
        let probs = [0.3, 0.7, 0.55];
        let inc = IncrementalPoissonBinomial::from_probs(&probs);
        let snapshot = inc.clone();
        let mut buf = Vec::new();
        inc.excluding_into(2, &mut buf);
        assert_eq!(inc, snapshot);
        let want = PoissonBinomial::new(&[0.3, 0.7]);
        assert_eq!(buf.len(), 3);
        for (j, &g) in buf.iter().enumerate() {
            assert!((g - want.pmf(j)).abs() < 1e-12, "j={j}");
        }
    }

    /// Trial probabilities for the leave-one-out prefix properties: the
    /// deconvolution's branch edges (0, 1, ½, the next float above ½,
    /// 1 − 1e-12, 1e-300) about half the time, uniform draws otherwise.
    fn arb_edge_probs(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0u8..12, 0.0f64..=1.0), 1..max_len).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(sel, p)| match sel {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 0.5,
                    3 => f64::from_bits(0.5f64.to_bits() + 1),
                    4 => 1.0 - 1e-12,
                    5 => 1e-300,
                    _ => p,
                })
                .collect()
        })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn prefix_backward_start_skips_zero_tail() {
        // Six certain-miss trials leave a +0.0 tail above two live
        // ones; removing the p > ½ trial starts below that tail.
        let inc = IncrementalPoissonBinomial::from_probs(&[0.9, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(inc.top(), 2);
        let mut full = Vec::new();
        inc.excluding_into(0, &mut full);
        for len in 0..=8 {
            let mut prefix = Vec::new();
            inc.excluding_prefix_into(0, len, &mut prefix);
            assert_eq!(bits(&prefix), bits(&full[..len]), "len={len}");
        }
    }

    proptest! {
        #[test]
        fn prop_push_shortcuts_match_the_fold(probs in arb_edge_probs(24)) {
            // `PoissonBinomial::new` always runs the full fold.
            let inc = IncrementalPoissonBinomial::from_probs(&probs);
            let batch = PoissonBinomial::new(&probs);
            prop_assert_eq!(bits(inc.pmf_slice()), bits(batch.pmf_slice()));
        }

        #[test]
        fn prop_excluding_prefix_is_bitwise_prefix(
            probs in arb_edge_probs(24),
            idx_seed in 0usize..64,
            len_seed in 0usize..64
        ) {
            let idx = idx_seed % probs.len();
            let len = len_seed % (probs.len() + 1);
            let inc = IncrementalPoissonBinomial::from_probs(&probs);
            let mut full = Vec::new();
            inc.excluding_into(idx, &mut full);
            let mut prefix = Vec::new();
            inc.excluding_prefix_into(idx, len, &mut prefix);
            prop_assert_eq!(
                bits(&prefix),
                bits(&full[..len]),
                "p={} len={} probs={:?}", probs[idx], len, probs
            );
        }

        #[test]
        fn prop_excluding_prefixes_match_single_queries(
            probs in arb_edge_probs(24),
            picks in proptest::collection::vec(0usize..64, 0..12),
            len_seed in 0usize..64
        ) {
            let len = len_seed % (probs.len() + 1);
            let indices: Vec<usize> = picks.iter().map(|&x| x % probs.len()).collect();
            let inc = IncrementalPoissonBinomial::from_probs(&probs);
            let mut all = Vec::new();
            inc.excluding_prefixes_into(&indices, len, &mut all);
            let mut want = Vec::new();
            let mut one = Vec::new();
            for &idx in &indices {
                inc.excluding_prefix_into(idx, len, &mut one);
                want.extend_from_slice(&one);
            }
            prop_assert_eq!(bits(&all), bits(&want), "indices={:?} len={}", indices, len);
        }

        #[test]
        fn prop_at_most_is_bitwise_oracle(
            draws in proptest::collection::vec((0u8..8, 0.0f64..=1.0), 0..40),
            limit in 0usize..24
        ) {
            // p ∈ {0, 1, ½, 1 − 1e-12} half the time, uniform otherwise;
            // limits on both sides of the stack state's capacity.
            let probs: Vec<f64> = draws
                .into_iter()
                .map(|(sel, p)| match sel {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 0.5,
                    3 => 1.0 - 1e-12,
                    _ => p,
                })
                .collect();
            let got = at_most(&probs, limit);
            let want = at_most_oracle(&probs, limit);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "limit={} probs={:?}", limit, probs);
        }

        #[test]
        fn prop_dp_matches_brute_force(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..10)
        ) {
            let pb = PoissonBinomial::new(&probs);
            let oracle = brute_force_pmf(&probs);
            for (j, &w) in oracle.iter().enumerate() {
                prop_assert!((pb.pmf(j) - w).abs() < 1e-9, "j={}, got {}, want {}", j, pb.pmf(j), w);
            }
        }

        #[test]
        fn prop_pmf_sums_to_one(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..25)
        ) {
            let pb = PoissonBinomial::new(&probs);
            let total: f64 = pb.pmf_slice().iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_truncated_matches_full(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..25),
            limit in 0usize..30
        ) {
            let pb = PoissonBinomial::new(&probs);
            prop_assert!((at_most(&probs, limit) - pb.cdf(limit)).abs() < 1e-9);
        }

        #[test]
        fn prop_incremental_ops_match_from_scratch(
            // Each op: (selector, raw probability, index seed). The raw
            // probability is widened past [0, 1] and clamped so the
            // degenerate p ∈ {0, 1} trials get real coverage.
            ops in proptest::collection::vec(
                (0u8..6, -0.25f64..1.25, 0usize..64),
                1..14
            )
        ) {
            let mut inc = IncrementalPoissonBinomial::new();
            let mut shadow: Vec<f64> = Vec::new();
            for (sel, raw, idx_seed) in ops {
                let p = raw.clamp(0.0, 1.0);
                // Bias toward push (4/6) so sequences actually grow.
                match sel {
                    4 if !shadow.is_empty() => {
                        let idx = idx_seed % shadow.len();
                        let removed = inc.remove(idx);
                        prop_assert_eq!(removed, shadow.remove(idx));
                    }
                    5 if !shadow.is_empty() => {
                        let idx = idx_seed % shadow.len();
                        let old = inc.swap(idx, p);
                        prop_assert_eq!(old, shadow[idx]);
                        shadow[idx] = p;
                    }
                    _ => {
                        inc.push(p);
                        shadow.push(p);
                    }
                }
                let scratch = PoissonBinomial::new(&shadow);
                prop_assert_eq!(inc.trials(), shadow.len());
                for j in 0..=shadow.len() {
                    prop_assert!(
                        (inc.pmf(j) - scratch.pmf(j)).abs() < 1e-12,
                        "j={}: incremental {} vs scratch {} (trials {:?})",
                        j, inc.pmf(j), scratch.pmf(j), shadow
                    );
                }
            }
        }

        #[test]
        fn prop_excluding_matches_removed_rebuild(
            probs in proptest::collection::vec(0.0f64..=1.0, 1..20),
            idx_seed in 0usize..64
        ) {
            let idx = idx_seed % probs.len();
            let inc = IncrementalPoissonBinomial::from_probs(&probs);
            let mut buf = Vec::new();
            inc.excluding_into(idx, &mut buf);
            let mut rest = probs.clone();
            rest.remove(idx);
            let want = PoissonBinomial::new(&rest);
            prop_assert_eq!(buf.len(), probs.len());
            for (j, &g) in buf.iter().enumerate() {
                prop_assert!((g - want.pmf(j)).abs() < 1e-12, "j={}", j);
            }
        }

        #[test]
        fn prop_cdf_monotone(
            probs in proptest::collection::vec(0.0f64..=1.0, 1..20)
        ) {
            let pb = PoissonBinomial::new(&probs);
            let mut prev = 0.0;
            for j in 0..=probs.len() {
                let c = pb.cdf(j);
                prop_assert!(c + 1e-12 >= prev);
                prev = c;
            }
        }
    }
}
