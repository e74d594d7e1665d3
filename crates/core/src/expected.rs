//! Exact expected correctness over relevancy distributions
//! (paper Section 5.1, Eqs. 5 and 6).
//!
//! Databases' RDs are independent discrete distributions. Under the
//! library's deterministic tie-break (equal relevancies rank the lower
//! index first — see DESIGN.md) the realized relevancies always induce a
//! *total* order, so "the top-k set" is well-defined in every outcome
//! and both expectations below are exact, not approximations:
//!
//! * **`E[Cor_p(DBk)]`** (Eq. 6) decomposes into per-database marginal
//!   top-k membership probabilities: database `i` is in the true top-k
//!   iff at most `k − 1` other databases beat it. With independent RDs
//!   the count of beating databases is Poisson-binomial — computed
//!   exactly by [`mp_stats::poisson_binomial::at_most`].
//! * **`E[Cor_a(DBk)]`** (Eq. 5) is the probability that *every*
//!   selected database beats *every* unselected one, i.e. that the
//!   selected set's minimum beats the complement's maximum. We partition
//!   on which complement database attains the maximum and at which of
//!   its support values — a finite, exact sum.
//!
//! A seeded Monte-Carlo estimator ([`monte_carlo_expected`]) serves as
//! an independent oracle in tests.

use crate::correctness::{golden_topk, CorrectnessMetric};
use crate::engine::BeatTable;
use mp_stats::float::{canonical, exact_zero};
use mp_stats::poisson_binomial::at_most;
use mp_stats::Discrete;
use rand::Rng;

/// The per-query probabilistic state: one RD per database, with probed
/// databases collapsed to impulses (paper Figure 10's two groups).
///
/// An `APro` run that may probe also keeps the state's [`BeatTable`]
/// here, so the re-selection and the greedy scan read one matrix of beat
/// probabilities that each probe updates in place.
#[derive(Debug, Clone)]
pub struct RdState {
    rds: Vec<Discrete>,
    probed: Vec<bool>,
    beats: Option<BeatTable>,
}

impl RdState {
    /// Builds the state from initial (unprobed) RDs.
    pub fn new(rds: Vec<Discrete>) -> Self {
        assert!(!rds.is_empty(), "need at least one database");
        let support = mp_obs::histogram!("rd.support_size", mp_obs::bounds::POW2);
        for rd in &rds {
            support.record(u64::try_from(rd.points().len()).unwrap_or(u64::MAX));
        }
        let probed = vec![false; rds.len()];
        Self {
            rds,
            probed,
            beats: None,
        }
    }

    /// Builds the state's [`BeatTable`] unless it has one; every later
    /// [`Self::probe`] keeps it current.
    pub(crate) fn build_beats(&mut self) {
        if self.beats.is_none() {
            self.beats = Some(BeatTable::build(&self.rds));
        }
    }

    /// The state's [`BeatTable`], if it keeps one.
    pub(crate) fn beats(&self) -> Option<&BeatTable> {
        self.beats.as_ref()
    }

    /// Every database's marginal top-k probability read off the state's
    /// [`BeatTable`] (bit-identical to [`marginal_topk_prob`]), or `None`
    /// when the state keeps no table.
    pub(crate) fn table_marginals(&mut self, k: usize) -> Option<Vec<f64>> {
        let table = self.beats.as_mut()?;
        Some(table.marginals(&self.rds, k))
    }

    /// A copy without the [`BeatTable`] — for what-if states that are
    /// probed and thrown away, where keeping the table current would
    /// cost more than it saves.
    pub(crate) fn without_beats(&self) -> Self {
        Self {
            rds: self.rds.clone(),
            probed: self.probed.clone(),
            beats: None,
        }
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.rds.len()
    }

    /// Always false (constructor rejects empty input).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current RDs.
    pub fn rds(&self) -> &[Discrete] {
        &self.rds
    }

    /// Whether database `i` has been probed.
    pub fn is_probed(&self, i: usize) -> bool {
        self.probed[i]
    }

    /// Indices of databases not yet probed.
    pub fn unprobed(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.probed[i]).collect()
    }

    /// Number of probed databases.
    pub fn n_probed(&self) -> usize {
        self.probed.iter().filter(|&&p| p).count()
    }

    /// Records a probe outcome: database `i`'s RD becomes an impulse at
    /// the observed actual relevancy (paper Section 3.4, Figure 5(e)).
    ///
    /// Input policy (deliberately `Result`-free): every probe outcome in
    /// the library flows from a [`crate::relevancy::RelevancyDef`]
    /// measurement, which is finite and non-negative by construction, so
    /// a `Result` here would force error plumbing through `APro`, every
    /// probing policy, and the experiment harness for a state that
    /// cannot arise from correct callers. Instead:
    ///
    /// * **Negative values** are clamped to `0.0` — relevancy is a count
    ///   (documents matched / top-n sum), so a caller-fabricated
    ///   negative means "nothing matched", and clamping keeps every
    ///   downstream expectation a probability.
    /// * **NaN** is a programming error, not a data condition: it is
    ///   rejected by a debug assertion, and release builds degrade it to
    ///   the same `0.0` floor rather than silently poisoning every
    ///   subsequent `E[Cor]` comparison (NaN breaks the total rank
    ///   order).
    pub fn probe(&mut self, i: usize, actual: f64) {
        debug_assert!(
            !actual.is_nan(),
            "probe outcome for database {i} is NaN; relevancies are finite by construction"
        );
        // `canonical` folds a caller-supplied `-0.0` to `+0.0`:
        // `f64::max` leaves the sign of a zero result unspecified, and a
        // negative zero in an RD support would make the serialized state
        // and the rank order's `total_cmp` tie-breaking platform-dependent.
        let floored = if actual.is_nan() {
            0.0
        } else {
            canonical(actual.max(0.0))
        };
        self.rds[i] = Discrete::impulse(floored);
        self.probed[i] = true;
        if let Some(table) = &mut self.beats {
            table.update(&self.rds, i);
        }
    }

    /// A copy of the state with database `i` hypothetically probed at
    /// `value` — the what-if primitive the greedy policy evaluates.
    pub fn with_hypothetical(&self, i: usize, value: f64) -> Self {
        let mut c = self.without_beats();
        c.probe(i, value);
        c
    }
}

/// P(database `j`'s relevancy beats the fixed outcome `(v, i)`) under
/// the library-wide rank order ([`crate::correctness::rank_order`]):
/// `j` beats `(v, i)` at value `u` iff `(j, u)` ranks ahead of `(v, i)`,
/// i.e. `u > v`, or `u = v` and `j < i`. Shared by the exact formulas
/// here and by the probing engine's leave-one-out patches, so every
/// consumer breaks ties identically to [`crate::correctness::golden_topk`].
pub(crate) fn prob_beats(rds: &[Discrete], j: usize, v: f64, i: usize) -> f64 {
    debug_assert_ne!(j, i);
    use std::cmp::Ordering;
    let d = &rds[j];
    // A tie at `v` counts as a win for `j` exactly when the rank order
    // places `(j, v)` ahead of `(i, v)`.
    if crate::correctness::rank_order(j, v, i, v) == Ordering::Less {
        (d.prob_gt(v) + d.prob_eq(v)).min(1.0)
    } else {
        d.prob_gt(v)
    }
}

/// Exact `P(database i ∈ true top-k)`.
///
/// Decomposition over `i`'s support: `i` is in the top-k at outcome `v`
/// iff at most `k − 1` of the other databases beat `(v, i)`; with
/// independent RDs the beat-count is Poisson-binomial.
pub fn marginal_topk_prob(rds: &[Discrete], i: usize, k: usize) -> f64 {
    assert!(i < rds.len(), "database index out of range");
    assert!(k >= 1 && k <= rds.len(), "k out of range");
    let mut total = 0.0;
    let mut beat_probs = Vec::with_capacity(rds.len() - 1);
    for &(v, p) in rds[i].points() {
        beat_probs.clear();
        for j in 0..rds.len() {
            if j != i {
                beat_probs.push(prob_beats(rds, j, v, i));
            }
        }
        total += p * at_most(&beat_probs, k - 1);
    }
    total.clamp(0.0, 1.0)
}

/// Exact expected partial correctness `E[Cor_p(set)]` (Eq. 6):
/// the mean of the member databases' marginal top-k probabilities, with
/// `k = set.len()`.
pub fn expected_partial(rds: &[Discrete], set: &[usize]) -> f64 {
    assert!(!set.is_empty(), "selection must be non-empty");
    let k = set.len();
    let sum: f64 = set.iter().map(|&i| marginal_topk_prob(rds, i, k)).sum();
    (sum / k as f64).clamp(0.0, 1.0)
}

/// Exact expected absolute correctness `E[Cor_a(set)]` (Eq. 5):
/// `P(set is exactly the true top-k)` = `P(min over set beats max over
/// complement)`.
///
/// Partition on the complement database `j` attaining the complement's
/// maximum and its value `v`: every other complement database must fail
/// to beat `(v, j)` and every selected database must beat `(v, j)`.
pub fn expected_absolute(rds: &[Discrete], set: &[usize]) -> f64 {
    assert!(!set.is_empty(), "selection must be non-empty");
    let in_set = {
        let mut m = vec![false; rds.len()];
        for &i in set {
            assert!(i < rds.len(), "database index out of range");
            assert!(!m[i], "duplicate database in selection");
            m[i] = true;
        }
        m
    };
    let complement: Vec<usize> = (0..rds.len()).filter(|&j| !in_set[j]).collect();
    if complement.is_empty() {
        return 1.0; // selecting everything is vacuously the top-n
    }
    let mut total = 0.0;
    for &j in &complement {
        for &(v, pj) in rds[j].points() {
            // P(j attains the complement max at value v):
            let mut p = pj;
            for &j2 in &complement {
                if j2 != j {
                    p *= 1.0 - prob_beats(rds, j2, v, j);
                }
                if exact_zero(p) {
                    break;
                }
            }
            if exact_zero(p) {
                continue;
            }
            // Every selected database must beat (v, j).
            for &i in set {
                p *= prob_beats(rds, i, v, j);
                if exact_zero(p) {
                    break;
                }
            }
            total += p;
        }
    }
    total.clamp(0.0, 1.0)
}

/// Expected correctness under either metric.
pub fn expected_correctness(rds: &[Discrete], set: &[usize], metric: CorrectnessMetric) -> f64 {
    match metric {
        CorrectnessMetric::Absolute => expected_absolute(rds, set),
        CorrectnessMetric::Partial => expected_partial(rds, set),
    }
}

/// Monte-Carlo estimate of the expected correctness — the independent
/// oracle the exact formulas are validated against. Samples each RD,
/// derives the realized top-k under the same tie-break, and scores the
/// candidate set.
pub fn monte_carlo_expected<R: Rng + ?Sized>(
    rds: &[Discrete],
    set: &[usize],
    metric: CorrectnessMetric,
    samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0);
    let k = set.len();
    let mut acc = 0.0;
    let mut realized = vec![0.0; rds.len()];
    for _ in 0..samples {
        for (i, rd) in rds.iter().enumerate() {
            realized[i] = rd.sample(rng);
        }
        let golden = golden_topk(&realized, k);
        acc += metric.score(set, &golden);
    }
    acc / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    /// The paper's Example 4 RDs (Figure 5(d)), reconstructed from the
    /// Example 3 derivation: db1 ~ {50: .4, 100: .5, 150: .1},
    /// db2 ~ {65: .1, 130: .9}.
    fn paper_rds() -> Vec<Discrete> {
        vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
        ]
    }

    #[test]
    fn paper_example4_db2_certainty() {
        // The paper concludes db2 is the most relevant with probability
        // 0.85: r2=130 beats r1 ∈ {50, 100} (.9 × .9 = .81) plus r2=65
        // beats r1 = 50 (.1 × .4 = .04).
        let rds = paper_rds();
        let e = expected_absolute(&rds, &[1]);
        assert!((e - 0.85).abs() < 1e-12, "E[Cor(db2)] = {e}");
        // And db1's certainty is the complement.
        let e1 = expected_absolute(&rds, &[0]);
        assert!((e1 - 0.15).abs() < 1e-12, "E[Cor(db1)] = {e1}");
    }

    #[test]
    fn paper_section34_post_probe_certainty() {
        // Figure 5(e): probing db1 yields relevancy 50; db2 is then
        // always more relevant, so the certainty of returning db2 is 1.
        let mut state = RdState::new(paper_rds());
        state.probe(0, 50.0);
        assert!(state.is_probed(0));
        assert_eq!(expected_absolute(state.rds(), &[1]), 1.0);
        assert_eq!(expected_absolute(state.rds(), &[0]), 0.0);
    }

    #[test]
    fn k1_absolute_equals_partial() {
        let rds = paper_rds();
        for i in 0..2 {
            let a = expected_absolute(&rds, &[i]);
            let p = expected_partial(&rds, &[i]);
            assert!((a - p).abs() < 1e-12, "db{i}: {a} vs {p}");
        }
    }

    #[test]
    fn marginals_sum_to_k() {
        // Σ_i P(i ∈ top-k) = k (exactly k databases are in the top-k in
        // every outcome).
        let rds = vec![
            d(&[(10.0, 0.5), (30.0, 0.5)]),
            d(&[(20.0, 1.0)]),
            d(&[(5.0, 0.3), (25.0, 0.7)]),
            d(&[(15.0, 0.2), (18.0, 0.8)]),
        ];
        for k in 1..=4usize {
            let sum: f64 = (0..4).map(|i| marginal_topk_prob(&rds, i, k)).sum();
            assert!((sum - k as f64).abs() < 1e-9, "k={k}: {sum}");
        }
    }

    #[test]
    fn tie_break_prefers_lower_index() {
        // Both databases always have relevancy 7; db0 wins the tie.
        let rds = vec![d(&[(7.0, 1.0)]), d(&[(7.0, 1.0)])];
        assert_eq!(expected_absolute(&rds, &[0]), 1.0);
        assert_eq!(expected_absolute(&rds, &[1]), 0.0);
        assert_eq!(marginal_topk_prob(&rds, 0, 1), 1.0);
        assert_eq!(marginal_topk_prob(&rds, 1, 1), 0.0);
    }

    #[test]
    fn all_probed_implies_certainty_one() {
        let mut state = RdState::new(vec![
            d(&[(1.0, 0.5), (9.0, 0.5)]),
            d(&[(4.0, 1.0)]),
            d(&[(2.0, 0.9), (6.0, 0.1)]),
        ]);
        state.probe(0, 9.0);
        state.probe(1, 4.0);
        state.probe(2, 6.0);
        // Realized order: db0 (9) > db2 (6) > db1 (4).
        assert_eq!(expected_absolute(state.rds(), &[0, 2]), 1.0);
        assert_eq!(expected_partial(state.rds(), &[0, 2]), 1.0);
        assert_eq!(expected_absolute(state.rds(), &[0, 1]), 0.0);
        assert!((expected_partial(state.rds(), &[0, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn selecting_everything_is_certain() {
        let rds = paper_rds();
        assert_eq!(expected_absolute(&rds, &[0, 1]), 1.0);
        assert!((expected_partial(&rds, &[0, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_floors_negative_outcomes_at_zero() {
        // The documented clamp policy: a (caller-fabricated) negative
        // relevancy means "nothing matched" and lands at exactly 0.
        let mut state = RdState::new(paper_rds());
        state.probe(0, -3.5);
        assert!(state.rds()[0].is_impulse());
        assert_eq!(state.rds()[0].mean(), 0.0);
        // -0.0 normalizes to the same impulse — *bit-identically* (the
        // regression this pins: `f64::max` may preserve the sign of a
        // zero, which would leak into serialized RDs and tie-breaking).
        let mut state = RdState::new(paper_rds());
        state.probe(0, -0.0);
        assert_eq!(state.rds()[0].mean(), 0.0);
        assert_eq!(state.rds()[0].points()[0].0.to_bits(), 0.0f64.to_bits());
        let mut state = RdState::new(paper_rds());
        state.probe(1, 0.0);
        assert_eq!(state.rds()[1].mean(), 0.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN"))]
    fn probe_rejects_nan_in_debug() {
        let mut state = RdState::new(paper_rds());
        state.probe(0, f64::NAN);
        // Release builds degrade NaN to the 0.0 floor instead.
        assert_eq!(state.rds()[0].mean(), 0.0);
    }

    #[test]
    fn hypothetical_probe_does_not_mutate() {
        let state = RdState::new(paper_rds());
        let hyp = state.with_hypothetical(0, 150.0);
        assert!(!state.is_probed(0));
        assert!(hyp.is_probed(0));
        assert_eq!(state.unprobed(), vec![0, 1]);
        assert_eq!(hyp.unprobed(), vec![1]);
        assert_eq!(hyp.n_probed(), 1);
    }

    #[test]
    fn exact_matches_monte_carlo_on_paper_example() {
        let rds = paper_rds();
        let mut rng = StdRng::seed_from_u64(42);
        let mc = monte_carlo_expected(&rds, &[1], CorrectnessMetric::Absolute, 200_000, &mut rng);
        assert!((mc - 0.85).abs() < 0.01, "mc={mc}");
    }

    /// Random small RD fixtures for property tests.
    fn arb_rds() -> impl Strategy<Value = Vec<Discrete>> {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..50.0, 0.05f64..1.0), 1..4),
            2..5,
        )
        .prop_map(|dbs| {
            dbs.into_iter()
                .map(|pts| Discrete::from_weighted(&pts).unwrap())
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prop_exact_absolute_matches_monte_carlo(
            rds in arb_rds(),
            k_raw in 1usize..3,
            seed in 0u64..1000
        ) {
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (0..k).collect();
            let exact = expected_absolute(&rds, &set);
            let mut rng = StdRng::seed_from_u64(seed);
            let mc = monte_carlo_expected(&rds, &set, CorrectnessMetric::Absolute, 20_000, &mut rng);
            prop_assert!((exact - mc).abs() < 0.02, "exact={}, mc={}", exact, mc);
        }

        #[test]
        fn prop_exact_partial_matches_monte_carlo(
            rds in arb_rds(),
            k_raw in 1usize..3,
            seed in 0u64..1000
        ) {
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (rds.len() - k..rds.len()).collect();
            let exact = expected_partial(&rds, &set);
            let mut rng = StdRng::seed_from_u64(seed);
            let mc = monte_carlo_expected(&rds, &set, CorrectnessMetric::Partial, 20_000, &mut rng);
            prop_assert!((exact - mc).abs() < 0.02, "exact={}, mc={}", exact, mc);
        }

        #[test]
        fn prop_tie_break_exact_matches_monte_carlo(
            // Integer-valued supports on a 4-value grid, so cross-database
            // value ties occur in most sampled outcomes: this pins the
            // shared `rank_order` tie-break ("equal value → lower index
            // wins") used by both the exact formulas and `golden_topk`
            // inside the Monte-Carlo oracle.
            grids in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0.05f64..1.0), 1..4),
                2..5
            ),
            k_raw in 1usize..3,
            seed in 0u64..1000
        ) {
            let rds: Vec<Discrete> = grids
                .into_iter()
                .map(|pts| {
                    let pts: Vec<(f64, f64)> =
                        pts.into_iter().map(|(v, p)| (v as f64, p)).collect();
                    Discrete::from_weighted(&pts).unwrap()
                })
                .collect();
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (0..k).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
                let exact = expected_correctness(&rds, &set, metric);
                let mc = monte_carlo_expected(&rds, &set, metric, 20_000, &mut rng);
                prop_assert!(
                    (exact - mc).abs() < 0.02,
                    "{:?}: exact={}, mc={}", metric, exact, mc
                );
            }
        }

        #[test]
        fn prop_absolute_at_most_partial(rds in arb_rds(), k_raw in 1usize..4) {
            // Being exactly right implies every member is right, so
            // E[Cor_a] <= E[Cor_p] always.
            let k = k_raw.min(rds.len());
            let set: Vec<usize> = (0..k).collect();
            let a = expected_absolute(&rds, &set);
            let p = expected_partial(&rds, &set);
            prop_assert!(a <= p + 1e-9, "a={} p={}", a, p);
        }

        #[test]
        fn prop_marginals_sum_to_k(rds in arb_rds(), k_raw in 1usize..5) {
            let k = k_raw.min(rds.len());
            let sum: f64 = (0..rds.len()).map(|i| marginal_topk_prob(&rds, i, k)).sum();
            prop_assert!((sum - k as f64).abs() < 1e-6, "sum={}", sum);
        }

        #[test]
        fn prop_probing_yields_impulse(rds in arb_rds(), value in 0.0f64..100.0) {
            let mut state = RdState::new(rds);
            state.probe(0, value);
            prop_assert!(state.rds()[0].is_impulse());
            prop_assert_eq!(state.rds()[0].mean(), value);
        }
    }
}
