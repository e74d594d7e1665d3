//! The incremental greedy-probing evaluation engine.
//!
//! `GreedyPolicy::select_db` must score every unprobed candidate `h` by
//! its expected usefulness — the expectation over `h`'s RD of the
//! post-probe best-set score. The naive evaluation re-derives every
//! database's marginal top-k probability from scratch for every
//! `(candidate, outcome)` pair: `O(n³ · s̄² · k)` per selection step
//! (`n` databases, `s̄` mean RD support size).
//!
//! The engine exploits the structure of a hypothetical probe: impulsing
//! database `h` at outcome `w` changes exactly **one** Bernoulli trial in
//! every other database's "how many rivals beat me" Poisson-binomial —
//! `h`'s beat-probability becomes 0 or 1. So per base state we build,
//! once, an [`IncrementalPoissonBinomial`] over the beat-probabilities of
//! each `(database, support point)` pair; *removing* `h`'s trial (a stable
//! deconvolution) leaves the rivals other than `h`, and per outcome the
//! patched membership probability is a prefix-CDF read:
//!
//! ```text
//! P(i in top-k | r_h = w) = P(≤ k−1 beat)            if h loses to (v, i)
//!                         = P(≤ k−2 beat)            if h beats (v, i)
//! ```
//!
//! **The point-major pass.** The scan walks the `(database i, support
//! point v)` pairs once and serves every candidate `h ≠ i` at each:
//! [`IncrementalPoissonBinomial::excluding_prefixes_into`] yields, for
//! all candidates together, only the `k` leave-one-out pmf terms the
//! score reads, and each of `h`'s outcomes adds `p_v · P(≤ k−1)` or
//! `p_v · P(≤ k−2)` to its cell `(h, w, i)` in one flat buffer per scan.
//! Per point and candidate a deconvolution with `p ≤ ½` stops after `k`
//! forward steps, `p ∈ {0, 1}` is a copy, and `p > ½` runs backward from
//! the pmf's highest non-zero entry, four candidates at a time in
//! `[f64; 4]` lanes so four independent divide chains overlap. The order
//! stays `O(n³ · s̄)` per selection step (`s̄ · k` less than the naive
//! evaluation); on the paper's 20-database testbed a scan went from
//! about 800 µs as a sequential per-candidate loop to about 320 µs
//! (interleaved runs, 2 vCPU Xeon).
//! Fleets of [`FANOUT_MIN`] databases or more fan the columns (one per
//! database `i`) out across cores; smaller ones run on the calling
//! thread.
//!
//! **Bit identity.** Every usefulness value is the same `f64` the
//! per-candidate kernel produced (a test-only oracle pins it by
//! `to_bits`): each leave-one-out term comes from the same operations
//! (the prefix and lane variants only skip terms the score never reads
//! and steps whose result is the `+0.0` they start from), each cell sums
//! its `p_v · P(…)` terms over `i`'s points in the same order, and the
//! reduction per candidate is unchanged. Fanned-out columns are filled
//! by the same function as sequential ones.
//!
//! The fast path is exact for the **partial** metric at any `k` and the
//! **absolute** metric at `k = 1` (where the quick score is the marginal
//! max). For absolute `k > 1` the quick score is a genuine `E[Cor_a]` of
//! the marginal-ranked set, which does not decompose per database; those
//! calls keep the reference evaluation per candidate, fanned out across
//! cores from two candidates (each costs about a millisecond on the
//! 20-database testbed, far more than a thread spawn).

use crate::correctness::{rank_order, CorrectnessMetric};
use crate::expected::{prob_beats, RdState};
use crate::par::{par_map_indexed, FANOUT_MIN};
use crate::selection::best_set_score_quick;
use mp_stats::poisson_binomial::{at_most, IncrementalPoissonBinomial};
use mp_stats::Discrete;
use std::cell::Cell;
use std::cmp::Ordering;

/// Per-state precomputation shared (read-only) by the whole scan: for
/// every `(database, support point)` pair, the Poisson-binomial over the
/// base-state beat-probabilities of all rivals (trials ordered by rival
/// index, skipping the owner). Rebuilt per scan into storage kept from
/// the previous one: on the 20-database testbed the build took about
/// 82 µs into kept storage and 97 µs into fresh, preallocated storage
/// (interleaved runs, 2 vCPU Xeon).
#[derive(Default)]
struct BaseDp {
    /// `starts[i]..starts[i + 1]` — database `i`'s points.
    starts: Vec<usize>,
    /// `(value, mass)` of every support point, database-major.
    points: Vec<(f64, f64)>,
    /// Beat-count distribution of each point's `n − 1` rivals; entries
    /// past `points.len()` are spare storage.
    dps: Vec<IncrementalPoissonBinomial>,
}

thread_local! {
    /// The calling thread's [`BaseDp`] storage, taken for a scan and put
    /// back after it (a re-entrant call would just start empty).
    static BASE_DP: Cell<BaseDp> = Cell::new(BaseDp::default());
}

/// A thread keeps its [`BaseDp`] storage only after scans whose pmfs
/// hold at most this many entries (support points × databases; 0.5 MB
/// of pmf and trial storage at the limit). Larger fleets build into
/// fresh storage that is freed after the scan, so a long-lived thread
/// never holds a large fleet's `O(n² · s̄)` pmfs; there the `O(n³ · s̄)`
/// scan dwarfs the allocations anyway.
const KEEP_ENTRIES_MAX: usize = 1 << 15;

impl BaseDp {
    fn build(&mut self, rds: &[Discrete]) {
        self.starts.clear();
        self.points.clear();
        for (i, rd) in rds.iter().enumerate() {
            self.starts.push(self.points.len());
            for &(v, p) in rd.points() {
                let x = self.points.len();
                self.points.push((v, p));
                if x == self.dps.len() {
                    self.dps.push(IncrementalPoissonBinomial::new());
                }
                let dp = &mut self.dps[x];
                dp.clear();
                for j in (0..rds.len()).filter(|&j| j != i) {
                    dp.push(prob_beats(rds, j, v, i));
                }
                dp.debug_assert_normalized();
            }
        }
        self.starts.push(self.points.len());
    }
}

/// Whether the incremental fast path computes the exact quick score for
/// this `(k, metric)` combination.
fn fast_path_applies(k: usize, metric: CorrectnessMetric) -> bool {
    metric == CorrectnessMetric::Partial || k == 1
}

/// The usefulness of every unprobed candidate, in ascending index order —
/// the whole per-candidate scan of one `select_db` step. Values match
/// [`crate::probing::GreedyPolicy::usefulness`] within floating-point
/// reassociation noise (≪ 1e-12 at testbed sizes). Fleets below
/// [`FANOUT_MIN`] databases are scanned on the calling thread.
pub fn usefulness_all(state: &RdState, k: usize, metric: CorrectnessMetric) -> Vec<(usize, f64)> {
    let _span = mp_obs::span!("engine.usefulness_all");
    let candidates = state.unprobed();
    if candidates.is_empty() {
        return Vec::new();
    }
    mp_obs::histogram!("engine.candidates", mp_obs::bounds::POW2)
        .record(u64::try_from(candidates.len()).unwrap_or(u64::MAX));
    if !fast_path_applies(k, metric) {
        // Reference evaluation per candidate (absolute, k > 1), fanned
        // out from two candidates: each costs about a millisecond on the
        // 20-database testbed, which pays for the thread spawns.
        let _ref_span = mp_obs::span!("engine.reference");
        mp_obs::counter!("engine.reference_fallbacks").incr();
        return par_map_indexed(candidates.len(), 2, |c| {
            let h = candidates[c];
            (h, naive_usefulness(state, h, k, metric))
        });
    }
    let rds = state.rds();
    let mut base = BASE_DP.with(Cell::take);
    {
        let _dp_span = mp_obs::span!("engine.base_dp");
        base.build(rds);
    }
    let _scan_span = mp_obs::span!("engine.scan");
    let scan = Scan::new(rds, &candidates, k);
    let cells = scan.cells(&base);
    if base.points.len() * rds.len() <= KEEP_ENTRIES_MAX {
        BASE_DP.with(|cell| cell.set(base));
    }
    scan.reduce(&cells, metric)
}

/// The reference usefulness evaluation: one cloned state, re-probed in
/// place per outcome (identical to `GreedyPolicy::usefulness`).
pub(crate) fn naive_usefulness(
    state: &RdState,
    i: usize,
    k: usize,
    metric: CorrectnessMetric,
) -> f64 {
    let mut hyp = state.clone();
    let mut total = 0.0;
    for &(v, p) in state.rds()[i].points() {
        hyp.probe(i, v);
        total += p * best_set_score_quick(hyp.rds(), k, metric);
    }
    total
}

/// One scan's shape: a *row* per `(candidate h, outcome w)` pair, a
/// *column* per database `i`; cell `(row, i)` accumulates
/// `P(i in top-k | r_h = w)`. Columns are contiguous in the flat cell
/// buffer (`cells[i · rows + row]`).
struct Scan<'a> {
    rds: &'a [Discrete],
    candidates: &'a [usize],
    k: usize,
    /// First row of each candidate; one past the last row at the end.
    row_start: Vec<usize>,
}

impl<'a> Scan<'a> {
    fn new(rds: &'a [Discrete], candidates: &'a [usize], k: usize) -> Self {
        let mut row_start = Vec::with_capacity(candidates.len() + 1);
        let mut rows = 0;
        for &h in candidates {
            row_start.push(rows);
            rows += rds[h].points().len();
        }
        row_start.push(rows);
        Self {
            rds,
            candidates,
            k,
            row_start,
        }
    }

    fn rows(&self) -> usize {
        self.row_start[self.candidates.len()]
    }

    /// Every cell of the scan, one column per database; the columns fan
    /// out across cores from [`FANOUT_MIN`] databases and are filled on
    /// the calling thread below it, by the same [`Self::column`].
    fn cells(&self, base: &BaseDp) -> Vec<f64> {
        par_map_indexed(self.rds.len(), FANOUT_MIN, |i| self.column(base, i)).concat()
    }

    /// Column `i`: database `i`'s marginal under every candidate
    /// outcome. One pass over `i`'s support points serves every
    /// candidate rival `h`: the leave-one-out prefix of the point's
    /// beat-count pmf without `h`'s trial gives
    /// `P(at most k−1 / k−2 of the other rivals beat (v, i))`, and each
    /// outcome of `h` picks one by whether it beats `(v, i)`.
    fn column(&self, base: &BaseDp, i: usize) -> Vec<f64> {
        let (rds, k) = (self.rds, self.k);
        let n = rds.len();
        let mut col = vec![0.0; self.rows()];
        // Candidate positions of `i`'s candidate rivals, and each one's
        // trial slot inside `i`'s rival ordering.
        let mut rivals = Vec::with_capacity(self.candidates.len());
        let mut trials = Vec::with_capacity(self.candidates.len());
        for (c, &h) in self.candidates.iter().enumerate() {
            if h != i {
                rivals.push(c);
                trials.push(if h < i { h } else { h - 1 });
            }
        }
        if !rivals.is_empty() {
            // The score reads pmf terms 0..=k−1 (≤ n − 2 other rivals).
            let len = k.min(n - 1);
            let len2 = (k - 1).min(n - 1);
            let mut prefixes = Vec::with_capacity(trials.len() * len);
            for x in base.starts[i]..base.starts[i + 1] {
                let (v, pv) = base.points[x];
                base.dps[x].excluding_prefixes_into(&trials, len, &mut prefixes);
                for (prefix, &c) in prefixes.chunks(len).zip(&rivals) {
                    let cl1 = prefix.iter().sum::<f64>().min(1.0);
                    let cl2 = if k >= 2 {
                        prefix[..len2].iter().sum::<f64>().min(1.0)
                    } else {
                        0.0
                    };
                    // `h`'s outcomes ascend, so the ones that beat
                    // `(v, i)` form a suffix (mirroring `RdState::probe`'s
                    // clamp of the impulse value keeps that order).
                    let h = self.candidates[c];
                    let beaten_from = rds[h].points().partition_point(|&(w, _)| {
                        rank_order(h, w.max(0.0), i, v) != Ordering::Less
                    });
                    let cells = &mut col[self.row_start[c]..self.row_start[c + 1]];
                    let (loses, beats) = cells.split_at_mut(beaten_from);
                    let (add1, add2) = (pv * cl1, pv * cl2);
                    loses.iter_mut().for_each(|cell| *cell += add1);
                    beats.iter_mut().for_each(|cell| *cell += add2);
                }
            }
        }
        // A candidate's own marginal per outcome: an impulse at the
        // outcome value, beaten or not by each unchanged rival RD. At a
        // non-negative outcome those are the beat-probabilities of `i`'s
        // own base point there.
        if let Ok(c) = self.candidates.binary_search(&i) {
            let cells = &mut col[self.row_start[c]..self.row_start[c + 1]];
            let points = base.starts[i]..base.starts[i + 1];
            for ((cell, &(w, _)), x) in cells.iter_mut().zip(rds[i].points()).zip(points) {
                *cell = if w >= 0.0 {
                    at_most(base.dps[x].probs(), k - 1)
                } else {
                    let beat: Vec<f64> = (0..n)
                        .filter(|&j| j != i)
                        .map(|j| prob_beats(rds, j, 0.0, i))
                        .collect();
                    at_most(&beat, k - 1)
                };
            }
        }
        col
    }

    /// Expected best-set quick score of each candidate over its outcomes.
    fn reduce(&self, cells: &[f64], metric: CorrectnessMetric) -> Vec<(usize, f64)> {
        let (n, rows, k) = (self.rds.len(), self.rows(), self.k);
        let mut marg: Vec<f64> = Vec::with_capacity(n);
        self.candidates
            .iter()
            .enumerate()
            .map(|(c, &h)| {
                let mut total = 0.0;
                for (row, &(_, pw)) in (self.row_start[c]..).zip(self.rds[h].points()) {
                    marg.clear();
                    marg.extend((0..n).map(|i| cells[i * rows + row].clamp(0.0, 1.0)));
                    let score = match metric {
                        CorrectnessMetric::Absolute => {
                            debug_assert_eq!(k, 1);
                            marg.iter().copied().fold(0.0, f64::max)
                        }
                        CorrectnessMetric::Partial => {
                            marg.sort_by(|a, b| b.partial_cmp(a).expect("marginals are finite"));
                            marg[..k].iter().sum::<f64>() / k as f64
                        }
                    };
                    total += pw * score;
                }
                (h, total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probing::GreedyPolicy;
    use proptest::prelude::*;

    /// The per-candidate kernel the point-major scan replaced, kept as a
    /// bitwise oracle: a support point's full pmf, rebuilt from scratch
    /// by `from_probs`…
    struct OraclePoint {
        v: f64,
        p: f64,
        ipb: IncrementalPoissonBinomial,
    }

    /// …per point of every database…
    fn oracle_base(rds: &[Discrete]) -> Vec<Vec<OraclePoint>> {
        let n = rds.len();
        rds.iter()
            .enumerate()
            .map(|(i, rd)| {
                rd.points()
                    .iter()
                    .map(|&(v, p)| {
                        let beat: Vec<f64> = (0..n)
                            .filter(|&j| j != i)
                            .map(|j| prob_beats(rds, j, v, i))
                            .collect();
                        OraclePoint {
                            v,
                            p,
                            ipb: IncrementalPoissonBinomial::from_probs(&beat),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// …and one candidate at a time, through the full leave-one-out
    /// deconvolution.
    fn fast_usefulness(
        rds: &[Discrete],
        base: &[Vec<OraclePoint>],
        h: usize,
        k: usize,
        metric: CorrectnessMetric,
    ) -> f64 {
        let n = rds.len();
        let outcomes = rds[h].points();
        // m[w_idx][i] = P(i in top-k | r_h = outcome w).
        let mut m = vec![vec![0.0f64; n]; outcomes.len()];
        let mut buf: Vec<f64> = Vec::with_capacity(n);
        for (i, pds) in base.iter().enumerate() {
            if i == h {
                continue;
            }
            let t = if h < i { h } else { h - 1 };
            for pd in pds {
                pd.ipb.excluding_into(t, &mut buf);
                let lim1 = (k - 1).min(buf.len() - 1);
                let cl1 = buf[..=lim1].iter().sum::<f64>().min(1.0);
                let cl2 = if k >= 2 {
                    let lim2 = (k - 2).min(buf.len() - 1);
                    buf[..=lim2].iter().sum::<f64>().min(1.0)
                } else {
                    0.0
                };
                for (w_idx, &(w, _)) in outcomes.iter().enumerate() {
                    let w_eff = w.max(0.0);
                    let h_beats = rank_order(h, w_eff, i, pd.v) == Ordering::Less;
                    m[w_idx][i] += pd.p * if h_beats { cl2 } else { cl1 };
                }
            }
        }
        let mut beat = Vec::with_capacity(n - 1);
        for (w_idx, &(w, _)) in outcomes.iter().enumerate() {
            let w_eff = w.max(0.0);
            beat.clear();
            for j in 0..n {
                if j != h {
                    beat.push(prob_beats(rds, j, w_eff, h));
                }
            }
            m[w_idx][h] = at_most(&beat, k - 1);
        }
        let mut total = 0.0;
        let mut ranked: Vec<f64> = Vec::with_capacity(n);
        for (w_idx, &(_, pw)) in outcomes.iter().enumerate() {
            let marg = &mut m[w_idx];
            for x in marg.iter_mut() {
                *x = x.clamp(0.0, 1.0);
            }
            let score = match metric {
                CorrectnessMetric::Absolute => marg.iter().copied().fold(0.0, f64::max),
                CorrectnessMetric::Partial => {
                    ranked.clear();
                    ranked.extend_from_slice(marg);
                    ranked.sort_by(|a, b| b.partial_cmp(a).expect("marginals are finite"));
                    ranked[..k].iter().sum::<f64>() / k as f64
                }
            };
            total += pw * score;
        }
        total
    }

    /// Asserts `usefulness_all` equals the oracle bit for bit on every
    /// candidate (fast-path combinations only).
    fn assert_matches_oracle(state: &RdState, k: usize, metric: CorrectnessMetric) {
        let base = oracle_base(state.rds());
        let all = usefulness_all(state, k, metric);
        assert_eq!(all.len(), state.unprobed().len());
        for ((h, got), want_h) in all.into_iter().zip(state.unprobed()) {
            assert_eq!(h, want_h);
            let want = fast_usefulness(state.rds(), &base, h, k, metric);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{metric:?} k={k} h={h} n={}: scan {got} vs oracle {want}",
                state.len()
            );
        }
    }

    fn d(pairs: &[(f64, f64)]) -> Discrete {
        Discrete::from_weighted(pairs).unwrap()
    }

    fn paper_state() -> RdState {
        RdState::new(vec![
            d(&[(50.0, 0.4), (100.0, 0.5), (150.0, 0.1)]),
            d(&[(65.0, 0.1), (130.0, 0.9)]),
        ])
    }

    #[test]
    fn matches_paper_example6_exactly() {
        let state = paper_state();
        let all = usefulness_all(&state, 1, CorrectnessMetric::Absolute);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 0);
        assert_eq!(all[1].0, 1);
        assert!((all[0].1 - 0.95).abs() < 1e-12, "u1={}", all[0].1);
        assert!((all[1].1 - 0.87).abs() < 1e-12, "u2={}", all[1].1);
    }

    #[test]
    fn skips_probed_candidates() {
        let mut state = paper_state();
        state.probe(0, 100.0);
        let all = usefulness_all(&state, 1, CorrectnessMetric::Absolute);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, 1);
        let mut both = paper_state();
        both.probe(0, 100.0);
        both.probe(1, 130.0);
        assert!(usefulness_all(&both, 1, CorrectnessMetric::Absolute).is_empty());
    }

    fn arb_state() -> impl Strategy<Value = RdState> {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..50.0, 0.05f64..1.0), 1..4),
            2..6,
        )
        .prop_map(|dbs| {
            RdState::new(
                dbs.into_iter()
                    .map(|pts| Discrete::from_weighted(&pts).unwrap())
                    .collect(),
            )
        })
    }

    /// Integer-valued supports so value ties across databases are
    /// common — the case where the patched tie-break must agree with
    /// the reference evaluation exactly.
    fn arb_tied_state() -> impl Strategy<Value = RdState> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0.05f64..1.0), 1..4),
            2..5,
        )
        .prop_map(|dbs| {
            RdState::new(
                dbs.into_iter()
                    .map(|pts| {
                        let pts: Vec<(f64, f64)> =
                            pts.into_iter().map(|(v, p)| (v as f64, p)).collect();
                        Discrete::from_weighted(&pts).unwrap()
                    })
                    .collect(),
            )
        })
    }

    /// Random RDs over a wide fleet (`n_min..n_max` databases), with
    /// integer-valued supports (cross-database ties), some databases
    /// probed (impulses, exact 0/1 beat probabilities), and negative
    /// support values (the probe clamp).
    fn arb_fleet(n_min: usize, n_max: usize) -> impl Strategy<Value = RdState> {
        proptest::collection::vec(
            (
                proptest::collection::vec((-6i8..8, 0.05f64..1.0), 1..5),
                0u8..4,
                -3.0f64..8.0,
            ),
            n_min..n_max,
        )
        .prop_map(|dbs| {
            let mut probes = Vec::new();
            let rds = dbs
                .into_iter()
                .enumerate()
                .map(|(i, (pts, probe_sel, actual))| {
                    if probe_sel == 0 {
                        probes.push((i, actual.round()));
                    }
                    let pts: Vec<(f64, f64)> =
                        pts.into_iter().map(|(v, p)| (f64::from(v), p)).collect();
                    Discrete::from_weighted(&pts).unwrap()
                })
                .collect();
            let mut state = RdState::new(rds);
            for (i, actual) in probes {
                state.probe(i, actual);
            }
            state
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_scan_is_bitwise_oracle(state in arb_state(), k_raw in 1usize..4) {
            let k = k_raw.min(state.len());
            assert_matches_oracle(&state, k, CorrectnessMetric::Partial);
            assert_matches_oracle(&state, 1, CorrectnessMetric::Absolute);
        }

        #[test]
        fn prop_scan_is_bitwise_oracle_under_ties(state in arb_tied_state(), k_raw in 1usize..4) {
            let k = k_raw.min(state.len());
            assert_matches_oracle(&state, k, CorrectnessMetric::Partial);
            assert_matches_oracle(&state, 1, CorrectnessMetric::Absolute);
        }

        #[test]
        fn prop_scan_is_bitwise_oracle_with_impulses(state in arb_fleet(2, 7), k_raw in 1usize..4) {
            let k = k_raw.min(state.len());
            assert_matches_oracle(&state, k, CorrectnessMetric::Partial);
            assert_matches_oracle(&state, 1, CorrectnessMetric::Absolute);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Fleets from just below to above [`FANOUT_MIN`]: the fanned-out
        /// columns are the same bits as the oracle (and so as the
        /// calling-thread path the smaller fleets take).
        #[test]
        fn prop_scan_is_bitwise_oracle_across_fanout(
            state in arb_fleet(FANOUT_MIN - 2, FANOUT_MIN + 6),
            k_raw in 1usize..4
        ) {
            assert_matches_oracle(&state, k_raw, CorrectnessMetric::Partial);
            assert_matches_oracle(&state, 1, CorrectnessMetric::Absolute);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_engine_matches_reference(state in arb_state(), k_raw in 1usize..4) {
            let k = k_raw.min(state.len());
            for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
                for (h, fast) in usefulness_all(&state, k, metric) {
                    let slow = GreedyPolicy::usefulness(&state, h, k, metric);
                    prop_assert!(
                        (fast - slow).abs() < 1e-12,
                        "{:?} k={} h={}: engine {} vs reference {}",
                        metric, k, h, fast, slow
                    );
                }
            }
        }

        #[test]
        fn prop_engine_matches_reference_under_ties(
            state in arb_tied_state(),
            k_raw in 1usize..3
        ) {
            let k = k_raw.min(state.len());
            for metric in [CorrectnessMetric::Absolute, CorrectnessMetric::Partial] {
                for (h, fast) in usefulness_all(&state, k, metric) {
                    let slow = GreedyPolicy::usefulness(&state, h, k, metric);
                    prop_assert!(
                        (fast - slow).abs() < 1e-12,
                        "{:?} k={} h={}: engine {} vs reference {}",
                        metric, k, h, fast, slow
                    );
                }
            }
        }
    }
}
