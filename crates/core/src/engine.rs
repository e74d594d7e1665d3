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
//! **The beat table.** Both per-step evaluations of an `APro` run read
//! the same matrix: `P(rival j beats (v, i))` for every `(database i,
//! support point v)` pair — the re-selection's marginals
//! (`Σ_v p_v · at_most(row, k − 1)`) and the scan's accumulators. An
//! [`RdState`] that may still be probed keeps it as a [`BeatTable`]:
//! `AproSession::begin` builds it (`n · s̄ · (n − 1)` [`prob_beats`]
//! calls), and a probe of `h` recomputes only `h`'s entry in every other
//! row and rebuilds `h`'s own rows (one row for the impulse), `O(n · s̄)`
//! in all. Each re-selection keeps its per-point `at_most` terms, and
//! the next scan's own-marginal cells reuse them. A run that cannot
//! probe (`max_probes == Some(0)`) builds no table; a scan of a state
//! without one builds a throwaway table first.
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
//! evaluation). Per `cold_probe` request on the paper's 20-database
//! testbed (traced, 2 vCPU Xeon) a scan call went from about 204 µs to
//! about 98 µs with the table and the cut below, and a re-selection from
//! about 56 µs to about 13 µs.
//! Fleets of [`FANOUT_MIN`] databases or more fan the columns (one per
//! database `i`) out across cores; smaller ones run on the calling
//! thread.
//!
//! **The exact dominance cut.** A point `(v, i)` that `m ≥ k + 1` rivals
//! beat with probability exactly 1 gets no pmf and no cell adds. Each
//! such trial shifts the pmf up one slot, so its first `m` entries are
//! `+0.0`, and every leave-one-out prefix of `k` entries is `+0.0` too:
//! a copy reads `f[0..k]` or `f[1..=k]`; a forward step is
//! `(+0.0 − 0·p)/q`; a backward step into slot `j < m − 1` divides
//! `f[j + 1] = +0.0` minus a non-negative carry, which the clamp turns
//! into `+0.0`. Adding `p_v · +0.0` to a cell is a no-op. Likewise a
//! marginal row with `k` exact ones has `at_most(row, k − 1) = +0.0`
//! without running the DP. On `cold_probe` about 38 % of the scan's
//! points fall under the cut.
//!
//! **Bit identity.** Every usefulness value is the same `f64` the
//! per-candidate kernel produced, and every re-selection the same as
//! [`crate::selection::best_set`] on the RDs (test-only oracles pin both
//! by `to_bits`, after `begin` and after every probe of random
//! sessions): a table entry is the `f64` [`prob_beats`] returns, and a
//! probe leaves every entry whose inputs it did not change as it was;
//! each leave-one-out term comes from the same operations (the prefix
//! and lane variants only skip terms the score never reads and steps
//! whose result is the `+0.0` they start from), each cell sums its
//! `p_v · P(…)` terms over `i`'s points in the same order, skipped terms
//! are exact zeros, and the reduction per candidate adds the same `k`
//! largest marginals in the same descending order (selected, not
//! sorted). Fanned-out columns are filled by the same function as
//! sequential ones.
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
use mp_stats::float::exact_one;
use mp_stats::poisson_binomial::{at_most, IncrementalPoissonBinomial};
use mp_stats::Discrete;
use std::cell::Cell;
use std::cmp::Ordering;

/// `P(rival j beats (v, i))` for every `(database i, support point v)`
/// pair of one [`RdState`] — the matrix both the re-selection's
/// marginals and the scan's accumulators read. Each point has one row
/// of `n − 1` values, rivals in ascending index order (skipping `i`),
/// each the `f64` [`prob_beats`] returns.
#[derive(Debug, Clone)]
pub(crate) struct BeatTable {
    /// `rows[i]`: database `i`'s rows, one per support point in support
    /// order, `n − 1` values each.
    rows: Vec<Vec<f64>>,
    /// `k` and, per database and support point, `at_most(row, k − 1)`
    /// as the last [`Self::marginals`] computed them; cleared by every
    /// [`Self::update`].
    at_most: Option<(usize, Vec<Vec<f64>>)>,
}

impl BeatTable {
    /// The table of `rds`, one [`prob_beats`] call per entry.
    pub(crate) fn build(rds: &[Discrete]) -> Self {
        let _span = mp_obs::span!("engine.beats");
        let rows = (0..rds.len()).map(|i| own_rows(rds, i)).collect();
        Self {
            rows,
            at_most: None,
        }
    }

    /// Brings the table up to date after database `h`'s RD changed
    /// (`rds` is the changed set): `h`'s entry in every other row is
    /// recomputed and `h`'s own rows are rebuilt from its new support.
    /// Every other entry is a [`prob_beats`] of inputs that did not
    /// change, so the table stays the one [`Self::build`] would make.
    pub(crate) fn update(&mut self, rds: &[Discrete], h: usize) {
        let _span = mp_obs::span!("engine.beats");
        let width = rds.len() - 1;
        for (i, rows) in self.rows.iter_mut().enumerate() {
            if i == h {
                *rows = own_rows(rds, h);
                continue;
            }
            let t = if h < i { h } else { h - 1 };
            for (x, &(v, _)) in rds[i].points().iter().enumerate() {
                rows[x * width + t] = prob_beats(rds, h, v, i);
            }
        }
        self.at_most = None;
    }

    /// The row of database `i`'s support point `x`.
    pub(crate) fn row(&self, i: usize, x: usize) -> &[f64] {
        let width = self.rows.len() - 1;
        &self.rows[i][x * width..(x + 1) * width]
    }

    /// Every database's marginal top-k probability, the same `f64`s as
    /// [`crate::expected::marginal_topk_prob`]: `Σ_x p_x · at_most(row,
    /// k − 1)` over its support in order, clamped. The per-point terms
    /// are kept for the next scan's own-marginal cells.
    pub(crate) fn marginals(&mut self, rds: &[Discrete], k: usize) -> Vec<f64> {
        let terms = par_map_indexed(rds.len(), FANOUT_MIN, |i| {
            (0..rds[i].len())
                .map(|x| self.at_most(i, x, k))
                .collect::<Vec<f64>>()
        });
        let marginals = rds
            .iter()
            .zip(&terms)
            .map(|(rd, terms)| {
                let mut total = 0.0;
                for (&(_, p), &term) in rd.points().iter().zip(terms) {
                    total += p * term;
                }
                total.clamp(0.0, 1.0)
            })
            .collect();
        self.at_most = Some((k, terms));
        marginals
    }

    /// `at_most(row, k − 1)` of database `i`'s point `x`, from the last
    /// [`Self::marginals`] when it ran at this `k`. A row with `k` exact
    /// ones is `+0.0` without the DP: each certain win shifts the DP's
    /// mass up one slot, leaving `+0.0` in every slot the sum reads.
    fn at_most(&self, i: usize, x: usize, k: usize) -> f64 {
        match &self.at_most {
            Some((at, terms)) if *at == k => terms[i][x],
            _ => {
                let row = self.row(i, x);
                if has_ones(row, k) {
                    0.0
                } else {
                    at_most(row, k - 1)
                }
            }
        }
    }
}

/// Database `i`'s rows, point after point.
fn own_rows(rds: &[Discrete], i: usize) -> Vec<f64> {
    let n = rds.len();
    let mut rows = Vec::with_capacity(rds[i].len() * (n - 1));
    for &(v, _) in rds[i].points() {
        rows.extend((0..n).filter(|&j| j != i).map(|j| prob_beats(rds, j, v, i)));
    }
    rows
}

/// Whether at least `m` entries of `row` are exactly 1.
fn has_ones(row: &[f64], m: usize) -> bool {
    m == 0 || row.iter().filter(|&&p| exact_one(p)).nth(m - 1).is_some()
}

/// Per-state precomputation shared (read-only) by the whole scan: for
/// every `(database, support point)` pair, the Poisson-binomial over its
/// [`BeatTable`] row. Rebuilt per scan into storage kept from the
/// previous one: on the 20-database testbed, when the build still called
/// [`prob_beats`] per entry, it took about 82 µs into kept storage and
/// 97 µs into fresh, preallocated storage (interleaved runs, 2 vCPU
/// Xeon); built from table rows it averages about 25 µs per `cold_probe`
/// scan (`engine.base_dp` span, same host).
#[derive(Default)]
struct BaseDp {
    /// `starts[i]..starts[i + 1]` — database `i`'s points.
    starts: Vec<usize>,
    /// Per point: false when it is dominated (see [`Self::build`]) and
    /// has no pmf.
    live: Vec<bool>,
    /// Beat-count distribution of each live point's `n − 1` rivals;
    /// entries past the points are spare storage.
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
    /// Builds every point's pmf from its table row, except at points
    /// that `k + 1` rivals beat with probability exactly 1: there every
    /// prefix the scan reads is `+0.0` (see the module doc). Returns the
    /// number of such points.
    fn build(&mut self, rds: &[Discrete], table: &BeatTable, k: usize) -> usize {
        self.starts.clear();
        self.live.clear();
        let mut dominated = 0;
        for (i, rd) in rds.iter().enumerate() {
            self.starts.push(self.live.len());
            for x in 0..rd.len() {
                let row = table.row(i, x);
                let live = !has_ones(row, k + 1);
                let slot = self.live.len();
                self.live.push(live);
                if slot == self.dps.len() {
                    self.dps.push(IncrementalPoissonBinomial::new());
                }
                if !live {
                    dominated += 1;
                    continue;
                }
                let dp = &mut self.dps[slot];
                dp.clear();
                for &p in row {
                    dp.push(p);
                }
                dp.debug_assert_normalized();
            }
        }
        self.starts.push(self.live.len());
        dominated
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
/// reassociation noise (≪ 1e-12 at testbed sizes). Reads the state's
/// [`BeatTable`], or builds one for this scan when the state has none.
/// Fleets below [`FANOUT_MIN`] databases are scanned on the calling
/// thread.
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
    let built;
    let table = match state.beats() {
        Some(table) => table,
        None => {
            built = BeatTable::build(rds);
            &built
        }
    };
    let mut base = BASE_DP.with(Cell::take);
    {
        let _dp_span = mp_obs::span!("engine.base_dp");
        let dominated = base.build(rds, table, k);
        mp_obs::counter!("engine.dominated_points")
            .add(u64::try_from(dominated).unwrap_or(u64::MAX));
    }
    let _scan_span = mp_obs::span!("engine.scan");
    let scan = Scan::new(rds, table, &candidates, k);
    let cells = scan.cells(&base);
    if base.live.len() * rds.len() <= KEEP_ENTRIES_MAX {
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
    let mut hyp = state.without_beats();
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
    table: &'a BeatTable,
    candidates: &'a [usize],
    k: usize,
    /// First row of each candidate; one past the last row at the end.
    row_start: Vec<usize>,
}

impl<'a> Scan<'a> {
    fn new(rds: &'a [Discrete], table: &'a BeatTable, candidates: &'a [usize], k: usize) -> Self {
        let mut row_start = Vec::with_capacity(candidates.len() + 1);
        let mut rows = 0;
        for &h in candidates {
            row_start.push(rows);
            rows += rds[h].points().len();
        }
        row_start.push(rows);
        Self {
            rds,
            table,
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
            for (x, &(v, pv)) in (base.starts[i]..).zip(rds[i].points()) {
                if !base.live[x] {
                    continue;
                }
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
        // own base point there, whose `at_most` the last re-selection
        // computed.
        if let Ok(c) = self.candidates.binary_search(&i) {
            let cells = &mut col[self.row_start[c]..self.row_start[c + 1]];
            for (x, (cell, &(w, _))) in cells.iter_mut().zip(rds[i].points()).enumerate() {
                *cell = if w >= 0.0 {
                    self.table.at_most(i, x, k)
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
        let mut top: Vec<f64> = Vec::with_capacity(k);
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
                            top_k_desc(&marg, k, &mut top);
                            top.iter().sum::<f64>() / k as f64
                        }
                    };
                    total += pw * score;
                }
                (h, total)
            })
            .collect()
    }
}

/// The `k` largest of `xs` in descending order into `out` (cleared
/// first): exactly the first `k` entries of a stable descending sort of
/// `xs`, equal values in input order, without sorting the rest.
fn top_k_desc(xs: &[f64], k: usize, out: &mut Vec<f64>) {
    out.clear();
    for &x in xs {
        assert!(!x.is_nan(), "marginals are finite");
        if out.len() == k {
            if out.last().is_some_and(|&last| x <= last) {
                continue;
            }
            out.pop();
        }
        let at = out.partition_point(|&y| y >= x);
        out.insert(at, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probing::{AproConfig, AproSession, GreedyPolicy, ProbePolicy};
    use crate::selection::{best_set, best_set_of};
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
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Impulse-laden fleets put many points at or near the dominance
        /// cut. Cutting at `k` certain rivals instead of `k + 1` moves
        /// last bits in about one case in a thousand here (a backward
        /// deconvolution can leave a positive residue in slot `k − 1`),
        /// hence the case count.
        #[test]
        fn prop_scan_is_bitwise_oracle_at_the_dominance_cut(
            state in arb_fleet(3, 9),
            k_raw in 1usize..4
        ) {
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

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts the state keeps a beat table equal, entry for entry, to
    /// one freshly built from its RDs.
    fn assert_table_is_fresh(state: &RdState) {
        let table = state.beats().expect("a probing session keeps a beat table");
        let fresh = BeatTable::build(state.rds());
        assert_eq!(table.rows.len(), fresh.rows.len());
        for (i, (kept, built)) in table.rows.iter().zip(&fresh.rows).enumerate() {
            assert_eq!(bits(kept), bits(built), "database {i}'s rows");
        }
    }

    /// Every check one session state must pass: its table is current
    /// (also in a clone probed at each unprobed database), the
    /// table-backed `best_set` is the free one, and the scan is the
    /// per-candidate oracle.
    fn check_session_state(state: &RdState, k: usize, metric: CorrectnessMetric) {
        assert_table_is_fresh(state);
        let (free_set, free_score) = best_set(state.rds(), k, metric);
        let (set, score) = best_set_of(&mut state.clone(), k, metric);
        assert_eq!(set, free_set);
        assert_eq!(
            score.to_bits(),
            free_score.to_bits(),
            "{score} vs {free_score}"
        );
        if metric == CorrectnessMetric::Partial {
            let exact = crate::expected::expected_partial(state.rds(), &set);
            assert_eq!(score.to_bits(), exact.to_bits(), "{score} vs {exact}");
        }
        if fast_path_applies(k, metric) {
            assert_matches_oracle(state, k, metric);
        }
        for h in state.unprobed() {
            for actual in [state.rds()[h].points()[0].0, -1.0] {
                let mut probed = state.clone();
                probed.probe(h, actual);
                assert_table_is_fresh(&probed);
            }
        }
    }

    /// Greedy, checking every state the session hands it first.
    struct CheckingGreedy;

    impl ProbePolicy for CheckingGreedy {
        fn name(&self) -> &str {
            "checking-greedy"
        }

        fn select_db(
            &mut self,
            state: &RdState,
            k: usize,
            metric: CorrectnessMetric,
        ) -> Option<usize> {
            check_session_state(state, k, metric);
            GreedyPolicy.select_db(state, k, metric)
        }
    }

    /// Runs one greedy `APro` session to its end, checking the state
    /// after `begin` and after every `apply`, then replays the probe
    /// trace on a table-less copy against the free `best_set`. Probe
    /// outcomes come from `seed`: a support value, an integer (ties), or
    /// a negative value (the probe clamp).
    fn run_checked_session(
        state: RdState,
        k: usize,
        metric: CorrectnessMetric,
        max_probes: Option<usize>,
        seed: u64,
    ) {
        let mut replay = state.without_beats();
        let mut state = state;
        let config = AproConfig {
            k,
            threshold: 1.0,
            metric,
            max_probes,
        };
        let mut policy = CheckingGreedy;
        let mut session = AproSession::begin(&mut state, &mut policy, config);
        let mut draw = seed;
        while let Some(db) = session.next_probe() {
            draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let points = replay.rds()[db].points();
            let actual = match (draw >> 33) % 3 {
                0 => points[(draw >> 40) as usize % points.len()].0,
                1 => ((draw >> 40) % 9) as f64,
                _ => -1.5,
            };
            session.apply(db, actual);
        }
        let outcome = session.finish();
        check_session_state(&state, k, metric);
        let (set, score) = best_set(replay.rds(), k, metric);
        assert_eq!(outcome.initial_selected, set);
        assert_eq!(outcome.initial_expected.to_bits(), score.to_bits());
        for record in &outcome.probes {
            replay.probe(record.db, record.actual);
            let (set, score) = best_set(replay.rds(), k, metric);
            assert_eq!(record.selected_after, set);
            assert_eq!(record.expected_after.to_bits(), score.to_bits());
        }
    }

    #[test]
    fn sessions_that_cannot_probe_build_no_table() {
        let mut state = paper_state();
        let mut policy = GreedyPolicy;
        let config = AproConfig {
            k: 1,
            threshold: 1.0,
            metric: CorrectnessMetric::Absolute,
            max_probes: Some(0),
        };
        let session = AproSession::begin(&mut state, &mut policy, config);
        let outcome = session.finish();
        assert_eq!(outcome.n_probes(), 0);
        assert!(state.beats().is_none());
    }

    #[test]
    fn dominated_points_are_cut_and_bits_hold() {
        // Four probed databases sit far above database 4's support, so
        // at k = 2 each of its points has four certain rivals (≥ k + 1).
        let mut rds = vec![Discrete::impulse(90.0); 4];
        rds.push(d(&[(1.0, 0.5), (2.0, 0.5)]));
        rds.push(d(&[(50.0, 0.3), (95.0, 0.7)]));
        rds.push(d(&[(40.0, 0.6), (99.0, 0.4)]));
        let mut state = RdState::new(rds);
        for i in 0..4 {
            state.probe(i, 90.0);
        }
        state.build_beats();
        let k = 2;
        let mut base = BaseDp::default();
        let dominated = base.build(state.rds(), state.beats().unwrap(), k);
        assert!(dominated >= 2, "dominated points: {dominated}");
        assert!(!base.live[base.starts[4]] && !base.live[base.starts[4] + 1]);
        // Their own-marginal terms are the DP's exact zero.
        let table = state.beats().unwrap();
        for x in 0..2 {
            assert_eq!(table.at_most(4, x, k).to_bits(), 0.0f64.to_bits());
            assert_eq!(at_most(table.row(4, x), k - 1).to_bits(), 0.0f64.to_bits());
        }
        assert_matches_oracle(&state, k, CorrectnessMetric::Partial);
        run_checked_session(state, k, CorrectnessMetric::Partial, None, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_session_is_bitwise_free_path(
            state in arb_state(),
            k_raw in 1usize..4,
            seed in 0u64..1_000
        ) {
            let k = k_raw.min(state.len());
            run_checked_session(state.clone(), k, CorrectnessMetric::Partial, None, seed);
            run_checked_session(state, k, CorrectnessMetric::Absolute, None, seed);
        }

        #[test]
        fn prop_session_is_bitwise_free_path_under_ties(
            state in arb_tied_state(),
            k_raw in 1usize..4,
            seed in 0u64..1_000
        ) {
            let k = k_raw.min(state.len());
            run_checked_session(state.clone(), k, CorrectnessMetric::Partial, None, seed);
            run_checked_session(state, 1, CorrectnessMetric::Absolute, None, seed);
        }

        #[test]
        fn prop_session_is_bitwise_free_path_with_impulses(
            state in arb_fleet(2, 7),
            k_raw in 1usize..4,
            seed in 0u64..1_000
        ) {
            let k = k_raw.min(state.len());
            run_checked_session(state.clone(), k, CorrectnessMetric::Partial, None, seed);
            run_checked_session(state, 1, CorrectnessMetric::Absolute, None, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Fleets on both sides of [`FANOUT_MIN`]: the fanned-out table
        /// marginals and scan columns keep the session's bits.
        #[test]
        fn prop_session_is_bitwise_free_path_across_fanout(
            state in arb_fleet(FANOUT_MIN - 2, FANOUT_MIN + 6),
            k_raw in 1usize..4,
            seed in 0u64..1_000
        ) {
            run_checked_session(state, k_raw, CorrectnessMetric::Partial, Some(3), seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_top_k_is_the_sorted_prefix(
            draws in proptest::collection::vec((0u8..6, 0.0f64..=1.0), 1..40),
            k_raw in 1usize..=3
        ) {
            // Ties are common: a third of the draws are 0, ½ or 1.
            let xs: Vec<f64> = draws
                .into_iter()
                .map(|(sel, x)| match sel {
                    0 => 0.0,
                    1 => 0.5,
                    2 => 1.0,
                    _ => x,
                })
                .collect();
            let k = k_raw.min(xs.len());
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            let mut top = Vec::new();
            top_k_desc(&xs, k, &mut top);
            prop_assert_eq!(bits(&top), bits(&sorted[..k]));
            prop_assert_eq!(
                top.iter().sum::<f64>().to_bits(),
                sorted[..k].iter().sum::<f64>().to_bits()
            );
        }
    }
}
