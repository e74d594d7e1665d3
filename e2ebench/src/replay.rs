//! The traced replay: one request's engine work, composed from the
//! layers' public functions in the order `Metasearcher::search_with_rds`
//! calls them, with a span around every call.
//!
//! `estimates → derive_all_rds → AproSession::begin →
//! (next_probe → probe → apply)* → finish → search per selected
//! database → fuse`. The composed answer must equal
//! `Metasearcher::search`; that equality is what lets the per-layer
//! times describe the served program.

use mp_core::fusion::fuse;
use mp_core::probing::AproSession;
use mp_core::rd::derive_all_rds;
use mp_core::{AproConfig, GreedyPolicy, MetasearchResult, Metasearcher, RdState};
use mp_workload::Query;

use crate::spans::Recorder;

/// Span names, one per timed layer call.
pub mod layer {
    /// The request as a whole (its self time is replay bookkeeping).
    pub const ROOT: &str = "replay.request";
    /// `Metasearcher::estimates`.
    pub const ESTIMATE: &str = "core.estimate";
    /// `rd::derive_all_rds`.
    pub const RD: &str = "core.rd";
    /// `AproSession::begin` (the initial `best_set`).
    pub const BEGIN: &str = "apro.begin";
    /// `AproSession::next_probe` (the usefulness scan).
    pub const SCAN: &str = "apro.scan";
    /// `RelevancyDef::probe`.
    pub const PROBE: &str = "hidden.probe";
    /// `AproSession::apply` (collapse + re-selection).
    pub const APPLY: &str = "apro.apply";
    /// `AproSession::finish`.
    pub const FINISH: &str = "apro.finish";
    /// `HiddenWebDatabase::search` for a selected database.
    pub const DISPATCH: &str = "hidden.dispatch";
    /// `fusion::fuse`.
    pub const FUSION: &str = "core.fusion";
}

/// Counts gathered while composing requests.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Requests composed.
    pub requests: u64,
    /// Requests whose certainty threshold was met.
    pub satisfied: u64,
    /// Summed RD support sizes.
    pub rd_support: u64,
    /// RDs derived.
    pub rds: u64,
    /// Summed match counts over probes and dispatches.
    pub match_count: f64,
    /// Probe and dispatch responses counted in `match_count`.
    pub responses: u64,
}

/// Composes one request from the layer calls, recording a span around
/// each under a root span. Returns the answer and the root span's id.
pub fn composed(
    ms: &Metasearcher,
    query: &Query,
    config: AproConfig,
    fuse_limit: usize,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> (MetasearchResult, usize) {
    let root = rec.enter(layer::ROOT);
    let probe_top_n = ms.library().config().probe_top_n;
    let def = ms.relevancy_def();
    let estimates = rec.time(layer::ESTIMATE, || ms.estimates(query));
    let rds = rec.time(layer::RD, || {
        derive_all_rds(&estimates, query, ms.library())
    });
    tally.rds += rds.len() as u64;
    tally.rd_support += rds.iter().map(|d| d.len() as u64).sum::<u64>();
    let mut state = RdState::new(rds);
    let mut policy = GreedyPolicy;
    let span = rec.enter(layer::BEGIN);
    let mut session = AproSession::begin(&mut state, &mut policy, config);
    rec.exit(span);
    loop {
        let span = rec.enter(layer::SCAN);
        let next = session.next_probe();
        rec.exit(span);
        let Some(db) = next else { break };
        let actual = rec.time(layer::PROBE, || {
            def.probe(ms.mediator().db(db), query, probe_top_n)
        });
        tally.match_count += actual;
        tally.responses += 1;
        let span = rec.enter(layer::APPLY);
        session.apply(db, actual);
        rec.exit(span);
    }
    let outcome = rec.time(layer::FINISH, || session.finish());
    let top_n = probe_top_n.max(fuse_limit);
    let responses: Vec<_> = outcome
        .selected
        .iter()
        .map(|&i| {
            let resp = rec.time(layer::DISPATCH, || {
                ms.mediator().db(i).search(query.terms(), top_n)
            });
            tally.match_count += f64::from(resp.match_count);
            tally.responses += 1;
            (i, resp)
        })
        .collect();
    let hits = rec.time(layer::FUSION, || fuse(&responses, fuse_limit));
    rec.exit(root);
    tally.requests += 1;
    tally.satisfied += u64::from(outcome.satisfied);
    (
        MetasearchResult {
            probes_used: outcome.n_probes(),
            outcome,
            hits,
        },
        root,
    )
}

/// Exact equality of two answers: every field, certainties by bit
/// pattern.
pub fn same_answer(a: &MetasearchResult, b: &MetasearchResult) -> bool {
    a == b
        && a.outcome.expected.to_bits() == b.outcome.expected.to_bits()
        && a.outcome.initial_expected.to_bits() == b.outcome.initial_expected.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Traffic, WORKLOADS};
    use mp_eval::{Testbed, TestbedConfig};

    /// Decomposition fidelity: for every test query of the seed
    /// testbeds, under every workload's request shape, the composed
    /// layer calls give exactly `Metasearcher::search`'s answer.
    #[test]
    fn composed_layers_equal_search_on_every_request() {
        for seed in [1u64, 2] {
            let tb = Testbed::build(TestbedConfig::tiny(seed));
            let Testbed {
                mediator,
                library,
                estimator,
                config,
                split,
                ..
            } = tb;
            let n = mediator.len();
            let ms = Metasearcher::with_library(mediator, estimator, config.relevancy, library);
            for spec in WORKLOADS {
                let mut cfg = spec.apro_config();
                cfg.k = cfg.k.min(n);
                let mut rec = Recorder::new();
                let mut tally = Tally::default();
                let mut probes = 0;
                for q in split.test.queries() {
                    let direct = ms.search(q, cfg, &mut GreedyPolicy, 10);
                    let (mine, root) = composed(&ms, q, cfg, 10, &mut rec, &mut tally);
                    assert!(same_answer(&direct, &mine), "{} seed {seed}", spec.name);
                    assert!(rec.self_ns(root) <= rec.spans()[root].duration_ns());
                    probes += direct.probes_used;
                }
                assert_eq!(tally.requests, split.test.len() as u64);
                if spec.max_probes == Some(0) {
                    assert_eq!(probes, 0, "{} must not probe", spec.name);
                } else if spec.traffic == Traffic::Distinct {
                    assert!(probes > 0, "{} must probe", spec.name);
                }
            }
        }
    }

    /// The same property on the benchmark's own testbeds, every test
    /// query under every workload's request shape (about a minute in
    /// release: `cargo test --release -- --ignored`).
    #[test]
    #[ignore = "full benchmark testbeds; run in release with --ignored"]
    fn composed_layers_equal_search_on_the_benchmark_testbeds() {
        for spec in WORKLOADS {
            let tb = Testbed::build(spec.testbed_config());
            let Testbed {
                mediator,
                library,
                estimator,
                config,
                split,
                ..
            } = tb;
            let ms = Metasearcher::with_library(mediator, estimator, config.relevancy, library);
            let cfg = spec.apro_config();
            let mut rec = Recorder::new();
            let mut tally = Tally::default();
            for q in split.test.queries() {
                let direct = ms.search(q, cfg, &mut GreedyPolicy, 10);
                let (mine, _) = composed(&ms, q, cfg, 10, &mut rec, &mut tally);
                assert!(same_answer(&direct, &mine), "{}", spec.name);
            }
        }
    }

    #[test]
    fn same_answer_is_bitwise_on_certainty() {
        let tb = Testbed::build(TestbedConfig::tiny(3));
        let q = tb.split.test.queries()[0].clone();
        let Testbed {
            mediator,
            library,
            estimator,
            config,
            ..
        } = tb;
        let ms = Metasearcher::with_library(mediator, estimator, config.relevancy, library);
        let a = ms.search(&q, WORKLOADS[1].apro_config(), &mut GreedyPolicy, 10);
        let mut b = a.clone();
        assert!(same_answer(&a, &b));
        b.outcome.expected = f64::from_bits(a.outcome.expected.to_bits() ^ 1);
        assert!(!same_answer(&a, &b));
        let mut c = a.clone();
        c.probes_used += 1;
        assert!(!same_answer(&a, &c));
    }
}
