//! The benchmark's workloads and their set-up.
//!
//! Each workload is a fixed request shape plus a traffic pattern over a
//! testbed. The testbed is fixed; the seed draws the requests from its
//! test queries and drives the arrival schedule. The served program
//! only ever sees the generated requests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_core::{AproConfig, CorrectnessMetric, GreedyPolicy, MetasearchResult, Metasearcher};
use mp_eval::{Testbed, TestbedConfig};
use mp_serve::{ServeConfig, ServeRequest, Server};
use mp_workload::Query;

/// Serving workers: one per core of the reference machine.
pub const WORKERS: usize = 2;

/// Required certainty `t` of every request.
pub const THRESHOLD: f64 = 0.9;

/// Share of a run's seconds given to the open-loop phase; saturation
/// gets the rest.
pub const OPEN_SHARE: f64 = 2.0 / 3.0;

/// Seed of the fixed testbed: corpus, query split, trained error
/// distributions and golden standard. Testbeds built from different
/// seeds differ by tens of percent in per-request cost and in realized
/// correctness, far more than any regression bound could absorb, so
/// runs vary the requests and the schedule over one testbed.
pub const TESTBED_SEED: u64 = 2004;

/// How requests are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Zipf-skewed repeats over a pool of test queries that fits the
    /// result cache; the cache is warmed with the pool during set-up.
    Zipf {
        /// Distinct queries in the pool.
        pool: usize,
        /// Zipf exponent.
        s: f64,
    },
    /// Every request is a distinct test query.
    Distinct,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Databases in the Health scenario.
    pub n_databases: usize,
    /// Database size multiplier.
    pub scale: f64,
    /// Train and test queries of each arity (2 and 3 terms).
    pub queries_per_arity: usize,
    /// Databases selected per request.
    pub k: usize,
    /// Probe budget (`Some(0)` = RD-based selection without probing).
    pub max_probes: Option<usize>,
    /// Requests a worker drains into one batch.
    pub batch_window: usize,
    /// Request pattern.
    pub traffic: Traffic,
    /// Open-loop arrival rate, requests per second: a fifth or less of
    /// the saturation throughput this benchmark measured on the
    /// reference machine when it was added, frozen so later changes are
    /// measured at the same load (`README.md` says why not half).
    pub open_rate_qps: f64,
    /// Requests the traced replay walks.
    pub replay_requests: usize,
}

/// Every workload. `BENCHMARK.json` lists the first two; `wide_fleet`
/// runs on request only (`README.md` says why).
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "hot_hits",
        n_databases: 20,
        scale: 1.0,
        queries_per_arity: 1_000,
        k: 2,
        max_probes: None,
        batch_window: 8,
        traffic: Traffic::Zipf { pool: 512, s: 1.1 },
        open_rate_qps: 2_000.0,
        replay_requests: 2_000,
    },
    Spec {
        name: "cold_probe",
        n_databases: 20,
        scale: 1.0,
        queries_per_arity: 1_000,
        k: 2,
        max_probes: None,
        batch_window: 1,
        traffic: Traffic::Distinct,
        open_rate_qps: 52.0,
        replay_requests: 200,
    },
    Spec {
        name: "wide_fleet",
        n_databases: 200,
        scale: 0.03,
        queries_per_arity: 2_000,
        k: 3,
        max_probes: Some(0),
        batch_window: 1,
        traffic: Traffic::Distinct,
        open_rate_qps: 60.0,
        replay_requests: 200,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The testbed configuration.
    pub fn testbed_config(&self) -> TestbedConfig {
        let mut config = TestbedConfig::paper(TESTBED_SEED);
        config.scenario.n_databases = self.n_databases;
        config.scenario.scale = self.scale;
        config.n_two = self.queries_per_arity;
        config.n_three = self.queries_per_arity;
        config
    }

    /// The selection parameters every request of this workload uses.
    pub fn apro_config(&self) -> AproConfig {
        AproConfig {
            k: self.k,
            threshold: THRESHOLD,
            metric: CorrectnessMetric::Partial,
            max_probes: self.max_probes,
        }
    }

    /// The serving configuration: default caches, this workload's batch
    /// window.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::new(WORKERS, ServeConfig::default().cache_cap)
            .with_batch_window(self.batch_window)
    }
}

/// A set-up workload: the trained metasearcher, the server over it, and
/// the request key space.
pub struct Fixture {
    /// The workload.
    pub spec: Spec,
    /// The trained metasearcher the server shares.
    pub ms: Arc<Metasearcher>,
    /// The server under test.
    pub server: Server,
    /// Request keys: request `i` asks `queries[i]`.
    pub queries: Vec<Query>,
    /// The true top-k databases of each query.
    pub golden_topk: Vec<Vec<usize>>,
}

impl Fixture {
    /// Builds the testbed, trains the error distributions, draws the
    /// request keys from the test queries in seeded order, starts the
    /// server and, for cached traffic, warms the result cache. Returns
    /// the fixture and its set-up time.
    pub fn setup(spec: &Spec, seed: u64) -> (Self, Duration) {
        let start = Instant::now();
        let tb = Testbed::build(spec.testbed_config());
        let order = permutation(tb.split.test.len(), seed);
        let keep = match spec.traffic {
            Traffic::Zipf { pool, .. } => pool.min(order.len()),
            Traffic::Distinct => order.len(),
        };
        let test = tb.split.test.queries();
        let queries: Vec<Query> = order[..keep].iter().map(|&i| test[i].clone()).collect();
        let golden_topk = order[..keep]
            .iter()
            .map(|&i| tb.golden.topk(i, spec.k))
            .collect();
        let Testbed {
            mediator,
            library,
            estimator,
            config,
            ..
        } = tb;
        let ms =
            Metasearcher::with_library(mediator, estimator, config.relevancy, library).shared();
        let server = Server::new(Arc::clone(&ms), spec.serve_config());
        let fixture = Self {
            spec: *spec,
            ms,
            server,
            queries,
            golden_topk,
        };
        if matches!(spec.traffic, Traffic::Zipf { .. }) {
            let warm = fixture
                .server
                .serve_batch((0..fixture.queries.len()).map(|i| fixture.request(i)));
            assert!(
                warm.iter().all(Result::is_ok),
                "cache warm-up must serve every pool query"
            );
        }
        (fixture, start.elapsed())
    }

    /// The served request for key `i`.
    pub fn request(&self, i: usize) -> ServeRequest {
        let mut req = ServeRequest::new(self.queries[i].clone(), self.spec.k, THRESHOLD);
        req.max_probes = self.spec.max_probes;
        req
    }

    /// The reference answer for key `i`: a direct sequential search.
    pub fn reference(&self, i: usize) -> MetasearchResult {
        self.ms.search(
            &self.queries[i],
            self.spec.apro_config(),
            &mut GreedyPolicy,
            self.server.config().fuse_limit,
        )
    }
}

/// A seeded Fisher–Yates permutation of `0..n` (splitmix64 stream).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5EED_0FBE_4C4D;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = usize::try_from(next() % (i as u64 + 1)).expect("index fits usize");
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(100, 7);
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
            assert_eq!(find(a.name), Some(a));
        }
        assert_eq!(find("nope"), None);
    }
}
