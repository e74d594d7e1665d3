//! Per-layer metrics from the traced replay.
//!
//! The replay walks a fixed prefix of the open-loop requests on one
//! thread, three ways:
//!
//! 1. through the server with one request outstanding — its wall time
//!    minus the engine's wall time for the same request is the serving
//!    layer's self time (a cache hit runs no engine at all);
//! 2. through `Metasearcher::search` untraced — the engine's wall time
//!    and the reference answer;
//! 3. through the composed layer calls of [`crate::replay`] with a span
//!    around each call — the per-layer self times, whose sum falls short
//!    of (2) by the unattributed residual.
//!
//! Engine layers are charged only for requests the server computed, so
//! the shares describe what the served program did on this workload.

use std::collections::BTreeMap;
use std::time::Instant;

use mp_core::GreedyPolicy;
use mp_serve::{CacheStatus, ServeStats, Ticket};

use crate::replay::{composed, layer, same_answer, Tally};
use crate::report::{metric, Metric};
use crate::spans::{Recorder, Total};
use crate::workload::{Fixture, Traffic};

/// Serving-layer counters over the measured phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeDelta {
    /// Requests completed.
    pub completed: u64,
    /// Result-cache hits plus single-flight joins.
    pub hits_and_joins: u64,
    /// RD-cache hits.
    pub rd_hits: u64,
    /// RD-cache lookups.
    pub rd_lookups: u64,
    /// Multi-request batches executed.
    pub batches: u64,
    /// Requests in those batches.
    pub batched_requests: u64,
    /// Admission-control rejections.
    pub rejects: u64,
    /// SLO sheds.
    pub sheds: u64,
    /// Deadline misses.
    pub deadline_misses: u64,
}

impl ServeDelta {
    /// Counter growth from `before` to `after`.
    pub fn between(before: &ServeStats, after: &ServeStats) -> Self {
        Self {
            completed: after.completed - before.completed,
            hits_and_joins: (after.hits + after.dedup_joins) - (before.hits + before.dedup_joins),
            rd_hits: after.rd_hits - before.rd_hits,
            rd_lookups: (after.rd_hits + after.rd_misses) - (before.rd_hits + before.rd_misses),
            batches: after.batches - before.batches,
            batched_requests: after.batched_requests - before.batched_requests,
            rejects: after.rejects - before.rejects,
            sheds: after.sheds - before.sheds,
            deadline_misses: after.deadline_misses - before.deadline_misses,
        }
    }
}

/// Figures from the served run that the per-layer report carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedFigures {
    /// p90 of the latency from due, open-loop phase.
    pub latency_p90_ms: f64,
    /// p99 of the latency from due, open-loop phase.
    pub latency_p99_ms: f64,
    /// p99 of submit instant − due, open-loop phase.
    pub lag_p99_ms: f64,
    /// p50 of `ServeResponse::latency_us`, open-loop phase.
    pub serve_p50_ms: f64,
    /// Mean probes per distinct open-loop request.
    pub probes_per_query: f64,
    /// Serving counters over both phases.
    pub delta: ServeDelta,
}

/// One composed request's measurements.
struct Composed {
    direct_ns: u64,
    root_ns: u64,
    children_ns: u64,
    totals: BTreeMap<&'static str, Total>,
    tally: Tally,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced replay over `keys` and assembles every per-layer
/// metric. An answer that differs between the served, direct and
/// composed paths is an error.
pub fn measure(fx: &Fixture, keys: &[usize], served: ServedFigures) -> Result<Vec<Metric>, String> {
    if fx.spec.traffic == Traffic::Distinct {
        // The served run cached these answers; the replay must miss the
        // way the served requests did.
        fx.server.clear_cache();
    }
    let cfg = fx.spec.apro_config();
    let fuse_limit = fx.server.config().fuse_limit;

    // (1) One request outstanding through the server.
    let one_by_one: Vec<_> = fx.server.run(|client| {
        keys.iter()
            .map(|&k| {
                let start = Instant::now();
                let r = client.submit(fx.request(k)).and_then(Ticket::wait);
                (start.elapsed(), r)
            })
            .collect()
    });

    // (2) + (3) once per distinct key, alternating which goes first.
    let mut per_key: BTreeMap<usize, Composed> = BTreeMap::new();
    for (n, &k) in keys.iter().enumerate() {
        if per_key.contains_key(&k) {
            continue;
        }
        let q = &fx.queries[k];
        let mut rec = Recorder::new();
        let mut tally = Tally::default();
        let time_direct = || {
            let start = Instant::now();
            let answer = fx.ms.search(q, cfg, &mut GreedyPolicy, fuse_limit);
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (answer, ns)
        };
        let ((direct, direct_ns), (mine, root)) = if n % 2 == 0 {
            let d = time_direct();
            (
                d,
                composed(&fx.ms, q, cfg, fuse_limit, &mut rec, &mut tally),
            )
        } else {
            let c = composed(&fx.ms, q, cfg, fuse_limit, &mut rec, &mut tally);
            (time_direct(), c)
        };
        if !same_answer(&direct, &mine) {
            return Err(format!(
                "composed layers disagree with search on request {k}"
            ));
        }
        let root_ns = rec.spans()[root].duration_ns();
        per_key.insert(
            k,
            Composed {
                direct_ns,
                root_ns,
                children_ns: root_ns - rec.self_ns(root),
                totals: rec.totals(),
                tally,
            },
        );
        let (_, served_answer) = &one_by_one[n];
        match served_answer {
            Ok(resp) if same_answer(&resp.result, &direct) => {}
            Ok(_) => return Err(format!("served answer differs from search on request {k}")),
            Err(e) => return Err(format!("replayed request {k} failed: {e}")),
        }
    }

    // Aggregate over the replayed requests.
    let r = keys.len() as f64;
    let mut serve_self_ns = 0.0;
    let mut engine_ns = 0.0;
    let mut unattributed_ns = 0.0;
    let mut layer_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tally = Tally::default();
    for (&k, (elapsed, resp)) in keys.iter().zip(&one_by_one) {
        let c = &per_key[&k];
        let wall = elapsed.as_nanos() as f64;
        let computed = matches!(
            resp.as_ref().map(|x| x.cache),
            Ok(CacheStatus::Miss | CacheStatus::Bypass)
        );
        let engine = if computed { c.direct_ns as f64 } else { 0.0 };
        serve_self_ns += (wall - engine).max(0.0);
        if computed {
            engine_ns += c.root_ns as f64;
            unattributed_ns += c.direct_ns as f64 - c.children_ns as f64;
            for (name, t) in &c.totals {
                *layer_ns.entry(name).or_default() += t.self_ns as f64;
                *calls.entry(name).or_default() += t.calls as f64;
            }
            tally.requests += c.tally.requests;
            tally.satisfied += c.tally.satisfied;
            tally.rd_support += c.tally.rd_support;
            tally.rds += c.tally.rds;
            tally.match_count += c.tally.match_count;
            tally.responses += c.tally.responses;
        }
    }
    let wall_ns = serve_self_ns + engine_ns;
    let root_all: f64 = per_key.values().map(|c| c.root_ns as f64).sum();
    let direct_all: f64 = per_key.values().map(|c| c.direct_ns as f64).sum();

    let us = |ns: f64| ns / r / 1_000.0;
    let share = |ns: f64| ratio(ns, wall_ns) * 100.0;
    let layer = |name: &str| layer_ns.get(name).copied().unwrap_or(0.0);
    let per_req = |name: &str| calls.get(name).copied().unwrap_or(0.0) / r;
    let d = served.delta;
    let mut out = vec![
        metric("open_loop.latency_p90_ms", served.latency_p90_ms, "ms"),
        metric("open_loop.latency_p99_ms", served.latency_p99_ms, "ms"),
        metric("driver.lag_p99_ms", served.lag_p99_ms, "ms"),
        metric("serve.self_us", us(serve_self_ns), "us"),
        metric("serve.self_share", share(serve_self_ns), "%"),
        metric(
            "serve.hit_ratio",
            ratio(d.hits_and_joins as f64, d.completed as f64),
            "ratio",
        ),
        metric(
            "serve.rd_hit_ratio",
            ratio(d.rd_hits as f64, d.rd_lookups as f64),
            "ratio",
        ),
        metric(
            "serve.batch_mean",
            if d.batches == 0 {
                1.0
            } else {
                d.batched_requests as f64 / d.batches as f64
            },
            "count",
        ),
        metric("serve.rejects", d.rejects as f64, "count"),
        metric("serve.sheds", d.sheds as f64, "count"),
        metric("serve.deadline_misses", d.deadline_misses as f64, "count"),
        metric("serve.latency_p50_ms", served.serve_p50_ms, "ms"),
    ];
    for (name_us, name_share, span) in [
        ("core.estimate_us", "core.estimate_share", layer::ESTIMATE),
        ("core.rd_us", "core.rd_share", layer::RD),
        ("apro.begin_us", "apro.begin_share", layer::BEGIN),
        ("apro.apply_us", "apro.apply_share", layer::APPLY),
        ("apro.scan_us", "apro.scan_share", layer::SCAN),
        ("hidden.probe_us", "hidden.probe_share", layer::PROBE),
        (
            "hidden.dispatch_us",
            "hidden.dispatch_share",
            layer::DISPATCH,
        ),
        ("core.fusion_us", "core.fusion_share", layer::FUSION),
    ] {
        out.push(metric(name_us, us(layer(span)), "us"));
        out.push(metric(name_share, share(layer(span)), "%"));
    }
    out.extend([
        metric("apro.apply_calls", per_req(layer::APPLY), "count"),
        metric("apro.scan_calls", per_req(layer::SCAN), "count"),
        metric("hidden.probe_calls", per_req(layer::PROBE), "count"),
        metric("hidden.dispatch_calls", per_req(layer::DISPATCH), "count"),
        metric(
            "apro.satisfied_frac",
            ratio(tally.satisfied as f64, tally.requests as f64),
            "ratio",
        ),
        metric("apro.probes_per_query", served.probes_per_query, "count"),
        metric(
            "core.rd_support_mean",
            ratio(tally.rd_support as f64, tally.rds as f64),
            "count",
        ),
        metric(
            "hidden.match_count_mean",
            ratio(tally.match_count, tally.responses as f64),
            "count",
        ),
        metric("core.unattributed_us", us(unattributed_ns), "us"),
        metric("core.unattributed_share", share(unattributed_ns), "%"),
        metric(
            "trace.overhead_pct",
            ratio(root_all - direct_all, direct_all) * 100.0,
            "%",
        ),
    ]);
    Ok(out)
}
