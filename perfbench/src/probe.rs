//! Per-layer measurements for the traced runs.
//!
//! Every span is recorded here, around calls into a layer's public
//! functions; the program itself is not instrumented. A workload's own
//! request loop supplies the layers on its path (for example the
//! `server.*` timings of a service workload); the probes below supply
//! the rest on the workload's own graph and queries, so every workload
//! reports every per-layer metric.

use crate::check::{Mode, Query};
use crate::client::{field, Client};
use crate::stats::mean;
use crate::Rng;
use bigraph::{BipartiteGraph, Side, VertexId};
use fair_biclique::config::{Budget, FairParams, PruneKind, RunConfig, Substrate};
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use fair_biclique::{bfcore, cfcore, fcore, results, Biclique};
use fbe_service::engine::Engine;
use fbe_service::protocol::parse_request;
use fbe_service::server::Server;
use fbe_service::ServiceConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Raw per-layer samples, keyed by metric name.
#[derive(Default)]
pub struct Sheet(BTreeMap<&'static str, Vec<f64>>);

impl Sheet {
    /// Record one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Mean of a metric's samples (0 when none were taken).
    pub fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }

    /// Sum of a metric's samples.
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Number of samples of a metric.
    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }
}

/// Time the prune stages and the two enumeration thread counts of
/// `model` on `g`: core peel, 2-hop projection of the peeled core, the
/// full prune cascade, and `PreparedQuery::count` at 1 and (when the
/// host has the CPUs) 2 threads.
pub fn prune_and_count(
    g: &BipartiteGraph,
    model: QueryModel,
    plan: &PreparedQuery,
    two_threads: bool,
    sheet: &mut Sheet,
) {
    let p = model.base();
    let (peeled, d) = timed(|| {
        if model.is_bi_side() {
            bfcore::bfcore(g, p)
        } else {
            fcore::fcore(g, p)
        }
    });
    sheet.push("prune.core_peel_ms", ms(d));
    sheet.push("prune.input_edges", g.n_edges() as f64);
    let (_, d) = timed(|| {
        let core = &peeled.sub.graph;
        if model.is_bi_side() {
            black_box(bigraph::twohop::construct_2hop_biside(
                core,
                Side::Lower,
                p.alpha as usize,
            ))
        } else {
            black_box(bigraph::twohop::construct_2hop(
                core,
                Side::Lower,
                p.alpha as usize,
            ))
        }
    });
    sheet.push("prune.twohop_ms", ms(d));
    let (_, d) = timed(|| {
        black_box(if model.is_bi_side() {
            bfcore::bcfcore(g, p)
        } else {
            cfcore::cfcore(g, p)
        })
    });
    sheet.push("prune.cascade_ms", ms(d));
    let stats = plan.prune_stats();
    sheet.push(
        "prune.kept_edge_ratio",
        stats.edges_after as f64 / stats.edges_before.max(1) as f64,
    );
    let (t1, d) = timed(|| plan.count(&RunConfig::with_threads(1)));
    sheet.push("enumerate.t1_ms", ms(d));
    sheet.push("enumerate.nodes", t1.stats.nodes as f64);
    sheet.push("enumerate.emitted", t1.stats.emitted as f64);
    if two_threads {
        let (_, d) = timed(|| plan.count(&RunConfig::with_threads(2)));
        sheet.push("enumerate.t2_ms", ms(d));
    }
}

/// Time `results::canonical_order` and the per-result `Display` render
/// of `results` (left sorted).
pub fn sort_and_render(results: &mut [Biclique], sheet: &mut Sheet) {
    let (_, d) = timed(|| results::canonical_order(results));
    sheet.push("results.sort_ms", ms(d));
    let (bytes, d) = timed(|| results.iter().map(|b| b.to_string().len()).sum::<usize>());
    black_box(bytes);
    sheet.push("biclique.render_ms", ms(d));
}

/// The library layers of one service query as the engine runs it:
/// prepare, the prune and count breakdown, a collect capped at `limit`,
/// sort and render.
pub fn library_query(
    g: &BipartiteGraph,
    q: &Query,
    limit: u64,
    two_threads: bool,
    sheet: &mut Sheet,
) {
    let (plan, d) =
        timed(|| PreparedQuery::prepare(g, q.model, PruneKind::Colorful, Substrate::Auto));
    sheet.push("prepared.prepare_ms", ms(d));
    prune_and_count(g, q.model, &plan, two_threads, sheet);
    let mut report = plan.execute(&RunConfig {
        budget: Budget::results(limit),
        sorted: false,
        ..RunConfig::default()
    });
    sort_and_render(&mut report.bicliques, sheet);
}

/// Time one request line through `Engine::handle_line`, with the
/// protocol work around it: parsing the line and, for queries, writing
/// the reply. Returns the reply's status line.
pub fn engine_request(engine: &Engine, line: &str, sheet: &mut Sheet) -> String {
    let (parsed, d) = timed(|| parse_request(line));
    black_box(parsed.is_ok());
    sheet.push("protocol.parse_us", d.as_secs_f64() * 1e6);
    let (outcome, d) = timed(|| engine.handle_line(line));
    let reply = outcome.reply();
    if line.starts_with("ADDEDGE") || line.starts_with("DELEDGE") {
        sheet.push("catalog.update_ms", ms(d));
        return reply.status.clone();
    }
    sheet.push("engine.handle_ms", ms(d));
    let mut buf = Vec::new();
    let (_, d) = timed(|| {
        reply
            .write_to(&mut buf)
            .expect("writing to memory cannot fail")
    });
    sheet.push("protocol.reply_write_ms", ms(d));
    sheet.push("protocol.reply_bytes", buf.len() as f64);
    reply.status.clone()
}

/// Record the incremental-maintenance outcome of one update reply.
pub fn record_update(status: &str, sheet: &mut Sheet) {
    let num = |k| {
        field(status, k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    sheet.push(
        "incremental.stale",
        if num("cores_stale") > 0.0 { 1.0 } else { 0.0 },
    );
    sheet.push("plan_cache.invalidated", num("plans_invalidated"));
}

/// Plan-cache hit and miss counters of an in-process engine.
pub fn plan_counters(engine: &Engine) -> (u64, u64) {
    // Statistics only: no other data is published through them.
    (
        engine.metrics.plan_cache_hits.load(Ordering::Relaxed),
        engine.metrics.plan_cache_misses.load(Ordering::Relaxed),
    )
}

/// Record plan-cache behaviour between two counter snapshots.
pub fn record_plan_cache(before: (u64, u64), after: (u64, u64), sheet: &mut Sheet) {
    let hits = after.0 - before.0;
    let misses = after.1 - before.1;
    sheet.push(
        "plan_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    sheet.push("prepared.reprepare_count", misses as f64);
}

/// A seeded stream of `ADDEDGE`/`DELEDGE` pairs that leave the graph as
/// they found it. One pair in three lands inside a fair core, so it
/// touches cached plans; the rest join random vertex pairs.
pub struct UpdateStream {
    rng: Rng,
    n_upper: u64,
    n_lower: u64,
    core_upper: Vec<VertexId>,
    core_lower: Vec<VertexId>,
}

/// One update pair and the state the graph is in between its halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair {
    /// Upper endpoint.
    pub u: VertexId,
    /// Lower endpoint.
    pub v: VertexId,
    /// True when the first half adds the edge (the graph holds one
    /// extra edge in between); false when it deletes it.
    pub adds: bool,
}

impl Pair {
    /// The two request lines, in order.
    pub fn lines(&self, graph: &str) -> [String; 2] {
        let add = format!("ADDEDGE {graph} {} {}", self.u, self.v);
        let del = format!("DELEDGE {graph} {} {}", self.u, self.v);
        if self.adds {
            [add, del]
        } else {
            [del, add]
        }
    }

    /// The graph between the pair's halves.
    pub fn between(&self, g: &BipartiteGraph) -> BipartiteGraph {
        if self.adds {
            g.with_edge(self.u, self.v)
        } else {
            g.without_edge(self.u, self.v)
        }
        .expect("pair endpoints exist in the base graph")
    }
}

impl UpdateStream {
    /// Pairs over `g`, with core pairs drawn from the fair core of `core`.
    pub fn new(g: &BipartiteGraph, core: FairParams, seed: u64) -> UpdateStream {
        let peeled = cfcore::cfcore(g, core);
        UpdateStream {
            rng: Rng::new(seed),
            n_upper: g.n_upper() as u64,
            n_lower: g.n_lower() as u64,
            core_upper: peeled.sub.upper_to_parent.clone(),
            core_lower: peeled.sub.lower_to_parent.clone(),
        }
    }

    /// The next pair; `g` is the base graph the stream restores.
    pub fn next_pair(&mut self, g: &BipartiteGraph) -> Pair {
        let in_core =
            !self.core_upper.is_empty() && !self.core_lower.is_empty() && self.rng.below(3) == 0;
        let (u, v) = if in_core {
            let u = self.core_upper[self.rng.below(self.core_upper.len() as u64) as usize];
            let v = self.core_lower[self.rng.below(self.core_lower.len() as u64) as usize];
            (u, v)
        } else {
            (
                self.rng.below(self.n_upper) as VertexId,
                self.rng.below(self.n_lower) as VertexId,
            )
        };
        Pair {
            u,
            v,
            adds: !g.has_edge(u, v),
        }
    }
}

/// Apply `pairs` update pairs from `stream` through `engine`, after
/// caching plans for `warm` so that updates have cores to touch.
pub fn update_pairs(
    engine: &Engine,
    g: &BipartiteGraph,
    warm: &[String],
    stream: &mut UpdateStream,
    pairs: usize,
    sheet: &mut Sheet,
) -> Result<(), String> {
    for line in warm {
        let outcome = engine.handle_line(line);
        if !outcome.reply().is_ok() {
            return Err(format!("{line}: {}", outcome.reply().status));
        }
    }
    for _ in 0..pairs {
        for line in stream.next_pair(g).lines("g") {
            let status = engine_request(engine, &line, sheet);
            if !status.starts_with("OK") {
                return Err(format!("{line}: {status}"));
            }
            record_update(&status, sheet);
        }
    }
    Ok(())
}

/// A service instance serving on an ephemeral loopback port.
pub struct Node {
    /// `host:port`.
    pub addr: String,
    /// The instance's engine.
    pub engine: Arc<Engine>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Node {
    /// Bind and start serving.
    pub fn start(engine: Arc<Engine>) -> Result<Node, String> {
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&engine)).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("addr: {e}"))?
            .to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Node {
            addr,
            engine,
            handle,
        })
    }

    /// A coordinator over `shards`.
    pub fn coordinator(shards: &[Node]) -> Result<Node, String> {
        Node::start(Engine::new(ServiceConfig {
            shards: shards.iter().map(|s| s.addr.clone()).collect(),
            ..ServiceConfig::default()
        }))
    }
}

/// Stop `nodes` (front first: a coordinator forwards `SHUTDOWN` to its
/// shards) and join their threads.
pub fn stop(nodes: Vec<Node>) -> Result<(), String> {
    for n in &nodes {
        if !n.engine.is_shutdown() {
            if let Ok(mut c) = Client::connect(&n.addr) {
                let _ = c.call("SHUTDOWN");
            }
        }
    }
    for n in nodes {
        n.handle
            .join()
            .map_err(|_| format!("server {} panicked", n.addr))?
            .map_err(|e| format!("server {}: {e}", n.addr))?;
    }
    Ok(())
}

/// Cold service requests over loopback for a workload with no server
/// of its own: `engine.handle_ms` in-process and the client-observed
/// `server.*` timings, each with the plan cache cleared first.
pub fn server_cold(
    engine: &Arc<Engine>,
    lines: &[String],
    sheet: &mut Sheet,
) -> Result<(), String> {
    for line in lines {
        engine.clear_plans();
        let status = engine_request(engine, line, sheet);
        if !status.starts_with("OK") {
            return Err(format!("{line}: {status}"));
        }
    }
    let node = Node::start(Arc::clone(engine))?;
    let mut c = Client::connect(&node.addr).map_err(|e| e.to_string())?;
    for line in lines {
        engine.clear_plans();
        let x = c.call_ok(line)?;
        sheet.push("server.rtt_ms", ms(x.rtt));
        sheet.push("server.first_byte_ms", ms(x.first_byte));
        sheet.push("server.stream_ms", ms(x.stream()));
    }
    drop(c);
    stop(vec![node])
}

/// The round trip of `line` sent directly to each shard, one
/// connection at a time (so the client never holds more than two); the
/// slowest shard is the coordinator's floor.
pub fn slowest_shard_rtt(shards: &[String], line: &str) -> Result<Duration, String> {
    let mut slowest = Duration::ZERO;
    for addr in shards {
        let mut direct = Client::connect(addr).map_err(|e| e.to_string())?;
        slowest = slowest.max(direct.call_ok(line)?.rtt);
    }
    Ok(slowest)
}

/// Warm coordinator requests for a workload that runs no coordinator:
/// 2 shard servers plus a coordinator load the workload's graph file.
pub fn coordinator_probe(
    stem: &str,
    lines: &[String],
    rounds: usize,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let shards = vec![
        Node::start(Engine::new(ServiceConfig::default()))?,
        Node::start(Engine::new(ServiceConfig::default()))?,
    ];
    let front = Node::coordinator(&shards)?;
    let result = (|| {
        let mut c = Client::connect(&front.addr).map_err(|e| e.to_string())?;
        c.call_ok(&format!("LOAD g {stem} attrs=2,2"))?;
        for line in lines {
            c.call_ok(line)?;
        }
        let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
        for _ in 0..rounds {
            for line in lines {
                sheet.push("coordinator.rtt_ms", ms(c.call_ok(line)?.rtt));
                sheet.push(
                    "coordinator.shard_rtt_ms",
                    ms(slowest_shard_rtt(&addrs, line)?),
                );
            }
        }
        Ok(())
    })();
    let mut nodes = vec![front];
    nodes.extend(shards);
    stop(nodes)?;
    result
}

/// The collect, count-only and max lines of `queries` on graph `g`.
pub fn lines(queries: &[Query]) -> Vec<String> {
    queries.iter().map(|q| q.line("g")).collect()
}

/// Distinct models of a mix, each as a collect query.
pub fn distinct_collect(mix: &[Query]) -> Vec<Query> {
    let mut out: Vec<Query> = Vec::new();
    for q in mix {
        if !out.iter().any(|o| o.model == q.model) {
            out.push(Query {
                model: q.model,
                mode: Mode::Collect,
            });
        }
    }
    out
}
