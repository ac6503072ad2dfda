//! The service workloads: `serve-cached`, `update-mix` and
//! `sharded-fanout`. The measured servers run in a child process on
//! loopback ports (the traced run's replica and probes run in this
//! one); the graph reaches them as files written with `bigraph::io` and
//! a `LOAD`. Every client is a closed loop on its own connection.

use crate::check::{models, reference_results, reply_ok, Mode, Query, Reference};
use crate::child::ChildProc;
use crate::client::{field, Client, Exchange};
use crate::probe::{self, ms, Node, Pair, Sheet, UpdateStream};
use crate::stats::{median, tail, Tally};
use crate::{cpus, derive, Args, Report, Rng};
use bigraph::BipartiteGraph;
use fair_biclique::config::FairParams;
use fbe_datasets::corpus::{spec, Dataset, DatasetSpec};
use fbe_service::engine::Engine;
use fbe_service::ServiceConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service's default result cap for collect queries.
const LIMIT: u64 = 1000;

/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// about 10 ms, of which the server's accept poll adds 0–5 ms at random,
/// so it takes many to steady the median.
const SETUPS: usize = 15;

/// A directory inside the checkout for graph files, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    /// A fresh directory for `tag`.
    pub fn new(tag: &str) -> Result<DataDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Only this process names directories; the counter just keeps
        // them apart.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_build/perfbench-data")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }

    /// Write `g` as `<name>.edges/.uattr/.lattr`; returns the stem.
    pub fn write_graph(&self, name: &str, g: &BipartiteGraph) -> Result<String, String> {
        use std::io::Write;
        let stem = self.0.join(name);
        let write =
            |ext: &str, f: &dyn Fn(&mut dyn Write) -> std::io::Result<()>| -> Result<(), String> {
                let path = stem.with_extension(ext);
                let file =
                    std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let mut w = std::io::BufWriter::new(file);
                f(&mut w)
                    .and_then(|_| w.flush())
                    .map_err(|e| format!("{}: {e}", path.display()))
            };
        write("edges", &|w| bigraph::io::write_edge_list(g, w))?;
        write("uattr", &|w| {
            bigraph::io::write_attrs(g, bigraph::Side::Upper, w)
        })?;
        write("lattr", &|w| {
            bigraph::io::write_attrs(g, bigraph::Side::Lower, w)
        })?;
        Ok(stem.to_string_lossy().into_owned())
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An in-process engine holding graph `g` loaded from `stem`.
pub fn loaded_engine(stem: &str) -> Result<Arc<Engine>, String> {
    let engine = Engine::new(ServiceConfig::default());
    let line = format!("LOAD g {stem} attrs=2,2");
    let outcome = engine.handle_line(&line);
    if outcome.reply().is_ok() {
        Ok(engine)
    } else {
        Err(format!("{line}: {}", outcome.reply().status))
    }
}

/// The shape of one service workload.
struct Workload {
    name: &'static str,
    /// Shard servers behind a coordinator (0: a single server).
    shards: usize,
    /// Run the update writer beside the reader.
    writer: bool,
    /// Every reply must come from a cached plan.
    cached_only: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-cached",
        shards: 0,
        writer: false,
        cached_only: true,
    },
    Workload {
        name: "update-mix",
        shards: 0,
        writer: true,
        cached_only: false,
    },
    Workload {
        name: "sharded-fanout",
        shards: 2,
        writer: false,
        cached_only: false,
    },
];

fn youtube() -> DatasetSpec {
    spec(Dataset::Youtube)
}

/// Parameters of the uniform graph's queries (and its update core).
const SPARSE: FairParams = FairParams {
    alpha: 1,
    beta: 1,
    delta: 1,
};

impl Workload {
    fn graph(&self, seed: u64) -> BipartiteGraph {
        if self.shards > 0 {
            // Sparse enough that the 2-hop structure splits into many
            // components, so both shards hold work.
            bigraph::generate::random_uniform(600, 600, 1400, 2, 2, derive(seed, 200))
        } else {
            let mut s = youtube();
            s.seed = derive(seed, 200);
            s.build()
        }
    }

    /// One block of the request mix; the sequence is the blocks in
    /// seeded shuffles.
    fn block(&self) -> Vec<Query> {
        let q = |model, mode| Query { model, mode };
        if self.shards > 0 {
            let [ss, _, pss, _] = models((1, 1), (1, 1), SPARSE.delta, 0.4);
            vec![
                q(ss, Mode::Collect),
                q(pss, Mode::Collect),
                q(ss, Mode::Collect),
                q(pss, Mode::Collect),
                q(ss, Mode::Count),
                q(pss, Mode::Count),
            ]
        } else {
            // Mostly collect over all four models; count-only and max
            // on the single-side models, whose full searches are cheap.
            let s = youtube();
            let all = models(
                s.default_single,
                s.default_bi,
                s.default_delta,
                s.default_theta,
            );
            let mut v: Vec<Query> = all
                .iter()
                .chain(&all)
                .map(|&m| q(m, Mode::Collect))
                .collect();
            for m in [all[0], all[2]] {
                v.push(q(m, Mode::Count));
                v.push(q(m, Mode::MaxVertices));
            }
            v
        }
    }

    fn core_params(&self) -> FairParams {
        if self.shards > 0 {
            SPARSE
        } else {
            youtube().single_params()
        }
    }
}

/// The request sequence: seeded shuffles of the block, one after another.
struct Mix {
    block: Vec<Query>,
    order: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl Mix {
    fn new(block: Vec<Query>, seed: u64) -> Mix {
        Mix {
            order: Vec::new(),
            next: 0,
            rng: Rng::new(seed),
            block,
        }
    }

    fn next(&mut self) -> usize {
        if self.next == self.order.len() {
            self.order = (0..self.block.len()).collect();
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// First argument of the server process this binary re-executes as.
pub const SERVE_CHILD: &str = "--serve-child";

/// The server process: start one server, or `shards` shard servers and
/// a coordinator over them, print their addresses (front first) on one
/// line, and serve until standard input closes.
pub fn serve_child(shards: &str) -> Result<(), String> {
    use std::io::{Read, Write};
    let n: usize = shards
        .parse()
        .map_err(|e| format!("shard count {shards:?}: {e}"))?;
    let shard_nodes = (0..n)
        .map(|_| Node::start(Engine::new(ServiceConfig::default())))
        .collect::<Result<Vec<_>, _>>()?;
    let front = if n == 0 {
        Node::start(Engine::new(ServiceConfig::default()))?
    } else {
        Node::coordinator(&shard_nodes)?
    };
    let mut nodes = vec![front];
    nodes.extend(shard_nodes);
    let addrs: Vec<&str> = nodes.iter().map(|n| n.addr.as_str()).collect();
    let mut out = std::io::stdout();
    writeln!(out, "{}", addrs.join(" "))
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    // The parent closes the pipe to stop us, or dies.
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    probe::stop(nodes)
}

/// The server process of a service workload.
struct ServerProcess {
    proc: ChildProc,
    front: String,
    shards: Vec<String>,
}

impl ServerProcess {
    fn spawn(shards: usize) -> Result<ServerProcess, String> {
        let mut proc = ChildProc::spawn(&[SERVE_CHILD, &shards.to_string()])?;
        let line = proc.read_line()?;
        let mut addrs = line.split_whitespace().map(String::from);
        let front = addrs.next().unwrap_or_default();
        let shard_addrs: Vec<String> = addrs.collect();
        if front.is_empty() || shard_addrs.len() != shards {
            proc.stop()?;
            return Err(format!("server process announced {line:?}"));
        }
        Ok(ServerProcess {
            proc,
            front,
            shards: shard_addrs,
        })
    }
}

/// A running deployment with its client connection.
struct Live {
    server: ServerProcess,
    client: Client,
    stem: String,
    _data: DataDir,
}

impl Live {
    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.server.proc.stop()
    }

    /// Plan-cache hits and misses over the deployment, from `STATS` (a
    /// coordinator reports each shard's counters under a prefix).
    fn plan_counters(&self) -> Result<(u64, u64), String> {
        let x = Client::connect(&self.server.front)
            .map_err(|e| e.to_string())?
            .call_ok("STATS")?;
        let sum = |suffix: &str| -> u64 {
            x.payload
                .iter()
                .filter_map(|l| l.split_once(' '))
                .filter(|(k, _)| k.ends_with(suffix))
                .filter_map(|(_, v)| v.trim().parse::<u64>().ok())
                .sum()
        };
        Ok((sum("plan_cache_hits"), sum("plan_cache_misses")))
    }
}

/// Generate, write, start the server process, `LOAD`, and warm every
/// plan of the mix.
fn setup(w: &Workload, g: &BipartiteGraph, block: &[Query]) -> Result<Live, String> {
    let data = DataDir::new(w.name)?;
    let stem = data.write_graph("g", g)?;
    let server = ServerProcess::spawn(w.shards)?;
    let warm = (|| {
        // One short-lived connection per request, as a deployment script
        // would make them. Each waits out a random part of the server's
        // 5 ms accept poll; over a single connection the set-up time
        // would hinge on whether the first connect beat the accept loop.
        let once = |line: &str| -> Result<(), String> {
            let mut c = Client::connect(&server.front).map_err(|e| format!("connect: {e}"))?;
            c.call_ok(line).map(drop)
        };
        once(&format!("LOAD g {stem} attrs=2,2"))?;
        // A plan is keyed by model and parameters, not by output mode
        // or limit: one single-result query per model warms them all,
        // without the delayed-ACK stalls of full replies.
        for q in probe::distinct_collect(block) {
            once(&format!("{} limit=1", q.line("g")))?;
        }
        Client::connect(&server.front).map_err(|e| format!("connect: {e}"))
    })();
    match warm {
        Ok(client) => Ok(Live {
            server,
            client,
            stem,
            _data: data,
        }),
        Err(e) => {
            let _ = server.proc.stop();
            Err(e)
        }
    }
}

/// One read of the loop.
struct Read {
    query: usize,
    start: Instant,
    end: Instant,
    x: Exchange,
    ok: bool,
}

/// One update pair of the writer.
struct Update {
    pair: Pair,
    start: Instant,
    end: Instant,
    rtt_ms: [f64; 2],
    status: [String; 2],
}

/// The reader: the mix, closed loop, until `until`.
fn read_loop(
    client: &mut Client,
    mix: &mut Mix,
    refs: &[Reference],
    ref_of: &[usize],
    cached_only: bool,
    until: Instant,
    mut after: impl FnMut(&Query, &Exchange) -> Result<(), String>,
) -> Result<Vec<Read>, String> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let i = mix.next();
        let q = mix.block[i];
        let start = Instant::now();
        let mut x = client
            .call(&q.line("g"))
            .map_err(|e| format!("read: {e}"))?;
        let end = Instant::now();
        let ok = reply_ok(&refs[ref_of[i]], q.mode, LIMIT, &x.status, &x.payload)
            && (!cached_only || field(&x.status, "cached") == Some("true"));
        after(&q, &x)?;
        if ok {
            // Only a failed read is looked at again.
            x.payload = Vec::new();
        }
        out.push(Read {
            query: i,
            start,
            end,
            x,
            ok,
        });
    }
    Ok(out)
}

/// The writer's pause after each update pair. Without it the writer's
/// closed loop keeps both CPUs of a 2-CPU host busy on its own, and the
/// reader's figures swing by 2× from run to run with where the
/// scheduler happens to put the threads.
const WRITER_THINK: Duration = Duration::from_millis(1);

/// The writer: update pairs, closed loop with a think time, until `until`.
fn write_loop(
    client: &mut Client,
    stream: &mut UpdateStream,
    g: &BipartiteGraph,
    until: Instant,
) -> Result<Vec<Update>, String> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let pair = stream.next_pair(g);
        let start = Instant::now();
        let mut rtt_ms = [0.0; 2];
        let mut status: [String; 2] = Default::default();
        for (k, line) in pair.lines("g").iter().enumerate() {
            let x = client.call(line).map_err(|e| format!("update: {e}"))?;
            rtt_ms[k] = ms(x.rtt);
            status[k] = x.status;
        }
        out.push(Update {
            pair,
            start,
            end: Instant::now(),
            rtt_ms,
            status,
        });
        std::thread::sleep(WRITER_THINK);
    }
    Ok(out)
}

/// Everything one measured phase produced.
struct Phase {
    reads: Vec<Read>,
    updates: Vec<Update>,
    /// Wall time of the phase.
    wall: Duration,
}

/// Run the reader (and, for `update-mix`, the writer on a second
/// connection) for `seconds`.
#[allow(clippy::too_many_arguments)]
fn phase(
    w: &Workload,
    live: &mut Live,
    g: &BipartiteGraph,
    mix: &mut Mix,
    refs: &[Reference],
    ref_of: &[usize],
    stream: &mut UpdateStream,
    seconds: Duration,
    after: impl FnMut(&Query, &Exchange) -> Result<(), String>,
) -> Result<Phase, String> {
    let t0 = Instant::now();
    let until = t0 + seconds;
    let client = &mut live.client;
    let (reads, updates) = if w.writer {
        let mut writer =
            Client::connect(&live.server.front).map_err(|e| format!("connect: {e}"))?;
        std::thread::scope(|s| {
            let wh = s.spawn(|| write_loop(&mut writer, stream, g, until));
            let reads = read_loop(client, mix, refs, ref_of, w.cached_only, until, after);
            let updates = wh.join().map_err(|_| "writer panicked".to_string())?;
            Ok::<_, String>((reads?, updates?))
        })?
    } else {
        (
            read_loop(client, mix, refs, ref_of, w.cached_only, until, after)?,
            Vec::new(),
        )
    };
    Ok(Phase {
        reads,
        updates,
        wall: t0.elapsed(),
    })
}

/// Re-check the reads that disagree with the base graph's reference
/// against the graph as it stood between the halves of each update
/// pair that overlapped the read: a read may see either state.
fn recheck(phase: &mut Phase, g: &BipartiteGraph, block: &[Query]) {
    let mut memo: HashMap<(Pair, usize), Reference> = HashMap::new();
    for r in phase.reads.iter_mut().filter(|r| !r.ok) {
        let q = block[r.query];
        let model_ix = block
            .iter()
            .position(|b| b.model == q.model)
            .expect("query is in its block");
        let overlapping = phase
            .updates
            .iter()
            .filter(|u| u.start < r.end && r.start < u.end);
        for u in overlapping {
            let reference = memo
                .entry((u.pair, model_ix))
                .or_insert_with(|| Reference::new(&reference_results(&u.pair.between(g), q.model)));
            if reply_ok(reference, q.mode, LIMIT, &r.x.status, &r.x.payload) {
                r.ok = true;
                break;
            }
        }
    }
}

/// Entry point of the service workloads.
pub fn run(name: &str, args: &Args) -> Result<Report, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("known workload");
    if w.writer && cpus() < 2 {
        return Err("skipped: host has 1 CPU, update-mix needs 2 connections on 2 CPUs".into());
    }
    let block = w.block();
    let g = w.graph(args.seed);
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..(if args.trace { 1 } else { SETUPS }) {
        let t0 = Instant::now();
        let l = setup(w, &w.graph(args.seed), &block)?;
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS && !args.trace {
            l.stop()?;
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("one set-up is kept");

    // References per distinct model, outside every timed region.
    let mut ref_of = Vec::new();
    let mut refs: Vec<Reference> = Vec::new();
    let mut models_seen = Vec::new();
    for q in &block {
        let k = match models_seen.iter().position(|m| *m == q.model) {
            Some(k) => k,
            None => {
                models_seen.push(q.model);
                refs.push(Reference::new(&reference_results(&g, q.model)));
                refs.len() - 1
            }
        };
        ref_of.push(k);
    }
    let mut mix = Mix::new(block.clone(), derive(args.seed, 300));
    let mut stream = UpdateStream::new(&g, w.core_params(), derive(args.seed, 400));

    let mut report = Report::default();
    let result = if args.trace {
        traced(
            w,
            &mut live,
            &g,
            &mut mix,
            &refs,
            &ref_of,
            &mut stream,
            args,
            &mut report,
        )
    } else {
        untraced(
            w,
            &mut live,
            &g,
            &mut mix,
            &refs,
            &ref_of,
            &mut stream,
            args,
            &mut report,
        )
        .map(|_| {
            report.metric("setup_s", median(&setups));
            report.detail("setups", setups.len() as f64);
        })
    };
    let stopped = live.stop();
    result.and(stopped).map(|_| report)
}

fn tally(phase: &Phase) -> Tally {
    let mut t = Tally::default();
    for r in &phase.reads {
        t.record(r.ok);
    }
    for u in &phase.updates {
        // Each half of a pair is one request.
        for s in &u.status {
            t.record(s.starts_with("OK"));
        }
    }
    t
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    w: &Workload,
    live: &mut Live,
    g: &BipartiteGraph,
    mix: &mut Mix,
    refs: &[Reference],
    ref_of: &[usize],
    stream: &mut UpdateStream,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let mut p = phase(
        w,
        live,
        g,
        mix,
        refs,
        ref_of,
        stream,
        args.seconds,
        |_, _| Ok(()),
    )?;
    recheck(&mut p, g, &mix.block);
    report.tally = tally(&p);
    let lat: Vec<f64> = p.reads.iter().map(|r| ms(r.x.rtt)).collect();
    if lat.is_empty() {
        return Err("no request completed".into());
    }
    let t = tail(&lat);
    report.metric("latency_tail_ms", t.value);
    report.metric(
        "throughput_qps",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
    );
    report.metric("peak_rss_mb", live.server.proc.peak_rss_mb());
    report.detail("latency_p50_ms", median(&lat));
    report.tail_detail("latency_tail_ms", &t);
    report.detail("reads", lat.len() as f64);
    report.detail("wall_s", p.wall.as_secs_f64());
    if w.writer {
        let up: Vec<f64> = p.updates.iter().flat_map(|u| u.rtt_ms).collect();
        if !up.is_empty() {
            let t = tail(&up);
            report.detail("update_p50_ms", median(&up));
            report.tail_detail("update_tail_ms", &t);
            report.detail(
                "update_ups",
                up.len() as f64 / (up.iter().sum::<f64>() / 1e3),
            );
            report.detail("updates", up.len() as f64);
        }
    }
    Ok(())
}

/// The traced run: an untraced half and a traced half of the loop,
/// client-side timings of the traced half, a replay of its requests
/// through an in-process replica engine, and probes of the layers the
/// workload does not pass through.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    live: &mut Live,
    g: &BipartiteGraph,
    mix: &mut Mix,
    refs: &[Reference],
    ref_of: &[usize],
    stream: &mut UpdateStream,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let half = args.seconds / 2;
    let mut a = phase(w, live, g, mix, refs, ref_of, stream, half, |_, _| Ok(()))?;
    recheck(&mut a, g, &mix.block);
    report.tally.absorb(tally(&a));

    let mut sheet = Sheet::default();
    let before = live.plan_counters()?;
    let shards = live.server.shards.clone();
    let mut b = phase(w, live, g, mix, refs, ref_of, stream, half, |q, x| {
        if shards.is_empty() {
            return Ok(());
        }
        sheet.push("coordinator.rtt_ms", ms(x.rtt));
        let floor = probe::slowest_shard_rtt(&shards, &q.line("g"))?;
        sheet.push("coordinator.shard_rtt_ms", ms(floor));
        Ok(())
    })?;
    probe::record_plan_cache(before, live.plan_counters()?, &mut sheet);
    recheck(&mut b, g, &mix.block);
    report.tally.absorb(tally(&b));
    for r in &b.reads {
        sheet.push("server.rtt_ms", ms(r.x.rtt));
        sheet.push("server.first_byte_ms", ms(r.x.first_byte));
        sheet.push("server.stream_ms", ms(r.x.stream()));
        // The engine's own time for the query, as its reply reports it.
        let elapsed_us = field(&r.x.status, "elapsed_us").and_then(|v| v.parse::<f64>().ok());
        sheet.push("server.engine_ms", elapsed_us.unwrap_or(0.0) / 1e3);
    }
    for u in &b.updates {
        for s in &u.status {
            probe::record_update(s, &mut sheet);
        }
    }
    let qps = |p: &Phase| {
        p.reads.len() as f64 / p.reads.iter().map(|r| r.x.rtt.as_secs_f64()).sum::<f64>()
    };
    sheet.push("trace.overhead_ratio", qps(&a) / qps(&b));

    // Replay the traced half, in completion order, through a replica
    // in the same state: the server's engine for one server, a second
    // coordinator over the same shards for the sharded deployment.
    let lines = probe::lines(&probe::distinct_collect(&mix.block));
    let replica = if shards.is_empty() {
        let e = loaded_engine(&live.stem)?;
        for q in &mix.block {
            e.handle_line(&q.line("g"));
        }
        e
    } else {
        Engine::new(ServiceConfig {
            shards: shards.clone(),
            ..ServiceConfig::default()
        })
    };
    let mut replay: Vec<(Instant, String)> = b
        .reads
        .iter()
        .map(|r| (r.end, mix.block[r.query].line("g")))
        .collect();
    for u in &b.updates {
        let [first, second] = u.pair.lines("g");
        replay.push((u.start, first));
        replay.push((u.end, second));
    }
    replay.sort_by_key(|(t, _)| *t);
    for (_, line) in &replay {
        probe::engine_request(&replica, line, &mut sheet);
    }
    sheet.push(
        "unattributed_ms",
        sheet.mean("server.rtt_ms")
            - sheet.mean("server.engine_ms")
            - sheet.mean("server.stream_ms"),
    );
    if !w.writer {
        // Updates off the workload's path, on an engine of their own
        // (a coordinator refuses them).
        let e = loaded_engine(&live.stem)?;
        probe::update_pairs(&e, g, &lines, stream, 10, &mut sheet)?;
    }

    // Library layers of the mix's models.
    for _ in 0..2 {
        for q in probe::distinct_collect(&mix.block) {
            probe::library_query(g, &q, LIMIT, cpus() >= 2, &mut sheet);
        }
    }
    if shards.is_empty() {
        probe::coordinator_probe(&live.stem, &lines, 2, &mut sheet)?;
    }
    layer_metrics(&sheet, report);
    report.detail("traced_reads", b.reads.len() as f64);
    report.detail("traced_updates", (2 * b.updates.len()) as f64);
    Ok(())
}

/// Turn a run's samples into the per-layer metrics.
pub fn layer_metrics(s: &Sheet, report: &mut Report) {
    for name in [
        "prune.core_peel_ms",
        "prune.twohop_ms",
        "prune.cascade_ms",
        "prune.kept_edge_ratio",
        "prepared.prepare_ms",
        "enumerate.t1_ms",
        "enumerate.nodes",
        "enumerate.emitted",
        "results.sort_ms",
        "biclique.render_ms",
        "protocol.reply_write_ms",
        "protocol.reply_bytes",
        "protocol.parse_us",
        "engine.handle_ms",
        "plan_cache.hit_ratio",
        "server.rtt_ms",
        "server.first_byte_ms",
        "server.stream_ms",
        "catalog.update_ms",
        "prepared.reprepare_count",
        "coordinator.rtt_ms",
        "coordinator.shard_rtt_ms",
        "trace.overhead_ratio",
        "unattributed_ms",
    ] {
        report.metric(name, s.mean(name));
    }
    if s.count("enumerate.t2_ms") > 0 {
        report.metric("enumerate.t2_ms", s.mean("enumerate.t2_ms"));
        report.metric(
            "parallel.speedup_t2",
            s.mean("enumerate.t1_ms") / s.mean("enumerate.t2_ms"),
        );
    }
    report.metric(
        "prune.core_peel_ns_per_edge",
        s.sum("prune.core_peel_ms") * 1e6 / s.sum("prune.input_edges"),
    );
    report.metric(
        "prepared.plan_resolve_ms",
        s.mean("prepared.prepare_ms") - s.mean("prune.cascade_ms"),
    );
    report.metric(
        "enumerate.yield_ratio",
        s.sum("enumerate.emitted") / s.sum("enumerate.nodes"),
    );
    report.metric(
        "server.wire_ms",
        s.mean("server.rtt_ms") - s.mean("engine.handle_ms"),
    );
    report.metric("incremental.stale_ratio", s.mean("incremental.stale"));
    report.metric(
        "plan_cache.invalidated_per_update",
        s.mean("plan_cache.invalidated"),
    );
    report.metric(
        "coordinator.overhead_ms",
        s.mean("coordinator.rtt_ms") - s.mean("coordinator.shard_rtt_ms"),
    );
}
