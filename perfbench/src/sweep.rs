//! `paper-sweep`: the paper's own experiment as library calls on the
//! DBLP analog. It runs by name; `BENCHMARK.json` does not list it, as
//! its CPU-bound figures follow the host's drifting speed (`README.md`).
//!
//! Every request is cold: `PreparedQuery::prepare` (colorful cascade,
//! `Auto` substrate) and then an unsorted, unlimited collect, at 1 or 2
//! threads in alternation. The query set is the four models at the
//! Table I defaults and one step either side in α and β. The bi-side
//! models skip α − 1, which takes seconds per query and would dwarf the
//! rest.
//!
//! Bi-side costs swing 2–3× between seeds of one graph, so a run does
//! not stay on one graph: it sweeps graph after graph, each derived
//! from the seed and each in a fresh request process, until it has
//! measured `--seconds` of requests.

use crate::check::{models, reference_results, Digest};
use crate::child::ChildProc;
use crate::probe::{self, ms, timed, Sheet};
use crate::stats::{median, tail};
use crate::{cpus, derive, Args, Report};
use bigraph::BipartiteGraph;
use fair_biclique::config::{PruneKind, RunConfig, Substrate};
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use fair_biclique::Biclique;
use fbe_datasets::corpus::{spec, Dataset, DatasetSpec};
use std::time::{Duration, Instant};

/// Set-ups of the first graph per untraced run. A set-up starts a
/// request process and generates its graph; every later graph's start
/// is one more, and `setup_s` is the median of all of them, taken over
/// the whole run so that a brief stall of the host moves it little.
const SETUPS: usize = 5;

fn dblp() -> DatasetSpec {
    spec(Dataset::Dblp)
}

/// The DBLP analog with its seed overridden by input `k` of `seed`.
fn graph(seed: u64, k: usize) -> BipartiteGraph {
    let mut s = dblp();
    s.seed = derive(seed, 100 + k as u64);
    s.build()
}

/// The sweep's queries, in request order.
fn queries() -> Vec<QueryModel> {
    let s = dblp();
    let steps = [(0i32, 0i32), (-1, 0), (1, 0), (0, -1), (0, 1)];
    let mut out = Vec::new();
    for (da, db) in steps {
        let at = |(a, b): (u32, u32)| ((a as i32 + da) as u32, (b as i32 + db) as u32);
        let [ss, bs, pss, pbs] = models(
            at(s.default_single),
            at(s.default_bi),
            s.default_delta,
            s.default_theta,
        );
        out.extend([ss, pss]);
        if da >= 0 {
            out.extend([bs, pbs]);
        }
    }
    out
}

/// Thread count of the `query`-th query: 1 and 2 alternating by pairs.
/// [`queries`] lists each step's models in pairs (SSFBC and PSSFBC,
/// then BSFBC and PBSFBC), so every model runs at both counts, and every
/// graph gets the same assignment: a graph-dependent one would make the
/// per-graph figures bimodal.
fn threads(query: usize, max_threads: usize) -> usize {
    if max_threads >= 2 {
        1 + (query / 2) % 2
    } else {
        1
    }
}

/// The timed request: cold prepare, then an unsorted collect.
fn request(
    g: &BipartiteGraph,
    model: QueryModel,
    threads: usize,
) -> (PreparedQuery, Vec<Biclique>, Duration, Duration) {
    let (plan, prepare) =
        timed(|| PreparedQuery::prepare(g, model, PruneKind::Colorful, Substrate::Auto));
    let (report, execute) = timed(|| {
        plan.execute(&RunConfig {
            threads,
            sorted: false,
            ..RunConfig::default()
        })
    });
    (plan, report.bicliques, prepare, execute)
}

/// Reference digests of every query on `g`, on two threads (nothing
/// is being timed meanwhile).
fn references(g: &BipartiteGraph, queries: &[QueryModel]) -> Vec<Digest> {
    let half = |parity: usize| -> Vec<(usize, Digest)> {
        (parity..queries.len())
            .step_by(2)
            .map(|i| (i, Digest::of_sorted(&reference_results(g, queries[i]))))
            .collect()
    };
    let mut all = std::thread::scope(|s| {
        let odd = s.spawn(|| half(1));
        let mut even = half(0);
        even.extend(odd.join().expect("reference thread panicked"));
        even
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, d)| d).collect()
}

/// First argument of the process that runs the sweep's requests.
pub const SWEEP_CHILD: &str = "--sweep-child";

/// The request process of one graph: `--sweep-child <seed> <k> <max
/// threads>`. It generates graph `k` and prints `ready`; on a line from
/// its input it runs every query on the graph and prints, per request,
/// the request time in ns and the digest of its results, then its peak
/// RSS in MB. It exits without running when its input closes first.
pub fn sweep_child(seed: &str, k: &str, max_threads: &str) -> Result<(), String> {
    use std::io::{BufRead, Write};
    let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
    let (seed, k, max_threads) = (num(seed)?, num(k)? as usize, num(max_threads)? as usize);
    let g = graph(seed, k);
    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "ready")
        .and_then(|_| out.flush())
        .map_err(io)?;
    if std::io::stdin()
        .lock()
        .read_line(&mut String::new())
        .map_err(io)?
        == 0
    {
        return Ok(());
    }
    for (q, &model) in queries().iter().enumerate() {
        let t0 = Instant::now();
        let (_, mut results, _, _) = request(&g, model, threads(q, max_threads));
        let d = t0.elapsed();
        let digest = Digest::encode(Digest::of_unsorted(&mut results));
        writeln!(out, "{} {digest}", d.as_nanos()).map_err(io)?;
    }
    writeln!(out, "{}", crate::peak_rss_mb(None))
        .and_then(|_| out.flush())
        .map_err(io)
}

/// Start the request process of graph `k` and wait until it is ready.
fn spawn_runner(seed: u64, k: usize, max_threads: usize) -> Result<ChildProc, String> {
    let mut p = ChildProc::spawn(&[
        SWEEP_CHILD,
        &seed.to_string(),
        &k.to_string(),
        &max_threads.to_string(),
    ])?;
    match p.read_line()?.as_str() {
        "ready" => Ok(p),
        other => Err(format!("request process said {other:?}")),
    }
}

/// Entry point of the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let max_threads = cpus().min(2);
    let mut report = Report::default();
    if max_threads < 2 {
        report
            .skipped
            .extend(["enumerate.t2_ms".into(), "parallel.speedup_t2".into()]);
        report.detail.push((
            "skip_reason".into(),
            "\"host has 1 CPU: 2-thread cells skipped\"".into(),
        ));
    }
    let qs = queries();
    if args.trace {
        traced(args, &qs, max_threads, &mut report)?;
        return Ok(report);
    }

    let mut setups = Vec::new();
    let mut first = None;
    for _ in 0..SETUPS {
        if let Some(old) = first.take() {
            ChildProc::stop(old)?;
        }
        let (p, d) = timed(|| spawn_runner(args.seed, 0, max_threads));
        setups.push(d.as_secs_f64());
        first = Some(p?);
    }
    let mut lat = Vec::new();
    let mut graph_qps = Vec::new();
    let mut peaks = Vec::new();
    let mut busy = Duration::ZERO;
    let mut k = 0;
    while busy < args.seconds {
        let refs = references(&graph(args.seed, k), &qs);
        // A fresh process per graph: its peak RSS is that graph's alone.
        let mut runner = match first.take() {
            Some(p) => p,
            None => {
                let (p, d) = timed(|| spawn_runner(args.seed, k, max_threads));
                setups.push(d.as_secs_f64());
                p?
            }
        };
        runner.send_line("go")?;
        let mut graph_busy = Duration::ZERO;
        for want in &refs {
            let line = runner.read_line()?;
            let (nanos, digest) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad line {line:?}"))?;
            let d = Duration::from_nanos(
                nanos
                    .parse()
                    .map_err(|e| format!("bad line {line:?}: {e}"))?,
            );
            graph_busy += d;
            lat.push(ms(d));
            report.tally.record(Digest::decode(digest) == Some(*want));
        }
        let line = runner.read_line()?;
        peaks.push(
            line.parse::<f64>()
                .map_err(|e| format!("bad peak {line:?}: {e}"))?,
        );
        runner.stop()?;
        busy += graph_busy;
        graph_qps.push(refs.len() as f64 / graph_busy.as_secs_f64());
        k += 1;
    }
    let t = tail(&lat);
    report.metric("setup_s", median(&setups));
    report.metric("latency_tail_ms", t.value);
    // The median over graphs: one graph with an unlucky block layout
    // (or a moment of host contention) moves the mean, not the median.
    report.metric("throughput_qps", median(&graph_qps));
    report.metric("peak_rss_mb", median(&peaks));
    report.detail(
        "mean_qps",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
    );
    report.detail("latency_p50_ms", median(&lat));
    report.tail_detail("latency_tail_ms", &t);
    report.detail("requests", lat.len() as f64);
    report.detail("graphs", k as f64);
    Ok(report)
}

/// The traced run on the first graph: an untraced pass and a traced
/// pass over the same requests (their throughput ratio is the tracing
/// overhead), the per-layer breakdown of every traced request, and
/// cold engine, loopback and coordinator probes of the same queries.
fn traced(
    args: &Args,
    qs: &[QueryModel],
    max_threads: usize,
    report: &mut Report,
) -> Result<(), String> {
    let g = graph(args.seed, 0);
    let refs = references(&g, qs);
    // Two passes over the queries.
    let schedule: Vec<(usize, usize)> = (0..2)
        .flat_map(|_| (0..qs.len()).map(|q| (q, threads(q, max_threads))))
        .collect();
    let untraced: Vec<f64> = schedule
        .iter()
        .map(|&(q, t)| {
            let t0 = Instant::now();
            let (_, mut results, _, _) = request(&g, qs[q], t);
            let d = ms(t0.elapsed());
            report.tally.record(refs[q].matches(&mut results));
            d
        })
        .collect();

    let mut sheet = Sheet::default();
    let mut traced_ms = Vec::new();
    for &(q, t) in &schedule {
        let model = qs[q];
        let t0 = Instant::now();
        let (plan, mut results, prepare, execute) = request(&g, model, t);
        let d = t0.elapsed();
        traced_ms.push(ms(d));
        sheet.push("prepared.prepare_ms", ms(prepare));
        sheet.push("unattributed_ms", ms(d.saturating_sub(prepare + execute)));
        probe::prune_and_count(&g, model, &plan, max_threads >= 2, &mut sheet);
        probe::sort_and_render(&mut results, &mut sheet);
        report.tally.record(refs[q].matches(&mut results));
    }
    let qps = |v: &[f64]| v.len() as f64 / v.iter().sum::<f64>();
    sheet.push("trace.overhead_ratio", qps(&untraced) / qps(&traced_ms));

    // Service-side layers of the same queries, cold as the sweep is.
    let data = crate::service::DataDir::new("paper-sweep")?;
    let stem = data.write_graph("g", &g)?;
    let collect = qs
        .iter()
        .map(|&model| crate::check::Query {
            model,
            mode: crate::check::Mode::Collect,
        })
        .collect::<Vec<_>>();
    let lines = probe::lines(&collect);
    let engine = crate::service::loaded_engine(&stem)?;
    let before = probe::plan_counters(&engine);
    let mut stream = probe::UpdateStream::new(&g, dblp().single_params(), derive(args.seed, 7));
    probe::server_cold(&engine, &lines, &mut sheet)?;
    probe::record_plan_cache(before, probe::plan_counters(&engine), &mut sheet);
    let updates = crate::service::loaded_engine(&stem)?;
    probe::update_pairs(&updates, &g, &lines[..4], &mut stream, 10, &mut sheet)?;
    probe::coordinator_probe(&stem, &lines[..4], 1, &mut sheet)?;
    crate::service::layer_metrics(&sheet, report);
    Ok(())
}
