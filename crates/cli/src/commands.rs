//! Execution of parsed [`Command`]s.
//!
//! Output is written through a caller-supplied [`io::Write`]
//! ([`execute_to`]), so a closed pipe (`fbe enumerate | head`)
//! surfaces as a normal `io::Error` instead of a panic; the binary
//! maps `BrokenPipe` to a clean exit. Timing lines go to stderr so
//! stdout stays byte-stable across runs.

use crate::args::{bi_algo_of, Command, GenerateKind, GraphSource, Query};
use bigraph::{BipartiteGraph, Side};
use fair_biclique::biclique::EnumStats;
use fair_biclique::config::{Budget, FairParams, PrepareCtl, RunConfig};
use fair_biclique::obs::SpanRecorder;
use fair_biclique::pipeline::{run_bsfbc, run_ssfbc, SsAlgorithm};
use fair_biclique::prepared::{run_serial, Mode, PreparedQuery};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Why a CLI invocation failed.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or a failed operation; print the message, exit 1.
    Usage(String),
    /// The output stream failed (closed pipe, full disk, ...).
    Io(io::Error),
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => f.write_str(m),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// Execute a command, writing its output to `out`.
pub fn execute_to(cmd: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match cmd {
        Command::Help => Ok(out.write_all(crate::HELP.as_bytes())?),
        Command::Generate { kind, out: dest } => {
            let text = generate(kind, &dest)?;
            Ok(out.write_all(text.as_bytes())?)
        }
        Command::Stats { source } => stats(&source, out),
        Command::Prune {
            source,
            params,
            bi,
            kind,
        } => {
            let text = prune(&source, params, bi, kind)?;
            Ok(out.write_all(text.as_bytes())?)
        }
        Command::Query(q) => query(out, q),
        Command::Serve {
            host,
            port,
            workers,
            queue,
            plan_cache,
            default_limit,
            data_root,
            shards,
        } => serve(
            out,
            &host,
            port,
            workers,
            queue,
            plan_cache,
            default_limit,
            data_root,
            shards,
        ),
        Command::Batch { connect, path } => batch(out, connect.as_deref(), path.as_deref()),
    }
}

/// Execute a command, returning the output as a string (test- and
/// library-friendly wrapper over [`execute_to`]; long-running
/// commands like `serve` should go through `execute_to`).
pub fn execute(cmd: Command) -> Result<String, String> {
    let mut buf = Vec::new();
    match execute_to(cmd, &mut buf) {
        Ok(()) => Ok(String::from_utf8_lossy(&buf).into_owned()),
        Err(e) => Err(e.to_string()),
    }
}

fn stem_paths(stem: &str) -> (PathBuf, PathBuf, PathBuf) {
    let base = Path::new(stem);
    (
        base.with_extension("edges"),
        base.with_extension("uattr"),
        base.with_extension("lattr"),
    )
}

fn load(source: &GraphSource) -> Result<BipartiteGraph, String> {
    let GraphSource::Path { stem, attr_domains } = source;
    bigraph::io::load_stem(Path::new(stem), attr_domains.0, attr_domains.1)
        .map_err(|e| format!("loading {stem}: {e}"))
}

fn generate(kind: GenerateKind, out: &str) -> Result<String, String> {
    let (g, label) = match kind {
        GenerateKind::Dataset(d) => {
            let spec = fbe_datasets::corpus::spec(d);
            (
                spec.build(),
                format!("{d} analog (defaults: {})", spec.single_params()),
            )
        }
        GenerateKind::Uniform {
            n_upper,
            n_lower,
            m,
            attrs,
            seed,
        } => {
            if n_upper == 0 || n_lower == 0 {
                return Err("generate: sides must be non-empty".into());
            }
            (
                bigraph::generate::random_uniform(n_upper, n_lower, m, attrs.0, attrs.1, seed),
                format!("uniform({n_upper},{n_lower},{m}) seed {seed}"),
            )
        }
    };
    let (edges, uattr, lattr) = stem_paths(out);
    if let Some(dir) = edges.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let write = |p: &Path, f: &dyn Fn(&mut Vec<u8>) -> io::Result<()>| -> Result<(), String> {
        let mut buf = Vec::new();
        f(&mut buf).map_err(|e| e.to_string())?;
        std::fs::write(p, buf).map_err(|e| format!("writing {}: {e}", p.display()))
    };
    write(&edges, &|w| bigraph::io::write_edge_list(&g, w))?;
    write(&uattr, &|w| bigraph::io::write_attrs(&g, Side::Upper, w))?;
    write(&lattr, &|w| bigraph::io::write_attrs(&g, Side::Lower, w))?;
    Ok(format!(
        "wrote {label}: {} / {} / {}\n{}\n",
        edges.display(),
        uattr.display(),
        lattr.display(),
        bigraph::stats::graph_stats(&g)
    ))
}

fn stats(source: &GraphSource, out: &mut dyn Write) -> Result<(), CliError> {
    let g = load(source)?;
    let st = bigraph::stats::graph_stats(&g);
    let butterflies = bigraph::butterfly::count_butterflies(&g);
    writeln!(out, "{st}")?;
    writeln!(
        out,
        "attr counts U: {:?}  V: {:?}",
        st.upper.attr_counts, st.lower.attr_counts
    )?;
    writeln!(out, "butterflies: {butterflies}")?;
    Ok(())
}

fn prune(
    source: &GraphSource,
    params: FairParams,
    bi: bool,
    kind: fair_biclique::config::PruneKind,
) -> Result<String, String> {
    let g = load(source)?;
    let out = fair_biclique::pipeline::prune(&g, params, kind, bi);
    Ok(format!(
        "{kind:?} ({}): {} -> {} vertices remaining ({} -> {} edges)\n",
        if bi { "bi-side" } else { "single-side" },
        out.stats.upper_before + out.stats.lower_before,
        out.stats.remaining_vertices(),
        out.stats.edges_before,
        out.stats.edges_after,
    ))
}

/// Report a run's wall-clock phases on stderr (stdout stays
/// byte-stable for diffing across runs, threads, and substrates).
/// `prune` is the preparation time of a prepared route (a baseline
/// prunes inside its run). With `--trace` the recorder holds a span
/// tree and its indented `span ...` lines follow the summary, so the
/// one-line timing and the detailed breakdown read as one block.
fn report_timing(t0: Instant, prune: Option<Duration>, stats: &EnumStats, rec: &SpanRecorder) {
    let total = t0.elapsed();
    let phases = prune
        .map(|p| format!(" (prune {p:.3?}, enumerate {:.3?})", total - p))
        .unwrap_or_default();
    let truncated = stats
        .stop
        .map(|r| format!(" truncated by {r}"))
        .unwrap_or_default();
    eprintln!("timing: total {total:.3?}{phases}{truncated}");
    for line in rec.render() {
        eprintln!("{line}");
    }
}

/// Run `fbe enumerate` or `fbe maximum`: a prepared plan at any thread
/// count, or a serial `--algo` baseline, gathered in the query's mode.
fn query(out: &mut dyn Write, q: Query) -> Result<(), CliError> {
    // `--algo` selects among the serial algorithms only; the default
    // runs on the parallel engine too.
    if q.threads > 1 && q.algo != SsAlgorithm::FairBcemPP {
        return Err(CliError::Usage(
            "enumerate: --threads > 1 requires the default --algo bcem++".into(),
        ));
    }
    // The proportion models have no baseline algorithm.
    if q.model.theta().is_some() && q.algo != SsAlgorithm::FairBcemPP {
        return Err(CliError::Usage(
            "enumerate: --theta requires the default --algo bcem++".into(),
        ));
    }
    let g = load(&q.source)?;
    let cfg = RunConfig {
        order: q.order,
        budget: q.budget.map_or(Budget::UNLIMITED, Budget::time),
        threads: q.threads,
        sorted: q.sorted,
        substrate: q.substrate,
        ..RunConfig::default()
    };
    // Every mode records the same span vocabulary the service traces
    // (prepare stages, enumerate, sort). A disabled recorder renders
    // nothing.
    let mut rec = if q.trace {
        SpanRecorder::enabled()
    } else {
        SpanRecorder::disabled()
    };

    let t0 = Instant::now();
    let (bicliques, stats, prune) = if q.algo == SsAlgorithm::FairBcemPP {
        let ctl = PrepareCtl::UNBOUNDED;
        let plan = PreparedQuery::prepare_rec(&g, q.model, cfg.prune, q.substrate, &ctl, &mut rec)
            // fbe-lint: allow(no-panic-paths): PrepareCtl::UNBOUNDED never interrupts, so Err is unreachable — same contract PreparedQuery::prepare relies on
            .expect("unbounded prepare is never interrupted");
        let report = plan.run(q.mode, &cfg, &mut rec);
        (report.bicliques, report.stats, Some(report.prune_elapsed))
    } else {
        let params = q.model.base();
        let (bicliques, stats) = run_serial(q.mode, &cfg, &mut rec, |sink| {
            if q.model.is_bi_side() {
                run_bsfbc(&g, params, bi_algo_of(q.algo), &cfg, sink).1
            } else {
                run_ssfbc(&g, params, q.algo, &cfg, sink).1
            }
        });
        (bicliques, stats, None)
    };
    report_timing(t0, prune, &stats, &rec);
    render(
        out,
        q.model.name(),
        q.mode,
        stats.emitted,
        stats.aborted,
        &bicliques,
    )
}

#[allow(clippy::too_many_arguments)]
fn serve(
    out: &mut dyn Write,
    host: &str,
    port: u16,
    workers: usize,
    queue: usize,
    plan_cache: usize,
    default_limit: u64,
    data_root: Option<String>,
    shards: Vec<String>,
) -> Result<(), CliError> {
    let coordinator = !shards.is_empty();
    let engine = fbe_service::engine::Engine::new(fbe_service::ServiceConfig {
        workers,
        queue_depth: queue,
        plan_cache_capacity: plan_cache,
        default_result_limit: default_limit,
        data_root: data_root.map(std::path::PathBuf::from),
        shards,
        ..fbe_service::ServiceConfig::default()
    });
    let server = fbe_service::server::Server::bind(&format!("{host}:{port}"), engine)
        .map_err(|e| CliError::Usage(format!("serve: binding {host}:{port}: {e}")))?;
    let addr = server.local_addr()?;
    let role = if coordinator { " (coordinator)" } else { "" };
    writeln!(out, "fbe-service listening on {addr}{role}")?;
    out.flush()?;
    server.run()?;
    writeln!(out, "fbe-service stopped")?;
    Ok(())
}

fn batch(out: &mut dyn Write, connect: Option<&str>, path: Option<&str>) -> Result<(), CliError> {
    let mut input: Box<dyn io::BufRead> = match path {
        Some(p) if p != "-" => Box::new(io::BufReader::new(
            std::fs::File::open(p).map_err(|e| CliError::Usage(format!("batch: {p}: {e}")))?,
        )),
        _ => Box::new(io::BufReader::new(io::stdin())),
    };
    match connect {
        Some(addr) => fbe_service::batch::run_client(addr, &mut input, out)?,
        None => {
            let engine = fbe_service::engine::Engine::new(fbe_service::ServiceConfig::default());
            fbe_service::batch::run_batch(&engine, &mut input, out)?;
        }
    }
    Ok(())
}

fn render(
    out: &mut dyn Write,
    model: &str,
    mode: Mode,
    count: u64,
    aborted: bool,
    bicliques: &[fair_biclique::biclique::Biclique],
) -> Result<(), CliError> {
    if let Mode::Max(metric) = mode {
        match bicliques.first() {
            Some(bc) => writeln!(
                out,
                "maximum {model} ({metric:?}): |L|={} |R|={}\n  {bc}",
                bc.upper.len(),
                bc.lower.len()
            )?,
            None => writeln!(out, "maximum {model} ({metric:?}): none")?,
        }
        return Ok(());
    }
    let suffix = if aborted {
        " (budget hit; lower bound)"
    } else {
        ""
    };
    writeln!(out, "{model} count: {count}{suffix}")?;
    if let Mode::Top(k) = mode {
        writeln!(out, "top {k} by size:")?;
    }
    for bc in bicliques {
        writeln!(out, "  {bc}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_rejects_missing() {
        let src = GraphSource::Path {
            stem: "/definitely/not/here".into(),
            attr_domains: (2, 2),
        };
        assert!(load(&src).is_err());
    }

    #[test]
    fn load_bare_edge_file() {
        let dir = std::env::temp_dir().join("fbe_cli_cmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bare.txt");
        std::fs::write(&p, "0 0\n0 1\n1 1\n").unwrap();
        let src = GraphSource::Path {
            stem: p.to_str().unwrap().to_string(),
            attr_domains: (1, 1),
        };
        let g = load(&src).unwrap();
        assert_eq!(g.n_edges(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_scripts_can_mutate_resident_graphs() {
        let dir = std::env::temp_dir().join("fbe_cli_batch_update_test");
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("session.fbe");
        std::fs::write(
            &script,
            "GEN g uniform:12,12,60,4\n\
             ENUM g ssfbc alpha=1 beta=1 delta=1 count-only\n\
             ADDVERTEX g lower attr=0\n\
             ADDEDGE g 0 12\n\
             DELEDGE g 0 12\n\
             ENUM g ssfbc alpha=1 beta=1 delta=1 count-only\n",
        )
        .unwrap();
        let mut buf = Vec::new();
        batch(&mut buf, None, Some(script.to_str().unwrap())).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("vertex=12"), "{out}");
        assert!(out.contains("version=3"), "{out}");
        assert!(!out.contains("ERR"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn render_str(
        model: &str,
        mode: Mode,
        count: u64,
        aborted: bool,
        bicliques: &[fair_biclique::biclique::Biclique],
    ) -> String {
        let mut buf = Vec::new();
        render(&mut buf, model, mode, count, aborted, bicliques).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn render_formats() {
        let s = render_str("SSFBC", Mode::Count, 3, true, &[]);
        assert!(s.contains("lower bound"));
        let s = render_str(
            "BSFBC",
            Mode::Top(2),
            1,
            false,
            &[fair_biclique::biclique::Biclique::new(vec![0], vec![1])],
        );
        assert!(s.contains("top 2"));
        assert!(s.contains("L=[0]"));
    }

    #[test]
    fn write_errors_surface_as_io_not_panic() {
        /// A sink that fails like a closed pipe.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = render(&mut Broken, "SSFBC", Mode::Collect, 1, false, &[]).unwrap_err();
        match err {
            CliError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
