//! Scatter-gather coordinator: fan requests out to shard servers and
//! merge their replies.
//!
//! A coordinator is an ordinary [`crate::server::Server`] whose
//! [`crate::ServiceConfig::shards`] lists the addresses of `K` shard
//! servers. It executes nothing locally; instead:
//!
//! * `LOAD` / `GEN` fan out as `LOAD`/`GEN` followed by
//!   `SHARD <graph> index=i of=K`, so shard `i` keeps only its slice
//!   of the deterministic 2-hop-component partition
//!   ([`bigraph::partition`]). No graph bytes travel through the
//!   coordinator: every shard loads (or deterministically generates)
//!   the full graph and restricts itself — the partition is a pure
//!   function of the graph, so all shards agree without coordination.
//! * `ENUM` takes the engine's one query route, `Engine::query`, which
//!   owns the query counters, the collect-mode default limit, the span
//!   recorder and the single exit (latency, truncation, `# span` lines,
//!   slow log). This module supplies only its executor,
//!   `scatter_gather`: it fans the query to every shard concurrently
//!   and merges the `K` canonically-sorted result streams with a k-way
//!   merge on the
//!   [`fair_biclique::results::canonical_order`] ordering (shard
//!   subgraphs stay in the parent id space, so merged lines are
//!   byte-identical to a single-process run). The global result
//!   budget is enforced the way `SharedBudget` does across threads:
//!   each shard reader decrements the shared countdown *before*
//!   buffering a line, and once the budget is spent the remaining
//!   shard connections are dropped (early cancel). `max=` feeds the
//!   shards' maxima into [`fair_biclique::maximum::MaxSink`], the
//!   single-process metric and tie-break.
//! * `STATS` reports the coordinator's own counters (including the
//!   `shard_*` fan-out metrics) plus a per-shard health summary and
//!   each shard's counters under a `shard<i>_` prefix.
//! * A shard that refuses connections, times out, or answers an error
//!   surfaces as a structured `ERR SHARD shard=<i> addr=<a> ...`
//!   reply — never a hang: connects and reads are bounded by the
//!   query deadline (plus a grace period) or a default timeout, and
//!   results already received from healthy shards are accounted in
//!   `STATS` as `shard_partial_results`. Every such reply counts in
//!   `shard_errors`; only a failed `ENUM` also counts in `queries_err`.
//!
//! Graph mutations (`ADDEDGE`/`DELEDGE`/`ADDVERTEX`) are refused in
//! coordinator mode: an edge insertion can merge two 2-hop components
//! and would invalidate the standing partition.

use crate::engine::{status_line, Engine, Outcome};
use crate::metrics::bump;
use crate::protocol::{EnumMode, EnumOpts, GenSpec, Reply, Request, TERMINATOR};
use fair_biclique::config::StopReason;
use fair_biclique::maximum::{MaxSink, SizeMetric};
use fair_biclique::obs::SpanRecorder;
use fair_biclique::prepared::QueryModel;
use fair_biclique::{Biclique, BicliqueSink};
use fbe_datasets::corpus::Dataset;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Timeout for shard calls made outside any client deadline
/// (`LOAD`/`GEN`/`DROP`/`STATS`, and `ENUM` without `deadline-ms`).
const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(30);

/// Extra slack granted on top of a client `deadline-ms` so a shard
/// that finishes right at its (self-enforced) deadline can still get
/// its truncated reply back before the coordinator gives up on it.
const FANOUT_GRACE: Duration = Duration::from_secs(1);

/// Execute a non-`ENUM` request by fanning out to `engine.cfg.shards`
/// (`ENUM` reaches `scatter_gather` through `Engine::query`).
pub fn handle(engine: &Engine, req: Request) -> Outcome {
    match req {
        Request::Ping => Outcome::Reply(Reply::ok("pong")),
        Request::Shutdown => {
            // Stop the shard servers best-effort (a dead shard must
            // not keep the coordinator alive), then stop locally.
            let _ = fan(engine, DEFAULT_SHARD_TIMEOUT, |_, _, conn| {
                conn.call("SHUTDOWN")
            });
            engine.shutdown_token().cancel();
            Outcome::Shutdown(Reply::ok("bye"))
        }
        Request::Graphs => Outcome::Reply(graphs(engine)),
        Request::Drop { name } => Outcome::Reply(fan_simple(engine, &format!("DROP {name}"))),
        Request::Load { name, path, attrs } => Outcome::Reply(load(engine, &name, &path, attrs)),
        Request::Gen { name, spec } => {
            let line = format!("GEN {name} {}", gen_spec_text(&spec));
            Outcome::Reply(fan_with_shard(engine, &name, &line))
        }
        Request::Stats => Outcome::Reply(stats(engine)),
        Request::AddEdge { .. } | Request::DelEdge { .. } | Request::AddVertex { .. } => {
            Outcome::Reply(Reply::err(
                "BADARG",
                "graph mutations are not supported in coordinator mode \
                 (an update could merge 2-hop components across shards)",
            ))
        }
        Request::Shard { .. } => Outcome::Reply(Reply::err(
            "BADARG",
            "SHARD is a shard-server verb; the coordinator shards on LOAD/GEN",
        )),
        // Answered by the engine before coordinator delegation;
        // unreachable here, kept only for match exhaustiveness.
        Request::Metrics
        | Request::Slowlog { .. }
        | Request::Trace { .. }
        | Request::Enum { .. } => Outcome::Reply(Reply::err(
            "INTERNAL",
            "early verb reached coordinator dispatch",
        )),
    }
}

/// One line-protocol connection to a shard server.
struct ShardConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ShardConn {
    /// Connect with `timeout` bounding the connect and every
    /// subsequent read/write, and consume the greeting block.
    fn connect(addr: &str, timeout: Duration) -> Result<ShardConn, String> {
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| format!("bad address: {e}"))?
            .next()
            .ok_or_else(|| "address resolved to nothing".to_string())?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)
            .map_err(|e| format!("connect failed: {e}"))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| format!("set_write_timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        let mut conn = ShardConn {
            reader,
            writer: BufWriter::new(stream),
        };
        let greeting = conn.read_reply()?;
        if !greeting.is_ok() {
            return Err(format!("bad greeting: {}", greeting.status));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send failed: {e}"))?;
        self.writer.flush().map_err(|e| format!("send failed: {e}"))
    }

    /// One request, one whole reply block.
    fn call(&mut self, line: &str) -> Result<Reply, String> {
        self.send(line)?;
        self.read_reply()
    }

    /// Like [`ShardConn::call`], failing on `ERR` statuses.
    fn call_ok(&mut self, line: &str) -> Result<Reply, String> {
        let reply = self.call(line)?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(format!("shard replied {}", reply.status))
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut l = String::new();
        let n = self.reader.read_line(&mut l).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                "shard timed out".to_string()
            } else {
                format!("read failed: {e}")
            }
        })?;
        if n == 0 {
            return Err("shard closed the connection mid-reply".to_string());
        }
        while l.ends_with('\n') || l.ends_with('\r') {
            l.pop();
        }
        Ok(l)
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        let status = self.read_line()?;
        let mut payload = Vec::new();
        loop {
            let l = self.read_line()?;
            if l == TERMINATOR {
                return Ok(Reply { status, payload });
            }
            payload.push(l);
        }
    }
}

/// Index + address + detail of the first shard failure, rendered as a
/// structured `ERR SHARD` and counted in `shard_errors` (a failed
/// `ENUM` also counts in `queries_err`, at `Engine::query`'s exit).
fn shard_err(engine: &Engine, index: usize, detail: &str, partial: u64) -> Reply {
    bump(&engine.metrics.shard_errors);
    let addr = engine
        .cfg
        .shards
        .get(index)
        .map(String::as_str)
        .unwrap_or("?");
    let partial_note = if partial > 0 {
        format!(" partial={partial}")
    } else {
        String::new()
    };
    Reply::err(
        "SHARD",
        format!("shard={index} addr={addr}{partial_note} {detail}"),
    )
}

/// Run `work(i, connect_elapsed, conn)` against every shard
/// concurrently on a fresh connection each, timing the connect (plus
/// greeting) so the caller can attribute shard latency to connection
/// setup vs. the request itself. Returns per-shard results in shard
/// order; a panic in a worker degrades to an `Err` for that shard.
fn fan<T: Send>(
    engine: &Engine,
    timeout: Duration,
    work: impl Fn(usize, Duration, &mut ShardConn) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    bump(&engine.metrics.shard_fanouts);
    let shards = &engine.cfg.shards;
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let work = &work;
                s.spawn(move || {
                    let tc = Instant::now();
                    let mut conn = ShardConn::connect(addr, timeout)?;
                    work(i, tc.elapsed(), &mut conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("shard worker panicked".to_string()))
            })
            .collect()
    })
}

/// Fan one already-serialized request line to every shard; succeed only
/// if every shard answers `OK`, reporting the first failure otherwise.
fn fan_simple(engine: &Engine, line: &str) -> Reply {
    let results = fan(engine, DEFAULT_SHARD_TIMEOUT, |_, _, conn| {
        conn.call_ok(line)
    });
    merge_ok(engine, results)
}

/// Fan `line` (a `LOAD`/`GEN`) followed by the per-shard
/// `SHARD <name> index=i of=K`, so each shard ends up holding exactly
/// its slice of the partition.
fn fan_with_shard(engine: &Engine, name: &str, line: &str) -> Reply {
    let k = engine.cfg.shards.len();
    let results = fan(engine, DEFAULT_SHARD_TIMEOUT, |i, _, conn| {
        conn.call_ok(line)?;
        conn.call_ok(&format!("SHARD {name} index={i} of={k}"))
    });
    merge_ok(engine, results)
}

/// First failure → `ERR SHARD`; all-OK → the first shard's status with
/// a `shards=K` marker appended.
fn merge_ok(engine: &Engine, results: Vec<Result<Reply, String>>) -> Reply {
    for (i, r) in results.iter().enumerate() {
        if let Err(detail) = r {
            return shard_err(engine, i, detail, 0);
        }
    }
    let status = results
        .into_iter()
        .flatten()
        .next()
        .map(|r| r.status.trim_start_matches("OK ").to_string())
        .unwrap_or_default();
    Reply::ok(format!("{status} shards={}", engine.cfg.shards.len()))
}

fn load(engine: &Engine, name: &str, path: &str, attrs: (u16, u16)) -> Reply {
    // The coordinator applies its own data-root policy to the stem it
    // is about to hand out; each shard then re-resolves it against its
    // own root.
    if let Err(msg) = engine.resolve_stem(path) {
        return Reply::err("PARSE", msg);
    }
    let line = format!("LOAD {name} {path} attrs={},{}", attrs.0, attrs.1);
    fan_with_shard(engine, name, &line)
}

fn graphs(engine: &Engine) -> Reply {
    // Shards hold the same catalog names (fan-out keeps them in
    // lockstep), so the first shard answers for all of them.
    let results = fan(engine, DEFAULT_SHARD_TIMEOUT, |i, _, conn| {
        if i == 0 {
            conn.call_ok("GRAPHS").map(Some)
        } else {
            Ok(None)
        }
    });
    match results.into_iter().next() {
        Some(Ok(Some(reply))) => reply,
        Some(Err(detail)) => shard_err(engine, 0, &detail, 0),
        _ => Reply::err("SHARD", "no shards configured"),
    }
}

fn stats(engine: &Engine) -> Reply {
    let results = fan(engine, DEFAULT_SHARD_TIMEOUT, |_, _, conn| {
        conn.call_ok("STATS")
    });
    let mut r = Reply::ok(format!("shards={}", engine.cfg.shards.len()));
    r.payload = engine.metrics.render();
    for (i, res) in results.iter().enumerate() {
        let addr = engine.cfg.shards.get(i).map(String::as_str).unwrap_or("?");
        match res {
            Ok(reply) => {
                r.payload.push(format!("shard{i}_addr {addr}"));
                r.payload.push(format!("shard{i}_status ok"));
                for line in &reply.payload {
                    r.payload.push(format!("shard{i}_{line}"));
                }
            }
            Err(detail) => {
                bump(&engine.metrics.shard_errors);
                r.payload.push(format!("shard{i}_addr {addr}"));
                r.payload.push(format!("shard{i}_status error: {detail}"));
            }
        }
    }
    r
}

fn gen_spec_text(spec: &GenSpec) -> String {
    match spec {
        GenSpec::Dataset(d) => match d {
            Dataset::Youtube => "youtube".to_string(),
            Dataset::Twitter => "twitter".to_string(),
            Dataset::Imdb => "imdb".to_string(),
            Dataset::WikiCat => "wiki-cat".to_string(),
            Dataset::Dblp => "dblp".to_string(),
        },
        GenSpec::Uniform {
            n_upper,
            n_lower,
            m,
            seed,
            attrs,
        } => format!(
            "uniform:{n_upper},{n_lower},{m},{seed},{},{}",
            attrs.0, attrs.1
        ),
    }
}

/// Re-serialize an `ENUM` for the shards. The resolved global result
/// budget is passed explicitly so a shard's own default limit can
/// never truncate below the coordinator's.
fn enum_line(graph: &str, model: QueryModel, opts: &EnumOpts, limit: Option<u64>) -> String {
    let base = model.base();
    let mut s = format!(
        "ENUM {graph} {} alpha={} beta={} delta={}",
        model.name().to_ascii_lowercase(),
        base.alpha,
        base.beta,
        base.delta
    );
    if let Some(theta) = model.theta() {
        s.push_str(&format!(" theta={theta}"));
    }
    if opts.threads > 1 {
        s.push_str(&format!(" threads={}", opts.threads));
    }
    if let Some(k) = limit {
        s.push_str(&format!(" limit={k}"));
    }
    if let Some(d) = opts.deadline {
        s.push_str(&format!(" deadline-ms={}", d.as_millis()));
    }
    s.push_str(&format!(" substrate={}", opts.substrate));
    match opts.mode {
        EnumMode::Collect => {}
        EnumMode::Count => s.push_str(" count-only"),
        EnumMode::Maximum(SizeMetric::Vertices) => s.push_str(" max=vertices"),
        EnumMode::Maximum(SizeMetric::Edges) => s.push_str(" max=edges"),
    }
    s
}

/// `key=value` field extraction from a status line.
fn field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .split_whitespace()
        .find_map(|t| t.strip_prefix(&format!("{key}=") as &str))
}

/// Parse a payload line back into a [`Biclique`] (`L=[1, 4] R=[0]`).
fn parse_biclique(line: &str) -> Option<Biclique> {
    let rest = line.strip_prefix("L=[")?;
    let (l, rest) = rest.split_once(']')?;
    let rest = rest.strip_prefix(" R=[")?;
    let (r, rest) = rest.split_once(']')?;
    if !rest.is_empty() {
        return None;
    }
    let parse_side = |s: &str| -> Option<Vec<bigraph::VertexId>> {
        let s = s.trim();
        if s.is_empty() {
            return Some(Vec::new());
        }
        s.split(',').map(|t| t.trim().parse().ok()).collect()
    };
    Some(Biclique {
        upper: parse_side(l)?,
        lower: parse_side(r)?,
    })
}

/// What one shard contributed to a scatter-gather `ENUM`.
struct ShardEnum {
    status: String,
    results: Vec<Biclique>,
    count: u64,
    /// The reader stopped early because the global budget ran out.
    cancelled: bool,
    /// Connect + greeting time.
    connect: Duration,
    /// Send-to-first-status-byte time (queue wait + shard execution).
    request: Duration,
    /// Result-stream drain time.
    stream: Duration,
}

/// The coordinator's executor behind `Engine::query`: fan the query
/// (its collect-mode limit already resolved) to every shard and merge
/// the replies. Returns the reply plus the truncation reason; the
/// caller owns the query counters and the single exit.
pub(crate) fn scatter_gather(
    engine: &Engine,
    graph: &str,
    model: QueryModel,
    opts: &EnumOpts,
    t0: Instant,
    rec: &mut SpanRecorder,
) -> (Reply, Option<StopReason>) {
    let limit = opts.limit;
    let timeout = opts
        .deadline
        .map(|d| d + FANOUT_GRACE)
        .unwrap_or(DEFAULT_SHARD_TIMEOUT);
    let line = enum_line(graph, model, opts, limit);

    // The global result budget, shared by all shard readers the way
    // `SharedBudget` is shared by worker threads: acquire (decrement)
    // strictly before buffering a line; a failed acquire stops the
    // reader and flags the siblings so they stop too (their shard
    // connections drop, early-cancelling the remaining streams).
    let budget = AtomicI64::new(limit.map_or(i64::MAX, |k| k.min(i64::MAX as u64) as i64));
    let exhausted = AtomicBool::new(false);
    let results = fan(engine, timeout, |_, connect, conn| {
        let tr = Instant::now();
        conn.send(&line)?;
        let status = conn.read_line()?;
        let request = tr.elapsed();
        if !status.starts_with("OK") {
            return Err(format!("shard replied {status}"));
        }
        let ts = Instant::now();
        let mut out = ShardEnum {
            count: field(&status, "count")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            status,
            results: Vec::new(),
            cancelled: false,
            connect,
            request,
            stream: Duration::ZERO,
        };
        loop {
            // Budget checks are pure countdowns: no memory is
            // published through them, so relaxed suffices.
            // lint: ordering: relaxed — independent counter/flag, no data ordered after it
            if exhausted.load(Ordering::Relaxed) {
                out.cancelled = true;
                break;
            }
            let l = conn.read_line()?;
            if l == TERMINATOR {
                break;
            }
            // lint: ordering: relaxed — pure countdown, no acquire/release pairing needed
            if budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
                // lint: ordering: relaxed — advisory flag, racy reads only stop siblings late
                exhausted.store(true, Ordering::Relaxed);
                out.cancelled = true;
                break;
            }
            let b = parse_biclique(&l).ok_or_else(|| format!("unparseable result line {l:?}"))?;
            out.results.push(b);
        }
        out.stream = ts.elapsed();
        Ok(out)
    });

    // Any failed shard fails the whole query — with the healthy
    // shards' already-received results accounted as partial.
    if let Some((i, detail)) = results
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.as_ref().err().map(|d| (i, d.clone())))
    {
        let partial: u64 = results
            .iter()
            .flatten()
            .map(|s| s.results.len() as u64)
            .sum();
        if partial > 0 {
            engine
                .metrics
                .shard_partial_results
                // lint: ordering: relaxed — statistics counter
                .fetch_add(partial, Ordering::Relaxed);
        }
        return (shard_err(engine, i, &detail, partial), None);
    }
    let shards: Vec<ShardEnum> = results.into_iter().flatten().collect();

    // Per-shard attribution: straggler shards show up in the stream
    // histogram (labels `shard="i"` in `METRICS`) and, when traced, as
    // `shard` spans carrying the connect/request/stream split.
    for (i, s) in shards.iter().enumerate() {
        if let Some(h) = engine.metrics.shard_stream.get(i) {
            h.observe(s.request + s.stream);
        }
        rec.leaf_with("shard", s.connect + s.request + s.stream, || {
            format!(
                "index={i} addr={} connect_us={} request_us={} stream_us={} results={} cancelled={}",
                engine.cfg.shards.get(i).map(String::as_str).unwrap_or("?"),
                s.connect.as_micros(),
                s.request.as_micros(),
                s.stream.as_micros(),
                s.results.len(),
                s.cancelled,
            )
        });
    }

    // Propagate the most severe shard truncation (deadline > cap), or
    // report the coordinator's own budget exhaustion as a result cap.
    let shard_trunc = |needle: &str| {
        shards
            .iter()
            .any(|s| field(&s.status, "truncated") == Some(needle))
    };
    // lint: ordering: relaxed — read-only summary after the fan-out joined
    let budget_spent = exhausted.load(Ordering::Relaxed) || shards.iter().any(|s| s.cancelled);

    let (count, payload, stop) = rec.timed("merge", || match opts.mode {
        EnumMode::Count => {
            let total: u64 = shards.iter().map(|s| s.count).sum();
            let capped = limit.map_or(total, |k| total.min(k));
            (
                capped,
                Vec::new(),
                if capped < total || shard_trunc("result-cap") {
                    Some(StopReason::ResultCap)
                } else if shard_trunc("deadline") {
                    Some(StopReason::Deadline)
                } else {
                    None
                },
            )
        }
        EnumMode::Maximum(metric) => {
            let mut sink = MaxSink::new(metric);
            for b in shards.iter().flat_map(|s| &s.results) {
                sink.emit(&b.upper, &b.lower);
            }
            let payload: Vec<String> = sink.best.iter().map(|b| b.to_string()).collect();
            let truncated = if shard_trunc("deadline") {
                Some(StopReason::Deadline)
            } else {
                None
            };
            (payload.len() as u64, payload, truncated)
        }
        EnumMode::Collect => {
            let merged = kway_merge(shards.iter().map(|s| s.results.clone()).collect(), limit);
            debug_assert!(
                {
                    let mut check = merged.clone();
                    fair_biclique::results::canonical_order(&mut check);
                    check == merged
                },
                "k-way merge must preserve canonical order"
            );
            let truncated = if shard_trunc("deadline") {
                Some(StopReason::Deadline)
            } else if budget_spent
                || shard_trunc("result-cap")
                || limit.is_some_and(|k| merged.len() as u64 >= k)
            {
                // The cap only truncates if it actually bound: all
                // shards ran to completion below it otherwise.
                limit
                    .is_some_and(|k| merged.len() as u64 >= k)
                    .then_some(StopReason::ResultCap)
            } else {
                None
            };
            let payload: Vec<String> = merged.iter().map(|b| b.to_string()).collect();
            (payload.len() as u64, payload, truncated)
        }
    });

    let origin = format!("shards={}", engine.cfg.shards.len());
    let mut reply = Reply::ok(status_line(graph, model, opts, count, &origin, stop, t0));
    reply.payload = payload;
    (reply, stop)
}

/// Merge `k` canonically-sorted, pairwise-disjoint result streams into
/// one canonically-sorted stream, stopping at `limit`.
fn kway_merge(streams: Vec<Vec<Biclique>>, limit: Option<u64>) -> Vec<Biclique> {
    let mut iters: Vec<std::vec::IntoIter<Biclique>> =
        streams.into_iter().map(|v| v.into_iter()).collect();
    let mut heap = BinaryHeap::new();
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some(b) = it.next() {
            heap.push(Reverse((b, i)));
        }
    }
    let mut out = Vec::new();
    while let Some(Reverse((b, i))) = heap.pop() {
        out.push(b);
        if limit.is_some_and(|k| out.len() as u64 >= k) {
            break;
        }
        if let Some(next) = iters.get_mut(i).and_then(|it| it.next()) {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(upper: &[u32], lower: &[u32]) -> Biclique {
        Biclique {
            upper: upper.to_vec(),
            lower: lower.to_vec(),
        }
    }

    #[test]
    fn parses_result_lines_roundtrip() {
        for bc in [
            b(&[1, 4], &[0, 2, 7]),
            b(&[0], &[0]),
            b(&[], &[]),
            b(&[3], &[]),
        ] {
            let line = bc.to_string();
            assert_eq!(parse_biclique(&line), Some(bc), "{line}");
        }
        assert_eq!(parse_biclique("garbage"), None);
        assert_eq!(parse_biclique("L=[1 R=[2]"), None);
        assert_eq!(parse_biclique("L=[x] R=[2]"), None);
        assert_eq!(parse_biclique("L=[1] R=[2] trailing"), None);
    }

    #[test]
    fn kway_merge_interleaves_in_canonical_order() {
        let s1 = vec![b(&[0], &[1]), b(&[2], &[0])];
        let s2 = vec![b(&[0], &[2]), b(&[1], &[0])];
        let s3: Vec<Biclique> = Vec::new();
        let merged = kway_merge(vec![s1.clone(), s2.clone(), s3], None);
        let mut want = [s1, s2].concat();
        fair_biclique::results::canonical_order(&mut want);
        assert_eq!(merged, want);
        // Limit cuts the merged stream, not a per-shard prefix.
        let merged2 = kway_merge(vec![want[2..].to_vec(), want[..2].to_vec()], Some(3));
        assert_eq!(merged2, want[..3]);
    }

    #[test]
    fn enum_line_roundtrips_through_the_parser() {
        use fair_biclique::config::{FairParams, ProParams};
        let opts = EnumOpts {
            threads: 4,
            limit: None,
            deadline: Some(Duration::from_millis(250)),
            substrate: fair_biclique::config::Substrate::Bitset,
            mode: EnumMode::Count,
        };
        let model = QueryModel::Pbsfbc(ProParams::new(2, 1, 1, 0.25).unwrap());
        let line = enum_line("g", model, &opts, Some(7));
        let parsed = crate::protocol::parse_request(&line).unwrap();
        let Request::Enum {
            graph,
            model: m2,
            opts: o2,
        } = parsed
        else {
            panic!("not an ENUM: {line}");
        };
        assert_eq!(graph, "g");
        assert_eq!(m2.name(), "PBSFBC");
        assert_eq!(m2.base(), FairParams::unchecked(2, 1, 1));
        assert_eq!(m2.theta(), Some(0.25));
        assert_eq!(o2.threads, 4);
        assert_eq!(o2.limit, Some(7));
        assert_eq!(o2.deadline, Some(Duration::from_millis(250)));
        assert_eq!(o2.mode, EnumMode::Count);

        // Maximum mode + default substrate too.
        let opts = EnumOpts {
            mode: EnumMode::Maximum(SizeMetric::Edges),
            ..EnumOpts::default()
        };
        let model = QueryModel::Ssfbc(FairParams::new(3, 1, 2).unwrap());
        let line = enum_line("h", model, &opts, None);
        let Request::Enum { opts: o3, .. } = crate::protocol::parse_request(&line).unwrap() else {
            panic!();
        };
        assert_eq!(o3.mode, EnumMode::Maximum(SizeMetric::Edges));
    }

    #[test]
    fn gen_spec_text_roundtrips() {
        for spec in [
            GenSpec::Dataset(Dataset::Youtube),
            GenSpec::Dataset(Dataset::WikiCat),
            GenSpec::Uniform {
                n_upper: 10,
                n_lower: 20,
                m: 30,
                seed: 7,
                attrs: (3, 1),
            },
        ] {
            let line = format!("GEN g {}", gen_spec_text(&spec));
            let parsed = crate::protocol::parse_request(&line).unwrap();
            assert_eq!(
                parsed,
                Request::Gen {
                    name: "g".into(),
                    spec
                },
                "{line}"
            );
        }
    }
}
