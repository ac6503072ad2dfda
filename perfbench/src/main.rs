//! Seeded benchmark of the fair-biclique library, service and
//! coordinator. See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the host and the details behind the metrics.

#![forbid(unsafe_code)]

mod check;
mod child;
mod client;
mod probe;
mod service;
mod stats;
mod sweep;

use stats::{Tail, Tally};
use std::fmt::Write as _;
use std::time::Duration;

/// Metrics of an untraced run: `(name, unit)`. The median latency,
/// error ratio and writer figures are printed in the detail line: see
/// `README.md` for why they carry no bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("prune.core_peel_ms", "ms"),
    ("prune.core_peel_ns_per_edge", "ns/edge"),
    ("prune.twohop_ms", "ms"),
    ("prune.cascade_ms", "ms"),
    ("prune.kept_edge_ratio", "ratio"),
    ("prepared.prepare_ms", "ms"),
    ("prepared.plan_resolve_ms", "ms"),
    ("enumerate.t1_ms", "ms"),
    ("enumerate.t2_ms", "ms"),
    ("parallel.speedup_t2", "ratio"),
    ("enumerate.nodes", "count"),
    ("enumerate.emitted", "count"),
    ("enumerate.yield_ratio", "ratio"),
    ("results.sort_ms", "ms"),
    ("biclique.render_ms", "ms"),
    ("protocol.reply_write_ms", "ms"),
    ("protocol.reply_bytes", "bytes"),
    ("protocol.parse_us", "us"),
    ("engine.handle_ms", "ms"),
    ("plan_cache.hit_ratio", "ratio"),
    ("server.rtt_ms", "ms"),
    ("server.first_byte_ms", "ms"),
    ("server.stream_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("catalog.update_ms", "ms"),
    ("incremental.stale_ratio", "ratio"),
    ("plan_cache.invalidated_per_update", "count"),
    ("prepared.reprepare_count", "count"),
    ("coordinator.rtt_ms", "ms"),
    ("coordinator.shard_rtt_ms", "ms"),
    ("coordinator.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["serve-cached", "update-mix", "sharded-fanout"];

/// Workloads that run by name but are not in `BENCHMARK.json`: their
/// figures follow this host's CPU speed, which drifts by more than any
/// allowed bound between sets of runs (see `README.md`).
pub const UNLISTED: &[&str] = &["paper-sweep"];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the untraced (end-to-end) one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) && !UNLISTED.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or {UNLISTED:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// splitmix64: the benchmark's only random source, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffle `v` in place.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A seed for input `salt` of a run seeded with `seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Report {
    /// Requests attempted and failed.
    pub tally: Tally,
    /// Metric name → value.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra `"key": value` JSON members for the detail line.
    pub detail: Vec<(String, String)>,
    /// Cells reported as skipped rather than measured.
    pub skipped: Vec<String>,
}

impl Report {
    /// Set a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Add a numeric detail.
    pub fn detail(&mut self, key: &str, value: f64) {
        self.detail.push((key.to_string(), json_num(value)));
    }

    /// Record a tail latency's value with its percentile and counts.
    pub fn tail_detail(&mut self, key: &str, t: &Tail) {
        self.detail.push((
            key.to_string(),
            format!(
                "{{\"value\": {}, \"percentile\": {}, \"beyond\": {}, \"samples\": {}}}",
                json_num(t.value),
                t.percentile,
                t.beyond,
                t.samples
            ),
        ));
    }
}

/// Peak resident set of process `pid` (this process for `None`), in
/// MB; NaN where `/proc` does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or("/proc/self/status".to_string(), |p| {
        format!("/proc/{p}/status")
    });
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host record printed with every result.
fn host_json() -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout of its own: a parent directory's
    // repository would name the wrong commit.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cpus\": {}, \"rustc\": {}, \"commit\": {}, \"source\": \"{:016x}\"}}",
        cpus(),
        json_str(&rustc),
        json_str(&commit),
        source_digest()
    )
}

/// A hash of the sources the benchmark builds (`Cargo.lock`, `crates/`,
/// `perfbench/src/`): it names the code measured where no commit is
/// available, as in an exported checkout.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk("crates".as_ref(), &mut files);
    walk("perfbench/src".as_ref(), &mut files);
    files.sort();
    let mut h = std::hash::DefaultHasher::new();
    for f in files {
        std::hash::Hash::hash(&f, &mut h);
        std::hash::Hash::hash(&std::fs::read(&f).unwrap_or_default(), &mut h);
    }
    std::hash::Hasher::finish(&h)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| argv.get(i).map_or("", String::as_str);
    // The processes that run the measured program (see `child.rs`).
    let child = match arg(0) {
        service::SERVE_CHILD => Some(service::serve_child(arg(1))),
        sweep::SWEEP_CHILD => Some(sweep::sweep_child(arg(1), arg(2), arg(3))),
        _ => None,
    };
    if let Some(result) = child {
        if let Err(e) = result {
            eprintln!("error: {}: {e}", arg(0));
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                [WORKLOADS, UNLISTED].concat().join("|")
            );
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "paper-sweep" => sweep::run(&args),
        name => service::run(name, &args),
    };
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        match report.metrics.iter().rev().find(|(n, _)| *n == name) {
            Some(&(_, v)) if v.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                v,
                json_str(unit)
            )),
            _ if report.skipped.iter().any(|s| s == name) => {}
            _ => {
                eprintln!("error: {}: metric {name} was not measured", args.workload);
                std::process::exit(1);
            }
        }
    }
    report.detail("error_ratio", report.tally.error_ratio());
    let detail: Vec<String> = report
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let skipped: Vec<String> = report.skipped.iter().map(|s| json_str(s)).collect();
    println!(
        "{{\"host\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"skipped\": [{}], \"detail\": {{{}}}}}",
        host_json(),
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        skipped.join(", "),
        detail.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0 && report.tally.attempted > 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
        let compact: String = BENCHMARK_JSON.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
                "{w}"
            );
        }
        assert_eq!(compact.matches("\"why\":").count(), WORKLOADS.len());
    }

    #[test]
    fn args_parse_and_reject() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v(
            "--workload serve-cached --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serve-cached", 7, true)
        );
        assert_eq!(a.seconds, Duration::from_millis(2500));
        assert!(parse_args(&v("--workload paper-sweep --seed 1")).is_ok());
        assert!(parse_args(&v("--workload nope --seed 1")).is_err());
        assert!(parse_args(&v("--workload serve-cached")).is_err());
        assert!(parse_args(&v("--workload serve-cached --seed 1 --trace 2")).is_err());
        assert!(parse_args(&v("--workload serve-cached --seed 1 --seconds 0")).is_err());
    }

    #[test]
    fn rng_is_deterministic_in_its_seed() {
        let draw = |s| (0..4).map(|_| Rng::new(s).next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(3), draw(3));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_ne!(derive(1, 0), derive(1, 1));
        let mut v: Vec<u32> = (0..10).collect();
        Rng::new(5).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
