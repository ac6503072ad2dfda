//! `fbe` — the command-line interface to the fair-biclique library.
//!
//! Subcommands (see [`HELP`] for full usage):
//!
//! * `fbe generate` — write a synthetic graph (corpus analog or
//!   uniform random) as edge-list + attribute files;
//! * `fbe stats` — Table-I style statistics plus butterfly counts;
//! * `fbe prune` — run `FCore`/`CFCore` (or the bi-side variants) and
//!   report the reduction;
//! * `fbe enumerate` — enumerate SSFBC/BSFBC/PSSFBC/PBSFBC, printing
//!   results, the top-k largest, or just the count;
//! * `fbe maximum` — the single largest fair biclique under a size
//!   metric (the same query as `enumerate`, in the maximum result
//!   mode: [`args::Query`]);
//! * `fbe serve` — the resident query service (graph catalog,
//!   prepared-plan cache, deadline-aware admission) over TCP;
//! * `fbe batch` — run service-protocol scripts offline or against a
//!   live server (`--connect`).
//!
//! Every mining subcommand takes `--threads <N>`: values above 1 run
//! the model on the work-stealing parallel engine with a global
//! budget ([`fair_biclique::parallel`]); `--sorted` makes enumerate
//! output byte-identical across thread counts.
//!
//! The binary is a thin wrapper around [`run`], which is fully unit
//! tested (argument parsing and command execution return strings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

/// Usage text.
pub const HELP: &str = "\
fbe — fairness-aware maximal biclique enumeration (ICDE 2023 reproduction)

USAGE:
  fbe generate --dataset <youtube|twitter|imdb|wiki-cat|dblp> --out <stem>
  fbe generate --uniform <NU,NV,M> [--attrs <AU,AV>] [--seed <N>] --out <stem>
  fbe stats <stem | edges-file> [--attrs <AU,AV>]
  fbe prune <stem> --alpha <N> --beta <N> [--bi] [--kind <none|fcore|colorful>]
  fbe enumerate <stem> --alpha <N> --beta <N> --delta <N>
        [--theta <F>] [--bi] [--algo <nsf|bcem|bcem++>]
        [--order <id|degree>] [--count-only] [--top <K>]
        [--budget-secs <N>] [--threads <N>] [--sorted]
        [--substrate <auto|sorted-vec|bitset>] [--trace]
  fbe maximum <stem> --alpha <N> --beta <N> --delta <N>
        [--bi] [--metric <vertices|edges>] [--order <id|degree>]
        [--budget-secs <N>] [--threads <N>]
        [--substrate <auto|sorted-vec|bitset>]
  fbe serve [--host <H>] [--port <P>] [--workers <N>] [--queue <N>]
        [--plan-cache <N>] [--default-limit <N>] [--data-root <DIR>]
        [--shards <HOST:PORT,...>]
  fbe batch [--connect <HOST:PORT>] [<script-file>|-]

A <stem> refers to the three files written by `fbe generate`:
  <stem>.edges, <stem>.uattr, <stem>.lattr
A bare edges file may be given instead (attributes default to value 0;
combine with --attrs to declare domain sizes).

fbe enumerate and fbe maximum run one query in different result modes:
every result, only the count (--count-only), the K largest (--top <K>),
or the single largest under --metric (maximum). Each accepts only the
flags on its usage line above; --alpha must be at least 1 (prune too)
and --theta must lie in [0, 0.5].

--threads <N> with N > 1 runs any model (enumerate or maximum) on the
work-stealing parallel engine; budgets stay global, and with --sorted
the output is byte-identical across thread counts. The non-default
--algo baselines run serially only, and only for the absolute models
(no --theta).

--substrate selects the candidate-set representation of the hot path:
sorted-vec merge intersections, u64 bitset rows with popcount, or
auto (the default: bitsets when the pruned core is small and dense).
Results are identical across substrates — only speed/memory differ.

--trace extends the stderr timing line with an indented per-stage span
tree (prepare: core-peel / 2hop / colorful peels, plan-resolve,
enumerate, sort — the same vocabulary the service's TRACE verb and
SLOWLOG use; see the README's Observability section). Stdout stays
byte-identical with and without it. Every mode records spans: sort
covers --sorted and the merge of the --top K lists; a non-default
--algo baseline prunes inside its enumerate span.

fbe serve starts the resident query service on a TCP port (0 picks an
ephemeral port, printed on startup): named graphs are loaded once
(LOAD/GEN), repeat queries reuse cached prepared plans, and an
admission controller bounds concurrency and honors per-query
deadlines. fbe batch runs the same line protocol from a script file or
stdin — offline against an in-process engine, or against a live
server with --connect. Scripts can mutate resident graphs between
queries (ADDEDGE/DELEDGE/ADDVERTEX): the service repairs its fair
cores incrementally and keeps every cached plan whose core the update
did not touch. See the README's Service section for the protocol
grammar.

--data-root confines LOAD stems under a directory (absolute paths and
.. are refused with ERR PARSE). --shards turns the instance into a
scatter-gather coordinator: LOAD/GEN fan out with a per-shard SHARD
command that restricts each shard server to its slice of the
deterministic 2-hop-component partition, ENUM merges the shards'
sorted result streams (byte-identical to a single-process run) under
one global result budget, and a failed shard answers ERR SHARD
instead of hanging.

EXAMPLES:
  fbe generate --dataset youtube --out /tmp/yt
  fbe stats /tmp/yt
  fbe prune /tmp/yt --alpha 8 --beta 8 --kind colorful
  fbe enumerate /tmp/yt --alpha 8 --beta 8 --delta 2 --top 3
  fbe enumerate /tmp/yt --alpha 5 --beta 5 --delta 2 --bi --count-only
  fbe enumerate /tmp/yt --alpha 8 --beta 8 --delta 2 --threads 4 --sorted
  fbe enumerate /tmp/yt --alpha 8 --beta 8 --delta 2 --substrate bitset
  fbe maximum /tmp/yt --alpha 8 --beta 8 --delta 2 --metric edges --threads 4
";

pub use commands::CliError;

/// Parse `argv` (without the program name) and execute, streaming
/// output to `out`. Output-stream failures surface as
/// [`CliError::Io`] (the binary maps `BrokenPipe` to a clean exit);
/// everything else is [`CliError::Usage`].
pub fn run_to(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let parsed = args::parse(argv).map_err(CliError::Usage)?;
    commands::execute_to(parsed, out)
}

/// Parse `argv` (without the program name) and execute, returning the
/// text to print. Buffers everything — long-running commands
/// (`serve`) should go through [`run_to`].
pub fn run(argv: &[String]) -> Result<String, String> {
    let parsed = args::parse(argv)?;
    commands::execute(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_on_empty_or_flag() {
        assert!(run(&sv(&[])).unwrap().contains("USAGE"));
        assert!(run(&sv(&["--help"])).unwrap().contains("USAGE"));
        assert!(run(&sv(&["help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        let err = run(&sv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
    }

    #[test]
    fn full_workflow_through_cli() {
        let dir = std::env::temp_dir().join("fbe_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("g");
        let stem_s = stem.to_str().unwrap();

        // generate (uniform)
        let out = run(&sv(&[
            "generate",
            "--uniform",
            "30,30,200",
            "--seed",
            "7",
            "--out",
            stem_s,
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(stem.with_extension("edges").exists());

        // stats
        let out = run(&sv(&["stats", stem_s])).unwrap();
        assert!(out.contains("|E|=200"), "{out}");
        assert!(out.contains("butterflies"), "{out}");

        // prune
        let out = run(&sv(&["prune", stem_s, "--alpha", "2", "--beta", "2"])).unwrap();
        assert!(out.contains("remaining"), "{out}");

        // enumerate count-only
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("SSFBC count"), "{out}");

        // enumerate top-k, bi-side, parallel
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "1",
            "--bi",
            "--top",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("BSFBC"), "{out}");

        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--threads",
            "2",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("SSFBC count"), "{out}");

        // sorted output is byte-identical across thread counts
        let base = sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--sorted",
        ]);
        let one = run(&base).unwrap();
        for threads in ["2", "4"] {
            let mut argv = base.clone();
            argv.extend(sv(&["--threads", threads]));
            assert_eq!(run(&argv).unwrap(), one, "threads {threads}");
        }

        // ... and across candidate substrates
        for substrate in ["sorted-vec", "bitset", "auto"] {
            let mut argv = base.clone();
            argv.extend(sv(&["--substrate", substrate]));
            assert_eq!(run(&argv).unwrap(), one, "substrate {substrate}");
        }

        // parallel count-only and top-k stream; results match serial
        // for every model
        let models = [
            vec![],
            vec!["--bi"],
            vec!["--theta", "0.4"],
            vec!["--bi", "--theta", "0.4"],
        ];
        for model in &models {
            for extra in [vec!["--count-only"], vec!["--top", "2"]] {
                let mut serial = sv(&[
                    "enumerate",
                    stem_s,
                    "--alpha",
                    "2",
                    "--beta",
                    "1",
                    "--delta",
                    "1",
                ]);
                serial.extend(sv(model));
                serial.extend(sv(&extra));
                let mut par = serial.clone();
                par.extend(sv(&["--threads", "3"]));
                let want = run(&serial).unwrap();
                assert!(!want.contains(" count: 0"), "{model:?} {extra:?}: {want}");
                assert_eq!(run(&par).unwrap(), want, "{model:?} {extra:?}");
            }
        }

        // bi-side parallel goes through the engine too
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "1",
            "--bi",
            "--threads",
            "3",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("BSFBC count"), "{out}");

        // maximum search, serial and parallel, agree
        let m1 = run(&sv(&[
            "maximum", stem_s, "--alpha", "2", "--beta", "1", "--delta", "1",
        ]))
        .unwrap();
        let m4 = run(&sv(&[
            "maximum",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(m1.contains("maximum SSFBC"), "{m1}");
        assert_eq!(m1, m4);

        // --threads with a non-default algorithm is rejected
        assert!(run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--algo",
            "nsf",
            "--threads",
            "2",
        ]))
        .is_err());

        // proportion
        let out = run(&sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--theta",
            "0.4",
            "--count-only",
        ]))
        .unwrap();
        assert!(out.contains("PSSFBC count"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_dataset_variant() {
        let dir = std::env::temp_dir().join("fbe_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("yt");
        let out = run(&sv(&[
            "generate",
            "--dataset",
            "youtube",
            "--out",
            stem.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("Youtube"), "{out}");
        let st = run(&sv(&["stats", stem.to_str().unwrap()])).unwrap();
        assert!(st.contains("|U|=1473"), "{st}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn theta_with_a_baseline_algo_is_a_usage_error() {
        // No proportion baseline exists, so `--theta` with `--algo`
        // other than the default is refused before the graph loads.
        for algo in ["nsf", "bcem"] {
            for bi in [false, true] {
                let mut argv = sv(&[
                    "enumerate",
                    "/nonexistent",
                    "--alpha",
                    "1",
                    "--beta",
                    "1",
                    "--delta",
                    "1",
                    "--theta",
                    "0.3",
                    "--algo",
                    algo,
                ]);
                if bi {
                    argv.push("--bi".into());
                }
                let err = run_to(&argv, &mut Vec::new()).unwrap_err();
                assert!(
                    matches!(&err, CliError::Usage(m) if m.contains("--theta requires the default --algo")),
                    "{algo} bi={bi}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn bad_arguments_report_errors() {
        assert!(run(&sv(&["generate", "--out", "/tmp/x"])).is_err());
        assert!(run(&sv(&["generate", "--uniform", "bogus", "--out", "/tmp/x"])).is_err());
        assert!(run(&sv(&[
            "enumerate",
            "/nonexistent",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0"
        ]))
        .is_err());
        assert!(run(&sv(&[
            "prune",
            "/nonexistent",
            "--alpha",
            "1",
            "--beta",
            "1"
        ]))
        .is_err());
        let err = run(&sv(&[
            "enumerate",
            "/tmp/x",
            "--alpha",
            "0",
            "--beta",
            "1",
            "--delta",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("alpha"), "{err}");
    }

    #[test]
    fn prune_rejects_alpha_zero_like_the_query_commands() {
        let dir = std::env::temp_dir().join("fbe_cli_prune_alpha_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("g");
        let stem_s = stem.to_str().unwrap();
        run(&sv(&["generate", "--uniform", "12,12,60", "--out", stem_s])).unwrap();
        for sub in ["prune", "enumerate", "maximum"] {
            let argv = sv(&[sub, stem_s, "--alpha", "0", "--beta", "1", "--delta", "1"]);
            // `prune` takes no `--delta`.
            let argv = if sub == "prune" {
                &argv[..6]
            } else {
                &argv[..]
            };
            let err = run(argv).unwrap_err();
            assert_eq!(err, format!("{sub}: alpha must be >= 1"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_flags_stay_with_their_subcommand() {
        let base = ["g", "--alpha", "1", "--beta", "1", "--delta", "1"];
        let maximum_refuses: [&[&str]; 6] = [
            &["--theta", "0.3"],
            &["--top", "3"],
            &["--count-only"],
            &["--sorted"],
            &["--trace"],
            &["--algo", "nsf"],
        ];
        for extra in maximum_refuses {
            let mut argv = vec!["maximum"];
            argv.extend(base);
            argv.extend(extra);
            let err = run(&sv(&argv)).unwrap_err();
            assert_eq!(err, format!("maximum: unknown argument {:?}", extra[0]));
        }
        let mut argv = vec!["enumerate"];
        argv.extend(base);
        argv.extend(["--metric", "edges"]);
        let err = run(&sv(&argv)).unwrap_err();
        assert_eq!(err, "enumerate: unknown argument \"--metric\"");
    }

    /// FNV-1a (64-bit): a digest that stays fixed across toolchains.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Digests of `fbe enumerate` / `fbe maximum` / `fbe prune` stdout,
    /// pinned so a refactor of how results are gathered or pruned
    /// cannot change a byte.
    const PINNED_DIGESTS: &str = "\
enumerate ss collect t1 7377733bbc477e83
enumerate ss collect t3 08f06f4d7b186cb5
enumerate ss sorted t1 f2538f621e282fe9
enumerate ss sorted t3 f2538f621e282fe9
enumerate ss count t1 df30d46e09038795
enumerate ss count t3 df30d46e09038795
enumerate ss top t1 43c990cf498b5b71
enumerate ss top t3 43c990cf498b5b71
enumerate bi collect t1 56bb03f363806088
enumerate bi collect t3 f250bb91d4b8aeba
enumerate bi sorted t1 56bb03f363806088
enumerate bi sorted t3 56bb03f363806088
enumerate bi count t1 b47c6eea4e3b666e
enumerate bi count t3 b47c6eea4e3b666e
enumerate bi top t1 81296ffa0f77763c
enumerate bi top t3 81296ffa0f77763c
enumerate pss collect t1 f58b02e3e42e3b2e
enumerate pss collect t3 3cc7e64ebad50704
enumerate pss sorted t1 76836d12379b966e
enumerate pss sorted t3 76836d12379b966e
enumerate pss count t1 c4c250c5d26116e2
enumerate pss count t3 c4c250c5d26116e2
enumerate pss top t1 418177329c519684
enumerate pss top t3 418177329c519684
enumerate pbs collect t1 3a9711ed5df0915a
enumerate pbs collect t3 8d230d5df7588f68
enumerate pbs sorted t1 3a9711ed5df0915a
enumerate pbs sorted t3 3a9711ed5df0915a
enumerate pbs count t1 8f355e20f89194b0
enumerate pbs count t3 8f355e20f89194b0
enumerate pbs top t1 7eae1e3978e72906
enumerate pbs top t3 7eae1e3978e72906
enumerate nsf ss collect f9bf16ab95e40525
enumerate nsf ss count df30d46e09038795
enumerate nsf ss top 43c990cf498b5b71
enumerate nsf bi collect 56bb03f363806088
enumerate nsf bi count b47c6eea4e3b666e
enumerate nsf bi top 81296ffa0f77763c
enumerate bcem ss collect f9bf16ab95e40525
enumerate bcem ss count df30d46e09038795
enumerate bcem ss top 43c990cf498b5b71
enumerate bcem bi collect 56bb03f363806088
enumerate bcem bi count b47c6eea4e3b666e
enumerate bcem bi top 81296ffa0f77763c
maximum vertices ss t1 0dd8a3a7be87861e
maximum vertices ss t4 0dd8a3a7be87861e
maximum vertices bi t1 12f6896b8db3c0f9
maximum vertices bi t4 12f6896b8db3c0f9
maximum edges ss t1 9f60671baaa3a3ab
maximum edges ss t4 9f60671baaa3a3ab
maximum edges bi t1 319d217f4450f24a
maximum edges bi t4 319d217f4450f24a
prune fcore ss c76d4a17759cebe8
prune fcore bi b0388419018d417c
prune colorful ss d8def39b9449c55b
prune colorful bi 36662649e98cc1ea
";

    #[test]
    fn stdout_digests_are_pinned() {
        let dir = std::env::temp_dir().join("fbe_cli_digest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("g");
        let stem_s = stem.to_str().unwrap();
        run(&sv(&[
            "generate",
            "--uniform",
            "30,30,200",
            "--seed",
            "7",
            "--out",
            stem_s,
        ]))
        .unwrap();
        let params = ["--alpha", "2", "--beta", "1", "--delta", "1"];
        let mut cases: Vec<(String, Vec<&str>)> = Vec::new();
        let models: [(&str, &[&str]); 4] = [
            ("ss", &[]),
            ("bi", &["--bi"]),
            ("pss", &["--theta", "0.4"]),
            ("pbs", &["--bi", "--theta", "0.4"]),
        ];
        let modes: [(&str, &[&str]); 4] = [
            ("collect", &[]),
            ("sorted", &["--sorted"]),
            ("count", &["--count-only"]),
            ("top", &["--top", "3"]),
        ];
        for (model, model_args) in models {
            for (mode, mode_args) in modes {
                for threads in ["1", "3"] {
                    let mut argv = vec!["enumerate", stem_s];
                    argv.extend(params);
                    argv.extend(model_args);
                    argv.extend(mode_args);
                    argv.extend(["--threads", threads]);
                    cases.push((format!("enumerate {model} {mode} t{threads}"), argv));
                }
            }
        }
        for algo in ["nsf", "bcem"] {
            for (model, model_args) in &models[..2] {
                for (mode, mode_args) in [modes[0], modes[2], modes[3]] {
                    let mut argv = vec!["enumerate", stem_s, "--algo", algo];
                    argv.extend(params);
                    argv.extend(*model_args);
                    argv.extend(mode_args);
                    cases.push((format!("enumerate {algo} {model} {mode}"), argv));
                }
            }
        }
        for metric in ["vertices", "edges"] {
            for (model, model_args) in &models[..2] {
                for threads in ["1", "4"] {
                    let mut argv = vec!["maximum", stem_s, "--metric", metric];
                    argv.extend(params);
                    argv.extend(*model_args);
                    argv.extend(["--threads", threads]);
                    cases.push((format!("maximum {metric} {model} t{threads}"), argv));
                }
            }
        }
        for kind in ["fcore", "colorful"] {
            for (model, model_args) in &models[..2] {
                let mut argv = vec!["prune", stem_s, "--kind", kind];
                argv.extend(&params[..4]);
                argv.extend(*model_args);
                cases.push((format!("prune {kind} {model}"), argv));
            }
        }
        let got: String = cases
            .iter()
            .map(|(label, argv)| {
                let out = run(&sv(argv)).unwrap();
                // Unsorted parallel collection is a multiset: its
                // discovery order varies run to run, so digest it in
                // line order.
                let out = if label.ends_with("collect t3") {
                    let mut lines: Vec<&str> = out.lines().collect();
                    lines.sort_unstable();
                    lines.join("\n")
                } else {
                    out
                };
                format!("{label} {:016x}\n", fnv1a(&out))
            })
            .collect();
        assert_eq!(got, PINNED_DIGESTS, "stdout digests moved:\n{got}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
