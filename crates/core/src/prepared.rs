//! Prepared queries: pay pruning + candidate-plan construction once,
//! enumerate many times.
//!
//! Every query runs three phases: (1) FCore/CFCore pruning (which
//! internally builds the colorful 2-hop structure), (2)
//! [`CandidatePlan`] resolution (substrate choice + bitset-row
//! construction on the pruned core), and (3) enumeration. A resident
//! query service answering repeated queries over the same graph wants
//! to amortize (1) and (2). A [`PreparedQuery`] captures exactly that
//! reusable state — the compacted pruned core with its id maps back to
//! the original graph, and the resolved plan (rows shared by reference
//! across workers) — and can then enumerate any number of times, each
//! run with its own budget/deadline/cancellation.
//!
//! Enumeration has one path: [`PreparedQuery::stream`] runs the
//! model's miner into caller-built sinks, serially on the caller's
//! thread or, when `threads > 1`, on the work-stealing engine
//! ([`crate::parallel`]). Results are gathered by one executor,
//! [`PreparedQuery::run`]: a [`Mode`] picks the per-worker sink
//! (collect, count, top-k or maximum), how the workers' sinks merge
//! and which spans record the run. [`run_serial`] gathers a caller's
//! own serial miner (the paper's baselines) through the same merge.
//! [`PreparedQuery::execute`] and [`PreparedQuery::count`] are `run`
//! in the collect and count modes, and the collected pipelines in
//! [`crate::pipeline`] are one-shot prepare → execute runs, so
//! prepared execution is bit-identical to them by construction.

use crate::biclique::{
    Biclique, BicliqueSink, CollectSink, CountSink, EnumStats, MappingSink, TopKSink,
};
use crate::config::{
    FairParams, ParamError, PrepareCtl, ProParams, PruneKind, RunConfig, StopReason, Substrate,
};
use crate::expansion::walk;
use crate::fairset::FairRule;
use crate::fcore::{PruneOutcome, PruneStats};
use crate::maximum::{MaxSink, SizeMetric};
use crate::obs::SpanRecorder;
use crate::parallel::parallel_walk;
use crate::pipeline::{prune_rec, RunReport};
use bigraph::candidate::CandidatePlan;
use bigraph::{BipartiteGraph, VertexId};
use std::time::{Duration, Instant};

/// Which fair-biclique model a query runs, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryModel {
    /// Single-side fair bicliques (Definition 3), `FairBCEM++`.
    Ssfbc(FairParams),
    /// Bi-side fair bicliques (Definition 4), `BFairBCEM++`.
    Bsfbc(FairParams),
    /// Proportion single-side (Definition 5), `FairBCEMPro++`.
    Pssfbc(ProParams),
    /// Proportion bi-side (Definition 6), `BFairBCEMPro++`.
    Pbsfbc(ProParams),
}

impl QueryModel {
    /// The model a query's flags select: `bi` picks the bi-side
    /// models, a `theta` the proportion ones. Validates the
    /// parameters like [`FairParams::new`] and [`ProParams::new`].
    pub fn new(
        bi: bool,
        alpha: u32,
        beta: u32,
        delta: u32,
        theta: Option<f64>,
    ) -> Result<QueryModel, ParamError> {
        Ok(match (bi, theta) {
            (false, None) => QueryModel::Ssfbc(FairParams::new(alpha, beta, delta)?),
            (true, None) => QueryModel::Bsfbc(FairParams::new(alpha, beta, delta)?),
            (false, Some(t)) => QueryModel::Pssfbc(ProParams::new(alpha, beta, delta, t)?),
            (true, Some(t)) => QueryModel::Pbsfbc(ProParams::new(alpha, beta, delta, t)?),
        })
    }

    /// Canonical model name (`SSFBC` / `BSFBC` / `PSSFBC` / `PBSFBC`).
    pub fn name(&self) -> &'static str {
        match self {
            QueryModel::Ssfbc(_) => "SSFBC",
            QueryModel::Bsfbc(_) => "BSFBC",
            QueryModel::Pssfbc(_) => "PSSFBC",
            QueryModel::Pbsfbc(_) => "PBSFBC",
        }
    }

    /// True for the bi-side models (both sides fairness-constrained).
    pub fn is_bi_side(&self) -> bool {
        matches!(self, QueryModel::Bsfbc(_) | QueryModel::Pbsfbc(_))
    }

    /// The absolute thresholds `(α, β, δ)` of the model.
    pub fn base(&self) -> FairParams {
        match self {
            QueryModel::Ssfbc(p) | QueryModel::Bsfbc(p) => *p,
            QueryModel::Pssfbc(p) | QueryModel::Pbsfbc(p) => p.base,
        }
    }

    /// The ratio threshold `θ` of the proportion models.
    pub fn theta(&self) -> Option<f64> {
        match self {
            QueryModel::Pssfbc(p) | QueryModel::Pbsfbc(p) => Some(p.theta),
            _ => None,
        }
    }

    /// The fairness rule on the lower (fair) side: `(β, δ, θ)`.
    pub(crate) fn lower_rule(&self) -> FairRule {
        let p = self.base();
        FairRule {
            k: p.beta,
            delta: p.delta,
            theta: self.theta(),
        }
    }

    /// The fairness rule on the upper side of the bi-side models:
    /// `(α, δ, θ)`.
    pub(crate) fn upper_rule(&self) -> FairRule {
        FairRule {
            k: self.base().alpha,
            ..self.lower_rule()
        }
    }
}

impl std::fmt::Display for QueryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The reusable, immutable result of the preparation phases of one
/// `(graph, model, params, prune, substrate)` combination: the pruned
/// core (with id maps), and the resolved candidate plan. Safe to share
/// across threads (`execute` takes `&self`), which is what the
/// service's plan cache does via `Arc<PreparedQuery>`.
pub struct PreparedQuery {
    model: QueryModel,
    pruned: PruneOutcome,
    plan: CandidatePlan,
    prune_elapsed: Duration,
}

impl PreparedQuery {
    /// Run the preparation phases: prune `g` for `model` (single- or
    /// bi-side cores as appropriate), then resolve `substrate` against
    /// the pruned core (bi-side models also get upper-side rows).
    pub fn prepare(
        g: &BipartiteGraph,
        model: QueryModel,
        prune: PruneKind,
        substrate: Substrate,
    ) -> PreparedQuery {
        Self::prepare_rec(
            g,
            model,
            prune,
            substrate,
            &PrepareCtl::UNBOUNDED,
            &mut SpanRecorder::disabled(),
        )
        .expect("unbounded prepare is never interrupted")
    }

    /// [`PreparedQuery::prepare`] under a deadline/cancellation bound,
    /// with a [`SpanRecorder`].
    ///
    /// The prune cascade probes `ctl` at its stage boundaries (and,
    /// counter-gated, inside the peel loops) and aborts with the
    /// interrupting [`StopReason`] instead of running to completion.
    /// No partial plan is produced on `Err` — the caller retries the
    /// prepare later (or reports the truncation) rather than caching
    /// a half-pruned core.
    ///
    /// The preparation runs under a `prepare` scope span whose children
    /// attribute wall time to the prune cascade's stages (`core-peel`,
    /// `2hop`, `ego-core`, `colorful-lower`, `colorful-upper`,
    /// `re-peel` — whichever the prune kind runs) and to
    /// `plan-resolve` (degree relabel + candidate-plan construction).
    /// A disabled recorder records nothing.
    pub fn prepare_rec(
        g: &BipartiteGraph,
        model: QueryModel,
        prune: PruneKind,
        substrate: Substrate,
        ctl: &PrepareCtl,
        rec: &mut SpanRecorder,
    ) -> Result<PreparedQuery, StopReason> {
        rec.scope("prepare", |rec| {
            let t0 = Instant::now();
            let mut pruned = prune_rec(g, model.base(), prune, model.is_bi_side(), ctl, rec)?;
            if let Some(r) = ctl.interrupted() {
                return Err(r);
            }
            let plan = rec.timed("plan-resolve", || {
                // Relabel the pruned core in degree order so the hottest
                // bitset rows land on adjacent cache lines. Results are
                // mapped back through the composed parent maps, so this
                // is invisible outside the walk itself. Gated on the
                // resolved substrate: sorted-vec merges iterate CSR
                // ranges wholesale and gain nothing from the permutation
                // (it measurably perturbs their merge patterns), and
                // `resolve_for` reads only side sizes and density, which
                // relabeling preserves.
                if substrate.resolve_for(&pruned.sub.graph) == Substrate::Bitset {
                    pruned.sub = pruned.sub.relabel_degree_desc();
                }
                CandidatePlan::build(&pruned.sub.graph, substrate, model.is_bi_side())
            });
            Ok(PreparedQuery {
                model,
                pruned,
                plan,
                prune_elapsed: t0.elapsed(),
            })
        })
    }

    /// The model this plan was prepared for.
    pub fn model(&self) -> QueryModel {
        self.model
    }

    /// Pruning statistics of the preparation pass.
    pub fn prune_stats(&self) -> &PruneStats {
        &self.pruned.stats
    }

    /// The substrate the plan resolved to (never `Auto`).
    pub fn resolved_substrate(&self) -> Substrate {
        self.plan.choice()
    }

    /// Wall-clock cost of the preparation phases (pruning — including
    /// the 2-hop/coloring work of the colorful core — plus plan
    /// construction). Amortized across every execute of this plan.
    pub fn prune_elapsed(&self) -> Duration {
        self.prune_elapsed
    }

    /// Heap bytes pinned by the cached plan: the pruned core's
    /// adjacency plus the bitset rows (cache-eviction accounting).
    pub fn heap_bytes(&self) -> usize {
        // CSR adjacency is one u32 per directed edge endpoint per side
        // plus offsets; approximate with the dominant terms.
        let g = &self.pruned.sub.graph;
        let csr = 2 * g.n_edges() * std::mem::size_of::<bigraph::VertexId>();
        csr + self.plan.heap_bytes()
    }

    /// Run the model's miner on the cached core/plan, streaming
    /// original-id results into sinks built by `make_sink`, under the
    /// budget, order and thread count of `cfg`.
    ///
    /// With `cfg.threads <= 1` one sink is built and the walk runs on
    /// the caller's thread (no spawn, no split). Otherwise the
    /// work-stealing engine runs `cfg.threads` workers, each with its
    /// own sink. Returns the sinks (in worker order) for the caller to
    /// merge, plus the merged statistics (`stats.emitted` is the total
    /// result count).
    pub fn stream<S: BicliqueSink + Send>(
        &self,
        cfg: &RunConfig,
        make_sink: &(dyn Fn() -> S + Sync),
    ) -> (Vec<S>, EnumStats) {
        let sub = &self.pruned.sub;
        if cfg.threads > 1 {
            return parallel_walk(sub, self.model, &self.plan, cfg, make_sink);
        }
        let mut sink = make_sink();
        let mut mapped = MappingSink::new(&sub.upper_to_parent, &sub.lower_to_parent, &mut sink);
        let (g, budget) = (&sub.graph, cfg.budget.clone());
        let stats = walk(g, self.model, &self.plan, cfg.order, budget, &mut mapped);
        (vec![sink], stats)
    }

    /// Run the model's miner on the cached core/plan and gather its
    /// results the way `mode` asks (see [`Mode`]), honoring the order,
    /// budget, thread count and `sorted` flag of `cfg`.
    ///
    /// Records an `enumerate` span (with the run's [`EnumStats`]
    /// attached as detail) and a `sort` span for the merge of a sorted
    /// collection or of the per-worker top-k / maxima. Spans are
    /// recorded only at this single-threaded orchestration boundary —
    /// never inside the parallel workers — so the recorder cannot
    /// perturb enumeration; a disabled recorder records nothing.
    /// `RunReport::prune_elapsed` reports the (possibly amortized)
    /// preparation cost of this plan.
    pub fn run(&self, mode: Mode, cfg: &RunConfig, rec: &mut SpanRecorder) -> RunReport {
        let t0 = Instant::now();
        let (bicliques, stats) = gather(mode, cfg, rec, |make| self.stream(cfg, make));
        let enumerate_elapsed = t0.elapsed();
        RunReport {
            bicliques,
            prune: self.pruned.stats,
            stats,
            threads: cfg.threads.max(1),
            truncated_by: stats.stop,
            elapsed: self.prune_elapsed + enumerate_elapsed,
            prune_elapsed: self.prune_elapsed,
            enumerate_elapsed,
        }
    }

    /// Enumerate and collect all results: [`PreparedQuery::run`] with
    /// [`Mode::Collect`] and no spans.
    pub fn execute(&self, cfg: &RunConfig) -> RunReport {
        self.run(Mode::Collect, cfg, &mut SpanRecorder::disabled())
    }

    /// Count results without materializing them (`stats.emitted` is
    /// the count; `bicliques` stays empty): [`PreparedQuery::run`]
    /// with [`Mode::Count`] and no spans.
    pub fn count(&self, cfg: &RunConfig) -> RunReport {
        self.run(Mode::Count, cfg, &mut SpanRecorder::disabled())
    }
}

/// How a run gathers the results its miner emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every result, in discovery order or, with
    /// [`RunConfig::sorted`], in [`crate::results::canonical_order`].
    Collect,
    /// Only the count (`stats.emitted`); nothing is materialized.
    Count,
    /// The `k` largest results by vertex count, largest first (ties
    /// broken lexicographically, as [`crate::biclique::TopKSink`]).
    Top(usize),
    /// The single largest result under a metric (ties broken
    /// lexicographically, as [`crate::maximum::MaxSink`]), if any.
    Max(SizeMetric),
}

/// Run `walk` serially into a sink for `mode` and gather its results
/// exactly as [`PreparedQuery::run`] does (same merge, same spans).
/// This is the entry point for miners that are not prepared plans,
/// such as the paper's baselines behind a caller's closure. Returns
/// the results and the walk's statistics.
pub fn run_serial(
    mode: Mode,
    cfg: &RunConfig,
    rec: &mut SpanRecorder,
    walk: impl FnOnce(&mut dyn BicliqueSink) -> EnumStats,
) -> (Vec<Biclique>, EnumStats) {
    gather(mode, cfg, rec, |make| {
        let mut sink = make();
        let stats = walk(&mut sink);
        (vec![sink], stats)
    })
}

/// The shared body of [`PreparedQuery::run`] and [`run_serial`]:
/// `stream` fills one [`ModeSink`] per worker under an `enumerate`
/// span, then the sinks merge into the run's results.
fn gather(
    mode: Mode,
    cfg: &RunConfig,
    rec: &mut SpanRecorder,
    stream: impl FnOnce(&(dyn Fn() -> ModeSink + Sync)) -> (Vec<ModeSink>, EnumStats),
) -> (Vec<Biclique>, EnumStats) {
    let (sinks, stats) = rec.timed("enumerate", || stream(&|| ModeSink::new(mode)));
    rec.annotate_last(|| format!("threads={} {stats}", cfg.threads.max(1)));
    let mut results = sinks.into_iter().map(ModeSink::into_results);
    let bicliques = match mode {
        Mode::Collect | Mode::Count => {
            // A serial run's single sink is moved, not copied.
            let mut all = results.next().unwrap_or_default();
            all.extend(results.flatten());
            if cfg.sorted && mode == Mode::Collect {
                rec.timed("sort", || crate::results::canonical_order(&mut all));
            }
            all
        }
        // Re-emitting every worker's survivors into one fresh sink
        // keeps exactly the survivors a serial run keeps: both sinks
        // retain by a total order, independent of arrival order.
        Mode::Top(_) | Mode::Max(_) => rec.timed("sort", || {
            let mut merged = ModeSink::new(mode);
            for bc in results.flatten() {
                merged.emit(&bc.upper, &bc.lower);
            }
            merged.into_results()
        }),
    };
    (bicliques, stats)
}

/// The sink one worker fills for a [`Mode`].
enum ModeSink {
    Collect(CollectSink),
    Count(CountSink),
    Top(TopKSink),
    Max(MaxSink),
}

impl ModeSink {
    fn new(mode: Mode) -> ModeSink {
        match mode {
            Mode::Collect => ModeSink::Collect(CollectSink::default()),
            Mode::Count => ModeSink::Count(CountSink::default()),
            Mode::Top(k) => ModeSink::Top(TopKSink::new(k)),
            Mode::Max(metric) => ModeSink::Max(MaxSink::new(metric)),
        }
    }

    /// The results this sink kept, in its mode's order.
    fn into_results(self) -> Vec<Biclique> {
        match self {
            ModeSink::Collect(s) => s.bicliques,
            ModeSink::Count(_) => Vec::new(),
            ModeSink::Top(s) => s.into_sorted(),
            ModeSink::Max(s) => s.best.into_iter().collect(),
        }
    }
}

impl BicliqueSink for ModeSink {
    #[inline]
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]) {
        match self {
            ModeSink::Collect(s) => s.emit(upper, lower),
            ModeSink::Count(s) => s.emit(upper, lower),
            ModeSink::Top(s) => s.emit(upper, lower),
            ModeSink::Max(s) => s.emit(upper, lower),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Budget, CancelToken, StopReason};
    use crate::pipeline::{enumerate_bsfbc, enumerate_pbsfbc, enumerate_pssfbc, enumerate_ssfbc};
    use bigraph::generate::random_uniform;

    fn models() -> Vec<QueryModel> {
        let fair = FairParams::unchecked(2, 1, 1);
        let pro = ProParams::new(2, 1, 1, 0.3).unwrap();
        vec![
            QueryModel::Ssfbc(fair),
            QueryModel::Bsfbc(fair),
            QueryModel::Pssfbc(pro),
            QueryModel::Pbsfbc(pro),
        ]
    }

    #[test]
    fn prepared_matches_one_shot_pipelines_all_models() {
        let g = random_uniform(12, 14, 70, 2, 2, 11);
        for model in models() {
            for threads in [1usize, 3] {
                let cfg = RunConfig {
                    threads,
                    sorted: true,
                    ..RunConfig::default()
                };
                let want = match model {
                    QueryModel::Ssfbc(p) => enumerate_ssfbc(&g, p, &cfg),
                    QueryModel::Bsfbc(p) => enumerate_bsfbc(&g, p, &cfg),
                    QueryModel::Pssfbc(p) => enumerate_pssfbc(&g, p, &cfg),
                    QueryModel::Pbsfbc(p) => enumerate_pbsfbc(&g, p, &cfg),
                };
                let prepared = PreparedQuery::prepare(&g, model, cfg.prune, cfg.substrate);
                let got = prepared.execute(&cfg);
                assert_eq!(got.bicliques, want.bicliques, "{model} threads {threads}");
                assert_eq!(
                    got.stats.nodes, want.stats.nodes,
                    "{model} threads {threads}"
                );
                assert_eq!(got.prune, want.prune);
                // The same plan executes repeatedly with identical output.
                let again = prepared.execute(&cfg);
                assert_eq!(again.bicliques, got.bicliques);
                // Count mode agrees without materializing.
                let counted = prepared.count(&cfg);
                assert!(counted.bicliques.is_empty());
                assert_eq!(counted.stats.emitted as usize, got.bicliques.len());
            }
        }
    }

    #[test]
    fn prepared_maximum_matches_maximum_module() {
        let g = random_uniform(14, 14, 90, 2, 2, 5);
        let params = FairParams::unchecked(2, 1, 1);
        let cfg = RunConfig::default();
        let (want, _) = crate::maximum::max_ssfbc(&g, params, SizeMetric::Edges, &cfg);
        let prepared =
            PreparedQuery::prepare(&g, QueryModel::Ssfbc(params), cfg.prune, cfg.substrate);
        for threads in [1usize, 4] {
            let cfg = RunConfig::with_threads(threads);
            let mode = Mode::Max(SizeMetric::Edges);
            let got = prepared.run(mode, &cfg, &mut SpanRecorder::disabled());
            assert_eq!(got.bicliques.into_iter().next(), want, "threads {threads}");
        }
    }

    #[test]
    fn truncated_by_reports_the_tripped_limit() {
        let g = random_uniform(16, 18, 120, 2, 2, 4);
        let params = FairParams::unchecked(1, 1, 2);
        let prepared = PreparedQuery::prepare(
            &g,
            QueryModel::Ssfbc(params),
            PruneKind::default(),
            Substrate::Auto,
        );
        let full = prepared.execute(&RunConfig::default());
        assert_eq!(full.truncated_by, None);
        assert!(full.elapsed >= full.enumerate_elapsed);

        let capped = prepared.execute(&RunConfig {
            budget: Budget::results(1),
            ..RunConfig::default()
        });
        assert_eq!(capped.truncated_by, Some(StopReason::ResultCap));
        assert_eq!(capped.bicliques.len(), 1);

        // A pre-cancelled token stops the run immediately, for any
        // thread count, and the plan stays reusable afterwards.
        for threads in [1usize, 4] {
            let token = CancelToken::new();
            token.cancel();
            let cancelled = prepared.execute(&RunConfig {
                threads,
                budget: Budget::UNLIMITED.with_cancel(token),
                ..RunConfig::default()
            });
            assert_eq!(cancelled.truncated_by, Some(StopReason::Cancelled));
            assert!(cancelled.stats.aborted);
            assert!(cancelled.bicliques.len() <= full.bicliques.len());
        }
        let after = prepared.execute(&RunConfig::default());
        assert_eq!(after.bicliques.len(), full.bicliques.len());
    }

    #[test]
    fn prepare_rec_aborts_on_expired_ctl() {
        let g = random_uniform(16, 18, 120, 2, 2, 4);
        for model in models() {
            // Expired deadline: the first probe trips before any stage
            // runs, for every prune kind including None (probed in the
            // prepare wrapper itself).
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                let ctl = PrepareCtl {
                    deadline_at: Some(Instant::now()),
                    cancel: None,
                };
                let got = PreparedQuery::prepare_rec(
                    &g,
                    model,
                    prune,
                    Substrate::Auto,
                    &ctl,
                    &mut SpanRecorder::disabled(),
                );
                assert!(
                    matches!(got, Err(StopReason::Deadline)),
                    "{model} {prune:?} should abort on expired deadline"
                );
            }
            // Pre-cancelled token wins over a live deadline.
            let token = CancelToken::new();
            token.cancel();
            let ctl = PrepareCtl {
                deadline_at: None,
                cancel: Some(token),
            };
            let got = PreparedQuery::prepare_rec(
                &g,
                model,
                PruneKind::Colorful,
                Substrate::Auto,
                &ctl,
                &mut SpanRecorder::disabled(),
            );
            assert!(matches!(got, Err(StopReason::Cancelled)), "{model}");
            // An unbounded ctl prepares normally and matches `prepare`.
            let bounded = PreparedQuery::prepare_rec(
                &g,
                model,
                PruneKind::Colorful,
                Substrate::Auto,
                &PrepareCtl::UNBOUNDED,
                &mut SpanRecorder::disabled(),
            )
            .unwrap();
            let plain = PreparedQuery::prepare(&g, model, PruneKind::Colorful, Substrate::Auto);
            assert_eq!(bounded.prune_stats(), plain.prune_stats(), "{model}");
        }
    }

    #[test]
    fn model_accessors() {
        let fair = FairParams::unchecked(3, 2, 1);
        let pro = ProParams::new(3, 2, 1, 0.25).unwrap();
        assert_eq!(QueryModel::Ssfbc(fair).name(), "SSFBC");
        assert_eq!(QueryModel::Pbsfbc(pro).to_string(), "PBSFBC");
        assert!(QueryModel::Bsfbc(fair).is_bi_side());
        assert!(!QueryModel::Pssfbc(pro).is_bi_side());
        assert_eq!(QueryModel::Pssfbc(pro).base(), fair);
        assert_eq!(QueryModel::Pssfbc(pro).theta(), Some(0.25));
        assert_eq!(QueryModel::Ssfbc(fair).theta(), None);
        assert_eq!(
            QueryModel::new(false, 3, 2, 1, None),
            Ok(QueryModel::Ssfbc(fair))
        );
        assert_eq!(
            QueryModel::new(true, 3, 2, 1, None),
            Ok(QueryModel::Bsfbc(fair))
        );
        assert_eq!(
            QueryModel::new(false, 3, 2, 1, Some(0.25)),
            Ok(QueryModel::Pssfbc(pro))
        );
        assert_eq!(
            QueryModel::new(true, 3, 2, 1, Some(0.25)),
            Ok(QueryModel::Pbsfbc(pro))
        );
        assert_eq!(
            QueryModel::new(true, 0, 2, 1, None),
            Err(ParamError::AlphaZero)
        );
        assert_eq!(
            QueryModel::new(false, 3, 2, 1, Some(0.6)),
            Err(ParamError::ThetaOutOfRange(0.6))
        );

        let g = random_uniform(10, 10, 50, 2, 2, 9);
        let p = PreparedQuery::prepare(
            &g,
            QueryModel::Ssfbc(fair),
            PruneKind::Colorful,
            Substrate::Auto,
        );
        assert_eq!(p.model(), QueryModel::Ssfbc(fair));
        assert_ne!(p.resolved_substrate(), Substrate::Auto);
        assert!(p.prune_stats().upper_after <= p.prune_stats().upper_before);
        let _ = p.heap_bytes();
    }
}
