//! End-to-end drivers: pruning → enumeration → id remapping.
//!
//! The enumerators in the sibling modules operate on compacted pruned
//! graphs; the functions here compose the paper's full pipelines and
//! translate results back to the caller's vertex ids.

use crate::bfairbcem::bfairbcem_on_pruned_with;
use crate::bfcore::bcfcore_rec;
use crate::biclique::{Biclique, BicliqueSink, EnumStats, MappingSink};
use crate::cfcore::cfcore_rec;
use crate::config::{FairParams, PrepareCtl, ProParams, PruneKind, RunConfig, StopReason};
use crate::expansion::walk_on_pruned;
use crate::fairbcem::fairbcem_on_pruned;
use crate::fcore::{no_prune, peel, PruneOutcome, PruneStats};
use crate::naive::{bnsf_on_pruned, nsf_on_pruned};
use crate::obs::SpanRecorder;
use crate::prepared::QueryModel;
use bigraph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Which single-side enumeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SsAlgorithm {
    /// Naive baseline (`NSF`).
    Nsf,
    /// Branch-and-bound (`FairBCEM`, Algorithm 5).
    FairBcem,
    /// Combinatorial (`FairBCEM++`, Algorithm 6) — the paper's best.
    #[default]
    FairBcemPP,
}

/// Which bi-side enumeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BiAlgorithm {
    /// Naive baseline (`BNSF`).
    Bnsf,
    /// `BFairBCEM` (Algorithm 9 over `FairBCEM`).
    BFairBcem,
    /// `BFairBCEM++` (Algorithm 9 over `FairBCEM++`) — the paper's best.
    #[default]
    BFairBcemPP,
}

/// Result of a collected enumeration run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The fair bicliques, in the original graph's vertex ids.
    /// Discovery order, unless the run's [`RunConfig::sorted`] put
    /// them in [`crate::results::canonical_order`].
    pub bicliques: Vec<Biclique>,
    /// Pruning statistics.
    pub prune: PruneStats,
    /// Search statistics (parallel runs merge per-worker stats; see
    /// [`crate::parallel`]).
    pub stats: EnumStats,
    /// Worker threads the run was configured with (1 = serial; the
    /// engine may clamp the spawned count to the available work).
    pub threads: usize,
    /// Which budget limit cut the run short (`None` when it ran to
    /// completion): node cap, deadline, result cap, or cooperative
    /// cancellation. Equal to `stats.stop`.
    pub truncated_by: Option<crate::config::StopReason>,
    /// End-to-end wall-clock time of this run (preparation —
    /// possibly amortized from a cached plan — plus enumeration).
    pub elapsed: std::time::Duration,
    /// Wall-clock time of the preparation phases: pruning (including
    /// the colorful core's 2-hop/coloring work) and candidate-plan
    /// construction. When the run executed a cached
    /// [`crate::prepared::PreparedQuery`], this is the *original*
    /// (amortized) preparation cost, not time spent by this call.
    pub prune_elapsed: std::time::Duration,
    /// Wall-clock time of the enumeration phase alone.
    pub enumerate_elapsed: std::time::Duration,
}

/// Run the pruning stage `kind` for a single-side problem, or with
/// `bi` for a bi-side one (`FCore` maps to `BFCore`, `Colorful` to
/// `BCFCore`).
pub fn prune(g: &BipartiteGraph, params: FairParams, kind: PruneKind, bi: bool) -> PruneOutcome {
    prune_rec(
        g,
        params,
        kind,
        bi,
        &PrepareCtl::UNBOUNDED,
        &mut SpanRecorder::disabled(),
    )
    .expect("unbounded prepare is never interrupted")
}

/// [`prune`] with cooperative interruption and a [`SpanRecorder`]:
/// the prune cascade probes `ctl` at stage boundaries and
/// (counter-gated) inside the peel loops, aborting with the
/// interrupting [`StopReason`], and the recorder attributes wall time
/// to the prune stages.
pub fn prune_rec(
    g: &BipartiteGraph,
    params: FairParams,
    kind: PruneKind,
    bi: bool,
    ctl: &PrepareCtl,
    rec: &mut SpanRecorder,
) -> Result<PruneOutcome, StopReason> {
    match kind {
        PruneKind::None => Ok(no_prune(g)),
        PruneKind::FCore => rec.timed("core-peel", || peel(g, params, bi, ctl)),
        PruneKind::Colorful if bi => bcfcore_rec(g, params, ctl, rec),
        PruneKind::Colorful => cfcore_rec(g, params, ctl, rec),
    }
}

/// Streaming single-side enumeration: prune, enumerate with `algo`,
/// emit results (original ids) into `sink`.
pub fn run_ssfbc(
    g: &BipartiteGraph,
    params: FairParams,
    algo: SsAlgorithm,
    cfg: &RunConfig,
    sink: &mut dyn BicliqueSink,
) -> (PruneStats, EnumStats) {
    let pruned = prune(g, params, cfg.prune, false);
    let mut mapped = MappingSink::new(
        &pruned.sub.upper_to_parent,
        &pruned.sub.lower_to_parent,
        sink,
    );
    let stats = match algo {
        SsAlgorithm::Nsf => nsf_on_pruned(
            &pruned.sub.graph,
            params,
            cfg.order,
            cfg.budget.clone(),
            &mut mapped,
        ),
        SsAlgorithm::FairBcem => fairbcem_on_pruned(
            &pruned.sub.graph,
            params,
            cfg.order,
            cfg.budget.clone(),
            &mut mapped,
        ),
        SsAlgorithm::FairBcemPP => walk_on_pruned(
            &pruned.sub.graph,
            QueryModel::Ssfbc(params),
            cfg.order,
            cfg.budget.clone(),
            cfg.substrate,
            &mut mapped,
        ),
    };
    (pruned.stats, stats)
}

/// Streaming bi-side enumeration.
pub fn run_bsfbc(
    g: &BipartiteGraph,
    params: FairParams,
    algo: BiAlgorithm,
    cfg: &RunConfig,
    sink: &mut dyn BicliqueSink,
) -> (PruneStats, EnumStats) {
    let pruned = prune(g, params, cfg.prune, true);
    let mut mapped = MappingSink::new(
        &pruned.sub.upper_to_parent,
        &pruned.sub.lower_to_parent,
        sink,
    );
    let stats = match algo {
        BiAlgorithm::Bnsf => bnsf_on_pruned(
            &pruned.sub.graph,
            params,
            cfg.order,
            cfg.budget.clone(),
            &mut mapped,
        ),
        BiAlgorithm::BFairBcem => bfairbcem_on_pruned_with(
            &pruned.sub.graph,
            params,
            cfg.order,
            cfg.budget.clone(),
            cfg.substrate,
            &mut mapped,
        ),
        BiAlgorithm::BFairBcemPP => walk_on_pruned(
            &pruned.sub.graph,
            QueryModel::Bsfbc(params),
            cfg.order,
            cfg.budget.clone(),
            cfg.substrate,
            &mut mapped,
        ),
    };
    (pruned.stats, stats)
}

/// Prepare-then-execute: the collected pipelines are one-shot uses of
/// the prepared-plan layer ([`crate::prepared`]), so a cached plan in
/// the query service executes bit-identically to these.
fn enumerate(g: &BipartiteGraph, model: QueryModel, cfg: &RunConfig) -> RunReport {
    crate::prepared::PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate).execute(cfg)
}

/// Enumerate and collect all single-side fair bicliques (Definition 3)
/// with the paper's best pipeline (`CFCore` + `FairBCEM++` by default).
/// `cfg.threads > 1` runs on the parallel engine ([`crate::parallel`]).
pub fn enumerate_ssfbc(g: &BipartiteGraph, params: FairParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Ssfbc(params), cfg)
}

/// Enumerate and collect all bi-side fair bicliques (Definition 4).
/// `cfg.threads > 1` runs on the parallel engine.
pub fn enumerate_bsfbc(g: &BipartiteGraph, params: FairParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Bsfbc(params), cfg)
}

/// Enumerate and collect all proportion single-side fair bicliques
/// (Definition 5). `cfg.threads > 1` runs on the parallel engine.
pub fn enumerate_pssfbc(g: &BipartiteGraph, pro: ProParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Pssfbc(pro), cfg)
}

/// Enumerate and collect all proportion bi-side fair bicliques
/// (Definition 6). `cfg.threads > 1` runs on the parallel engine.
pub fn enumerate_pbsfbc(g: &BipartiteGraph, pro: ProParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Pbsfbc(pro), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{CollectSink, CountSink};
    use crate::config::VertexOrder;
    use crate::verify::{oracle_bsfbc, oracle_ssfbc};
    use bigraph::generate::{plant_bicliques, random_uniform};
    use std::collections::BTreeSet;

    #[test]
    fn full_pipeline_matches_oracle_all_prunings() {
        for seed in 0..12u64 {
            let g = random_uniform(9, 10, 38, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let want = oracle_ssfbc(&g, params);
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for algo in [
                    SsAlgorithm::Nsf,
                    SsAlgorithm::FairBcem,
                    SsAlgorithm::FairBcemPP,
                ] {
                    let cfg = RunConfig::with_prune(prune);
                    let mut sink = CollectSink::default();
                    run_ssfbc(&g, params, algo, &cfg, &mut sink);
                    let got: BTreeSet<_> = sink.bicliques.into_iter().collect();
                    assert_eq!(got, want, "seed {seed} prune {prune:?} algo {algo:?}");
                }
            }
        }
    }

    #[test]
    fn bi_pipeline_matches_oracle_all_prunings() {
        for seed in 0..8u64 {
            let g = random_uniform(7, 8, 28, 2, 2, seed);
            let params = FairParams::unchecked(1, 1, 1);
            let want = oracle_bsfbc(&g, params);
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for algo in [
                    BiAlgorithm::Bnsf,
                    BiAlgorithm::BFairBcem,
                    BiAlgorithm::BFairBcemPP,
                ] {
                    let cfg = RunConfig::with_prune(prune);
                    let mut sink = CollectSink::default();
                    run_bsfbc(&g, params, algo, &cfg, &mut sink);
                    let got: BTreeSet<_> = sink.bicliques.into_iter().collect();
                    assert_eq!(got, want, "seed {seed} prune {prune:?} algo {algo:?}");
                }
            }
        }
    }

    #[test]
    fn report_ids_are_original() {
        // Plant a block away from id 0 so pruning must remap.
        let base = random_uniform(30, 30, 60, 2, 2, 3);
        let g = plant_bicliques(&base, 1, 5, 8, 1.0, 9);
        let params = FairParams::unchecked(2, 2, 2);
        let report = enumerate_ssfbc(&g, params, &RunConfig::default());
        for bc in &report.bicliques {
            for &u in &bc.upper {
                for &v in &bc.lower {
                    assert!(
                        g.has_edge(u, v),
                        "result must be a biclique in the ORIGINAL graph"
                    );
                }
            }
        }
        assert!(report.prune.upper_after <= report.prune.upper_before);
    }

    #[test]
    fn orderings_agree_on_results() {
        let g = random_uniform(12, 14, 70, 2, 2, 21);
        let params = FairParams::unchecked(2, 1, 1);
        let mut res = Vec::new();
        for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
            let cfg = RunConfig::with_order(order);
            let report = enumerate_ssfbc(&g, params, &cfg);
            res.push(report.bicliques.into_iter().collect::<BTreeSet<_>>());
        }
        assert_eq!(res[0], res[1]);
    }

    #[test]
    fn counting_sink_streams() {
        let g = random_uniform(12, 14, 70, 2, 2, 22);
        let params = FairParams::unchecked(2, 1, 1);
        let mut count = CountSink::default();
        let (_, stats) = run_ssfbc(
            &g,
            params,
            SsAlgorithm::FairBcemPP,
            &RunConfig::default(),
            &mut count,
        );
        let report = enumerate_ssfbc(&g, params, &RunConfig::default());
        assert_eq!(count.count as usize, report.bicliques.len());
        assert_eq!(stats.emitted, count.count);
    }

    #[test]
    fn pro_pipelines_run_end_to_end() {
        let g = random_uniform(10, 12, 50, 2, 2, 31);
        let pro = ProParams::new(2, 1, 2, 0.4).unwrap();
        let ss = enumerate_pssfbc(&g, pro, &RunConfig::default());
        let bs = enumerate_pbsfbc(&g, pro, &RunConfig::default());
        // PBSFBC lower sides appear among PSSFBC lower sides.
        let ss_lowers: BTreeSet<_> = ss.bicliques.iter().map(|b| b.lower.clone()).collect();
        for b in &bs.bicliques {
            assert!(ss_lowers.contains(&b.lower));
        }
    }
}
