//! Maximum (largest) fair biclique search.
//!
//! The paper's related work motivates *maximum* biclique search
//! (\[17\]–\[20\]) next to enumeration; this module provides the fair
//! analog: the single largest SSFBC/BSFBC under a size metric. It
//! reuses the enumeration pipelines with a best-so-far sink — exact,
//! and cheap whenever enumeration itself is feasible.

use crate::biclique::{Biclique, BicliqueSink};
use crate::config::{FairParams, RunConfig};
use crate::fcore::PruneStats;
use crate::obs::SpanRecorder;
use crate::prepared::{Mode, PreparedQuery, QueryModel};
use bigraph::{BipartiteGraph, VertexId};
use serde::{Deserialize, Serialize};

/// What "largest" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SizeMetric {
    /// Total vertex count `|L| + |R|`.
    #[default]
    Vertices,
    /// Edge count `|L| · |R|` (bicliques are complete).
    Edges,
}

impl SizeMetric {
    fn score(&self, upper: &[VertexId], lower: &[VertexId]) -> u64 {
        match self {
            SizeMetric::Vertices => (upper.len() + lower.len()) as u64,
            SizeMetric::Edges => upper.len() as u64 * lower.len() as u64,
        }
    }
}

/// Sink retaining the best biclique under a metric (ties broken
/// lexicographically so results are deterministic).
#[derive(Debug, Clone)]
pub struct MaxSink {
    metric: SizeMetric,
    /// Best result so far.
    pub best: Option<Biclique>,
    best_score: u64,
    /// Total results observed.
    pub seen: u64,
}

impl MaxSink {
    /// New empty sink.
    pub fn new(metric: SizeMetric) -> Self {
        MaxSink {
            metric,
            best: None,
            best_score: 0,
            seen: 0,
        }
    }
}

impl BicliqueSink for MaxSink {
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]) {
        self.seen += 1;
        let score = self.metric.score(upper, lower);
        let better = match &self.best {
            None => true,
            Some(b) => {
                score > self.best_score
                    || (score == self.best_score
                        && (upper, lower) < (b.upper.as_slice(), b.lower.as_slice()))
            }
        };
        if better {
            self.best = Some(Biclique {
                upper: upper.to_vec(),
                lower: lower.to_vec(),
            });
            self.best_score = score;
        }
    }
}

/// The largest single-side fair biclique of `g` under `metric`
/// (`None` when no SSFBC exists). Exact; runs the `FairBCEM++`
/// pipeline under the hood (prepare, then [`PreparedQuery::run`] with
/// [`Mode::Max`]), on the parallel engine when `cfg.threads > 1`.
pub fn max_ssfbc(
    g: &BipartiteGraph,
    params: FairParams,
    metric: SizeMetric,
    cfg: &RunConfig,
) -> (Option<Biclique>, PruneStats) {
    max_of(g, QueryModel::Ssfbc(params), metric, cfg)
}

/// The largest bi-side fair biclique of `g` under `metric` (see
/// [`max_ssfbc`]).
pub fn max_bsfbc(
    g: &BipartiteGraph,
    params: FairParams,
    metric: SizeMetric,
    cfg: &RunConfig,
) -> (Option<Biclique>, PruneStats) {
    max_of(g, QueryModel::Bsfbc(params), metric, cfg)
}

fn max_of(
    g: &BipartiteGraph,
    model: QueryModel,
    metric: SizeMetric,
    cfg: &RunConfig,
) -> (Option<Biclique>, PruneStats) {
    let plan = PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate);
    let report = plan.run(Mode::Max(metric), cfg, &mut SpanRecorder::disabled());
    (report.bicliques.into_iter().next(), report.prune)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{oracle_bsfbc, oracle_ssfbc};
    use bigraph::generate::random_uniform;

    fn oracle_max(
        set: &std::collections::BTreeSet<Biclique>,
        metric: SizeMetric,
    ) -> Option<Biclique> {
        set.iter()
            .map(|b| (metric.score(&b.upper, &b.lower), b.clone()))
            .fold(None, |acc: Option<(u64, Biclique)>, (s, b)| match acc {
                None => Some((s, b)),
                Some((bs, bb)) => {
                    if s > bs
                        || (s == bs
                            && (b.upper.clone(), b.lower.clone())
                                < (bb.upper.clone(), bb.lower.clone()))
                    {
                        Some((s, b))
                    } else {
                        Some((bs, bb))
                    }
                }
            })
            .map(|(_, b)| b)
    }

    #[test]
    fn matches_oracle_max_on_random_graphs() {
        for seed in 0..15u64 {
            let g = random_uniform(8, 10, 34, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let all = oracle_ssfbc(&g, params);
            for metric in [SizeMetric::Vertices, SizeMetric::Edges] {
                let (got, _) = max_ssfbc(&g, params, metric, &RunConfig::default());
                let want = oracle_max(&all, metric);
                assert_eq!(got, want, "seed {seed} metric {metric:?}");
            }
        }
    }

    #[test]
    fn bi_side_max_matches_oracle() {
        for seed in 0..8u64 {
            let g = random_uniform(7, 8, 26, 2, 2, seed);
            let params = FairParams::unchecked(1, 1, 1);
            let all = oracle_bsfbc(&g, params);
            let (got, _) = max_bsfbc(&g, params, SizeMetric::Vertices, &RunConfig::default());
            assert_eq!(got, oracle_max(&all, SizeMetric::Vertices), "seed {seed}");
        }
    }

    #[test]
    fn none_when_infeasible() {
        let g = random_uniform(6, 6, 10, 2, 2, 1);
        let params = FairParams::unchecked(6, 6, 0);
        let (got, prune) = max_ssfbc(&g, params, SizeMetric::Vertices, &RunConfig::default());
        assert!(got.is_none());
        assert_eq!(prune.remaining_vertices(), 0);
    }

    #[test]
    fn metric_scores() {
        assert_eq!(SizeMetric::Vertices.score(&[0, 1], &[0, 1, 2]), 5);
        assert_eq!(SizeMetric::Edges.score(&[0, 1], &[0, 1, 2]), 6);
    }
}
