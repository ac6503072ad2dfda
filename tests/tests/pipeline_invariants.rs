//! Invariants on medium graphs (too large for the oracle): algorithm
//! agreement, pruning losslessness, ordering invariance, and
//! definition-level validity of every emitted biclique.

use fair_biclique::biclique::{Biclique, CollectSink};
use fair_biclique::config::{Budget, FairParams, ProParams, PruneKind, RunConfig, VertexOrder};
use fair_biclique::pipeline::{
    enumerate_bsfbc, enumerate_pssfbc, enumerate_ssfbc, run_bsfbc, run_ssfbc, BiAlgorithm,
    SsAlgorithm,
};
use fbe_integration::{assert_valid_bsfbc, assert_valid_pssfbc, assert_valid_ssfbc, medium_graph};
use std::collections::BTreeSet;

fn ss_set(
    g: &bigraph::BipartiteGraph,
    params: FairParams,
    algo: SsAlgorithm,
    prune: PruneKind,
    order: VertexOrder,
) -> BTreeSet<Biclique> {
    let cfg = RunConfig {
        prune,
        order,
        budget: Budget::UNLIMITED,
        ..RunConfig::default()
    };
    let mut sink = CollectSink::default();
    run_ssfbc(g, params, algo, &cfg, &mut sink);
    let set: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
    assert_eq!(set.len(), sink.bicliques.len(), "duplicates");
    set
}

#[test]
fn ssfbc_agreement_across_algorithms_prunings_orderings() {
    for seed in 0..6u64 {
        let g = medium_graph(seed);
        let params = FairParams::unchecked(2, 2, 1);
        let reference = ss_set(
            &g,
            params,
            SsAlgorithm::FairBcemPP,
            PruneKind::Colorful,
            VertexOrder::DegreeDesc,
        );
        assert!(
            !reference.is_empty(),
            "seed {seed} should have results (planted blocks)"
        );
        for algo in [SsAlgorithm::FairBcem, SsAlgorithm::FairBcemPP] {
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
                    let got = ss_set(&g, params, algo, prune, order);
                    assert_eq!(
                        got, reference,
                        "seed {seed} algo {algo:?} prune {prune:?} order {order:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn ssfbc_results_satisfy_definition() {
    for seed in 10..16u64 {
        let g = medium_graph(seed);
        for params in [
            FairParams::unchecked(2, 2, 1),
            FairParams::unchecked(3, 2, 2),
        ] {
            let report = enumerate_ssfbc(&g, params, &RunConfig::default());
            for bc in &report.bicliques {
                assert_valid_ssfbc(&g, bc, params);
            }
        }
    }
}

#[test]
fn bsfbc_results_satisfy_definition_and_algorithms_agree() {
    for seed in 20..24u64 {
        let g = medium_graph(seed);
        let params = FairParams::unchecked(2, 2, 1);
        let report = enumerate_bsfbc(&g, params, &RunConfig::default());
        for bc in &report.bicliques {
            assert_valid_bsfbc(&g, bc, params);
        }
        let reference: BTreeSet<Biclique> = report.bicliques.into_iter().collect();
        for algo in [BiAlgorithm::BFairBcem, BiAlgorithm::BFairBcemPP] {
            for prune in [PruneKind::FCore, PruneKind::Colorful] {
                let cfg = RunConfig {
                    prune,
                    order: VertexOrder::IdAsc,
                    budget: Budget::UNLIMITED,
                    ..RunConfig::default()
                };
                let mut sink = CollectSink::default();
                run_bsfbc(&g, params, algo, &cfg, &mut sink);
                let got: BTreeSet<Biclique> = sink.bicliques.into_iter().collect();
                assert_eq!(got, reference, "seed {seed} algo {algo:?} prune {prune:?}");
            }
        }
    }
}

#[test]
fn pssfbc_results_satisfy_definition() {
    for seed in 30..34u64 {
        let g = medium_graph(seed);
        let pro = ProParams::new(2, 2, 2, 0.4).unwrap();
        let report = enumerate_pssfbc(&g, pro, &RunConfig::default());
        for bc in &report.bicliques {
            assert_valid_pssfbc(&g, bc, pro);
        }
    }
}

#[test]
fn every_bsfbc_lower_side_is_an_ssfbc_lower_side() {
    // Observation 6 at medium scale.
    for seed in 40..44u64 {
        let g = medium_graph(seed);
        let params = FairParams::unchecked(2, 2, 1);
        let ss = enumerate_ssfbc(&g, params, &RunConfig::default());
        let bs = enumerate_bsfbc(&g, params, &RunConfig::default());
        let lowers: BTreeSet<_> = ss.bicliques.iter().map(|b| b.lower.clone()).collect();
        for b in &bs.bicliques {
            assert!(lowers.contains(&b.lower), "seed {seed}: {b}");
        }
    }
}

#[test]
fn tighter_parameters_give_fewer_results() {
    let g = medium_graph(50);
    let loose = enumerate_ssfbc(&g, FairParams::unchecked(2, 1, 2), &RunConfig::default());
    let tight_alpha = enumerate_ssfbc(&g, FairParams::unchecked(4, 1, 2), &RunConfig::default());
    // Raising alpha can only reduce the count of *qualifying* maximal
    // bicliques' expansions... the paper observes monotone counts.
    assert!(tight_alpha.bicliques.len() <= loose.bicliques.len());
    let tight_beta = enumerate_ssfbc(&g, FairParams::unchecked(2, 3, 2), &RunConfig::default());
    assert!(tight_beta.bicliques.len() <= loose.bicliques.len());
}

#[test]
fn budget_yields_subset_on_medium_graphs() {
    let g = medium_graph(60);
    let params = FairParams::unchecked(2, 2, 1);
    let full = enumerate_ssfbc(&g, params, &RunConfig::default());
    let full_set: BTreeSet<_> = full.bicliques.into_iter().collect();
    let cfg = RunConfig {
        budget: Budget::nodes(3),
        ..RunConfig::default()
    };
    let capped = enumerate_ssfbc(&g, params, &cfg);
    for bc in capped.bicliques {
        assert!(full_set.contains(&bc));
    }
}

#[test]
fn flipped_graph_mines_upper_side_fairness() {
    // Mining the upper side fair = flipping, mining, flipping results.
    let g = medium_graph(70);
    let params = FairParams::unchecked(2, 2, 1);
    let flipped = g.flipped();
    let report = enumerate_ssfbc(&flipped, params, &RunConfig::default());
    for bc in &report.bicliques {
        // In flipped coordinates: upper = original lower.
        let restored = Biclique::new(bc.lower.clone(), bc.upper.clone());
        fbe_integration::assert_biclique(&g, &restored);
    }
}

/// Budgeted serial runs of every model stop at the same place. Goldens
/// compare only the (sorted) output; this pins how the walker and the
/// expansion stages spend a shared budget: nodes visited, results
/// emitted, and which limit fired.
#[test]
fn budgeted_search_stats_are_pinned() {
    use fair_biclique::config::{StopReason, Substrate};
    use fair_biclique::prepared::{PreparedQuery, QueryModel};
    let g = medium_graph(3);
    let fair = FairParams::unchecked(2, 1, 1);
    let pro = ProParams::new(2, 1, 1, 0.4).unwrap();
    let models = [
        QueryModel::Ssfbc(fair),
        QueryModel::Bsfbc(fair),
        QueryModel::Pssfbc(pro),
        QueryModel::Pbsfbc(pro),
    ];
    let mut got = Vec::new();
    for model in models {
        let plan = PreparedQuery::prepare(&g, model, PruneKind::Colorful, Substrate::Auto);
        for budget in [Budget::UNLIMITED, Budget::nodes(150), Budget::results(20)] {
            let cfg = RunConfig {
                budget,
                threads: 1,
                ..RunConfig::default()
            };
            let s = plan.count(&cfg).stats;
            got.push((model.name(), s.nodes, s.emitted, s.aborted, s.stop));
        }
    }
    let (node, result) = (Some(StopReason::NodeCap), Some(StopReason::ResultCap));
    let want = vec![
        ("SSFBC", 1209, 324, false, None),
        ("SSFBC", 151, 47, true, node),
        ("SSFBC", 31, 20, true, result),
        ("BSFBC", 434, 45, false, None),
        ("BSFBC", 109, 12, true, node),
        ("BSFBC", 136, 20, true, result),
        ("PSSFBC", 1209, 246, false, None),
        ("PSSFBC", 151, 39, true, node),
        ("PSSFBC", 31, 20, true, result),
        ("PBSFBC", 434, 57, false, None),
        ("PBSFBC", 112, 22, true, node),
        ("PBSFBC", 55, 20, true, result),
    ];
    assert_eq!(got, want);
}
