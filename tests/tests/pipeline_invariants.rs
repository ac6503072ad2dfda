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

/// FNV-1a (64-bit) over a sequence of ids: a digest that stays fixed
/// across toolchains.
fn fnv1a_ids(ids: &[u32]) -> u64 {
    ids.iter()
        .flat_map(|id| id.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A seeded graph with 2 upper and 3 lower attribute values, so the
/// bi-side peel counts more than one value on each side.
fn three_by_two_graph(seed: u64) -> bigraph::BipartiteGraph {
    let base = bigraph::generate::random_uniform(36, 42, 300, 2, 3, seed);
    bigraph::generate::plant_bicliques(&base, 2, 6, 9, 1.0, seed ^ 0xb10c)
}

/// Every prune kind, single-side and bi-side, keeps the same vertices:
/// the sizes before and after and a digest of the kept parent ids are
/// pinned, so a refactor of the peels or the colorful cascade cannot
/// move a vertex. The single-side and bi-side peels must also agree
/// where the models coincide.
#[test]
fn prune_outcomes_are_pinned() {
    use fair_biclique::bfcore::{bcfcore, bfcore, bfcore_masks};
    use fair_biclique::cfcore::cfcore;
    use fair_biclique::fcore::{fcore, fcore_masks, no_prune};
    let graphs = [
        ("medium", medium_graph(3), FairParams::unchecked(2, 2, 1)),
        ("3x2", three_by_two_graph(5), FairParams::unchecked(2, 2, 1)),
    ];
    let mut got = String::new();
    for (name, g, params) in &graphs {
        for bi in [false, true] {
            for kind in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                let out = match (kind, bi) {
                    (PruneKind::None, _) => no_prune(g),
                    (PruneKind::FCore, false) => fcore(g, *params),
                    (PruneKind::FCore, true) => bfcore(g, *params),
                    (PruneKind::Colorful, false) => cfcore(g, *params),
                    (PruneKind::Colorful, true) => bcfcore(g, *params),
                };
                let s = out.stats;
                got += &format!(
                    "{name} bi={bi} {kind:?} {}/{}/{} -> {}/{}/{} {:016x} {:016x}\n",
                    s.upper_before,
                    s.lower_before,
                    s.edges_before,
                    s.upper_after,
                    s.lower_after,
                    s.edges_after,
                    fnv1a_ids(&out.sub.upper_to_parent),
                    fnv1a_ids(&out.sub.lower_to_parent),
                );
            }
        }
    }
    let want = "\
medium bi=false None 30/36/280 -> 30/36/280 95e32fde1ffdfc34 2599706ba8b4f7a5
medium bi=false FCore 30/36/280 -> 29/36/273 657f485b09955a4b 2599706ba8b4f7a5
medium bi=false Colorful 30/36/280 -> 29/34/268 657f485b09955a4b 8601bcaf979c21e2
medium bi=true None 30/36/280 -> 30/36/280 95e32fde1ffdfc34 2599706ba8b4f7a5
medium bi=true FCore 30/36/280 -> 25/27/206 01d0cba4fe1d7003 8538966814867c05
medium bi=true Colorful 30/36/280 -> 8/11/61 2bde8f9e9c5b0d3a 3a2171c6dfb3e1aa
3x2 bi=false None 36/42/380 -> 36/42/380 2599706ba8b4f7a5 2997afc47d878fb4
3x2 bi=false FCore 36/42/380 -> 22/42/293 6f48e6dca9ff956d 2997afc47d878fb4
3x2 bi=false Colorful 36/42/380 -> 20/39/263 1ff23ea280fcdd56 dfe469a6b4a1e425
3x2 bi=true None 36/42/380 -> 36/42/380 2599706ba8b4f7a5 2997afc47d878fb4
3x2 bi=true FCore 36/42/380 -> 8/14/84 1eaf39429768aebe 7f3537c09bf20e1e
3x2 bi=true Colorful 36/42/380 -> 6/9/54 f9783f50b0277e8d 6344155a37fb174e
";
    assert_eq!(got, want, "prune outcomes moved:\n{got}");

    // The fair α-β core is the bi-fair α-β core of the same graph with
    // every upper attribute collapsed to one value: a lower vertex with
    // ≥ α neighbors of each (single) upper value has degree ≥ α.
    for seed in 0..6u64 {
        let g = bigraph::generate::random_uniform(28, 32, 230, 2, 3, seed);
        let mut b = bigraph::GraphBuilder::new(1, g.n_attr_values(bigraph::Side::Lower));
        b.ensure_vertices(g.n_upper(), g.n_lower());
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        b.set_attrs_upper(&vec![0; g.n_upper()]);
        b.set_attrs_lower(g.attrs(bigraph::Side::Lower));
        let one_upper = b.build().unwrap();
        for (alpha, beta) in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)] {
            assert_eq!(
                fcore_masks(&g, alpha, beta),
                bfcore_masks(&one_upper, alpha, beta),
                "seed {seed} alpha {alpha} beta {beta}"
            );
        }
    }
}
