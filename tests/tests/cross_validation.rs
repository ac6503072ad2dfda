//! Property-based cross-validation of every enumerator against the
//! brute-force oracles on random small graphs — the strongest
//! correctness guarantee in the repository.

use bigraph::{BipartiteGraph, GraphBuilder};
use fair_biclique::biclique::{Biclique, CollectSink};
use fair_biclique::config::{Budget, FairParams, ProParams, PruneKind, RunConfig, VertexOrder};
use fair_biclique::pipeline::{run_bsfbc, run_ssfbc, BiAlgorithm, SsAlgorithm};
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use fair_biclique::verify::{oracle_bsfbc, oracle_pbsfbc, oracle_pssfbc, oracle_ssfbc};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random attributed bipartite graph with `nu x nv`
/// vertices and the given edge density.
fn graph_strategy(nu: usize, nv: usize) -> impl Strategy<Value = BipartiteGraph> {
    (
        proptest::collection::vec(proptest::bool::weighted(0.4), nu * nv),
        proptest::collection::vec(0u16..2, nu),
        proptest::collection::vec(0u16..2, nv),
    )
        .prop_map(move |(cells, ua, la)| {
            let mut b = GraphBuilder::new(2, 2);
            b.ensure_vertices(nu, nv);
            for (i, &on) in cells.iter().enumerate() {
                if on {
                    b.add_edge((i / nv) as u32, (i % nv) as u32);
                }
            }
            b.set_attrs_upper(&ua);
            b.set_attrs_lower(&la);
            b.build().expect("valid")
        })
}

fn params_strategy() -> impl Strategy<Value = FairParams> {
    (1u32..4, 0u32..3, 0u32..3).prop_map(|(a, b, d)| FairParams::unchecked(a, b, d))
}

fn collect_ss(
    g: &BipartiteGraph,
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
    assert_eq!(set.len(), sink.bicliques.len(), "duplicate emissions");
    set
}

/// Prepare `model` on `g`, then stream its results into collecting
/// sinks.
fn prepared_collect(g: &BipartiteGraph, model: QueryModel, cfg: &RunConfig) -> BTreeSet<Biclique> {
    let plan = PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate);
    let (sinks, _) = plan.stream(cfg, &CollectSink::default);
    sinks.into_iter().flat_map(|s| s.bicliques).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ssfbc_all_algorithms_match_oracle(
        g in graph_strategy(7, 9),
        params in params_strategy(),
        order in prop_oneof![Just(VertexOrder::IdAsc), Just(VertexOrder::DegreeDesc)],
    ) {
        let want = oracle_ssfbc(&g, params);
        for algo in [SsAlgorithm::Nsf, SsAlgorithm::FairBcem, SsAlgorithm::FairBcemPP] {
            for prune in [PruneKind::None, PruneKind::Colorful] {
                let got = collect_ss(&g, params, algo, prune, order);
                prop_assert_eq!(&got, &want, "algo {:?} prune {:?}", algo, prune);
            }
        }
    }

    #[test]
    fn bsfbc_all_algorithms_match_oracle(
        g in graph_strategy(6, 7),
        params in (1u32..3, 1u32..3, 0u32..3)
            .prop_map(|(a, b, d)| FairParams::unchecked(a, b, d)),
    ) {
        let want = oracle_bsfbc(&g, params);
        for algo in [BiAlgorithm::Bnsf, BiAlgorithm::BFairBcem, BiAlgorithm::BFairBcemPP] {
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                let cfg = RunConfig { prune, order: VertexOrder::DegreeDesc, ..RunConfig::default() };
                let mut sink = CollectSink::default();
                run_bsfbc(&g, params, algo, &cfg, &mut sink);
                let got: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
                prop_assert_eq!(got.len(), sink.bicliques.len(), "duplicates from {:?}", algo);
                prop_assert_eq!(&got, &want, "algo {:?} prune {:?}", algo, prune);
            }
        }
    }

    #[test]
    fn pssfbc_matches_oracle(
        g in graph_strategy(7, 8),
        theta in prop_oneof![Just(0.0), Just(0.3), Just(0.4), Just(0.5)],
        (a, b, d) in (1u32..3, 1u32..3, 0u32..3),
    ) {
        let pro = ProParams::new(a, b, d, theta).unwrap();
        let want = oracle_pssfbc(&g, pro);
        for prune in [PruneKind::None, PruneKind::Colorful] {
            let cfg = RunConfig { prune, order: VertexOrder::DegreeDesc, ..RunConfig::default() };
            let got = prepared_collect(&g, QueryModel::Pssfbc(pro), &cfg);
            prop_assert_eq!(&got, &want, "prune {:?}", prune);
        }
    }

    #[test]
    fn pbsfbc_matches_oracle(
        g in graph_strategy(6, 6),
        theta in prop_oneof![Just(0.0), Just(0.35), Just(0.5)],
        d in 0u32..3,
    ) {
        let pro = ProParams::new(1, 1, d, theta).unwrap();
        let want = oracle_pbsfbc(&g, pro);
        let cfg = RunConfig::default();
        let got = prepared_collect(&g, QueryModel::Pbsfbc(pro), &cfg);
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn maximal_bicliques_match_oracle(
        g in graph_strategy(7, 9),
        min_l in 1usize..4,
        min_r in 1usize..4,
    ) {
        use fair_biclique::mbea::maximal_bicliques;
        use fair_biclique::verify::oracle_maximal_bicliques;
        let want = oracle_maximal_bicliques(&g, min_l, min_r);
        let mut sink = CollectSink::default();
        maximal_bicliques(&g, min_l, min_r, VertexOrder::DegreeDesc, Budget::UNLIMITED, &mut sink);
        let got: BTreeSet<Biclique> = sink.bicliques.into_iter().collect();
        prop_assert_eq!(&got, &want);
    }
}
