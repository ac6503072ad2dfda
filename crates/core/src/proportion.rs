//! Proportion fair biclique enumeration: `FairBCEMPro++` (§III-D) and
//! `BFairBCEMPro++` (§IV-C).
//!
//! The paper defines both as `FairBCEM++` / `BFairBCEM++` with the
//! fairness test swapped, and so does the code: they run the same
//! walk and the same expanders ([`crate::fairbcem_pp`],
//! [`crate::bfairbcem`]) under a fairness rule that carries `θ`
//! (`QueryModel::{Pssfbc, Pbsfbc}` in [`crate::prepared`]):
//!
//! * the fair-set inspection becomes [`crate::fairset::is_fair_pro`];
//! * `Combination` becomes the exact `CombinationPro`
//!   ([`crate::fairset::for_each_max_pro_fair_subset`]), which searches
//!   the maximal feasible size lattice instead of the paper's closed
//!   form (exact for any attribute-domain size; equal to the closed
//!   form on the paper's two-value domains — property-tested);
//! * `MFSCheck` becomes
//!   [`crate::fairset::is_maximal_fair_subset_pro`].
//!
//! Run them with [`crate::expansion::walk_on_pruned`] on a pruned
//! graph, or end to end with
//! [`crate::pipeline::enumerate_pssfbc`] /
//! [`crate::pipeline::enumerate_pbsfbc`]. This module holds their
//! oracle tests.

#[cfg(test)]
mod tests {
    use crate::biclique::{Biclique, CollectSink};
    use crate::config::{Budget, ProParams, Substrate, VertexOrder};
    use crate::expansion::walk_on_pruned;
    use crate::prepared::QueryModel;
    use crate::verify::{oracle_pbsfbc, oracle_pssfbc};
    use bigraph::generate::random_uniform;
    use bigraph::BipartiteGraph;
    use std::collections::BTreeSet;

    fn run_ss(g: &BipartiteGraph, pro: ProParams) -> BTreeSet<Biclique> {
        let mut sink = CollectSink::default();
        let stats = walk_on_pruned(
            g,
            QueryModel::Pssfbc(pro),
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED,
            Substrate::Auto,
            &mut sink,
        );
        assert!(!stats.aborted);
        let set: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
        assert_eq!(set.len(), sink.bicliques.len(), "no duplicates");
        set
    }

    fn run_bi(g: &BipartiteGraph, pro: ProParams) -> BTreeSet<Biclique> {
        let mut sink = CollectSink::default();
        let stats = walk_on_pruned(
            g,
            QueryModel::Pbsfbc(pro),
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED,
            Substrate::Auto,
            &mut sink,
        );
        assert!(!stats.aborted);
        let set: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
        assert_eq!(set.len(), sink.bicliques.len(), "no duplicates");
        set
    }

    #[test]
    fn pssfbc_matches_oracle() {
        for seed in 0..20u64 {
            let g = random_uniform(8, 10, 34, 2, 2, seed);
            for theta in [0.0, 0.3, 0.4, 0.5] {
                for (a, b, d) in [(1, 1, 1), (2, 1, 2), (2, 2, 1)] {
                    let pro = ProParams::new(a, b, d, theta).unwrap();
                    let want = oracle_pssfbc(&g, pro);
                    let got = run_ss(&g, pro);
                    assert_eq!(got, want, "seed {seed} {pro}");
                }
            }
        }
    }

    #[test]
    fn pbsfbc_matches_oracle() {
        for seed in 0..15u64 {
            let g = random_uniform(7, 8, 26, 2, 2, seed);
            for theta in [0.0, 0.35, 0.5] {
                for (a, b, d) in [(1, 1, 1), (1, 1, 2)] {
                    let pro = ProParams::new(a, b, d, theta).unwrap();
                    let want = oracle_pbsfbc(&g, pro);
                    let got = run_bi(&g, pro);
                    assert_eq!(got, want, "seed {seed} {pro}");
                }
            }
        }
        // Three lower attribute values: the proportion MFSCheck must
        // also reject extensions that raise two counts at once (seed 9
        // at θ = 0.25 has one).
        for seed in [9u64, 10, 11, 12] {
            let g = random_uniform(6, 12, 50, 2, 3, seed);
            for theta in [0.25, 0.3] {
                let pro = ProParams::new(1, 1, 1, theta).unwrap();
                let want = oracle_pbsfbc(&g, pro);
                let got = run_bi(&g, pro);
                assert_eq!(got, want, "3 lower attrs: seed {seed} {pro}");
            }
        }
    }

    #[test]
    fn theta_zero_equals_plain_model() {
        use crate::config::FairParams;
        for seed in 30..40u64 {
            let g = random_uniform(9, 10, 40, 2, 2, seed);
            let pro = ProParams::new(2, 1, 1, 0.0).unwrap();
            let got = run_ss(&g, pro);
            let mut plain = CollectSink::default();
            walk_on_pruned(
                &g,
                QueryModel::Ssfbc(FairParams::unchecked(2, 1, 1)),
                VertexOrder::DegreeDesc,
                Budget::UNLIMITED,
                Substrate::Auto,
                &mut plain,
            );
            let plain: BTreeSet<Biclique> = plain.bicliques.into_iter().collect();
            assert_eq!(got, plain, "seed {seed}");
        }
    }

    #[test]
    fn larger_theta_means_fewer_or_equal_results_at_delta_zero() {
        // With delta = 0 the fair sides are perfectly balanced, so
        // every plain SSFBC is proportion-fair for any theta <= 0.5:
        // counts must be monotone across theta in that regime.
        let g = random_uniform(10, 10, 45, 2, 2, 77);
        let mut prev = usize::MAX;
        for theta in [0.5, 0.4, 0.3, 0.0] {
            let pro = ProParams::new(1, 1, 0, theta).unwrap();
            let n = run_ss(&g, pro).len();
            assert!(n <= prev || prev == usize::MAX);
            prev = n;
        }
    }
}
