//! The one enumeration loop of the four `++` miners.
//!
//! `FairBCEM++`, `BFairBCEM++`, `FairBCEMPro++` and `BFairBCEMPro++`
//! are the same walk over the maximal bicliques with `|L| ≥ α`; they
//! differ only in how each maximal biclique is expanded. `FairBCEM++`
//! (Algorithm 6) runs `Combination` over its fair side, `BFairBCEM++`
//! (Algorithm 9) chains an upper-side expansion after that, and the
//! proportion variants swap in `CombinationPro`. [`Expansion`] is that
//! difference, built once from a [`QueryModel`]. [`walk`] is the serial
//! walk over it; the work-stealing engine ([`crate::parallel`]) gives
//! each worker its own [`Expansion`] and [`walker`] on the same plan.

use crate::bfairbcem::{BiChainSink, BiSideExpander};
use crate::biclique::{BicliqueSink, EnumStats};
use crate::config::{Budget, BudgetClock, BudgetLane, SharedBudget, Substrate, VertexOrder};
use crate::fairbcem_pp::SsExpander;
use crate::mbea::{root_task, RBound, Walker};
use crate::prepared::QueryModel;
use crate::proportion::{ProBiChainSink, ProBiSideExpander, ProSsExpander};
use bigraph::candidate::CandidatePlan;
use bigraph::{BipartiteGraph, Side, VertexId};

/// The expansion step of one model: what happens to each maximal
/// biclique the walk visits.
pub(crate) enum Expansion<'g> {
    /// SSFBC: `Combination` over the fair side.
    Ss(SsExpander<'g>),
    /// BSFBC: SSFBCs chained into the upper-side expansion.
    Bi(SsExpander<'g>, BiSideExpander<'g>),
    /// PSSFBC: `CombinationPro` over the fair side.
    ProSs(ProSsExpander<'g>),
    /// PBSFBC: PSSFBCs chained into the proportion upper-side
    /// expansion.
    ProBi(ProSsExpander<'g>, ProBiSideExpander<'g>),
}

impl<'g> Expansion<'g> {
    /// The expansion `model` runs on `g`, drawing candidate ops from
    /// `plan` and counting steps and results on `clock`. In the
    /// bi-side chains the single-side stage is intermediate, so its
    /// emissions are exempt from the result budget; only the final
    /// stage's emissions are results.
    pub(crate) fn new(
        model: QueryModel,
        g: &'g BipartiteGraph,
        plan: &'g CandidatePlan,
        clock: BudgetClock,
    ) -> Self {
        let lower = plan.ops(g, Side::Lower);
        match model {
            QueryModel::Ssfbc(p) => Expansion::Ss(SsExpander::with_clock(g, p, lower, clock)),
            QueryModel::Bsfbc(p) => Expansion::Bi(
                SsExpander::with_clock(g, p, lower, clock.clone().exempt_results()),
                BiSideExpander::with_clock(g, p, plan.ops(g, Side::Upper), clock),
            ),
            QueryModel::Pssfbc(p) => {
                Expansion::ProSs(ProSsExpander::with_clock(g, p, lower, clock))
            }
            QueryModel::Pbsfbc(p) => Expansion::ProBi(
                ProSsExpander::with_clock(g, p, lower, clock.clone().exempt_results()),
                ProBiSideExpander::with_clock(g, p, plan.ops(g, Side::Upper), clock),
            ),
        }
    }

    /// Expand the maximal biclique `(l, r)` into the model's results.
    pub(crate) fn expand(&mut self, l: &[VertexId], r: &[VertexId], sink: &mut dyn BicliqueSink) {
        match self {
            Expansion::Ss(ss) => ss.expand(l, r, sink),
            Expansion::Bi(ss, bi) => ss.expand(l, r, &mut BiChainSink { exp: bi, sink }),
            Expansion::ProSs(ss) => ss.expand(l, r, sink),
            Expansion::ProBi(ss, bi) => ss.expand(l, r, &mut ProBiChainSink { exp: bi, sink }),
        }
    }

    /// Fold this expansion into the walk's statistics: `emitted`
    /// becomes the final stage's result count, and each exhausted
    /// stage marks the run aborted. Stop reasons keep the first cause
    /// in chain order (walker, then each stage).
    pub(crate) fn finish(&self, stats: &mut EnumStats) {
        let (stages, emitted) = match self {
            Expansion::Ss(ss) => ([Some(&ss.clock), None], ss.emitted),
            Expansion::Bi(ss, bi) => ([Some(&ss.clock), Some(&bi.clock)], bi.emitted),
            Expansion::ProSs(ss) => ([Some(&ss.clock), None], ss.emitted),
            Expansion::ProBi(ss, bi) => ([Some(&ss.clock), Some(&bi.clock)], bi.emitted),
        };
        for clock in stages.into_iter().flatten() {
            clock.settle(stats);
        }
        stats.emitted = emitted;
    }
}

/// The maximal-biclique walker every `++` miner runs: `|L| ≥ α`, and
/// each fair-side attribute must still be able to reach `β`.
pub(crate) fn walker<'g>(
    model: QueryModel,
    g: &'g BipartiteGraph,
    plan: &'g CandidatePlan,
    clock: BudgetClock,
) -> Walker<'g> {
    let p = model.base();
    let rbound = RBound::AttrBeta {
        attrs: g.attrs(Side::Lower),
        beta: p.beta,
    };
    Walker::new(g, p.alpha as usize, rbound, plan.ops(g, Side::Lower), clock)
}

/// Run `model`'s `++` miner on `g` (the graph `plan` was resolved
/// for) serially on the caller's thread: one walk from the root task,
/// every maximal biclique expanded into `sink`. Walker and expansion
/// clocks draw from one shared budget, so any exhausted limit —
/// including the result cap, which only the expansion consumes —
/// stops the whole walk.
pub(crate) fn walk(
    g: &BipartiteGraph,
    model: QueryModel,
    plan: &CandidatePlan,
    order: VertexOrder,
    budget: Budget,
    sink: &mut dyn BicliqueSink,
) -> EnumStats {
    let shared = SharedBudget::new(budget);
    let mut expansion = Expansion::new(model, g, plan, shared.clock(BudgetLane::Expand));
    let mut walker = walker(model, g, plan, shared.clock(BudgetLane::Walk));
    walker.run(root_task(g, order, plan.choice()), &mut |l, r| {
        expansion.expand(l, r, sink)
    });
    let mut stats = walker.stats();
    expansion.finish(&mut stats);
    stats
}

/// [`walk`] on a graph without a resolved plan: resolve `substrate`
/// against `g` first (with upper-side rows for the bi-side models).
/// Backs the public `*_on_pruned_with` entry points.
pub(crate) fn walk_on_pruned(
    g: &BipartiteGraph,
    model: QueryModel,
    order: VertexOrder,
    budget: Budget,
    substrate: Substrate,
    sink: &mut dyn BicliqueSink,
) -> EnumStats {
    let plan = CandidatePlan::build(g, substrate, model.is_bi_side());
    walk(g, model, &plan, order, budget, sink)
}
