//! The one enumeration loop of the four `++` miners.
//!
//! `FairBCEM++`, `BFairBCEM++`, `FairBCEMPro++` and `BFairBCEMPro++`
//! are the same walk over the maximal bicliques with `|L| ≥ α`; they
//! differ only in how each maximal biclique is expanded. `FairBCEM++`
//! (Algorithm 6) runs `Combination` over its fair side, `BFairBCEM++`
//! (Algorithm 9) chains an upper-side expansion after that, and the
//! proportion variants are the same two expansions under a fairness
//! rule that carries `θ` ([`crate::fairset`]'s `FairRule`, taken from
//! the [`QueryModel`]). `Expansion` is that difference, built once
//! from a [`QueryModel`]. `walk` is the serial walk over it, and
//! [`walk_on_pruned`] the public entry point on a pruned graph; the
//! work-stealing engine ([`crate::parallel`]) gives each worker its
//! own `Expansion` and `walker` on the same plan.

use crate::bfairbcem::{BiChainSink, BiSideExpander};
use crate::biclique::{BicliqueSink, EnumStats};
use crate::config::{Budget, BudgetClock, BudgetLane, SharedBudget, Substrate, VertexOrder};
use crate::fairbcem_pp::SsExpander;
use crate::mbea::{root_task, RBound, Walker};
use crate::prepared::QueryModel;
use bigraph::candidate::CandidatePlan;
use bigraph::{BipartiteGraph, Side, VertexId};

/// The expansion step of one model: what happens to each maximal
/// biclique the walk visits. Every model expands over its fair side;
/// the bi-side models chain each single-side result into the
/// upper-side stage.
pub(crate) struct Expansion<'g> {
    ss: SsExpander<'g>,
    bi: Option<BiSideExpander<'g>>,
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
        let (ss_clock, bi) = if model.is_bi_side() {
            let upper = plan.ops(g, Side::Upper);
            let ss_clock = clock.clone().exempt_results();
            (
                ss_clock,
                Some(BiSideExpander::with_clock(g, model, upper, clock)),
            )
        } else {
            (clock, None)
        };
        let ss = SsExpander::with_clock(g, model, plan.ops(g, Side::Lower), ss_clock);
        Expansion { ss, bi }
    }

    /// Expand the maximal biclique `(l, r)` into the model's results.
    pub(crate) fn expand(&mut self, l: &[VertexId], r: &[VertexId], sink: &mut dyn BicliqueSink) {
        match &mut self.bi {
            None => self.ss.expand(l, r, sink),
            Some(bi) => self.ss.expand(l, r, &mut BiChainSink { exp: bi, sink }),
        }
    }

    /// Fold this expansion into the walk's statistics: `emitted`
    /// becomes the final stage's result count, and each exhausted
    /// stage marks the run aborted. Stop reasons keep the first cause
    /// in chain order (walker, then each stage).
    pub(crate) fn finish(&self, stats: &mut EnumStats) {
        self.ss.clock.settle(stats);
        stats.emitted = self.ss.emitted;
        if let Some(bi) = &self.bi {
            bi.clock.settle(stats);
            stats.emitted = bi.emitted;
        }
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

/// Run `model`'s `++` miner (`FairBCEM++`, `BFairBCEM++`,
/// `FairBCEMPro++` or `BFairBCEMPro++`) serially on `g`, a graph that
/// is already pruned (fair side = lower), emitting results in `g`'s
/// own vertex ids into `sink`. `substrate` is resolved against `g`
/// first (with upper-side rows for the bi-side models); results are
/// identical across substrates. For a prune-once, run-many plan, or
/// more than one thread, use [`crate::prepared::PreparedQuery`].
pub fn walk_on_pruned(
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
