//! Incremental fair-core maintenance for dynamic graphs.
//!
//! The service's `ADDEDGE` / `DELEDGE` / `ADDVERTEX` verbs mutate a
//! cataloged graph one edge (or vertex) at a time. Re-running the full
//! [`crate::fcore`] peel per update would cost `O(|E|)` per update and
//! make every cached plan cold; this module maintains fair α-β core
//! membership **incrementally**: core membership changes only in a
//! bounded neighborhood of the updated edge, and a localized re-peel
//! repairs exactly that neighborhood.
//!
//! # Bounded-repair argument
//!
//! Let `C = FCore(G, α, β)` (Definition 8: upper vertices need `≥ β`
//! neighbors of *each* lower attribute, lower vertices need degree
//! `≥ α`).
//!
//! * **Deletion of `(u, v)`.** Cores are monotone under edge deletion
//!   (`G' ⊆ G ⇒ FCore(G') ⊆ FCore(G)`), so no vertex can *join*; if
//!   either endpoint is outside `C` the induced core subgraph does not
//!   contain the edge and `C` itself is still fair and maximal in
//!   `G'`, so nothing changes at all. Otherwise decrement the two
//!   endpoint counters and cascade the classic Batagelj–Zaversnik peel
//!   from the endpoints — exactly the vertices whose support transited
//!   below threshold are touched.
//! * **Insertion of `(u, v)`.** Cores only grow. A vertex `j ∉ C` can
//!   join only if its deficit is covered by other joiners or by the
//!   new edge itself: by maximality of `C`, `C ∪ {j}` is not fair, so
//!   `j` needs at least one neighbor that also joins (or is an
//!   endpoint benefiting from `e`). Inductively every joiner lies on a
//!   path of joiners ending at a **non-core** endpoint of `e` — and if
//!   both endpoints were already in `C`, nothing joins. The repair
//!   therefore BFS-collects the non-core vertices reachable from the
//!   non-core endpoint(s) through non-core vertices, optimistically
//!   revives them, and peels that candidate set; survivors are the
//!   joiners. Core vertices never get peeled here (their counters only
//!   gained candidate contributions), matching monotonicity.
//! * **Vertex addition.** An isolated vertex joins iff its (empty)
//!   constraints hold (`β = 0` upper / `α = 0` lower); no other
//!   membership can change.
//!
//! The reported [`UpdateEffect`] is the dirty region: every vertex
//! whose membership changed, plus whether the updated edge itself lies
//! inside the core. The service invalidates a cached plan **only**
//! when the effect at the plan's `(α, β)` is dirty — if the fair core
//! is unchanged *as an induced subgraph*, every fair biclique of the
//! model lives inside it (Lemma 1; the bi-side core BFCore and the
//! colorful cores are subsets of it), so the plan's enumeration output
//! is provably byte-identical and the plan stays resident.

use crate::config::PrepareCtl;
use bigraph::{BipartiteGraph, Side, VertexId};

/// The dirty region of one update at a fixed `(α, β)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateEffect {
    /// Upper vertices whose core membership flipped (sorted).
    pub changed_upper: Vec<VertexId>,
    /// Lower vertices whose core membership flipped (sorted).
    pub changed_lower: Vec<VertexId>,
    /// True when the updated edge lies inside the core (both endpoints
    /// are members after an insertion / were members before a
    /// deletion): the core's *edge set* changed even if no membership
    /// did.
    pub core_edge_touched: bool,
}

impl UpdateEffect {
    /// True when the core is unchanged as an induced subgraph — cached
    /// plans at this `(α, β)` provably still produce byte-identical
    /// results.
    pub fn is_clean(&self) -> bool {
        !self.core_edge_touched && self.changed_upper.is_empty() && self.changed_lower.is_empty()
    }

    /// Total number of membership flips.
    pub fn flips(&self) -> usize {
        self.changed_upper.len() + self.changed_lower.len()
    }
}

/// Incrementally maintained fair α-β core membership of one graph at
/// one `(α, β)` pair.
///
/// Invariants between updates: `alive_*` are exactly the FCore masks
/// of the current graph; for every member, `attr_deg` / `deg` count
/// **member** neighbors only (dead vertices' counters are stale, as in
/// the one-shot peel).
#[derive(Debug, Clone)]
pub struct CoreTracker {
    alpha: u32,
    beta: u32,
    /// Lower-side attribute domain size (`max(1)`).
    n_attrs: usize,
    alive_u: Vec<bool>,
    alive_v: Vec<bool>,
    /// Member attribute degrees of upper members, `[u * n_attrs + a]`.
    attr_deg: Vec<u32>,
    /// Member degrees of lower members.
    deg: Vec<u32>,
}

impl CoreTracker {
    /// Full peel of `g` (the one-shot [`crate::fcore::fcore_masks`]
    /// peel), keeping the member counters it ends with so later
    /// updates can be repaired.
    pub fn new(g: &BipartiteGraph, alpha: u32, beta: u32) -> CoreTracker {
        let p = crate::fcore::peel_masks(g, alpha, beta, false, &PrepareCtl::UNBOUNDED)
            .expect("unbounded prepare is never interrupted");
        CoreTracker {
            alpha,
            beta,
            n_attrs: (g.n_attr_values(Side::Lower) as usize).max(1),
            alive_u: p.keep_upper,
            alive_v: p.keep_lower,
            attr_deg: p.upper_counts,
            deg: p.lower_counts,
        }
    }

    /// The `(α, β)` this tracker maintains.
    pub fn params(&self) -> (u32, u32) {
        (self.alpha, self.beta)
    }

    /// Current membership masks `(upper, lower)`.
    pub fn masks(&self) -> (&[bool], &[bool]) {
        (&self.alive_u, &self.alive_v)
    }

    /// Whether vertex `x` on `side` is currently a core member.
    pub fn in_core(&self, side: Side, x: VertexId) -> bool {
        match side {
            Side::Upper => self.alive_u[x as usize],
            Side::Lower => self.alive_v[x as usize],
        }
    }

    /// Number of core members (upper + lower).
    pub fn members(&self) -> usize {
        let count = |m: &[bool]| m.iter().filter(|&&a| a).count();
        count(&self.alive_u) + count(&self.alive_v)
    }

    fn upper_ok(&self, u: usize) -> bool {
        self.attr_deg[u * self.n_attrs..(u + 1) * self.n_attrs]
            .iter()
            .all(|&d| d >= self.beta)
    }

    /// Cascade a peel from the seeds already pushed on `stack`
    /// (vertices already marked dead), recording every death.
    fn cascade(
        &mut self,
        g: &BipartiteGraph,
        stack: &mut Vec<(Side, VertexId)>,
        died_u: &mut Vec<VertexId>,
        died_v: &mut Vec<VertexId>,
    ) {
        let lower_attrs = g.attrs(Side::Lower);
        while let Some((side, x)) = stack.pop() {
            match side {
                Side::Upper => {
                    died_u.push(x);
                    for &v in g.neighbors(Side::Upper, x) {
                        if self.alive_v[v as usize] {
                            self.deg[v as usize] -= 1;
                            if self.deg[v as usize] < self.alpha {
                                self.alive_v[v as usize] = false;
                                stack.push((Side::Lower, v));
                            }
                        }
                    }
                }
                Side::Lower => {
                    died_v.push(x);
                    let a = lower_attrs[x as usize] as usize;
                    for &u in g.neighbors(Side::Lower, x) {
                        if self.alive_u[u as usize] {
                            let slot = u as usize * self.n_attrs + a;
                            self.attr_deg[slot] -= 1;
                            if self.attr_deg[slot] < self.beta {
                                self.alive_u[u as usize] = false;
                                stack.push((Side::Upper, u));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Repair after edge `(u, v)` was **removed**; `g` is the new
    /// graph (without the edge).
    pub fn remove_edge(&mut self, g: &BipartiteGraph, u: VertexId, v: VertexId) -> UpdateEffect {
        if !self.alive_u[u as usize] || !self.alive_v[v as usize] {
            // The edge was not part of the induced core subgraph: the
            // core is still fair and still maximal (deletion is
            // monotone), and member counters never counted it.
            return UpdateEffect::default();
        }
        let a = g.attr(Side::Lower, v) as usize;
        self.attr_deg[u as usize * self.n_attrs + a] -= 1;
        self.deg[v as usize] -= 1;
        let mut stack = Vec::new();
        if !self.upper_ok(u as usize) {
            self.alive_u[u as usize] = false;
            stack.push((Side::Upper, u));
        }
        if self.alive_v[v as usize] && self.deg[v as usize] < self.alpha {
            self.alive_v[v as usize] = false;
            stack.push((Side::Lower, v));
        }
        let (mut died_u, mut died_v) = (Vec::new(), Vec::new());
        self.cascade(g, &mut stack, &mut died_u, &mut died_v);
        died_u.sort_unstable();
        died_v.sort_unstable();
        UpdateEffect {
            changed_upper: died_u,
            changed_lower: died_v,
            core_edge_touched: true,
        }
    }

    /// Repair after edge `(u, v)` was **added**; `g` is the new graph
    /// (with the edge).
    pub fn add_edge(&mut self, g: &BipartiteGraph, u: VertexId, v: VertexId) -> UpdateEffect {
        let lower_attrs = g.attrs(Side::Lower);
        if self.alive_u[u as usize] && self.alive_v[v as usize] {
            // Both endpoints already members: insertion cannot revive
            // anything (a joiner chain must end at a non-core
            // endpoint), only the member counters grow.
            self.attr_deg[u as usize * self.n_attrs + lower_attrs[v as usize] as usize] += 1;
            self.deg[v as usize] += 1;
            return UpdateEffect {
                changed_upper: Vec::new(),
                changed_lower: Vec::new(),
                core_edge_touched: true,
            };
        }

        // Candidate region: non-members reachable from the non-member
        // endpoint(s) through non-members. Every possible joiner is in
        // here (see module docs).
        let mut cand_u: Vec<VertexId> = Vec::new();
        let mut cand_v: Vec<VertexId> = Vec::new();
        let mut in_cand_u = vec![false; g.n_upper()];
        let mut in_cand_v = vec![false; g.n_lower()];
        let mut queue: Vec<(Side, VertexId)> = Vec::new();
        if !self.alive_u[u as usize] {
            in_cand_u[u as usize] = true;
            queue.push((Side::Upper, u));
        }
        if !self.alive_v[v as usize] {
            in_cand_v[v as usize] = true;
            queue.push((Side::Lower, v));
        }
        while let Some((side, x)) = queue.pop() {
            match side {
                Side::Upper => cand_u.push(x),
                Side::Lower => cand_v.push(x),
            }
            for &w in g.neighbors(side, x) {
                match side {
                    Side::Upper => {
                        if !self.alive_v[w as usize] && !in_cand_v[w as usize] {
                            in_cand_v[w as usize] = true;
                            queue.push((Side::Lower, w));
                        }
                    }
                    Side::Lower => {
                        if !self.alive_u[w as usize] && !in_cand_u[w as usize] {
                            in_cand_u[w as usize] = true;
                            queue.push((Side::Upper, w));
                        }
                    }
                }
            }
        }

        // Optimistically revive the candidates: recompute their
        // counters over members ∪ candidates, and credit their
        // contributions to adjacent members.
        for &cu in &cand_u {
            let base = cu as usize * self.n_attrs;
            self.attr_deg[base..base + self.n_attrs].fill(0);
            for &w in g.neighbors(Side::Upper, cu) {
                if self.alive_v[w as usize] || in_cand_v[w as usize] {
                    self.attr_deg[base + lower_attrs[w as usize] as usize] += 1;
                }
                if self.alive_v[w as usize] {
                    self.deg[w as usize] += 1;
                }
            }
        }
        for &cv in &cand_v {
            self.deg[cv as usize] = 0;
            let a = lower_attrs[cv as usize] as usize;
            for &w in g.neighbors(Side::Lower, cv) {
                if self.alive_u[w as usize] || in_cand_u[w as usize] {
                    self.deg[cv as usize] += 1;
                }
                if self.alive_u[w as usize] {
                    self.attr_deg[w as usize * self.n_attrs + a] += 1;
                }
            }
        }
        for &cu in &cand_u {
            self.alive_u[cu as usize] = true;
        }
        for &cv in &cand_v {
            self.alive_v[cv as usize] = true;
        }

        // Localized peel over the candidate region.
        let mut stack = Vec::new();
        for &cu in &cand_u {
            if !self.upper_ok(cu as usize) {
                self.alive_u[cu as usize] = false;
                stack.push((Side::Upper, cu));
            }
        }
        for &cv in &cand_v {
            if self.alive_v[cv as usize] && self.deg[cv as usize] < self.alpha {
                self.alive_v[cv as usize] = false;
                stack.push((Side::Lower, cv));
            }
        }
        let (mut died_u, mut died_v) = (Vec::new(), Vec::new());
        self.cascade(g, &mut stack, &mut died_u, &mut died_v);
        debug_assert!(
            died_u.iter().all(|&x| in_cand_u[x as usize])
                && died_v.iter().all(|&x| in_cand_v[x as usize]),
            "insertion repair must never peel a pre-existing member"
        );

        let mut joined_u: Vec<VertexId> = cand_u
            .iter()
            .copied()
            .filter(|&x| self.alive_u[x as usize])
            .collect();
        let mut joined_v: Vec<VertexId> = cand_v
            .iter()
            .copied()
            .filter(|&x| self.alive_v[x as usize])
            .collect();
        joined_u.sort_unstable();
        joined_v.sort_unstable();
        UpdateEffect {
            changed_upper: joined_u,
            changed_lower: joined_v,
            core_edge_touched: self.alive_u[u as usize] && self.alive_v[v as usize],
        }
    }

    /// Extend the tracker after an isolated vertex was appended to
    /// `side` of `g` (the new graph, which already contains it).
    pub fn add_vertex(&mut self, g: &BipartiteGraph, side: Side, id: VertexId) -> UpdateEffect {
        let mut effect = UpdateEffect::default();
        match side {
            Side::Upper => {
                debug_assert_eq!(id as usize, self.alive_u.len());
                // An isolated upper vertex satisfies "≥ β of every
                // attribute" only when β = 0.
                let joins = self.beta == 0;
                self.alive_u.push(joins);
                self.attr_deg
                    .extend(std::iter::repeat(0).take(self.n_attrs));
                if joins {
                    effect.changed_upper.push(id);
                }
            }
            Side::Lower => {
                debug_assert_eq!(id as usize, self.alive_v.len());
                let joins = self.alpha == 0;
                self.alive_v.push(joins);
                self.deg.push(0);
                if joins {
                    effect.changed_lower.push(id);
                }
            }
        }
        debug_assert!((id as usize) < g.n(side));
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcore::fcore_masks;
    use bigraph::generate::random_uniform;
    use bigraph::GraphBuilder;

    fn assert_tracker_matches(t: &CoreTracker, g: &BipartiteGraph) {
        let (ku, kv) = fcore_masks(g, t.alpha, t.beta);
        assert_eq!(t.alive_u, ku, "upper masks diverge");
        assert_eq!(t.alive_v, kv, "lower masks diverge");
        // Counter invariant: member counters count member neighbors,
        // recounted here from `g` and the masks.
        let lower_attrs = g.attrs(Side::Lower);
        for u in (0..g.n_upper()).filter(|&u| ku[u]) {
            let mut want = vec![0u32; t.n_attrs];
            for &v in g.neighbors(Side::Upper, u as VertexId) {
                if kv[v as usize] {
                    want[lower_attrs[v as usize] as usize] += 1;
                }
            }
            assert_eq!(
                t.attr_deg[u * t.n_attrs..(u + 1) * t.n_attrs],
                want[..],
                "attr_deg of member {u}"
            );
        }
        for v in (0..g.n_lower()).filter(|&v| kv[v]) {
            let want = g
                .neighbors(Side::Lower, v as VertexId)
                .iter()
                .filter(|&&u| ku[u as usize])
                .count() as u32;
            assert_eq!(t.deg[v], want, "deg of member {v}");
        }
    }

    /// Deterministic xorshift so the sequence is reproducible without
    /// pulling the proptest dep into the unit tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn tracker_matches_scratch_over_random_update_sequences() {
        for seed in 0..6u64 {
            let g0 = random_uniform(12, 14, 60, 2, 2, seed);
            for (alpha, beta) in [(1u32, 1u32), (2, 1), (2, 2), (3, 2)] {
                let mut g = g0.clone();
                let mut t = CoreTracker::new(&g, alpha, beta);
                assert_tracker_matches(&t, &g);
                let mut rng = seed * 2_654_435_761 + 1;
                for _ in 0..40 {
                    let u = (xorshift(&mut rng) % g.n_upper() as u64) as u32;
                    let v = (xorshift(&mut rng) % g.n_lower() as u64) as u32;
                    if g.has_edge(u, v) {
                        g = g.without_edge(u, v).unwrap();
                        t.remove_edge(&g, u, v);
                    } else {
                        g = g.with_edge(u, v).unwrap();
                        t.add_edge(&g, u, v);
                    }
                    assert_tracker_matches(&t, &g);
                }
            }
        }
    }

    #[test]
    fn clean_updates_report_clean_and_dirty_report_dirty() {
        // Path-ish graph: u0-v0, u0-v1, u1-v1 with all attrs 0.
        let mut b = GraphBuilder::new(1, 1);
        b.ensure_vertices(3, 3);
        for (u, v) in [(0u32, 0u32), (0, 1), (1, 1)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let mut t = CoreTracker::new(&g, 2, 2);
        // Core is empty at (2,2): nobody has degree 2 on both checks.
        assert_eq!(t.members(), 0);
        // Adding an edge between two dead vertices that still doesn't
        // create a (2,2) core is clean.
        let g2 = g.with_edge(2, 2).unwrap();
        let eff = t.add_edge(&g2, 2, 2);
        assert!(eff.is_clean(), "no joiners, edge outside core: {eff:?}");
        assert_tracker_matches(&t, &g2);
        // Completing the 2x2 block u0,u1 × v0,v1 revives all four.
        let g3 = g2.with_edge(1, 0).unwrap();
        let eff = t.add_edge(&g3, 1, 0);
        assert_eq!(eff.changed_upper, vec![0, 1]);
        assert_eq!(eff.changed_lower, vec![0, 1]);
        assert!(eff.core_edge_touched);
        assert_eq!(eff.flips(), 4);
        assert_tracker_matches(&t, &g3);
        // Removing an edge with a dead endpoint is clean …
        let g4 = g3.without_edge(2, 2).unwrap();
        assert!(t.remove_edge(&g4, 2, 2).is_clean());
        assert_tracker_matches(&t, &g4);
        // … removing a core edge collapses the block.
        let g5 = g4.without_edge(0, 0).unwrap();
        let eff = t.remove_edge(&g5, 0, 0);
        assert!(eff.core_edge_touched);
        assert_eq!(eff.flips(), 4);
        assert_tracker_matches(&t, &g5);
        assert_eq!(t.members(), 0);
    }

    #[test]
    fn vertex_addition_membership_matches_constraints() {
        let g = random_uniform(6, 6, 18, 2, 2, 9);
        // α=0: an isolated lower vertex is a member; β≥1 keeps an
        // isolated upper vertex out.
        let mut t = CoreTracker::new(&g, 0, 1);
        let (g2, lv) = g.with_vertex(Side::Lower, 1).unwrap();
        let eff = t.add_vertex(&g2, Side::Lower, lv);
        assert_eq!(eff.changed_lower, vec![lv]);
        assert!(t.in_core(Side::Lower, lv));
        assert_tracker_matches(&t, &g2);
        let (g3, uv) = g2.with_vertex(Side::Upper, 0).unwrap();
        let eff = t.add_vertex(&g3, Side::Upper, uv);
        assert!(eff.is_clean());
        assert!(!t.in_core(Side::Upper, uv));
        assert_tracker_matches(&t, &g3);
        // The appended vertex participates in later edge updates.
        let g4 = g3.with_edge(uv, lv).unwrap();
        t.add_edge(&g4, uv, lv);
        assert_tracker_matches(&t, &g4);
    }
}
