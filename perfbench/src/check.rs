//! Queries and the correctness gate.
//!
//! References are computed once per seed, outside every timed region,
//! by a different code path than the timed one: FCore-only pruning
//! (the timed path runs the colorful cascade), a forced bitset
//! substrate (the timed path resolves `Auto`), one thread, sorted.

use crate::client::field;
use bigraph::BipartiteGraph;
use fair_biclique::config::{FairParams, ProParams, PruneKind, RunConfig, Substrate};
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use fair_biclique::Biclique;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// What an `ENUM` returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Result lines, capped by the service's default limit.
    Collect,
    /// `count-only`.
    Count,
    /// `max=vertices`.
    MaxVertices,
}

/// One query of a workload's mix.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Model and parameters.
    pub model: QueryModel,
    /// Output mode.
    pub mode: Mode,
}

impl Query {
    /// The protocol line for this query against catalog graph `graph`.
    pub fn line(&self, graph: &str) -> String {
        let p = self.model.base();
        let mut s = format!(
            "ENUM {graph} {} alpha={} beta={} delta={}",
            self.model.name().to_ascii_lowercase(),
            p.alpha,
            p.beta,
            p.delta
        );
        if let Some(theta) = self.model.theta() {
            s.push_str(&format!(" theta={theta}"));
        }
        match self.mode {
            Mode::Collect => {}
            Mode::Count => s.push_str(" count-only"),
            Mode::MaxVertices => s.push_str(" max=vertices"),
        }
        s
    }
}

/// The four models at one `(α, β)` for the single-side pair and one for
/// the bi-side pair.
pub fn models(single: (u32, u32), bi: (u32, u32), delta: u32, theta: f64) -> [QueryModel; 4] {
    let pro = |(a, b): (u32, u32)| ProParams::new(a, b, delta, theta).expect("valid theta");
    [
        QueryModel::Ssfbc(FairParams::unchecked(single.0, single.1, delta)),
        QueryModel::Bsfbc(FairParams::unchecked(bi.0, bi.1, delta)),
        QueryModel::Pssfbc(pro(single)),
        QueryModel::Pbsfbc(pro(bi)),
    ]
}

/// The full, canonically sorted result set of `model` on `g` by the
/// reference path.
pub fn reference_results(g: &BipartiteGraph, model: QueryModel) -> Vec<Biclique> {
    let plan = PreparedQuery::prepare(g, model, PruneKind::FCore, Substrate::Bitset);
    let report = plan.execute(&RunConfig {
        sorted: true,
        threads: 1,
        ..RunConfig::default()
    });
    assert!(report.truncated_by.is_none(), "reference runs unbounded");
    report.bicliques
}

/// Size and hash of a canonically sorted result set: enough to compare
/// a full, unlimited result set without keeping the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    /// Digest of a sorted result set.
    pub fn of_sorted(sorted: &[Biclique]) -> Digest {
        let mut h = DefaultHasher::new();
        sorted.hash(&mut h);
        Digest {
            len: sorted.len(),
            hash: h.finish(),
        }
    }

    /// Digest of `results` in any order, or `None` when it holds a
    /// duplicate. Sorts `results` in place (call outside timed regions).
    pub fn of_unsorted(results: &mut [Biclique]) -> Option<Digest> {
        results.sort_unstable();
        results
            .windows(2)
            .all(|w| w[0] != w[1])
            .then(|| Digest::of_sorted(results))
    }

    /// Is `results`, in any order, exactly the digested set?
    pub fn matches(&self, results: &mut [Biclique]) -> bool {
        Digest::of_unsorted(results) == Some(*self)
    }

    /// Text form, for passing between processes.
    pub fn encode(d: Option<Digest>) -> String {
        d.map_or("dup".into(), |d| format!("{} {}", d.len, d.hash))
    }

    /// Parse [`Digest::encode`] output (`None` for anything else).
    pub fn decode(s: &str) -> Option<Digest> {
        let (len, hash) = s.split_once(' ')?;
        Some(Digest {
            len: len.parse().ok()?,
            hash: hash.parse().ok()?,
        })
    }
}

/// A reference result set indexed by the service's rendering of each
/// result, for checking reply payloads line by line.
pub struct Reference {
    index: HashMap<String, usize>,
    vertices: Vec<usize>,
}

impl Reference {
    /// Index a canonically sorted result set.
    pub fn new(sorted: &[Biclique]) -> Reference {
        Reference {
            index: sorted
                .iter()
                .enumerate()
                .map(|(i, b)| (b.to_string(), i))
                .collect(),
            vertices: sorted.iter().map(Biclique::len).collect(),
        }
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Are `lines` a sorted, duplicate-free subset of the reference of
    /// size `min(limit, |reference|)`?
    pub fn subset_ok(&self, lines: &[String], limit: u64) -> bool {
        let want = (self.len() as u64).min(limit);
        if lines.len() as u64 != want {
            return false;
        }
        let mut prev: Option<usize> = None;
        for l in lines {
            match self.index.get(l.as_str()) {
                // Strictly increasing reference positions: sorted and
                // duplicate-free at once.
                Some(&i) if prev.is_none_or(|p| p < i) => prev = Some(i),
                _ => return false,
            }
        }
        true
    }

    /// Is `lines` one reference result of the largest vertex count (or
    /// empty when the reference is)?
    pub fn max_ok(&self, lines: &[String]) -> bool {
        let Some(&best) = self.vertices.iter().max() else {
            return lines.is_empty();
        };
        lines.len() == 1
            && self
                .index
                .get(lines[0].as_str())
                .is_some_and(|&i| self.vertices[i] == best)
    }
}

/// The correctness gate for one `ENUM` reply: an `OK` status that was
/// not cut short by anything but the result cap, whose count and
/// payload agree with the reference for the reply's mode.
pub fn reply_ok(
    reference: &Reference,
    mode: Mode,
    limit: u64,
    status: &str,
    lines: &[String],
) -> bool {
    if !status.starts_with("OK") {
        return false;
    }
    if field(status, "truncated").is_some_and(|t| t != "result-cap") {
        return false;
    }
    let count: Option<usize> = field(status, "count").and_then(|c| c.parse().ok());
    match mode {
        Mode::Collect => count == Some(lines.len()) && reference.subset_ok(lines, limit),
        Mode::Count => count == Some(reference.len()) && lines.is_empty(),
        Mode::MaxVertices => reference.max_ok(lines),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refset() -> (Vec<Biclique>, Reference) {
        let mut v = vec![
            Biclique::new(vec![0, 1], vec![2, 3]),
            Biclique::new(vec![0], vec![1, 2, 3]),
            Biclique::new(vec![2, 3, 4], vec![5, 6]),
        ];
        v.sort();
        let r = Reference::new(&v);
        (v, r)
    }

    fn lines(v: &[&Biclique]) -> Vec<String> {
        v.iter().map(|b| b.to_string()).collect()
    }

    #[test]
    fn subset_gate_requires_sorted_unique_members_of_capped_size() {
        let (v, r) = refset();
        assert!(r.subset_ok(&lines(&[&v[0], &v[1], &v[2]]), 1000));
        assert!(r.subset_ok(&lines(&[&v[0], &v[2]]), 2));
        // Wrong size for the limit.
        assert!(!r.subset_ok(&lines(&[&v[0]]), 2));
        assert!(!r.subset_ok(&lines(&[&v[0], &v[1]]), 1000));
        // Unsorted or duplicated.
        assert!(!r.subset_ok(&lines(&[&v[2], &v[0]]), 2));
        assert!(!r.subset_ok(&lines(&[&v[0], &v[0]]), 2));
        // Not in the reference.
        let stranger = Biclique::new(vec![9], vec![9]);
        assert!(!r.subset_ok(&lines(&[&v[0], &stranger]), 2));
    }

    #[test]
    fn reply_gate_counts_errors_and_wrong_modes_as_failures() {
        let (v, r) = refset();
        let all = lines(&[&v[0], &v[1], &v[2]]);
        assert!(reply_ok(
            &r,
            Mode::Collect,
            1000,
            "OK count=3 cached=true",
            &all
        ));
        assert!(!reply_ok(&r, Mode::Collect, 1000, "ERR BUSY full", &[]));
        assert!(!reply_ok(
            &r,
            Mode::Collect,
            1000,
            "OK count=3 truncated=deadline",
            &all
        ));
        assert!(reply_ok(
            &r,
            Mode::Collect,
            2,
            "OK count=2 truncated=result-cap",
            &all[..2]
        ));
        assert!(reply_ok(&r, Mode::Count, 1000, "OK count=3", &[]));
        assert!(!reply_ok(&r, Mode::Count, 1000, "OK count=2", &[]));
        // The largest result has 5 vertices.
        assert!(reply_ok(
            &r,
            Mode::MaxVertices,
            1000,
            "OK count=1",
            &lines(&[&v[2]])
        ));
        assert!(!reply_ok(
            &r,
            Mode::MaxVertices,
            1000,
            "OK count=1",
            &lines(&[&v[0]])
        ));
    }

    #[test]
    fn digest_matches_any_order_but_not_other_sets() {
        let (v, _) = refset();
        let d = Digest::of_sorted(&v);
        let mut shuffled = vec![v[2].clone(), v[0].clone(), v[1].clone()];
        assert!(d.matches(&mut shuffled));
        let mut short = vec![v[0].clone(), v[1].clone()];
        assert!(!d.matches(&mut short));
        let mut dup = vec![v[0].clone(), v[0].clone(), v[1].clone()];
        assert!(!d.matches(&mut dup));
        assert_eq!(Digest::decode(&Digest::encode(Some(d))), Some(d));
        assert_eq!(Digest::decode(&Digest::encode(None)), None);
    }

    #[test]
    fn query_lines_parse_back() {
        for model in models((8, 8), (5, 5), 2, 0.4) {
            for mode in [Mode::Collect, Mode::Count, Mode::MaxVertices] {
                let q = Query { model, mode };
                let parsed = fbe_service::protocol::parse_request(&q.line("g"));
                assert!(parsed.is_ok(), "{}", q.line("g"));
            }
        }
    }
}
