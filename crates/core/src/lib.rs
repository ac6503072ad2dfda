//! # fair-biclique — fairness-aware maximal biclique enumeration
//!
//! A complete Rust implementation of *"Fairness-aware Maximal Biclique
//! Enumeration on Bipartite Graphs"* (Yin, Zhang, Zhang, Li, Wang —
//! ICDE 2023, arXiv:2303.03705):
//!
//! * **Models** — single-side fair bicliques (SSFBC), bi-side fair
//!   bicliques (BSFBC), and their proportion variants (PSSFBC /
//!   PBSFBC); see [`config::FairParams`] and [`config::ProParams`].
//! * **Pruning** — fair α-β core ([`fcore`], Algorithm 1), colorful
//!   fair α-β core ([`cfcore`], Algorithm 2), and the bi-side variants
//!   BFCore / BCFCore ([`bfcore`]).
//! * **Enumeration** — the branch-and-bound `FairBCEM` ([`fairbcem`],
//!   Algorithm 5), the combinatorial `FairBCEM++` ([`fairbcem_pp`],
//!   Algorithm 6), the bi-side `BFairBCEM` / `BFairBCEM++`
//!   ([`bfairbcem`], Algorithm 9), their proportion forms
//!   `FairBCEMPro++` / `BFairBCEMPro++` ([`proportion`]), all four
//!   `++` miners run by one walk ([`expansion`]), the naive baselines
//!   `NSF` / `BNSF` ([`naive`]), and plain maximal biclique
//!   enumeration ([`mbea`]).
//! * **Verification** — brute-force oracles ([`verify`]) used by the
//!   test suite to certify every enumerator on thousands of random
//!   graphs.
//! * **Extensions** — prepared queries ([`prepared`]: prune and plan
//!   once, then stream any number of runs), a work-stealing parallel
//!   enumeration engine driving all of the `++` miners and maximum
//!   search ([`parallel`]; opt in with
//!   [`config::RunConfig::threads`]), maximum fair
//!   biclique search ([`maximum`]), and an adaptive bitset candidate
//!   substrate for the enumeration hot path
//!   ([`config::RunConfig::substrate`]; see [`bigraph::candidate`]),
//!   and incremental fair-core maintenance for dynamic graphs
//!   ([`incremental`]).
//!
//! ## Quickstart
//!
//! ```
//! use bigraph::GraphBuilder;
//! use fair_biclique::prelude::*;
//!
//! // A 3x4 complete bipartite block: attrs U = [0,1,0], V = [0,0,1,1].
//! // `new` takes the attribute-domain sizes (2 values per side); the
//! // vertex sets grow on demand from the attrs and edges below.
//! let mut b = GraphBuilder::new(2, 2);
//! b.set_attrs_upper(&[0, 1, 0]);
//! b.set_attrs_lower(&[0, 0, 1, 1]);
//! for u in 0..3 {
//!     for v in 0..4 {
//!         b.add_edge(u, v);
//!     }
//! }
//! let g = b.build().unwrap();
//!
//! let params = FairParams::new(2, 1, 1).unwrap();
//! let report = enumerate_ssfbc(&g, params, &RunConfig::default());
//! // The whole block is the unique single-side fair biclique.
//! assert_eq!(report.bicliques.len(), 1);
//! assert_eq!(report.bicliques[0].upper, vec![0, 1, 2]);
//! assert_eq!(report.bicliques[0].lower, vec![0, 1, 2, 3]);
//! ```
//!
//! The fair side is always [`bigraph::Side::Lower`] (the paper's
//! convention); to mine with the upper side fair, call
//! [`bigraph::BipartiteGraph::flipped`] first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfairbcem;
pub mod bfcore;
pub mod biclique;
pub mod cfcore;
pub mod config;
pub mod expansion;
pub mod fairbcem;
pub mod fairbcem_pp;
pub mod fairset;
pub mod fcore;
pub mod incremental;
pub mod maximum;
pub mod mbea;
pub mod memory;
pub mod naive;
pub mod obs;
pub mod ordering;
pub mod parallel;
pub mod pipeline;
pub mod prepared;
pub mod proportion;
pub mod results;
pub mod verify;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::biclique::{Biclique, BicliqueSink, CollectSink, CountSink, TopKSink};
    pub use crate::config::{
        Budget, CancelToken, FairParams, ProParams, PruneKind, RunConfig, StopReason, Substrate,
        VertexOrder,
    };
    pub use crate::obs::{Span, SpanRecorder};
    pub use crate::pipeline::{
        enumerate_bsfbc, enumerate_pbsfbc, enumerate_pssfbc, enumerate_ssfbc, BiAlgorithm,
        RunReport, SsAlgorithm,
    };
    pub use crate::prepared::{Mode, PreparedQuery, QueryModel};
}

pub use prelude::*;
