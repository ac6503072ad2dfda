//! Team finder: the "find a team of experts" scenario from the
//! paper's introduction, end to end — mine the *largest* fair team,
//! shortlist the top-k, and summarize the whole result space.
//!
//! Exercises the extension APIs: [`fair_biclique::maximum`], the
//! top-k result mode ([`fair_biclique::prepared::Mode::Top`]), the
//! parallel engine (via
//! [`fair_biclique::config::RunConfig::threads`]) and
//! [`fair_biclique::results`].
//!
//! ```text
//! cargo run --release -p fbe-examples --example team_finder
//! ```

use fair_biclique::maximum::{max_ssfbc, SizeMetric};
use fair_biclique::prelude::*;
use fair_biclique::results::{group_by_lower_signature, summarize};
use fbe_datasets::case_studies::dbda;

fn main() {
    let cs = dbda(2023);
    let g = &cs.graph;
    println!(
        "DBDA collaboration graph: {} papers x {} scholars, {} authorships",
        g.n_upper(),
        g.n_lower(),
        g.n_edges()
    );
    let params = FairParams::new(3, 2, 1).expect("valid params");
    println!("looking for teams with {params}: >=3 joint papers, >=2 of each seniority, gap <=1\n");

    // 1. The single largest fair team, by member count and by
    //    collaboration volume (papers x members).
    for (name, metric) in [
        ("most members+papers", SizeMetric::Vertices),
        ("most pairwise collaborations", SizeMetric::Edges),
    ] {
        let (best, _) = max_ssfbc(g, params, metric, &RunConfig::default());
        match best {
            Some(bc) => println!("largest team ({name}):\n{}\n", cs.describe(&bc)),
            None => println!("no fair team exists for {params}"),
        }
    }

    // 2. A top-5 shortlist without materialising every result.
    let model = QueryModel::Ssfbc(params);
    let plan = PreparedQuery::prepare(g, model, PruneKind::default(), Substrate::Auto);
    let top = plan.run(
        Mode::Top(5),
        &RunConfig::default(),
        &mut SpanRecorder::disabled(),
    );
    let seen = top.stats.emitted;
    println!("top-5 of {seen} fair teams:");
    for bc in top.bicliques {
        let (p, s) = (bc.upper.len(), bc.lower.len());
        println!("  {p} papers x {s} scholars: {bc}");
    }

    // 3. Whole-result-space statistics on the parallel engine.
    let cfg = RunConfig {
        threads: 4,
        sorted: true,
        ..RunConfig::default()
    };
    let report = enumerate_ssfbc(g, params, &cfg);
    let summary = summarize(g, &report.bicliques);
    println!(
        "\nacross all {} teams: sizes {}..{}, mean {:.1} papers x {:.1} scholars, \
         mean seniority imbalance {:.2}",
        summary.count,
        summary.min_size,
        summary.max_size,
        summary.mean_upper,
        summary.mean_lower,
        summary.mean_lower_imbalance,
    );
    println!("teams by (senior, junior) composition:");
    for (sig, n) in group_by_lower_signature(g, &report.bicliques) {
        println!("  S={} J={}: {n} team(s)", sig[0], sig[1]);
    }
}
