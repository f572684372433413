//! Delta-based PageRank over a simulated social graph — the paper's
//! flagship workload (Listing 1 / Figure 1) — written as RQL text and run
//! on a multi-worker cluster through [`rex::Session`]: one query, and the
//! system plans, optimizes, distributes, and iterates to fixpoint. It
//! exits non-zero unless every rank is within 5% + δ of the converged
//! PageRank.
//!
//! ```sh
//! cargo run --release --example social_pagerank
//! ```

use rex::algos::common::per_vertex_doubles;
use rex::algos::pagerank::PrAgg;
use rex::algos::reference::{pagerank_converged, BASE_RANK};
use rex::core::handlers::FlippedJoin;
use rex::data::graph::{generate_graph, Graph, GraphSpec};
use rex::Session;
use std::sync::Arc;

/// Rank changes below this are absorbed, not propagated.
const DELTA: f64 = 0.01;

/// Listing 1: PageRank with the PRAgg join delta handler and an
/// incremental SUM over rank differences.
const LISTING1: &str = "
    WITH PR (srcId, pr) AS (
      SELECT srcId, 1.0 AS pr FROM graph
    ) UNION UNTIL FIXPOINT BY srcId (
      SELECT nbr, 0.15 + 0.85 * sum(prDiff)
      FROM (SELECT PRAgg(srcId, pr).{nbr, prDiff}
            FROM graph, PR
            WHERE graph.srcId = PR.srcId)
      GROUP BY nbr)";

fn main() {
    // A follower graph with a heavy-tailed degree distribution.
    let graph = generate_graph(GraphSpec::twitter(2_000, 99));
    println!("social graph: {} users, {} follow edges", graph.n_vertices, graph.n_edges());

    // One session on an 8-worker cluster: the edge relation is stored
    // partitioned on srcId (the first column), which the distributed
    // lowering exploits to keep the Listing 1 join co-partitioned.
    let mut session = Session::cluster(8);
    session.create_table("graph", Graph::schema()).expect("create graph");
    session.insert("graph", graph.edge_tuples()).expect("load edges");

    // Listing 1's PRAgg, flipped because `FROM graph, PR` puts the rank
    // relation on the right. Changes below 1% are not propagated.
    session.register_join("PRAgg", Arc::new(FlippedJoin(Arc::new(PrAgg::delta(DELTA)))));

    let result = session.query(LISTING1).expect("pagerank");
    let ranks = per_vertex_doubles(&result.rows, graph.n_vertices, BASE_RANK);

    // Absorbing changes below δ stops the recursion near, not at, the
    // fixpoint, by more at high in-degree (high rank): allow 5% of the
    // rank plus one δ, far below what a lost edge or delta batch shows.
    let (want, _) = pagerank_converged(&graph, 1e-12, 10_000);
    for (v, (got, want)) in ranks.iter().zip(&want).enumerate() {
        assert!(
            (got - want).abs() <= 0.05 * want + DELTA,
            "user {v}: rank {got} is not within 5% + {DELTA} of the converged {want}"
        );
    }

    // Top influencers.
    let mut by_rank: Vec<(usize, f64)> = ranks.iter().copied().enumerate().collect();
    by_rank.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("every rank within 5% + {DELTA} of the converged PageRank");
    println!("\ntop 10 users by PageRank:");
    for (user, rank) in by_rank.iter().take(10) {
        println!("  user {user:>5}: {rank:.4}");
    }

    // The delta story: Δ set sizes shrink as ranks converge.
    println!("\nconverged in {} strata; Δ set per stratum:", result.iterations());
    for s in &result.report.strata {
        let bar = "#".repeat((s.delta_set_size as usize / 40).min(70));
        println!("  {:>3}: {:>6} {bar}", s.stratum, s.delta_set_size);
    }
    let cluster = result.cluster.as_ref().expect("ran distributed");
    println!(
        "\nbytes shipped between {} workers: {} (deltas only, not the full rank relation)",
        cluster.n_workers, result.report.totals.bytes_sent
    );
    println!(
        "optimizer estimate: {:.0} cost units; measured simulated time: {:.0} units",
        result.cost.runtime(),
        result.simulated_time()
    );
}
