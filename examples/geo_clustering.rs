//! Delta-based K-means over 2-D geo points (Listing 3): the centroid
//! relation is the mutable set; only points that *switch* clusters emit
//! deltas. Panics unless every centroid is within 1e-9 of sequential
//! Lloyd's iteration.
//!
//! ```sh
//! cargo run --release --example geo_clustering
//! ```

use rex::algos::kmeans::{centroids_from_results, plan_local, KMeansConfig};
use rex::algos::reference;
use rex::core::exec::LocalRuntime;
use rex::data::points::{generate_points, PointSpec};

fn main() {
    let points =
        generate_points(PointSpec { n_points: 2_000, n_clusters: 6, stddev: 2.0, seed: 5 });
    let k = 6;
    println!("clustering {} points into {k} clusters", points.len());

    let plan = plan_local(&points, KMeansConfig { k, max_iterations: 100 });
    let (results, report) = LocalRuntime::new().run(plan).expect("kmeans");
    let centroids = centroids_from_results(&results, k);

    println!("\ncentroids:");
    for (cid, c) in centroids.iter().enumerate() {
        println!("  cluster {cid}: ({:>8.3}, {:>8.3})", c.x, c.y);
    }

    // Cross-check against sequential Lloyd's iteration.
    let init = reference::sample_centroids(&points, k);
    let (want, _, iters, switch_trace) = reference::kmeans(&points, &init, 100);
    let max_err = centroids.iter().zip(&want).map(|(a, b)| a.dist(b)).fold(0.0f64, f64::max);
    println!("\nmax deviation from sequential Lloyd's: {max_err:.2e} over {iters} iterations");
    assert!(max_err <= 1e-9, "centroids deviate from Lloyd's by {max_err:.2e} (> 1e-9)");

    // The delta behaviour: switches per stratum shrink to zero.
    println!("\npoints switching clusters per engine stratum (the Δᵢ set):");
    for s in &report.strata {
        println!("  {:>3}: {:>5} changed-centroid deltas", s.stratum, s.delta_set_size);
    }
    println!("\nreference switch trace: {switch_trace:?}");
}
