//! Synthetic directed graphs with heavy-tailed degree distributions.
//!
//! The paper's graph experiments use the DBPedia article-link graph (48M
//! edges, 3.3M vertices) and a Twitter follower graph (1.4B edges, 41M
//! vertices). We substitute seeded preferential-attachment graphs whose
//! *shape* — a power-law out-degree distribution with a dense core and a
//! long tail, plus a small diameter — drives the same delta-convergence
//! behaviour in PageRank and shortest paths.

use crate::rng::StdRng;
use rex_core::tuple::{Schema, Tuple};
use rex_core::value::{DataType, Value};
use std::collections::BTreeSet;

/// A directed graph as an edge list over `0..n_vertices` vertex ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Number of vertices (vertex ids are `0..n_vertices`).
    pub n_vertices: usize,
    /// Directed edges `(src, dst)`, deduplicated, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.n_vertices];
        for &(s, _) in &self.edges {
            d[s as usize] += 1;
        }
        d
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.n_vertices];
        for &(_, t) in &self.edges {
            d[t as usize] += 1;
        }
        d
    }

    /// Adjacency lists (out-neighbors), index = vertex id.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n_vertices];
        for &(s, t) in &self.edges {
            adj[s as usize].push(t);
        }
        adj
    }

    /// The schema of the edge relation: `graph(srcId INTEGER, destId INTEGER)`.
    pub fn schema() -> Schema {
        Schema::of(&[("srcId", DataType::Int), ("destId", DataType::Int)])
    }

    /// The edge relation as engine tuples `(srcId, destId)`, the layout the
    /// paper's Figure 1 plan scans.
    pub fn edge_tuples(&self) -> Vec<Tuple> {
        self.edges
            .iter()
            .map(|&(s, t)| Tuple::new(vec![Value::Int(s as i64), Value::Int(t as i64)]))
            .collect()
    }
}

/// Parameters for the preferential-attachment generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSpec {
    /// Target number of vertices.
    pub n_vertices: usize,
    /// Out-edges attached per new vertex (mean out-degree).
    pub edges_per_vertex: usize,
    /// RNG seed: identical specs produce identical graphs.
    pub seed: u64,
    /// Extra uniformly-random "long range" edges as a fraction of the
    /// preferential edges; keeps the diameter small like real web graphs.
    pub random_edge_fraction: f64,
    /// When non-zero, preferential attachment is biased toward the most
    /// recent `locality_window` target entries, producing longer directed
    /// paths (larger BFS depth) while keeping the degree distribution
    /// heavy-tailed. Real social graphs show this temporal locality.
    pub locality_window: usize,
}

impl GraphSpec {
    /// A small default suitable for tests.
    pub fn small() -> GraphSpec {
        GraphSpec {
            n_vertices: 200,
            edges_per_vertex: 4,
            seed: 7,
            random_edge_fraction: 0.1,
            locality_window: 0,
        }
    }

    /// The "DBPedia" stand-in: mean out-degree ~14 like the paper's
    /// 48M-edges/3.3M-vertices graph, scaled down.
    pub fn dbpedia(n_vertices: usize, seed: u64) -> GraphSpec {
        GraphSpec {
            n_vertices,
            edges_per_vertex: 14,
            seed,
            random_edge_fraction: 0.05,
            locality_window: 0,
        }
    }

    /// The "Twitter" stand-in: denser core (mean degree ~34, like
    /// 1.4B/41M), heavier tail.
    pub fn twitter(n_vertices: usize, seed: u64) -> GraphSpec {
        GraphSpec {
            n_vertices,
            edges_per_vertex: 34,
            seed,
            random_edge_fraction: 0.0,
            // Temporal locality stretches the BFS depth to ~10-15 hops,
            // like the paper's Twitter crawl.
            locality_window: n_vertices / 6,
        }
    }
}

/// Generate a directed preferential-attachment (Barabási–Albert-style)
/// graph. New vertices attach `edges_per_vertex` out-edges to existing
/// vertices with probability proportional to in-degree + 1, producing a
/// power-law in-degree tail; a sprinkle of uniform edges bounds the
/// diameter.
pub fn generate_graph(spec: GraphSpec) -> Graph {
    let n = spec.n_vertices.max(2);
    let m = spec.edges_per_vertex.max(1);
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // `targets` is a repeated-node list: sampling uniformly from it is
    // sampling proportional to (in-degree + 1).
    let mut targets: Vec<u32> = (0..n.min(m + 1) as u32).collect();
    let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();

    // Seed clique among the first min(n, m+1) vertices.
    let seed_n = n.min(m + 1) as u32;
    for i in 0..seed_n {
        let j = (i + 1) % seed_n;
        if i != j {
            edges.insert((i, j));
        }
    }

    for v in seed_n as usize..n {
        let v = v as u32;
        let mut attached = 0usize;
        let mut attempts = 0usize;
        while attached < m && attempts < m * 20 {
            attempts += 1;
            let lo = if spec.locality_window > 0 {
                targets.len().saturating_sub(spec.locality_window * m)
            } else {
                0
            };
            let t = targets[rng.gen_range(lo..targets.len())];
            if t != v && edges.insert((v, t)) {
                targets.push(t);
                attached += 1;
            }
        }
        targets.push(v);
    }

    // Long-range uniform edges.
    let n_random = (edges.len() as f64 * spec.random_edge_fraction) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < n_random && attempts < n_random * 20 {
        attempts += 1;
        let s = rng.gen_range(0..n) as u32;
        let t = rng.gen_range(0..n) as u32;
        if s != t && edges.insert((s, t)) {
            added += 1;
        }
    }

    Graph { n_vertices: n, edges: edges.into_iter().collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = generate_graph(GraphSpec::small());
        let b = generate_graph(GraphSpec::small());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_graph(GraphSpec { seed: 1, ..GraphSpec::small() });
        let b = generate_graph(GraphSpec { seed: 2, ..GraphSpec::small() });
        assert_ne!(a.edges, b.edges);
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = generate_graph(GraphSpec::small());
        let mut seen = BTreeSet::new();
        for &(s, t) in &g.edges {
            assert_ne!(s, t, "self loop at {s}");
            assert!(seen.insert((s, t)), "duplicate edge ({s},{t})");
            assert!((s as usize) < g.n_vertices);
            assert!((t as usize) < g.n_vertices);
        }
    }

    #[test]
    fn mean_out_degree_near_spec() {
        let spec = GraphSpec {
            n_vertices: 2000,
            edges_per_vertex: 8,
            seed: 3,
            random_edge_fraction: 0.0,
            locality_window: 0,
        };
        let g = generate_graph(spec);
        let mean = g.n_edges() as f64 / g.n_vertices as f64;
        assert!(mean > 6.0 && mean < 10.0, "mean degree {mean}");
    }

    #[test]
    fn in_degree_is_heavy_tailed() {
        let g = generate_graph(GraphSpec {
            n_vertices: 3000,
            edges_per_vertex: 5,
            seed: 11,
            random_edge_fraction: 0.0,
            locality_window: 0,
        });
        let mut d = g.in_degrees();
        d.sort_unstable_by(|a, b| b.cmp(a));
        // Top 1% of vertices should hold a disproportionate share of edges.
        let top: u64 = d.iter().take(g.n_vertices / 100).map(|&x| x as u64).sum();
        let total: u64 = d.iter().map(|&x| x as u64).sum();
        assert!(
            top as f64 / total as f64 > 0.08,
            "top-1% share {} too uniform",
            top as f64 / total as f64
        );
    }

    #[test]
    fn edge_tuples_match_edges() {
        let g = generate_graph(GraphSpec {
            n_vertices: 10,
            edges_per_vertex: 2,
            seed: 5,
            random_edge_fraction: 0.0,
            locality_window: 0,
        });
        let ts = g.edge_tuples();
        assert_eq!(ts.len(), g.n_edges());
        assert_eq!(ts[0].get(0).as_int().unwrap() as u32, g.edges[0].0);
        assert_eq!(ts[0].get(1).as_int().unwrap() as u32, g.edges[0].1);
        Graph::schema().check(&ts[0]).unwrap();
    }

    #[test]
    fn degrees_sum_to_edge_count() {
        let g = generate_graph(GraphSpec::small());
        let out: u64 = g.out_degrees().iter().map(|&x| x as u64).sum();
        let inn: u64 = g.in_degrees().iter().map(|&x| x as u64).sum();
        assert_eq!(out, g.n_edges() as u64);
        assert_eq!(inn, g.n_edges() as u64);
    }

    #[test]
    fn adjacency_consistent_with_edges() {
        let g = generate_graph(GraphSpec::small());
        let adj = g.adjacency();
        let total: usize = adj.iter().map(Vec::len).sum();
        assert_eq!(total, g.n_edges());
        for &(s, t) in g.edges.iter().take(20) {
            assert!(adj[s as usize].contains(&t));
        }
    }

    #[test]
    fn presets_scale_density() {
        let d = generate_graph(GraphSpec::dbpedia(500, 1));
        let t = generate_graph(GraphSpec::twitter(500, 1));
        assert!(t.n_edges() > d.n_edges(), "twitter should be denser");
    }
}
