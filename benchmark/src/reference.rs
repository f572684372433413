//! Naive reference evaluators, independent of the engine: plain loops,
//! `BTreeMap` group-bys, a nested-map join, BFS, Bellman-Ford and power
//! iteration. Every reply the benchmark checks is compared with one of
//! these by row count and an order-independent checksum; the generators
//! draw doubles from multiples of 0.25, so sums are exact and equality is
//! exact.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A value of a reference row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum V {
    I(i64),
    D(f64),
}

/// Row count plus the wrapping sum of per-row hashes: equal for equal
/// bags of rows whatever their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: usize,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, row: &[V]) {
        // FNV-1a over each value's tag and bits; -0.0 is folded into 0.0
        // so equal doubles hash equally.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in row {
            let (tag, bits) = match *v {
                V::I(i) => (1u64, i as u64),
                V::D(d) => (2u64, (d + 0.0).to_bits()),
            };
            h = (h ^ tag).wrapping_mul(0x0000_0100_0000_01b3);
            h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a [V]>) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add(r);
        }
        d
    }
}

// ---- olap_adhoc: fact table t(k, a, b), dimension dim(k, g, w) ----------

#[derive(Debug, Clone, Copy)]
pub struct TRow {
    pub k: i64,
    pub a: i64,
    pub b: f64,
}

/// `SELECT k, a + 1, b * 2.0 FROM t WHERE a < thr AND k >= lo`
pub fn scan_filter_project(t: &[TRow], thr: i64, lo: i64) -> Digest {
    let mut d = Digest::default();
    for r in t {
        if r.a < thr && r.k >= lo {
            d.add(&[V::I(r.k), V::I(r.a + 1), V::D(r.b * 2.0)]);
        }
    }
    d
}

/// `SELECT a, count(*), sum(b) FROM t WHERE k >= lo GROUP BY a
///  HAVING count(*) > 10 ORDER BY 2 DESC LIMIT 10`; ties in the count
/// resolve by whole-row order, i.e. by ascending `a`.
pub fn topk_group(t: &[TRow], lo: i64) -> Digest {
    let mut groups: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for r in t.iter().filter(|r| r.k >= lo) {
        let g = groups.entry(r.a).or_insert((0, 0.0));
        g.0 += 1;
        g.1 += r.b;
    }
    let mut rows: Vec<(i64, i64, f64)> =
        groups.into_iter().filter(|(_, (n, _))| *n > 10).map(|(a, (n, s))| (a, n, s)).collect();
    rows.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    rows.truncate(10);
    let mut d = Digest::default();
    for (a, n, s) in rows {
        d.add(&[V::I(a), V::I(n), V::D(s)]);
    }
    d
}

/// `SELECT dim.g, count(*), sum(t.b) FROM t, dim
///  WHERE t.k = dim.k AND t.a < thr AND t.k >= lo GROUP BY dim.g`
/// over `dim(k, g)` given as a key → group map.
pub fn join_group(t: &[TRow], dim: &BTreeMap<i64, i64>, thr: i64, lo: i64) -> Digest {
    let mut groups: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for r in t.iter().filter(|r| r.a < thr && r.k >= lo) {
        if let Some(g) = dim.get(&r.k) {
            let e = groups.entry(*g).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += r.b;
        }
    }
    let mut d = Digest::default();
    for (g, (n, s)) in groups {
        d.add(&[V::I(g), V::I(n), V::D(s)]);
    }
    d
}

// ---- serve_hot: edges(src, dst), view deg = count per src ----------------

/// `SELECT src, count(*) FROM edges GROUP BY src`
pub fn degrees(edges: &[(i64, i64)]) -> BTreeMap<i64, i64> {
    let mut m = BTreeMap::new();
    for (s, _) in edges {
        *m.entry(*s).or_insert(0) += 1;
    }
    m
}

// ---- ingest_views: orders(oid, cust, amt), cust(cust, region), org(emp, mgr)

#[derive(Debug, Clone, Copy)]
pub struct Order {
    pub oid: i64,
    pub cust: i64,
    pub amt: f64,
}

/// `SELECT cust, count(*), sum(amt) FROM orders GROUP BY cust`
pub fn spend(orders: &[Order]) -> Digest {
    let mut m: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for o in orders {
        let e = m.entry(o.cust).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += o.amt;
    }
    let mut d = Digest::default();
    for (c, (n, s)) in m {
        d.add(&[V::I(c), V::I(n), V::D(s)]);
    }
    d
}

/// `SELECT cust.region, count(*), sum(orders.amt), max(orders.amt)
///  FROM orders, cust WHERE orders.cust = cust.cust GROUP BY cust.region`
pub fn region_spend(orders: &[Order], region_of: &BTreeMap<i64, i64>) -> Digest {
    let mut m: BTreeMap<i64, (i64, f64, f64)> = BTreeMap::new();
    for o in orders {
        if let Some(r) = region_of.get(&o.cust) {
            let e = m.entry(*r).or_insert((0, 0.0, f64::NEG_INFINITY));
            e.0 += 1;
            e.1 += o.amt;
            e.2 = e.2.max(o.amt);
        }
    }
    let mut d = Digest::default();
    for (r, (n, s, mx)) in m {
        d.add(&[V::I(r), V::I(n), V::D(s), V::D(mx)]);
    }
    d
}

/// `SELECT oid, cust, amt * 2.0 FROM orders WHERE amt > floor`
pub fn big(orders: &[Order], floor: f64) -> Digest {
    let mut d = Digest::default();
    for o in orders.iter().filter(|o| o.amt > floor) {
        d.add(&[V::I(o.oid), V::I(o.cust), V::D(o.amt * 2.0)]);
    }
    d
}

/// Everyone reachable from `roots` along manager → employee edges
/// (`org(emp, mgr)`), the roots included: the recursive `reports` view.
pub fn reports(org: &[(i64, i64)], roots: &[i64]) -> Digest {
    let mut staff: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for (emp, mgr) in org {
        staff.entry(*mgr).or_default().push(*emp);
    }
    let mut seen: BTreeSet<i64> = roots.iter().copied().collect();
    let mut queue: VecDeque<i64> = roots.iter().copied().collect();
    while let Some(m) = queue.pop_front() {
        for e in staff.get(&m).into_iter().flatten() {
            if seen.insert(*e) {
                queue.push_back(*e);
            }
        }
    }
    let mut d = Digest::default();
    for e in seen {
        d.add(&[V::I(e)]);
    }
    d
}

// ---- recursive_fixpoint: graph(srcId, destId) -----------------------------

/// Vertices reachable from `root` by BFS, `root` itself only if it lies on
/// a cycle or — as the recursive query's base case selects it — has an
/// out-edge.
pub fn reachable(adj: &[Vec<u32>], root: u32) -> Digest {
    let mut seen = vec![false; adj.len()];
    let mut queue = VecDeque::new();
    if !adj[root as usize].is_empty() {
        seen[root as usize] = true;
        queue.push_back(root);
    }
    while let Some(v) = queue.pop_front() {
        for &t in &adj[v as usize] {
            if !seen[t as usize] {
                seen[t as usize] = true;
                queue.push_back(t);
            }
        }
    }
    let mut d = Digest::default();
    for (v, s) in seen.iter().enumerate() {
        if *s {
            d.add(&[V::I(v as i64)]);
        }
    }
    d
}

/// Unit-weight single-source shortest paths by Bellman-Ford relaxation
/// over the edge list; `(vertex, distance)` rows for reachable vertices.
pub fn shortest_paths(edges: &[(u32, u32)], n: usize, source: u32) -> Digest {
    let mut dist = vec![f64::INFINITY; n];
    dist[source as usize] = 0.0;
    loop {
        let mut changed = false;
        for &(s, t) in edges {
            let cand = dist[s as usize] + 1.0;
            if cand < dist[t as usize] {
                dist[t as usize] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut d = Digest::default();
    for (v, x) in dist.iter().enumerate() {
        if x.is_finite() {
            d.add(&[V::I(v as i64), V::D(*x)]);
        }
    }
    d
}

/// PageRank in the paper's formulation, `PR(v) = 0.15 + 0.85 · Σ_{u→v}
/// PR(u)/outdeg(u)` from `PR = 1`, by power iteration until no rank moves
/// by more than `tol`.
pub fn pagerank(adj: &[Vec<u32>], tol: f64) -> Vec<f64> {
    let n = adj.len();
    let mut pr = vec![1.0f64; n];
    loop {
        let mut incoming = vec![0.0f64; n];
        for (v, out) in adj.iter().enumerate() {
            if !out.is_empty() {
                let share = pr[v] / out.len() as f64;
                for &t in out {
                    incoming[t as usize] += share;
                }
            }
        }
        let mut moved = 0.0f64;
        for v in 0..n {
            let next = 0.15 + 0.85 * incoming[v];
            moved = moved.max((next - pr[v]).abs());
            pr[v] = next;
        }
        if moved <= tol {
            return pr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Vec<TRow> {
        vec![
            TRow { k: 0, a: 1, b: 0.5 },
            TRow { k: 1, a: 1, b: 1.0 },
            TRow { k: 2, a: 9, b: 2.0 },
            TRow { k: 3, a: 5, b: 4.0 },
        ]
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = [V::I(1), V::D(2.5)];
        let b = [V::I(2), V::D(0.0)];
        assert_eq!(Digest::of([&a[..], &b[..]]), Digest::of([&b[..], &a[..]]));
        assert_ne!(Digest::of([&a[..]]), Digest::of([&b[..]]));
        assert_ne!(Digest::of([&a[..]]), Digest::of([&a[..], &a[..]]));
        assert_eq!(Digest::of([&[V::D(-0.0)][..]]), Digest::of([&[V::D(0.0)][..]]));
        assert_ne!(Digest::of([&[V::I(1)][..]]), Digest::of([&[V::D(1.0)][..]]));
    }

    #[test]
    fn olap_shapes_on_hand_checked_rows() {
        // a < 6 and k >= 1 keeps rows k=1 and k=3.
        let want =
            Digest::of([&[V::I(1), V::I(2), V::D(2.0)][..], &[V::I(3), V::I(6), V::D(8.0)][..]]);
        assert_eq!(scan_filter_project(&t(), 6, 1), want);
        // No group has more than ten rows.
        assert_eq!(topk_group(&t(), 0).rows, 0);
        let many: Vec<TRow> = (0..40).map(|i| TRow { k: i, a: i % 3, b: 0.25 }).collect();
        // Groups 0,1,2 have 14,13,13 rows; the tie keeps ascending `a`.
        let top = topk_group(&many, 0);
        assert_eq!(
            top,
            Digest::of([
                &[V::I(0), V::I(14), V::D(3.5)][..],
                &[V::I(1), V::I(13), V::D(3.25)][..],
                &[V::I(2), V::I(13), V::D(3.25)][..],
            ])
        );
        let dim: BTreeMap<i64, i64> = [(0, 7), (1, 7), (2, 8)].into();
        // k=3 has no dim row; a < 9 drops k=2.
        assert_eq!(join_group(&t(), &dim, 9, 0), Digest::of([&[V::I(7), V::I(2), V::D(1.5)][..]]));
    }

    #[test]
    fn view_shapes_on_hand_checked_rows() {
        let orders = [
            Order { oid: 1, cust: 10, amt: 2.0 },
            Order { oid: 2, cust: 10, amt: 5.0 },
            Order { oid: 3, cust: 11, amt: 1.0 },
        ];
        assert_eq!(
            spend(&orders),
            Digest::of([&[V::I(10), V::I(2), V::D(7.0)][..], &[V::I(11), V::I(1), V::D(1.0)][..]])
        );
        let region: BTreeMap<i64, i64> = [(10, 0), (11, 0)].into();
        assert_eq!(
            region_spend(&orders, &region),
            Digest::of([&[V::I(0), V::I(3), V::D(8.0), V::D(5.0)][..]])
        );
        assert_eq!(big(&orders, 1.5).rows, 2);
        assert_eq!(degrees(&[(1, 2), (1, 3), (4, 1)]), [(1, 2), (4, 1)].into());
        // 0 manages 1 and 2, 2 manages 3; 9 is outside the tree.
        let org = [(1, 0), (2, 0), (3, 2), (8, 9)];
        assert_eq!(reports(&org, &[0]).rows, 4);
        assert_eq!(reports(&org, &[2]), Digest::of([&[V::I(2)][..], &[V::I(3)][..]]));
    }

    #[test]
    fn graph_evaluators_on_a_small_graph() {
        // 0 → 1 → 2 → 0 (a cycle), 2 → 3, 4 isolated.
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 3)];
        let mut adj = vec![Vec::new(); 5];
        for (s, t) in edges {
            adj[s as usize].push(t);
        }
        assert_eq!(reachable(&adj, 0).rows, 4);
        assert_eq!(reachable(&adj, 3).rows, 0);
        assert_eq!(
            shortest_paths(&edges, 5, 1),
            Digest::of([
                &[V::I(0), V::D(2.0)][..],
                &[V::I(1), V::D(0.0)][..],
                &[V::I(2), V::D(1.0)][..],
                &[V::I(3), V::D(2.0)][..],
            ])
        );
        let pr = pagerank(&adj, 1e-12);
        // Isolated vertex keeps the base rank; vertex 3 receives half of
        // vertex 2's rank; the fixpoint equations hold.
        assert!((pr[4] - 0.15).abs() < 1e-9);
        assert!((pr[3] - (0.15 + 0.85 * pr[2] / 2.0)).abs() < 1e-9);
        assert!((pr[1] - (0.15 + 0.85 * pr[0])).abs() < 1e-9);
    }
}
