//! Seeded input generation shared by the workloads: the generator, the
//! operation type, and the hash that pins an operation list.
//!
//! Operation `i` of lane `l` is a pure function of `(seed, l, i)`, so a
//! run replays the same prefix of the same stream on every commit however
//! many operations fit in its time window.

use crate::api::e2e::{Tuple, Value};

/// Seed of every workload's base tables and graph. The data a run starts
/// from is the same whatever `--seed` says, so that run-to-run spread
/// measures the system and not the luck of a dataset (a graph's PageRank
/// takes 41 to 44 strata depending on its seed); `--seed` draws every
/// literal, root and written row of the operation streams.
pub const DATA_SEED: u64 = 11;

/// SplitMix64: small, seedable, and owned by the benchmark so that inputs
/// cannot change with the repository.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for operation `index` of `lane`.
    pub fn stream(seed: u64, lane: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.0 = r.next_u64() ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// A multiple of 0.25 in `0..=max_quarters/4`: sums of these are exact
    /// in `f64`, so reference and engine totals compare with `==`.
    pub fn dyadic(&mut self, max_quarters: u64) -> f64 {
        self.below(max_quarters + 1) as f64 * 0.25
    }
}

/// One operation of a workload's stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// A read: `kind` indexes the workload's kind names, `args` are the
    /// literals drawn into `text` (what the reference evaluator needs).
    Query { kind: usize, text: String, args: [i64; 2] },
    /// A write: one `BATCH` of `rows` into `table`.
    Batch { kind: usize, table: &'static str, rows: Vec<Tuple> },
}

/// FNV-1a over a canonical rendering of the operations: equal exactly
/// when the lists are equal.
pub fn op_list_hash<'a>(ops: impl IntoIterator<Item = &'a Op>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in ops {
        match op {
            Op::Query { kind, text, .. } => {
                eat(&[b'Q', *kind as u8]);
                eat(text.as_bytes());
            }
            Op::Batch { kind, table, rows } => {
                eat(&[b'B', *kind as u8]);
                eat(table.as_bytes());
                for row in rows {
                    for v in row.values() {
                        match v {
                            Value::Int(i) => eat(&i.to_le_bytes()),
                            Value::Double(d) => eat(&d.to_bits().to_le_bytes()),
                            other => eat(format!("{other:?}").as_bytes()),
                        }
                    }
                    eat(b"\n");
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let draw = |seed, lane, i| Rng::stream(seed, lane, i).next_u64();
        assert_eq!(draw(11, 0, 5), draw(11, 0, 5));
        assert_ne!(draw(11, 0, 5), draw(12, 0, 5));
        assert_ne!(draw(11, 0, 5), draw(11, 1, 5));
        assert_ne!(draw(11, 0, 5), draw(11, 0, 6));
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let x = r.between(8, 12);
            assert!((8..=12).contains(&x));
            let d = r.dyadic(999);
            assert!((0.0..=249.75).contains(&d) && (d * 4.0).fract() == 0.0);
        }
    }
}
