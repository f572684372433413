//! A small deterministic hasher for keyed engine state.
//!
//! The standard library's default `HashMap` hasher (SipHash with a random
//! per-process key) is a poor fit for the engine's hot paths: it is slow on
//! the short `Value`/`Tuple` keys that dominate join and group-by state,
//! and its randomization makes iteration order differ between runs, which
//! breaks bit-for-bit reproducibility of anything that observes map order.
//!
//! [`FxHasher`] is an in-tree reimplementation of the FxHash function used
//! by rustc (a multiply-xor-rotate over 8-byte words). It is:
//!
//! * **fast** — a handful of ALU ops per word, no key setup;
//! * **deterministic** — no per-process seed, so the same inputs produce
//!   the same table layout (and therefore the same iteration order) on
//!   every run;
//! * **not DoS-resistant** — it must only key state derived from data the
//!   engine already holds, never attacker-controlled protocol input.
//!
//! Deterministic iteration order is *arbitrary* order: callers whose
//! output is observable (view contents, delta reports) must still sort at
//! the emission boundary, which is exactly what `rex-views` does.

use crate::tuple::Tuple;
use crate::value::Value;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

/// The multiplier from FxHash (the golden-ratio constant for 64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash streaming hasher: `hash = (hash rol 5 ^ word) * SEED` per
/// 8-byte word.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Length tag so "ab" and "ab\0" don't collide trivially.
            buf[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Zero-sized `BuildHasher` producing [`FxHasher`]s — the per-map state
/// `HashMap` needs, with no per-process randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed by [`FxHasher`]. Construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by [`FxHasher`]. Construct with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// [`FxHasher`] hash of a sequence of values, by reference. This is the
/// *one* key-hash function shared by owned keys (`&Vec<Value>`) and
/// borrowed keys (`Tuple` column refs via
/// [`Tuple::hash_key`](crate::tuple::Tuple::hash_key)) so the two probe
/// the same buckets.
pub fn hash_values<'a, I: IntoIterator<Item = &'a Value>>(vals: I) -> u64 {
    let mut h = FxHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// Sparse-slot states of [`KeyedTable`]'s open-addressing probe array.
const EMPTY: u32 = u32::MAX;
const TOMB: u32 = u32::MAX - 1;

/// An open-addressing hash table from `Vec<Value>` keys to `V`, built for
/// the engine's per-row hot paths: lookups *borrow* their key from a
/// [`Tuple`]'s key columns (hash via [`Tuple::hash_key`], equality via
/// [`Tuple::key_eq`]), so probing allocates nothing; an owned key is
/// materialized only when a probe misses and inserts
/// ([`probe_or_insert_with`](KeyedTable::probe_or_insert_with)).
///
/// Layout: dense `entries` in insertion order (perturbed by removals via
/// `swap_remove`) plus a sparse power-of-two probe array of entry indices
/// with tombstoned deletion. Like the rest of [`hash`](crate::hash) the
/// table is deterministic — same inputs, same layout, same iteration
/// order — and **not** DoS-resistant.
#[derive(Debug, Clone)]
pub struct KeyedTable<V> {
    /// Probe array: `EMPTY`, `TOMB`, or an index into `entries`.
    slots: Vec<u32>,
    /// `(key hash, owned key, value)`, dense.
    entries: Vec<(u64, Vec<Value>, V)>,
    /// Live tombstones in `slots` (counted against the load factor).
    tombs: usize,
    /// Probe-path walks started (one per lookup/insert/removal).
    /// `Cell` because read paths take `&self`; two register increments per
    /// probe, cheap enough to keep always-on.
    probes: Cell<u64>,
    /// Extra probe steps beyond the first slot — the clustering signal.
    collisions: Cell<u64>,
}

impl<V> Default for KeyedTable<V> {
    fn default() -> Self {
        KeyedTable::new()
    }
}

/// Where a key lives — or would live — in the probe array.
enum Slot {
    /// Occupied by the probed key.
    Found(usize),
    /// First reusable slot (tombstone or empty) on the key's probe path.
    Free(usize),
}

/// Fold a hash into a probe-array start index. FxHash finishes with a
/// multiply, so its *high* bits carry the avalanche while its low bits can
/// collapse for structured keys (e.g. the f64 bit patterns `Value::Int`
/// hashes as, whose mantissa low bits are all zero). XOR-folding the high
/// half down before masking keeps linear probing from clustering — the
/// same reason hashbrown indexes by the top bits.
#[inline]
fn fold(hash: u64, mask: usize) -> usize {
    ((hash >> 32) ^ hash) as usize & mask
}

impl<V> KeyedTable<V> {
    /// An empty table (no allocation until the first insert).
    pub fn new() -> KeyedTable<V> {
        KeyedTable {
            slots: Vec::new(),
            entries: Vec::new(),
            tombs: 0,
            probes: Cell::new(0),
            collisions: Cell::new(0),
        }
    }

    /// Lifetime probe statistics: `(probes, collisions)`. A probe is one
    /// key lookup; a collision is one extra slot visited beyond the key's
    /// home slot. Telemetry harvests these once per query via
    /// [`Operator::stats_detail`](crate::operators::Operator::stats_detail).
    pub fn probe_stats(&self) -> (u64, u64) {
        (self.probes.get(), self.collisions.get())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove every entry, keeping capacity.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = EMPTY);
        self.entries.clear();
        self.tombs = 0;
    }

    /// Walk the probe path of `hash`, comparing candidate keys with `eq`.
    /// The table always keeps at least one `EMPTY` slot, so the walk
    /// terminates.
    fn locate(&self, hash: u64, mut eq: impl FnMut(&[Value]) -> bool) -> Slot {
        debug_assert!(!self.slots.is_empty());
        self.probes.set(self.probes.get() + 1);
        let mask = self.slots.len() - 1;
        let mut i = fold(hash, mask);
        let mut free = None;
        loop {
            match self.slots[i] {
                EMPTY => return Slot::Free(free.unwrap_or(i)),
                TOMB => {
                    if free.is_none() {
                        free = Some(i);
                    }
                }
                idx => {
                    let (h, key, _) = &self.entries[idx as usize];
                    if *h == hash && eq(key) {
                        return Slot::Found(i);
                    }
                }
            }
            self.collisions.set(self.collisions.get() + 1);
            i = (i + 1) & mask;
        }
    }

    fn found(&self, hash: u64, eq: impl FnMut(&[Value]) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        match self.locate(hash, eq) {
            Slot::Found(slot) => Some(self.slots[slot] as usize),
            Slot::Free(_) => None,
        }
    }

    /// Grow/rebuild the probe array so the live load stays at or below
    /// 1/2 and live keys plus tombstones at or below 7/8. Linear probing's
    /// collisions climb steeply past half load: 100 sequential Int keys in
    /// 128 slots (a 7/8 bound) cost 1.41 extra slots per probe, in 256
    /// slots 0.40. The slots are 4-byte indices, so the headroom is cheap.
    /// Tombstones keep their own, looser bound: a rebuild sized for the
    /// live keys leaves at least 3/8 of the slots for them, so a table
    /// that deletes and inserts at steady size rebuilds once per ~3/8·cap
    /// removals, not on every upsert.
    fn reserve_one(&mut self) {
        let live = self.entries.len() + 1;
        if live * 2 <= self.slots.len() && (live + self.tombs) * 8 <= self.slots.len() * 7 {
            return;
        }
        let cap = ((self.entries.len() + 1) * 2).next_power_of_two().max(8);
        self.slots = vec![EMPTY; cap];
        self.tombs = 0;
        let mask = cap - 1;
        for (idx, (h, _, _)) in self.entries.iter().enumerate() {
            let mut i = fold(*h, mask);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
        }
    }

    /// Hint the CPU to pull the probe-array cache line for `hash` — the
    /// first line a [`probe_hashed`](KeyedTable::probe_hashed) for the
    /// same hash will touch. Batch probes that have hashed all their keys
    /// up front issue this a few keys ahead of the probe cursor, so the
    /// (random-access) slot reads overlap the (sequential) key walk
    /// instead of serializing on cache misses. A pure hint: no-op on an
    /// empty table and on architectures without a prefetch intrinsic.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        if self.slots.is_empty() {
            return;
        }
        let i = fold(hash, self.slots.len() - 1);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `i` is masked into bounds; _mm_prefetch has no
        // side effects beyond the cache hint and accepts any address.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.slots.as_ptr().add(i).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }

    /// Borrowed-key lookup: the value stored under `t`'s key columns.
    pub fn probe(&self, t: &Tuple, cols: &[usize]) -> Option<&V> {
        self.probe_hashed(t.hash_key(cols), t, cols)
    }

    /// [`probe`](KeyedTable::probe) with the key hash already computed —
    /// callers probing several tables with the same key (a join's two
    /// sides) hash once and reuse it.
    pub fn probe_hashed(&self, hash: u64, t: &Tuple, cols: &[usize]) -> Option<&V> {
        self.probe_by(hash, |k| t.key_eq(cols, k))
    }

    /// Lookup by a key held anywhere — a tuple's columns, a column
    /// batch's row: `hash` is the key's [`hash_values`] hash and `eq`
    /// compares it with a stored key.
    pub(crate) fn probe_by(&self, hash: u64, eq: impl FnMut(&[Value]) -> bool) -> Option<&V> {
        self.found(hash, eq).map(|i| &self.entries[i].2)
    }

    /// Borrowed-key mutable lookup.
    pub fn probe_mut(&mut self, t: &Tuple, cols: &[usize]) -> Option<&mut V> {
        self.probe_mut_hashed(t.hash_key(cols), t, cols)
    }

    /// [`probe_mut`](KeyedTable::probe_mut) with the key hash already
    /// computed.
    pub fn probe_mut_hashed(&mut self, hash: u64, t: &Tuple, cols: &[usize]) -> Option<&mut V> {
        self.found(hash, |k| t.key_eq(cols, k)).map(|i| &mut self.entries[i].2)
    }

    /// Borrowed-key upsert: the value under `t`'s key columns, inserting
    /// `init()` first when absent. The owned key is materialized (one
    /// `Vec<Value>` allocation) only on that first insert.
    pub fn probe_or_insert_with(
        &mut self,
        t: &Tuple,
        cols: &[usize],
        init: impl FnOnce() -> V,
    ) -> &mut V {
        self.probe_or_insert_hashed(t.hash_key(cols), t, cols, init)
    }

    /// [`probe_or_insert_with`](KeyedTable::probe_or_insert_with) with
    /// the key hash already computed.
    pub fn probe_or_insert_hashed(
        &mut self,
        hash: u64,
        t: &Tuple,
        cols: &[usize],
        init: impl FnOnce() -> V,
    ) -> &mut V {
        self.probe_or_insert_by(hash, |k| t.key_eq(cols, k), || t.key(cols), init)
    }

    /// Upsert by a key held anywhere (see [`probe_by`](KeyedTable::probe_by)):
    /// one probe, and `key` materializes the owned key only on insert.
    pub(crate) fn probe_or_insert_by(
        &mut self,
        hash: u64,
        eq: impl FnMut(&[Value]) -> bool,
        key: impl FnOnce() -> Vec<Value>,
        init: impl FnOnce() -> V,
    ) -> &mut V {
        self.reserve_one();
        match self.locate(hash, eq) {
            Slot::Found(slot) => {
                let idx = self.slots[slot] as usize;
                &mut self.entries[idx].2
            }
            Slot::Free(slot) => {
                if self.slots[slot] == TOMB {
                    self.tombs -= 1;
                }
                self.slots[slot] = self.entries.len() as u32;
                self.entries.push((hash, key(), init()));
                &mut self.entries.last_mut().expect("just pushed").2
            }
        }
    }

    /// Borrowed-key removal: drop and return the value under `t`'s key
    /// columns.
    pub fn remove_probe(&mut self, t: &Tuple, cols: &[usize]) -> Option<V> {
        self.remove_probe_hashed(t.hash_key(cols), t, cols)
    }

    /// [`remove_probe`](KeyedTable::remove_probe) with the key hash
    /// already computed.
    pub fn remove_probe_hashed(&mut self, hash: u64, t: &Tuple, cols: &[usize]) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        match self.locate(hash, |k| t.key_eq(cols, k)) {
            Slot::Found(slot) => Some(self.remove_slot(slot)),
            Slot::Free(_) => None,
        }
    }

    /// Owned-key lookup.
    pub fn get(&self, key: &[Value]) -> Option<&V> {
        self.found(hash_values(key), |k| k == key).map(|i| &self.entries[i].2)
    }

    /// Owned-key mutable lookup.
    pub fn get_mut(&mut self, key: &[Value]) -> Option<&mut V> {
        self.found(hash_values(key), |k| k == key).map(|i| &mut self.entries[i].2)
    }

    /// Owned-key insert; returns the previous value when the key existed.
    pub fn insert(&mut self, key: Vec<Value>, value: V) -> Option<V> {
        let hash = hash_values(&key);
        self.reserve_one();
        match self.locate(hash, |k| k == key.as_slice()) {
            Slot::Found(slot) => {
                let idx = self.slots[slot] as usize;
                Some(std::mem::replace(&mut self.entries[idx].2, value))
            }
            Slot::Free(slot) => {
                if self.slots[slot] == TOMB {
                    self.tombs -= 1;
                }
                self.slots[slot] = self.entries.len() as u32;
                self.entries.push((hash, key, value));
                None
            }
        }
    }

    /// Owned-key removal.
    pub fn remove(&mut self, key: &[Value]) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        match self.locate(hash_values(key), |k| k == key) {
            Slot::Found(slot) => Some(self.remove_slot(slot)),
            Slot::Free(_) => None,
        }
    }

    /// Remove the entry an occupied slot points at, tombstoning the slot
    /// and re-pointing whichever slot referenced the entry that
    /// `swap_remove` moved into the hole.
    fn remove_slot(&mut self, slot: usize) -> V {
        let idx = self.slots[slot] as usize;
        self.slots[slot] = TOMB;
        self.tombs += 1;
        let (_, _, value) = self.entries.swap_remove(idx);
        if idx < self.entries.len() {
            let moved_old = self.entries.len() as u32;
            let mask = self.slots.len() - 1;
            let mut i = fold(self.entries[idx].0, mask);
            while self.slots[i] != moved_old {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
        }
        value
    }

    /// Iterate `(key, value)` in deterministic (insertion-modulo-removal)
    /// order. Arbitrary order: sort at emission boundaries.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &V)> {
        self.entries.iter().map(|(_, k, v)| (k.as_slice(), v))
    }

    /// Iterate values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, _, v)| v)
    }

    /// Iterate values mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, _, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let a = hash_of(b"orderkey=42");
        let b = hash_of(b"orderkey=42");
        assert_eq!(a, b);
        assert_ne!(a, hash_of(b"orderkey=43"));
    }

    #[test]
    fn short_tails_with_shared_prefix_differ() {
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn tuple_keys_work_in_fx_maps() {
        let mut m: FxHashMap<crate::tuple::Tuple, i64> = FxHashMap::default();
        m.insert(tuple![1i64, "a"], 2);
        m.insert(tuple![2i64, "b"], 3);
        assert_eq!(m.get(&tuple![1i64, "a"]), Some(&2));
        let mut s: FxHashSet<Vec<crate::value::Value>> = FxHashSet::default();
        s.insert(tuple![7i64].key(&[0]));
        assert!(s.contains(&tuple![7i64].key(&[0])));
    }

    #[test]
    fn borrowed_and_owned_key_hashes_agree() {
        let t = tuple![7i64, "k", 3.5f64];
        for cols in [vec![0usize], vec![1, 2], vec![2, 0, 1], vec![]] {
            assert_eq!(t.hash_key(&cols), hash_values(&t.key(&cols)), "{cols:?}");
            assert!(t.key_eq(&cols, &t.key(&cols)));
        }
        assert!(!tuple![1i64, 2i64].key_eq(&[0], &tuple![2i64].key(&[0])));
    }

    #[test]
    fn keyed_table_probes_without_owned_keys() {
        let mut kt: KeyedTable<i64> = KeyedTable::new();
        let t = tuple![1i64, "x", 9i64];
        assert!(kt.probe(&t, &[0, 1]).is_none());
        *kt.probe_or_insert_with(&t, &[0, 1], || 0) += 5;
        *kt.probe_or_insert_with(&t, &[0, 1], || 0) += 2;
        assert_eq!(kt.probe(&t, &[0, 1]), Some(&7));
        // The same key spelled as an owned Vec<Value> finds the entry.
        assert_eq!(kt.get(&t.key(&[0, 1])), Some(&7));
        // Int/Double cross-type keys probe the same bucket.
        let dbl = tuple![1.0f64, "x"];
        assert_eq!(kt.probe(&dbl, &[0, 1]), Some(&7));
        assert_eq!(kt.len(), 1);
    }

    #[test]
    fn keyed_table_matches_hashmap_under_random_ops() {
        use crate::value::Value;
        // SplitMix64 so the sweep is reproducible without rex-data.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut kt: KeyedTable<u64> = KeyedTable::new();
        let mut oracle: std::collections::HashMap<Vec<Value>, u64> =
            std::collections::HashMap::new();
        for op in 0..4000u64 {
            let r = next();
            let t = tuple![(r % 37) as i64, ((r >> 8) % 11) as i64];
            let cols = [0usize, 1];
            match r % 4 {
                0 | 1 => {
                    *kt.probe_or_insert_with(&t, &cols, || 0) += op;
                    *oracle.entry(t.key(&cols)).or_insert(0) += op;
                }
                2 => {
                    assert_eq!(kt.remove_probe(&t, &cols), oracle.remove(&t.key(&cols)), "op {op}");
                }
                _ => {
                    assert_eq!(kt.probe(&t, &cols), oracle.get(&t.key(&cols)), "op {op}");
                }
            }
            assert_eq!(kt.len(), oracle.len(), "op {op}");
        }
        let mut from_kt: Vec<(Vec<Value>, u64)> =
            kt.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
        let mut from_oracle: Vec<(Vec<Value>, u64)> = oracle.into_iter().collect();
        from_kt.sort();
        from_oracle.sort();
        assert_eq!(from_kt, from_oracle);
    }

    #[test]
    fn keyed_table_owned_api_and_clear() {
        let mut kt: KeyedTable<&str> = KeyedTable::new();
        assert_eq!(kt.insert(vec![crate::value::Value::Int(1)], "a"), None);
        assert_eq!(kt.insert(vec![crate::value::Value::Int(1)], "b"), Some("a"));
        *kt.get_mut(&[crate::value::Value::Int(1)]).unwrap() = "c";
        assert_eq!(kt.remove(&[crate::value::Value::Int(1)]), Some("c"));
        assert_eq!(kt.remove(&[crate::value::Value::Int(1)]), None);
        kt.insert(vec![crate::value::Value::Int(2)], "d");
        assert_eq!(kt.values().count(), 1);
        kt.clear();
        assert!(kt.is_empty());
        assert!(kt.get(&[crate::value::Value::Int(2)]).is_none());
    }

    #[test]
    fn probe_stats_count_lookups() {
        let mut kt: KeyedTable<i64> = KeyedTable::new();
        assert_eq!(kt.probe_stats(), (0, 0));
        for i in 0..100i64 {
            kt.insert(vec![crate::value::Value::Int(i)], i);
        }
        for i in 0..100i64 {
            assert!(kt.probe(&tuple![i], &[0]).is_some());
        }
        let (probes, _collisions) = kt.probe_stats();
        // At least one probe per insert and per lookup (rebuilds don't
        // walk `locate`, so the exact count is stable to reason about).
        assert!(probes >= 200, "probes={probes}");
    }

    #[test]
    fn sequential_int_keys_collide_at_most_half_a_slot_per_probe() {
        for n in [100i64, 20_000] {
            let mut kt: KeyedTable<i64> = KeyedTable::new();
            for round in 0..4 {
                for i in 0..n {
                    *kt.probe_or_insert_with(&tuple![i], &[0], || 0) += round;
                }
            }
            let (probes, collisions) = kt.probe_stats();
            assert_eq!(probes, 4 * n as u64);
            let per_probe = collisions as f64 / probes as f64;
            assert!(per_probe <= 0.5, "{n} keys: {per_probe:.3} collisions per probe");
        }
    }

    #[test]
    fn steady_size_deletes_and_inserts_rebuild_rarely() {
        // cap/2 - 1 live keys fill a rebuilt array to its live bound, so
        // any tombstone headroom must come from the separate 7/8 bound.
        for k in [4u32, 8, 12] {
            let cap = 1usize << k;
            let live = (cap / 2 - 1) as i64;
            let mut kt: KeyedTable<i64> = KeyedTable::new();
            for i in 0..live {
                kt.insert(vec![Value::Int(i)], i);
            }
            assert_eq!(kt.slots.len(), cap);
            let ops = 4 * cap as i64;
            let mut rebuilds = 0;
            for i in 0..ops {
                assert_eq!(kt.remove_probe(&tuple![i], &[0]), Some(i));
                let before = kt.slots.as_ptr();
                *kt.probe_or_insert_with(&tuple![live + i], &[0], || 0) += live + i;
                // A rebuild allocates the new array while the old one is
                // still alive, so the pointer always moves.
                rebuilds += usize::from(kt.slots.as_ptr() != before);
                assert_eq!(kt.len(), live as usize);
            }
            assert_eq!(kt.slots.len(), cap, "steady size must not grow the array");
            // One rebuild per cap/4 delete+insert pairs at most.
            assert!(rebuilds <= 16, "cap {cap}: {rebuilds} rebuilds in {ops} pairs");
        }
    }

    #[test]
    fn equal_int_and_double_values_share_a_bucket() {
        // Value's Hash promises Int(2) and Double(2.0) hash alike; an Fx
        // map must therefore find either spelling of the key.
        let mut m: FxHashMap<crate::value::Value, i64> = FxHashMap::default();
        m.insert(crate::value::Value::Int(2), 1);
        assert_eq!(m.get(&crate::value::Value::Double(2.0)), Some(&1));
    }
}
