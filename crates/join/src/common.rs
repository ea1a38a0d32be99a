//! Shared join types, hashing, and the naive reference implementation.

use hape_sim::SimTime;

/// Fibonacci (multiplicative) hash of a 32-bit key into `bits` bits.
#[inline]
pub fn hash32(key: i32, bits: u32) -> u32 {
    debug_assert!(bits > 0 && bits <= 32);
    (key as u32).wrapping_mul(2654435769) >> (32 - bits)
}

/// `key` with its low `shift` bits dropped, as a key: what a join whose
/// radix starts at `shift` hashes and compares, because lower radix passes
/// have already grouped its keys by those bits.
#[inline]
pub(crate) fn shifted(key: i32, shift: u32) -> i32 {
    (key as u32 >> shift) as i32
}

/// One join input: keys plus per-tuple values.
///
/// `vals` carry either the 4-byte payloads of the paper's microbenchmark
/// (aggregate mode) or original row indices (when the engine materialises
/// matches).
#[derive(Debug, Clone, Copy)]
pub struct JoinInput<'a> {
    /// Join keys.
    pub keys: &'a [i32],
    /// Per-tuple values (payload or row index).
    pub vals: &'a [u32],
}

impl<'a> JoinInput<'a> {
    /// Construct, checking lengths agree.
    pub fn new(keys: &'a [i32], vals: &'a [u32]) -> Self {
        assert_eq!(keys.len(), vals.len(), "keys/vals length mismatch");
        JoinInput { keys, vals }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Payload bytes (4-byte key + 4-byte value per tuple).
    pub fn bytes(&self) -> u64 {
        (self.len() * 8) as u64
    }
}

/// What the join should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Only the aggregate statistics (the paper's microbenchmark: an
    /// equi-join "followed by a sum/count aggregation over each payload").
    AggregateOnly,
    /// Materialised `(r_val, s_val)` match pairs (engine joins).
    MatchIndices,
}

/// Aggregate join statistics (always produced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Number of matching tuple pairs.
    pub matches: u64,
    /// Sum over the build side's values of all matches.
    pub sum_r_vals: i64,
    /// Sum over the probe side's values of all matches.
    pub sum_s_vals: i64,
}

impl JoinStats {
    /// Fold a single match.
    #[inline]
    pub fn record(&mut self, r_val: u32, s_val: u32) {
        self.matches += 1;
        self.sum_r_vals += r_val as i64;
        self.sum_s_vals += s_val as i64;
    }

    /// Merge partial statistics.
    pub fn merge(&mut self, o: &JoinStats) {
        self.matches += o.matches;
        self.sum_r_vals += o.sum_r_vals;
        self.sum_s_vals += o.sum_s_vals;
    }
}

/// The result of running a join algorithm.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Aggregate statistics.
    pub stats: JoinStats,
    /// Match pairs `(r_vals, s_vals)` when requested.
    pub pairs: Option<(Vec<u32>, Vec<u32>)>,
    /// Simulated execution time.
    pub time: SimTime,
}

impl JoinOutcome {
    /// Sort the materialised pairs (by r then s value) for comparisons.
    pub fn sorted_pairs(&self) -> Option<Vec<(u32, u32)>> {
        self.pairs.as_ref().map(|(r, s)| {
            let mut v: Vec<(u32, u32)> = r.iter().copied().zip(s.iter().copied()).collect();
            v.sort_unstable();
            v
        })
    }
}

/// Naive reference join (hash map based) for correctness checks.
pub fn reference_join(r: JoinInput<'_>, s: JoinInput<'_>) -> JoinOutcome {
    use std::collections::HashMap;
    let mut table: HashMap<i32, Vec<u32>> = HashMap::with_capacity(r.len());
    for (&k, &v) in r.keys.iter().zip(r.vals) {
        table.entry(k).or_default().push(v);
    }
    let mut stats = JoinStats::default();
    let mut pairs = (Vec::new(), Vec::new());
    for (&k, &sv) in s.keys.iter().zip(s.vals) {
        if let Some(rvs) = table.get(&k) {
            for &rv in rvs {
                stats.record(rv, sv);
                pairs.0.push(rv);
                pairs.1.push(sv);
            }
        }
    }
    JoinOutcome { stats, pairs: Some(pairs), time: SimTime::ZERO }
}

/// A chained hash table over `i32` keys (bucket heads + next pointers),
/// the physical layout all the hash joins share.
#[derive(Debug)]
pub struct ChainedTable {
    /// Bucket heads (`u32::MAX` = empty).
    pub heads: Vec<u32>,
    /// Next pointers per entry (`u32::MAX` = end).
    pub next: Vec<u32>,
    /// log2 of bucket count.
    pub bits: u32,
}

/// Sentinel for empty slots.
pub const NIL: u32 = u32::MAX;

impl ChainedTable {
    /// Build over `keys`, with roughly 1 bucket per key (next power of two).
    pub fn build(keys: &[i32]) -> Self {
        let bits = (keys.len().max(2)).next_power_of_two().trailing_zeros();
        Self::build_with_bits(keys, bits)
    }

    /// Build with an explicit bucket count of `2^bits`.
    pub fn build_with_bits(keys: &[i32], bits: u32) -> Self {
        let mut heads = vec![NIL; 1usize << bits];
        let mut next = vec![NIL; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            let b = hash32(k, bits) as usize;
            next[i] = heads[b];
            heads[b] = i as u32;
        }
        ChainedTable { heads, next, bits }
    }

    /// Rebuild over `keys` as [`ChainedTable::build`] does over the keys
    /// `shift`ed right ([`shifted`]), in this table's buffers.
    pub(crate) fn rebuild(&mut self, keys: &[i32], shift: u32) {
        let bits = (keys.len().max(2)).next_power_of_two().trailing_zeros();
        let (heads, next) = (&mut self.heads, &mut self.next);
        heads.clear();
        heads.resize(1usize << bits, NIL);
        next.clear();
        next.resize(keys.len(), NIL);
        for (i, &k) in keys.iter().enumerate() {
            let b = hash32(shifted(k, shift), bits) as usize;
            next[i] = heads[b];
            heads[b] = i as u32;
        }
        self.bits = bits;
    }

    /// Bytes this table occupies (what the probe's working set is).
    pub fn bytes(&self) -> u64 {
        ((self.heads.len() + self.next.len()) * 4) as u64
    }

    /// Probe one key, invoking `on_match(entry_index)` per hit; returns the
    /// number of chain entries traversed (for measured-cost charging).
    #[inline]
    pub fn probe(&self, keys: &[i32], key: i32, mut on_match: impl FnMut(u32)) -> u32 {
        let mut steps = 0;
        let mut e = self.heads[hash32(key, self.bits) as usize];
        while e != NIL {
            steps += 1;
            if keys[e as usize] == key {
                on_match(e);
            }
            e = self.next[e as usize];
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for k in [-5i32, 0, 1, 42, i32::MAX, i32::MIN] {
            let h = hash32(k, 8);
            assert!(h < 256);
            assert_eq!(h, hash32(k, 8));
        }
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        let mut counts = vec![0usize; 16];
        for k in 0..16_000 {
            counts[hash32(k, 4) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max < min * 2, "poor spread: {counts:?}");
    }

    #[test]
    fn reference_join_finds_all_matches() {
        let r = JoinInput::new(&[1, 2, 3, 2], &[10, 20, 30, 21]);
        let s = JoinInput::new(&[2, 4, 1], &[100, 400, 101]);
        let out = reference_join(r, s);
        // key 2 matches twice (two r tuples), key 1 once.
        assert_eq!(out.stats.matches, 3);
        let mut pairs = out.sorted_pairs().unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(10, 101), (20, 100), (21, 100)]);
    }

    #[test]
    fn chained_table_probes_correctly() {
        let keys = vec![5, 9, 5, 13];
        let t = ChainedTable::build(&keys);
        let mut hits = Vec::new();
        let steps = t.probe(&keys, 5, |e| hits.push(e));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2]);
        assert!(steps >= 2);
        let mut none = Vec::new();
        t.probe(&keys, 42, |e| none.push(e));
        assert!(none.is_empty());
    }

    #[test]
    fn chained_table_bytes() {
        let keys: Vec<i32> = (0..100).collect();
        let t = ChainedTable::build(&keys);
        assert_eq!(t.bytes(), ((128 + 100) * 4) as u64);
    }

    #[test]
    fn join_stats_merge() {
        let mut a = JoinStats::default();
        a.record(1, 2);
        let mut b = JoinStats::default();
        b.record(3, 4);
        a.merge(&b);
        assert_eq!(a.matches, 2);
        assert_eq!(a.sum_r_vals, 4);
        assert_eq!(a.sum_s_vals, 6);
    }
}
