//! Data generators for the paper's micro-benchmarks.
//!
//! §6.2: "two equally-sized tables, each with two 4-byte columns: a key and
//! a payload … Both tables have exactly the same keys" — [`gen_key_fk_table`].
//!
//! Figure 5 additionally requires that "all produced partitions have exactly
//! the same size" under radix partitioning — [`gen_balanced_partition_keys`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::column::Column;
use crate::table::{Batch, DataType, Schema, Table};

/// A shuffled permutation of `0..n` as `i32` keys.
pub fn gen_unique_keys(n: usize, seed: u64) -> Vec<i32> {
    let mut keys: Vec<i32> = (0..n as i32).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(seed));
    keys
}

/// `n` uniform values in `[0, max)`.
pub fn gen_uniform_i32(n: usize, max: i32, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..max)).collect()
}

/// `n` Zipf-distributed values over `[0, universe)` with exponent `theta`.
///
/// Uses the classic CDF-inversion approximation; `theta = 0` degenerates to
/// uniform. Used to exercise the co-processing join's skew guard (the paper
/// assumes "no single key for which the corresponding tuples do not fit in
/// GPU memory", §5).
pub fn gen_zipf_i32(n: usize, universe: usize, theta: f64, seed: u64) -> Vec<i32> {
    assert!(universe > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    if theta <= 0.0 {
        return (0..n).map(|_| rng.gen_range(0..universe as i32)).collect();
    }
    // Precompute the harmonic normaliser.
    let zeta: f64 = (1..=universe).map(|k| 1.0 / (k as f64).powf(theta)).sum();
    // Inverse-CDF sampling over a precomputed cumulative table (universe is
    // modest in tests; for large universes use the bisection on the fly).
    let mut cdf = Vec::with_capacity(universe);
    let mut acc = 0.0;
    for k in 1..=universe {
        acc += 1.0 / (k as f64).powf(theta) / zeta;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c < u) as i32
        })
        .collect()
}

/// Keys for `n` tuples such that radix partitioning on the low
/// `fanout_bits` bits yields *exactly equal* partition sizes
/// (requires `fanout_bits` to divide `n` evenly).
pub fn gen_balanced_partition_keys(n: usize, fanout_bits: u32, seed: u64) -> Vec<i32> {
    let fanout = 1usize << fanout_bits;
    assert!(
        n.is_multiple_of(fanout),
        "{n} tuples do not split evenly into {fanout} partitions"
    );
    let per = n / fanout;
    let mut keys: Vec<i32> = (0..n)
        .map(|i| {
            let p = i % fanout; // low bits = partition id
            let hi = i / fanout;
            ((hi << fanout_bits) | p) as i32
        })
        .collect();
    debug_assert!(per > 0);
    keys.shuffle(&mut StdRng::seed_from_u64(seed));
    keys
}

/// The paper's §6.2 microbenchmark inputs: two tables of `rows` tuples with
/// identical (unique, shuffled) key sets and 4-byte payloads, so the join
/// output has exactly `rows` tuples.
pub fn gen_key_fk_table(keys: usize, rows: usize, seed: u64) -> Table {
    assert!(rows >= keys && rows.is_multiple_of(keys), "rows must be a multiple of keys");
    let mut k = Vec::with_capacity(rows);
    for rep in 0..rows / keys {
        k.extend(gen_unique_keys(keys, seed.wrapping_add(rep as u64)));
    }
    let payload: Vec<i32> = (0..rows as i32).collect();
    let schema = Schema::new([("k", DataType::I32), ("v", DataType::I32)]);
    Table::new(
        format!("t{seed}"),
        schema,
        Batch::new(vec![Column::from_i32(k), Column::from_i32(payload)]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn unique_keys_are_a_permutation() {
        let keys = gen_unique_keys(1000, 7);
        let set: HashSet<i32> = keys.iter().copied().collect();
        assert_eq!(set.len(), 1000);
        assert_eq!(*keys.iter().min().unwrap(), 0);
        assert_eq!(*keys.iter().max().unwrap(), 999);
        // Deterministic under the same seed, different under another.
        assert_eq!(keys, gen_unique_keys(1000, 7));
        assert_ne!(keys, gen_unique_keys(1000, 8));
    }

    #[test]
    fn balanced_keys_balance_partitions() {
        let bits = 4;
        let n = 1 << 12;
        let keys = gen_balanced_partition_keys(n, bits, 3);
        let mut counts = vec![0usize; 1 << bits];
        for k in &keys {
            counts[(*k as usize) & ((1 << bits) - 1)] += 1;
        }
        assert!(counts.iter().all(|&c| c == n >> bits), "{counts:?}");
        // Keys are unique (it is still a valid join key set).
        let set: HashSet<i32> = keys.iter().copied().collect();
        assert_eq!(set.len(), n);
    }

    #[test]
    fn zipf_skews_towards_small_values() {
        let v = gen_zipf_i32(20_000, 1000, 1.0, 9);
        let head = v.iter().filter(|&&x| x < 10).count();
        let tail = v.iter().filter(|&&x| x >= 990).count();
        assert!(head > tail * 5, "no skew: head={head} tail={tail}");
    }

    #[test]
    fn zipf_theta_zero_is_uniform_range() {
        let v = gen_zipf_i32(1000, 50, 0.0, 9);
        assert!(v.iter().all(|&x| (0..50).contains(&x)));
    }

    #[test]
    fn uniform_stays_in_range() {
        let v = gen_uniform_i32(1000, 10, 1);
        assert!(v.iter().all(|&x| (0..10).contains(&x)));
    }
}
