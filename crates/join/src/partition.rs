//! Radix partitioning (the algorithmic skeleton shared by CPU and GPU).
//!
//! §4.1: "the skeleton of the algorithm remains the same for both CPUs and
//! GPUs" — partitioning moves tuples so that co-partitions become small
//! enough for a fast memory. What differs per device is the *fanout bound*
//! (TLB entries on CPUs, scratchpad staging capacity on GPUs) and therefore
//! the number of passes. This module is the skeleton: the device algorithms
//! charge their own pass costs.

use crate::common::JoinInput;

/// The result of radix-partitioning one input: tuples regrouped by the radix
/// of their key, plus the partition boundaries.
#[derive(Debug, Clone)]
pub struct RadixPartitions {
    /// Keys, grouped by partition.
    pub keys: Vec<i32>,
    /// Values, permuted identically.
    pub vals: Vec<u32>,
    /// Exclusive prefix offsets: partition `p` is `offsets[p]..offsets[p+1]`.
    pub offsets: Vec<usize>,
    /// Radix bits used in total.
    pub bits: u32,
}

impl RadixPartitions {
    /// Number of partitions.
    pub fn fanout(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(keys, vals)` slices of partition `p`.
    pub fn part(&self, p: usize) -> JoinInput<'_> {
        let (a, b) = (self.offsets[p], self.offsets[p + 1]);
        JoinInput::new(&self.keys[a..b], &self.vals[a..b])
    }

    /// Size in tuples of partition `p`.
    pub fn part_len(&self, p: usize) -> usize {
        self.offsets[p + 1] - self.offsets[p]
    }

    /// Largest partition size.
    pub fn max_part_len(&self) -> usize {
        (0..self.fanout()).map(|p| self.part_len(p)).max().unwrap_or(0)
    }
}

/// The partition id of `key` under `bits` radix bits starting at `shift`.
#[inline]
pub fn radix_of(key: i32, shift: u32, bits: u32) -> usize {
    ((key as u32 >> shift) & ((1u32 << bits) - 1)) as usize
}

/// One partitioning pass over `(keys, vals)` on bits `[shift, shift+bits)`.
///
/// Classic two-scan histogram + scatter. Returns data grouped by partition.
pub fn radix_partition_pass(
    keys: &[i32],
    vals: &[u32],
    shift: u32,
    bits: u32,
) -> RadixPartitions {
    assert_eq!(keys.len(), vals.len());
    let fanout = 1usize << bits;
    let mut hist = vec![0usize; fanout];
    for &k in keys {
        hist[radix_of(k, shift, bits)] += 1;
    }
    let mut offsets = Vec::with_capacity(fanout + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for h in &hist {
        acc += h;
        offsets.push(acc);
    }
    let mut cursor: Vec<usize> = offsets[..fanout].to_vec();
    let mut out_keys = vec![0i32; keys.len()];
    let mut out_vals = vec![0u32; vals.len()];
    for (&k, &v) in keys.iter().zip(vals) {
        let p = radix_of(k, shift, bits);
        let dst = cursor[p];
        out_keys[dst] = k;
        out_vals[dst] = v;
        cursor[p] += 1;
    }
    RadixPartitions { keys: out_keys, vals: out_vals, offsets, bits }
}

/// Multi-pass radix partitioning on bits `[0, total_bits)`, at most
/// `bits_per_pass` bits per pass (the device's fanout bound).
///
/// Pass `i` partitions on the *high* remaining bits first so that the final
/// layout is ordered by the full radix, with each later pass operating
/// within the partitions of the previous one (as both the CPU and GPU
/// algorithms do — the recursion keeps working sets local).
pub fn radix_partition(
    input: JoinInput<'_>,
    total_bits: u32,
    bits_per_pass: u32,
) -> (RadixPartitions, Vec<u32>) {
    radix_partition_above(input, 0, total_bits, bits_per_pass)
}

/// [`radix_partition`] under the signature the `benchmarks/` package is
/// frozen on. Its thread count reaches no pass: the partition pass is
/// sequential.
pub fn radix_partition_with_threads(
    input: JoinInput<'_>,
    total_bits: u32,
    bits_per_pass: u32,
    _threads: usize,
) -> (RadixPartitions, Vec<u32>) {
    radix_partition(input, total_bits, bits_per_pass)
}

/// [`radix_partition`] on the key bits `[low, low + total_bits)`: the
/// partitions a multi-pass radix over the keys shifted right by `low`
/// makes, without shifting a copy of the keys.
pub(crate) fn radix_partition_above(
    input: JoinInput<'_>,
    low: u32,
    total_bits: u32,
    bits_per_pass: u32,
) -> (RadixPartitions, Vec<u32>) {
    assert!(total_bits > 0 && total_bits <= 24, "unreasonable radix width {total_bits}");
    assert!(bits_per_pass > 0);
    let mut passes = Vec::new();
    let mut remaining = total_bits;
    while remaining > 0 {
        let b = remaining.min(bits_per_pass);
        passes.push(b);
        remaining -= b;
    }
    // First pass over the most significant of the radix bits, straight from
    // the input.
    let mut shift = low + total_bits - passes[0];
    let mut current = radix_partition_pass(input.keys, input.vals, shift, passes[0]);
    for &b in &passes[1..] {
        shift -= b;
        // Re-partition every existing partition on the next `b` bits.
        let mut out_keys = Vec::with_capacity(current.keys.len());
        let mut out_vals = Vec::with_capacity(current.vals.len());
        let mut offsets = vec![0usize];
        for p in 0..current.fanout() {
            let part = current.part(p);
            let sub = radix_partition_pass(part.keys, part.vals, shift, b);
            for sp in 0..sub.fanout() {
                let s = sub.part(sp);
                out_keys.extend_from_slice(s.keys);
                out_vals.extend_from_slice(s.vals);
                offsets.push(out_keys.len());
            }
        }
        current =
            RadixPartitions { keys: out_keys, vals: out_vals, offsets, bits: current.bits + b };
    }
    (current, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_from(keys: Vec<i32>) -> (Vec<i32>, Vec<u32>) {
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        (keys, vals)
    }

    #[test]
    fn single_pass_groups_by_radix() {
        let (keys, vals) = input_from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let p = radix_partition_pass(&keys, &vals, 0, 2);
        assert_eq!(p.fanout(), 4);
        for part in 0..4 {
            let s = p.part(part);
            assert!(s.keys.iter().all(|&k| radix_of(k, 0, 2) == part));
            assert_eq!(s.keys.len(), 2);
        }
    }

    #[test]
    fn partitioning_is_a_permutation() {
        let (keys, vals) = input_from((0..1000).map(|i| i * 7 % 256).collect());
        let p = radix_partition_pass(&keys, &vals, 0, 4);
        // Same multiset of (key, val) pairs.
        let mut before: Vec<(i32, u32)> = keys.iter().copied().zip(vals).collect();
        let mut after: Vec<(i32, u32)> =
            p.keys.iter().copied().zip(p.vals.iter().copied()).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn vals_follow_their_keys() {
        let keys = vec![3, 0, 1, 2];
        let vals = vec![30, 0, 10, 20];
        let p = radix_partition_pass(&keys, &vals, 0, 2);
        for part in 0..4 {
            let s = p.part(part);
            for (&k, &v) in s.keys.iter().zip(s.vals) {
                assert_eq!(v, (k * 10) as u32);
            }
        }
    }

    #[test]
    fn multi_pass_equals_single_pass_grouping() {
        let (keys, vals) =
            input_from((0..4096).map(|i| (i * 2654435761u64 % 1024) as i32).collect());
        let (multi, passes) = radix_partition(JoinInput::new(&keys, &vals), 6, 3);
        assert_eq!(passes, vec![3, 3]);
        assert_eq!(multi.fanout(), 64);
        assert_eq!(multi.bits, 6);
        // Every partition holds exactly the keys with that radix.
        for p in 0..64 {
            let s = multi.part(p);
            assert!(s.keys.iter().all(|&k| radix_of(k, 0, 6) == p), "partition {p}");
        }
        // And the total is a permutation.
        let mut before: Vec<i32> = keys;
        let mut after = multi.keys;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn uneven_bits_split() {
        let (keys, vals) = input_from((0..512).collect());
        let (parts, passes) = radix_partition(JoinInput::new(&keys, &vals), 7, 3);
        assert_eq!(passes, vec![3, 3, 1]);
        assert_eq!(parts.fanout(), 128);
    }

    #[test]
    fn empty_partitions_allowed() {
        let (keys, vals) = input_from(vec![0; 16]); // all in partition 0
        let p = radix_partition_pass(&keys, &vals, 0, 3);
        assert_eq!(p.part_len(0), 16);
        assert_eq!(p.max_part_len(), 16);
        for part in 1..8 {
            assert_eq!(p.part_len(part), 0);
        }
    }
}
