//! Warp-level memory coalescing analysis.
//!
//! A warp's lanes issue one memory instruction together; the memory system
//! services one transaction per *distinct* line (or sector) touched. Fully
//! coalesced access (consecutive 4-byte lanes) touches one 128-byte line; a
//! random gather touches one per lane — the over-fetch the paper's
//! partitioned algorithms are designed to avoid (§4.1).

/// Iterator over the distinct `chunk`-aligned addresses within one warp's
/// worth of byte addresses (at most 64), preserving first-touch order.
pub struct DistinctChunks<'a> {
    addrs: &'a [u64],
    chunk: u64,
    /// Chunk ids already seen (a warp is ≤ 64 lanes, a stack buffer suffices).
    seen: [u64; 64],
    n_seen: usize,
    /// Which of 64 buckets (chunk id mod 64) hold a seen chunk: a chunk in
    /// an empty bucket is new without a scan.
    buckets: u64,
    i: usize,
}

impl<'a> Iterator for DistinctChunks<'a> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.i < self.addrs.len() {
            let c = self.addrs[self.i] / self.chunk;
            self.i += 1;
            let bucket = 1u64 << (c % 64);
            if self.buckets & bucket == 0 || !self.seen[..self.n_seen].contains(&c) {
                self.buckets |= bucket;
                self.seen[self.n_seen] = c;
                self.n_seen += 1;
                return Some(c);
            }
        }
        None
    }
}

/// Distinct `chunk`-sized units touched by up to one warp of byte addresses.
///
/// `addrs.len()` must be ≤ 64 (one warp; it panics on more); callers chunk
/// longer slices.
pub fn distinct_chunks(addrs: &[u64], chunk: u64) -> DistinctChunks<'_> {
    assert!(addrs.len() <= 64, "coalescing operates on one warp of at most 64 lanes");
    debug_assert!(chunk.is_power_of_two());
    DistinctChunks { addrs, chunk, seen: [0; 64], n_seen: 0, buckets: 0, i: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Seeded warps of every length up to 64 lanes — strided, repeated
    /// and random addresses, 32- and 128-byte chunks — count as many
    /// chunks as their sorted, deduplicated chunk ids.
    #[test]
    fn counts_equal_the_sorted_distinct_ids_up_to_64_lanes() {
        for seed in 0..1_000u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let n = r.gen_range(0..=64usize);
            let chunk = [32u64, 128][r.gen_range(0..2usize)];
            let (base, stride) = (r.gen_range(0..1u64 << 40), r.gen_range(0..300u64));
            let addrs: Vec<u64> = match r.gen_range(0..3u32) {
                0 => (0..n as u64).map(|i| base + i * stride).collect(),
                1 => (0..n).map(|_| base + r.gen_range(0..4 * chunk)).collect(),
                _ => (0..n).map(|_| base + r.gen_range(0..1u64 << 30)).collect(),
            };
            let mut ids: Vec<u64> = addrs.iter().map(|a| a / chunk).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(distinct_chunks(&addrs, chunk).count(), ids.len(), "seed {seed}");
        }
    }

    #[test]
    fn a_64_lane_warp_counts_every_lane() {
        let addrs: Vec<u64> = (0..64u64).map(|i| (i * 37 % 64) * 4096).collect();
        assert_eq!(distinct_chunks(&addrs, 128).count(), 64);
    }

    #[test]
    #[should_panic(expected = "one warp of at most 64 lanes")]
    fn more_than_one_warp_is_refused() {
        let addrs: Vec<u64> = (0..65u64).map(|i| i * 4096).collect();
        let _ = distinct_chunks(&addrs, 128).count();
    }

    #[test]
    fn fully_coalesced_is_one_line() {
        let addrs: Vec<u64> = (0..32u64).map(|i| 4096 + i * 4).collect();
        assert_eq!(distinct_chunks(&addrs, 128).count(), 1);
    }

    #[test]
    fn strided_8byte_access_spans_two_lines() {
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        assert_eq!(distinct_chunks(&addrs, 128).count(), 2);
    }

    #[test]
    fn fully_random_is_32_lines() {
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4096).collect();
        assert_eq!(distinct_chunks(&addrs, 128).count(), 32);
    }

    #[test]
    fn duplicates_deduplicated_in_order() {
        let addrs = [0u64, 130, 4, 260, 129];
        let lines: Vec<u64> = distinct_chunks(&addrs, 128).collect();
        assert_eq!(lines, vec![0, 1, 2]);
    }

    #[test]
    fn partial_warp_ok() {
        let addrs = [1000u64];
        assert_eq!(distinct_chunks(&addrs, 128).count(), 1);
    }

    #[test]
    fn sector_granularity() {
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        // 32 lanes x 8B = 256B = 8 sectors of 32B.
        assert_eq!(distinct_chunks(&addrs, 32).count(), 8);
    }
}
