//! Warp-level memory coalescing analysis.
//!
//! A warp's 32 lanes issue one memory instruction together; the memory
//! system services one transaction per *distinct* line (or sector) touched.
//! Fully coalesced access (consecutive 4-byte lanes) touches one 128-byte
//! line; a random gather touches up to 32 — the over-fetch the paper's
//! partitioned algorithms are designed to avoid (§4.1).

/// Iterator over the distinct `chunk`-aligned addresses within one warp's
/// worth of byte addresses (at most 32), preserving first-touch order.
pub struct DistinctChunks<'a> {
    addrs: &'a [u64],
    chunk: u64,
    /// Chunk ids already seen (warp is ≤ 32 lanes, stack buffer suffices).
    seen: [u64; 32],
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
                if self.n_seen < self.seen.len() {
                    self.seen[self.n_seen] = c;
                    self.n_seen += 1;
                }
                return Some(c);
            }
        }
        None
    }
}

/// Distinct `chunk`-sized units touched by up to one warp of byte addresses.
///
/// `addrs.len()` must be ≤ 32 (one warp); callers chunk longer slices.
pub fn distinct_chunks(addrs: &[u64], chunk: u64) -> DistinctChunks<'_> {
    debug_assert!(addrs.len() <= 32, "coalescing operates on one warp at a time");
    debug_assert!(chunk.is_power_of_two());
    DistinctChunks { addrs, chunk, seen: [u64::MAX; 32], n_seen: 0, buckets: 0, i: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

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
