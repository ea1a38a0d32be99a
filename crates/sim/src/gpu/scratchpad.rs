//! Scratchpad (shared-memory) bank-conflict model.
//!
//! The scratchpad is organised into banks and serves one word per bank per
//! cycle *independently of the word's location in the bank* (§4.1) — which is
//! why the paper's GPU join builds its per-partition hash tables there: random
//! accesses cost bank conflicts at worst, never over-fetch.
//!
//! Both counters take one warp of up to 64 lanes and panic on more. A word `w` lives in bank
//! `w mod banks` at row `w >> log2(banks)`, its *high part*; two words are
//! equal exactly when bank and high part are.

use std::cell::RefCell;

/// High parts below this bound take the flag-table path of
/// [`conflict_cycles`].
const MASK_ROWS: u32 = 128;

/// Words in that path's table at the most banks, 64.
const FLAGS: usize = 64 * MASK_ROWS as usize;

/// Cycles needed for one warp's scratchpad read/write given the word indices
/// accessed by each lane.
///
/// Lanes that read the *same* word are broadcast (cost one access); lanes
/// hitting distinct words in the same bank serialise, so the cost is the
/// largest number of distinct words in one bank.
///
/// When every high part is below 128 — any table of up to `128 × banks`
/// words, which covers the join's 12-bit bucket words on 32 banks — each
/// word of that table has a seen flag (for each high part, the mask of the
/// banks it was seen in, one byte per bank), and a lane adds one to its
/// bank's count exactly when its word's flag was still clear: the first
/// lane on a word counts, its repeats do not. A second pass clears the
/// flags it set, so the table, kept per thread, is clear for the next
/// warp without being zeroed. Neither pass has a data-dependent branch.
/// Its count is kept only if the words were in bound (their OR says so);
/// other warps take the general path, a seen-list with a 64-bucket filter.
pub fn conflict_cycles(words: &[u32], banks: usize) -> u32 {
    assert!(words.len() <= 64, "scratchpad counters take one warp of ≤ 64 lanes");
    let mut cycles = 0;
    each_warp_conflict_cycles(words, 64, banks, |c| cycles = c);
    cycles
}

/// [`conflict_cycles`] of each `warp`-lane chunk of `words`, in order: one
/// borrow of the per-thread seen table serves a whole access.
pub(crate) fn each_warp_conflict_cycles(
    words: &[u32],
    warp: usize,
    banks: usize,
    mut each: impl FnMut(u32),
) {
    debug_assert!(warp <= 64, "scratchpad counters take one warp of ≤ 64 lanes");
    debug_assert!(banks <= 64 && banks.is_power_of_two());
    thread_local! {
        static SEEN: RefCell<[u8; FLAGS]> = const { RefCell::new([0; FLAGS]) };
    }
    let shift = banks.trailing_zeros();
    let bank = |w: u32| (w as usize) & (banks - 1) & 63;
    let flag = |w: u32| w as usize % FLAGS;
    SEEN.with_borrow_mut(|flags| {
        for words in words.chunks(warp) {
            let (mut per_bank, mut all) = ([0u8; 64], 0u32);
            for &w in words {
                all |= w;
                per_bank[bank(w)] += 1 - flags[flag(w)];
                flags[flag(w)] = 1;
            }
            for &w in words {
                flags[flag(w)] = 0;
            }
            if all >> shift >= MASK_ROWS {
                let (mut seen, mut n_seen, mut marks) = ([0u32; 64], 0usize, 0u64);
                per_bank = [0; 64];
                for &w in words {
                    // A word repeats only where an earlier one left its mark.
                    let mark = 1u64 << (w & 63);
                    if marks & mark != 0 && seen[..n_seen].contains(&w) {
                        continue; // broadcast
                    }
                    marks |= mark;
                    seen[n_seen] = w;
                    n_seen += 1;
                    per_bank[bank(w)] += 1;
                }
            }
            // Banks past `banks` were never counted.
            each(per_bank.iter().copied().max().unwrap_or(0) as u32);
        }
    });
}

/// Cycles for one warp's scratchpad *atomic* operation.
///
/// Unlike plain reads, atomics to the same word cannot be broadcast — they
/// serialise. The cost is the maximum number of lane operations landing on
/// any single bank (same-word operations necessarily share a bank): one
/// branch-free count per bank, exact for any words.
pub fn atomic_cycles(words: &[u32], banks: usize) -> u32 {
    assert!(words.len() <= 64, "scratchpad counters take one warp of ≤ 64 lanes");
    debug_assert!(banks <= 64 && banks.is_power_of_two());
    let mut per_bank = [0u8; 64];
    for &w in words {
        per_bank[(w as usize) & (banks - 1) & 63] += 1;
    }
    per_bank.iter().copied().max().unwrap_or(0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The counter [`conflict_cycles`] replaced, kept as its oracle (its
    /// seen-list widened from 32 to 64 slots so that it takes a 64-lane
    /// warp).
    fn conflict_cycles_oracle(words: &[u32], banks: usize) -> u32 {
        if words.is_empty() {
            return 0;
        }
        // Lanes on pairwise distinct banks cost one cycle.
        let banks_hit = words.iter().fold(0u64, |m, &w| m | 1 << ((w as usize) & (banks - 1)));
        if banks_hit.count_ones() as usize == words.len() {
            return 1;
        }
        let (mut seen, mut n_seen, mut marks) = ([u32::MAX; 64], 0usize, 0u64);
        let mut per_bank = [0u8; 64];
        for &w in words {
            let mark = 1u64 << (w & 63);
            if marks & mark != 0 && seen[..n_seen].contains(&w) {
                continue;
            }
            marks |= mark;
            seen[n_seen] = w;
            n_seen += 1;
            per_bank[(w as usize) & (banks - 1)] += 1;
        }
        per_bank[..banks].iter().copied().max().unwrap_or(0).max(1) as u32
    }

    /// The counter [`atomic_cycles`] replaced, kept as its oracle.
    fn atomic_cycles_oracle(words: &[u32], banks: usize) -> u32 {
        if words.is_empty() {
            return 0;
        }
        let banks_hit = words.iter().fold(0u64, |m, &w| m | 1 << ((w as usize) & (banks - 1)));
        if banks_hit.count_ones() as usize == words.len() {
            return 1;
        }
        let mut per_bank = [0u8; 64];
        for &w in words {
            per_bank[(w as usize) & (banks - 1)] += 1;
        }
        per_bank[..banks].iter().copied().max().unwrap_or(0) as u32
    }

    /// One seeded warp: a length in `0..=64`, a bank count in {16, 32, 64}
    /// and one of the shapes the counters distinguish — words below and
    /// above the mask path's bound, all-equal, single-bank, monotone and
    /// random.
    fn warp(seed: u64) -> (Vec<u32>, usize) {
        let mut r = StdRng::seed_from_u64(seed);
        let banks = [16usize, 32, 64][r.gen_range(0..3usize)];
        let n = r.gen_range(0..=64usize);
        let below = MASK_ROWS * banks as u32; // the first word off the mask path
        let word = |r: &mut StdRng| match r.gen_range(0..4u32) {
            0 => r.gen_range(0..below),
            1 => r.gen_range(below - 8..below + 8),
            2 => r.gen_range(0..4 * below),
            _ => r.gen_range(0..=u32::MAX),
        };
        let words = match r.gen_range(0..6u32) {
            0 => vec![word(&mut r); n],
            1 => {
                let bank = r.gen_range(0..banks as u32);
                let rows = r.gen_range(1..200u32);
                (0..n).map(|_| bank + banks as u32 * r.gen_range(0..rows)).collect()
            }
            2 => {
                let (start, step) = (word(&mut r) / 2, r.gen_range(0..40u32));
                (0..n as u32).map(|i| start.saturating_add(i * step)).collect()
            }
            3 => {
                // A few distinct words, repeated: broadcasts among conflicts.
                let pool: Vec<u32> =
                    (0..r.gen_range(1..6usize)).map(|_| word(&mut r)).collect();
                (0..n).map(|_| pool[r.gen_range(0..pool.len())]).collect()
            }
            4 => (0..n).map(|_| r.gen_range(0..below)).collect(),
            _ => (0..n).map(|_| word(&mut r)).collect(),
        };
        (words, banks)
    }

    fn check_against_oracles(cases: u64) {
        for seed in 0..cases {
            let (words, banks) = warp(seed);
            let ctx = || format!("seed {seed}: banks {banks}, words {words:?}");
            assert_eq!(
                conflict_cycles(&words, banks),
                conflict_cycles_oracle(&words, banks),
                "{}",
                ctx()
            );
            assert_eq!(
                atomic_cycles(&words, banks),
                atomic_cycles_oracle(&words, banks),
                "{}",
                ctx()
            );
        }
    }

    #[test]
    fn counters_equal_their_oracles_on_seeded_warps() {
        check_against_oracles(1_000);
    }

    /// The 10⁶-warp sweep (`cargo test --release -p hape-sim -- --ignored`).
    #[test]
    #[ignore = "10^6 warps; run in release"]
    fn counters_equal_their_oracles_on_a_million_warps() {
        check_against_oracles(1_000_000);
    }

    #[test]
    fn conflict_free_access_is_one_cycle() {
        let words: Vec<u32> = (0..32).collect();
        assert_eq!(conflict_cycles(&words, 32), 1);
    }

    #[test]
    fn same_word_broadcasts() {
        let words = [7u32; 32];
        assert_eq!(conflict_cycles(&words, 32), 1);
    }

    #[test]
    fn two_way_conflict() {
        // Lanes 0..16 hit bank i, lanes 16..32 hit bank i again (words +32).
        let words: Vec<u32> = (0..32).map(|i| (i % 16) + 32 * (i / 16)).collect();
        assert_eq!(conflict_cycles(&words, 32), 2);
    }

    #[test]
    fn worst_case_32_way() {
        let words: Vec<u32> = (0..32).map(|i| i * 32).collect(); // all bank 0
        assert_eq!(conflict_cycles(&words, 32), 32);
        // The same bank, high parts past the mask path's bound.
        let wide: Vec<u32> = (0..32).map(|i| (i + 200) * 32).collect();
        assert_eq!(conflict_cycles(&wide, 32), 32);
    }

    #[test]
    #[should_panic(expected = "one warp of ≤ 64 lanes")]
    fn conflict_cycles_refuses_more_than_one_warp() {
        let words: Vec<u32> = (0..65).collect();
        conflict_cycles(&words, 32);
    }

    #[test]
    #[should_panic(expected = "one warp of ≤ 64 lanes")]
    fn atomic_cycles_refuses_more_than_one_warp() {
        let words: Vec<u32> = (0..65).collect();
        atomic_cycles(&words, 32);
    }

    #[test]
    fn a_64_lane_warp_counts_every_lane() {
        let words: Vec<u32> = (0..64).map(|i| i * 64).collect(); // all bank 0
        assert_eq!(conflict_cycles(&words, 64), 64);
        assert_eq!(atomic_cycles(&words, 64), 64);
        let spread: Vec<u32> = (0..64).collect();
        assert_eq!(conflict_cycles(&spread, 64), 1);
        assert_eq!(atomic_cycles(&spread, 64), 1);
    }

    #[test]
    fn atomics_to_same_word_serialise() {
        let words = [7u32; 32];
        assert_eq!(atomic_cycles(&words, 32), 32);
        assert_eq!(conflict_cycles(&words, 32), 1); // contrast with reads
    }

    #[test]
    fn atomics_conflict_free_when_spread() {
        let words: Vec<u32> = (0..32).collect();
        assert_eq!(atomic_cycles(&words, 32), 1);
    }

    #[test]
    fn empty_access_is_free() {
        assert_eq!(conflict_cycles(&[], 32), 0);
        assert_eq!(atomic_cycles(&[], 32), 0);
    }
}
