//! Scratchpad (shared-memory) bank-conflict model.
//!
//! The scratchpad is organised into banks and serves one word per bank per
//! cycle *independently of the word's location in the bank* (§4.1) — which is
//! why the paper's GPU join builds its per-partition hash tables there: random
//! accesses cost bank conflicts at worst, never over-fetch.

/// Cycles needed for one warp's scratchpad read/write given the word indices
/// accessed by each lane.
///
/// Lanes that read the *same* word are broadcast (cost one access); lanes
/// hitting distinct words in the same bank serialise.
pub fn conflict_cycles(words: &[u32], banks: usize) -> u32 {
    debug_assert!(words.len() <= 32);
    debug_assert!(banks <= 64 && banks.is_power_of_two());
    if words.is_empty() {
        return 0;
    }
    // Lanes on pairwise distinct banks cost one cycle.
    let banks_hit = words.iter().fold(0u64, |m, &w| m | 1 << ((w as usize) & (banks - 1)));
    if banks_hit.count_ones() as usize == words.len() {
        return 1;
    }
    let (mut seen, mut n_seen, mut marks) = ([u32::MAX; 32], 0usize, 0u64);
    let mut per_bank = [0u8; 64];
    for &w in words {
        // A word repeats only where an earlier one left its mark.
        let mark = 1u64 << (w & 63);
        if marks & mark != 0 && seen[..n_seen].contains(&w) {
            continue; // broadcast
        }
        marks |= mark;
        seen[n_seen] = w;
        n_seen += 1;
        per_bank[(w as usize) & (banks - 1)] += 1;
    }
    per_bank[..banks].iter().copied().max().unwrap_or(0).max(1) as u32
}

/// Cycles for one warp's scratchpad *atomic* operation.
///
/// Unlike plain reads, atomics to the same word cannot be broadcast — they
/// serialise. The cost is the maximum number of lane operations landing on
/// any single bank (same-word operations necessarily share a bank).
pub fn atomic_cycles(words: &[u32], banks: usize) -> u32 {
    debug_assert!(words.len() <= 32);
    debug_assert!(banks <= 64 && banks.is_power_of_two());
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

#[cfg(test)]
mod tests {
    use super::*;

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
