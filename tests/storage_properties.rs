//! Property-style tests for the storage substrate: slicing and packet
//! algebra.
//!
//! Originally `proptest` generators; the registry is unreachable in this
//! environment, so the same properties run over deterministic seeded case
//! sweeps instead.

use hape::storage::{Batch, Column};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ints(len: usize, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(i32::MIN..i32::MAX)).collect()
}

#[test]
fn split_concat_identity() {
    for case in 0..32u64 {
        let n = 1 + (case * 17 % 500) as usize;
        let packet = 1 + (case * 7 % 63) as usize;
        let vals = ints(n, case + 101);
        let b = Batch::new(vec![Column::from_i32(vals.clone())]);
        let packets = b.split(packet);
        assert_eq!(packets.iter().map(Batch::rows).sum::<usize>(), vals.len(), "case {case}");
        let cols: Vec<Column> = packets.iter().map(|p| p.col(0).clone()).collect();
        let back = Column::concat(&cols);
        assert_eq!(back.as_i32(), &vals[..], "case {case}");
    }
}

#[test]
fn take_selects_expected() {
    for case in 0..32u64 {
        let n = 1 + (case * 11 % 200) as usize;
        let vals = ints(n, case + 201);
        let idx_seed = case.wrapping_mul(0x9E3779B9) | 1;
        let sel: Vec<u32> =
            (0..n).map(|i| ((i as u64).wrapping_mul(idx_seed) % n as u64) as u32).collect();
        let c = Column::from_i32(vals.clone());
        let taken = c.take(&sel);
        for (out, &i) in taken.as_i32().iter().zip(&sel) {
            assert_eq!(*out, vals[i as usize], "case {case}");
        }
    }
}
