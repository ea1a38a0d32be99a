//! The probe kernel every host join calls, over a layout each build picks
//! from its own keys.
//!
//! # What is priced, and what runs
//!
//! The paper's joins probe a chained hash table: bucket heads plus one next
//! pointer per entry, a probe walking its key's bucket (§4.1, Fig. 3).
//! Pricing reads that layout as numbers only, never as memory:
//!
//! - `bits`: log2 of its bucket count, the next power of two of the build
//!   rows ([`chained_bits`], [`ProbeTable::bits`]);
//! - `bytes`: its heads and next pointers, 4 bytes each
//!   ([`chained_bytes`], [`ProbeTable::bytes`]);
//! - a probe key's *steps*: the length of its bucket `hash32(key, bits)`,
//!   the entries a chain walk visits — summed into the `avg_chain` every
//!   CPU probe is priced from, and read per key by the GPU kernels.
//!
//! The host never walks that chain. [`ProbeTable::rebuild`] lays out the
//! build from its own keys:
//!
//! - **direct** when the keys' range, in steps of the low bits they all
//!   share (a co-partition's radix), is at most [`DIRECT_SLOTS_PER_ROW`]
//!   times the row count — dense keys: Q9\*'s orders, partsupp and
//!   supplier tables, Q5's supplier table and every orders co-partition of
//!   the §5 join. One slot per key of the range carries its build rows and
//!   its bucket's steps, found by one subtraction and one shift;
//! - otherwise **bucketed**: the chained layout's buckets stored
//!   contiguously (their starts, then every entry's key and row bucket by
//!   bucket), behind a filter of one bit per key residue modulo
//!   [`FILTER_BITS_PER_BUCKET`] times the bucket count, set for every build
//!   key's. A probe key whose bit is clear has no match and reads no
//!   bucket; one whose bit is set scans its bucket. A range of keys no
//!   longer than the filter maps to distinct bits, so on such keys only the
//!   matches scan (Q5's filtered orders at SF 0.05: 2 272 keys over a range
//!   of 75 000, a filter of 131 072 bits).
//!
//! Either way a key's steps are read, never counted by a walk: off its
//! direct slot, or off one array of bucket lengths.
//!
//! A caller that prices per-entry addresses (the GPU joins' L1 variants and
//! the non-partitioned GPU join) asks for the bucketed layout, whose
//! buckets [`ProbeTable::chain`] lists.
//!
//! [`ProbeTable::probe`] takes a block of keys and appends the (probe row,
//! build row) selection vectors in the order a chain walk yields them:
//! probe order, and per key its build rows in descending row order (a
//! chained build inserts at the head). So whatever a join sums over its
//! pairs adds in the order it always did, and every `f64` keeps its bits.
//! The chain walk itself lives on as the tests' oracle
//! (`common::ChainedTable`).

use crate::common::{hash32, shifted, JoinStats};

/// Largest key range, per build row, the direct layout spans: a slot is 8
/// bytes, so a direct table costs at most 32 bytes per row.
pub const DIRECT_SLOTS_PER_ROW: u64 = 4;

/// Filter bits per chained bucket in the bucketed layout: as many bytes as
/// its bucket lengths take, and a filter that tells apart exactly the keys
/// of any range up to 32 times the bucket count (at least 32 times the
/// build rows).
pub const FILTER_BITS_PER_BUCKET: usize = 32;

/// log2 of the chained layout's bucket count over `rows` keys: about one
/// bucket per key (the next power of two, at least two buckets).
pub fn chained_bits(rows: usize) -> u32 {
    rows.max(2).next_power_of_two().trailing_zeros()
}

/// Bytes the chained layout over `rows` keys occupies: its heads and next
/// pointers, 4 bytes each.
pub fn chained_bytes(rows: usize) -> u64 {
    (((1usize << chained_bits(rows)) + rows) * 4) as u64
}

/// A direct slot's `row` with no build row.
const NONE: u32 = u32::MAX;
/// The flag of a direct slot's `row` whose key has several build rows.
const MANY: u32 = 1 << 31;

/// A direct slot: the key's build rows and its bucket's steps.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// [`NONE`]; the key's one build row; or [`MANY`] `|` where its rows
    /// are listed in [`ProbeTable::rows`] (their count, then the rows).
    row: u32,
    /// The length of the key's chained bucket.
    steps: u32,
}

/// A build side laid out for the probe kernel (module docs).
#[derive(Debug, Default)]
pub struct ProbeTable {
    /// The chained layout's bucket bits.
    bits: u32,
    /// Low key bits every key is shifted past ([`shifted`]).
    shift: u32,
    /// Build rows.
    n: usize,
    /// Direct (`true`) or bucketed layout.
    direct: bool,
    /// Per chained bucket, its length: the steps of a key hashing to it.
    lens: Vec<u32>,
    /// Direct: the key of slot 0.
    base: i32,
    /// Direct: log2 of the key distance between slots — the low bits
    /// every build key shares.
    stride: u32,
    /// Direct: one slot per key of `[base, base + slots.len())`.
    slots: Vec<Slot>,
    /// Direct: per key with several rows, their count and then the rows,
    /// descending.
    rows: Vec<u32>,
    /// Bucketed: where each bucket's entries start, then one past the last
    /// bucket's.
    starts: Vec<u32>,
    /// Bucketed: every entry's key and row, bucket by bucket, each bucket's
    /// in chain order.
    entry_keys: Vec<i32>,
    entry_rows: Vec<u32>,
    /// Bucketed: bit `k mod (64 * len)` set for every build key `k`.
    filter: Vec<u64>,
    /// Fill cursors while a layout builds.
    cursors: Vec<u32>,
}

impl ProbeTable {
    /// Lay out `keys` (row `i` has key `keys[i]`) in the layout they pick.
    pub fn build(keys: &[i32]) -> Self {
        let mut table = ProbeTable::default();
        table.rebuild(keys, 0, false);
        table
    }

    /// Lay out `keys` again in this table's buffers, every key — and every
    /// key later probed — with its low `shift` bits dropped: the table of a
    /// join whose radix starts at `shift`. `bucketed` forces the bucketed
    /// layout, for a caller that lists buckets ([`ProbeTable::chain`]).
    pub fn rebuild(&mut self, keys: &[i32], shift: u32, bucketed: bool) {
        let (n, bits) = (keys.len(), chained_bits(keys.len()));
        assert!(n < MANY as usize, "a build side of {n} rows");
        (self.n, self.bits, self.shift) = (n, bits, shift);
        // Bounds, and the low bits every key shares (a co-partition's radix).
        let first = keys.first().map_or(0, |&k| shifted(k, shift));
        let (lo, hi, differ) =
            keys.iter().fold((i32::MAX, i32::MIN, 0), |(lo, hi, differ), &k| {
                let k = shifted(k, shift);
                (lo.min(k), hi.max(k), differ | (k ^ first))
            });
        self.stride = differ.trailing_zeros() % 32;
        let range = ((hi as i64 - lo as i64).max(-1) >> self.stride) + 1;
        self.direct = !bucketed && n > 0 && range as u64 <= DIRECT_SLOTS_PER_ROW * n as u64;
        self.lens.clear();
        self.lens.resize(1 << bits, 0);
        if self.direct {
            self.lay_out_direct(keys, lo, range as usize);
        } else {
            self.lay_out_buckets(keys);
        }
    }

    fn lay_out_direct(&mut self, keys: &[i32], base: i32, range: usize) {
        let (bits, stride) = (self.bits, self.stride);
        self.base = base;
        self.slots.clear();
        self.slots.resize(range, Slot { row: NONE, steps: 0 });
        self.rows.clear();
        // Rows descending — the order a chain walk yields them — so a key
        // of one row keeps it; a key met twice lists its rows below. The
        // bucket lengths are counted on the way.
        let mut many = false;
        for (i, &k) in keys.iter().enumerate().rev() {
            self.lens[hash32(shifted(k, self.shift), bits) as usize] += 1;
            let o = self.slot_of(k);
            let row = &mut self.slots[o].row;
            many |= *row != NONE;
            *row = i as u32;
        }
        for (o, slot) in self.slots.iter_mut().enumerate() {
            let key = (base as i64 + ((o as i64) << stride)) as i32;
            slot.steps = self.lens[hash32(key, bits) as usize];
        }
        if many {
            self.list_rows(keys);
        }
    }

    /// The direct slot of build key `k`.
    fn slot_of(&self, k: i32) -> usize {
        (shifted(k, self.shift).wrapping_sub(self.base) as u32 >> self.stride) as usize
    }

    /// List the rows of every key with several in [`ProbeTable::rows`].
    fn list_rows(&mut self, keys: &[i32]) {
        // Rows per slot, then, for a key with several, its fill cursor.
        let mut counts = std::mem::take(&mut self.cursors);
        counts.clear();
        counts.resize(self.slots.len(), 0);
        keys.iter().for_each(|&k| counts[self.slot_of(k)] += 1);
        let rows = &mut self.rows;
        for (slot, count) in self.slots.iter_mut().zip(counts.iter_mut()) {
            if *count > 1 {
                let at = rows.len() as u32;
                rows.push(*count);
                rows.resize(rows.len() + *count as usize, 0);
                (slot.row, *count) = (MANY | at, at + 1);
            }
        }
        for (i, &k) in keys.iter().enumerate().rev() {
            let o = self.slot_of(k);
            if self.slots[o].row & MANY != 0 {
                self.rows[counts[o] as usize] = i as u32;
                counts[o] += 1;
            }
        }
        self.cursors = counts;
    }

    fn lay_out_buckets(&mut self, keys: &[i32]) {
        let (bits, shift) = (self.bits, self.shift);
        keys.iter().for_each(|&k| self.lens[hash32(shifted(k, shift), bits) as usize] += 1);
        self.starts.clear();
        self.starts.push(0);
        let mut at = 0;
        self.starts.extend(self.lens.iter().map(|&len| {
            at += len;
            at
        }));
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts);
        self.entry_keys.resize(keys.len(), 0);
        self.entry_rows.resize(keys.len(), 0);
        self.filter.clear();
        self.filter.resize((FILTER_BITS_PER_BUCKET << bits) / 64, 0);
        let mask = self.filter_mask();
        // Rows descending: the order a chain walk yields them.
        for (i, &k) in keys.iter().enumerate().rev() {
            let k = shifted(k, shift);
            let e = &mut self.cursors[hash32(k, bits) as usize];
            (self.entry_keys[*e as usize], self.entry_rows[*e as usize]) = (k, i as u32);
            *e += 1;
            let f = k as u32 & mask;
            self.filter[(f >> 6) as usize] |= 1 << (f & 63);
        }
    }

    /// The filter bit of key `k` is `k & filter_mask()`.
    fn filter_mask(&self) -> u32 {
        (self.filter.len() * 64 - 1) as u32
    }

    /// The low key bits a direct slot's key has zero past `base`.
    #[inline]
    fn off_stride_mask(&self) -> u32 {
        (1 << self.stride) - 1
    }

    /// log2 of the chained layout's bucket count ([`chained_bits`]).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Bytes the chained layout occupies — its heads and next pointers,
    /// 4 bytes each: what a probe's working set is priced at.
    pub fn bytes(&self) -> u64 {
        chained_bytes(self.n)
    }

    /// Probe a block of `keys`: append each match's (probe row — its index
    /// in `keys` — , build row) to `probe_sel` / `build_sel`, in probe order
    /// and per key in chain order; hand each key's steps to `steps`, in
    /// order; return their sum.
    #[inline]
    pub fn probe(
        &self,
        keys: &[i32],
        probe_sel: &mut Vec<u32>,
        build_sel: &mut Vec<u32>,
        mut steps: impl FnMut(u32),
    ) -> u64 {
        let mut hit = |i: usize, row: u32| {
            probe_sel.push(i as u32);
            build_sel.push(row);
        };
        let mut total = 0u64;
        let keys = keys.iter().map(|&k| shifted(k, self.shift)).enumerate();
        if self.direct {
            let mask = self.off_stride_mask();
            for (i, k) in keys {
                let at = k.wrapping_sub(self.base) as u32;
                let off = if at & mask == 0 { at >> self.stride } else { u32::MAX };
                let walked = match self.slots.get(off as usize) {
                    Some(&Slot { row, steps }) => {
                        if row < MANY {
                            hit(i, row);
                        } else if row != NONE {
                            let at = (row & !MANY) as usize;
                            let rows = &self.rows[at + 1..][..self.rows[at] as usize];
                            rows.iter().for_each(|&row| hit(i, row));
                        }
                        steps
                    }
                    None => self.lens[hash32(k, self.bits) as usize],
                };
                total += walked as u64;
                steps(walked);
            }
        } else {
            let mask = self.filter_mask();
            for (i, k) in keys {
                let b = hash32(k, self.bits) as usize;
                let f = k as u32 & mask;
                if self.filter[(f >> 6) as usize] >> (f & 63) & 1 != 0 {
                    let entries = self.starts[b] as usize..self.starts[b + 1] as usize;
                    for e in entries.filter(|&e| self.entry_keys[e] == k) {
                        hit(i, self.entry_rows[e]);
                    }
                }
                let walked = self.lens[b];
                total += walked as u64;
                steps(walked);
            }
        }
        total
    }

    /// The build rows a chain walk of `key`'s bucket visits, in its order —
    /// matching or not: the per-entry addresses a priced walk touches. A
    /// bucketed table's only ([`ProbeTable::rebuild`]).
    pub fn chain(&self, key: i32) -> impl Iterator<Item = u32> + '_ {
        assert!(!self.direct, "only a bucketed table lists its buckets");
        let b = hash32(shifted(key, self.shift), self.bits) as usize;
        self.entry_rows[self.starts[b] as usize..self.starts[b + 1] as usize].iter().copied()
    }
}

/// Record a probe's matches — `probe_sel` / `build_sel` index `s_vals` /
/// `r_vals` — in `stats` and, when the join materialises them, as
/// `(build value, probe value)` pairs, in the kernel's order.
pub(crate) fn record(
    (r_vals, s_vals): (&[u32], &[u32]),
    (probe_sel, build_sel): (&[u32], &[u32]),
    stats: &mut JoinStats,
    pairs: &mut Option<(Vec<u32>, Vec<u32>)>,
) {
    for (&p, &b) in probe_sel.iter().zip(build_sel) {
        stats.record(r_vals[b as usize], s_vals[p as usize]);
    }
    if let Some((r, s)) = pairs.as_mut() {
        r.extend(build_sel.iter().map(|&b| r_vals[b as usize]));
        s.extend(probe_sel.iter().map(|&p| s_vals[p as usize]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ChainedTable;

    /// splitmix64 draws in `[0, m)`.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self, m: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        }
    }

    /// `n` keys of one of the shapes joins meet: unique dense (a primary
    /// key), dense with duplicates, sparse over the whole `i32` domain, a
    /// few hot keys, keys at `i32::MIN` / `i32::MAX` and around zero, and
    /// co-partition keys sharing their low bits.
    fn keys(d: &mut Draws, n: usize) -> Vec<i32> {
        let lo = d.next(1 << 20) as i32 - (1 << 19);
        match d.next(6) {
            0 => (0..n as i32).map(|i| lo + i * (1 + d.next(3) as i32)).collect(),
            1 => (0..n).map(|_| lo + d.next(1 + n as u64 / 2) as i32).collect(),
            2 => (0..n).map(|_| d.next(1 << 32) as u32 as i32).collect(),
            3 => (0..n).map(|_| lo + d.next(3) as i32).collect(),
            4 => {
                let edge = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
                (0..n).map(|_| edge[d.next(edge.len() as u64) as usize]).collect()
            }
            _ => (0..n).map(|_| (lo + d.next(2 * n as u64 + 1) as i32) << 3 | 5).collect(),
        }
    }

    /// The chain walk of `oracle` over `keys`: pairs and per-key steps.
    fn walk(oracle: &ChainedTable, build: &[i32], keys: &[i32]) -> (Vec<(u32, u32)>, Vec<u32>) {
        let (mut pairs, mut steps) = (Vec::new(), Vec::new());
        for (i, &k) in keys.iter().enumerate() {
            steps.push(oracle.probe(build, k, |e| pairs.push((i as u32, e))));
        }
        (pairs, steps)
    }

    /// Seeded builds and probe blocks, both layouts: the kernel's pairs,
    /// their order and every key's steps equal the chain walk's; its bits
    /// and bytes equal the chained table's; a bucketed table's buckets list
    /// the chain walk's entries. Builds are empty to a few thousand rows;
    /// probes mix build keys, keys near them, keys outside a direct range
    /// and edge keys; shifts 0–4 for co-partition tables (the oracle walks
    /// the shifted keys).
    fn check_against_chain_walk(cases: std::ops::Range<u64>) {
        let mut table = ProbeTable::default();
        for case in cases {
            let mut d = Draws(case.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let n = [0, 1, 2, 3, 17, 100, 1000, 3000][d.next(8) as usize];
            let build = keys(&mut d, n);
            let m = d.next(2000) as usize;
            let mut probe: Vec<i32> = keys(&mut d, m);
            for k in probe.iter_mut() {
                match d.next(4) {
                    0 if n > 0 => *k = build[d.next(n as u64) as usize],
                    1 if n > 0 => *k = build[d.next(n as u64) as usize].wrapping_add(1),
                    _ => {}
                }
            }
            let shift = if d.next(3) == 0 { d.next(5) as u32 } else { 0 };
            let bucketed = d.next(3) == 0;
            table.rebuild(&build, shift, bucketed);
            let shifted_build: Vec<i32> = build.iter().map(|&k| shifted(k, shift)).collect();
            let shifted_probe: Vec<i32> = probe.iter().map(|&k| shifted(k, shift)).collect();
            let oracle = ChainedTable::build(&shifted_build);
            let (pairs, steps) = walk(&oracle, &shifted_build, &shifted_probe);
            let (mut probe_sel, mut build_sel, mut got_steps) = (vec![], vec![], vec![]);
            let total =
                table.probe(&probe, &mut probe_sel, &mut build_sel, |s| got_steps.push(s));
            let got: Vec<(u32, u32)> = probe_sel.into_iter().zip(build_sel).collect();
            let at = format!("case {case}: n={n} m={m} shift={shift} direct={}", table.direct);
            assert_eq!(got, pairs, "{at}: pairs");
            assert_eq!(got_steps, steps, "{at}: steps");
            assert_eq!(total, steps.iter().map(|&s| s as u64).sum::<u64>(), "{at}: total");
            assert_eq!((table.bits(), table.bytes()), (oracle.bits, oracle.bytes()), "{at}");
            assert_eq!(table.n, n, "{at}");
            if bucketed {
                for &k in &probe {
                    let walked = oracle.walk(shifted(k, shift));
                    assert_eq!(
                        table.chain(k).collect::<Vec<_>>(),
                        walked,
                        "{at}: chain of {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_equals_the_chain_walk_on_a_thousand_seeded_cases() {
        check_against_chain_walk(0..1_000);
    }

    /// `cargo test --release -p hape-join -- --ignored probe_kernel_oracle`
    #[test]
    #[ignore = "10^5 cases: run in release"]
    fn probe_kernel_oracle_agrees_on_a_hundred_thousand_cases() {
        check_against_chain_walk(1_000..101_000);
    }

    #[test]
    fn layouts_follow_the_keys() {
        let dense: Vec<i32> = (0..1000).rev().collect();
        assert!(ProbeTable::build(&dense).direct);
        let spread: Vec<i32> = (0..1000).map(|i| i * 5).collect();
        assert!(!ProbeTable::build(&spread).direct);
        assert!(!ProbeTable::build(&[]).direct);
        assert!(ProbeTable::build(&[i32::MAX, i32::MAX]).direct);
        assert!(!ProbeTable::build(&[i32::MIN, i32::MAX]).direct);
        let mut co_partition = ProbeTable::default();
        co_partition.rebuild(&dense, 0, true);
        assert!(!co_partition.direct, "asked for buckets");
    }

    #[test]
    fn probes_outside_the_direct_range_miss_and_walk_their_bucket() {
        let build = [i32::MAX - 2, i32::MAX, i32::MAX - 1, i32::MAX];
        let table = ProbeTable::build(&build);
        assert!(table.direct);
        let (mut p, mut b) = (vec![], vec![]);
        let probe = [i32::MIN, i32::MAX, -1, i32::MAX - 3];
        table.probe(&probe, &mut p, &mut b, |_| {});
        assert_eq!((p, b), (vec![1, 1], vec![3, 1]), "duplicates in descending rows");
    }
}
