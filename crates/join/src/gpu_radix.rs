//! The paper's hardware-conscious GPU radix join (§4.1, Figures 3 & 4).
//!
//! **Partitioning pass (Fig. 4):** each block reads a chunk into the
//! scratchpad, histograms partition ids with scratchpad atomics, reorders the
//! chunk so same-partition tuples are contiguous, and scans the scratchpad
//! writing each run to its output partition — consolidating stores so DRAM
//! writes coalesce. Output partitions are linked lists of buffers whose
//! tails are bumped with global atomics (no extra offset-computation scan,
//! unlike \[27\]).
//!
//! **Build & probe (Fig. 3):** one block per co-partition. The Figure 5
//! variants differ in where the join's intermediate structures live:
//!
//! * [`BuildProbeVariant::Sm`] — hash table entirely in the scratchpad
//!   (banked, no over-fetch; random access costs bank conflicts at worst);
//! * [`BuildProbeVariant::SmL1`] — bucket heads in the scratchpad, chain
//!   entries in global memory through L1;
//! * [`BuildProbeVariant::L1`] — everything in global memory through L1,
//!   the "CPU conversion" the paper shows loses: random probes drag whole
//!   lines, and the co-partition scans pollute the cache shared by
//!   co-resident blocks.

use hape_sim::gpu::OutOfGpuMemory;
use hape_sim::spec::GpuSpec;
use hape_sim::{GpuMemPool, GpuSim, KernelReport, LaunchConfig, Region, SimTime};

use crate::common::{shifted, ChainedTable, JoinInput, JoinOutcome, JoinStats, OutputMode};
use crate::cpu_radix::RadixPlan;
use crate::partition::{radix_of, radix_partition_above, RadixPartitions};

/// Device memory the GPU join allocates for its partition tails, whatever
/// the input size — working space the co-partition budget leaves beside
/// each pair ([`crate::coprocess::gpu_budget`]).
pub(crate) const GPU_RADIX_TAILS_BYTES: usize = 1 << 16;

/// Where the build & probe phase keeps the per-partition hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildProbeVariant {
    /// All intermediate structures in the scratchpad (the paper's choice).
    Sm,
    /// Bucket heads in scratchpad, chain entries through L1.
    SmL1,
    /// Everything through L1 (hardware-oblivious placement).
    L1,
}

impl BuildProbeVariant {
    /// Display label matching the paper's Figure 5 legend.
    pub fn label(&self) -> &'static str {
        match self {
            BuildProbeVariant::Sm => "SM",
            BuildProbeVariant::SmL1 => "SM+L1",
            BuildProbeVariant::L1 => "L1",
        }
    }
}

/// Tuples per partitioning-kernel block (one scratchpad staging chunk).
const CHUNK: usize = 4096;
const BLOCK_THREADS: usize = 256;

/// Plan the GPU radix join: total bits so the per-partition table fits the
/// scratchpad budget; per-pass bits bounded by the store-consolidation
/// staging capacity (§4.1 — "fanout based on TLB versus scratchpad
/// capacity").
pub fn plan_radix_gpu(n_rows: usize, spec: &GpuSpec) -> RadixPlan {
    // Open-addressed table of 8-byte (key,val) slots, next-pow2 sized:
    // budget in tuples per partition.
    let budget_tuples = (spec.scratchpad_resident_bytes() / 8).next_power_of_two() / 2;
    let mut total_bits = 0u32;
    while (n_rows >> total_bits) > budget_tuples {
        total_bits += 1;
        if total_bits >= 20 {
            break;
        }
    }
    let total_bits = total_bits.max(1);
    let max_pass_bits = spec.max_partition_fanout().trailing_zeros().max(1);
    let mut pass_bits = Vec::new();
    let mut rem = total_bits;
    while rem > 0 {
        let b = rem.min(max_pass_bits);
        pass_bits.push(b);
        rem -= b;
    }
    RadixPlan { pass_bits, total_bits }
}

/// Charge one GPU partitioning pass (Fig. 4) over `keys`, `bits` wide at
/// `shift`, reading from `input` and scattering into `output`.
///
/// Each block's scatter is priced from its per-partition runs
/// ([`BlockCtx::global_write_runs`](hape_sim::BlockCtx::global_write_runs)),
/// and the staging pattern's conflict cycles are counted once per launch:
/// the report equals the address-list pricing this replaced (kept as the
/// test oracle) bit for bit.
fn charge_partition_pass(
    sim: &GpuSim,
    keys: &[i32],
    shift: u32,
    bits: u32,
    input: Region,
    output: Region,
    tails: Region,
) -> KernelReport {
    let n = keys.len();
    let fanout = 1usize << bits;
    let grid = n.div_ceil(CHUNK).max(1);
    // Scratchpad: staging chunk (8B/tuple) + histogram.
    let smem = (CHUNK * 8 + fanout * 4).min(sim.spec().smem_per_block);
    let cfg = LaunchConfig::new(grid, BLOCK_THREADS, smem);
    // The staging words of a full chunk and of the last, partial one.
    let staging = sim.smem_conflict_cycles(&STAGING_WORDS[..CHUNK.min(n)]);
    let staging_last = sim.smem_conflict_cycles(&STAGING_WORDS[..n - (grid - 1) * CHUNK]);
    // Running output cursor per partition (blocks execute in order in the
    // simulator, so a deterministic cursor reproduces the buffer layout).
    let mut cursors = vec![0u64; fanout];
    // One block's histogram, runs and tails, reused block after block.
    let mut counts = vec![0u32; fanout];
    let mut part_words: Vec<u32> = Vec::with_capacity(n.min(CHUNK));
    let mut runs: Vec<(u64, u64)> = Vec::with_capacity(fanout.min(n));
    let mut touched: Vec<u64> = Vec::with_capacity(fanout.min(n));
    sim.launch(&cfg, |blk| {
        let start = blk.block_idx * CHUNK;
        let end = (start + CHUNK).min(n);
        if start >= end {
            return;
        }
        let cn = (end - start) as u64;
        // Read the chunk (coalesced), compute partition ids.
        blk.global_read_stream(&input, start as u64 * 8, cn * 8);
        blk.compute(cn, 5.0);
        // Histogram in scratchpad: one atomic per tuple on its partition
        // counter — conflicts reflect the actual radix distribution.
        part_words.clear();
        part_words.extend(keys[start..end].iter().map(|&k| radix_of(k, shift, bits) as u32));
        blk.smem_atomic(&part_words);
        // Reorder within the scratchpad: write + read per tuple.
        let staged = if end == n { &staging_last } else { &staging };
        blk.smem_access_counted(staged);
        blk.smem_access_counted(staged);
        // Scatter runs to the output partitions: the real per-chunk
        // histogram's runs, so run lengths (and hence store coalescing) are
        // the actual ones.
        counts.fill(0);
        for &p in &part_words {
            counts[p as usize] += 1;
        }
        runs.clear();
        touched.clear();
        for (p, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let base = (output.bytes / fanout as u64) * p as u64 + cursors[p] * 8;
            runs.push((base, c as u64));
            cursors[p] += c as u64;
            touched.push(p as u64 * 64);
        }
        blk.global_write_runs(&output, &runs, 8);
        // Linked-list tail bumps: one global atomic per touched partition.
        blk.global_atomic(&tails, &touched);
    })
}

/// The scratchpad words a partitioning block's lanes stage their tuples
/// through (`i % 2048`): a fixed pattern, built once.
static STAGING_WORDS: [u32; CHUNK] = {
    let mut out = [0u32; CHUNK];
    let mut i = 0;
    while i < CHUNK {
        out[i] = i as u32 % 2048;
        i += 1;
    }
    out
};

/// Run the build & probe phase (Fig. 3) over already co-partitioned inputs.
///
/// Exposed separately because Figure 5 measures exactly this phase over
/// balanced partitions. Returns the outcome (real matches) plus the kernel
/// report.
pub fn build_probe_phase(
    sim: &GpuSim,
    rp: &RadixPartitions,
    sp: &RadixPartitions,
    variant: BuildProbeVariant,
    mode: OutputMode,
) -> (JoinOutcome, KernelReport) {
    build_probe(sim, rp, sp, 0, variant, mode)
}

/// [`build_probe_phase`] over keys that hash and compare `shift`ed right
/// ([`shifted`]): the phase of a join whose radix starts at `shift`.
fn build_probe(
    sim: &GpuSim,
    rp: &RadixPartitions,
    sp: &RadixPartitions,
    shift: u32,
    variant: BuildProbeVariant,
    mode: OutputMode,
) -> (JoinOutcome, KernelReport) {
    assert_eq!(rp.fanout(), sp.fanout(), "inputs not co-partitioned");
    let fanout = rp.fanout();
    let max_part = rp.max_part_len().max(1);
    let slots = max_part.next_power_of_two() * 2;
    let spec = sim.spec();

    // Scratchpad request decides occupancy — and thereby how many blocks
    // share an L1 (the Fig. 5 pollution mechanism).
    let smem = match variant {
        BuildProbeVariant::Sm => (slots * 8).min(spec.smem_per_block),
        BuildProbeVariant::SmL1 => (slots * 4).min(spec.smem_per_block),
        BuildProbeVariant::L1 => 0,
    };
    let cfg = LaunchConfig::new(fanout, BLOCK_THREADS, smem);

    // Device-memory layout: inputs + (for SmL1/L1) the spilled tables.
    let r_region = Region::at(1 << 24, rp.keys.len() as u64 * 8);
    let s_region = Region::at(1 << 34, sp.keys.len() as u64 * 8);
    let ht_region = Region::at(1 << 44, (rp.keys.len() as u64 * 12).max(1));
    let heads_region = Region::at(1 << 54, (fanout * slots) as u64 * 4);

    let mut stats = JoinStats::default();
    // Sized for a foreign-key join: one match per probe tuple.
    let mut pairs = match mode {
        OutputMode::MatchIndices => {
            Some((Vec::with_capacity(sp.keys.len()), Vec::with_capacity(sp.keys.len())))
        }
        OutputMode::AggregateOnly => None,
    };

    // One co-partition's table and cost lists, reused block after block.
    let mut table = ChainedTable::build(&[]);
    let mut probe_steps: Vec<u32> = Vec::new();
    let mut chain_offs: Vec<u64> = Vec::new();
    let mut bucket_words: Vec<u32> = Vec::new();
    let mut probe_words: Vec<u32> = Vec::new();
    let mut extra: Vec<u32> = Vec::new();
    let mut offs: Vec<u64> = Vec::new();
    let report = sim.launch(&cfg, |blk| {
        let p = blk.block_idx;
        let rpart = rp.part(p);
        let spart = sp.part(p);
        let r_off = rp.offsets[p] as u64 * 8;
        let s_off = sp.offsets[p] as u64 * 8;
        if rpart.is_empty() && spart.is_empty() {
            return;
        }
        // Real join work for this co-partition.
        table.rebuild(rpart.keys, shift);
        probe_steps.clear();
        chain_offs.clear();
        let mut block_matches = 0u64;
        for (&k, &sv) in spart.keys.iter().zip(spart.vals) {
            let k = shifted(k, shift);
            let mut steps = 0u32;
            let mut e = table.heads[crate::common::hash32(k, table.bits) as usize];
            while e != crate::common::NIL {
                steps += 1;
                if variant != BuildProbeVariant::Sm {
                    chain_offs.push(rp.offsets[p] as u64 * 12 + e as u64 * 12);
                }
                if shifted(rpart.keys[e as usize], shift) == k {
                    let rv = rpart.vals[e as usize];
                    stats.record(rv, sv);
                    block_matches += 1;
                    if let Some((pr, ps)) = pairs.as_mut() {
                        pr.push(rv);
                        ps.push(sv);
                    }
                }
                e = table.next[e as usize];
            }
            probe_steps.push(steps);
        }

        // ---- Cost mirroring.
        let nr = rpart.len() as u64;
        let ns = spart.len() as u64;
        // Scan the co-partition from device memory (streams pollute L1).
        blk.global_read_stream(&r_region, r_off, nr * 8);
        blk.global_read_stream(&s_region, s_off, ns * 8);
        blk.compute(nr, 5.0);
        blk.compute(ns, 7.0);
        let hash = |&k: &i32| crate::common::hash32(shifted(k, shift), table.bits);
        bucket_words.clear();
        bucket_words.extend(rpart.keys.iter().map(hash));
        probe_words.clear();
        probe_words.extend(spart.keys.iter().map(hash));
        let heads = |words: &[u32], offs: &mut Vec<u64>| {
            offs.clear();
            offs.extend(words.iter().map(|&w| (p * slots) as u64 * 4 + w as u64 * 4));
        };
        match variant {
            BuildProbeVariant::Sm => {
                // Build: copy tuples into the scratchpad + atomic inserts.
                blk.smem_access(&bucket_words);
                blk.smem_atomic(&bucket_words);
                // Probe: head lookup + chain walk, all in scratchpad.
                blk.smem_access(&probe_words);
                extra.clear();
                extra.extend(
                    probe_words
                        .iter()
                        .zip(&probe_steps)
                        .filter(|(_, &st)| st > 1)
                        .map(|(&w, _)| w + 1),
                );
                blk.smem_access(&extra);
            }
            BuildProbeVariant::SmL1 => {
                // Heads in scratchpad; entries written to / read from global.
                blk.smem_atomic(&bucket_words);
                blk.global_write_stream(nr * 12);
                blk.smem_access(&probe_words);
                blk.global_read(&ht_region, &chain_offs, 12);
            }
            BuildProbeVariant::L1 => {
                // Heads and entries in global memory.
                heads(&bucket_words, &mut offs);
                blk.global_atomic(&heads_region, &offs);
                blk.global_write_stream(nr * 12);
                heads(&probe_words, &mut offs);
                blk.global_read(&heads_region, &offs, 4);
                blk.global_read(&ht_region, &chain_offs, 12);
            }
        }
        if mode == OutputMode::MatchIndices {
            blk.global_write_stream(block_matches * 8);
        } else {
            // Buffered aggregate: warp reduction + one atomic per block.
            blk.compute(ns, 1.0);
        }
    });

    let outcome = JoinOutcome { stats, pairs, time: report.time };
    (outcome, report)
}

/// Full GPU radix join over GPU-resident inputs: plan, partition both sides
/// (charging each pass), then build & probe with the chosen variant.
pub fn gpu_radix(
    sim: &GpuSim,
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    variant: BuildProbeVariant,
    mode: OutputMode,
) -> Result<JoinOutcome, OutOfGpuMemory> {
    gpu_radix_with_shift(sim, r, s, 0, variant, mode)
}

/// GPU radix join whose radix starts at `shift` — the co-processing join
/// uses this to continue partitioning where the CPU side left off (§5).
pub fn gpu_radix_with_shift(
    sim: &GpuSim,
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    shift: u32,
    variant: BuildProbeVariant,
    mode: OutputMode,
) -> Result<JoinOutcome, OutOfGpuMemory> {
    let mut pool = GpuMemPool::for_spec(sim.spec());
    // Inputs + double buffers for the out-of-place partition passes.
    let r_in = pool.alloc(r.bytes().max(8))?;
    let s_in = pool.alloc(s.bytes().max(8))?;
    let r_out = pool.alloc(r.bytes().max(8))?;
    let s_out = pool.alloc(s.bytes().max(8))?;
    let tails = pool.alloc(GPU_RADIX_TAILS_BYTES as u64)?;

    let plan = plan_radix_gpu(r.len().max(2), sim.spec());
    let max_pass_bits = *plan.pass_bits.iter().max().unwrap_or(&1);

    // The radix applies above the CPU-consumed bits: every pass reads the
    // keys in place at `shift` more bits.
    let mut time = SimTime::ZERO;
    // Charge the partition passes for both inputs.
    let mut pass_shift = plan.total_bits;
    for &bits in &plan.pass_bits {
        pass_shift -= bits;
        let rep_r = charge_partition_pass(
            sim,
            r.keys,
            shift + pass_shift,
            bits,
            r_in.region,
            r_out.region,
            tails.region,
        );
        let rep_s = charge_partition_pass(
            sim,
            s.keys,
            shift + pass_shift,
            bits,
            s_in.region,
            s_out.region,
            tails.region,
        );
        time += rep_r.time + rep_s.time;
    }
    // Functional partitioning (once, multi-pass-equivalent result).
    let (rp, _) = radix_partition_above(r, shift, plan.total_bits, max_pass_bits);
    let (sp, _) = radix_partition_above(s, shift, plan.total_bits, max_pass_bits);

    let (mut outcome, _report) = build_probe(sim, &rp, &sp, shift, variant, mode);
    outcome.time += time;

    pool.free(r_in);
    pool.free(s_in);
    pool.free(r_out);
    pool.free(s_out);
    pool.free(tails);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_join;
    use crate::partition::radix_partition;
    use hape_sim::{Fidelity, GpuSim};
    use hape_storage::datagen::{gen_balanced_partition_keys, gen_unique_keys};

    fn sim() -> GpuSim {
        GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Analytic)
    }

    /// The partitioning pass as priced before runs, kept as the oracle of
    /// [`charge_partition_pass`]: one address per tuple, sectors counted per
    /// warp from the address list, the staging pattern's conflicts counted
    /// in every block.
    fn charge_partition_pass_by_addresses(
        sim: &GpuSim,
        keys: &[i32],
        shift: u32,
        bits: u32,
        input: Region,
        output: Region,
        tails: Region,
    ) -> KernelReport {
        let n = keys.len();
        let fanout = 1usize << bits;
        let grid = n.div_ceil(CHUNK).max(1);
        let smem = (CHUNK * 8 + fanout * 4).min(sim.spec().smem_per_block);
        let cfg = LaunchConfig::new(grid, BLOCK_THREADS, smem);
        let mut cursors = vec![0u64; fanout];
        sim.launch(&cfg, |blk| {
            let start = blk.block_idx * CHUNK;
            let end = (start + CHUNK).min(n);
            if start >= end {
                return;
            }
            let cn = (end - start) as u64;
            blk.global_read_stream(&input, start as u64 * 8, cn * 8);
            blk.compute(cn, 5.0);
            let part_words: Vec<u32> =
                keys[start..end].iter().map(|&k| radix_of(k, shift, bits) as u32).collect();
            blk.smem_atomic(&part_words);
            let lane_words = &STAGING_WORDS[..end - start];
            blk.smem_access(lane_words);
            blk.smem_access(lane_words);
            let mut counts = vec![0u32; fanout];
            for &p in &part_words {
                counts[p as usize] += 1;
            }
            let (mut addrs, mut touched) = (Vec::new(), Vec::new());
            for (p, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let base = (output.bytes / fanout as u64) * p as u64 + cursors[p] * 8;
                addrs.extend((0..c as u64).map(|i| base + i * 8));
                cursors[p] += c as u64;
                touched.push(p as u64 * 64);
            }
            blk.global_write(&output, &addrs, 8);
            blk.global_atomic(&tails, &touched);
        })
    }

    /// Seeded partitioning launches priced by runs and by the address-list
    /// oracle: whole reports equal bit for bit. Keys are uniform over a
    /// small and the full domain, Zipf, or nine in ten in one partition (its
    /// run overflows into the next partition's output range); lengths leave
    /// a partial final chunk almost always; bits 1–9, shifts 0–4; the paper
    /// GPU and a 2-SM GPU, at both fidelities (the exact replay on up to
    /// 5 000 keys).
    fn check_partition_pass_against_oracle(cases: std::ops::Range<u64>) {
        use hape_storage::datagen::{gen_uniform_i32, gen_zipf_i32};
        let narrow = GpuSpec { sms: 2, max_threads_per_sm: 512, ..GpuSpec::gtx_1080() };
        for case in cases {
            // splitmix64: independent draws per case.
            let mut state = case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut draw = |m: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % m
            };
            let spec = if draw(2) == 0 { GpuSpec::gtx_1080() } else { narrow.clone() };
            let exact = draw(8) == 0;
            let fidelity = if exact { Fidelity::Exact } else { Fidelity::Analytic };
            let n = 1 + draw(if exact { 5_000 } else { 20_000 }) as usize;
            let (shift, bits) = (draw(5) as u32, 1 + draw(9) as u32);
            let seed = draw(1 << 32);
            let keys = match draw(4) {
                0 => gen_uniform_i32(n, 1 + draw(5_000) as i32, seed),
                1 => gen_uniform_i32(n, i32::MAX, seed),
                2 => gen_zipf_i32(n, 5_000, 0.9, seed),
                _ => {
                    let hot = (draw(1 << bits) as i32) << shift;
                    let mut keys = gen_uniform_i32(n, i32::MAX, seed);
                    keys.iter_mut().filter(|k| **k % 10 != 0).for_each(|k| *k = hot);
                    keys
                }
            };
            let sim = GpuSim::new(spec, fidelity);
            let base = 128 * (1 + draw(1 << 20));
            let (input, output) =
                (Region::at(1 << 24, n as u64 * 8), Region::at(base << 10, n as u64 * 8));
            let tails = Region::at(1 << 44, 1 << 16);
            let by_runs = charge_partition_pass(&sim, &keys, shift, bits, input, output, tails);
            let oracle = charge_partition_pass_by_addresses(
                &sim, &keys, shift, bits, input, output, tails,
            );
            assert_eq!(
                KernelReport::digest(&[by_runs]),
                KernelReport::digest(&[oracle]),
                "case {case}: n={n} shift={shift} bits={bits} {fidelity:?}\n{by_runs:?}\n{oracle:?}"
            );
        }
    }

    #[test]
    fn partition_pass_oracle_agrees_on_a_thousand_launches() {
        check_partition_pass_against_oracle(0..1_000);
    }

    /// `cargo test --release -p hape-join -- --ignored partition_pass_oracle`
    #[test]
    #[ignore = "10^5 launches: run in release"]
    fn partition_pass_oracle_agrees_on_a_hundred_thousand_launches() {
        check_partition_pass_against_oracle(1_000..101_000);
    }

    /// The partitioning pass's and the build & probe phase's whole reports
    /// on seeded keys (uniform over a small and a large domain, skewed),
    /// every variant, both fidelities (the exact replay on up to 4 000
    /// keys), on the paper's GPU and on a 2-SM GPU whose two-block waves
    /// complete mid-grid — pinned from before the warp counters' fast paths
    /// and the reused kernel buffers.
    #[test]
    fn partition_and_build_probe_reports_are_pinned_bit_for_bit() {
        use hape_storage::datagen::{gen_uniform_i32, gen_zipf_i32};
        let narrow = GpuSpec { sms: 2, max_threads_per_sm: 512, ..GpuSpec::gtx_1080() };
        let mut reports = Vec::new();
        for case in 0..24u64 {
            let spec = if case % 2 == 0 { GpuSpec::gtx_1080() } else { narrow.clone() };
            let fidelity = if case % 4 < 2 { Fidelity::Analytic } else { Fidelity::Exact };
            let sim = GpuSim::new(spec, fidelity);
            // The exact replay is the slow one: smaller inputs.
            let n = 1 + (case as usize * 7919) % [30_000, 4_000][(case % 4 / 2) as usize];
            let keys = match case % 3 {
                0 => gen_uniform_i32(n, 300, case),
                1 => gen_uniform_i32(n, i32::MAX, case),
                _ => gen_zipf_i32(n, 5_000, 0.9, case),
            };
            let vals: Vec<u32> = (0..n as u32).collect();
            let (shift, bits) = ((case % 5) as u32, 1 + (case % 9) as u32);
            let (input, output) =
                (Region::at(1 << 24, n as u64 * 8), Region::at(1 << 34, n as u64 * 8));
            reports.push(charge_partition_pass(
                &sim,
                &keys,
                shift,
                bits,
                input,
                output,
                Region::at(1 << 44, 1 << 16),
            ));
            let (rp, _) = radix_partition(JoinInput::new(&keys, &vals), bits, bits);
            let probe = &keys[..n / 2];
            let (sp, _) = radix_partition(JoinInput::new(probe, &vals[..n / 2]), bits, bits);
            for variant in
                [BuildProbeVariant::Sm, BuildProbeVariant::SmL1, BuildProbeVariant::L1]
            {
                reports.push(
                    build_probe_phase(&sim, &rp, &sp, variant, OutputMode::AggregateOnly).1,
                );
            }
        }
        assert_eq!(KernelReport::digest(&reports), 0x7d09_809e_0e4a_80d4);
    }

    #[test]
    fn plan_targets_scratchpad_residency() {
        let spec = GpuSpec::gtx_1080();
        let plan = plan_radix_gpu(32 << 20, &spec);
        assert!(plan.passes() >= 2, "32M tuples need multiple passes: {plan:?}");
        let per_part = (32usize << 20) >> plan.total_bits;
        assert!(per_part.next_power_of_two() * 2 * 8 <= spec.smem_per_block * 2);
    }

    #[test]
    fn all_variants_match_reference() {
        let n = 1 << 13;
        let rk = gen_unique_keys(n, 51);
        let sk = gen_unique_keys(n, 52);
        let rv: Vec<u32> = (0..n as u32).collect();
        let sv: Vec<u32> = (0..n as u32).map(|i| i + 7).collect();
        let r = JoinInput::new(&rk, &rv);
        let s = JoinInput::new(&sk, &sv);
        let reference = reference_join(r, s);
        for variant in [BuildProbeVariant::Sm, BuildProbeVariant::SmL1, BuildProbeVariant::L1] {
            let out = gpu_radix(&sim(), r, s, variant, OutputMode::MatchIndices).unwrap();
            assert_eq!(out.stats, reference.stats, "{variant:?}");
            assert_eq!(out.sorted_pairs(), reference.sorted_pairs(), "{variant:?}");
        }
    }

    #[test]
    fn scratchpad_beats_l1_in_exact_mode() {
        // The Figure 5 headline: with balanced co-partitions, the SM variant
        // outruns the L1 variant.
        let n = 1 << 16;
        let bits = 5; // 2048-element partitions
        let keys = gen_balanced_partition_keys(n, bits, 3);
        let vals: Vec<u32> = (0..n as u32).collect();
        let input = JoinInput::new(&keys, &vals);
        let (rp, _) = radix_partition(input, bits, bits);
        let (sp, _) = radix_partition(input, bits, bits);
        let exact = GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Exact);
        let (sm, _) = build_probe_phase(
            &exact,
            &rp,
            &sp,
            BuildProbeVariant::Sm,
            OutputMode::AggregateOnly,
        );
        let (l1, _) = build_probe_phase(
            &exact,
            &rp,
            &sp,
            BuildProbeVariant::L1,
            OutputMode::AggregateOnly,
        );
        assert_eq!(sm.stats, l1.stats);
        assert!(
            l1.time.as_secs() > 1.2 * sm.time.as_secs(),
            "L1 {} !> SM {}",
            l1.time,
            sm.time
        );
    }

    #[test]
    fn shifted_radix_for_coprocessing() {
        // After a CPU pass on the low 2 bits, the GPU joins a co-partition
        // whose keys share those bits; the shifted join must still be exact.
        let n = 1 << 12;
        let keys: Vec<i32> = gen_unique_keys(n, 9).iter().map(|k| k * 4).collect(); // low 2 bits zero
        let vals: Vec<u32> = (0..n as u32).collect();
        let r = JoinInput::new(&keys, &vals);
        let out = gpu_radix_with_shift(
            &sim(),
            r,
            r,
            2,
            BuildProbeVariant::Sm,
            OutputMode::AggregateOnly,
        )
        .unwrap();
        assert_eq!(out.stats.matches, n as u64);
    }

    #[test]
    fn oom_on_tiny_gpu() {
        let tiny = GpuSim::new(GpuSpec::gtx_1080_scaled(1.0 / 8192.0), Fidelity::Analytic);
        let n = 1 << 16;
        let rk = gen_unique_keys(n, 1);
        let rv = vec![0u32; n];
        let r = JoinInput::new(&rk, &rv);
        assert!(
            gpu_radix(&tiny, r, r, BuildProbeVariant::Sm, OutputMode::AggregateOnly).is_err()
        );
    }
}
