//! SIMT kernel launch framework and cost accounting.

use crate::cache::SetAssocCache;
use crate::spec::GpuSpec;
use crate::time::SimTime;

use super::coalesce::distinct_chunks;
use super::scratchpad::{atomic_cycles, each_warp_conflict_cycles};
use super::{Fidelity, Region};

/// Sector size for scattered global writes (GDDR write granularity).
const SECTOR: u64 = 32;

/// Kernel launch geometry.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Scratchpad bytes per block.
    pub smem_per_block: usize,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(grid: usize, block_threads: usize, smem_per_block: usize) -> Self {
        LaunchConfig { grid, block_threads, smem_per_block }
    }
}

/// Aggregate statistics of one kernel execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Bytes moved to/from device DRAM.
    pub dram_bytes: f64,
    /// L1 hits (exact mode only).
    pub l1_hits: u64,
    /// L1 misses (exact mode only).
    pub l1_misses: u64,
    /// L2 hits (exact mode only).
    pub l2_hits: u64,
    /// L2 misses (exact mode only).
    pub l2_misses: u64,
    /// Warp-level scratchpad operations issued.
    pub smem_ops: u64,
    /// Scratchpad cycles spent, including conflicts.
    pub smem_cycles: u64,
    /// Global memory transactions (lines/sectors) issued.
    pub global_transactions: u64,
    /// Warp instructions of compute issued.
    pub warp_instructions: u64,
    /// Thread blocks executed.
    pub blocks: u64,
}

/// Result of a kernel launch: the simulated time plus its statistics.
#[derive(Debug, Clone, Copy)]
pub struct KernelReport {
    /// Simulated kernel duration (including launch overhead).
    pub time: SimTime,
    /// The busiest SM's accumulated time.
    pub sm_time: SimTime,
    /// Device-level DRAM-bandwidth time.
    pub dram_time: SimTime,
    /// Execution statistics.
    pub stats: KernelStats,
}

impl KernelReport {
    /// FNV-1a over every field of `reports`, bit for bit: one number that
    /// pins whole reports in tests.
    #[doc(hidden)]
    pub fn digest(reports: &[KernelReport]) -> u64 {
        let words = reports.iter().flat_map(|r| {
            let KernelStats {
                dram_bytes,
                l1_hits,
                l1_misses,
                l2_hits,
                l2_misses,
                smem_ops,
                smem_cycles,
                global_transactions,
                warp_instructions,
                blocks,
            } = r.stats;
            [r.time, r.sm_time, r.dram_time]
                .map(|t| t.as_secs().to_bits())
                .into_iter()
                .chain([dram_bytes.to_bits(), l1_hits, l1_misses, l2_hits, l2_misses])
                .chain([smem_ops, smem_cycles, global_transactions, warp_instructions, blocks])
        });
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    }
}

/// What one warp memory operation recorded, for exact-mode replay.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    /// A read of one 128-byte line (probes L1 then L2).
    ReadLine(u64),
    /// A write of one 32-byte sector (probes L2 only; write-through L1).
    WriteSector(u64),
}

/// Per-block record produced by running the kernel body.
struct BlockRecord {
    compute_ns: f64,
    smem_ns: f64,
    /// Memory-issue time already settled (analytic mode).
    mem_ns: f64,
    dram_bytes: f64,
    trace: Vec<TraceOp>,
    stats: KernelStats,
}

/// Execution context handed to the kernel body, once per thread block.
///
/// The body performs its real work on host data and mirrors every memory
/// operation through these methods so the simulator can charge time. Slices
/// passed to the gather/scatter methods may be longer than a warp — they are
/// chunked into warps internally.
pub struct BlockCtx<'a> {
    /// Index of this block within the grid.
    pub block_idx: usize,
    /// Number of blocks in the grid.
    pub grid: usize,
    /// Threads per block.
    pub threads: usize,
    spec: &'a GpuSpec,
    fidelity: Fidelity,
    /// Concurrently resident blocks per SM for this launch.
    occupancy: usize,
    rec: BlockRecord,
}

impl<'a> BlockCtx<'a> {
    fn new(
        spec: &'a GpuSpec,
        fidelity: Fidelity,
        occupancy: usize,
        block_idx: usize,
        cfg: &LaunchConfig,
    ) -> Self {
        BlockCtx {
            block_idx,
            grid: cfg.grid,
            threads: cfg.block_threads,
            spec,
            fidelity,
            occupancy,
            rec: BlockRecord {
                compute_ns: 0.0,
                smem_ns: 0.0,
                mem_ns: 0.0,
                dram_bytes: 0.0,
                trace: Vec::new(),
                stats: KernelStats { blocks: 1, ..KernelStats::default() },
            },
        }
    }

    /// The device spec this block runs on.
    pub fn spec(&self) -> &GpuSpec {
        self.spec
    }

    /// Charge `n_items` of per-thread work at `ops` instructions each.
    ///
    /// The SM issues warp instructions at `lanes_per_sm / warp` per cycle.
    pub fn compute(&mut self, n_items: u64, ops: f64) {
        let warp_instrs = (n_items as f64 / self.spec.warp as f64) * ops;
        let issue_per_cycle = (self.spec.lanes_per_sm / self.spec.warp) as f64;
        self.rec.compute_ns += warp_instrs / issue_per_cycle * self.spec.cycle_ns();
        self.rec.stats.warp_instructions += warp_instrs as u64;
    }

    /// Warp-chunked scratchpad read/write at the given bank-word indices.
    pub fn smem_access(&mut self, words: &[u32]) {
        let (spec, rec) = (self.spec, &mut self.rec);
        each_warp_conflict_cycles(words, spec.warp, spec.smem_banks, |cycles| {
            charge_smem_cycles(spec, rec, cycles);
        });
    }

    /// [`BlockCtx::smem_access`] of words whose per-warp conflict cycles
    /// were counted beforehand ([`GpuSim::smem_conflict_cycles`]) — a fixed
    /// pattern many blocks repeat: each warp is charged in order, exactly as
    /// `smem_access` charges it.
    pub fn smem_access_counted(&mut self, warp_cycles: &[u32]) {
        for &cycles in warp_cycles {
            charge_smem_cycles(self.spec, &mut self.rec, cycles);
        }
    }

    /// Warp-chunked scratchpad atomic at the given bank-word indices.
    pub fn smem_atomic(&mut self, words: &[u32]) {
        for warp in words.chunks(self.spec.warp) {
            let cycles = atomic_cycles(warp, self.spec.smem_banks);
            self.rec.smem_ns += cycles as f64 * self.spec.atomic_ns;
            self.rec.stats.smem_ops += 1;
            self.rec.stats.smem_cycles += cycles as u64;
        }
    }

    /// Warp-chunked gather: each element reads `access_bytes` at
    /// `region.base + offset`. Charges one transaction per distinct line.
    pub fn global_read(&mut self, region: &Region, byte_offsets: &[u64], access_bytes: u32) {
        let line = self.spec.l1.line as u64;
        for warp in byte_offsets.chunks(self.spec.warp) {
            // An access may straddle a line; charge the first line (the
            // straddle fraction is negligible at 4–16B accesses).
            let (addrs, n) = warp_addresses(region, warp);
            self.read_lines(region, &addrs[..n], line, access_bytes);
        }
    }

    fn read_lines(&mut self, region: &Region, addrs: &[u64], line: u64, _access_bytes: u32) {
        match self.fidelity {
            Fidelity::Exact => {
                for l in distinct_chunks(addrs, line) {
                    self.rec.trace.push(TraceOp::ReadLine(l));
                    self.rec.stats.global_transactions += 1;
                }
            }
            Fidelity::Analytic => {
                let lines = distinct_chunks(addrs, line).count() as f64;
                self.rec.stats.global_transactions += lines as u64;
                let (f_l1, f_l2, f_dram) = self.residency(region.bytes);
                self.rec.mem_ns += lines * self.spec.l1_access_ns;
                self.rec.mem_ns += lines * (f_l2 + f_dram) * self.spec.l2_access_ns;
                self.rec.dram_bytes += lines * f_dram * line as f64;
                // Account approximate hit statistics for observability.
                self.rec.stats.l1_hits += (lines * f_l1) as u64;
                self.rec.stats.l1_misses += (lines * (f_l2 + f_dram)) as u64;
                self.rec.stats.l2_hits += (lines * f_l2) as u64;
                self.rec.stats.l2_misses += (lines * f_dram) as u64;
            }
        }
    }

    /// Warp-chunked scatter: each element writes `access_bytes` at
    /// `region.base + offset`. GPU L1 is write-through: sectors go to L2.
    pub fn global_write(&mut self, region: &Region, byte_offsets: &[u64], access_bytes: u32) {
        let _ = access_bytes;
        for warp in byte_offsets.chunks(self.spec.warp) {
            let (addrs, n) = warp_addresses(region, warp);
            let addrs = &addrs[..n];
            match self.fidelity {
                Fidelity::Exact => {
                    for s in distinct_chunks(addrs, SECTOR) {
                        self.rec.trace.push(TraceOp::WriteSector(s));
                        self.rec.stats.global_transactions += 1;
                    }
                }
                Fidelity::Analytic => {
                    self.write_sectors(region, distinct_chunks(addrs, SECTOR).count() as u64);
                }
            }
        }
    }

    /// [`BlockCtx::global_write`] of runs: `(offset, count)` is `count`
    /// consecutive `access_bytes`-wide slots from `offset`, and the offsets
    /// are the runs' slots in order, warp-chunked across run boundaries.
    ///
    /// The analytic model counts each warp's sectors from its run segments
    /// without listing an address: a segment of consecutive slots no wider
    /// than a sector touches every sector from its first slot's to its
    /// last's, so the warp's sectors are the union of its segments' sector
    /// ranges — merged, because segments need not ascend or stay apart (a
    /// radix partition's cursor may run into the next partition's range).
    /// The count, hence every charge, equals `global_write`'s. The exact
    /// replay needs each sector in first-touch order, so it lists one warp
    /// of addresses at a time.
    pub fn global_write_runs(
        &mut self,
        region: &Region,
        runs: &[(u64, u64)],
        access_bytes: u32,
    ) {
        let stride = access_bytes as u64;
        assert!(stride > 0 && stride <= SECTOR, "run slots are at most one sector wide");
        let warp = self.spec.warp;
        if self.fidelity == Fidelity::Exact {
            let (mut offs, mut lanes) = ([0u64; 64], 0);
            for &(offset, count) in runs {
                for i in 0..count {
                    offs[lanes] = offset + i * stride;
                    lanes += 1;
                    if lanes == warp {
                        self.global_write(region, &offs[..lanes], access_bytes);
                        lanes = 0;
                    }
                }
            }
            if lanes > 0 {
                self.global_write(region, &offs[..lanes], access_bytes);
            }
            return;
        }
        // Each warp's segments as inclusive sector ranges.
        let (mut spans, mut n_spans, mut lanes) = ([(0u64, 0u64); 64], 0, 0);
        for &(offset, count) in runs {
            let (mut at, mut left) = (region.base + offset, count);
            while left > 0 {
                let take = left.min((warp - lanes) as u64);
                spans[n_spans] = (at / SECTOR, (at + (take - 1) * stride) / SECTOR);
                n_spans += 1;
                lanes += take as usize;
                (at, left) = (at + take * stride, left - take);
                if lanes == warp {
                    self.write_sectors(region, union_len(&mut spans[..n_spans]));
                    (n_spans, lanes) = (0, 0);
                }
            }
        }
        if lanes > 0 {
            self.write_sectors(region, union_len(&mut spans[..n_spans]));
        }
    }

    /// The analytic charge of one warp's scatter touching `sectors` sectors.
    fn write_sectors(&mut self, region: &Region, sectors: u64) {
        let sectors = sectors as f64;
        self.rec.stats.global_transactions += sectors as u64;
        let f_l2 = (self.spec.l2.size as f64 / region.bytes.max(1) as f64).min(1.0);
        self.rec.mem_ns += sectors * self.spec.l1_access_ns;
        self.rec.dram_bytes += sectors * (1.0 - f_l2) * SECTOR as f64;
    }

    /// Warp-chunked global atomic (e.g. linked-list tail bumps). Charged as
    /// an L2 transaction plus serialisation for same-address conflicts.
    pub fn global_atomic(&mut self, region: &Region, byte_offsets: &[u64]) {
        for warp in byte_offsets.chunks(self.spec.warp) {
            // Same-address multiplicity within the warp.
            let mut max_same = 1u32;
            for a in warp {
                max_same = max_same.max(warp.iter().filter(|&b| b == a).count() as u32);
            }
            let (addrs, n) = warp_addresses(region, warp);
            let lines = distinct_chunks(&addrs[..n], self.spec.l2.line as u64).count() as f64;
            self.rec.mem_ns +=
                lines * self.spec.l2_access_ns + max_same as f64 * self.spec.atomic_ns;
            self.rec.stats.global_transactions += lines as u64;
        }
    }

    /// Streaming (fully coalesced) read of `bytes` starting at `offset`
    /// within `region`. In exact mode the stream flows through L1, modelling
    /// the cache pollution the paper attributes to scanning co-partitions.
    pub fn global_read_stream(&mut self, region: &Region, offset: u64, bytes: u64) {
        let line = self.spec.l1.line as u64;
        let first = (region.base + offset) / line;
        let last = (region.base + offset + bytes.max(1) - 1) / line;
        let n_lines = last - first + 1;
        match self.fidelity {
            Fidelity::Exact => {
                for l in first..=last {
                    self.rec.trace.push(TraceOp::ReadLine(l));
                }
                self.rec.stats.global_transactions += n_lines;
            }
            Fidelity::Analytic => {
                self.rec.mem_ns += n_lines as f64 * self.spec.l1_access_ns;
                self.rec.dram_bytes += bytes as f64;
                self.rec.stats.global_transactions += n_lines;
                self.rec.stats.l1_misses += n_lines;
                self.rec.stats.l2_misses += n_lines;
            }
        }
    }

    /// Streaming (fully coalesced) write of `bytes`; bypasses caches.
    pub fn global_write_stream(&mut self, bytes: u64) {
        let line = self.spec.l1.line as u64;
        let n_lines = bytes.div_ceil(line);
        self.rec.mem_ns += n_lines as f64 * self.spec.l1_access_ns;
        self.rec.dram_bytes += bytes as f64;
        self.rec.stats.global_transactions += n_lines;
    }

    /// Analytic residency blend for a random access into `region_bytes`.
    ///
    /// L1 is shared by co-resident blocks, so its effective per-block size
    /// shrinks with occupancy; a pollution factor accounts for streaming
    /// traffic flowing through it.
    fn residency(&self, region_bytes: u64) -> (f64, f64, f64) {
        let ws = region_bytes.max(1) as f64;
        let l1_eff = self.spec.l1.size as f64 / self.occupancy as f64 * 0.5;
        let f_l1 = (l1_eff / ws).min(1.0);
        let l2_resident = (self.spec.l2.size as f64 / ws).min(1.0);
        let f_l2 = (l2_resident - f_l1).max(0.0);
        let f_dram = (1.0 - f_l1 - f_l2).max(0.0);
        (f_l1, f_l2, f_dram)
    }
}

/// Charge one warp's scratchpad access of `cycles` cycles.
fn charge_smem_cycles(spec: &GpuSpec, rec: &mut BlockRecord, cycles: u32) {
    rec.smem_ns += cycles as f64 * spec.smem_cycle_ns;
    rec.stats.smem_ops += 1;
    rec.stats.smem_cycles += cycles as u64;
}

/// How many integers the inclusive ranges `spans` cover together (sorts
/// them in place when they do not ascend).
fn union_len(spans: &mut [(u64, u64)]) -> u64 {
    if !spans.is_sorted() {
        spans.sort_unstable();
    }
    // Ascending starts: a range adds what lies past the highest end so far.
    let (mut total, mut next) = (0, 0);
    for &(lo, hi) in spans.iter() {
        let from = lo.max(next);
        if hi >= from {
            total += hi - from + 1;
            next = hi + 1;
        }
    }
    total
}

/// One warp's byte addresses, on the stack.
fn warp_addresses(region: &Region, warp: &[u64]) -> ([u64; 64], usize) {
    let mut addrs = [0u64; 64];
    for (a, off) in addrs.iter_mut().zip(warp) {
        *a = region.base + off;
    }
    (addrs, warp.len())
}

/// The GPU simulator: executes kernels and reports simulated time.
#[derive(Debug, Clone)]
pub struct GpuSim {
    spec: GpuSpec,
    fidelity: Fidelity,
}

impl GpuSim {
    /// Simulator over `spec` at the given fidelity.
    pub fn new(spec: GpuSpec, fidelity: Fidelity) -> Self {
        GpuSim { spec, fidelity }
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The memory-model fidelity.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The conflict cycles of each warp-sized chunk of `words`, in order —
    /// what [`BlockCtx::smem_access`] would charge for them, counted once
    /// for [`BlockCtx::smem_access_counted`] to charge in every block that
    /// repeats the pattern.
    pub fn smem_conflict_cycles(&self, words: &[u32]) -> Vec<u32> {
        let mut cycles = Vec::with_capacity(words.len().div_ceil(self.spec.warp));
        each_warp_conflict_cycles(words, self.spec.warp, self.spec.smem_banks, |c| {
            cycles.push(c);
        });
        cycles
    }

    /// Launch a kernel: run `body` for every block in the grid, then account
    /// time per the throughput model described in the module docs.
    ///
    /// Block `b` runs on SM `b mod sms`; an SM's blocks form waves of
    /// `occupancy` co-resident blocks, and a wave is settled when it is full
    /// (then each SM's partial wave, in SM order) — the exact replay needs a
    /// whole wave before it can price one. Each SM's time is the sum of its
    /// blocks' times in block order, and the kernel's DRAM bytes are summed
    /// in the order the waves are settled.
    pub fn launch(
        &self,
        cfg: &LaunchConfig,
        mut body: impl FnMut(&mut BlockCtx<'_>),
    ) -> KernelReport {
        assert!(cfg.grid > 0, "empty grid");
        assert!(cfg.block_threads > 0 && cfg.block_threads <= 1024);
        assert!(
            cfg.smem_per_block <= self.spec.smem_per_block,
            "smem request {} exceeds per-block limit {}",
            cfg.smem_per_block,
            self.spec.smem_per_block
        );
        assert!(
            self.spec.warp <= 64 && self.spec.smem_banks <= 64,
            "the warp counters model up to 64 lanes and 64 banks"
        );
        let occ = self.spec.occupancy(cfg.block_threads, cfg.smem_per_block);
        let sms = self.spec.sms;
        // Only the exact replay reads the caches (two 128 KB L2 tag vectors
        // per launch on the paper testbed); the analytic model never does.
        let mut caches = (self.fidelity == Fidelity::Exact).then(|| {
            let l1s: Vec<SetAssocCache> =
                (0..sms).map(|_| SetAssocCache::new(self.spec.l1)).collect();
            (l1s, SetAssocCache::new(self.spec.l2))
        });
        let mut sm_ns = vec![0.0f64; sms];
        let mut stats = KernelStats::default();
        let mut total_dram = 0.0f64;
        // Pending (unsettled) blocks per SM: at most one wave each.
        let mut pending: Vec<Vec<BlockRecord>> = (0..sms).map(|_| Vec::new()).collect();
        let mut settle_wave =
            |sm: usize, wave: &mut Vec<BlockRecord>, stats: &mut KernelStats| {
                if let Some((l1s, l2)) = &mut caches {
                    Self::replay_wave(&self.spec, &mut l1s[sm], l2, wave, stats);
                }
                for rec in wave.drain(..) {
                    stats.smem_ops += rec.stats.smem_ops;
                    stats.smem_cycles += rec.stats.smem_cycles;
                    stats.global_transactions += rec.stats.global_transactions;
                    stats.warp_instructions += rec.stats.warp_instructions;
                    stats.blocks += rec.stats.blocks;
                    // Only the analytic model counts hits per block; the replay
                    // counts them into `stats` directly.
                    stats.l1_hits += rec.stats.l1_hits;
                    stats.l1_misses += rec.stats.l1_misses;
                    stats.l2_hits += rec.stats.l2_hits;
                    stats.l2_misses += rec.stats.l2_misses;
                    // The slowest of the block's three overlapped lanes plus its
                    // share of the scheduling overhead.
                    sm_ns[sm] += rec.compute_ns.max(rec.smem_ns).max(rec.mem_ns)
                        + self.spec.block_overhead_ns / occ as f64;
                    total_dram += rec.dram_bytes;
                }
            };

        for b in 0..cfg.grid {
            let mut ctx = BlockCtx::new(&self.spec, self.fidelity, occ, b, cfg);
            body(&mut ctx);
            let sm = b % sms;
            pending[sm].push(ctx.rec);
            if pending[sm].len() == occ {
                settle_wave(sm, &mut pending[sm], &mut stats);
            }
        }
        for (sm, wave) in pending.iter_mut().enumerate() {
            settle_wave(sm, wave, &mut stats);
        }

        stats.dram_bytes = total_dram;
        let sm_time = SimTime::from_ns(sm_ns.iter().copied().fold(0.0, f64::max));
        let dram_time = SimTime::from_secs(total_dram / self.spec.dram_bw);
        let time = sm_time.max(dram_time) + SimTime::from_ns(self.spec.launch_overhead_ns);
        KernelReport { time, sm_time, dram_time, stats }
    }

    /// Replay one wave of co-resident blocks through the SM's L1 and the
    /// shared L2, interleaving their access streams round-robin — this is
    /// what makes co-resident blocks pollute each other's L1 (Fig. 5).
    fn replay_wave(
        spec: &GpuSpec,
        l1: &mut SetAssocCache,
        l2: &mut SetAssocCache,
        wave: &mut [BlockRecord],
        stats: &mut KernelStats,
    ) {
        let max_len = wave.iter().map(|r| r.trace.len()).max().unwrap_or(0);
        for i in 0..max_len {
            for rec in wave.iter_mut() {
                let Some(&op) = rec.trace.get(i) else { continue };
                match op {
                    TraceOp::ReadLine(line) => {
                        if l1.access_line(line) == crate::cache::AccessOutcome::Hit {
                            rec.mem_ns += spec.l1_access_ns;
                            stats.l1_hits += 1;
                        } else {
                            stats.l1_misses += 1;
                            rec.mem_ns += spec.l1_access_ns + spec.l2_access_ns;
                            if l2.access_line(line) == crate::cache::AccessOutcome::Hit {
                                stats.l2_hits += 1;
                            } else {
                                stats.l2_misses += 1;
                                rec.dram_bytes += spec.l1.line as f64;
                            }
                        }
                    }
                    TraceOp::WriteSector(sector) => {
                        rec.mem_ns += spec.l1_access_ns;
                        // Sectors map onto L2 lines (line = 4 sectors).
                        let line = sector * SECTOR / spec.l2.line as u64;
                        if l2.access_line(line) == crate::cache::AccessOutcome::Hit {
                            stats.l2_hits += 1;
                        } else {
                            stats.l2_misses += 1;
                            rec.dram_bytes += SECTOR as f64;
                        }
                    }
                }
            }
        }
        for rec in wave.iter_mut() {
            rec.trace.clear();
            rec.trace.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;

    fn sim(fidelity: Fidelity) -> GpuSim {
        GpuSim::new(GpuSpec::gtx_1080(), fidelity)
    }

    #[test]
    fn streaming_kernel_is_bandwidth_bound() {
        let s = sim(Fidelity::Analytic);
        let bytes_per_block = 1u64 << 20;
        let cfg = LaunchConfig::new(400, 256, 0);
        let region = Region::at(1 << 20, 400 * bytes_per_block);
        let report = s.launch(&cfg, |blk| {
            blk.global_read_stream(
                &region,
                blk.block_idx as u64 * bytes_per_block,
                bytes_per_block,
            );
            blk.compute(bytes_per_block / 4, 1.0);
        });
        let total = 400.0 * bytes_per_block as f64;
        let ideal = total / s.spec().dram_bw;
        let t = report.time.as_secs();
        assert!(t >= ideal, "faster than DRAM: {t} < {ideal}");
        assert!(t < ideal * 2.0, "streaming far off roofline: {t} vs {ideal}");
    }

    #[test]
    fn random_gather_costs_more_than_streaming_same_bytes() {
        let s = sim(Fidelity::Analytic);
        let n: usize = 1 << 16;
        let region = Region::at(1 << 20, 1 << 30); // 1 GiB working set
        let cfg = LaunchConfig::new(64, 256, 0);
        let per_block = n / 64;
        // Random 8-byte gathers.
        let random = s.launch(&cfg, |blk| {
            let offs: Vec<u64> = (0..per_block)
                .map(|i| ((blk.block_idx * per_block + i) as u64 * 7919 * 4096) % (1 << 30))
                .collect();
            blk.global_read(&region, &offs, 8);
        });
        // Streaming the same number of payload bytes.
        let streaming = s.launch(&cfg, |blk| {
            blk.global_read_stream(
                &region,
                (blk.block_idx * per_block * 8) as u64,
                (per_block * 8) as u64,
            );
        });
        assert!(
            random.time.as_secs() > 4.0 * streaming.time.as_secs(),
            "over-fetch not captured: random={} streaming={}",
            random.time,
            streaming.time
        );
    }

    #[test]
    fn exact_mode_repeated_access_hits_l1() {
        let s = sim(Fidelity::Exact);
        let region = Region::at(1 << 20, 16 << 10); // 16 KiB: fits L1
        let cfg = LaunchConfig::new(20, 256, 0); // one block per SM
        let report = s.launch(&cfg, |blk| {
            let offs: Vec<u64> = (0..2048u64).map(|i| (i * 8) % (16 << 10)).collect();
            for _ in 0..4 {
                blk.global_read(&region, &offs, 8);
            }
        });
        let hits = report.stats.l1_hits as f64;
        let total = (report.stats.l1_hits + report.stats.l1_misses) as f64;
        assert!(hits / total > 0.7, "expected warm L1, hit rate {}", hits / total);
    }

    #[test]
    fn exact_mode_large_working_set_misses() {
        let s = sim(Fidelity::Exact);
        let region = Region::at(1 << 20, 64 << 20); // 64 MiB >> L2
        let cfg = LaunchConfig::new(20, 256, 0);
        let report = s.launch(&cfg, |blk| {
            let offs: Vec<u64> = (0..4096u64)
                .map(|i| (i * 7919 + blk.block_idx as u64 * 104729) * 128 % (64 << 20))
                .collect();
            blk.global_read(&region, &offs, 8);
        });
        let misses = report.stats.l1_misses as f64;
        let total = (report.stats.l1_hits + report.stats.l1_misses) as f64;
        assert!(misses / total > 0.9, "expected cold caches, miss rate {}", misses / total);
        assert!(report.stats.dram_bytes > 0.0);
    }

    #[test]
    fn smem_conflicts_charged() {
        let s = sim(Fidelity::Analytic);
        let cfg = LaunchConfig::new(20, 256, 16 << 10);
        let conflict_free: Vec<u32> = (0..256u32).collect();
        let conflicted: Vec<u32> = (0..256u32).map(|i| i * 32).collect();
        let fast = s.launch(&cfg, |blk| {
            for _ in 0..64 {
                blk.smem_access(&conflict_free);
            }
        });
        let slow = s.launch(&cfg, |blk| {
            for _ in 0..64 {
                blk.smem_access(&conflicted);
            }
        });
        assert!(slow.time.as_secs() > 2.0 * fast.time.as_secs());
    }

    /// A 64-lane warp (an AMD wavefront) is counted lane by lane at both
    /// fidelities: 64 distinct lines are 64 transactions, not the first 32.
    #[test]
    fn a_64_lane_warp_of_distinct_lines_costs_64_transactions() {
        let spec = GpuSpec { warp: 64, ..GpuSpec::gtx_1080() };
        let region = Region::at(1 << 20, 1 << 24);
        let lines: Vec<u64> = (0..64u64).map(|i| i * 4096).collect();
        let same_bank: Vec<u32> = (0..64u32).map(|i| i * 32).collect();
        for fidelity in [Fidelity::Analytic, Fidelity::Exact] {
            let s = GpuSim::new(spec.clone(), fidelity);
            let cfg = LaunchConfig::new(1, 64, 0);
            let read = s.launch(&cfg, |blk| blk.global_read(&region, &lines, 4));
            let write = s.launch(&cfg, |blk| blk.global_write(&region, &lines, 4));
            let atomic = s.launch(&cfg, |blk| blk.global_atomic(&region, &lines));
            let smem = s.launch(&cfg, |blk| blk.smem_access(&same_bank));
            for (op, report) in [("read", read), ("write", write), ("atomic", atomic)] {
                assert_eq!(report.stats.global_transactions, 64, "{op} at {fidelity:?}");
            }
            assert_eq!((smem.stats.smem_ops, smem.stats.smem_cycles), (1, 64), "{fidelity:?}");
        }
    }

    /// A scatter given as runs charges what the same scatter given as its
    /// address list charges, whole report for whole report: seeded runs that
    /// overlap, go backwards and straddle warps, 4- and 8-byte slots, 32- and
    /// 64-lane warps, both fidelities.
    #[test]
    fn runs_charge_what_their_address_list_charges() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..300u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let warp = [32, 64][r.gen_range(0..2usize)];
            let fidelity = [Fidelity::Analytic, Fidelity::Exact][r.gen_range(0..2usize)];
            let s = GpuSim::new(GpuSpec { warp, ..GpuSpec::gtx_1080() }, fidelity);
            let stride = [4u64, 8][r.gen_range(0..2usize)];
            let region = Region::at(1 << 20, r.gen_range(1..1u64 << 26));
            let runs: Vec<Vec<(u64, u64)>> = (0..3)
                .map(|_| {
                    (0..r.gen_range(0..40))
                        .map(|_| (r.gen_range(0..4096u64), r.gen_range(0..90u64)))
                        .collect()
                })
                .collect();
            let cfg = LaunchConfig::new(runs.len(), 256, 0);
            let by_runs = s.launch(&cfg, |blk| {
                blk.global_write_runs(&region, &runs[blk.block_idx], stride as u32);
            });
            let by_list = s.launch(&cfg, |blk| {
                let offs: Vec<u64> = runs[blk.block_idx]
                    .iter()
                    .flat_map(|&(at, c)| (0..c).map(move |i| at + i * stride))
                    .collect();
                blk.global_write(&region, &offs, stride as u32);
            });
            assert_eq!(
                KernelReport::digest(&[by_runs]),
                KernelReport::digest(&[by_list]),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let s = sim(Fidelity::Analytic);
        let cfg = LaunchConfig::new(1, 32, 0);
        let report = s.launch(&cfg, |blk| blk.compute(32, 1.0));
        assert!(report.time.as_ns() >= s.spec().launch_overhead_ns);
    }

    #[test]
    fn grid_size_scales_time() {
        let s = sim(Fidelity::Analytic);
        let region = Region::at(1 << 20, 1 << 30);
        let small = s.launch(&LaunchConfig::new(40, 256, 0), |blk| {
            blk.global_read_stream(&region, blk.block_idx as u64 * (1 << 20), 1 << 20);
        });
        let large = s.launch(&LaunchConfig::new(400, 256, 0), |blk| {
            blk.global_read_stream(&region, blk.block_idx as u64 * (1 << 20), 1 << 20);
        });
        assert!(large.time.as_secs() > 5.0 * small.time.as_secs());
    }
}
