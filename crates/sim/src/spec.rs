//! Device specifications.
//!
//! The specs below describe the paper's testbed (§6.1): two 12-core Intel
//! Xeon E5-2650L v3 sockets and two NVIDIA GeForce GTX 1080 GPUs, each on a
//! dedicated PCIe 3 x16 link. Every hardware-conscious decision in the
//! workspace (partitioning fanout, scratchpad sizing, co-partition sizing) is
//! *computed from these specs*, never hard-coded, mirroring the paper's
//! "hardware-specific finer-grained building blocks" (§4.1).

/// One level of a data-cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevelSpec {
    /// Total capacity in bytes.
    pub size: usize,
    /// Cache-line size in bytes (the over-fetch granularity).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Latency of a hit at this level, in nanoseconds.
    pub hit_ns: f64,
}

impl CacheLevelSpec {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size / self.line / self.assoc).max(1)
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> usize {
        self.size / self.line
    }
}

/// A translation-lookaside buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbSpec {
    /// Number of entries.
    pub entries: usize,
    /// Page size covered by one entry, in bytes.
    pub page_size: usize,
    /// Penalty of a TLB miss (page-walk), in nanoseconds.
    pub miss_ns: f64,
}

impl TlbSpec {
    /// Bytes of address space covered without misses.
    pub fn reach(&self) -> usize {
        self.entries * self.page_size
    }
}

/// A CPU socket specification.
///
/// Models the characteristics the paper's CPU-side algorithms are tuned
/// against: the cache hierarchy, the TLB, DRAM bandwidth/latency, SIMD width
/// and memory-level parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Human-readable model name.
    pub name: &'static str,
    /// Physical cores per socket.
    pub cores: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Sustained scalar instructions per cycle per core.
    pub ipc: f64,
    /// SIMD lanes for 32-bit elements (AVX2 = 8).
    pub simd_lanes_32: usize,
    /// L1 data cache (per core).
    pub l1d: CacheLevelSpec,
    /// L2 cache (per core).
    pub l2: CacheLevelSpec,
    /// L3 cache (shared per socket).
    pub l3: CacheLevelSpec,
    /// First-level data TLB (4 KiB pages).
    pub dtlb: TlbSpec,
    /// Second-level (shared) TLB.
    pub stlb: TlbSpec,
    /// Effective DRAM bandwidth per socket, bytes/s.
    pub dram_bw: f64,
    /// DRAM random-access latency (local node), ns.
    pub dram_latency_ns: f64,
    /// Memory-level parallelism: outstanding misses a core can sustain.
    pub mlp: f64,
    /// Per-core peak sequential bandwidth (a single core cannot saturate the
    /// socket), bytes/s.
    pub per_core_bw: f64,
    /// DRAM capacity per socket, bytes.
    pub dram_capacity: usize,
}

impl CpuSpec {
    /// The paper's CPU: Intel Xeon E5-2650L v3 (Haswell-EP), 12 cores @
    /// 1.8 GHz, 64 KiB L1 (32 KiB data), 256 KiB L2, 30 MiB shared L3.
    pub fn xeon_e5_2650l_v3() -> Self {
        CpuSpec {
            name: "Intel Xeon E5-2650L v3",
            cores: 12,
            clock_hz: 1.8e9,
            ipc: 2.0,
            simd_lanes_32: 8,
            l1d: CacheLevelSpec { size: 32 << 10, line: 64, assoc: 8, hit_ns: 2.2 },
            l2: CacheLevelSpec { size: 256 << 10, line: 64, assoc: 8, hit_ns: 6.7 },
            l3: CacheLevelSpec { size: 30 << 20, line: 64, assoc: 20, hit_ns: 24.0 },
            dtlb: TlbSpec { entries: 64, page_size: 4 << 10, miss_ns: 22.0 },
            stlb: TlbSpec { entries: 1024, page_size: 4 << 10, miss_ns: 35.0 },
            dram_bw: 52.0e9,
            dram_latency_ns: 87.0,
            mlp: 10.0,
            per_core_bw: 9.0e9,
            dram_capacity: 128 << 30,
        }
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1e9 / self.clock_hz
    }

    /// Maximum software-managed partitioning fanout for one pass, following
    /// Boncz et al. \[6\]: one output buffer per partition must stay TLB- and
    /// cache-resident, so fanout is bounded by TLB entries and by the number
    /// of cache lines L1 can dedicate to write buffers.
    ///
    /// With 64 dTLB entries backed by a 1024-entry STLB and a 32 KiB L1
    /// (512 lines), the classic compromise is on the order of 2^7 per pass.
    pub fn max_partition_fanout(&self) -> usize {
        let tlb_bound = self.dtlb.entries * 2; // dTLB backed by STLB
        let cache_bound = self.l1d.lines() / 4; // leave room for input stream
        tlb_bound.min(cache_bound).next_power_of_two()
    }

    /// Size at which a per-partition hash table stops being cache-resident:
    /// the Shatdal et al. criterion targets tables that fit in cache; we
    /// target half the L2 + L1 to leave room for the probe stream.
    pub fn cache_resident_bytes(&self) -> usize {
        self.l1d.size / 2 + self.l2.size / 2
    }

    /// Aggregate streaming bandwidth the socket sustains with all cores
    /// scanning, bytes/s: the socket's DRAM bandwidth, capped by what the
    /// cores can collectively issue. This is the sequential-scan throughput
    /// term cost models charge for CPU-side pipeline segments.
    pub fn socket_scan_bw(&self) -> f64 {
        self.dram_bw.min(self.cores as f64 * self.per_core_bw)
    }
}

/// A GPU specification.
///
/// Models the GPU characteristics from §2.1/§4.1: the *fatter* cache
/// hierarchy with a banked software-managed scratchpad (shared memory),
/// an L1 that over-fetches whole lines, a device-wide L2, high-bandwidth
/// device memory, large TLB pages, and warp-wide (SIMT) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Human-readable model name.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sms: usize,
    /// SIMT lanes ("CUDA cores") per SM.
    pub lanes_per_sm: usize,
    /// Warp width.
    pub warp: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Max resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Max resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Scratchpad (shared memory) bytes per SM.
    pub smem_per_sm: usize,
    /// Scratchpad bytes usable by a single block.
    pub smem_per_block: usize,
    /// Scratchpad banks.
    pub smem_banks: usize,
    /// Scratchpad bank word in bytes.
    pub smem_word: usize,
    /// L1 cache per SM.
    pub l1: CacheLevelSpec,
    /// Device-wide L2.
    pub l2: CacheLevelSpec,
    /// TLB with big pages (Karnagel et al. \[18\] measured 2 MiB GPU pages).
    pub tlb: TlbSpec,
    /// Effective device-memory bandwidth, bytes/s (paper quotes 280 GB/s).
    pub dram_bw: f64,
    /// Device memory capacity in bytes.
    pub dram_capacity: usize,
    /// Kernel launch overhead, ns.
    pub launch_overhead_ns: f64,
    /// Per-block scheduling overhead, ns.
    pub block_overhead_ns: f64,
    /// Throughput cost of one warp-wide L1/L2 access, ns (tag check + data).
    pub l1_access_ns: f64,
    /// Extra cost of an L2 access (line fill from L2), ns.
    pub l2_access_ns: f64,
    /// Cost of one warp-wide scratchpad cycle, ns.
    pub smem_cycle_ns: f64,
    /// Serialised atomic operation cost (same-address conflict), ns.
    pub atomic_ns: f64,
}

impl GpuSpec {
    /// The paper's GPU: NVIDIA GeForce GTX 1080 (Pascal GP104), 20 SMs,
    /// 8 GiB GDDR5X, 96 KiB scratchpad + 48 KiB L1 per SM, 2 MiB L2.
    pub fn gtx_1080() -> Self {
        GpuSpec {
            name: "NVIDIA GeForce GTX 1080",
            sms: 20,
            lanes_per_sm: 128,
            warp: 32,
            clock_hz: 1.607e9,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            smem_per_sm: 96 << 10,
            smem_per_block: 48 << 10,
            smem_banks: 32,
            smem_word: 4,
            l1: CacheLevelSpec { size: 48 << 10, line: 128, assoc: 4, hit_ns: 18.0 },
            l2: CacheLevelSpec { size: 2 << 20, line: 128, assoc: 16, hit_ns: 140.0 },
            tlb: TlbSpec { entries: 544, page_size: 2 << 20, miss_ns: 300.0 },
            dram_bw: 280.0e9,
            dram_capacity: 8 << 30,
            launch_overhead_ns: 5_000.0,
            block_overhead_ns: 600.0,
            l1_access_ns: 0.7,
            l2_access_ns: 2.2,
            smem_cycle_ns: 0.65,
            atomic_ns: 2.4,
        }
    }

    /// A GTX 1080 with capacity scaled by `factor` (used to run the paper's
    /// SF-100 capacity arguments at reduced data scale; the rule is on
    /// [`crate::topology::Server::tpch_scaled`]).
    pub fn gtx_1080_scaled(factor: f64) -> Self {
        let mut s = Self::gtx_1080();
        s.dram_capacity = ((s.dram_capacity as f64) * factor) as usize;
        s
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1e9 / self.clock_hz
    }

    /// How many blocks can be resident on one SM simultaneously, given the
    /// per-block thread count and scratchpad usage. This drives both the
    /// under-utilisation effect at tiny partition sizes (Fig. 5) and the
    /// L1-sharing pollution between co-resident blocks.
    pub fn occupancy(&self, threads_per_block: usize, smem_per_block: usize) -> usize {
        let by_threads = self.max_threads_per_sm / threads_per_block.max(1);
        let by_smem =
            self.smem_per_sm.checked_div(smem_per_block).unwrap_or(self.max_blocks_per_sm);
        by_threads.min(by_smem).min(self.max_blocks_per_sm).max(1)
    }

    /// The largest per-partition footprint (bytes) for which a build-side
    /// hash table plus bookkeeping fits the scratchpad of one block — the
    /// GPU-side analogue of the CPU's cache-residency criterion (§4.1:
    /// "fanout based on TLB versus scratchpad capacity").
    pub fn scratchpad_resident_bytes(&self) -> usize {
        // Reserve 1/8 of the block scratchpad for histograms/offsets.
        self.smem_per_block - self.smem_per_block / 8
    }

    /// Maximum partitioning fanout of one GPU pass: bounded by the memory
    /// available for consolidating stores (§4.1 — the scratchpad staging
    /// buffer must hold a run per output partition).
    pub fn max_partition_fanout(&self) -> usize {
        // Staging chunk in scratchpad: one line-sized run per partition.
        (self.smem_per_block / self.l2.line).next_power_of_two() / 2
    }

    /// Expected cost of one random access into a device-memory structure of
    /// `working_set` bytes, in nanoseconds *of device throughput* (the
    /// massively-threaded analogue of the CPU's latency-bound probe: SMs
    /// hide latency, so a random access costs the bandwidth of the cache
    /// line it drags — L2-resident structures pay the cheaper L2 line).
    ///
    /// This is an aggregate-throughput figure for analytic cost models; the
    /// kernel simulator charges the exact per-warp accesses instead.
    pub fn random_access_ns(&self, working_set: u64) -> f64 {
        let ws = working_set.max(1) as f64;
        let f_l2 = (self.l2.size as f64 / ws).min(1.0);
        // An L2 hit streams a line through the SM interconnect; a miss
        // drags a whole line from device memory.
        let l2_ns = self.l2.line as f64 / (self.dram_bw * 4.0) * 1e9;
        let mem_ns = self.l2.line as f64 / self.dram_bw * 1e9;
        f_l2 * l2_ns + (1.0 - f_l2) * mem_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_geometry() {
        let l1 = CacheLevelSpec { size: 32 << 10, line: 64, assoc: 8, hit_ns: 2.0 };
        assert_eq!(l1.lines(), 512);
        assert_eq!(l1.sets(), 64);
    }

    #[test]
    fn tlb_reach() {
        let tlb = TlbSpec { entries: 64, page_size: 4096, miss_ns: 20.0 };
        assert_eq!(tlb.reach(), 256 << 10);
    }

    #[test]
    fn cpu_fanout_is_tlb_bounded_power_of_two() {
        let cpu = CpuSpec::xeon_e5_2650l_v3();
        let fanout = cpu.max_partition_fanout();
        assert!(fanout.is_power_of_two());
        assert!(fanout <= cpu.dtlb.entries * 2);
        assert!(fanout >= 64, "fanout {fanout} suspiciously small");
    }

    #[test]
    fn gpu_occupancy_limits() {
        let gpu = GpuSpec::gtx_1080();
        // Thread-limited: 2048/256 = 8 blocks.
        assert_eq!(gpu.occupancy(256, 0), 8);
        // Scratchpad-limited: 96K/48K = 2 blocks.
        assert_eq!(gpu.occupancy(64, 48 << 10), 2);
        // Block-count-limited.
        assert_eq!(gpu.occupancy(32, 0), 32);
    }

    #[test]
    fn gpu_scratchpad_budget_below_block_limit() {
        let gpu = GpuSpec::gtx_1080();
        assert!(gpu.scratchpad_resident_bytes() < gpu.smem_per_block);
        assert!(gpu.scratchpad_resident_bytes() > gpu.smem_per_block / 2);
    }

    #[test]
    fn gpu_fanout_is_power_of_two() {
        let gpu = GpuSpec::gtx_1080();
        assert!(gpu.max_partition_fanout().is_power_of_two());
        assert!(gpu.max_partition_fanout() >= 32);
    }

    #[test]
    fn socket_scan_bw_is_core_capped_dram_bw() {
        let cpu = CpuSpec::xeon_e5_2650l_v3();
        assert!(cpu.socket_scan_bw() <= cpu.dram_bw);
        assert!(cpu.socket_scan_bw() <= cpu.cores as f64 * cpu.per_core_bw);
        assert!(cpu.socket_scan_bw() > 0.0);
    }

    #[test]
    fn gpu_random_access_cheaper_when_l2_resident() {
        let gpu = GpuSpec::gtx_1080();
        let in_l2 = gpu.random_access_ns(256 << 10);
        let in_dram = gpu.random_access_ns(1 << 30);
        assert!(in_l2 < in_dram, "{in_l2} !< {in_dram}");
        // DRAM-resident probes cost about one line of bandwidth.
        let line_ns = gpu.l2.line as f64 / gpu.dram_bw * 1e9;
        assert!((in_dram - line_ns).abs() / line_ns < 0.05);
    }

    #[test]
    fn scaled_gpu_shrinks_capacity_only() {
        let full = GpuSpec::gtx_1080();
        let scaled = GpuSpec::gtx_1080_scaled(0.01);
        assert_eq!(scaled.sms, full.sms);
        assert!(scaled.dram_capacity < full.dram_capacity / 50);
    }
}
