//! Analytic CPU cost model.
//!
//! CPU-side operators in this workspace execute for real on the host; this
//! model charges them *simulated* time on the paper's Xeon E5-2650L v3 from
//! their measured access counts and working-set sizes. The formulas encode
//! the mechanisms the paper's CPU discussion rests on (§2.1):
//!
//! * sequential scans are DRAM-bandwidth-bound, shared across active cores;
//! * random accesses pay latency, partially hidden by memory-level
//!   parallelism, with a cache-level blend chosen by working-set size
//!   (Shatdal et al. cache-consciousness);
//! * partitioning passes pay TLB penalties once the fanout exceeds TLB reach
//!   (Boncz et al.), which is why the radix join is multi-pass.

use crate::spec::CpuSpec;
use crate::time::SimTime;

/// Cost model for one CPU worker (one core) under a given degree of
/// parallelism.
///
/// Bandwidth shared resources (socket DRAM) are folded in per-worker: with
/// `workers` active on a socket, each sees `socket_bw / workers` (capped by
/// the single-core peak). This keeps the discrete-event executor simple —
/// every worker charges only its own clock.
#[derive(Debug, Clone)]
pub struct CpuCostModel {
    spec: CpuSpec,
    /// Workers concurrently active on this worker's socket.
    workers_on_socket: usize,
}

impl CpuCostModel {
    /// Build a model for a worker on `spec`, with `workers_on_socket`
    /// concurrently active workers sharing the socket's DRAM bandwidth.
    pub fn new(spec: CpuSpec, workers_on_socket: usize) -> Self {
        CpuCostModel { spec, workers_on_socket: workers_on_socket.max(1) }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Effective sequential bandwidth available to this worker, bytes/s.
    pub fn worker_bw(&self) -> f64 {
        (self.spec.dram_bw / self.workers_on_socket as f64).min(self.spec.per_core_bw)
    }

    /// Time to stream-read `bytes` from DRAM.
    pub fn seq_read(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(bytes as f64 / self.worker_bw())
    }

    /// Time to stream-write `bytes` to DRAM (write-allocate costs ~1.5×:
    /// the line is read before being overwritten unless non-temporal stores
    /// are used; we assume regular stores for portability).
    pub fn seq_write(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(1.5 * bytes as f64 / self.worker_bw())
    }

    /// Time for `n` scalar operations.
    pub fn compute(&self, n_ops: u64) -> SimTime {
        SimTime::from_secs(n_ops as f64 / (self.spec.clock_hz * self.spec.ipc))
    }

    /// Time for an element-wise SIMD pass over `n` 32-bit elements applying
    /// `ops_per_elem` vector operations.
    pub fn compute_simd(&self, n: u64, ops_per_elem: f64) -> SimTime {
        let lanes = self.spec.simd_lanes_32 as f64;
        SimTime::from_secs(
            n as f64 * ops_per_elem / lanes / (self.spec.clock_hz * self.spec.ipc),
        )
    }

    /// Expected cost of one random access into a structure of
    /// `working_set` bytes, in nanoseconds.
    ///
    /// The access distribution over cache levels follows the classic
    /// capacity blend: a uniformly random access hits level L with the
    /// probability that its line is resident there. DRAM-bound fractions are
    /// divided by the memory-level parallelism the core sustains; TLB misses
    /// are added once the working set exceeds TLB reach.
    pub fn random_access_ns(&self, working_set: u64) -> f64 {
        let ws = working_set.max(1) as f64;
        let s = &self.spec;
        let f_l1 = (s.l1d.size as f64 / ws).min(1.0);
        let f_l2 = ((s.l2.size as f64 / ws).min(1.0) - f_l1).max(0.0);
        // L3 is socket-shared; a worker competes with its peers for it.
        let l3_share = s.l3.size as f64 / self.workers_on_socket as f64;
        let f_l3 = ((l3_share / ws).min(1.0) - f_l1 - f_l2).max(0.0);
        let f_mem = (1.0 - f_l1 - f_l2 - f_l3).max(0.0);
        // Out-of-order execution overlaps independent probes; the exposed
        // cost at each level is its latency divided by the overlap the core
        // sustains there. DRAM-bound probes additionally move a whole cache
        // line each — the socket's random-access bandwidth floor (the CPU
        // flavour of the over-fetch the paper discusses for GPU L1).
        let l1_ns = s.l1d.hit_ns;
        let l2_ns = s.l2.hit_ns / 2.0;
        let l3_ns = s.l3.hit_ns / 3.0;
        let lat_ns = s.dram_latency_ns / s.mlp;
        let bw_floor_ns = s.l1d.line as f64 * self.workers_on_socket as f64 / s.dram_bw * 1e9;
        let mem_ns = lat_ns.max(bw_floor_ns);
        let mut ns = f_l1 * l1_ns + f_l2 * l2_ns + f_l3 * l3_ns + f_mem * mem_ns;
        // TLB: fraction of accesses missing the STLB (4 KiB pages).
        let tlb_reach = s.stlb.reach() as f64;
        if ws > tlb_reach {
            let miss_frac = 1.0 - tlb_reach / ws;
            ns += miss_frac * s.stlb.miss_ns / s.mlp;
        }
        ns
    }

    /// Time for `n` independent random accesses into `working_set` bytes.
    pub fn random_accesses(&self, n: u64, working_set: u64) -> SimTime {
        SimTime::from_ns(n as f64 * self.random_access_ns(working_set))
    }

    /// Time for one software-managed partitioning pass over `n` tuples of
    /// `tuple_bytes` with the given `fanout`.
    ///
    /// Reads are sequential; writes go to `fanout` open output buffers. While
    /// the fanout stays within TLB/cache reach the writes behave like
    /// buffered sequential stores. Beyond it every write risks a TLB miss and
    /// a cache conflict — exactly the effect that motivates multi-pass radix
    /// partitioning (Boncz et al. \[6\]).
    pub fn partition_pass(&self, n: u64, tuple_bytes: u64, fanout: usize) -> SimTime {
        let bytes = n * tuple_bytes;
        let read = self.seq_read(bytes);
        let hash = self.compute_simd(n, 3.0);
        let max_fanout = self.spec.max_partition_fanout();
        let write = if fanout <= max_fanout {
            // Buffered scatter: near-sequential stores plus buffer flushes.
            self.seq_write(bytes) * 1.15
        } else {
            // TLB-thrashing scatter: every tuple write pays a TLB penalty
            // fraction and loses store coalescing.
            let miss_frac = (1.0 - max_fanout as f64 / fanout as f64).clamp(0.0, 1.0);
            let tlb_ns = n as f64 * miss_frac * self.spec.stlb.miss_ns / self.spec.mlp;
            let latency_ns = n as f64 * miss_frac * (self.spec.dram_latency_ns / self.spec.mlp);
            self.seq_write(bytes) * 1.15 + SimTime::from_ns(tlb_ns + latency_ns)
        };
        read + hash + write
    }

    /// Time to build a chained hash table over `n` tuples whose table
    /// occupies `table_bytes`.
    pub fn ht_build(&self, n: u64, table_bytes: u64) -> SimTime {
        // Insert: hash + one random write (read-modify-write of bucket head).
        self.compute(n * 6) + self.random_accesses(n * 2, table_bytes)
    }

    /// Time to probe a chained hash table `n` times; `chain` is the average
    /// number of entries touched per probe; `table_bytes` its footprint.
    pub fn ht_probe(&self, n: u64, chain: f64, table_bytes: u64) -> SimTime {
        let accesses = (n as f64 * (1.0 + chain)).ceil() as u64;
        self.compute(n * 8) + self.random_accesses(accesses, table_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(workers: usize) -> CpuCostModel {
        CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), workers)
    }

    #[test]
    fn bandwidth_shared_across_workers() {
        let solo = model(1);
        let crowded = model(12);
        // One core cannot saturate the socket.
        assert!(solo.worker_bw() <= solo.spec().per_core_bw);
        // Twelve cores share the socket bandwidth.
        assert!(crowded.worker_bw() < solo.worker_bw());
        let t1 = solo.seq_read(1 << 30);
        let t12 = crowded.seq_read(1 << 30);
        assert!(t12 > t1);
    }

    #[test]
    fn random_access_cost_grows_with_working_set() {
        let m = model(12);
        let in_l1 = m.random_access_ns(16 << 10);
        let in_l2 = m.random_access_ns(128 << 10);
        let in_l3 = m.random_access_ns(1 << 20);
        let in_dram = m.random_access_ns(1 << 30);
        assert!(in_l1 < in_l2, "{in_l1} !< {in_l2}");
        assert!(in_l2 < in_l3, "{in_l2} !< {in_l3}");
        assert!(in_l3 < in_dram, "{in_l3} !< {in_dram}");
        // DRAM-resident probes should hide latency via MLP but still pay
        // more than any cache hit.
        assert!(in_dram > m.spec().l3.hit_ns * 0.3);
    }

    #[test]
    fn huge_working_set_pays_tlb() {
        let m = model(1);
        let no_tlb = m.random_access_ns(m.spec().stlb.reach() as u64);
        let tlb = m.random_access_ns(64 << 30);
        assert!(tlb > no_tlb * 1.2, "TLB penalty missing: {no_tlb} vs {tlb}");
    }

    #[test]
    fn partition_pass_cheap_within_fanout_budget() {
        let m = model(12);
        let n = 1 << 20;
        let ok = m.partition_pass(n, 8, m.spec().max_partition_fanout());
        let thrash = m.partition_pass(n, 8, 16 * m.spec().max_partition_fanout());
        assert!(thrash > ok * 1.5, "TLB thrash should dominate: ok={ok} thrash={thrash}");
    }

    #[test]
    fn probe_scales_with_chain_length() {
        let m = model(12);
        let short = m.ht_probe(1 << 20, 1.0, 1 << 30);
        let long = m.ht_probe(1 << 20, 4.0, 1 << 30);
        assert!(long > short * 1.5);
    }

    #[test]
    fn simd_beats_scalar() {
        let m = model(1);
        assert!(m.compute_simd(1 << 20, 1.0) < m.compute(1 << 20));
    }
}
