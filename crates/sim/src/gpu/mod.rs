//! GPU simulation: SIMT kernel framework + memory-hierarchy model.
//!
//! Kernels are written in a *warp-synchronous* style against [`BlockCtx`]:
//! the kernel body runs once per thread block, performs its real work on
//! host-resident Rust slices, and reports every memory operation it performs
//! (global gathers/scatters with explicit addresses, scratchpad accesses with
//! bank words, streaming reads/writes, atomics, compute). The simulator turns
//! those reports into time:
//!
//! * [`Fidelity::Exact`] — per-warp address traces replayed through
//!   tag-array L1 (per SM, shared by co-resident blocks) and a device L2;
//!   reproduces over-fetch, pollution and capacity effects exactly.
//! * [`Fidelity::Analytic`] — closed-form residency blends by region size;
//!   used for bulk kernels over 100M+ tuples.
//!
//! Throughput model: within a block, compute / scratchpad / memory-issue
//! lanes overlap (block cost = max of the three); blocks on the same SM share
//! its issue throughput (per-SM cost = sum over blocks); the device-wide DRAM
//! bandwidth bound applies across SMs (kernel cost = max(per-SM max, DRAM
//! bytes / bandwidth)). This is the standard analytical GPU roofline and is
//! what makes scan kernels bandwidth-bound and probe kernels issue- or
//! latency-bound, as in the paper's Figures 5 and 6.

mod coalesce;
mod kernel;
mod scratchpad;

pub use coalesce::{distinct_chunks, DistinctChunks};
pub use kernel::{BlockCtx, GpuSim, KernelReport, KernelStats, LaunchConfig};
pub use scratchpad::{atomic_cycles, conflict_cycles};

use crate::spec::GpuSpec;

/// Memory-model fidelity for a [`GpuSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Closed-form residency/bandwidth formulas (fast, for bulk kernels).
    Analytic,
    /// Tag-array cache simulation over per-warp address traces.
    Exact,
}

/// A contiguous region of simulated GPU device memory.
///
/// Regions carry a virtual base address (so traces from different buffers do
/// not alias in the cache simulators) and a size (used by the analytic model
/// to derive residency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Virtual base address, line-aligned.
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
}

impl Region {
    /// A region at an explicit address (mostly for tests).
    pub fn at(base: u64, bytes: u64) -> Self {
        Region { base, bytes }
    }
}

/// Error returned when a GPU allocation does not fit device memory.
///
/// This is a *load-bearing* error in the reproduction: the paper's Figure 6
/// ends where tables stop fitting GPU memory, and Q9 cannot run GPU-only
/// because its hash tables exceed it (§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfGpuMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes that were still free.
    pub available: u64,
}

impl std::fmt::Display for OutOfGpuMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of GPU memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfGpuMemory {}

/// A buffer handed out by [`GpuMemPool::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuBuffer {
    /// The device-memory region backing the buffer.
    pub region: Region,
    id: u64,
}

impl GpuBuffer {
    /// The region backing this buffer.
    pub fn region(&self) -> Region {
        self.region
    }
}

/// Capacity-tracking device-memory allocator.
///
/// A simple bump allocator over a virtual address space; `free` returns
/// capacity but never reuses addresses, which keeps traces unambiguous.
#[derive(Debug)]
pub struct GpuMemPool {
    capacity: u64,
    used: u64,
    next_base: u64,
    next_id: u64,
}

impl GpuMemPool {
    /// Pool over `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        // Start away from zero so that a zero address is never valid.
        GpuMemPool { capacity, used: 0, next_base: 1 << 20, next_id: 0 }
    }

    /// Pool sized from a spec.
    pub fn for_spec(spec: &GpuSpec) -> Self {
        Self::new(spec.dram_capacity as u64)
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Allocate `bytes`, line-aligned; fails if the pool is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> Result<GpuBuffer, OutOfGpuMemory> {
        if bytes > self.available() {
            return Err(OutOfGpuMemory { requested: bytes, available: self.available() });
        }
        let aligned = bytes.div_ceil(128) * 128;
        let buf =
            GpuBuffer { region: Region { base: self.next_base, bytes }, id: self.next_id };
        self.next_base += aligned + 128;
        self.next_id += 1;
        self.used += bytes;
        Ok(buf)
    }

    /// Return a buffer's capacity to the pool.
    pub fn free(&mut self, buf: GpuBuffer) {
        debug_assert!(self.used >= buf.region.bytes);
        self.used = self.used.saturating_sub(buf.region.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_capacity() {
        let mut pool = GpuMemPool::new(1 << 20);
        let a = pool.alloc(512 << 10).unwrap();
        assert_eq!(pool.used(), 512 << 10);
        assert!(pool.alloc(600 << 10).is_err());
        pool.free(a);
        assert_eq!(pool.used(), 0);
        assert!(pool.alloc(600 << 10).is_ok());
    }

    #[test]
    fn buffers_do_not_alias() {
        let mut pool = GpuMemPool::new(1 << 20);
        let a = pool.alloc(1000).unwrap();
        let b = pool.alloc(1000).unwrap();
        let a_end = a.region.base + a.region.bytes;
        assert!(b.region.base >= a_end, "regions alias");
        // Distinct cache lines.
        assert_ne!(a.region.base / 128, b.region.base / 128);
    }

    #[test]
    fn oom_error_reports_sizes() {
        let mut pool = GpuMemPool::new(100);
        let err = pool.alloc(200).unwrap_err();
        assert_eq!(err.requested, 200);
        assert_eq!(err.available, 100);
        assert!(err.to_string().contains("out of GPU memory"));
    }
}
