//! GPU non-partitioned hash join (the hardware-oblivious GPU baseline).
//!
//! A single chained hash table in device memory, built with global atomics
//! and probed with random global loads. Each probe drags a whole 128-byte
//! line through L1/L2 to use 8 bytes of it — the over-fetch the paper's
//! Figure 6 quantifies at >3× against the partitioned join.

use hape_sim::gpu::OutOfGpuMemory;
use hape_sim::{GpuMemPool, GpuSim, SimTime};

use crate::common::{hash32, JoinInput, JoinOutcome, JoinStats, OutputMode};
use crate::probe::{record, ProbeTable};

/// Tuples processed per block in the build/probe kernels.
const ITEMS_PER_BLOCK: usize = 8192;
const BLOCK_THREADS: usize = 256;

/// Run the non-partitioned GPU join. Inputs are assumed GPU-resident;
/// the function allocates the inputs plus the hash table from the device
/// pool and fails with [`OutOfGpuMemory`] when they do not fit (this is the
/// Figure 6 size cut-off).
pub fn gpu_npj(
    sim: &GpuSim,
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    mode: OutputMode,
) -> Result<JoinOutcome, OutOfGpuMemory> {
    let mut pool = GpuMemPool::for_spec(sim.spec());
    let r_buf = pool.alloc(r.bytes())?;
    let s_buf = pool.alloc(s.bytes())?;

    // The chained layout lists its buckets: the probe is priced per entry.
    let mut table = ProbeTable::default();
    table.rebuild(r.keys, 0, true);
    let bits = table.bits();
    let heads_buf = pool.alloc((1u64 << bits) * 4)?;
    let next_buf = pool.alloc((r.len() * 2 * 4) as u64)?;
    // Entries region: keys+vals+next, the probe's chain working set.
    let entries_bytes = (r.len() * 12) as u64;

    let mut time = SimTime::ZERO;

    // ---- Build kernel: stream r, hash, CAS bucket heads, append entries.
    let grid = r.len().div_ceil(ITEMS_PER_BLOCK).max(1);
    let cfg = hape_sim::LaunchConfig::new(grid, BLOCK_THREADS, 0);
    let build = sim.launch(&cfg, |blk| {
        let start = blk.block_idx * ITEMS_PER_BLOCK;
        let end = (start + ITEMS_PER_BLOCK).min(r.len());
        if start >= end {
            return;
        }
        let n = (end - start) as u64;
        blk.global_read_stream(&r_buf.region, start as u64 * 8, n * 8);
        blk.compute(n, 4.0);
        // Head CAS per tuple: random offsets into the heads region.
        let offs: Vec<u64> =
            r.keys[start..end].iter().map(|&k| hash32(k, bits) as u64 * 4).collect();
        blk.global_atomic(&heads_buf.region, &offs);
        // Entry append is index-sequential: a streaming write.
        blk.global_write_stream(n * 12);
    });
    time += build.time;

    // ---- Probe kernel: stream s, random head loads, chain walks.
    let grid = s.len().div_ceil(ITEMS_PER_BLOCK).max(1);
    let cfg = hape_sim::LaunchConfig::new(grid, BLOCK_THREADS, 0);
    let mut stats = JoinStats::default();
    let mut pairs = match mode {
        OutputMode::MatchIndices => Some((Vec::new(), Vec::new())),
        OutputMode::AggregateOnly => None,
    };
    let entries_region = hape_sim::Region::at(next_buf.region.base, entries_bytes.max(1));
    let probe = sim.launch(&cfg, |blk| {
        let start = blk.block_idx * ITEMS_PER_BLOCK;
        let end = (start + ITEMS_PER_BLOCK).min(s.len());
        if start >= end {
            return;
        }
        let n = (end - start) as u64;
        blk.global_read_stream(&s_buf.region, start as u64 * 8, n * 8);
        blk.compute(n, 6.0);
        let keys = &s.keys[start..end];
        let (mut probe_sel, mut build_sel) = (Vec::new(), Vec::new());
        table.probe(keys, &mut probe_sel, &mut build_sel, |_| {});
        let vals = (r.vals, &s.vals[start..end]);
        record(vals, (&probe_sel, &build_sel), &mut stats, &mut pairs);
        let block_matches = probe_sel.len() as u64;
        // The real chains' entry addresses, as a chain walk touches them.
        let head_offs: Vec<u64> = keys.iter().map(|&k| hash32(k, bits) as u64 * 4).collect();
        let chain_offs: Vec<u64> =
            keys.iter().flat_map(|&k| table.chain(k)).map(|e| e as u64 * 12).collect();
        blk.global_read(&heads_buf.region, &head_offs, 4);
        blk.global_read(&entries_region, &chain_offs, 12);
        if mode == OutputMode::MatchIndices {
            blk.global_write_stream(block_matches * 8);
        }
    });
    time += probe.time;

    pool.free(r_buf);
    pool.free(s_buf);
    pool.free(heads_buf);
    pool.free(next_buf);
    Ok(JoinOutcome { stats, pairs, time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_join;
    use hape_sim::{Fidelity, GpuSim, GpuSpec};
    use hape_storage::datagen::gen_unique_keys;

    fn sim() -> GpuSim {
        GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Analytic)
    }

    #[test]
    fn matches_reference() {
        let rk = gen_unique_keys(4096, 31);
        let sk = gen_unique_keys(4096, 32);
        let rv: Vec<u32> = (0..4096).collect();
        let sv: Vec<u32> = (4096..8192).collect();
        let r = JoinInput::new(&rk, &rv);
        let s = JoinInput::new(&sk, &sv);
        let out = gpu_npj(&sim(), r, s, OutputMode::MatchIndices).unwrap();
        let reference = reference_join(r, s);
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.sorted_pairs(), reference.sorted_pairs());
    }

    #[test]
    fn oom_when_tables_exceed_gpu_memory() {
        // A scaled-down GPU with 1 MiB of memory cannot hold 64K tuples.
        let tiny = GpuSim::new(GpuSpec::gtx_1080_scaled(1.0 / 8192.0), Fidelity::Analytic);
        let rk = gen_unique_keys(1 << 16, 1);
        let rv = vec![0u32; 1 << 16];
        let r = JoinInput::new(&rk, &rv);
        let err = gpu_npj(&tiny, r, r, OutputMode::AggregateOnly).unwrap_err();
        assert!(err.requested > 0);
    }

    #[test]
    fn probe_dominated_by_random_access() {
        // Doubling the probe side should roughly double time; the cost per
        // probe should far exceed the streaming cost of its 8 bytes.
        let n = 1 << 18;
        let rk = gen_unique_keys(n, 2);
        let rv = vec![0u32; n];
        let r = JoinInput::new(&rk, &rv);
        let out = gpu_npj(&sim(), r, r, OutputMode::AggregateOnly).unwrap();
        assert_eq!(out.stats.matches, n as u64);
        let per_probe_ns = out.time.as_ns() / n as f64;
        let stream_ns = 8.0 / sim().spec().dram_bw * 1e9;
        assert!(per_probe_ns > 4.0 * stream_ns, "{per_probe_ns} vs {stream_ns}");
    }
}
