//! GPU operator implementations (kernels on the simulator).
//!
//! Operators process the batch block-by-block inside a fused kernel, exactly
//! as the paper's GPU device provider generates them: streaming, coalesced
//! reads of the referenced columns, register-resident intermediates, and
//! scratchpad-based aggregation (one partial aggregate per block, merged on
//! the host side afterwards).

use hape_sim::{BlockCtx, GpuSim, KernelReport, LaunchConfig, Region, SimTime};

use crate::agg::AggSpec;

/// Rows each thread block processes.
pub const ITEMS_PER_BLOCK: usize = 8192;
/// Threads per block for operator kernels.
pub const BLOCK_THREADS: usize = 256;

/// Launch geometry for `rows` items.
pub fn grid_for(rows: usize) -> LaunchConfig {
    LaunchConfig::new(rows.div_ceil(ITEMS_PER_BLOCK).max(1), BLOCK_THREADS, 0)
}

/// The rows this block covers.
fn block_range(blk: &BlockCtx<'_>, rows: usize) -> (usize, usize) {
    let start = blk.block_idx * ITEMS_PER_BLOCK;
    let end = (start + ITEMS_PER_BLOCK).min(rows);
    (start, end.max(start))
}

/// Per-block survivor counts of a filter's selection vector — the
/// statistic [`filter_cost`] replays instead of re-evaluating the
/// predicate. `sel` holds the surviving row indices in ascending order.
pub fn block_survivors(sel: &[u32], rows: usize) -> Vec<u32> {
    let mut done = 0;
    (1..=rows.div_ceil(ITEMS_PER_BLOCK).max(1))
        .map(|b| {
            let end = sel.partition_point(|&i| (i as usize) < b * ITEMS_PER_BLOCK);
            (end - std::mem::replace(&mut done, end)) as u32
        })
        .collect()
}

/// Charge a fused filter from recorded statistics: `rows` input rows whose
/// predicate touches `row_bytes` per row, `out_row_bytes` per surviving
/// row, and the per-block survivor counts the functional pass observed
/// (see [`block_survivors`]). The predicate is not re-run — this is what
/// lets the data plane evaluate a packet once and price it for every
/// device class.
pub fn filter_cost(
    sim: &GpuSim,
    region: Region,
    rows: usize,
    row_bytes: u64,
    out_row_bytes: u64,
    pred_ops: f64,
    survivors: &[u32],
) -> KernelReport {
    sim.launch(&grid_for(rows), |blk| {
        let (start, end) = block_range(blk, rows);
        if start >= end {
            return;
        }
        let n = end - start;
        let selected = survivors.get(blk.block_idx).copied().unwrap_or(0);
        // Coalesced read of referenced columns, register compute, warp-level
        // compaction, coalesced write of survivors.
        blk.global_read_stream(&region, start as u64 * row_bytes, n as u64 * row_bytes);
        blk.compute(n as u64, pred_ops + 2.0);
        blk.global_write_stream(selected as u64 * out_row_bytes);
    })
}

/// Bytes per row the fused aggregation reads out of a schema of column
/// `widths`: every aggregate's argument columns and the group keys.
pub fn agg_row_bytes(spec: &AggSpec, widths: &[u64]) -> u64 {
    let args: u64 = spec.aggs.iter().map(|(_, e)| e.row_bytes(widths)).sum();
    args + spec.group_by.iter().map(|&g| widths[g]).sum::<u64>()
}

/// Charge the fused-aggregation kernel (per-block partial aggregates in
/// the scratchpad) for `rows` rows of `row_bytes` each (see
/// [`agg_row_bytes`]) under `spec`, without folding any state — the fold
/// itself runs on the data plane, in routed packet order.
pub fn agg_cost(
    sim: &GpuSim,
    region: Region,
    rows: usize,
    row_bytes: u64,
    spec: &AggSpec,
) -> KernelReport {
    let row_bytes = row_bytes.max(1);
    // Scratchpad for per-block group table: 64B per group slot, pessimistic
    // 1024 slots — or all a block may have, on a smaller scratchpad.
    let smem = (16 << 10).min(sim.spec().smem_per_block);
    let cfg = LaunchConfig::new(rows.div_ceil(ITEMS_PER_BLOCK).max(1), BLOCK_THREADS, smem);
    let ops_per_row = spec.ops_per_row();

    sim.launch(&cfg, |blk| {
        let (start, end) = block_range(blk, rows);
        if start >= end {
            return;
        }
        let n = end - start;
        blk.global_read_stream(&region, start as u64 * row_bytes, n as u64 * row_bytes);
        blk.compute(n as u64, ops_per_row);
        // One scratchpad atomic per row per aggregate; group keys map to
        // scratchpad words. With few groups the same-word serialisation is
        // mitigated by warp-level pre-aggregation: model one atomic per warp
        // per aggregate plus one smem update per row.
        blk.smem_access(&AGG_WORDS[..n.min(1024)]);
        for _ in &spec.aggs {
            blk.smem_atomic(&AGG_WARP_ATOMICS[..(n / 32).max(1)]);
        }
    })
}

/// The scratchpad words an aggregation block's rows update (`i % 241`) and
/// its warps' atomics hit (`i % 61`): a fixed pattern, built once.
static AGG_WORDS: [u32; 1024] = modulo_pattern(241);
static AGG_WARP_ATOMICS: [u32; ITEMS_PER_BLOCK / 32] = modulo_pattern(61);

const fn modulo_pattern<const N: usize>(modulus: u32) -> [u32; N] {
    let mut out = [0u32; N];
    let mut i = 0;
    while i < N {
        out[i] = i as u32 % modulus;
        i += 1;
    }
    out
}

/// Cost-only helper: a fused streaming pass of `bytes` through a GPU
/// pipeline stage (used for scans and for projections whose outputs stay in
/// registers).
pub fn stream_pass(sim: &GpuSim, region: Region, bytes: u64, ops_per_item: f64) -> SimTime {
    let rows = (bytes / 8).max(1) as usize;
    let report = sim.launch(&grid_for(rows), |blk| {
        let (start, end) = block_range(blk, rows);
        if start >= end {
            return;
        }
        let n = (end - start) as u64;
        blk.global_read_stream(&region, start as u64 * 8, n * 8);
        blk.compute(n, ops_per_item);
    });
    report.time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::Expr;
    use hape_sim::{Fidelity, GpuSpec};
    use hape_storage::{Batch, Column};

    fn sim() -> GpuSim {
        GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Analytic)
    }

    fn batch(n: usize) -> Batch {
        Batch::new(vec![
            Column::from_i32((0..n as i32).collect()),
            Column::from_f64((0..n).map(|i| i as f64).collect()),
        ])
    }

    /// Price `pred` over `b` the way `run_ops` records it: per-block
    /// survivor counts of the rows where column 0 is below `below`.
    fn price_filter(b: &Batch, below: i32, region: Region) -> KernelReport {
        let pred = Expr::lt(Expr::col(0), Expr::LitI32(below));
        let sel: Vec<u32> = (0..b.rows() as u32).filter(|&i| (i as i32) < below).collect();
        let survivors = block_survivors(&sel, b.rows());
        filter_cost(&sim(), region, b.rows(), 4, 12, pred.ops_per_row(), &survivors)
    }

    #[test]
    fn block_survivors_counts_each_blocks_share_of_the_selection() {
        let rows = 3 * ITEMS_PER_BLOCK + 5;
        let sel: Vec<u32> =
            (0..rows as u32).filter(|i| i % 3 == 0 || (8_000..8_300).contains(i)).collect();
        let mut want = vec![0u32; 4];
        for &i in &sel {
            want[i as usize / ITEMS_PER_BLOCK] += 1;
        }
        assert_eq!(block_survivors(&sel, rows), want);
        assert_eq!(block_survivors(&sel[..1], rows), [1, 0, 0, 0]);
        assert_eq!(block_survivors(&[], rows), [0; 4]);
        assert_eq!(block_survivors(&[], 0), [0]);
    }

    #[test]
    fn filter_cost_charges_stream_and_survivors() {
        let b = batch(20_000);
        let region = Region::at(1 << 20, b.bytes());
        let none = price_filter(&b, 0, region);
        let some = price_filter(&b, 5_000, region);
        assert!(none.time.as_us() > 0.0);
        assert!(none.stats.dram_bytes > 0.0);
        // Survivors are written back: more of them, more traffic.
        assert!(some.stats.dram_bytes > none.stats.dram_bytes);
    }

    #[test]
    fn agg_cost_uses_the_scratchpad() {
        let b = batch(10_000);
        let spec = AggSpec::ungrouped(vec![
            (AggFunc::Sum, Expr::col(1)),
            (AggFunc::Count, Expr::col(1)),
        ]);
        let widths: Vec<u64> = b.columns.iter().map(|c| c.data_type().width() as u64).collect();
        let row_bytes = agg_row_bytes(&spec, &widths);
        assert_eq!(row_bytes, 16, "both aggregates read the f64 column");
        let report =
            agg_cost(&sim(), Region::at(1 << 20, b.bytes()), b.rows(), row_bytes, &spec);
        assert!(report.time.as_us() > 0.0);
        assert!(report.stats.smem_ops > 0);
    }

    /// `filter_cost` and `agg_cost` whole reports on seeded shapes (up to
    /// 60 000 rows, any survivor counts, one to four aggregates) on the
    /// paper's GPU and on a 2-SM GPU whose two-block waves complete
    /// mid-grid, pinned from before the warp counters' fast paths and the
    /// reused kernel buffers.
    #[test]
    fn filter_and_agg_reports_are_pinned_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let narrow = GpuSpec { sms: 2, max_threads_per_sm: 512, ..GpuSpec::gtx_1080() };
        let mut r = StdRng::seed_from_u64(7);
        let mut reports = Vec::new();
        for case in 0..64 {
            let spec = if case % 2 == 0 { GpuSpec::gtx_1080() } else { narrow.clone() };
            let sim = GpuSim::new(spec, Fidelity::Analytic);
            let rows = r.gen_range(0..60_000usize);
            let region = Region::at(1 << 20, r.gen_range(1..1u64 << 26));
            let survivors: Vec<u32> = (0..rows.div_ceil(ITEMS_PER_BLOCK).max(1))
                .map(|b| {
                    r.gen_range(0..=(rows - b * ITEMS_PER_BLOCK).min(ITEMS_PER_BLOCK) as u32)
                })
                .collect();
            let (row_bytes, out_bytes) = (r.gen_range(1..40u64), r.gen_range(1..40u64));
            let pred_ops = r.gen_range(0.5..6.0);
            reports.push(filter_cost(
                &sim, region, rows, row_bytes, out_bytes, pred_ops, &survivors,
            ));
            let aggs =
                (0..r.gen_range(1..5usize)).map(|i| (AggFunc::Sum, Expr::col(i % 2))).collect();
            let agg = AggSpec::grouped(vec![0], aggs);
            reports.push(agg_cost(&sim, region, rows, row_bytes, &agg));
        }
        assert_eq!(KernelReport::digest(&reports), 0x68da_178e_79b4_ca4d);
    }

    /// A GPU whose blocks get less scratchpad than the aggregation's
    /// 16 KiB table still prices it: the request is clamped to what a
    /// block may have.
    #[test]
    fn agg_cost_fits_a_small_scratchpad() {
        let small = GpuSpec { smem_per_block: 8 << 10, ..GpuSpec::gtx_1080() };
        let spec = AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(1))]);
        let sim = GpuSim::new(small, Fidelity::Analytic);
        let report = agg_cost(&sim, Region::at(1 << 20, 1 << 20), 20_000, 8, &spec);
        assert!(report.time.as_us() > 0.0);
        assert!(report.stats.smem_ops > 0);
    }

    #[test]
    fn filter_time_scales_with_rows() {
        let region = Region::at(1 << 20, 1 << 30);
        let small = price_filter(&batch(100_000), 0, region);
        let large = price_filter(&batch(4_000_000), 0, region);
        assert!(
            large.time.as_secs() > 5.0 * small.time.as_secs(),
            "large={} small={}",
            large.time,
            small.time
        );
    }

    #[test]
    fn stream_pass_near_bandwidth() {
        let s = sim();
        let bytes = 1u64 << 28;
        let t = stream_pass(&s, Region::at(1 << 20, bytes), bytes, 1.0);
        let ideal = bytes as f64 / s.spec().dram_bw;
        assert!(t.as_secs() < ideal * 3.0, "{} vs ideal {}", t.as_secs(), ideal);
    }
}
