//! CPU non-partitioned hash join (the hardware-oblivious baseline).
//!
//! One shared chained hash table over the whole build side (Blanas et al.
//! style). All cores build concurrently (atomic head swaps) and then probe.
//! With a DRAM-resident table every probe is a random access — the paper's
//! Figure 6 shows this is what partitioning avoids.

use hape_sim::CpuCostModel;

use crate::common::{JoinInput, JoinOutcome, JoinStats, OutputMode};
use crate::probe::{record, ProbeTable};

/// Parallel-efficiency of the shared build phase (atomic contention on
/// bucket heads).
const BUILD_EFF: f64 = 0.75;
/// Parallel-efficiency of the probe phase (read-only sharing).
const PROBE_EFF: f64 = 0.95;

/// Run the non-partitioned join with `workers` CPU cores.
///
/// `model` must be configured for the per-worker bandwidth share (see
/// [`CpuCostModel::new`]).
pub fn cpu_npj(
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    model: &CpuCostModel,
    workers: usize,
    mode: OutputMode,
) -> JoinOutcome {
    assert!(workers > 0);
    let table = ProbeTable::build(r.keys);
    let ht_bytes = table.bytes();

    let mut stats = JoinStats::default();
    let mut pairs = match mode {
        OutputMode::MatchIndices => Some((Vec::new(), Vec::new())),
        OutputMode::AggregateOnly => None,
    };
    let (mut probe_sel, mut build_sel) = (Vec::new(), Vec::new());
    let chain_steps = table.probe(s.keys, &mut probe_sel, &mut build_sel, |_| {});
    record((r.vals, s.vals), (&probe_sel, &build_sel), &mut stats, &mut pairs);

    // Cost: build = stream r + insertions (random RMW on a DRAM-sized
    // table); probe = stream s + measured chain traversals; output streamed.
    let build = model.seq_read(r.bytes()) + model.ht_build(r.len() as u64, ht_bytes);
    let avg_chain = if s.is_empty() { 0.0 } else { chain_steps as f64 / s.len() as f64 };
    let probe = model.seq_read(s.bytes())
        + model.ht_probe(s.len() as u64, avg_chain, ht_bytes + r.bytes());
    let out_bytes = match mode {
        OutputMode::AggregateOnly => 0,
        OutputMode::MatchIndices => stats.matches * 8,
    };
    let output = model.seq_write(out_bytes);
    let time =
        build / (workers as f64 * BUILD_EFF) + (probe + output) / (workers as f64 * PROBE_EFF);
    JoinOutcome { stats, pairs, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_join;
    use hape_sim::CpuSpec;
    use hape_storage::datagen::gen_unique_keys;

    fn model() -> CpuCostModel {
        CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 12)
    }

    #[test]
    fn matches_reference() {
        let rk = gen_unique_keys(4096, 1);
        let sk = gen_unique_keys(4096, 2);
        let rv: Vec<u32> = (0..4096).collect();
        let sv: Vec<u32> = (0..4096).map(|i| i + 100_000).collect();
        let r = JoinInput::new(&rk, &rv);
        let s = JoinInput::new(&sk, &sv);
        let out = cpu_npj(r, s, &model(), 24, OutputMode::MatchIndices);
        let reference = reference_join(r, s);
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.sorted_pairs(), reference.sorted_pairs());
        assert_eq!(out.stats.matches, 4096);
    }

    #[test]
    fn aggregate_mode_skips_materialisation() {
        let rk = gen_unique_keys(128, 1);
        let rv: Vec<u32> = (0..128).collect();
        let r = JoinInput::new(&rk, &rv);
        let out = cpu_npj(r, r, &model(), 24, OutputMode::AggregateOnly);
        assert!(out.pairs.is_none());
        assert_eq!(out.stats.matches, 128);
        // Self-join: both sums equal the sum of vals.
        assert_eq!(out.stats.sum_r_vals, (0..128).sum::<i64>());
        assert_eq!(out.stats.sum_r_vals, out.stats.sum_s_vals);
    }

    #[test]
    fn more_workers_is_faster() {
        let rk = gen_unique_keys(1 << 14, 3);
        let rv = vec![0u32; 1 << 14];
        let r = JoinInput::new(&rk, &rv);
        let t1 = cpu_npj(
            r,
            r,
            &CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 1),
            1,
            OutputMode::AggregateOnly,
        )
        .time;
        let t24 = cpu_npj(r, r, &model(), 24, OutputMode::AggregateOnly).time;
        assert!(t24.as_secs() < t1.as_secs() / 4.0);
    }

    #[test]
    fn larger_tables_pay_more_per_tuple() {
        // Per-tuple probe cost rises once the table leaves the caches.
        let small_k = gen_unique_keys(1 << 12, 5);
        let small_v = vec![0u32; 1 << 12];
        let big_k = gen_unique_keys(1 << 20, 6);
        let big_v = vec![0u32; 1 << 20];
        let small = JoinInput::new(&small_k, &small_v);
        let big = JoinInput::new(&big_k, &big_v);
        let m = model();
        let t_small = cpu_npj(small, small, &m, 24, OutputMode::AggregateOnly).time;
        let t_big = cpu_npj(big, big, &m, 24, OutputMode::AggregateOnly).time;
        let per_small = t_small.as_ns() / (1 << 12) as f64;
        let per_big = t_big.as_ns() / (1 << 20) as f64;
        assert!(per_big > per_small * 1.5, "{per_small} vs {per_big}");
    }
}
