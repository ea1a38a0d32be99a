//! CPU radix join (hardware-conscious).
//!
//! Shatdal's cache partitioning + Boncz's multi-pass TLB-bounded fanout:
//! both inputs are co-partitioned on their key radix until every build-side
//! partition's hash table fits the cache-residency budget; each pass's
//! fanout respects the TLB bound. Then each co-partition is joined entirely
//! in cache. Everything is *planned from the [`hape_sim::CpuSpec`]* — the
//! paper's point that the skeleton is shared and only the hardware bounds
//! differ per device (§4.1).

use hape_sim::spec::CpuSpec;
use hape_sim::{CpuCostModel, SimTime};

use crate::common::{JoinInput, JoinOutcome, JoinStats, OutputMode};
use crate::partition::radix_partition;
use crate::probe::{record, ProbeTable};

/// A planned multi-pass partitioning schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixPlan {
    /// Radix bits per pass.
    pub pass_bits: Vec<u32>,
    /// Total radix bits.
    pub total_bits: u32,
}

impl RadixPlan {
    /// Number of passes.
    pub fn passes(&self) -> usize {
        self.pass_bits.len()
    }

    /// Final number of partitions.
    pub fn fanout(&self) -> usize {
        1usize << self.total_bits
    }
}

/// Plan the CPU radix join for a build side of `n_rows` tuples of
/// `tuple_bytes` each: enough total bits that per-partition tables fit the
/// cache budget; per-pass bits bounded by the TLB-derived fanout.
pub fn plan_radix_cpu(n_rows: usize, tuple_bytes: usize, spec: &CpuSpec) -> RadixPlan {
    let budget = spec.cache_resident_bytes().max(1);
    // Hash-table footprint ≈ 2× the partition payload (heads + next).
    let per_part_target = budget / 2;
    let mut total_bits = 0u32;
    while (n_rows * tuple_bytes) >> total_bits > per_part_target {
        total_bits += 1;
        if total_bits >= 24 {
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

/// Run the CPU radix join with `workers` cores.
pub fn cpu_radix(
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    model: &CpuCostModel,
    workers: usize,
    mode: OutputMode,
) -> JoinOutcome {
    assert!(workers > 0);
    let plan = plan_radix_cpu(r.len().max(2), 8, model.spec());
    cpu_radix_with_plan(r, s, &plan, model, workers, mode)
}

/// Run with an explicit plan (exposed for fanout-ablation benches).
pub fn cpu_radix_with_plan(
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    plan: &RadixPlan,
    model: &CpuCostModel,
    workers: usize,
    mode: OutputMode,
) -> JoinOutcome {
    let max_pass_bits = *plan.pass_bits.iter().max().unwrap_or(&1);
    let (rp, _) = radix_partition(r, plan.total_bits, max_pass_bits);
    let (sp, _) = radix_partition(s, plan.total_bits, max_pass_bits);
    assert_eq!(rp.fanout(), sp.fanout());

    // Partitioning cost: every pass streams the data once and scatters it
    // into `2^bits` buffers — both sides.
    let mut t_partition = SimTime::ZERO;
    for &bits in &plan.pass_bits {
        t_partition += model.partition_pass(r.len() as u64, 8, 1 << bits);
        t_partition += model.partition_pass(s.len() as u64, 8, 1 << bits);
    }

    // Build & probe per co-partition, all in cache.
    let mut stats = JoinStats::default();
    let mut pairs = match mode {
        OutputMode::MatchIndices => Some((Vec::new(), Vec::new())),
        OutputMode::AggregateOnly => None,
    };
    let mut t_join = SimTime::ZERO;
    let mut table = ProbeTable::default();
    let (mut probe_sel, mut build_sel) = (Vec::new(), Vec::new());
    for p in 0..rp.fanout() {
        let rpart = rp.part(p);
        let spart = sp.part(p);
        if rpart.is_empty() || spart.is_empty() {
            continue;
        }
        table.rebuild(rpart.keys, 0, false);
        let ws = table.bytes() + rpart.bytes();
        probe_sel.clear();
        build_sel.clear();
        let chain_steps = table.probe(spart.keys, &mut probe_sel, &mut build_sel, |_| {});
        record((rpart.vals, spart.vals), (&probe_sel, &build_sel), &mut stats, &mut pairs);
        let avg_chain = chain_steps as f64 / spart.len() as f64;
        t_join += model.seq_read(rpart.bytes()) + model.ht_build(rpart.len() as u64, ws);
        t_join += model.seq_read(spart.bytes())
            + model.ht_probe(spart.len() as u64, avg_chain.min(4.0), ws);
    }
    let out_bytes = match mode {
        OutputMode::AggregateOnly => 0,
        OutputMode::MatchIndices => stats.matches * 8,
    };
    let t_out = model.seq_write(out_bytes);
    let time = (t_partition + t_join + t_out) / (workers as f64 * 0.92);
    JoinOutcome { stats, pairs, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_join;
    use crate::cpu_npj::cpu_npj;
    use hape_sim::CpuSpec;
    use hape_storage::datagen::gen_unique_keys;

    fn model() -> CpuCostModel {
        CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 12)
    }

    #[test]
    fn plan_respects_tlb_fanout() {
        let spec = CpuSpec::xeon_e5_2650l_v3();
        let plan = plan_radix_cpu(128 << 20, 8, &spec);
        let max_bits = spec.max_partition_fanout().trailing_zeros();
        assert!(plan.pass_bits.iter().all(|&b| b <= max_bits));
        assert!(plan.passes() >= 2, "128M tuples need multiple passes: {plan:?}");
        // Final partitions are cache resident.
        let per_part = ((128usize << 20) * 8) >> plan.total_bits;
        assert!(per_part * 2 <= spec.cache_resident_bytes());
    }

    #[test]
    fn small_input_single_pass() {
        let spec = CpuSpec::xeon_e5_2650l_v3();
        let plan = plan_radix_cpu(1 << 12, 8, &spec);
        assert_eq!(plan.passes(), 1);
    }

    #[test]
    fn matches_reference() {
        let rk = gen_unique_keys(8192, 10);
        let sk = gen_unique_keys(8192, 11);
        let rv: Vec<u32> = (0..8192).collect();
        let sv: Vec<u32> = (0..8192).map(|i| i * 2).collect();
        let r = JoinInput::new(&rk, &rv);
        let s = JoinInput::new(&sk, &sv);
        let out = cpu_radix(r, s, &model(), 24, OutputMode::MatchIndices);
        let reference = reference_join(r, s);
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.sorted_pairs(), reference.sorted_pairs());
    }

    #[test]
    fn radix_beats_npj_on_large_inputs() {
        // The Figure 6 ordering: partitioned CPU < non-partitioned CPU once
        // the table is DRAM-resident.
        let n = 1 << 21; // 2M tuples, 16MB build side + table >> caches
        let rk = gen_unique_keys(n, 20);
        let rv = vec![0u32; n];
        let r = JoinInput::new(&rk, &rv);
        let m = model();
        let radix = cpu_radix(r, r, &m, 24, OutputMode::AggregateOnly);
        let npj = cpu_npj(r, r, &m, 24, OutputMode::AggregateOnly);
        assert_eq!(radix.stats, npj.stats);
        assert!(
            radix.time.as_secs() < npj.time.as_secs(),
            "radix {} !< npj {}",
            radix.time,
            npj.time
        );
    }

    #[test]
    fn explicit_plan_over_partitioning_is_slower() {
        // Over-partitioning (fanout ≫ needed) wastes passes.
        let n = 1 << 16;
        let rk = gen_unique_keys(n, 21);
        let rv = vec![0u32; n];
        let r = JoinInput::new(&rk, &rv);
        let m = model();
        let good = cpu_radix(r, r, &m, 24, OutputMode::AggregateOnly);
        let over = cpu_radix_with_plan(
            r,
            r,
            &RadixPlan { pass_bits: vec![7, 7, 7], total_bits: 21 },
            &m,
            24,
            OutputMode::AggregateOnly,
        );
        assert_eq!(good.stats, over.stats);
        assert!(over.time > good.time);
    }
}
