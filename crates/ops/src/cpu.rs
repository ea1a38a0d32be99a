//! CPU cost formulas + [`project_column`].
//!
//! The functional operators run once per packet in
//! `hape_core::provider::run_ops`; this module prices what they did
//! against the worker's [`CpuCostModel`]. Within a compiled pipeline the
//! operators run back-to-back over one packet — the data makes a single
//! trip through the core (the JIT fusion property, §2.2) — so each formula
//! charges a *fused* operator: only the work beyond the source scan's
//! stream. Consumers that genuinely materialise between operators
//! (vector-at-a-time engines, pipeline breakers) charge that themselves.

use hape_sim::{CpuCostModel, SimTime};
use hape_storage::Batch;

use crate::agg::AggSpec;
use crate::expr::{eval, Expr};

/// Cost of a source scan delivering `bytes` from local memory.
pub fn scan_cost(bytes: u64, model: &CpuCostModel) -> SimTime {
    model.seq_read(bytes)
}

/// Cost of a fused filter over `rows` input rows at `pred_ops` predicate
/// operations per row: the predicate evaluation only — the scan already
/// paid for streaming the packet, and survivors stay in
/// registers/selection vectors (§2.2).
pub fn filter_cost(rows: u64, pred_ops: f64, model: &CpuCostModel) -> SimTime {
    model.compute_simd(rows, pred_ops + 1.0)
}

/// Cost of a fused projection of `rows` rows at `ops` expression operations
/// per row: inputs were streamed by the scan, outputs stay in registers for
/// the next fused operator.
pub fn project_cost(rows: u64, ops: f64, model: &CpuCostModel) -> SimTime {
    model.compute_simd(rows, ops + 0.5)
}

/// Cost of folding `rows` input rows into an aggregation whose group table
/// holds `n_groups` groups *after* the fold: the argument columns were
/// streamed by the scan; what remains is expression evaluation plus random
/// accesses into the (usually tiny) group hash table. A formula, not a
/// fold, so the control plane can price a packet from recorded statistics
/// while the actual fold runs on the data plane.
pub fn agg_cost(spec: &AggSpec, rows: u64, n_groups: usize, model: &CpuCostModel) -> SimTime {
    let table_bytes = (n_groups.max(1) * 64) as u64;
    model.compute_simd(rows, spec.ops_per_row()) + model.random_accesses(rows, table_bytes)
}

/// Materialise one projection expression over a batch. A bare reference to
/// an `f64` column is a zero-copy view of the Arc-backed storage; everything
/// else evaluates into a fresh `f64` column.
pub fn project_column(e: &Expr, batch: &Batch) -> hape_storage::Column {
    if let Expr::Col(i) = e {
        let c = batch.col(*i);
        if c.data_type() == hape_storage::table::DataType::F64 {
            return c.clone();
        }
    }
    hape_storage::Column::from_f64(eval(e, batch).into_f64().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_sim::CpuSpec;

    #[test]
    fn filter_cost_scales_with_input() {
        let model = CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 12);
        let small = filter_cost(1_000, 1.0, &model);
        let large = filter_cost(100_000, 1.0, &model);
        assert!(large.as_secs() > 50.0 * small.as_secs());
    }
}
