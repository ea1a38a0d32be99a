//! Aggregation: ungrouped and group-by, with mergeable partial states.
//!
//! Parallel aggregation follows the paper's horizontal co-processing example
//! (§5): every worker (CPU core or GPU) folds its packets into a *partial*
//! [`AggState`]; the states are then merged — the routers never have to
//! synchronise on a shared hash table, which is exactly what makes the
//! operator heterogeneity-oblivious.
//!
//! A folded batch may carry a selection (what a filter leaves instead of a
//! copy, see [`Batch::selection`]): both kernels below read its columns
//! through it, so the filter's survivors are never gathered into a batch.
//!
//! # The group-id kernel
//!
//! Group keys are numbered in exactly one place, [`group_ids`], once per
//! folded packet: `hape_core::provider::run_ops` carries the [`GroupIds`]
//! to the packet's pricing, which reads the `keys`, and to its fold
//! ([`AggState::fold`]), which reads the `ids`. One batch in, a dense `u32`
//! id per row plus the distinct keys in first-seen row order out. Key
//! columns are read as their own integer type, through the selection. When
//! the batch's combined key range is small (dictionary codes, nation ×
//! year) the ids come from a direct-mapped table indexed by the mixed-radix
//! key offset; otherwise from one hash-map lookup per row.
//!
//! # The fused fold
//!
//! [`AggState::fold`] maps each batch-local id to a state slot once per
//! distinct group, then, `BLOCK_ROWS` rows at a time, evaluates each
//! distinct aggregate argument once over the block's selected rows (every
//! column the arguments read gathered and widened once) and runs **one**
//! loop over the rows that updates every aggregate of the row. A slot's
//! accumulators sit side by side (`accs[slot * aggs + agg]`), so a row's
//! updates land in one contiguous run, and the load-add-store chains of a
//! hot group's aggregates interleave instead of running one loop after
//! another. Each aggregate touches only the fields its [`AggFunc`] reads; a
//! row's count goes to a per-group tally that is added to every counting
//! accumulator once per fold (integer sums: exact in any order). Sums of one
//! argument (Q1's `sum(l_quantity)`, `avg(l_quantity)`) add the same values
//! to the same start, so one accumulates and its twins copy its sum.
//!
//! # Bit-identity
//!
//! Results equal a row-at-a-time fold bit for bit (the `#[cfg(test)]`
//! oracle below asserts it), for two reasons. The fused loop visits rows in
//! batch order, and within a row each aggregate updates its own
//! accumulator, so each floating-point accumulator sees its group's values
//! in the same order as the oracle and rounds identically; argument
//! values are the same IEEE operations on the same widened values whether
//! a batch is selected or compacted. And both id paths number keys in
//! first-seen row order, whether a batch is numbered whole or one block at
//! a time, so the keys — hence the slot order and every simulated makespan
//! priced from them — cannot depend on which path a batch took, on its
//! size, nor on whether it carried a selection.

use std::collections::HashMap;

use hape_storage::Batch;

use crate::expr::{eval_distinct, Expr};
use crate::stateful::{with_ints, Int, Ints};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the expression.
    Sum,
    /// Row count (expression ignored).
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Average (sum/count, finished at the end).
    Avg,
}

/// A group-by + aggregate specification.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Indices of the group-by columns (empty = ungrouped).
    pub group_by: Vec<usize>,
    /// `(function, argument)` pairs.
    pub aggs: Vec<(AggFunc, Expr)>,
}

impl AggSpec {
    /// Ungrouped aggregation.
    pub fn ungrouped(aggs: Vec<(AggFunc, Expr)>) -> Self {
        AggSpec { group_by: Vec::new(), aggs }
    }

    /// Grouped aggregation.
    pub fn grouped(group_by: Vec<usize>, aggs: Vec<(AggFunc, Expr)>) -> Self {
        // Invariant 13 of hape_core's binding walk: a group-by has at most
        // as many columns as a `GroupKey` holds, so no plan that binds
        // builds a wider spec.
        debug_assert!(
            group_by.len() <= GroupKey::default().len(),
            "at most 4 group-by columns"
        );
        AggSpec { group_by, aggs }
    }

    /// Approximate compute operations per input row (for cost charging).
    pub fn ops_per_row(&self) -> f64 {
        let expr_ops: f64 = self.aggs.iter().map(|(_, e)| e.ops_per_row()).sum();
        // hash + bucket update per aggregate.
        2.0 + expr_ops + 2.0 * self.aggs.len() as f64
    }
}

/// A composite group key (up to 4 integer-valued columns).
pub type GroupKey = [i64; 4];

/// One accumulator. An aggregate maintains only the fields its [`AggFunc`]
/// finishes from; the rest keep their identity values.
#[derive(Debug, Clone, Copy)]
struct Acc {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Acc {
    fn new() -> Self {
        Acc { sum: 0.0, count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    fn merge(&mut self, o: &Acc) {
        self.sum += o.sum;
        self.count += o.count;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    fn finish(&self, f: AggFunc) -> f64 {
        match f {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
        }
    }
}

/// Largest combined key range `group_ids` direct-maps: a 64 KiB table of
/// `u32` ids stays L1/L2-resident and costs less to clear than a packet
/// costs to hash.
const DENSE_LIMIT: u64 = 1 << 14;

/// Rows [`AggState::fold`] accumulates at a time: a block's argument
/// vectors stay L2-resident, so the cost per row does not grow with the
/// batch.
const BLOCK_ROWS: usize = 1 << 14;

/// Output of the group-id kernel for one batch.
#[derive(Debug, Clone)]
pub struct GroupIds {
    /// Per (selected) row, the index of its key in `keys`.
    pub ids: Vec<u32>,
    /// Distinct group keys, in first-seen row order.
    pub keys: Vec<GroupKey>,
}

/// `(min, max)` of a key column over the selected rows (every row when
/// `sel` is `None`).
fn key_bounds<T: Int>(v: &[T], sel: Option<&[u32]>) -> (i64, i64) {
    let bounds = |(lo, hi): (i64, i64), x: i64| (lo.min(x), hi.max(x));
    let empty = (i64::MAX, i64::MIN);
    match sel {
        None => v.iter().map(|x| x.get()).fold(empty, bounds),
        Some(sel) => sel.iter().map(|&r| v[r as usize].get()).fold(empty, bounds),
    }
}

/// Per column `(min, range)` over the selected rows when the batch's
/// combined key range fits the direct map. All range arithmetic is
/// checked: extreme keys, or a single column wider than the limit, fall
/// through to the hashed path.
fn dense_domain(cols: &[Ints<'_>], sel: Option<&[u32]>) -> Option<Vec<(i64, u64)>> {
    let mut size = 1u64;
    cols.iter()
        .map(|col| {
            let (lo, hi) = with_ints!(col, v => key_bounds(v, sel));
            let range = hi.abs_diff(lo).checked_add(1)?;
            size = size.checked_mul(range).filter(|&s| s <= DENSE_LIMIT)?;
            Some((lo, range))
        })
        .collect()
}

/// The group-id kernel: a dense id per row of `batch` (per selected row,
/// when it carries a selection) under `spec`'s group-by columns, plus the
/// distinct keys in first-seen row order. An ungrouped spec puts every row
/// in the single all-zero key.
pub fn group_ids(spec: &AggSpec, batch: &Batch) -> GroupIds {
    let (n, sel) = (batch.rows(), batch.selection());
    let cols: Vec<Ints<'_>> = spec.group_by.iter().map(|&i| Ints::of(batch.col(i))).collect();
    // The key of column row `row` (not block row: through the selection).
    let key_at = |row: usize| {
        let mut key: GroupKey = [0; 4];
        for (slot, col) in key.iter_mut().zip(&cols) {
            *slot = with_ints!(col, v => v[row].get());
        }
        key
    };
    let row_of = |k: usize| sel.map_or(k, |sel| sel[k] as usize);
    let mut keys: Vec<GroupKey> = Vec::new();
    let mut ids = vec![0u32; n];
    if let Some(dims) = dense_domain(&cols, sel) {
        // Mixed-radix offset of each row's key, column by column; every
        // digit is below its range, so the offset is below DENSE_LIMIT.
        for (col, &(lo, range)) in cols.iter().zip(&dims) {
            let digit = |id: u32, x: i64| id * range as u32 + x.wrapping_sub(lo) as u32;
            with_ints!(col, v => match sel {
                None => ids.iter_mut().zip(v.iter()).for_each(|(id, x)| *id = digit(*id, x.get())),
                Some(sel) => ids
                    .iter_mut()
                    .zip(sel)
                    .for_each(|(id, &r)| *id = digit(*id, v[r as usize].get())),
            });
        }
        let size: u64 = dims.iter().map(|d| d.1).product();
        let mut table = vec![u32::MAX; size as usize];
        for (k, id) in ids.iter_mut().enumerate() {
            let slot = &mut table[*id as usize];
            if *slot == u32::MAX {
                *slot = keys.len() as u32;
                keys.push(key_at(row_of(k)));
            }
            *id = *slot;
        }
    } else {
        let mut seen: HashMap<GroupKey, u32> = HashMap::new();
        for (k, id) in ids.iter_mut().enumerate() {
            let key = key_at(row_of(k));
            *id = *seen.entry(key).or_insert_with(|| {
                keys.push(key);
                keys.len() as u32 - 1
            });
        }
    }
    GroupIds { ids, keys }
}

/// A mergeable (partial) aggregation state.
#[derive(Debug, Clone)]
pub struct AggState {
    spec: AggSpec,
    /// Group keys in first-seen order; a key's index is its slot.
    keys: Vec<GroupKey>,
    slots: HashMap<GroupKey, u32>,
    /// `accs[slot * spec.aggs.len() + agg]`: a slot's accumulators side by
    /// side.
    accs: Vec<Acc>,
    /// Input rows folded in (for observability / cost accounting).
    pub rows_seen: u64,
}

impl AggState {
    /// Fresh state for a spec.
    pub fn new(spec: AggSpec) -> Self {
        AggState {
            spec,
            keys: Vec::new(),
            slots: HashMap::new(),
            accs: Vec::new(),
            rows_seen: 0,
        }
    }

    /// The spec.
    pub fn spec(&self) -> &AggSpec {
        &self.spec
    }

    /// Number of groups so far.
    pub fn n_groups(&self) -> usize {
        self.keys.len()
    }

    /// The state slot of `key`, allocating identity accumulators on first
    /// sight.
    fn slot(&mut self, key: GroupKey) -> u32 {
        *self.slots.entry(key).or_insert_with(|| {
            self.keys.push(key);
            self.accs.extend(self.spec.aggs.iter().map(|_| Acc::new()));
            self.keys.len() as u32 - 1
        })
    }

    /// Fold one batch into the state — its selected rows, when it carries
    /// a selection — numbering its groups first ([`AggState::fold`]).
    pub fn update(&mut self, batch: &Batch) {
        self.fold(batch, &group_ids(&self.spec, batch));
    }

    /// Fold one batch through its [`group_ids`] under this state's spec:
    /// each batch-local id maps to a state slot once, then the rows are
    /// accumulated `BLOCK_ROWS` at a time.
    pub fn fold(&mut self, batch: &Batch, groups: &GroupIds) {
        let n = batch.rows();
        debug_assert_eq!(groups.ids.len(), n, "group ids of another batch");
        self.rows_seen += n as u64;
        // Batch-local id -> the state slot's first accumulator: one map
        // lookup per distinct group.
        let width = self.spec.aggs.len();
        let first: Vec<usize> =
            groups.keys.iter().map(|&k| self.slot(k) as usize * width).collect();
        // Each distinct argument expression is evaluated once per block,
        // vectorised over the selected rows; count ignores its argument.
        let exprs: Vec<Option<&Expr>> =
            self.spec.aggs.iter().map(|(f, e)| (*f != AggFunc::Count).then_some(e)).collect();
        let mut rows_of = vec![0u64; first.len()];
        for off in (0..n).step_by(BLOCK_ROWS) {
            let len = BLOCK_ROWS.min(n - off);
            let block = batch.slice(off, len);
            let (vals, arg_of) = eval_distinct(&exprs, &block);
            // `(aggregate, argument, values)`; twins: `(aggregate, the sum it copies)`.
            let mut sums: Vec<(usize, Option<usize>, &[f64])> = vec![];
            let (mut mins, mut maxs, mut twins) = (vec![], vec![], vec![]);
            for (a, ((func, _), arg)) in self.spec.aggs.iter().zip(arg_of).enumerate() {
                let vals = arg.map_or(&[][..], |i| &vals[i][..]);
                match func {
                    AggFunc::Sum | AggFunc::Avg => match sums.iter().find(|s| s.1 == arg) {
                        Some(&(twin, ..)) => twins.push((a, twin)),
                        None => sums.push((a, arg, vals)),
                    },
                    AggFunc::Count => {}
                    AggFunc::Min => mins.push((a, vals)),
                    AggFunc::Max => maxs.push((a, vals)),
                }
            }
            // One loop over the rows; each row updates every aggregate.
            for (row, &id) in groups.ids[off..off + len].iter().enumerate() {
                let accs = &mut self.accs[first[id as usize]..][..width];
                for &(a, _, v) in &sums {
                    accs[a].sum += v[row];
                }
                for &(a, v) in &mins {
                    if v[row] < accs[a].min {
                        accs[a].min = v[row];
                    }
                }
                for &(a, v) in &maxs {
                    if v[row] > accs[a].max {
                        accs[a].max = v[row];
                    }
                }
                rows_of[id as usize] += 1;
            }
            for &(a, twin) in &twins {
                for &at in &first {
                    self.accs[at + a].sum = self.accs[at + twin].sum;
                }
            }
        }
        for (a, (f, _)) in self.spec.aggs.iter().enumerate() {
            if matches!(f, AggFunc::Count | AggFunc::Avg) {
                first.iter().zip(&rows_of).for_each(|(&at, &n)| self.accs[at + a].count += n);
            }
        }
    }

    /// Merge another partial state (same spec) into this one.
    pub fn merge(&mut self, other: &AggState) {
        // Every partial of one stage is built from the stage's one spec
        // (the engine's workers, the co-processed fold's chunks, the
        // baselines' streams), so the layouts agree.
        debug_assert_eq!(self.spec.group_by, other.spec.group_by, "merging different specs");
        debug_assert_eq!(self.spec.aggs.len(), other.spec.aggs.len());
        let width = self.spec.aggs.len();
        self.rows_seen += other.rows_seen;
        for (theirs, key) in other.keys.iter().enumerate() {
            let mine = self.slot(*key) as usize * width;
            let theirs = &other.accs[theirs * width..][..width];
            for (m, o) in self.accs[mine..][..width].iter_mut().zip(theirs) {
                m.merge(o);
            }
        }
    }

    /// Finish into `(key, values)` rows, sorted by key for determinism.
    pub fn finish(&self) -> Vec<(GroupKey, Vec<f64>)> {
        let width = self.spec.aggs.len();
        let mut out: Vec<(GroupKey, Vec<f64>)> = self
            .keys
            .iter()
            .enumerate()
            .map(|(slot, k)| {
                let accs = &self.accs[slot * width..][..width];
                let vals = accs.iter().zip(&self.spec.aggs).map(|(a, (f, _))| a.finish(*f));
                (*k, vals.collect())
            })
            .collect();
        out.sort_by_key(|a| a.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_storage::table::DataType;
    use hape_storage::Column;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch() -> Batch {
        Batch::new(vec![
            Column::from_i32(vec![1, 2, 1, 2, 1]),
            Column::from_f64(vec![10.0, 20.0, 30.0, 40.0, 50.0]),
        ])
    }

    #[test]
    fn ungrouped_sum_count() {
        let spec = AggSpec::ungrouped(vec![
            (AggFunc::Sum, Expr::col(1)),
            (AggFunc::Count, Expr::col(1)),
            (AggFunc::Avg, Expr::col(1)),
        ]);
        let mut st = AggState::new(spec);
        st.update(&batch());
        let rows = st.finish();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, vec![150.0, 5.0, 30.0]);
    }

    #[test]
    fn grouped_aggregates() {
        let spec = AggSpec::grouped(
            vec![0],
            vec![
                (AggFunc::Sum, Expr::col(1)),
                (AggFunc::Min, Expr::col(1)),
                (AggFunc::Max, Expr::col(1)),
            ],
        );
        let mut st = AggState::new(spec);
        st.update(&batch());
        let rows = st.finish();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0[0], 1);
        assert_eq!(rows[0].1, vec![90.0, 10.0, 50.0]);
        assert_eq!(rows[1].0[0], 2);
        assert_eq!(rows[1].1, vec![60.0, 20.0, 40.0]);
    }

    #[test]
    fn merge_equals_single_pass() {
        let spec = AggSpec::grouped(vec![0], vec![(AggFunc::Sum, Expr::col(1))]);
        let b = batch();
        // Single pass.
        let mut whole = AggState::new(spec.clone());
        whole.update(&b);
        // Two partials over split packets, then merge.
        let mut p1 = AggState::new(spec.clone());
        let mut p2 = AggState::new(spec);
        p1.update(&b.slice(0, 2));
        p2.update(&b.slice(2, 3));
        p1.merge(&p2);
        assert_eq!(whole.finish(), p1.finish());
        assert_eq!(p1.rows_seen, 5);
    }

    #[test]
    fn expression_arguments() {
        // sum(col1 * 2)
        let spec = AggSpec::ungrouped(vec![(
            AggFunc::Sum,
            Expr::mul(Expr::col(1), Expr::LitF64(2.0)),
        )]);
        let mut st = AggState::new(spec);
        st.update(&batch());
        assert_eq!(st.finish()[0].1, vec![300.0]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let spec = AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(0))]);
        let mut st = AggState::new(spec);
        st.update(&batch().slice(0, 0));
        assert_eq!(st.n_groups(), 0);
        assert_eq!(st.rows_seen, 0);
    }

    /// The row-at-a-time hashed fold this module used before the group-id
    /// kernel, kept as the reference the columnar fold must match bit for
    /// bit: one `HashMap` entry lookup per row, every accumulator field
    /// updated for every aggregate, in row order.
    struct RefState {
        spec: AggSpec,
        groups: HashMap<GroupKey, Vec<Acc>>,
    }

    fn ref_key(spec: &AggSpec, batch: &Batch, row: usize) -> GroupKey {
        let mut key: GroupKey = [0; 4];
        for (slot, &c) in key.iter_mut().zip(&spec.group_by) {
            let col = batch.col(c);
            *slot = match col.data_type() {
                DataType::I32 | DataType::Date => col.as_i32()[row] as i64,
                DataType::I64 => col.as_i64()[row],
                DataType::Str => col.as_codes()[row] as i64,
                DataType::F64 => panic!("cannot group by a float column"),
            };
        }
        key
    }

    fn ref_first_seen_keys(spec: &AggSpec, batch: &Batch) -> Vec<GroupKey> {
        let mut seen = std::collections::HashSet::new();
        (0..batch.rows())
            .map(|row| ref_key(spec, batch, row))
            .filter(|k| seen.insert(*k))
            .collect()
    }

    impl RefState {
        fn new(spec: AggSpec) -> Self {
            RefState { spec, groups: HashMap::new() }
        }

        fn update(&mut self, batch: &Batch) {
            let args: Vec<Vec<f64>> = self
                .spec
                .aggs
                .iter()
                .map(|(f, e)| match f {
                    AggFunc::Count => vec![1.0; batch.rows()],
                    _ => crate::expr::eval(e, batch).into_f64().into_owned(),
                })
                .collect();
            for row in 0..batch.rows() {
                let key = ref_key(&self.spec, batch, row);
                let accs =
                    self.groups.entry(key).or_insert_with(|| vec![Acc::new(); args.len()]);
                for (acc, vals) in accs.iter_mut().zip(&args) {
                    let v = vals[row];
                    acc.sum += v;
                    acc.count += 1;
                    if v < acc.min {
                        acc.min = v;
                    }
                    if v > acc.max {
                        acc.max = v;
                    }
                }
            }
        }

        fn merge(&mut self, other: &RefState) {
            for (key, accs) in &other.groups {
                match self.groups.get_mut(key) {
                    Some(mine) => mine.iter_mut().zip(accs).for_each(|(m, o)| m.merge(o)),
                    None => {
                        self.groups.insert(*key, accs.clone());
                    }
                }
            }
        }

        fn finish(&self) -> Vec<(GroupKey, Vec<u64>)> {
            let mut out: Vec<_> = self
                .groups
                .iter()
                .map(|(k, accs)| {
                    let bits = accs.iter().zip(&self.spec.aggs).map(|(a, (f, _))| a.finish(*f));
                    (*k, bits.map(f64::to_bits).collect())
                })
                .collect();
            out.sort_by_key(|a| a.0);
            out
        }
    }

    fn bits(rows: Vec<(GroupKey, Vec<f64>)>) -> Vec<(GroupKey, Vec<u64>)> {
        rows.into_iter().map(|(k, v)| (k, v.into_iter().map(f64::to_bits).collect())).collect()
    }

    /// Key-column generators the differential sweep draws from.
    #[derive(Debug, Clone, Copy)]
    enum Keys {
        /// `I32` in a small domain that includes negatives.
        SmallI32,
        /// `I64` in a small domain far from zero.
        SmallI64,
        /// Dates (days since epoch, physically `I32`).
        Date,
        /// Dictionary-coded strings.
        Str,
        /// One column spanning exactly [`DENSE_LIMIT`] values: still dense.
        AtLimit,
        /// One column spanning one value more: hashed.
        AboveLimit,
        /// `i64::MIN`, `i64::MAX` and their neighbours: range arithmetic
        /// must not overflow.
        Extreme,
    }

    fn key_column_of(kind: Keys, n: usize, rng: &mut StdRng) -> Column {
        let limit = DENSE_LIMIT as i32;
        let mut i32s = |lo: i32, hi: i32| -> Vec<i32> {
            // Both ends present (once there are two rows), so the range is
            // exactly `hi - lo + 1`.
            let mut v: Vec<i32> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
            if n >= 2 {
                v[0] = hi;
                v[n - 1] = lo;
            }
            v
        };
        match kind {
            Keys::SmallI32 => Column::from_i32(i32s(-3, 3)),
            Keys::Date => Column::from_i32(i32s(8_766, 8_772)),
            Keys::AtLimit => Column::from_i32(i32s(-5, limit - 6)),
            Keys::AboveLimit => Column::from_i32(i32s(-5, limit - 5)),
            Keys::SmallI64 => {
                Column::from_i64((0..n).map(|_| (1 << 40) + rng.gen_range(0..5i64)).collect())
            }
            Keys::Str => {
                let names = ["A", "N", "R", "F", "O"];
                let picks: Vec<&str> =
                    (0..n).map(|_| names[rng.gen_range(0..5usize)]).collect();
                Column::from_strs(picks)
            }
            Keys::Extreme => {
                let pool = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
                Column::from_i64((0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect())
            }
        }
    }

    /// `keys.len()` group columns followed by two `f64` value columns whose
    /// magnitudes differ enough that summation order shows in the bits.
    fn random_batch(keys: &[Keys], n: usize, rng: &mut StdRng) -> Batch {
        let mut cols: Vec<Column> = keys.iter().map(|&k| key_column_of(k, n, rng)).collect();
        for scale in [1e6, 1e-3] {
            cols.push(Column::from_f64((0..n).map(|_| rng.gen_range(-scale..scale)).collect()));
        }
        Batch::new(cols)
    }

    /// Every [`AggFunc`], over bare columns, computed arguments (with a
    /// literal on either side) and one argument that repeats.
    fn every_func(group_by: Vec<usize>) -> AggSpec {
        let (x, y) = (group_by.len(), group_by.len() + 1);
        let disc_price = Expr::mul(Expr::col(x), Expr::sub(Expr::LitF64(1.0), Expr::col(y)));
        let aggs = vec![
            (AggFunc::Sum, Expr::col(x)),
            (AggFunc::Sum, disc_price.clone()),
            (
                AggFunc::Sum,
                Expr::mul(disc_price.clone(), Expr::add(Expr::LitF64(1.0), Expr::col(y))),
            ),
            (AggFunc::Count, Expr::col(x)),
            (AggFunc::Min, Expr::sub(Expr::col(y), Expr::LitI32(7))),
            (AggFunc::Max, Expr::col(y)),
            (AggFunc::Avg, disc_price),
            (AggFunc::Avg, Expr::col(x)),
        ];
        AggSpec { group_by, aggs }
    }

    /// Fold `batch` into one state with each block numbered on its own: the
    /// slot order and results whole-batch ids must reproduce.
    fn fold_per_block_ids(spec: &AggSpec, batch: &Batch) -> AggState {
        let mut st = AggState::new(spec.clone());
        for off in (0..batch.rows()).step_by(BLOCK_ROWS) {
            let block = batch.slice(off, BLOCK_ROWS.min(batch.rows() - off));
            st.fold(&block, &group_ids(spec, &block));
        }
        st
    }

    /// Fold `batch` whole through its carried ids, then split into packets
    /// over two partial states that are merged — the engine's shape — and
    /// compare every result and the pricing statistic against the
    /// row-at-a-time reference; slot order and results equal numbering the
    /// batch one block at a time.
    fn assert_matches_reference(spec: &AggSpec, batch: &Batch, rng: &mut StdRng) {
        let g = group_ids(spec, batch);
        assert_eq!(g.keys, ref_first_seen_keys(spec, batch));
        assert_eq!(g.ids.len(), batch.rows());
        for (row, &id) in g.ids.iter().enumerate() {
            assert_eq!(g.keys[id as usize], ref_key(spec, batch, row));
        }

        let mut whole = AggState::new(spec.clone());
        let mut ref_whole = RefState::new(spec.clone());
        whole.fold(batch, &g);
        ref_whole.update(batch);
        assert_eq!(bits(whole.finish()), ref_whole.finish());
        assert_eq!(whole.n_groups(), ref_whole.groups.len());
        assert_eq!(whole.rows_seen, batch.rows() as u64);
        let blockwise = fold_per_block_ids(spec, batch);
        assert_eq!(whole.keys, blockwise.keys, "slot order");
        assert_eq!(bits(whole.finish()), bits(blockwise.finish()));

        let mut parts = [AggState::new(spec.clone()), AggState::new(spec.clone())];
        let mut ref_parts = [RefState::new(spec.clone()), RefState::new(spec.clone())];
        let mut off = 0;
        while off < batch.rows() {
            let len = rng.gen_range(1..=batch.rows() - off).min(97);
            let (packet, w) = (batch.slice(off, len), rng.gen_range(0..2usize));
            parts[w].update(&packet);
            ref_parts[w].update(&packet);
            off += len;
        }
        let mut merged = AggState::new(spec.clone());
        let mut ref_merged = RefState::new(spec.clone());
        for (p, r) in parts.iter().zip(&ref_parts) {
            merged.merge(p);
            ref_merged.merge(r);
        }
        assert_eq!(bits(merged.finish()), ref_merged.finish());
        assert_eq!(merged.rows_seen, batch.rows() as u64);
    }

    /// Fold `batch` under a selection of `sel`: whole, and in packets over
    /// two merged partials, `to_bits`-equal to folding its compaction and
    /// to the row-at-a-time reference over it; the pricing statistic and
    /// the batch geometry equal the compaction's.
    fn assert_selected_matches_reference(
        spec: &AggSpec,
        batch: &Batch,
        sel: Vec<u32>,
        rng: &mut StdRng,
    ) {
        let selected = batch.clone().with_selection(sel.into());
        let compact = selected.clone().compact();
        assert!(compact.selection().is_none());
        assert_eq!((selected.rows(), selected.bytes()), (compact.rows(), compact.bytes()));
        let g = group_ids(spec, &selected);
        assert_eq!(g.keys, ref_first_seen_keys(spec, &compact));

        let fold = |b: &Batch| {
            let mut st = AggState::new(spec.clone());
            st.fold(b, &group_ids(spec, b));
            (bits(st.finish()), st.n_groups(), st.rows_seen)
        };
        let mut reference = RefState::new(spec.clone());
        reference.update(&compact);
        let (got, groups, rows) = fold(&selected);
        assert_eq!(got, reference.finish());
        let blockwise = fold_per_block_ids(spec, &selected);
        assert_eq!((bits(blockwise.finish()), blockwise.n_groups()), (got.clone(), groups));
        assert_eq!((got, groups, rows), fold(&compact));

        let mut parts = [AggState::new(spec.clone()), AggState::new(spec.clone())];
        let mut ref_parts = [RefState::new(spec.clone()), RefState::new(spec.clone())];
        let mut off = 0;
        while off < selected.rows() {
            let len = rng.gen_range(1..=selected.rows() - off).min(97);
            let w = rng.gen_range(0..2usize);
            parts[w].update(&selected.slice(off, len));
            ref_parts[w].update(&compact.slice(off, len));
            off += len;
        }
        let mut merged = AggState::new(spec.clone());
        let mut ref_merged = RefState::new(spec.clone());
        for (p, r) in parts.iter().zip(&ref_parts) {
            merged.merge(p);
            ref_merged.merge(r);
        }
        assert_eq!(bits(merged.finish()), ref_merged.finish());
    }

    /// Empty, sparse (~2 %), dense (~98 %) and full selections of `n` rows.
    fn selections(n: usize, rng: &mut StdRng) -> [Vec<u32>; 4] {
        let mut share = |p: f64| (0..n as u32).filter(|_| rng.gen_bool(p)).collect();
        [Vec::new(), share(0.02), share(0.98), (0..n as u32).collect()]
    }

    #[test]
    fn columnar_fold_is_bit_identical_to_the_row_at_a_time_reference() {
        use Keys::*;
        let shapes: &[&[Keys]] = &[
            &[],
            &[SmallI32],
            &[Str, Str],
            &[Date, SmallI64],
            &[Str, SmallI32, Date],
            &[SmallI64, Str, Date, SmallI32],
            &[AtLimit],
            &[AboveLimit],
            &[Extreme],
            &[Extreme, Str],
            &[SmallI32, AboveLimit],
            &[Extreme, Extreme, Extreme, Extreme],
        ];
        let mut rng = StdRng::seed_from_u64(15);
        for keys in shapes {
            let spec = every_func((0..keys.len()).collect());
            for n in [0, 1, 2, 500, 3_000, BLOCK_ROWS + 3, 2 * BLOCK_ROWS + 5] {
                let batch = random_batch(keys, n, &mut rng);
                assert_matches_reference(&spec, &batch, &mut rng);
                for sel in selections(n, &mut rng) {
                    assert_selected_matches_reference(&spec, &batch, sel, &mut rng);
                }
            }
        }
    }

    #[test]
    fn a_key_first_seen_in_the_last_block_folds_like_the_reference() {
        // Three blocks; the first two hold keys 0..3 only, and the last
        // block brings key 7 (dense: a small domain) or `i64::MAX` (hashed:
        // the range overflows the direct map) in two of its five rows.
        let n = 2 * BLOCK_ROWS + 5;
        let mut rng = StdRng::seed_from_u64(35);
        let mut late = |x: i64| {
            let mut keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            keys[n - 4] = x;
            keys[n - 1] = x;
            keys
        };
        for keys in [late(7), late(i64::MAX)] {
            let value = |scale: f64| (0..n).map(|i| (i as f64 - 9_000.5) * scale).collect();
            let batch = Batch::new(vec![
                Column::from_i64(keys),
                Column::from_f64(value(1e3)),
                Column::from_f64(value(1e-4)),
            ]);
            let spec = every_func(vec![0]);
            let g = group_ids(&spec, &batch);
            assert_eq!(g.keys.last().map(|k| k[0]), Some(batch.col(0).as_i64()[n - 1]));
            assert_matches_reference(&spec, &batch, &mut rng);
            // Selected: every row but one of the late key's, and a sparse
            // selection that keeps both.
            let but_one: Vec<u32> = (0..n as u32).filter(|&r| r as usize != n - 4).collect();
            let sparse: Vec<u32> =
                (0..n as u32).filter(|&r| r % 37 == 0 || r as usize >= n - 4).collect();
            for sel in [but_one, sparse] {
                assert_selected_matches_reference(&spec, &batch, sel, &mut rng);
            }
        }
    }

    #[test]
    fn dense_path_takes_small_domains_and_refuses_the_rest_without_overflow() {
        let limit = DENSE_LIMIT as i64;
        let dense = |cols: &[Vec<i64>]| {
            let cols: Vec<Ints<'_>> = cols.iter().map(|c| Ints::I64(c)).collect();
            dense_domain(&cols, None)
        };
        // Q1's shape: two tiny columns, offsets from the column minimum.
        assert_eq!(dense(&[vec![2, 0, 1], vec![-7, -6, -7]]), Some(vec![(0, 3), (-7, 2)]));
        // Ungrouped: the empty product.
        assert_eq!(dense(&[]), Some(vec![]));
        // Exactly the limit is dense; one more value, or a product that
        // crosses it, is not.
        assert!(dense(&[vec![10, 10 + limit - 1]]).is_some());
        assert!(dense(&[vec![10, 10 + limit]]).is_none());
        assert!(dense(&[vec![0, limit / 2], vec![0, 1]]).is_none());
        // One column alone beyond the limit, whatever the others hold.
        assert!(dense(&[vec![0, 1], vec![0, 1 << 40]]).is_none());
        // Negative and extreme keys: `hi - lo + 1` would overflow `i64`
        // (and the full range even `u64`); both must simply refuse.
        assert!(dense(&[vec![i64::MIN, i64::MAX]]).is_none());
        assert!(dense(&[vec![i64::MIN, 0]]).is_none());
        assert!(dense(&[vec![-1, i64::MAX], vec![i64::MIN, i64::MAX]]).is_none());
        assert_eq!(dense(&[vec![i64::MIN, i64::MIN + 1]]), Some(vec![(i64::MIN, 2)]));
        assert_eq!(dense(&[vec![i64::MAX]]), Some(vec![(i64::MAX, 1)]));
    }
}
