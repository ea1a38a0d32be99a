//! Aggregation: ungrouped and group-by, with mergeable partial states.
//!
//! Parallel aggregation follows the paper's horizontal co-processing example
//! (§5): every packet folds into a *partial* state of its own, and the
//! partials are then merged — the routers never have to synchronise on a
//! shared hash table, which is exactly what makes the operator
//! heterogeneity-oblivious. The engine merges them in packet order
//! ([`SlotFold`]), so a sum depends on the data and the packet split, not on
//! which device the router sent a packet to.
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
//! key offset; otherwise from one hash-map lookup per row. A dictionary-coded
//! column's range is its dictionary's, so it takes no bounds pass, and the
//! last two columns' digits are read, combined and looked up in one pass
//! (Q1's two flags: one pass in all). An ungrouped spec takes no pass.
//!
//! # The fused fold
//!
//! [`AggState::new`] compiles the spec once: its distinct non-count
//! arguments become one register [`Program`] (a leaf per column read, an
//! instruction per distinct arithmetic node, common sub-expressions such as
//! Q1's `disc_price` inside `charge` found once), and each aggregate becomes
//! what it does with its argument's register: a sum, a minimum, a maximum,
//! or a copy of an earlier sum of the same register (Q1's
//! `avg(l_quantity)` beside `sum(l_quantity)`). Clones share the compiled
//! program, so a stage compiles once however many partial states it folds.
//!
//! [`AggState::fold`] maps each batch-local id to a state slot once per
//! distinct group and copies the groups' sums side by side. The program
//! then runs block by block over the selected rows (see
//! [`Program`]: dense over the span a block covers when its rows fill at
//! least half of it, `f64` columns read in place; gathered otherwise), and
//! **one** loop per block, specialised on the number of sums, updates every
//! sum of each row and tallies its group's rows. Minima and maxima take one
//! loop each. The sums go back to the state after the fold; the row tally
//! is added to every counting accumulator once (integer sums: exact in any
//! order), and each twin copies the sum it shares.
//!
//! # The stages' fold
//!
//! Both of the engine's stage drivers fold through [`SlotFold`]. A stream
//! stage folds each packet into a partial on the pool thread that ran its
//! kernels, through the ids that pass numbered ([`SlotFold::fold_numbered`]),
//! and merges the partials in packet order. The §5 stage folds its join's
//! match pairs chunk by chunk on the pool, and merges the chunks' partials
//! in chunk order. When no
//! operator follows the join, a pair's group is a function of its two rows:
//! each side's group-by columns are numbered once per stage
//! ([`group_ids`] over the probe side's rows and over the build side's), and
//! a pair's slot combines the two ids. A chunk then numbers nothing and
//! hashes nothing: it maps its pairs' slots to chunk-local groups through a
//! per-thread table, folds them from identity accumulators, and the merge
//! hashes a group's key once per stage, when it first arrives.
//!
//! # Bit-identity
//!
//! Results equal a row-at-a-time fold bit for bit (the `#[cfg(test)]`
//! oracle below asserts it), for two reasons. Each accumulator sees its
//! group's values in batch order — every loop visits rows in order, and the
//! sums copied out of the state continue from the state's own values — so
//! it rounds as the oracle does; and every argument value is the IEEE
//! operation [`crate::expr::eval`] computes on the same widened operands,
//! whether a block ran dense or gathered and whether the batch carried a
//! selection. Both id paths number keys in first-seen row order, whether a
//! batch is numbered whole or one block at a time, and whichever way a
//! column's range was found, so the keys — hence the slot order and every
//! simulated makespan priced from them — cannot depend on which path a batch
//! took, on its size, nor on whether it carried a selection.

use std::collections::HashMap;
use std::sync::Arc;

use hape_storage::Batch;

use crate::expr::{Expr, Program, Regs};
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

/// Per column `(min, range)` when the batch's combined key range fits the
/// direct map. A column with an entry in `dicts` (a dictionary's length)
/// takes its range `[0, len)` from it; the others from a bounds pass over
/// the selected rows. All range arithmetic is checked: extreme keys, or a
/// single column wider than the limit, fall through to the hashed path.
fn dense_domain(
    cols: &[Ints<'_>],
    sel: Option<&[u32]>,
    dicts: &[Option<u64>],
) -> Option<Vec<(i64, u64)>> {
    let mut size = 1u64;
    cols.iter()
        .enumerate()
        .map(|(i, col)| {
            let (lo, range) = match dicts.get(i).copied().flatten() {
                Some(len) => (0, len),
                None => {
                    let (lo, hi) = with_ints!(col, v => key_bounds(v, sel));
                    (lo, hi.abs_diff(lo).checked_add(1)?)
                }
            };
            size = size.checked_mul(range).filter(|&s| s <= DENSE_LIMIT)?;
            Some((lo, range))
        })
        .collect()
}

/// The mixed-radix digit of `x` in a column of `(min, range)`, or `None`
/// when `x` lies outside it (a code beyond its column's dictionary).
fn digit(x: i64, (lo, range): (i64, u64)) -> Option<u32> {
    let d = x.wrapping_sub(lo) as u64;
    (d < range).then_some(d as u32)
}

/// Dense ids under `dims` from [`dense_domain`]: the key of each row's
/// mixed-radix offset numbered through a direct-mapped table, in first-seen
/// row order, for one to four columns. All digits but the last two fold
/// into `ids` one column per pass; the last two are read, offset and looked
/// up in one pass. `None` when a row's key lies outside `dims`. `rows`
/// yields the selected rows' column indices.
fn dense_ids(
    cols: &[Ints<'_>],
    dims: &[(i64, u64)],
    rows: impl Iterator<Item = usize> + Clone,
    n: usize,
    key_at: impl Fn(usize) -> GroupKey,
) -> Option<GroupIds> {
    let mut ids = vec![0u32; n];
    let split = cols.len().saturating_sub(2);
    for (col, &dim) in cols[..split].iter().zip(dims) {
        let radix = dim.1 as u32;
        let mut ok = true;
        with_ints!(col, v => ids.iter_mut().zip(rows.clone()).for_each(|(id, r)| {
            let d = digit(v[r].get(), dim);
            ok &= d.is_some();
            *id = *id * radix + d.unwrap_or(0);
        }));
        if !ok {
            return None;
        }
    }
    let size: u64 = dims.iter().map(|d| d.1).product();
    let mut table = Numbering { ids: vec![u32::MAX; size as usize], keys: Vec::new(), key_at };
    let rows = ids.iter_mut().zip(rows);
    match (&cols[split..], &dims[split..]) {
        ([a], &[da]) => with_ints!(a, a => {
            for (id, r) in rows {
                *id = table.id(digit(a[r].get(), da)?, r);
            }
        }),
        ([a, b], &[da, db]) => with_ints!(a, a => with_ints!(b, b => {
            let radix = db.1 as u32;
            for (id, r) in rows {
                let off = (*id * da.1 as u32 + digit(a[r].get(), da)?) * radix;
                *id = table.id(off + digit(b[r].get(), db)?, r);
            }
        })),
        _ => unreachable!("one or two trailing key columns"),
    }
    Some(GroupIds { ids, keys: table.keys })
}

/// A direct-mapped table from a key's mixed-radix offset to its id.
struct Numbering<F> {
    /// Per offset, its key's id; `u32::MAX` until first seen.
    ids: Vec<u32>,
    /// Distinct keys in first-seen order.
    keys: Vec<GroupKey>,
    /// The key of a column row.
    key_at: F,
}

impl<F: Fn(usize) -> GroupKey> Numbering<F> {
    /// The id of the key at offset `off`, first seen at column row `r`
    /// unless numbered before.
    fn id(&mut self, off: u32, r: usize) -> u32 {
        match self.ids[off as usize] {
            u32::MAX => self.first_seen(off, r),
            id => id,
        }
    }

    /// Out of the per-row loop: a batch sees each key once.
    #[cold]
    fn first_seen(&mut self, off: u32, r: usize) -> u32 {
        let id = self.keys.len() as u32;
        self.ids[off as usize] = id;
        self.keys.push((self.key_at)(r));
        id
    }
}

/// [`group_ids`] over the selected rows `rows` (column indices) of `cols`.
fn number_rows(
    cols: &[Ints<'_>],
    dicts: &[Option<u64>],
    sel: Option<&[u32]>,
    rows: impl Iterator<Item = usize> + Clone,
    n: usize,
) -> GroupIds {
    // The key of column row `row` (not block row: through the selection).
    let key_at = |row: usize| {
        let mut key: GroupKey = [0; 4];
        for (slot, col) in key.iter_mut().zip(cols) {
            *slot = with_ints!(col, v => v[row].get());
        }
        key
    };
    let dense = |dicts: &[Option<u64>]| {
        let dims = dense_domain(cols, sel, dicts)?;
        dense_ids(cols, &dims, rows.clone(), n, key_at)
    };
    // Should a code lie outside its dictionary, the bounds decide.
    let with_dicts = dicts.iter().any(Option::is_some);
    if let Some(groups) = dense(dicts).or_else(|| with_dicts.then(|| dense(&[])).flatten()) {
        return groups;
    }
    let mut keys: Vec<GroupKey> = Vec::new();
    let mut seen: HashMap<GroupKey, u32> = HashMap::new();
    let ids = rows
        .map(|r| {
            let key = key_at(r);
            *seen.entry(key).or_insert_with(|| {
                keys.push(key);
                keys.len() as u32 - 1
            })
        })
        .collect();
    GroupIds { ids, keys }
}

/// The group-id kernel: a dense id per row of `batch` (per selected row,
/// when it carries a selection) under `spec`'s group-by columns, plus the
/// distinct keys in first-seen row order. An ungrouped spec puts every row
/// in the single all-zero key.
pub fn group_ids(spec: &AggSpec, batch: &Batch) -> GroupIds {
    let (n, sel) = (batch.rows(), batch.selection());
    if spec.group_by.is_empty() {
        let keys = if n > 0 { vec![[0; 4]] } else { Vec::new() };
        return GroupIds { ids: vec![0; n], keys };
    }
    let cols: Vec<Ints<'_>> = spec.group_by.iter().map(|&i| Ints::of(batch.col(i))).collect();
    // A dictionary-coded column's range is its dictionary's: no bounds pass.
    let dicts: Vec<Option<u64>> = spec
        .group_by
        .iter()
        .map(|&i| batch.col(i).dict().map(|d| d.len() as u64).filter(|&l| l <= DENSE_LIMIT))
        .collect();
    match sel {
        None => number_rows(&cols, &dicts, sel, 0..n, n),
        Some(rows) => number_rows(&cols, &dicts, sel, rows.iter().map(|&r| r as usize), n),
    }
}

/// A spec compiled once ([`AggState::new`]): its distinct non-count
/// arguments as one register [`Program`], and per aggregate what it does
/// with its argument's values.
#[derive(Debug)]
struct FoldProgram {
    spec: AggSpec,
    /// Output `j` is the argument of the `j`-th non-count aggregate.
    args: Program,
    /// `(aggregate, output)` of each sum that accumulates: the first sum or
    /// average of its argument's register.
    sums: Vec<(usize, usize)>,
    /// `(aggregate, output)` of each minimum.
    mins: Vec<(usize, usize)>,
    /// `(aggregate, output)` of each maximum.
    maxs: Vec<(usize, usize)>,
    /// `(aggregate, the aggregate whose sum it copies)`: a later sum or
    /// average of a register an earlier one accumulates.
    twins: Vec<(usize, usize)>,
    /// The aggregates that count rows (`Count`, `Avg`).
    counts: Vec<usize>,
}

impl FoldProgram {
    fn new(spec: AggSpec) -> FoldProgram {
        let args: Vec<(usize, &Expr)> = (spec.aggs.iter().enumerate())
            .filter(|(_, (f, _))| *f != AggFunc::Count)
            .map(|(a, (_, e))| (a, e))
            .collect();
        let program = Program::new(args.iter().map(|&(_, e)| e));
        let (mut sums, mut mins, mut maxs, mut twins) = (vec![], vec![], vec![], vec![]);
        for (j, &(a, _)) in args.iter().enumerate() {
            let reg = program.out_register(j);
            match spec.aggs[a].0 {
                AggFunc::Sum | AggFunc::Avg => {
                    match sums.iter().find(|&&(_, o)| program.out_register(o) == reg) {
                        Some(&(twin, _)) => twins.push((a, twin)),
                        None => sums.push((a, j)),
                    }
                }
                AggFunc::Min => mins.push((a, j)),
                AggFunc::Max => maxs.push((a, j)),
                AggFunc::Count => unreachable!("counts take no argument"),
            }
        }
        let counts = (spec.aggs.iter().enumerate())
            .filter(|(_, (f, _))| matches!(f, AggFunc::Count | AggFunc::Avg))
            .map(|(a, _)| a)
            .collect();
        FoldProgram { spec, args: program, sums, mins, maxs, twins, counts }
    }

    /// Accumulate one block's rows, in row order: sum `j` of batch-local
    /// group `id` into `sums[id * self.sums.len() + j]`, the minima and
    /// maxima into the slots `first` maps the ids to, and a tally of rows
    /// per id into `rows_of`.
    fn accumulate(&self, batch: &mut BatchAccs<'_>, ids: &[u32], regs: &Regs<'_>) {
        match regs.dense {
            None => self.accumulate_at(batch, ids, regs, Seq),
            Some((sel, start)) => self.accumulate_at(batch, ids, regs, Rel(sel, start)),
        }
    }

    fn accumulate_at(
        &self,
        batch: &mut BatchAccs<'_>,
        ids: &[u32],
        regs: &Regs<'_>,
        at: impl At,
    ) {
        let BatchAccs { accs, first, sums, rows_of } = batch;
        let vals = |j: usize| regs.out(self.sums[j].1);
        // The sums and the row tally in one loop, specialised on how many
        // sums there are so each row's updates unroll.
        macro_rules! fused {
            ($($s:literal)*) => {
                match self.sums.len() {
                    $($s => add_sums::<$s>(sums, ids, at, std::array::from_fn(vals), rows_of),)*
                    width => {
                        for j in 0..width {
                            let v = vals(j);
                            for (k, &id) in ids.iter().enumerate() {
                                sums[id as usize * width + j] += v[at.at(k)];
                            }
                        }
                        ids.iter().for_each(|&id| rows_of[id as usize] += 1);
                    }
                }
            };
        }
        fused!(0 1 2 3 4 5 6);
        for &(a, out) in &self.mins {
            let v = regs.out(out);
            each_row(first, ids, at, |acc, i| {
                if v[i] < accs[acc + a].min {
                    accs[acc + a].min = v[i];
                }
            });
        }
        for &(a, out) in &self.maxs {
            let v = regs.out(out);
            each_row(first, ids, at, |acc, i| {
                if v[i] > accs[acc + a].max {
                    accs[acc + a].max = v[i];
                }
            });
        }
    }

    /// Fold `batch`'s rows into `accs`: row `k` into the accumulators of
    /// batch-local group `ids[k]`, which start at `first[ids[k]]`.
    fn fold_into(&self, accs: &mut [Acc], first: &[usize], batch: &Batch, ids: &[u32]) {
        let sums = first.iter().flat_map(|&at| self.sums.iter().map(move |&(a, _)| at + a));
        let sums = sums.map(|acc| accs[acc].sum).collect();
        let mut batch_accs = BatchAccs { accs, first, sums, rows_of: vec![0u64; first.len()] };
        self.args.for_each_block(batch, |off, regs| {
            self.accumulate(&mut batch_accs, &ids[off..off + regs.rows], regs);
        });
        let BatchAccs { accs, sums, rows_of, .. } = batch_accs;
        let slots = first.iter().flat_map(|&at| self.sums.iter().map(move |&(a, _)| at + a));
        slots.zip(sums).for_each(|(acc, sum)| accs[acc].sum = sum);
        for &(a, twin) in &self.twins {
            first.iter().for_each(|&at| accs[at + a].sum = accs[at + twin].sum);
        }
        for &a in &self.counts {
            first.iter().zip(&rows_of).for_each(|(&at, &n)| accs[at + a].count += n);
        }
    }
}

/// Where the values of a block's `k`-th selected row sit in its registers.
trait At: Copy {
    fn at(self, k: usize) -> usize;
}

/// Row `k` at `k`: an unselected batch, or a gathered block.
#[derive(Clone, Copy)]
struct Seq;

impl At for Seq {
    fn at(self, k: usize) -> usize {
        k
    }
}

/// Row `k` at `sel[k] - start`: a selected block evaluated over its span.
#[derive(Clone, Copy)]
struct Rel<'s>(&'s [u32], usize);

impl At for Rel<'_> {
    fn at(self, k: usize) -> usize {
        self.0[k] as usize - self.1
    }
}

/// The accumulators one fold updates: the state's, the state slot of each
/// batch-local group id (`first`, its first accumulator), the batch's
/// groups' sums side by side (`sums[id * sums + j]`, copied out of the
/// state before the fold and back after it, so every addition is the one
/// the state's accumulator would have made), and its row tally per id.
struct BatchAccs<'s> {
    accs: &'s mut [Acc],
    first: &'s [usize],
    sums: Vec<f64>,
    rows_of: Vec<u64>,
}

/// `f(first accumulator of the row's slot, register index)` per row, in row
/// order.
fn each_row(first: &[usize], ids: &[u32], at: impl At, mut f: impl FnMut(usize, usize)) {
    for (k, &id) in ids.iter().enumerate() {
        f(first[id as usize], at.at(k));
    }
}

/// `S` sums and the row tally, every row updating all of them.
fn add_sums<const S: usize>(
    sums: &mut [f64],
    ids: &[u32],
    at: impl At,
    vals: [&[f64]; S],
    rows_of: &mut [u64],
) {
    for (k, &id) in ids.iter().enumerate() {
        let (id, i) = (id as usize, at.at(k));
        let acc: &mut [f64; S] = (&mut sums[id * S..id * S + S]).try_into().expect("S sums");
        for (acc, v) in acc.iter_mut().zip(vals) {
            *acc += v[i];
        }
        rows_of[id] += 1;
    }
}

/// A mergeable (partial) aggregation state.
///
/// [`AggState::new`] compiles the spec's arguments once; a clone shares
/// the compiled program, so the states of one stage (the fold's merged
/// state, its workers' pricing states) are clones of one empty
/// state and compile nothing.
#[derive(Debug, Clone)]
pub struct AggState {
    program: Arc<FoldProgram>,
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
    /// Fresh state for a spec, its arguments compiled into a register
    /// program.
    pub fn new(spec: AggSpec) -> Self {
        AggState {
            program: Arc::new(FoldProgram::new(spec)),
            keys: Vec::new(),
            slots: HashMap::new(),
            accs: Vec::new(),
            rows_seen: 0,
        }
    }

    /// The spec.
    pub fn spec(&self) -> &AggSpec {
        &self.program.spec
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
            self.accs.extend(self.program.spec.aggs.iter().map(|_| Acc::new()));
            self.keys.len() as u32 - 1
        })
    }

    /// Fold one batch into the state — its selected rows, when it carries
    /// a selection — numbering its groups first ([`AggState::fold`]).
    pub fn update(&mut self, batch: &Batch) {
        self.fold(batch, &group_ids(self.spec(), batch));
    }

    /// Fold one batch through its [`group_ids`] under this state's spec:
    /// each batch-local id maps to a state slot once, then the compiled
    /// program runs block by block over the selected rows and one loop per
    /// block accumulates them.
    pub fn fold(&mut self, batch: &Batch, groups: &GroupIds) {
        let n = batch.rows();
        debug_assert_eq!(groups.ids.len(), n, "group ids of another batch");
        self.rows_seen += n as u64;
        // Batch-local id -> the state slot's first accumulator: one map
        // lookup per distinct group.
        let width = self.spec().aggs.len();
        let first: Vec<usize> =
            groups.keys.iter().map(|&k| self.slot(k) as usize * width).collect();
        self.program.fold_into(&mut self.accs, &first, batch, &groups.ids);
    }

    /// Merge another partial state (same spec) into this one.
    pub fn merge(&mut self, other: &AggState) {
        // Partials merged together are built from one spec, so the
        // layouts agree.
        debug_assert_eq!(
            self.spec().group_by,
            other.spec().group_by,
            "merging different specs"
        );
        debug_assert_eq!(self.spec().aggs.len(), other.spec().aggs.len());
        let width = self.spec().aggs.len();
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
        let aggs = &self.spec().aggs;
        let width = aggs.len();
        let mut out: Vec<(GroupKey, Vec<f64>)> = self
            .keys
            .iter()
            .enumerate()
            .map(|(slot, k)| {
                let accs = &self.accs[slot * width..][..width];
                let vals = accs.iter().zip(aggs).map(|(a, (f, _))| a.finish(*f));
                (*k, vals.collect())
            })
            .collect();
        out.sort_by_key(|a| a.0);
        out
    }
}

/// Largest slot space [`PairGroups`] numbers: a per-thread `u32` map of
/// 4 MiB.
const PAIR_SLOTS_LIMIT: usize = 1 << 20;

/// The groups of a join's match pairs, numbered once per stage: the
/// group-by columns the probe side carries per probe row, and those the
/// build side carries per build row, each side through [`group_ids`] (its
/// dictionary / bounds rule). A pair's *slot* is its probe row's id times
/// the build side's group count plus its build row's id.
#[derive(Debug)]
struct PairGroups {
    probe: GroupIds,
    build: GroupIds,
    /// Per group-by column: whether the build side carries it, and its
    /// component in that side's keys.
    parts: Vec<(bool, usize)>,
}

impl PairGroups {
    /// Number `spec`'s group-by columns, which index the joined layout:
    /// column `c < n_probe` is `probe`'s column `c`, column `n_probe + j` is
    /// `build`'s column `build_cols[j]`. `None` when a column is past that
    /// layout or the slot space is over [`PAIR_SLOTS_LIMIT`].
    fn new(
        spec: &AggSpec,
        probe: &Batch,
        build: &Batch,
        n_probe: usize,
        build_cols: &[usize],
    ) -> Option<PairGroups> {
        let (mut probe_by, mut build_by, mut parts) = (vec![], vec![], vec![]);
        for &c in &spec.group_by {
            let (side, by, col) = match c.checked_sub(n_probe) {
                None => (false, &mut probe_by, c),
                Some(j) => (true, &mut build_by, *build_cols.get(j)?),
            };
            parts.push((side, by.len()));
            by.push(col);
        }
        let number = |by: Vec<usize>, batch| group_ids(&AggSpec::grouped(by, vec![]), batch);
        let groups = PairGroups {
            probe: number(probe_by, probe),
            build: number(build_by, build),
            parts,
        };
        (groups.slots() <= PAIR_SLOTS_LIMIT).then_some(groups)
    }

    /// Size of the slot space.
    fn slots(&self) -> usize {
        self.probe.keys.len() * self.build.keys.len()
    }

    /// The slot of the pair (build row, probe row).
    #[inline]
    fn slot(&self, build_row: u32, probe_row: u32) -> u32 {
        let n_build = self.build.keys.len() as u32;
        self.probe.ids[probe_row as usize] * n_build + self.build.ids[build_row as usize]
    }

    /// The group key of `slot`: its columns in the spec's group-by order.
    fn key(&self, slot: u32) -> GroupKey {
        let n_build = self.build.keys.len() as u32;
        let (probe, build) = (
            self.probe.keys[(slot / n_build) as usize],
            self.build.keys[(slot % n_build) as usize],
        );
        let mut key: GroupKey = [0; 4];
        for (k, &(side, j)) in key.iter_mut().zip(&self.parts) {
            *k = if side { build[j] } else { probe[j] };
        }
        key
    }
}

/// One chunk's partial of a [`SlotFold`]: its groups in first-seen order —
/// as pair slots, or as keys when the chunk numbered its own rows — and
/// their accumulators side by side.
#[derive(Debug)]
pub struct SlotPartial {
    groups: ChunkGroups,
    accs: Vec<Acc>,
    rows: u64,
}

#[derive(Debug)]
enum ChunkGroups {
    Slots(Vec<u32>),
    Keys(Vec<GroupKey>),
}

impl ChunkGroups {
    fn len(&self) -> usize {
        match self {
            ChunkGroups::Slots(slots) => slots.len(),
            ChunkGroups::Keys(keys) => keys.len(),
        }
    }
}

/// A stage's fold, for both of the engine's stage drivers: chunks — a
/// stream stage's packets, or the §5 stage's runs of match pairs — fold on
/// the pool into [`SlotPartial`]s, each group accumulating from identity
/// values in row order, and merge into one [`AggState`] in chunk order —
/// every `f64` the per-chunk [`AggState`] fold and [`AggState::merge`]
/// compute, bit for bit. A chunk whose rows are pairs as they left the join
/// reads its groups off the stage's numbering: no key is numbered or hashed
/// per chunk, and a group's key is hashed once per stage, when it first
/// merges.
#[derive(Debug)]
pub struct SlotFold {
    state: AggState,
    pairs: Option<PairGroups>,
    /// Per pair slot, its slot in `state` once merged (`u32::MAX` before).
    merged: Vec<u32>,
}

impl SlotFold {
    /// Fold under `spec`. Given the join's `sides` — its probe rows, its
    /// build rows, how many columns of the joined layout are the probe's,
    /// and which build columns follow them — pair chunks read their groups
    /// off the sides' numbering when it fits (a slot space of at most
    /// 2^20).
    pub fn new(spec: AggSpec, sides: Option<(&Batch, &Batch, usize, &[usize])>) -> SlotFold {
        let pairs = sides.and_then(|(probe, build, n_probe, build_cols)| {
            PairGroups::new(&spec, probe, build, n_probe, build_cols)
        });
        let merged = vec![u32::MAX; pairs.as_ref().map_or(0, PairGroups::slots)];
        SlotFold { state: AggState::new(spec), pairs, merged }
    }

    /// Whether pair chunks read their groups off the stage's numbering
    /// ([`SlotFold::fold_pairs`]).
    pub fn numbers_pairs(&self) -> bool {
        self.pairs.is_some()
    }

    /// Fold a chunk of match pairs — `batch`'s row `k` is the pair
    /// (`build[k]`, `probe[k]`) — through the stage's numbering. `local` is
    /// the calling thread's map from pair slot to chunk group, all
    /// `u32::MAX` between calls (grown here).
    pub fn fold_pairs(
        &self,
        batch: &Batch,
        (build, probe): (&[u32], &[u32]),
        local: &mut Vec<u32>,
    ) -> SlotPartial {
        let pairs = self.pairs.as_ref().expect("a stage numbering of its pairs");
        local.resize(local.len().max(pairs.slots()), u32::MAX);
        let mut slots = Vec::new();
        let ids: Vec<u32> = (build.iter().zip(probe))
            .map(|(&b, &p)| {
                let slot = pairs.slot(b, p);
                let id = &mut local[slot as usize];
                if *id == u32::MAX {
                    *id = slots.len() as u32;
                    slots.push(slot);
                }
                *id
            })
            .collect();
        slots.iter().for_each(|&slot| local[slot as usize] = u32::MAX);
        self.partial(batch, &ids, ChunkGroups::Slots(slots))
    }

    /// Fold a chunk that numbered its own rows ([`group_ids`]; `None` when
    /// it has none).
    pub fn fold_numbered(&self, batch: &Batch, groups: Option<&GroupIds>) -> SlotPartial {
        match groups {
            Some(g) => self.partial(batch, &g.ids, ChunkGroups::Keys(g.keys.clone())),
            None => {
                SlotPartial { groups: ChunkGroups::Keys(Vec::new()), accs: vec![], rows: 0 }
            }
        }
    }

    fn partial(&self, batch: &Batch, ids: &[u32], groups: ChunkGroups) -> SlotPartial {
        let n = groups.len();
        let width = self.state.spec().aggs.len();
        let mut accs = vec![Acc::new(); n * width];
        let first: Vec<usize> = (0..n).map(|g| g * width).collect();
        self.state.program.fold_into(&mut accs, &first, batch, ids);
        SlotPartial { groups, accs, rows: batch.rows() as u64 }
    }

    /// Merge the next chunk's partial (chunks merge in order).
    pub fn merge(&mut self, partial: &SlotPartial) {
        let width = self.state.spec().aggs.len();
        self.state.rows_seen += partial.rows;
        for g in 0..partial.groups.len() {
            let at = match &partial.groups {
                ChunkGroups::Slots(slots) => {
                    let merged = &mut self.merged[slots[g] as usize];
                    if *merged == u32::MAX {
                        let key = self.pairs.as_ref().expect("pair slots").key(slots[g]);
                        *merged = self.state.slot(key);
                    }
                    *merged
                }
                ChunkGroups::Keys(keys) => self.state.slot(keys[g]),
            } as usize;
            let theirs = &partial.accs[g * width..][..width];
            for (m, o) in self.state.accs[at * width..][..width].iter_mut().zip(theirs) {
                m.merge(o);
            }
        }
    }

    /// The merged state.
    pub fn state(&self) -> &AggState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BLOCK_ROWS;
    use hape_storage::table::DataType;
    use hape_storage::{Column, Dictionary};
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
        /// Dictionary codes of a dictionary longer than [`DENSE_LIMIT`]:
        /// the range comes from a bounds pass instead.
        BigDict,
        /// Codes beyond their column's dictionary: the dictionary's range
        /// is refused and the bounds decide.
        PastDict,
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
            Keys::BigDict => {
                let len = DENSE_LIMIT as u32 + 1;
                let names: Vec<String> = (0..len).map(|c| format!("s{c}")).collect();
                let (dict, _) = Dictionary::from_values(names.iter().map(String::as_str));
                let codes = (0..n).map(|_| len - 1 - rng.gen_range(0..6u32)).collect();
                Column::from_codes(codes, std::sync::Arc::new(dict))
            }
            Keys::PastDict => {
                let (dict, _) = Dictionary::from_values(["A", "N"]);
                let codes = (0..n).map(|_| rng.gen_range(0..5u32)).collect();
                Column::from_codes(codes, std::sync::Arc::new(dict))
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
    /// literal on either side), a bare literal, arguments that repeat, and
    /// minima and maxima of arguments a sum twin shares.
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
            (AggFunc::Avg, disc_price.clone()),
            (AggFunc::Avg, Expr::col(x)),
            (AggFunc::Min, Expr::col(x)),
            (AggFunc::Max, disc_price),
            (AggFunc::Sum, Expr::LitF64(2.0)),
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

    /// Empty, sparse (~2 %), dense (~98 %) and full selections of `n` rows,
    /// and three whose blocks of [`BLOCK_ROWS`] selected rows span exactly
    /// twice as many column rows (the density rule's boundary: dense), one
    /// row fewer (dense) and one row more (gathered).
    fn selections(n: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
        let mut share = |p: f64| (0..n as u32).filter(|_| rng.gen_bool(p)).collect();
        let mut sels = vec![Vec::new(), share(0.02), share(0.98), (0..n as u32).collect()];
        sels.extend([-1, 0, 1].map(|d| spanning(n, |len| (2 * len).saturating_add_signed(d))));
        sels
    }

    /// Rows of `n`, one block of [`BLOCK_ROWS`] selected rows (fewer in the
    /// last) after another, a block of `len` rows spanning `span(len)`
    /// column rows: its first and last, the rest spread between them.
    fn spanning(n: usize, span: impl Fn(usize) -> usize) -> Vec<u32> {
        let (mut sel, mut at) = (Vec::new(), 0);
        loop {
            let len = BLOCK_ROWS.min((n - at) / 2);
            let width = span(len).max(len);
            if len < 2 || at + width > n {
                return sel;
            }
            sel.extend((0..len).map(|k| (at + k * (width - 1) / (len - 1)) as u32));
            at += width;
        }
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
            &[BigDict],
            &[BigDict, Str],
            &[PastDict, Str],
            &[Str, SmallI32, PastDict],
        ];
        let mut rng = StdRng::seed_from_u64(15);
        for keys in shapes {
            let spec = every_func((0..keys.len()).collect());
            let fb = BLOCK_ROWS;
            for n in [0, 1, 2, 500, fb - 1, fb, fb + 1, 2 * fb + 3, 5 * fb + 7, (1 << 14) + 3] {
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
            dense_domain(&cols, None, &[])
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
        // A dictionary's length stands for a bounds pass; past the limit,
        // or multiplied past it, the column is not dense either.
        let codes = [vec![7u32, 1], vec![0, 0]];
        let cols: Vec<Ints<'_>> = codes.iter().map(|c| Ints::Codes(c)).collect();
        let dims = |dicts: &[Option<u64>]| dense_domain(&cols, None, dicts);
        assert_eq!(dims(&[Some(25), None]), Some(vec![(0, 25), (0, 1)]));
        assert_eq!(dims(&[None, Some(2)]), Some(vec![(1, 7), (0, 2)]));
        assert!(dims(&[Some(limit as u64), Some(2)]).is_none());
    }

    /// The co-processing stage's fold over seeded match pairs: chunk by
    /// chunk through the stage's pair numbering ([`SlotFold::fold_pairs`])
    /// and through each chunk's own numbering ([`SlotFold::fold_numbered`]),
    /// both against a fresh [`AggState`] per chunk merged in chunk order —
    /// every key, count and `f64` to the bit. Group columns come from both
    /// sides in mixed order; one probe group holds only `-0.0` values; pair
    /// slots never seen, and groups some chunks never see, are the norm.
    #[test]
    fn pair_slot_fold_equals_the_per_chunk_fold_to_the_bit() {
        let mut rng = StdRng::seed_from_u64(46);
        for case in 0..40 {
            let (n_probe_rows, n_build_rows) = (rng.gen_range(1..400), rng.gen_range(1..60));
            let values = [-0.0, 0.0, 1.5, -2.25, 0.1, 1e300, -1e-300, 3.0];
            let value = |rng: &mut StdRng| values[rng.gen_range(0..values.len())];
            let p_group: Vec<i32> = (0..n_probe_rows).map(|_| rng.gen_range(-3..5)).collect();
            let p_val: Vec<f64> = (p_group.iter())
                .map(|&g| if g == -3 { -0.0 } else { value(&mut rng) })
                .collect();
            let b_val: Vec<f64> = (0..n_build_rows).map(|_| value(&mut rng)).collect();
            let b_group: Vec<i32> =
                (0..n_build_rows).map(|_| rng.gen_range(0..4) * 1000).collect();
            let probe = Batch::new(vec![Column::from_i32(p_group), Column::from_f64(p_val)]);
            let build = Batch::new(vec![Column::from_f64(b_val), Column::from_i32(b_group)]);
            // Joined layout: probe columns 0-1, then build columns 1 and 0.
            let (pv, bv) = (Expr::col(1), Expr::col(3));
            let disc = Expr::mul(pv.clone(), Expr::sub(Expr::LitF64(1.0), bv.clone()));
            let aggs = vec![
                (AggFunc::Sum, pv.clone()),
                (AggFunc::Sum, bv.clone()),
                (AggFunc::Sum, disc.clone()),
                (AggFunc::Count, pv.clone()),
                (AggFunc::Min, bv.clone()),
                (AggFunc::Max, pv.clone()),
                (AggFunc::Avg, disc.clone()),
                (AggFunc::Avg, pv.clone()),
                (AggFunc::Min, Expr::sub(pv.clone(), Expr::LitI32(7))),
                (AggFunc::Max, disc),
                (AggFunc::Sum, Expr::LitF64(2.0)),
                (AggFunc::Sum, Expr::mul(pv, bv)),
            ];
            let spec = AggSpec::grouped(vec![2, 0], aggs);
            let n_pairs = rng.gen_range(1..3000);
            let pairs: (Vec<u32>, Vec<u32>) = (0..n_pairs)
                .map(|_| {
                    (
                        rng.gen_range(0..n_build_rows) as u32,
                        rng.gen_range(0..n_probe_rows) as u32,
                    )
                })
                .unzip();
            let empty = AggState::new(spec.clone());
            let mut slots = SlotFold::new(spec.clone(), Some((&probe, &build, 2, &[1, 0])));
            assert!(slots.numbers_pairs());
            let (mut oracle, mut numbered) = (empty.clone(), SlotFold::new(spec.clone(), None));
            let mut local = Vec::new();
            let chunk = rng.gen_range(1..400);
            for (b, p) in pairs.0.chunks(chunk).zip(pairs.1.chunks(chunk)) {
                let joined = Batch::new(vec![
                    probe.col(0).take(p),
                    probe.col(1).take(p),
                    build.col(1).take(b),
                    build.col(0).take(b),
                ]);
                let mut partial = empty.clone();
                partial.update(&joined);
                oracle.merge(&partial);
                slots.merge(&slots.fold_pairs(&joined, (b, p), &mut local));
                let ids = group_ids(&spec, &joined);
                numbered.merge(&numbered.fold_numbered(&joined, Some(&ids)));
                assert!(local.iter().all(|&l| l == u32::MAX), "case {case}: local map reset");
            }
            let bits = |st: &AggState| {
                let rows = st.finish().into_iter();
                let rows =
                    rows.map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()));
                (rows.collect::<Vec<_>>(), st.rows_seen, st.n_groups())
            };
            assert_eq!(bits(slots.state()), bits(&oracle), "case {case}: pair slots");
            assert_eq!(bits(numbered.state()), bits(&oracle), "case {case}: chunk numbering");
        }
    }
}
