//! Order-sensitive stateful aggregates: the behavioral-analytics suite.
//!
//! Sessionization, window funnels, retention cohorts and sequence matching
//! all share one shape: the input is a stream of `(user, timestamp, event)`
//! rows sorted by `(user, timestamp)`, and the operator runs a small state
//! machine *sequentially* over each user's run, emitting one row per user.
//! That sequential per-user dependency is exactly what makes the family
//! GPU-hostile — the chain traversal cannot be latency-hidden the way the
//! paper's streaming scans and hash probes can (§2.1) — so these operators
//! are the stress test for a cost model that claims placement follows from
//! hardware, not fiat: the optimizer must *price* the GPU's random-access
//! penalty ([`gpu_cost`]) against the CPU's cache-friendly run scan
//! ([`cpu_cost`]) and route accordingly.
//!
//! The kernels assume each packet holds whole users (the engine aligns
//! packet boundaries on user changes), so per-packet state machines are
//! exact and the output is independent of packet size, thread count and
//! device placement.
//!
//! Per packet, [`run_stateful`] resolves the user, timestamp and event
//! columns to **typed slices** once (`Ints`), finds the **user-run ends**
//! in one pass over the user column (`run_ends`), and hands each **kernel**
//! sub-slices of the packet's own columns — no per-row type dispatch, no
//! per-run copy, no per-run allocation. Two kernels have a general
//! fallback: the funnel when `step_table` has no table for its steps,
//! retention when `period` ≤ 0 or the span of its windows overflows `i64`.
//! Timestamp arithmetic saturates. Sortedness within a run is the caller's
//! contract, never checked and never exploited: no kernel stops early on a
//! timestamp, so the kernels equal the test oracle (the previous
//! row-at-a-time implementation) on unsorted input too, in every build
//! profile.

use hape_sim::{CpuCostModel, GpuSim, Region, SimTime};
use hape_storage::table::DataType;
use hape_storage::{Batch, Column};

use crate::gpu::grid_for;

/// GPU slowdown factor for the sequential per-user state walk, applied on
/// top of [`GpuSpec::random_access_ns`](hape_sim::GpuSpec::random_access_ns):
/// one thread owns one user's run, so consecutive state transitions form a
/// serial dependency chain — warp lanes serialise on divergent run lengths
/// and every access drags a full device-memory line it cannot amortise
/// across the warp. The factor models warp-width serialisation (×32) with
/// partial overlap across resident warps.
pub const GPU_SEQ_CHAIN_FACTOR: f64 = 192.0;

/// One order-sensitive per-user aggregate. Column indices are positions in
/// the operator's *input* batch; event codes are dictionary codes resolved
/// at lowering time (an unknown event name resolves to `-1`, which matches
/// no row — the standard missing-dictionary-entry sentinel).
///
/// Every variant emits one output row per user with all-`i64` columns,
/// user first:
///
/// | variant | output columns |
/// |---|---|
/// | `Sessionize` | `user, sessions, events` |
/// | `WindowFunnel` | `user, depth` |
/// | `Retention` | `user, in_cohort, ret_1 … ret_k` |
/// | `SequenceMatch` | `user, matched` |
#[derive(Debug, Clone, PartialEq)]
pub enum StatefulAgg {
    /// Split each user's run into sessions separated by timestamp gaps
    /// exceeding `gap`; emits the session count and the event count.
    Sessionize {
        /// User-id column (integer-typed).
        user_col: usize,
        /// Timestamp column (integer-typed, ascending within a user).
        ts_col: usize,
        /// Maximum intra-session gap between consecutive events.
        gap: i64,
    },
    /// Deepest prefix of `steps` a user completes in order within `window`
    /// of the chain's first step (the ClickHouse `windowFunnel` shape).
    WindowFunnel {
        /// User-id column.
        user_col: usize,
        /// Timestamp column.
        ts_col: usize,
        /// Event-type column (dictionary-encoded strings).
        event_col: usize,
        /// Funnel step event codes, in order.
        steps: Vec<i32>,
        /// Window from the chain's first step to its last.
        window: i64,
    },
    /// Cohort membership and per-period return flags: a user is in the
    /// cohort at the first `cohort_event`; `ret_i` is set when a
    /// `return_events[i]` event lands in `(cohort_ts + i·period,
    /// cohort_ts + (i+1)·period]` — "returned in week i+1".
    Retention {
        /// User-id column.
        user_col: usize,
        /// Timestamp column.
        ts_col: usize,
        /// Event-type column.
        event_col: usize,
        /// The cohort-defining event code.
        cohort_event: i32,
        /// One return event code per period slot.
        return_events: Vec<i32>,
        /// Width of each return window.
        period: i64,
    },
    /// Whether the user's events contain `pattern` as a subsequence.
    SequenceMatch {
        /// User-id column.
        user_col: usize,
        /// Timestamp column.
        ts_col: usize,
        /// Event-type column.
        event_col: usize,
        /// Event codes to match in order.
        pattern: Vec<i32>,
    },
}

impl StatefulAgg {
    /// The user-id column the engine aligns packet boundaries on.
    pub fn user_col(&self) -> usize {
        match self {
            StatefulAgg::Sessionize { user_col, .. }
            | StatefulAgg::WindowFunnel { user_col, .. }
            | StatefulAgg::Retention { user_col, .. }
            | StatefulAgg::SequenceMatch { user_col, .. } => *user_col,
        }
    }

    /// The timestamp column.
    pub fn ts_col(&self) -> usize {
        match self {
            StatefulAgg::Sessionize { ts_col, .. }
            | StatefulAgg::WindowFunnel { ts_col, .. }
            | StatefulAgg::Retention { ts_col, .. }
            | StatefulAgg::SequenceMatch { ts_col, .. } => *ts_col,
        }
    }

    /// The event-type column, when the variant inspects event types.
    pub fn event_col(&self) -> Option<usize> {
        match self {
            StatefulAgg::Sessionize { .. } => None,
            StatefulAgg::WindowFunnel { event_col, .. }
            | StatefulAgg::Retention { event_col, .. }
            | StatefulAgg::SequenceMatch { event_col, .. } => Some(*event_col),
        }
    }

    /// Names of the output columns the aggregate appends after the user
    /// column (the user column keeps its input name).
    pub fn out_names(&self) -> Vec<String> {
        match self {
            StatefulAgg::Sessionize { .. } => vec!["sessions".into(), "events".into()],
            StatefulAgg::WindowFunnel { .. } => vec!["funnel_depth".into()],
            StatefulAgg::Retention { return_events, .. } => {
                let mut names = vec!["in_cohort".to_string()];
                names.extend((1..=return_events.len()).map(|i| format!("ret{i}")));
                names
            }
            StatefulAgg::SequenceMatch { .. } => vec!["matched".into()],
        }
    }

    /// Total output width (user column included): `1 + out_names().len()`,
    /// without building the names.
    pub fn out_width(&self) -> usize {
        match self {
            StatefulAgg::Sessionize { .. } => 3,
            StatefulAgg::WindowFunnel { .. } | StatefulAgg::SequenceMatch { .. } => 2,
            StatefulAgg::Retention { return_events, .. } => 2 + return_events.len(),
        }
    }

    /// Per-user state footprint in bytes (accumulators plus per-level
    /// chain timestamps), the working set the cost arms charge random
    /// accesses against.
    pub fn state_bytes_per_user(&self) -> u64 {
        match self {
            StatefulAgg::Sessionize { .. } => 32,
            StatefulAgg::WindowFunnel { steps, .. } => 16 * (steps.len() as u64 + 2),
            StatefulAgg::Retention { return_events, .. } => {
                16 * (return_events.len() as u64 + 2)
            }
            StatefulAgg::SequenceMatch { pattern, .. } => 16 + 8 * pattern.len() as u64,
        }
    }

    /// Approximate state-machine operations per input row (compare,
    /// branch, accumulator update), for compute charging.
    pub fn ops_per_row(&self) -> f64 {
        match self {
            StatefulAgg::Sessionize { .. } => 4.0,
            StatefulAgg::WindowFunnel { steps, .. } => 4.0 + steps.len() as f64,
            StatefulAgg::Retention { return_events, .. } => 4.0 + return_events.len() as f64,
            StatefulAgg::SequenceMatch { .. } => 4.0,
        }
    }

    /// Short label for plan rendering (`explain`).
    pub fn label(&self) -> String {
        match self {
            StatefulAgg::Sessionize { gap, .. } => format!("sessionize(gap={gap})"),
            StatefulAgg::WindowFunnel { steps, window, .. } => {
                format!("window_funnel(steps={}, window={window})", steps.len())
            }
            StatefulAgg::Retention { return_events, period, .. } => {
                format!("retention(returns={}, period={period})", return_events.len())
            }
            StatefulAgg::SequenceMatch { pattern, .. } => {
                format!("sequence_match(len={})", pattern.len())
            }
        }
    }
}

/// An element of an integer-valued physical column — `i32`, `i64` or a
/// `u32` dictionary code — widened for the state machines and the group-id
/// kernel ([`crate::agg`]).
pub(crate) trait Int: Copy + PartialEq + Into<i64> {
    fn get(self) -> i64 {
        self.into()
    }
}

impl<T: Copy + PartialEq + Into<i64>> Int for T {}

/// A stateful input or group-key column resolved to its physical slice —
/// once per packet, so no kernel loop dispatches on the column type.
pub(crate) enum Ints<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
    Codes(&'a [u32]),
}

impl<'a> Ints<'a> {
    /// Panics on `f64` columns: the engine refuses such a plan before any
    /// packet exists (`EngineError::InvalidPlan`), so a float here is a
    /// caller bug.
    pub(crate) fn of(col: &'a Column) -> Self {
        match col.data_type() {
            DataType::I32 | DataType::Date => Ints::I32(col.as_i32()),
            DataType::I64 => Ints::I64(col.as_i64()),
            DataType::Str => Ints::Codes(col.as_codes()),
            // Invariants 11 and 12 of hape_core's binding walk: group keys
            // (`plan::is_group_key`) and a stateful aggregate's user / ts /
            // event columns are not `f64` typed.
            DataType::F64 => panic!("integer column expected, got a float column"),
        }
    }
}

/// Evaluate `$body` with `$s` bound to the typed slice behind `$view`: one
/// monomorphised copy of the body per physical type.
macro_rules! with_ints {
    ($view:expr, $s:ident => $body:expr) => {
        match $view {
            $crate::stateful::Ints::I32($s) => $body,
            $crate::stateful::Ints::I64($s) => $body,
            $crate::stateful::Ints::Codes($s) => $body,
        }
    };
}
pub(crate) use with_ints;

/// The row ranges that `ends` (exclusive run ends, ascending) delimits.
fn runs(ends: &[usize]) -> impl ExactSizeIterator<Item = std::ops::Range<usize>> + '_ {
    ends.iter().enumerate().map(|(u, &end)| u.checked_sub(1).map_or(0, |prev| ends[prev])..end)
}

/// The exclusive end row of every run of equal user ids, found in one
/// pass. A run holds at least one row, so one reserved slot per row means
/// the vector never reallocates (only the slots it fills are touched).
fn run_ends<U: Int>(user: &[U]) -> Vec<usize> {
    let mut ends = Vec::with_capacity(user.len());
    ends.extend(user.windows(2).enumerate().filter(|(_, w)| w[0] != w[1]).map(|(i, _)| i + 1));
    ends.extend((!user.is_empty()).then_some(user.len()));
    ends
}

/// Split a batch into packets of roughly `rows_per_packet` rows whose
/// boundaries never cut a user's run in two: each packet ends at the last
/// user boundary at or before the size target, or stretches to the run's
/// end when a single user's history exceeds the target. Concatenating the
/// per-packet [`run_stateful`] outputs therefore equals the whole-batch
/// output — the invariant the engine's packet loop relies on.
pub fn split_user_aligned(
    batch: &Batch,
    user_col: usize,
    rows_per_packet: usize,
) -> Vec<Batch> {
    if batch.rows() == 0 {
        return Vec::new();
    }
    let ends = with_ints!(Ints::of(batch.col(user_col)), user => run_ends(user));
    let mut packets = Vec::new();
    let (mut cur, mut next) = (0usize, 0usize);
    while next < ends.len() {
        // The last run end within the target — or the first one past it,
        // when one user's run exceeds the target: never split a run.
        let target = cur.saturating_add(rows_per_packet.max(1));
        while next + 1 < ends.len() && ends[next + 1] <= target {
            next += 1;
        }
        packets.push(batch.slice(cur, ends[next] - cur));
        cur = ends[next];
        next += 1;
    }
    packets
}

/// Sessions in one run: a count of comparison results, no branch per gap.
fn sessionize<T: Int>(ts: &[T], gap: i64) -> i64 {
    1 + ts.windows(2).filter(|w| w[1].get().saturating_sub(w[0].get()) > gap).count() as i64
}

/// Longest funnel whose chain starts are fixed-size stack state: up to
/// here they stay in registers (measured 212 vs 85–115 Mev/s on the heap).
const FUNNEL_STACK_STEPS: usize = 4;

/// The step-table slot every event code outside the table clamps to. It
/// stays 0 (matches no step), so tabled step codes lie strictly below it.
const NO_STEP: usize = 255;

/// Event code → bitmask of the funnel steps it matches (bit `j` = step
/// `j + 1`), built once per call. `None` — the generic fallback — for an
/// empty funnel, one longer than [`FUNNEL_STACK_STEPS`], or a step code
/// that is negative (the `-1` unknown-event sentinel) or too large for the
/// table.
fn step_table(steps: &[i32]) -> Option<[u8; NO_STEP + 1]> {
    if steps.is_empty() || steps.len() > FUNNEL_STACK_STEPS {
        return None;
    }
    let mut table = [0u8; NO_STEP + 1];
    for (j, &s) in steps.iter().enumerate() {
        table[usize::try_from(s).ok().filter(|&code| code < NO_STEP)?] |= 1 << j;
    }
    Some(table)
}

fn window_funnel<T: Int, E: Int>(
    ts: &[T],
    ev: &[E],
    ends: &[usize],
    steps: &[i32],
    window: i64,
) -> Vec<i64> {
    let each = |f: &mut dyn FnMut(&[T], &[E]) -> i64| -> Vec<i64> {
        runs(ends).map(|r| f(&ts[r.clone()], &ev[r])).collect()
    };
    match (step_table(steps), steps.len()) {
        (Some(table), 1) => each(&mut |ts, ev| funnel_stack::<1, T, E>(ts, ev, &table, window)),
        (Some(table), 2) => each(&mut |ts, ev| funnel_stack::<2, T, E>(ts, ev, &table, window)),
        (Some(table), 3) => each(&mut |ts, ev| funnel_stack::<3, T, E>(ts, ev, &table, window)),
        (Some(table), 4) => each(&mut |ts, ev| funnel_stack::<4, T, E>(ts, ev, &table, window)),
        _ => {
            let mut start = vec![0i64; steps.len()];
            each(&mut |ts, ev| funnel_any(ts, ev, steps, window, &mut start))
        }
    }
}

/// `if c == 1 { a } else { b }` for `c` ∈ {0, 1} as mask arithmetic: which
/// step an event matches is close to random, so a branch on it mispredicts
/// on a third of the rows (measured 195 vs 300 Mev/s).
fn select(c: u32, a: i64, b: i64) -> i64 {
    b ^ ((a ^ b) & (c as i64).wrapping_neg())
}

/// Funnel depth of one run, `K` steps, chain starts on the stack.
fn funnel_stack<const K: usize, T: Int, E: Int>(
    ts: &[T],
    ev: &[E],
    table: &[u8; NO_STEP + 1],
    window: i64,
) -> i64 {
    // start[j]: start timestamp of a chain that has matched j + 1 steps,
    // live when bit j of `have` is set.
    let (mut start, mut have) = ([0i64; K], 0u32);
    for (t, e) in ts.iter().zip(ev) {
        let code = usize::try_from(e.get()).map_or(NO_STEP, |c| c.min(NO_STEP));
        let (t, m) = (t.get(), table[code] as u32);
        // Deepest step first: an event matching two consecutive steps
        // (`view → view`) extends the chain it found, not the one it is
        // about to start.
        let extends = m & (have << 1);
        for j in (1..K).rev() {
            let within = t.saturating_sub(start[j - 1]) <= window;
            let hit = extends >> j & within as u32 & 1;
            start[j] = select(hit, start[j - 1], start[j]);
            have |= hit << j;
        }
        // A later chain start leaves more window headroom.
        start[0] = select(m & 1, t, start[0]);
        have |= m & 1;
        if have >> (K - 1) != 0 {
            break; // every step matched: no later row can deepen it
        }
    }
    (u32::BITS - have.leading_zeros()) as i64
}

/// Funnel depth of one run for any step list; `start` is the caller's
/// per-call scratch (one slot per step). A chain only ever extends a live
/// shallower one and is never dropped, so the live levels are `1..=depth`
/// and whatever an earlier run left in `start` is never read.
fn funnel_any<T: Int, E: Int>(
    ts: &[T],
    ev: &[E],
    steps: &[i32],
    window: i64,
    start: &mut [i64],
) -> i64 {
    let mut depth = 0usize;
    for (t, e) in ts.iter().zip(ev) {
        let (t, e) = (t.get(), e.get());
        for j in (0..steps.len().min(depth + 1)).rev() {
            if e != steps[j] as i64 {
                continue;
            }
            if j == 0 {
                start[0] = t;
            } else if t.saturating_sub(start[j - 1]) <= window {
                start[j] = start[j - 1];
            } else {
                continue;
            }
            depth = depth.max(j + 1);
        }
    }
    depth as i64
}

fn retention<T: Int, E: Int>(
    ts: &[T],
    ev: &[E],
    ends: &[usize],
    cohort_event: i32,
    return_events: &[i32],
    period: i64,
) -> Vec<Vec<i64>> {
    let k = return_events.len();
    // out[0] = in_cohort, out[1 + i] = ret_{i+1}; all-zero until a hit.
    let mut out = vec![vec![0i64; ends.len()]; 1 + k];
    // With period > 0 the windows (t0 + i·p, t0 + (i+1)·p] are disjoint,
    // so a row's slot is a division — provided their whole span k·p fits
    // i64 (then saturating the last bound at i64::MAX loses no row).
    let span = if period > 0 { (k as i64).checked_mul(period) } else { None };
    for (u, r) in runs(ends).enumerate() {
        let (ts, ev) = (&ts[r.clone()], &ev[r]);
        let Some(c) = ev.iter().position(|e| e.get() == cohort_event as i64) else {
            continue;
        };
        out[0][u] = 1;
        let t0 = ts[c].get();
        // Every row is a candidate, the ones before the cohort row
        // included: sortedness is a contract, not a fact to lean on.
        let rows = ts.iter().zip(ev).map(|(t, e)| (t.get(), e.get()));
        if let Some(span) = span {
            let last = t0.saturating_add(span);
            for (t, e) in rows.filter(|&(t, _)| t > t0 && t <= last) {
                let slot = ((t - t0 - 1) / period) as usize;
                if e == return_events[slot] as i64 {
                    out[1 + slot][u] = 1;
                }
            }
        } else {
            for (i, &re) in return_events.iter().enumerate() {
                let lo = t0.saturating_add((i as i64).saturating_mul(period));
                let hi = t0.saturating_add((i as i64 + 1).saturating_mul(period));
                let hit = rows.clone().any(|(t, e)| e == re as i64 && t > lo && t <= hi);
                out[1 + i][u] = hit as i64;
            }
        }
    }
    out
}

/// Whether one run's events contain `pattern` as a subsequence.
fn sequence_match<E: Int>(ev: &[E], pattern: &[i32]) -> i64 {
    let mut next = 0usize;
    for e in ev {
        if next == pattern.len() {
            break; // complete: no later row can undo a match
        }
        next += (e.get() == pattern[next] as i64) as usize;
    }
    (next == pattern.len()) as i64
}

/// Run a stateful aggregate over one packet sorted by `(user, ts)`: one
/// sequential state machine per user run, one all-`i64` output row per
/// user. Returns the output batch and the number of users seen (the
/// statistic the cost arms replay).
///
/// Precondition: the user / ts / event columns exist and are
/// integer-valued — the engine checks that once per stage and refuses the
/// plan otherwise; a float or missing column panics here. Typed views, run
/// bounds, kernel: the answer equals the test oracle's on *any* input,
/// unsorted timestamps included.
pub fn run_stateful(agg: &StatefulAgg, batch: &Batch) -> (Batch, usize) {
    let view = |c: usize| Ints::of(batch.col(c));
    let (ends, uids) = with_ints!(view(agg.user_col()), user => {
        let ends = run_ends(user);
        let uids: Vec<i64> = ends.iter().map(|&end| user[end - 1].get()).collect();
        (ends, uids)
    });
    let ts = view(agg.ts_col());
    let mut out = vec![uids];
    match agg {
        StatefulAgg::Sessionize { gap, .. } => {
            out.push(
                with_ints!(ts, ts => runs(&ends).map(|r| sessionize(&ts[r], *gap)).collect()),
            );
            out.push(runs(&ends).map(|r| r.len() as i64).collect());
        }
        StatefulAgg::WindowFunnel { event_col, steps, window, .. } => {
            out.push(with_ints!(ts, ts => with_ints!(view(*event_col), ev => {
                window_funnel(ts, ev, &ends, steps, *window)
            })));
        }
        StatefulAgg::Retention { event_col, cohort_event, return_events, period, .. } => {
            out.extend(with_ints!(ts, ts => with_ints!(view(*event_col), ev => {
                retention(ts, ev, &ends, *cohort_event, return_events, *period)
            })));
        }
        StatefulAgg::SequenceMatch { event_col, pattern, .. } => {
            out.push(with_ints!(view(*event_col), ev => {
                runs(&ends).map(|r| sequence_match(&ev[r], pattern)).collect()
            }));
        }
    }
    let columns = out.into_iter().map(Column::from_i64).collect();
    (Batch::new(columns), ends.len())
}

/// CPU cost of a stateful pass over `rows` input rows covering `users`
/// user runs: a SIMD-hostile but cache-friendly sequential scan (the state
/// machine fits registers while a run streams through) plus one random
/// excursion into the per-user state region per run.
pub fn cpu_cost(
    rows: u64,
    users: u64,
    state_bytes: u64,
    ops_per_row: f64,
    model: &CpuCostModel,
) -> SimTime {
    model.compute_simd(rows, ops_per_row) + model.random_accesses(users, state_bytes.max(64))
}

/// GPU cost of the same pass: the packet streams through device memory
/// like any kernel, but every row's state transition is one step of a
/// serial per-user chain — priced as a random device-memory access
/// ([`GpuSpec::random_access_ns`](hape_sim::GpuSpec::random_access_ns))
/// stretched by [`GPU_SEQ_CHAIN_FACTOR`]. This is the term that makes the
/// behavioral suite lose on GPUs in proportion to the hardware model, not
/// by fiat: scale the GPU's memory system up and the penalty shrinks with
/// it.
pub fn gpu_cost(
    sim: &GpuSim,
    region: Region,
    rows: usize,
    row_bytes: u64,
    state_bytes: u64,
    ops_per_row: f64,
) -> SimTime {
    let streamed = sim.launch(&grid_for(rows.max(1)), |blk| {
        let start = blk.block_idx * crate::gpu::ITEMS_PER_BLOCK;
        let end = (start + crate::gpu::ITEMS_PER_BLOCK).min(rows);
        if start >= end {
            return;
        }
        let n = (end - start) as u64;
        blk.global_read_stream(&region, start as u64 * row_bytes, n * row_bytes);
        blk.compute(n, ops_per_row);
    });
    let chain_ns =
        rows as f64 * sim.spec().random_access_ns(state_bytes.max(64)) * GPU_SEQ_CHAIN_FACTOR;
    streamed.time + SimTime::from_ns(chain_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_sim::{CpuSpec, Fidelity, GpuSpec};
    use hape_storage::dict::Dictionary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The row-at-a-time implementation the typed kernels replaced, kept
    /// as their bit-identity oracle (PR 15's `RefState` pattern): per-row
    /// type dispatch, per-run copies, per-run allocations and all. Two
    /// things differ from the code as it shipped: timestamp arithmetic
    /// saturates (it overflowed), and the debug-build sortedness assertion
    /// is gone — the oracle defines the answer on unsorted input too.
    mod oracle {
        use super::super::StatefulAgg;
        use hape_storage::table::DataType;
        use hape_storage::{Batch, Column};

        fn int_value_at(col: &Column, row: usize) -> i64 {
            match col.data_type() {
                DataType::I32 | DataType::Date => col.as_i32()[row] as i64,
                DataType::I64 => col.as_i64()[row],
                DataType::Str => col.as_codes()[row] as i64,
                DataType::F64 => panic!("stateful aggregate over a float column"),
            }
        }

        pub fn split_user_aligned(
            batch: &Batch,
            user_col: usize,
            rows_per_packet: usize,
        ) -> Vec<Batch> {
            let n = batch.rows();
            if n == 0 {
                return Vec::new();
            }
            let col = batch.col(user_col);
            let same_user = |i: usize| int_value_at(col, i) == int_value_at(col, i - 1);
            let mut packets = Vec::new();
            let mut cur = 0usize;
            while cur < n {
                let target = (cur + rows_per_packet.max(1)).min(n);
                let mut end = target;
                if end < n {
                    while end > cur + 1 && same_user(end) {
                        end -= 1;
                    }
                    if end == cur + 1 && same_user(end) {
                        end = target;
                        while end < n && same_user(end) {
                            end += 1;
                        }
                    }
                }
                packets.push(batch.slice(cur, end - cur));
                cur = end;
            }
            packets
        }

        fn sessionize_run(ts: &[i64], gap: i64) -> (i64, i64) {
            let mut sessions = 1i64;
            for w in ts.windows(2) {
                if w[1].saturating_sub(w[0]) > gap {
                    sessions += 1;
                }
            }
            (sessions, ts.len() as i64)
        }

        fn funnel_run(ts: &[i64], ev: &[i64], steps: &[i32], window: i64) -> i64 {
            let k = steps.len();
            // start[j] = start timestamp of a chain that has matched j steps.
            let mut start: Vec<Option<i64>> = vec![None; k + 1];
            for (&t, &e) in ts.iter().zip(ev) {
                for j in (1..=k).rev() {
                    if e != steps[j - 1] as i64 {
                        continue;
                    }
                    if j == 1 {
                        // A later chain start leaves more window headroom.
                        start[1] = Some(t);
                    } else if let Some(s) = start[j - 1] {
                        if t.saturating_sub(s) <= window {
                            start[j] = Some(s);
                        }
                    }
                }
            }
            (1..=k).rev().find(|&j| start[j].is_some()).unwrap_or(0) as i64
        }

        fn retention_run(
            ts: &[i64],
            ev: &[i64],
            cohort_event: i32,
            return_events: &[i32],
            period: i64,
        ) -> Vec<i64> {
            let cohort_ts =
                ts.iter().zip(ev).find(|(_, &e)| e == cohort_event as i64).map(|(&t, _)| t);
            let mut out = Vec::with_capacity(1 + return_events.len());
            out.push(cohort_ts.is_some() as i64);
            for (i, &re) in return_events.iter().enumerate() {
                let hit = cohort_ts.is_some_and(|t0| {
                    let lo = t0.saturating_add((i as i64).saturating_mul(period));
                    let hi = t0.saturating_add((i as i64 + 1).saturating_mul(period));
                    ts.iter().zip(ev).any(|(&t, &e)| e == re as i64 && t > lo && t <= hi)
                });
                out.push(hit as i64);
            }
            out
        }

        fn sequence_match_run(ev: &[i64], pattern: &[i32]) -> i64 {
            let mut next = 0usize;
            for &e in ev {
                if next < pattern.len() && e == pattern[next] as i64 {
                    next += 1;
                }
            }
            (next == pattern.len()) as i64
        }

        pub fn run_stateful(agg: &StatefulAgg, batch: &Batch) -> (Batch, usize) {
            let n = batch.rows();
            let user = batch.col(agg.user_col());
            let ts_col = batch.col(agg.ts_col());
            let ev_col = agg.event_col().map(|c| batch.col(c));
            let width = agg.out_width();
            let mut out: Vec<Vec<i64>> = vec![Vec::new(); width];
            let mut users = 0usize;
            let mut start = 0usize;
            let mut ts_buf: Vec<i64> = Vec::new();
            let mut ev_buf: Vec<i64> = Vec::new();
            while start < n {
                let uid = int_value_at(user, start);
                let mut end = start + 1;
                while end < n && int_value_at(user, end) == uid {
                    end += 1;
                }
                ts_buf.clear();
                ts_buf.extend((start..end).map(|r| int_value_at(ts_col, r)));
                if let Some(ev) = ev_col {
                    ev_buf.clear();
                    ev_buf.extend((start..end).map(|r| int_value_at(ev, r)));
                }
                users += 1;
                out[0].push(uid);
                match agg {
                    StatefulAgg::Sessionize { gap, .. } => {
                        let (sessions, events) = sessionize_run(&ts_buf, *gap);
                        out[1].push(sessions);
                        out[2].push(events);
                    }
                    StatefulAgg::WindowFunnel { steps, window, .. } => {
                        out[1].push(funnel_run(&ts_buf, &ev_buf, steps, *window));
                    }
                    StatefulAgg::Retention { cohort_event, return_events, period, .. } => {
                        let flags = retention_run(
                            &ts_buf,
                            &ev_buf,
                            *cohort_event,
                            return_events,
                            *period,
                        );
                        for (slot, v) in out[1..].iter_mut().zip(flags) {
                            slot.push(v);
                        }
                    }
                    StatefulAgg::SequenceMatch { pattern, .. } => {
                        out[1].push(sequence_match_run(&ev_buf, pattern));
                    }
                }
                start = end;
            }
            let columns = out.into_iter().map(Column::from_i64).collect();
            (Batch::new(columns), users)
        }
    }

    /// Kernel output and oracle output agree on the user count and on every
    /// value of every column.
    fn assert_equals_oracle(agg: &StatefulAgg, batch: &Batch, case: &str) {
        let (got, got_users) = run_stateful(agg, batch);
        let (want, want_users) = oracle::run_stateful(agg, batch);
        assert_eq!(got_users, want_users, "{case}: users, {agg:?}");
        assert_eq!(got.columns.len(), want.columns.len(), "{case}: width, {agg:?}");
        for c in 0..want.columns.len() {
            assert_eq!(
                got.col(c).as_i64(),
                want.col(c).as_i64(),
                "{case}: column {c}, {agg:?}"
            );
        }
    }

    /// An integer-valued column of one of the three physical types the
    /// kernels specialise on (`Date` is `I32` physically; a `Str` column is
    /// its codes — no kernel reads the dictionary).
    fn int_column(values: &[i64], physical: u32) -> Column {
        match physical {
            0 => Column::from_i32(values.iter().map(|&v| v as i32).collect()),
            1 => Column::from_i64(values.to_vec()),
            _ => Column::from_codes(
                values.iter().map(|&v| v as u32).collect(),
                Arc::new(Dictionary::new()),
            ),
        }
    }

    /// One seeded differential case: a `(user, ts, event)` log of 1–60
    /// users with runs of 1–160 rows in a random combination of physical
    /// types, plus one randomly parameterised aggregate per operator.
    /// `sorted` cases honour the `(user, ts)` contract; the others shuffle
    /// timestamps freely — release builds do not check the contract, so
    /// the kernels must equal the oracle there too.
    fn random_case(seed: u64) -> (Batch, Vec<StatefulAgg>, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (user_ty, ts_ty, ev_ty) =
            (rng.gen_range(0..3u32), rng.gen_range(0..3u32), rng.gen_range(0..3u32));
        let sorted = rng.gen_bool(0.5);
        // Unsigned (code) columns cannot hold the negative extremes.
        let extremes = ts_ty == 1 && rng.gen_bool(0.2);
        let vocab = rng.gen_range(2..9i64);
        // Dense timestamps put rows on and around window boundaries.
        let ts_range = if rng.gen_bool(0.5) { 300 } else { 20_000i64 };
        let (mut user, mut ts, mut ev) = (Vec::new(), Vec::new(), Vec::new());
        let mut uid = rng.gen_range(0..50i64);
        for _ in 0..rng.gen_range(1..=60) {
            uid += rng.gen_range(1..4);
            let len =
                if rng.gen_bool(0.7) { rng.gen_range(1..=12) } else { rng.gen_range(1..=160) };
            let mut run: Vec<i64> = (0..len)
                .map(|_| match rng.gen_range(0..40u32) {
                    0 if extremes => i64::MIN,
                    1 if extremes => i64::MAX,
                    _ => rng.gen_range(0..ts_range),
                })
                .collect();
            if sorted {
                run.sort_unstable();
            }
            for t in run {
                user.push(uid);
                ts.push(t);
                // Mostly the small vocabulary; now and then a code at or past
                // the step table's edge, and a negative one where the type
                // has them.
                ev.push(match rng.gen_range(0..30u32) {
                    0 => 300,
                    1 => rng.gen_range(254..=255),
                    2 if ev_ty != 2 => -3,
                    // Equal to a vocabulary code only if truncated to 32 bits.
                    3 if ev_ty == 1 => (1 << 32) + rng.gen_range(0..vocab),
                    _ => rng.gen_range(0..vocab),
                });
            }
        }
        let batch = Batch::new(vec![
            int_column(&user, user_ty),
            int_column(&ts, ts_ty),
            int_column(&ev, ev_ty),
        ]);
        // Event codes for steps / patterns: the vocabulary (so repeats like
        // `view → view → cart` are common), the `-1` sentinel, the codes
        // that force the funnel's fallback.
        let code = |rng: &mut StdRng| match rng.gen_range(0..14u32) {
            0 => -1,
            1 => 300,
            2 => -3,
            3 => rng.gen_range(254..=255),
            _ => rng.gen_range(0..vocab) as i32,
        };
        let codes = |rng: &mut StdRng, max_len: usize| -> Vec<i32> {
            (0..rng.gen_range(0..=max_len)).map(|_| code(rng)).collect()
        };
        let span = |rng: &mut StdRng| match rng.gen_range(0..10u32) {
            0 => 0,
            1 => -rng.gen_range(1..5_000i64),
            2 => i64::MAX,
            3 => i64::MAX / 3,
            // Small enough that rows land exactly on window boundaries.
            4 | 5 => rng.gen_range(1..40),
            _ => rng.gen_range(1..5_000),
        };
        let (user_col, ts_col, event_col) = (0, 1, 2);
        let aggs = vec![
            StatefulAgg::Sessionize { user_col, ts_col, gap: span(&mut rng) },
            // Up to 7 steps: past the stack kernels' bound.
            StatefulAgg::WindowFunnel {
                user_col,
                ts_col,
                event_col,
                steps: codes(&mut rng, 7),
                window: span(&mut rng),
            },
            StatefulAgg::Retention {
                user_col,
                ts_col,
                event_col,
                cohort_event: codes(&mut rng, 1).first().copied().unwrap_or(0),
                return_events: codes(&mut rng, 5),
                period: span(&mut rng),
            },
            StatefulAgg::SequenceMatch {
                user_col,
                ts_col,
                event_col,
                pattern: codes(&mut rng, 5),
            },
        ];
        (batch, aggs, sorted)
    }

    fn differential(cases: u64) {
        for seed in 0..cases {
            let (batch, aggs, sorted) = random_case(seed);
            for agg in &aggs {
                assert_equals_oracle(agg, &batch, &format!("seed {seed}"));
                if sorted {
                    // The public entry point adds only the contract check.
                    let (out, users) = run_stateful(agg, &batch);
                    let (want, want_users) = run_stateful(agg, &batch);
                    assert_eq!(users, want_users);
                    assert_eq!(out.col(1).as_i64(), want.col(1).as_i64());
                }
            }
        }
    }

    #[test]
    fn kernels_equal_the_oracle_on_seeded_logs() {
        differential(200);
    }

    /// The CI-only depth (`cargo test --release -p hape-ops -- --ignored
    /// stateful`): seconds in release, so the oracle cannot drift from the
    /// kernels between PRs.
    #[test]
    #[ignore = "10^4 cases: run in release (CI does)"]
    fn kernels_equal_the_oracle_on_ten_thousand_seeded_logs() {
        differential(10_000);
    }

    /// Timestamps at the `i64` extremes: the differences overflow, and
    /// saturate instead of panicking (debug) or wrapping to "no gap"
    /// (release).
    fn extremes_log(ts: [i64; 2], events: [&str; 2]) -> Batch {
        Batch::new(vec![
            Column::from_i32(vec![1, 1]),
            Column::from_i64(ts.to_vec()),
            Column::from_strs(events),
        ])
    }

    #[test]
    fn sessionize_saturates_at_the_timestamp_extremes() {
        // The largest possible gap is a session break, not `-1`.
        let log = extremes_log([i64::MIN, i64::MAX], ["view", "view"]);
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1000 };
        let (out, _) = run_stateful(&agg, &log);
        assert_eq!(out.col(1).as_i64(), &[2]);
        assert_equals_oracle(&agg, &log, "extremes");
    }

    #[test]
    fn window_funnel_saturates_at_the_timestamp_extremes() {
        // view@MIN, cart@MAX: the cart is not within any window of the view.
        let log = extremes_log([i64::MIN, i64::MAX], ["view", "cart"]);
        let funnel = |steps: Vec<i32>| StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps,
            window: 1000,
        };
        // Both the stack kernel and (five steps) the fallback.
        for agg in [funnel(vec![0, 1]), funnel(vec![0, 1, 0, 1, 0])] {
            let (out, _) = run_stateful(&agg, &log);
            assert_eq!(out.col(1).as_i64(), &[1]);
            assert_equals_oracle(&agg, &log, "extremes");
        }
    }

    #[test]
    fn retention_saturates_at_the_timestamp_extremes() {
        // signup@MAX-5, visit@MAX, period 10: window 1 is (MAX-5, MAX] —
        // its upper bound saturates — and window 2 is empty.
        let log = extremes_log([i64::MAX - 5, i64::MAX], ["signup", "visit"]);
        let agg = StatefulAgg::Retention {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            cohort_event: 0,
            return_events: vec![1, 1],
            period: 10,
        };
        let (out, _) = run_stateful(&agg, &log);
        let flags: Vec<i64> = (1..4).map(|c| out.col(c).as_i64()[0]).collect();
        assert_eq!(flags, [1, 1, 0], "in_cohort, ret1, ret2");
        assert_equals_oracle(&agg, &log, "extremes");
    }

    #[test]
    fn sequence_match_compares_full_width_event_values() {
        // No timestamp arithmetic here; the extremes are event values an
        // `i64` event column can hold and an `i32` pattern code cannot.
        let log = Batch::new(vec![
            Column::from_i32(vec![1, 1, 1]),
            Column::from_i64(vec![i64::MIN, 0, i64::MAX]),
            Column::from_i64(vec![
                (1 << 32) + i32::MAX as i64,
                i32::MIN as i64,
                i32::MAX as i64,
            ]),
        ]);
        let agg = StatefulAgg::SequenceMatch {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            pattern: vec![i32::MAX, i32::MIN],
        };
        // The first row equals `i32::MAX` only if truncated to 32 bits.
        let (out, _) = run_stateful(&agg, &log);
        assert_eq!(out.col(1).as_i64(), &[0]);
        assert_equals_oracle(&agg, &log, "extremes");
    }

    /// The fixed reference log the oracle tests hand-compute against:
    /// three users, sorted by (user, ts). Dictionary codes intern in
    /// first-seen order: view=0 cart=1 purchase=2 signup=3 visit=4.
    fn tiny_log() -> Batch {
        #[rustfmt::skip]
        let (users, ts, ev) = (
            vec![1, 1, 1, 1,      2, 2, 2,        3, 3],
            vec![0, 100, 5000, 5200,  0, 50, 9000,    10, 4000],
            vec!["view", "cart", "purchase", "view",
                 "signup", "view", "visit",
                 "view", "purchase"],
        );
        Batch::new(vec![Column::from_i32(users), Column::from_i32(ts), Column::from_strs(ev)])
    }

    #[test]
    fn sessionize_oracle() {
        // gap=1000: user1 splits at 100→5000 (2 sessions, 4 events);
        // user2 splits at 50→9000 (2 sessions, 3 events); user3 splits
        // at 10→4000 (2 sessions, 2 events).
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1000 };
        let (out, users) = run_stateful(&agg, &tiny_log());
        assert_eq!(users, 3);
        assert_eq!(out.col(0).as_i64(), &[1, 2, 3]);
        assert_eq!(out.col(1).as_i64(), &[2, 2, 2]);
        assert_eq!(out.col(2).as_i64(), &[4, 3, 2]);
    }

    #[test]
    fn sessionize_single_session_when_gap_large() {
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1 << 30 };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[1, 1, 1]);
    }

    #[test]
    fn window_funnel_oracle() {
        // Steps view→cart→purchase. user1: view@0, cart@100, purchase@5000
        // is outside window=1000 of the chain start, so depth 2 — but the
        // view@... no later view restarts the chain, depth stays 2.
        // user2: view@50 only → depth 1. user3: view@10, purchase@4000 →
        // depth 1 (no cart).
        let agg = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 1000,
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[2, 1, 1]);
        // A wide window completes user1's funnel.
        let agg = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 10_000,
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[3, 1, 1]);
    }

    #[test]
    fn funnel_restarts_prefer_later_chain_start() {
        // view@0 (chain start), cart@900, view@1000 (restart), cart@1100,
        // purchase@1900: the restarted chain fits window=1000 end to end.
        let b = Batch::new(vec![
            Column::from_i32(vec![7, 7, 7, 7, 7]),
            Column::from_i32(vec![0, 900, 1000, 1100, 1900]),
            Column::from_strs(["view", "cart", "view", "cart", "purchase"]),
        ]);
        let agg = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 1000,
        };
        let (out, _) = run_stateful(&agg, &b);
        assert_eq!(out.col(1).as_i64(), &[3]);
    }

    #[test]
    fn retention_oracle() {
        // Cohort = signup (code 3), returns = [visit, visit], period 5000.
        // user2 signs up at ts 0; visit@9000 lands in window 2
        // (5000, 10000] → ret1=0, ret2=1. Users 1 and 3 never sign up.
        let agg = StatefulAgg::Retention {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            cohort_event: 3,
            return_events: vec![4, 4],
            period: 5000,
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[0, 1, 0], "in_cohort");
        assert_eq!(out.col(2).as_i64(), &[0, 0, 0], "ret1");
        assert_eq!(out.col(3).as_i64(), &[0, 1, 0], "ret2");
    }

    #[test]
    fn sequence_match_oracle() {
        // Pattern view→purchase: user1 (view@0 … purchase@5000) and user3
        // (view@10, purchase@4000) match; user2 has no purchase.
        let agg = StatefulAgg::SequenceMatch {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            pattern: vec![0, 2],
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[1, 0, 1]);
    }

    #[test]
    fn unknown_event_code_sentinel_matches_nothing() {
        let agg = StatefulAgg::SequenceMatch {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            pattern: vec![-1],
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[0, 0, 0]);
    }

    #[test]
    fn output_is_packet_concatenation_of_user_runs() {
        // Splitting a log at user boundaries and concatenating the packet
        // outputs must equal the whole-batch output — the invariant the
        // engine's aligned packet split relies on — for every operator and
        // whatever the packet size (the old split is the oracle here too).
        for seed in [3, 11, 42] {
            // The public entry point asserts the sortedness contract.
            let (log, aggs, _) = (seed..)
                .map(random_case)
                .find(|(_, _, sorted)| *sorted)
                .expect("half the cases are sorted");
            let n = log.rows();
            for rows_per_packet in [1, 7, 1_024, n] {
                let packets = split_user_aligned(&log, 0, rows_per_packet);
                let want = oracle::split_user_aligned(&log, 0, rows_per_packet);
                assert_eq!(
                    packets.iter().map(Batch::rows).collect::<Vec<_>>(),
                    want.iter().map(Batch::rows).collect::<Vec<_>>(),
                    "seed {seed}, {rows_per_packet} rows per packet"
                );
                for agg in &aggs {
                    let (whole, users) = run_stateful(agg, &log);
                    let parts: Vec<(Batch, usize)> =
                        packets.iter().map(|p| run_stateful(agg, p)).collect();
                    assert_eq!(users, parts.iter().map(|(_, u)| u).sum::<usize>());
                    for c in 0..whole.columns.len() {
                        let merged: Vec<i64> = parts
                            .iter()
                            .flat_map(|(out, _)| out.col(c).as_i64().iter().copied())
                            .collect();
                        assert_eq!(whole.col(c).as_i64(), &merged[..], "{agg:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn split_user_aligned_never_cuts_a_run() {
        let log = tiny_log(); // users [1×4, 2×3, 3×2]
        for target in 1..=10 {
            let packets = split_user_aligned(&log, 0, target);
            let total: usize = packets.iter().map(|p| p.rows()).sum();
            assert_eq!(total, log.rows(), "target {target} loses rows");
            for p in &packets {
                assert!(p.rows() > 0, "target {target} yields an empty packet");
                // No packet starts mid-run: its first user differs from the
                // previous packet's last user.
            }
            let mut off = 0usize;
            for p in &packets {
                if off > 0 {
                    assert_ne!(
                        log.col(0).as_i32()[off - 1],
                        log.col(0).as_i32()[off],
                        "target {target} cuts a user run at row {off}"
                    );
                }
                off += p.rows();
            }
        }
        // A single oversized run stays whole.
        let one_user = log.slice(0, 4);
        let packets = split_user_aligned(&one_user, 0, 2);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].rows(), 4);
    }

    #[test]
    fn empty_batch_yields_no_users() {
        let log = tiny_log();
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1000 };
        let (out, users) = run_stateful(&agg, &log.slice(0, 0));
        assert_eq!(users, 0);
        assert_eq!(out.rows(), 0);
        assert_eq!(out.columns.len(), 3);
    }

    #[test]
    fn gpu_cost_dwarfs_cpu_cost_on_the_paper_testbed() {
        // The whole point of the suite: per-row sequential state walks are
        // priced far above the CPU's streaming run scan on the GTX 1080's
        // memory system.
        let model = CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 12);
        let sim = GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Analytic);
        let rows = 1 << 16;
        let users = rows / 32;
        let cpu = cpu_cost(rows, users, 64 * users, 4.0, &model);
        let gpu = gpu_cost(&sim, Region::at(1 << 20, rows * 12), rows as usize, 12, 64, 4.0);
        assert!(
            gpu.as_ns() > 10.0 * cpu.as_ns(),
            "gpu {gpu} must dwarf cpu {cpu} on stateful work"
        );
    }

    #[test]
    fn labels_and_shapes_render() {
        let s = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1800 };
        assert_eq!(s.label(), "sessionize(gap=1800)");
        assert_eq!(s.out_width(), 3);
        assert_eq!(s.state_bytes_per_user(), 32);
        let f = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 3600,
        };
        assert_eq!(f.label(), "window_funnel(steps=3, window=3600)");
        assert_eq!(f.out_names(), vec!["funnel_depth"]);
        assert_eq!(f.event_col(), Some(2));
        let r = StatefulAgg::Retention {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            cohort_event: 3,
            return_events: vec![4, 4],
            period: 604_800,
        };
        assert_eq!(r.out_width(), 4);
        assert!(r.label().contains("returns=2"));
        let m = StatefulAgg::SequenceMatch {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            pattern: vec![0, 2],
        };
        assert_eq!(m.label(), "sequence_match(len=2)");
        assert!(m.ops_per_row() > 0.0 && m.state_bytes_per_user() > 0);
        // The width is computed from the variant, without the names.
        for agg in [&s, &f, &r, &m] {
            assert_eq!(agg.out_width(), 1 + agg.out_names().len(), "{}", agg.label());
        }
    }
}
