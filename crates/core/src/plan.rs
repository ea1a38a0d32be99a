//! Physical query plans: pipelines of fused operators.
//!
//! A [`QueryPlan`] is a sequence of [`Stage`]s separated by pipeline
//! breakers, exactly as a JIT engine splits a physical plan (§3): `Build`
//! stages materialise join hash tables; the final `Stream` stage folds
//! packets into aggregation states. Within a stage, the [`PipeOp`]s are
//! *fused* — a packet makes one trip through the device provider's compiled
//! code with no intermediate materialisation points.

use std::collections::HashMap;
use std::sync::OnceLock;

use hape_join::probe::{chained_bits, chained_bytes};
use hape_join::ProbeTable;
use hape_ops::expr::{ExprKind, KindMismatch};
use hape_ops::{AggFunc, AggSpec, Expr, GroupKey, StatefulAgg};
use hape_storage::{Batch, DataType};

use crate::catalog::Catalog;
use crate::error::{EngineError, PlanError};
use crate::verify::{Diagnostic, DiagnosticKind, Pass};

/// Join algorithm choice for a GPU-side probe (the Figure 9 toggle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Hardware-oblivious: random probes into a device-memory hash table.
    NonPartitioned,
    /// Hardware-conscious: radix co-partitioning, scratchpad-resident
    /// per-partition tables (§4.1).
    Partitioned,
}

/// One fused operator inside a pipeline.
#[derive(Debug, Clone)]
pub enum PipeOp {
    /// Keep rows satisfying the predicate.
    Filter(Expr),
    /// Replace the row with the given expressions (all `f64` outputs).
    Project(Vec<Expr>),
    /// Probe a built hash table; append the named build payload columns to
    /// each matching row.
    JoinProbe {
        /// Name of the build stage that produced the table.
        ht: String,
        /// Probe key column (must be `i32`-typed).
        key_col: usize,
        /// Columns of the build batch appended to matches.
        build_payload_cols: Vec<usize>,
        /// Algorithm (affects GPU cost; CPU probes use the cache-conscious
        /// layout either way).
        algo: JoinAlgo,
    },
    /// An order-sensitive per-user stateful aggregate
    /// ([`hape_ops::stateful`]): collapses each user's sorted event run
    /// into one row via a sequential state machine. The engine aligns
    /// packet boundaries on the user column, so only filters may precede
    /// it in a pipeline (validated) — anything that reshapes rows would
    /// break the source-order contract the alignment relies on.
    Stateful(StatefulAgg),
}

/// A pipeline's final probe ([`Pipeline::split_at_last_probe`]): the table
/// it probes, its probe key column and the build payload columns it appends.
pub(crate) type FinalProbe<'a> = (&'a str, usize, &'a [usize]);

/// A pipeline: a source table streamed through fused operators, optionally
/// ending in an aggregation.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Source table name in the catalog.
    pub source: String,
    /// Fused operators, in order.
    pub ops: Vec<PipeOp>,
    /// Terminal aggregation (required for `Stream` stages).
    pub agg: Option<AggSpec>,
}

impl Pipeline {
    /// A pipeline scanning `source`.
    pub fn scan(source: impl Into<String>) -> Self {
        Pipeline { source: source.into(), ops: Vec::new(), agg: None }
    }

    /// Append a filter.
    pub fn filter(mut self, pred: Expr) -> Self {
        self.ops.push(PipeOp::Filter(pred));
        self
    }

    /// Append a projection.
    pub fn project(mut self, exprs: Vec<Expr>) -> Self {
        self.ops.push(PipeOp::Project(exprs));
        self
    }

    /// Append a join probe.
    pub fn join(
        mut self,
        ht: impl Into<String>,
        key_col: usize,
        build_payload_cols: Vec<usize>,
        algo: JoinAlgo,
    ) -> Self {
        self.ops.push(PipeOp::JoinProbe { ht: ht.into(), key_col, build_payload_cols, algo });
        self
    }

    /// Append a stateful per-user aggregate.
    pub fn stateful(mut self, agg: StatefulAgg) -> Self {
        self.ops.push(PipeOp::Stateful(agg));
        self
    }

    /// Terminate with an aggregation.
    pub fn aggregate(mut self, spec: AggSpec) -> Self {
        self.agg = Some(spec);
        self
    }

    /// Names of the hash tables this pipeline probes, each once, in
    /// first-probe order: memoised build sides let a pipeline probe one
    /// table at several sites, but it is broadcast into device memory (and
    /// capacity-counted) once.
    pub fn tables_probed(&self) -> Vec<&str> {
        let mut tables: Vec<&str> = Vec::new();
        for op in &self.ops {
            if let PipeOp::JoinProbe { ht, .. } = op {
                if !tables.contains(&ht.as_str()) {
                    tables.push(ht);
                }
            }
        }
        tables
    }

    /// The pipeline's final hash-table probe, as `(op index, table name)` —
    /// the probe a [`crate::place::PlacedStage::CoProcess`] stage executes
    /// as the §5 co-processing join (the preceding operators form the
    /// CPU-side prefix).
    pub fn last_probe(&self) -> Option<(usize, &str)> {
        self.ops.iter().enumerate().rev().find_map(|(i, op)| match op {
            PipeOp::JoinProbe { ht, .. } => Some((i, ht.as_str())),
            _ => None,
        })
    }

    /// The pipeline cut at its final probe ([`Pipeline::last_probe`]): the
    /// prefix before it, feeding no aggregation; the probe's table, key
    /// column and build payload columns; and the rest after it, with the
    /// aggregation. A co-processing stage runs the prefix on its CPUs, the
    /// probe as the §5 join and folds the rest.
    pub(crate) fn split_at_last_probe(&self) -> Option<(Pipeline, FinalProbe<'_>, Pipeline)> {
        let (i, probe) = self.ops.iter().enumerate().rev().find_map(|(i, op)| match op {
            PipeOp::JoinProbe { ht, key_col, build_payload_cols, .. } => {
                Some((i, (ht.as_str(), *key_col, build_payload_cols.as_slice())))
            }
            _ => None,
        })?;
        let part = |ops: &[PipeOp], agg| Pipeline {
            source: self.source.clone(),
            ops: ops.to_vec(),
            agg,
        };
        Some((part(&self.ops[..i], None), probe, part(&self.ops[i + 1..], self.agg.clone())))
    }

    /// `source` split into the packets this pipeline runs, of at most `rows`
    /// rows each — the engine's and the baselines' one split rule. Stateful
    /// aggregates consume whole per-user runs, so their packet boundaries
    /// snap to user boundaries (binding guarantees only filters precede the
    /// op, so its columns are source-table indices, in range and of a type
    /// the kernels read).
    pub fn packets(&self, source: &Batch, rows: usize) -> Vec<Batch> {
        match self.stateful_agg() {
            Some(agg) => hape_ops::stateful::split_user_aligned(source, agg.user_col(), rows),
            None => source.split(rows),
        }
    }

    /// The pipeline's stateful aggregate, if any. Because binding
    /// ([`QueryPlan::bind`]) guarantees only filters precede it, its column
    /// indices are in *source*-table coordinates — the engine aligns packet
    /// boundaries on its user column there.
    pub fn stateful_agg(&self) -> Option<&StatefulAgg> {
        self.ops.iter().find_map(|op| match op {
            PipeOp::Stateful(agg) => Some(agg),
            _ => None,
        })
    }
}

/// A stateful aggregate's input columns as `(role, column index, logical
/// types the role accepts, what lowering calls those)`. With
/// [`is_join_key`] and [`is_group_key`], the one statement of the
/// operators' input contracts: [`bind`] judges hand-built indices against
/// them, lowering ([`crate::query`]) named columns.
pub(crate) fn stateful_inputs(
    agg: &StatefulAgg,
) -> impl Iterator<Item = (&'static str, usize, &'static [DataType], &'static str)> {
    const USER: &[DataType] = &[DataType::I32, DataType::I64];
    const TS: &[DataType] = &[DataType::I32, DataType::I64, DataType::Date];
    const EVENT: &[DataType] = &[DataType::Str];
    [
        ("user", Some(agg.user_col()), USER, "integer user column"),
        ("ts", Some(agg.ts_col()), TS, "integer or date timestamp column"),
        ("event", agg.event_col(), EVENT, "string event column"),
    ]
    .into_iter()
    .filter_map(|(role, column, accepted, named)| Some((role, column?, accepted, named)))
}

/// Join keys — a probe's key column and a build's — are read as `i32`s by
/// [`JoinTable::build`] and the probe kernels.
pub(crate) fn is_join_key(dtype: DataType) -> bool {
    matches!(dtype, DataType::I32 | DataType::Date)
}

/// Group keys widen to the `i64` components of a `hape_ops::GroupKey`,
/// which a float does not.
pub(crate) fn is_group_key(dtype: DataType) -> bool {
    dtype != DataType::F64
}

/// One stage of a query plan.
#[derive(Debug, Clone)]
pub enum Stage {
    /// Run the pipeline and build a hash table over its output.
    Build {
        /// Name under which probes reference the table.
        name: String,
        /// Key column *of the pipeline's output*.
        key_col: usize,
        /// The producing pipeline (must not aggregate).
        pipeline: Pipeline,
    },
    /// Run the pipeline into its terminal aggregation.
    Stream {
        /// The pipeline (must aggregate).
        pipeline: Pipeline,
    },
}

/// A full physical plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Display name (e.g. `"Q5"`).
    pub name: String,
    /// The stages, executed in order.
    pub stages: Vec<Stage>,
}

impl QueryPlan {
    /// Create a named plan, refusing one whose structure does not bind
    /// ([`QueryPlan::validate`]).
    pub fn try_new(name: impl Into<String>, stages: Vec<Stage>) -> Result<Self, PlanError> {
        let plan = QueryPlan { name: name.into(), stages };
        plan.validate()?;
        Ok(plan)
    }

    /// Check the stage structure of an already-assembled plan: the binding
    /// walk ([`QueryPlan::bind`]) without a catalog — invariants 1–5 and 13 —
    /// refusing with its first finding as [`PlanError::Unbound`].
    pub fn validate(&self) -> Result<(), PlanError> {
        refuse(bind(self.views(), None))
    }

    /// Bind the plan to the catalog it will run against, refusing with the
    /// first finding. Every executor ([`crate::engine::Engine::begin`], the
    /// baselines) binds before its first packet, in every build profile,
    /// and so does [`crate::engine::Engine::place`] before it dispatches.
    ///
    /// The binding walk is **the** list of plan invariants. It walks every
    /// stage's operators once, flowing the column types from the scanned
    /// schema through each operator boundary, and reports every violation
    /// as a located [`Diagnostic`] ([`crate::verify::check_plan`] returns
    /// them all). Every door refuses a plan that does not bind the same
    /// way: with [`PlanError::Unbound`] of the walk's first finding —
    /// bare from [`QueryPlan::try_new`] and `validate`, as
    /// [`EngineError::InvalidPlan`] from every executor.
    ///
    /// | # | invariant | [`DiagnosticKind`] |
    /// |---|---|---|
    /// | 1 | a build stage does not aggregate | `BuildAggregates` |
    /// | 2 | a streaming stage does | `StreamMissingAgg` |
    /// | 3 | there is exactly one streaming stage | `NotExactlyOneStream` |
    /// | 4 | a probed hash table is built by an earlier stage | `ProbeUnbuilt` |
    /// | 5 | only filters precede a stateful aggregate | `StatefulAfterReshape` |
    /// | 6 | the scanned table exists | `UnknownSource` |
    /// | 7 | every column an expression, key, group-by or probe payload names is in range | `ColumnOutOfRange`, `PayloadOutOfRange` |
    /// | 8 | filters are boolean; projections, the arguments of every aggregate but `Count`, and each operand ([`Expr::kind`]) of the kind its operator takes | `ExprKindMismatch` |
    /// | 9 | a projection has a column | `EmptyProject` |
    /// | 10 | probe and build keys are `i32` / date typed | `ProbeKeyType`, `KeyType` |
    /// | 11 | group keys are not `f64` typed | `KeyType` |
    /// | 12 | a stateful aggregate's user / ts / event columns are in range and of a type their role accepts | `StatefulAlignmentInvalid`, `StatefulColumnType` |
    /// | 13 | a group-by has at most as many columns as a `hape_ops::GroupKey` holds (4) | `TooManyGroupColumns` |
    ///
    /// 1–5 and 13 are structure, judged with or without a catalog. 6–12 need a
    /// schema to flow: without a catalog there is none, and a pipeline whose
    /// source is unknown stops flowing at that finding. A bad reference is
    /// reported once and the walk continues with the operator's declared
    /// output shape, so one corruption yields one diagnostic, not a cascade.
    pub fn bind(&self, catalog: &Catalog) -> Result<(), EngineError> {
        bind_to(self.views(), catalog)
    }

    pub(crate) fn views(&self) -> impl Iterator<Item = StageView<'_>> {
        self.stages.iter().map(|stage| match stage {
            Stage::Build { name, key_col, pipeline } => {
                (Some((name.as_str(), *key_col)), pipeline)
            }
            Stage::Stream { pipeline } => (None, pipeline),
        })
    }
}

/// One stage as [`bind`] sees it — the build it materialises, as `(hash
/// table name, key column of the pipeline's output)`, or `None` for a
/// streaming stage, and its pipeline. What [`QueryPlan`] and
/// [`crate::place::PlacedPlan`] have in common.
pub(crate) type StageView<'a> = (Option<(&'a str, usize)>, &'a Pipeline);

/// The binding walk (its invariants are listed on [`QueryPlan::bind`]):
/// every finding in stage order; judged without a catalog when `None`.
pub(crate) fn bind<'a>(
    stages: impl IntoIterator<Item = StageView<'a>>,
    catalog: Option<&Catalog>,
) -> Vec<Diagnostic> {
    let mut cx = Binder { catalog, built: HashMap::new(), diagnostics: Vec::new() };
    let mut streams = 0usize;
    for (si, (build, pipeline)) in stages.into_iter().enumerate() {
        let at = (Some(si), None);
        match (build, &pipeline.agg) {
            (Some((name, _)), Some(_)) => {
                cx.flag(at, DiagnosticKind::BuildAggregates { name: name.into() });
            }
            (None, None) => cx.flag(at, DiagnosticKind::StreamMissingAgg),
            _ => {}
        }
        let out = cx.pipeline(si, pipeline);
        match build {
            Some((name, key_col)) => {
                if let Some(out) = &out {
                    let (column, context) = (key_col, "build key");
                    cx.key(at, out, (column, context), is_join_key, |found| {
                        DiagnosticKind::KeyType { context, column, found }
                    });
                }
                cx.built.insert(name, out);
            }
            None => {
                streams += 1;
                let max = GroupKey::default().len();
                let got = pipeline.agg.as_ref().map_or(0, |spec| spec.group_by.len());
                if got > max {
                    cx.flag(at, DiagnosticKind::TooManyGroupColumns { got, max });
                }
                let (Some(out), Some(spec)) = (&out, &pipeline.agg) else { continue };
                for &column in &spec.group_by {
                    cx.key(at, out, (column, "group-by"), is_group_key, |found| {
                        DiagnosticKind::KeyType { context: "group-by", column, found }
                    });
                }
                for (func, arg) in &spec.aggs {
                    // `Count` never evaluates its argument.
                    let kind = (*func != AggFunc::Count).then_some(ExprKind::Num);
                    cx.expr(at, arg, out, "agg", kind);
                }
            }
        }
    }
    if streams != 1 {
        cx.flag((None, None), DiagnosticKind::NotExactlyOneStream { streams });
    }
    cx.diagnostics
}

/// Where a finding is: `(stage, op)`, either absent when it is not local
/// to one.
type At = (Option<usize>, Option<usize>);

/// [`bind`]'s state: the catalog (if any), the findings so far, and what
/// the walk has learnt about each build.
struct Binder<'a> {
    catalog: Option<&'a Catalog>,
    /// Output column types of each build stage so far, by hash-table name;
    /// `None` while there is no schema to flow.
    built: HashMap<&'a str, Option<Vec<DataType>>>,
    diagnostics: Vec<Diagnostic>,
}

impl<'a> Binder<'a> {
    fn flag(&mut self, (stage, op): At, kind: DiagnosticKind) {
        // A `Diagnostic`'s pass says which contract broke, not which code
        // found it: a stateful column outside the source is the
        // user-aligned packet split's (the determinism contract's) to lose.
        let pass = match kind {
            DiagnosticKind::StatefulAlignmentInvalid { .. } => Pass::Determinism,
            _ => Pass::SchemaDataflow,
        };
        self.diagnostics.push(Diagnostic { stage, segment: None, op, pass, kind });
    }

    /// Walk one pipeline's operators and return its output column types —
    /// `None` when there is no schema to flow.
    fn pipeline(&mut self, si: usize, pipeline: &'a Pipeline) -> Option<Vec<DataType>> {
        let table = self.catalog.map(|catalog| catalog.get(&pipeline.source));
        if let Some(None) = table {
            let table = pipeline.source.clone();
            self.flag((Some(si), None), DiagnosticKind::UnknownSource { table });
        }
        let mut cols: Option<Vec<DataType>> =
            table.flatten().map(|t| t.schema.fields.iter().map(|f| f.dtype).collect());
        let mut reshaped = false;
        for (oi, op) in pipeline.ops.iter().enumerate() {
            let at = (Some(si), Some(oi));
            match op {
                PipeOp::Filter(pred) => {
                    if let Some(cols) = &cols {
                        self.expr(at, pred, cols, "filter", Some(ExprKind::Bool));
                    }
                }
                PipeOp::Project(exprs) => {
                    if let Some(cols) = &mut cols {
                        for e in exprs {
                            self.expr(at, e, cols, "project", Some(ExprKind::Num));
                        }
                        if exprs.is_empty() {
                            // Nothing downstream could be in range of no
                            // columns: keep flowing the input's.
                            self.flag(at, DiagnosticKind::EmptyProject);
                        } else {
                            *cols = vec![DataType::F64; exprs.len()];
                        }
                    }
                    reshaped = true;
                }
                PipeOp::JoinProbe { ht, key_col, build_payload_cols, .. } => {
                    if let Some(cols) = &cols {
                        self.key(at, cols, (*key_col, "probe key"), is_join_key, |found| {
                            DiagnosticKind::ProbeKeyType {
                                ht: ht.clone(),
                                key_col: *key_col,
                                found,
                            }
                        });
                    }
                    let build = self.built.get(ht.as_str()).cloned();
                    if build.is_none() {
                        self.flag(at, DiagnosticKind::ProbeUnbuilt { ht: ht.clone() });
                    }
                    if let Some(cols) = &mut cols {
                        // The payloads of a build the walk knows nothing of
                        // flow as wide floats.
                        let build = build.flatten();
                        for &column in build_payload_cols {
                            let found = build.as_ref().map(|b| b.get(column).ok_or(b.len()));
                            if let Some(Err(build_width)) = found {
                                let ht = ht.clone();
                                let kind = DiagnosticKind::PayloadOutOfRange {
                                    ht,
                                    column,
                                    build_width,
                                };
                                self.flag(at, kind);
                            }
                            cols.push(
                                found.and_then(Result::ok).copied().unwrap_or(DataType::F64),
                            );
                        }
                    }
                    reshaped = true;
                }
                PipeOp::Stateful(agg) => {
                    // A stateful aggregate consumes the source's `(user,
                    // ts)` order and its user column doubles as the
                    // engine's packet-alignment column in source
                    // coordinates — so only filters (which drop rows but
                    // never reshape or reorder them) may precede it.
                    if reshaped {
                        self.flag(at, DiagnosticKind::StatefulAfterReshape);
                    }
                    if let Some(cols) = &mut cols {
                        let source_width = cols.len();
                        for (role, column, accepted, _) in stateful_inputs(agg) {
                            let kind = match cols.get(column) {
                                None => DiagnosticKind::StatefulAlignmentInvalid {
                                    role,
                                    user_col: column,
                                    source_width,
                                },
                                Some(found) if accepted.contains(found) => continue,
                                Some(&found) => {
                                    DiagnosticKind::StatefulColumnType { column, role, found }
                                }
                            };
                            self.flag(at, kind);
                        }
                        *cols = vec![DataType::I64; agg.out_width()];
                    }
                    reshaped = true;
                }
            }
        }
        cols
    }

    /// A key column — a probe's, a build's or a group-by's — in range of
    /// `cols` and of a type its contract `accepts`; `mistyped` names the
    /// finding for one that is not.
    fn key(
        &mut self,
        at: At,
        cols: &[DataType],
        (column, context): (usize, &'static str),
        accepts: fn(DataType) -> bool,
        mistyped: impl FnOnce(DataType) -> DiagnosticKind,
    ) {
        let width = cols.len();
        match cols.get(column) {
            None => self.flag(at, DiagnosticKind::ColumnOutOfRange { column, width, context }),
            Some(&found) if !accepts(found) => self.flag(at, mistyped(found)),
            Some(_) => {}
        }
    }

    /// One expression against the columns it reads: every reference in
    /// range, and — unless one was not — evaluating to `expected`.
    fn expr(
        &mut self,
        at: At,
        expr: &Expr,
        cols: &[DataType],
        context: &'static str,
        expected: Option<ExprKind>,
    ) {
        let width = cols.len();
        let mut in_range = true;
        for column in expr.columns_used().into_iter().filter(|&c| c >= width) {
            in_range = false;
            self.flag(at, DiagnosticKind::ColumnOutOfRange { column, width, context });
        }
        let (Some(expected), true) = (expected, in_range) else { return };
        let (expected, found) = match expr.kind() {
            Ok(found) if found == expected => return,
            Ok(found) => (expected, found),
            Err(KindMismatch { expected, found }) => (expected, found),
        };
        self.flag(at, DiagnosticKind::ExprKindMismatch { context, expected, found });
    }
}

/// Refuse with the walk's first finding, if there is one.
fn refuse(diagnostics: Vec<Diagnostic>) -> Result<(), PlanError> {
    diagnostics.into_iter().next().map_or(Ok(()), |d| Err(PlanError::Unbound(Box::new(d))))
}

/// Bind stage views to the catalog they will run against: [`bind`] with
/// the schemas to flow, refusing with its first finding.
pub(crate) fn bind_to<'a>(
    views: impl IntoIterator<Item = StageView<'a>>,
    catalog: &Catalog,
) -> Result<(), EngineError> {
    refuse(bind(views, Some(catalog))).map_err(EngineError::InvalidPlan)
}

/// A materialised build-side hash table (runtime object): the build rows,
/// and their keys laid out for the probe kernel ([`hape_join::probe`]) —
/// direct-addressed when the keys are dense, bucketed otherwise — on the
/// first probe. Pricing reads only the paper's chained layout as numbers:
/// each probe key's bucket length (its steps), [`JoinTable::bits`] and
/// [`JoinTable::bytes`], none of which lays the keys out; so a table only
/// the §5 join reads (its co-partitions build their own) is never laid out.
#[derive(Debug)]
pub struct JoinTable {
    /// The build rows.
    pub batch: Batch,
    /// Which column of `batch` is the key.
    pub key_col: usize,
    /// The key column laid out for the probe kernel, once probed.
    table: OnceLock<ProbeTable>,
}

impl JoinTable {
    /// Build from a batch and key column.
    pub fn build(batch: Batch, key_col: usize) -> Self {
        JoinTable { batch, key_col, table: OnceLock::new() }
    }

    /// The key column laid out for the probe kernel (on the first call).
    pub fn table(&self) -> &ProbeTable {
        self.table.get_or_init(|| ProbeTable::build(self.batch.col(self.key_col).as_i32()))
    }

    /// Number of build rows.
    pub fn rows(&self) -> usize {
        self.batch.rows()
    }

    /// log2 of the chained layout's bucket count.
    pub fn bits(&self) -> u32 {
        chained_bits(self.rows())
    }

    /// Working-set bytes of a probe: the chained layout plus the build
    /// rows.
    pub fn bytes(&self) -> u64 {
        chained_bytes(self.rows()) + self.batch.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlanError;
    use hape_ops::AggFunc;
    use hape_storage::Column;

    fn agg() -> AggSpec {
        AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])
    }

    #[test]
    fn builder_api_constructs_plan() {
        let plan = QueryPlan::try_new(
            "q",
            vec![
                Stage::Build { name: "d".into(), key_col: 0, pipeline: Pipeline::scan("dim") },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .filter(Expr::lt(Expr::col(0), Expr::LitI32(5)))
                        .join("d", 1, vec![1], JoinAlgo::Partitioned)
                        .aggregate(agg()),
                },
            ],
        )
        .unwrap();
        assert_eq!(plan.stages.len(), 2);
    }

    /// The kind of the finding `try_new` refuses `stages` with.
    fn refusal(stages: Vec<Stage>) -> DiagnosticKind {
        match QueryPlan::try_new("bad", stages) {
            Err(PlanError::Unbound(d)) => d.kind,
            other => panic!("expected Unbound, got {other:?}"),
        }
    }

    #[test]
    fn probing_unbuilt_table_rejected() {
        let pipeline = Pipeline::scan("fact")
            .join("ghost", 0, vec![], JoinAlgo::NonPartitioned)
            .aggregate(agg());
        let kind = refusal(vec![Stage::Stream { pipeline }]);
        assert_eq!(kind, DiagnosticKind::ProbeUnbuilt { ht: "ghost".into() });
    }

    #[test]
    fn stream_without_agg_rejected() {
        let kind = refusal(vec![Stage::Stream { pipeline: Pipeline::scan("t") }]);
        assert_eq!(kind, DiagnosticKind::StreamMissingAgg);
    }

    #[test]
    fn build_with_agg_rejected() {
        let kind = refusal(vec![
            Stage::Build {
                name: "d".into(),
                key_col: 0,
                pipeline: Pipeline::scan("dim").aggregate(agg()),
            },
            Stage::Stream { pipeline: Pipeline::scan("fact").aggregate(agg()) },
        ]);
        assert_eq!(kind, DiagnosticKind::BuildAggregates { name: "d".into() });
    }

    #[test]
    fn multiple_streams_rejected() {
        let kind = refusal(vec![
            Stage::Stream { pipeline: Pipeline::scan("a").aggregate(agg()) },
            Stage::Stream { pipeline: Pipeline::scan("b").aggregate(agg()) },
        ]);
        assert_eq!(kind, DiagnosticKind::NotExactlyOneStream { streams: 2 });
    }

    #[test]
    fn last_probe_finds_the_final_join() {
        let p = Pipeline::scan("fact")
            .filter(Expr::lt(Expr::col(0), Expr::LitI32(5)))
            .join("a", 0, vec![], JoinAlgo::NonPartitioned)
            .join("b", 0, vec![], JoinAlgo::NonPartitioned);
        assert_eq!(p.last_probe(), Some((2, "b")));
        assert_eq!(Pipeline::scan("t").last_probe(), None);
        let p = p.aggregate(agg());
        let (prefix, probe, rest) = p.split_at_last_probe().unwrap();
        assert_eq!(format!("{:?}", prefix.ops), format!("{:?}", &p.ops[..2]));
        assert!(prefix.agg.is_none());
        assert_eq!(probe, ("b", 0, &[][..]));
        assert!(rest.ops.is_empty() && rest.agg.is_some());
        assert!(Pipeline::scan("t").split_at_last_probe().is_none());
    }

    #[test]
    fn stateful_only_after_filters() {
        use hape_ops::StatefulAgg;
        let sess = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 100 };
        let ok = QueryPlan::try_new(
            "b",
            vec![Stage::Stream {
                pipeline: Pipeline::scan("ev")
                    .filter(Expr::lt(Expr::col(1), Expr::LitI32(50)))
                    .stateful(sess.clone())
                    .aggregate(agg()),
            }],
        )
        .unwrap();
        let Stage::Stream { pipeline } = &ok.stages[0] else { unreachable!() };
        assert_eq!(pipeline.stateful_agg(), Some(&sess));

        let kind = refusal(vec![Stage::Stream {
            pipeline: Pipeline::scan("ev")
                .project(vec![Expr::col(0)])
                .stateful(sess)
                .aggregate(agg()),
        }]);
        assert_eq!(kind, DiagnosticKind::StatefulAfterReshape);
    }

    #[test]
    fn join_table_probe() {
        let batch = Batch::new(vec![
            Column::from_i32(vec![10, 20, 10]),
            Column::from_f64(vec![1.0, 2.0, 3.0]),
        ]);
        let jt = JoinTable::build(batch, 0);
        let (mut probe_rows, mut hits) = (Vec::new(), Vec::new());
        jt.table().probe(&[10], &mut probe_rows, &mut hits, |_| {});
        assert_eq!(hits, vec![2, 0], "chain order: descending build rows");
        assert_eq!(jt.rows(), 3);
        assert!(jt.bytes() > 0);
    }
}
