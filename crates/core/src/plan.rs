//! Physical query plans: pipelines of fused operators.
//!
//! A [`QueryPlan`] is a sequence of [`Stage`]s separated by pipeline
//! breakers, exactly as a JIT engine splits a physical plan (§3): `Build`
//! stages materialise join hash tables; the final `Stream` stage folds
//! packets into aggregation states. Within a stage, the [`PipeOp`]s are
//! *fused* — a packet makes one trip through the device provider's compiled
//! code with no intermediate materialisation points.

use hape_join::common::{ChainedTable, NIL};
use hape_ops::{AggSpec, Expr, StatefulAgg};
use hape_storage::{Batch, DataType, Schema};

use crate::error::PlanError;

/// Join algorithm choice for a GPU-side probe (the Figure 9 toggle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Hardware-oblivious: random probes into a device-memory hash table.
    NonPartitioned,
    /// Hardware-conscious: radix co-partitioning, scratchpad-resident
    /// per-partition tables (§4.1).
    Partitioned,
}

/// How a stage executes its hash-table probes — the execution-mode
/// vocabulary the cost-based optimizer chooses from and the placement
/// layer renders. This is what turns the §5 co-processing join from a
/// hand-written escape hatch into plan vocabulary: when a probed table
/// exceeds every GPU's memory, the optimizer may flip the stage from
/// [`ProbeExec::Broadcast`] to [`ProbeExec::CoProcess`] instead of
/// silently degrading to CPU-only execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeExec {
    /// Broadcast every probed table into each executing device's local
    /// memory ahead of the stream (the default; requires the tables to
    /// fit the device, §6.4).
    Broadcast,
    /// Intra-operator co-processing of the stage's *final* probe (§5):
    /// the CPUs run the pipeline prefix, then co-partition the stream
    /// against the named oversized table with a fanout just large enough
    /// that each co-partition pair fits GPU memory; every pair makes a
    /// single pass over PCIe and joins on a GPU with the
    /// hardware-conscious radix join.
    CoProcess {
        /// The oversized probed hash table.
        ht: String,
    },
}

impl std::fmt::Display for ProbeExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeExec::Broadcast => write!(f, "broadcast"),
            ProbeExec::CoProcess { ht } => write!(f, "co-process {ht:?}"),
        }
    }
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

    /// Names of the hash tables this pipeline probes.
    pub fn tables_probed(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                PipeOp::JoinProbe { ht, .. } => Some(ht.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The pipeline's final hash-table probe, as `(op index, table name)` —
    /// the probe a [`ProbeExec::CoProcess`] stage executes as the §5
    /// co-processing join (the preceding operators form the CPU-side
    /// prefix).
    pub fn last_probe(&self) -> Option<(usize, &str)> {
        self.ops.iter().enumerate().rev().find_map(|(i, op)| match op {
            PipeOp::JoinProbe { ht, .. } => Some((i, ht.as_str())),
            _ => None,
        })
    }

    /// The pipeline's stateful aggregate, if any. Because
    /// [`QueryPlan::validate`] guarantees only filters precede it, its
    /// column indices are in *source*-table coordinates — the engine
    /// aligns packet boundaries on its user column there, once
    /// `check_stateful_inputs` has passed.
    pub fn stateful_agg(&self) -> Option<&StatefulAgg> {
        self.ops.iter().find_map(|op| match op {
            PipeOp::Stateful(agg) => Some(agg),
            _ => None,
        })
    }

    /// Check the stateful aggregate's input columns (if the pipeline has
    /// one) against the schema of the table it scans. Lowering type-checks
    /// named columns, but a hand-built plan carries raw indices, and in
    /// release builds nothing else looks at them before the packet split
    /// and the kernels index the columns unchecked.
    pub(crate) fn check_stateful_inputs(&self, source: &Schema) -> Result<(), PlanError> {
        for (role, column, accepted) in
            self.stateful_agg().into_iter().flat_map(stateful_inputs)
        {
            let found = source.fields.get(column).map(|f| f.dtype);
            if !found.is_some_and(|dtype| accepted.contains(&dtype)) {
                return Err(PlanError::StatefulColumn {
                    table: self.source.clone(),
                    role,
                    column,
                    found,
                });
            }
        }
        Ok(())
    }
}

/// A stateful aggregate's input columns as `(role, column index, logical
/// types the role accepts)` — the one statement of the operator's input
/// contract: [`crate::verify`] checks it statically, the engine
/// ([`Pipeline::check_stateful_inputs`]) before it cuts a source into
/// packets.
pub(crate) fn stateful_inputs(
    agg: &StatefulAgg,
) -> impl Iterator<Item = (&'static str, usize, &'static [DataType])> {
    const USER: &[DataType] = &[DataType::I32, DataType::I64];
    const TS: &[DataType] = &[DataType::I32, DataType::I64, DataType::Date];
    const EVENT: &[DataType] = &[DataType::Str];
    [
        ("user", Some(agg.user_col()), USER),
        ("ts", Some(agg.ts_col()), TS),
        ("event", agg.event_col(), EVENT),
    ]
    .into_iter()
    .filter_map(|(role, column, accepted)| Some((role, column?, accepted)))
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
    /// Create a named plan, validating its stage structure: builds must not
    /// aggregate, the (single) stream stage must, and every probe must
    /// reference an earlier build.
    pub fn try_new(name: impl Into<String>, stages: Vec<Stage>) -> Result<Self, PlanError> {
        let plan = QueryPlan { name: name.into(), stages };
        plan.validate()?;
        Ok(plan)
    }

    /// Check the stage structure of an already-assembled plan.
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut built: Vec<&str> = Vec::new();
        let mut streams = 0;
        for s in &self.stages {
            match s {
                Stage::Build { name, pipeline, .. } => {
                    if pipeline.agg.is_some() {
                        return Err(PlanError::BuildWithAggregate { stage: name.clone() });
                    }
                    self.check_stateful_position(pipeline)?;
                    for t in pipeline.tables_probed() {
                        if !built.contains(&t) {
                            return Err(PlanError::ProbeBeforeBuild { table: t.to_string() });
                        }
                    }
                    built.push(name);
                }
                Stage::Stream { pipeline } => {
                    if pipeline.agg.is_none() {
                        return Err(PlanError::StreamWithoutAggregate {
                            name: self.name.clone(),
                        });
                    }
                    self.check_stateful_position(pipeline)?;
                    for t in pipeline.tables_probed() {
                        if !built.contains(&t) {
                            return Err(PlanError::ProbeBeforeBuild { table: t.to_string() });
                        }
                    }
                    streams += 1;
                }
            }
        }
        if streams != 1 {
            return Err(PlanError::NotExactlyOneStream { plan: self.name.clone(), streams });
        }
        Ok(())
    }

    /// A stateful aggregate consumes the source's `(user, ts)` order and
    /// its user column doubles as the engine's packet-alignment column in
    /// source coordinates — so only filters (which drop rows but never
    /// reshape or reorder them) may precede it.
    fn check_stateful_position(&self, pipeline: &Pipeline) -> Result<(), PlanError> {
        let mut reshaped = false;
        for op in &pipeline.ops {
            match op {
                PipeOp::Filter(_) => {}
                PipeOp::Stateful(_) => {
                    if reshaped {
                        return Err(PlanError::StatefulAfterReshape {
                            name: self.name.clone(),
                        });
                    }
                    reshaped = true;
                }
                PipeOp::Project(_) | PipeOp::JoinProbe { .. } => reshaped = true,
            }
        }
        Ok(())
    }
}

/// A materialised build-side hash table (runtime object).
#[derive(Debug)]
pub struct JoinTable {
    /// The build rows.
    pub batch: Batch,
    /// The chained hash table over the key column.
    pub table: ChainedTable,
    /// Which column of `batch` is the key.
    pub key_col: usize,
    /// Cached keys (decoded once).
    pub keys: Vec<i32>,
}

impl JoinTable {
    /// Build from a batch and key column.
    pub fn build(batch: Batch, key_col: usize) -> Self {
        let keys: Vec<i32> = batch.col(key_col).as_i32().to_vec();
        let table = ChainedTable::build(&keys);
        JoinTable { batch, table, key_col, keys }
    }

    /// Number of build rows.
    pub fn rows(&self) -> usize {
        self.keys.len()
    }

    /// Working-set bytes of a probe (table + build rows touched).
    pub fn bytes(&self) -> u64 {
        self.table.bytes() + self.batch.bytes()
    }

    /// Probe one key; `on_match(build_row)` per hit; returns chain steps.
    #[inline]
    pub fn probe(&self, key: i32, mut on_match: impl FnMut(u32)) -> u32 {
        let mut steps = 0;
        let mut e = self.table.heads[hape_join::hash32(key, self.table.bits) as usize];
        while e != NIL {
            steps += 1;
            if self.keys[e as usize] == key {
                on_match(e);
            }
            e = self.table.next[e as usize];
        }
        steps
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

    #[test]
    fn probing_unbuilt_table_rejected() {
        let err = QueryPlan::try_new(
            "bad",
            vec![Stage::Stream {
                pipeline: Pipeline::scan("fact")
                    .join("ghost", 0, vec![], JoinAlgo::NonPartitioned)
                    .aggregate(agg()),
            }],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::ProbeBeforeBuild { table: "ghost".into() });
    }

    #[test]
    fn stream_without_agg_rejected() {
        let err =
            QueryPlan::try_new("bad", vec![Stage::Stream { pipeline: Pipeline::scan("t") }])
                .unwrap_err();
        assert_eq!(err, PlanError::StreamWithoutAggregate { name: "bad".into() });
    }

    #[test]
    fn build_with_agg_rejected() {
        let err = QueryPlan::try_new(
            "bad",
            vec![
                Stage::Build {
                    name: "d".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim").aggregate(agg()),
                },
                Stage::Stream { pipeline: Pipeline::scan("fact").aggregate(agg()) },
            ],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::BuildWithAggregate { stage: "d".into() });
    }

    #[test]
    fn multiple_streams_rejected() {
        let err = QueryPlan::try_new(
            "bad",
            vec![
                Stage::Stream { pipeline: Pipeline::scan("a").aggregate(agg()) },
                Stage::Stream { pipeline: Pipeline::scan("b").aggregate(agg()) },
            ],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::NotExactlyOneStream { plan: "bad".into(), streams: 2 });
    }

    #[test]
    fn last_probe_finds_the_final_join_and_probe_exec_displays() {
        let p = Pipeline::scan("fact")
            .filter(Expr::lt(Expr::col(0), Expr::LitI32(5)))
            .join("a", 0, vec![], JoinAlgo::NonPartitioned)
            .join("b", 0, vec![], JoinAlgo::NonPartitioned);
        assert_eq!(p.last_probe(), Some((2, "b")));
        assert_eq!(Pipeline::scan("t").last_probe(), None);
        assert_eq!(ProbeExec::Broadcast.to_string(), "broadcast");
        assert_eq!(ProbeExec::CoProcess { ht: "b".into() }.to_string(), "co-process \"b\"");
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

        let err = QueryPlan::try_new(
            "bad",
            vec![Stage::Stream {
                pipeline: Pipeline::scan("ev")
                    .project(vec![Expr::col(0)])
                    .stateful(sess)
                    .aggregate(agg()),
            }],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::StatefulAfterReshape { name: "bad".into() });
    }

    #[test]
    fn join_table_probe() {
        let batch = Batch::new(vec![
            Column::from_i32(vec![10, 20, 10]),
            Column::from_f64(vec![1.0, 2.0, 3.0]),
        ]);
        let jt = JoinTable::build(batch, 0);
        let mut hits = Vec::new();
        jt.probe(10, |e| hits.push(e));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2]);
        assert_eq!(jt.rows(), 3);
        assert!(jt.bytes() > 0);
    }
}
