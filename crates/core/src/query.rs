//! The logical query builder: named columns, fallible lowering.
//!
//! A [`Query`] is a DataFrame-style description of a query — scans,
//! filters, mid-chain computed projections ([`Query::select`]), joins
//! (whose build sides are themselves `Query`s) and a terminal
//! group-by/aggregate — written entirely against *column names*:
//!
//! ```
//! use hape_core::query::Query;
//! use hape_ops::{col, lit, AggFunc};
//! use hape_core::JoinAlgo;
//!
//! let dims = Query::scan("dim");
//! let q = Query::scan("fact")
//!     .join(dims, "d_id", "id", JoinAlgo::Partitioned)
//!     .filter(col("amount").gt(lit(10.0)))
//!     .agg(vec![(AggFunc::Sum, col("amount"))]);
//! # let _ = q;
//! ```
//!
//! [`Query::lower`] resolves every name against the catalog's table
//! schemas and produces the engine's physical [`QueryPlan`] — the lowered
//! IR of build [`Stage`]s and a fused stream [`Pipeline`] with positional
//! column indices. Lowering performs **automatic projection pushdown**:
//! each scan reads exactly the columns the query references (registered as
//! zero-copy projected views in the returned derived catalog), and each
//! join carries exactly the build-side columns referenced downstream, so
//! scan and transfer costs are charged on exactly the touched bytes — what
//! the per-query hand-maintained projections used to do manually.
//!
//! Lowering a chain is a scan with its pushed-down projection, then one
//! `Lowering` method per logical operator (`lower_filter`, `lower_select`,
//! `lower_join`, `lower_stateful`) and one for the terminal aggregation.
//! They share one column resolver and one kind check (`Scope::resolve`,
//! `Scope::typed`), so a name or a type is refused the same way wherever
//! it appears. Every join's build side goes through `Lowering::build_side`,
//! which holds the memo of structurally identical build sides.
//!
//! Everything is fallible: unknown tables and columns and type mismatches
//! surface as [`PlanError`]s by name; what the binding walk owns — an
//! aggregating build side, an aggregate-less stream, a too-wide group-by —
//! as the [`PlanError::Unbound`] finding of [`QueryPlan::try_new`], which
//! closes every lowering.
#![deny(clippy::too_many_lines)]

use std::collections::{BTreeSet, HashMap, HashSet};
use std::convert::Infallible;

use hape_ops::{AggFunc, AggSpec, ColumnResolver, Expr, NamedExpr, ResolveError, StatefulAgg};
use hape_storage::{DataType, Table};

use crate::catalog::Catalog;
use crate::error::PlanError;
use crate::plan::{JoinAlgo, PipeOp, Pipeline, QueryPlan, Stage};

/// A logical relational query over named columns.
#[derive(Debug, Clone)]
pub struct Query {
    /// Display name; also prefixes the lowered plan's scan/hash-table
    /// aliases.
    pub name: String,
    source: Option<String>,
    ops: Vec<LogicalOp>,
    group_by: Vec<String>,
    aggs: Vec<(AggFunc, NamedExpr)>,
}

#[derive(Debug, Clone)]
enum LogicalOp {
    Filter(NamedExpr),
    Select(Vec<(String, NamedExpr)>),
    Join(JoinSpec),
    Stateful(StatefulSpec),
}

impl LogicalOp {
    /// The column names this operator reads (a join's build side is a
    /// chain of its own).
    fn reads(&self) -> Vec<String> {
        match self {
            LogicalOp::Filter(e) => e.columns_used(),
            LogicalOp::Select(items) => {
                items.iter().flat_map(|(_, e)| e.columns_used()).collect()
            }
            LogicalOp::Join(j) => vec![j.probe_key.clone()],
            LogicalOp::Stateful(s) => s.input_names(),
        }
    }
}

#[derive(Debug, Clone)]
struct JoinSpec {
    build: Query,
    probe_key: String,
    build_key: String,
    algo: JoinAlgo,
}

/// A named-column order-sensitive per-user aggregate (the logical face of
/// [`crate::plan::PipeOp::Stateful`]). Event names are plain strings here;
/// lowering resolves them against the event column's dictionary.
#[derive(Debug, Clone)]
struct StatefulSpec {
    user: String,
    ts: String,
    kind: StatefulKind,
}

#[derive(Debug, Clone)]
enum StatefulKind {
    Sessionize { gap: i64 },
    WindowFunnel { event: String, steps: Vec<String>, window: i64 },
    Retention { event: String, cohort: String, returns: Vec<String>, period: i64 },
    SequenceMatch { event: String, pattern: Vec<String> },
}

impl StatefulSpec {
    /// Input column names the aggregate consumes.
    fn input_names(&self) -> Vec<String> {
        let mut names = vec![self.user.clone(), self.ts.clone()];
        match &self.kind {
            StatefulKind::Sessionize { .. } => {}
            StatefulKind::WindowFunnel { event, .. }
            | StatefulKind::Retention { event, .. }
            | StatefulKind::SequenceMatch { event, .. } => names.push(event.clone()),
        }
        names
    }

    /// The physical aggregate: `col` resolves a column name to its index
    /// (user, timestamp, then event), `code` an event name to its code in
    /// the named event column's dictionary.
    fn agg<E>(
        &self,
        mut col: impl FnMut(&str) -> Result<usize, E>,
        code: impl Fn(&str, &str) -> i32,
    ) -> Result<StatefulAgg, E> {
        let (user_col, ts_col) = (col(&self.user)?, col(&self.ts)?);
        let codes = |event: &str, names: &[String]| -> Vec<i32> {
            names.iter().map(|n| code(event, n)).collect()
        };
        Ok(match &self.kind {
            StatefulKind::Sessionize { gap } => {
                StatefulAgg::Sessionize { user_col, ts_col, gap: *gap }
            }
            StatefulKind::WindowFunnel { event, steps, window } => StatefulAgg::WindowFunnel {
                user_col,
                ts_col,
                event_col: col(event)?,
                steps: codes(event, steps),
                window: *window,
            },
            StatefulKind::Retention { event, cohort, returns, period } => {
                StatefulAgg::Retention {
                    user_col,
                    ts_col,
                    event_col: col(event)?,
                    cohort_event: code(event, cohort),
                    return_events: codes(event, returns),
                    period: *period,
                }
            }
            StatefulKind::SequenceMatch { event, pattern } => StatefulAgg::SequenceMatch {
                user_col,
                ts_col,
                event_col: col(event)?,
                pattern: codes(event, pattern),
            },
        })
    }

    /// Output column names: the user column, then the aggregate's own
    /// ([`StatefulAgg::out_names`]).
    fn output_names(&self) -> Vec<String> {
        let Ok(agg) = self.agg::<Infallible>(|_| Ok(0), |_, _| -1);
        std::iter::once(self.user.clone()).chain(agg.out_names()).collect()
    }
}

impl Query {
    /// An empty named query; call [`Query::scan`] to give it a source.
    pub fn new(name: impl Into<String>) -> Self {
        Query {
            name: name.into(),
            source: None,
            ops: Vec::new(),
            group_by: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// A query scanning `table`, named after it — the usual way to start a
    /// join build side.
    pub fn scan(table: impl Into<String>) -> Self {
        let table = table.into();
        let mut q = Query::new(table.clone());
        q.source = Some(table);
        q
    }

    /// Set (or replace) the scanned source table.
    pub fn from_table(mut self, table: impl Into<String>) -> Self {
        self.source = Some(table.into());
        self
    }

    /// Keep rows satisfying `predicate` (a boolean [`NamedExpr`]).
    pub fn filter(mut self, predicate: NamedExpr) -> Self {
        self.ops.push(LogicalOp::Filter(predicate));
        self
    }

    /// Mid-chain computed projection: **replace** the visible columns with
    /// the given `(name, expression)` outputs — the logical face of
    /// [`crate::plan::PipeOp::Project`].
    ///
    /// All expressions must be numeric (outputs are `f64`-typed), so a
    /// select output cannot be used as a later join key or group-by
    /// column — lowering rejects both with typed [`PlanError`]s. Columns
    /// not re-selected stop being visible downstream; anything the rest of
    /// the chain needs must ride through the select explicitly (e.g.
    /// `("l_quantity", col("l_quantity"))`).
    pub fn select<S: Into<String>>(mut self, exprs: Vec<(S, NamedExpr)>) -> Self {
        self.ops
            .push(LogicalOp::Select(exprs.into_iter().map(|(n, e)| (n.into(), e)).collect()));
        self
    }

    /// Join against `build` (a non-aggregating sub-query): rows where this
    /// query's `probe_key` column equals the build side's `build_key`
    /// column. Build-side columns referenced downstream are carried along
    /// automatically.
    ///
    /// Name resolution: a name visible on the probe side binds there. A
    /// name it lacks rides the build side of the *latest* join, before the
    /// name's first use, that can provide it: when two build sides provide
    /// one name, the later carries it unless an operator between the two
    /// joins reads it (Q5's `n_name` rides the supplier build, not the
    /// orders → customer → nation chain). Joins whose sides share column
    /// names therefore resolve to the probe side's column rather than
    /// erroring.
    pub fn join(
        mut self,
        build: Query,
        probe_key: impl Into<String>,
        build_key: impl Into<String>,
        algo: JoinAlgo,
    ) -> Self {
        self.ops.push(LogicalOp::Join(JoinSpec {
            build,
            probe_key: probe_key.into(),
            build_key: build_key.into(),
            algo,
        }));
        self
    }

    /// Sessionize: per user, count sessions (maximal runs of events whose
    /// consecutive timestamps gap by at most `gap`) and total events.
    /// Emits one row per user with columns `{user}`, `sessions`, `events`.
    ///
    /// Like every stateful aggregate, it requires the scanned table sorted
    /// by `(user, ts)` and must appear before any select or join (only
    /// filters may precede it) — lowering enforces both structurally.
    pub fn sessionize(
        mut self,
        user: impl Into<String>,
        ts: impl Into<String>,
        gap: i64,
    ) -> Self {
        self.ops.push(LogicalOp::Stateful(StatefulSpec {
            user: user.into(),
            ts: ts.into(),
            kind: StatefulKind::Sessionize { gap },
        }));
        self
    }

    /// Window funnel: per user, the deepest prefix of `steps` (event names,
    /// matched against the `event` column's dictionary) completed in order
    /// within `window` of the chain's start. Emits `{user}`, `funnel_depth`.
    pub fn window_funnel(
        mut self,
        user: impl Into<String>,
        ts: impl Into<String>,
        event: impl Into<String>,
        steps: &[&str],
        window: i64,
    ) -> Self {
        self.ops.push(LogicalOp::Stateful(StatefulSpec {
            user: user.into(),
            ts: ts.into(),
            kind: StatefulKind::WindowFunnel {
                event: event.into(),
                steps: steps.iter().map(|s| s.to_string()).collect(),
                window: window.max(0),
            },
        }));
        self
    }

    /// Retention: per user, whether they emitted `cohort` at all, and — for
    /// each of the `returns` events — whether that event recurs in the
    /// i-th `period` after the cohort event. Emits `{user}`, `in_cohort`,
    /// `ret1`..`ret{k}`.
    pub fn retention(
        mut self,
        user: impl Into<String>,
        ts: impl Into<String>,
        event: impl Into<String>,
        cohort: impl Into<String>,
        returns: &[&str],
        period: i64,
    ) -> Self {
        self.ops.push(LogicalOp::Stateful(StatefulSpec {
            user: user.into(),
            ts: ts.into(),
            kind: StatefulKind::Retention {
                event: event.into(),
                cohort: cohort.into(),
                returns: returns.iter().map(|s| s.to_string()).collect(),
                period,
            },
        }));
        self
    }

    /// Sequence match: per user, whether the event names in `pattern`
    /// occur as an ordered (not necessarily adjacent) subsequence. Emits
    /// `{user}`, `matched`.
    pub fn sequence_match(
        mut self,
        user: impl Into<String>,
        ts: impl Into<String>,
        event: impl Into<String>,
        pattern: &[&str],
    ) -> Self {
        self.ops.push(LogicalOp::Stateful(StatefulSpec {
            user: user.into(),
            ts: ts.into(),
            kind: StatefulKind::SequenceMatch {
                event: event.into(),
                pattern: pattern.iter().map(|s| s.to_string()).collect(),
            },
        }));
        self
    }

    /// Group the terminal aggregation by these columns.
    pub fn group_by(mut self, columns: &[&str]) -> Self {
        self.group_by = columns.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Terminate with `(function, argument)` aggregates. A query needs
    /// this (or it is only usable as a join build side).
    pub fn agg(mut self, aggs: Vec<(AggFunc, NamedExpr)>) -> Self {
        self.aggs = aggs;
        self
    }

    /// True when the query ends in an aggregation.
    pub fn aggregates(&self) -> bool {
        !self.aggs.is_empty()
    }

    /// Lower into the physical IR: build stages, a stream stage, and a
    /// derived catalog holding the pushed-down scan projections.
    ///
    /// Structurally identical join build sides (same scan, operators and
    /// build key — e.g. Q5's ASIA-nations chain, referenced by both the
    /// customer and the supplier sub-queries) are lowered and built
    /// **once**: a first pass collects, per shared structure, the union of
    /// the payload columns its probe sites need; the second pass memoises
    /// on the structural key, so later sites probe the first site's hash
    /// table instead of emitting a duplicate build stage.
    pub fn lower(&self, catalog: &Catalog) -> Result<LoweredQuery, PlanError> {
        // The first pass keeps only the export unions; it is cheap
        // (lowering touches no data) and keeps the payload derivation in
        // one place.
        let mut collect = Lowering::new(catalog, true);
        collect.lower_chain(self, &self.name, &[])?;
        let mut ctx =
            Lowering { export_unions: collect.export_unions, ..Lowering::new(catalog, false) };
        let (pipeline, _) = ctx.lower_chain(self, &self.name, &[])?;
        let mut stages = ctx.stages;
        stages.push(Stage::Stream { pipeline });
        let plan = QueryPlan::try_new(self.name.clone(), stages)?;
        Ok(LoweredQuery { plan, catalog: ctx.derived, build_fingerprints: ctx.fingerprints })
    }

    /// Column names this chain could export: its source table's schema
    /// plus, recursively, everything its build sides could provide — with
    /// a `select` resetting visibility to exactly its outputs.
    fn available_names(&self, catalog: &Catalog) -> Result<Vec<String>, PlanError> {
        let source = self.source()?;
        let table = lookup(catalog, source)?;
        let mut names: Vec<String> =
            table.schema.fields.iter().map(|f| f.name.clone()).collect();
        for op in &self.ops {
            match op {
                LogicalOp::Join(j) => names.extend(j.build.available_names(catalog)?),
                LogicalOp::Select(items) => {
                    names = items.iter().map(|(n, _)| n.clone()).collect();
                }
                LogicalOp::Stateful(s) => names = s.output_names(),
                LogicalOp::Filter(_) => {}
            }
        }
        Ok(names)
    }

    /// Every name this chain reads from operator `from` on (not its
    /// sub-chains), each with the index of the operator reading it:
    /// `ops.len()` for the terminal aggregation and for `export`, the
    /// names the chain's consumer reads.
    fn reads_from<'s>(
        &'s self,
        from: usize,
        export: &'s [String],
    ) -> impl Iterator<Item = (String, usize)> + 's {
        let end = self.ops.len();
        let ops = self.ops.iter().enumerate().skip(from);
        let args = self.aggs.iter().flat_map(|(_, e)| e.columns_used());
        let tail = self.group_by.iter().cloned().chain(args).chain(export.iter().cloned());
        ops.flat_map(|(i, op)| op.reads().into_iter().map(move |n| (n, i)))
            .chain(tail.map(move |n| (n, end)))
    }

    fn source(&self) -> Result<&str, PlanError> {
        self.source
            .as_deref()
            .ok_or_else(|| PlanError::MissingScan { query: self.name.clone() })
    }

    /// Append a canonical structural description — source, operators,
    /// keys, everything that determines the lowered pipeline, but *not*
    /// the display name — to `out`. Two sub-queries with equal keys lower
    /// identically given equal exports, which is what the build-side memo
    /// in [`Query::lower`] relies on.
    fn structural_key(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "scan({:?})", self.source);
        for op in &self.ops {
            match op {
                LogicalOp::Filter(e) => {
                    let _ = write!(out, "|filter({e:?})");
                }
                LogicalOp::Select(items) => {
                    let _ = write!(out, "|select(");
                    for (n, e) in items {
                        let _ = write!(out, "{n}={e:?};");
                    }
                    let _ = write!(out, ")");
                }
                LogicalOp::Join(j) => {
                    let _ = write!(out, "|join[{}={},{:?}](", j.probe_key, j.build_key, j.algo);
                    j.build.structural_key(out);
                    let _ = write!(out, ")");
                }
                LogicalOp::Stateful(s) => {
                    let _ = write!(out, "|stateful({s:?})");
                }
            }
        }
        // Build sides never aggregate (validated during lowering), but a
        // complete key costs nothing.
        let _ = write!(out, "|group{:?}|aggs{:?}", self.group_by, self.aggs);
    }
}

/// A lowered executable query: the physical plan plus the derived catalog
/// holding its pushed-down scan projections (zero-copy views over the base
/// tables).
#[derive(Debug, Clone)]
pub struct LoweredQuery {
    /// The physical plan (the lowered IR — still public for benchmarks and
    /// the baseline systems, which execute it under their own cost models).
    pub plan: QueryPlan,
    /// Base catalog plus the projected scan views the plan references.
    pub catalog: Catalog,
    /// Per-build-stage structural fingerprints, keyed by hash-table name.
    /// The fingerprint canonicalises everything that determines the built
    /// table's contents and layout — the build chain's structural key, the
    /// build key, and the exported column layout — but *not* the query's
    /// display name (hash-table names embed it, so they cannot identify
    /// shared structure across queries). The serving layer's cross-query
    /// build cache keys on it: two queries whose build sides fingerprint
    /// equal build bit-identical hash tables from the same catalog.
    pub build_fingerprints: HashMap<String, String>,
}

/// One visible column during lowering: its name, type, and the base table
/// it originates from (for dictionary lookups).
#[derive(Debug, Clone)]
struct ColInfo {
    name: String,
    dtype: DataType,
    origin: String,
}

/// Expression result kinds for type checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Num,
    Bool,
    Str,
}

impl Kind {
    fn describe(self) -> &'static str {
        match self {
            Kind::Num => "numeric",
            Kind::Bool => "boolean",
            Kind::Str => "string",
        }
    }
}

fn lookup<'a>(catalog: &'a Catalog, table: &str) -> Result<&'a Table, PlanError> {
    catalog.get(table).ok_or_else(|| PlanError::UnknownTable { table: table.to_string() })
}

/// Name resolution scope over the columns visible at one pipeline point.
struct Scope<'a> {
    cols: &'a [ColInfo],
    catalog: &'a Catalog,
}

impl Scope<'_> {
    /// The position of visible column `name`; an unknown name is reported
    /// in `context`.
    fn resolve(&self, name: &str, context: &str) -> Result<usize, PlanError> {
        self.index_of(name).ok_or_else(|| PlanError::UnknownColumn {
            column: name.to_string(),
            context: context.to_string(),
        })
    }

    /// `e` over the visible columns, as the physical expression.
    fn expr(&self, e: &NamedExpr, context: &str) -> Result<Expr, PlanError> {
        e.resolve(self).map_err(|e| {
            let context = context.to_string();
            match e {
                ResolveError::UnknownColumn { column } => {
                    PlanError::UnknownColumn { column, context }
                }
                ResolveError::StringLiteralContext { literal }
                | ResolveError::StringLiteralType { literal, .. } => {
                    PlanError::StringComparedToNonString { literal, context }
                }
            }
        })
    }

    /// [`Scope::expr`] of an `e` whose kind must be `want`; `expected`
    /// names what the position requires when it is not.
    fn typed(
        &self,
        e: &NamedExpr,
        want: Kind,
        expected: &'static str,
        context: &str,
    ) -> Result<Expr, PlanError> {
        let kind = infer_kind(e, self.cols, context)?;
        if kind != want {
            return Err(PlanError::TypeMismatch {
                context: context.to_string(),
                expected,
                found: kind.describe().to_string(),
            });
        }
        self.expr(e, context)
    }
}

impl ColumnResolver for Scope<'_> {
    fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    fn str_code(&self, name: &str, value: &str) -> Result<i32, ResolveError> {
        let info = self
            .cols
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| ResolveError::UnknownColumn { column: name.to_string() })?;
        if info.dtype != DataType::Str {
            return Err(ResolveError::StringLiteralType {
                literal: value.to_string(),
                column: name.to_string(),
            });
        }
        // The origin table came out of this catalog during lowering, so
        // both lookups are infallible here.
        let code = self
            .catalog
            .get(&info.origin)
            .and_then(|t| t.column(name).dict().and_then(|d| d.code_of(value)));
        // Absent value: a sentinel no dictionary code equals (codes are
        // unsigned), so the comparison selects no rows — SQL semantics.
        Ok(code.map_or(-1, |c| c as i32))
    }
}

/// The key identifying a shareable build side: its structural description
/// plus the key column the hash table is built over.
type BuildKey = (String, String);

/// An emitted build side: its hash table, its output layout (what probe
/// sites address payloads against) and the key column it is built over.
#[derive(Clone)]
struct Built {
    ht: String,
    cols: Vec<ColInfo>,
    key_col: usize,
}

/// One chain being lowered: its query, scanned base table, hash-table name
/// root and exports (see [`Lowering::lower_chain`]), and the columns
/// visible at the current pipeline point.
struct Chain<'q> {
    q: &'q Query,
    source: &'q str,
    root: &'q str,
    export: &'q [String],
    cols: Vec<ColInfo>,
}

impl Chain<'_> {
    /// Replace the visible columns with computed outputs of one type. Their
    /// origin is only consulted for dictionary lookups, which the f64 and
    /// i64 outputs of selects and stateful aggregates never trigger.
    fn replace_cols(&mut self, names: impl IntoIterator<Item = String>, dtype: DataType) {
        let origin = self.source;
        self.cols = names
            .into_iter()
            .map(|name| ColInfo { name, dtype, origin: origin.to_string() })
            .collect();
    }
}

/// Shared lowering state: the derived catalog being assembled, the build
/// stages emitted so far, the alias/hash-table names already taken, and
/// the build-side memoisation (structural-hash cache) that lowers
/// structurally identical build sub-queries once.
struct Lowering<'a> {
    base: &'a Catalog,
    derived: Catalog,
    stages: Vec<Stage>,
    taken_tables: HashSet<String>,
    taken_hts: HashSet<String>,
    /// Union of the export columns every probe site of a shared build
    /// structure needs (collected by the first lowering pass), so the one
    /// shared hash table carries every payload any site pulls from it.
    export_unions: HashMap<BuildKey, BTreeSet<String>>,
    /// Builds already emitted this pass: later structurally identical
    /// sites reuse the hash table instead of emitting a duplicate stage.
    built: HashMap<BuildKey, Built>,
    /// Cross-query structural fingerprint per emitted hash table (see
    /// [`LoweredQuery::build_fingerprints`]).
    fingerprints: HashMap<String, String>,
    /// True during the collection pass (stages are discarded; only
    /// `export_unions` survives).
    collecting: bool,
}

impl<'a> Lowering<'a> {
    fn new(base: &'a Catalog, collecting: bool) -> Self {
        Lowering {
            base,
            derived: base.clone(),
            stages: Vec::new(),
            taken_tables: HashSet::new(),
            taken_hts: HashSet::new(),
            export_unions: HashMap::new(),
            built: HashMap::new(),
            fingerprints: HashMap::new(),
            collecting,
        }
    }

    fn scope<'s>(&'s self, cols: &'s [ColInfo]) -> Scope<'s> {
        Scope { cols, catalog: self.base }
    }

    /// Lower one linear chain (the stream chain or a build side).
    ///
    /// `export` names the columns the chain's output must retain for its
    /// consumer (payloads + join key for build sides; nothing for the
    /// stream chain). Emits any build stages the chain's joins need and
    /// returns the chain's pipeline plus its output column layout.
    fn lower_chain(
        &mut self,
        q: &Query,
        root: &str,
        export: &[String],
    ) -> Result<(Pipeline, Vec<ColInfo>), PlanError> {
        let source = q.source()?;
        let (scan, cols) = self.pushdown(q, source, root, export)?;
        let mut c = Chain { q, source, root, export, cols };
        let mut pipeline = Pipeline::scan(scan);
        for (at, op) in q.ops.iter().enumerate() {
            let op = match op {
                LogicalOp::Filter(pred) => self.lower_filter(&c, pred)?,
                LogicalOp::Select(items) => self.lower_select(&mut c, items)?,
                LogicalOp::Join(j) => self.lower_join(&mut c, at, j)?,
                LogicalOp::Stateful(s) => self.lower_stateful(&mut c, s)?,
            };
            pipeline.ops.push(op);
        }
        let context = format!("output of {}", q.name);
        for name in export {
            self.scope(&c.cols).resolve(name, &context)?;
        }
        if q.aggregates() {
            pipeline.agg = Some(self.lower_aggregate(&c)?);
        }
        Ok((pipeline, c.cols))
    }

    /// Projection pushdown: the chain's scan reads exactly the columns of
    /// `source` the chain (or its consumer) references — a zero-copy view
    /// registered under a fresh alias, unless that is every column.
    /// Returns the scanned table's name and its columns.
    fn pushdown(
        &mut self,
        q: &Query,
        source: &str,
        root: &str,
        export: &[String],
    ) -> Result<(String, Vec<ColInfo>), PlanError> {
        let table = lookup(self.base, source)?;
        let wanted: Vec<String> = q.reads_from(0, export).map(|(name, _)| name).collect();
        let cols: Vec<ColInfo> = table
            .schema
            .fields
            .iter()
            .filter(|f| wanted.contains(&f.name))
            .map(|f| ColInfo {
                name: f.name.clone(),
                dtype: f.dtype,
                origin: source.to_string(),
            })
            .collect();
        if cols.len() == table.schema.len() {
            return Ok((source.to_string(), cols));
        }
        let alias = claim(&mut self.taken_tables, &format!("{root}.{source}"), |name| {
            self.base.get(name).is_some()
        });
        let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
        let view = table.try_project(&names).map_err(|column| PlanError::UnknownColumn {
            column,
            context: format!("scan of {source}"),
        })?;
        self.derived.register_as(alias.clone(), view);
        Ok((alias, cols))
    }

    fn lower_filter(&self, c: &Chain, pred: &NamedExpr) -> Result<PipeOp, PlanError> {
        let context = format!("filter over {}", c.source);
        let pred =
            self.scope(&c.cols).typed(pred, Kind::Bool, "boolean predicate", &context)?;
        Ok(PipeOp::Filter(pred))
    }

    /// A select replaces the visible columns with its f64 outputs.
    fn lower_select(
        &self,
        c: &mut Chain,
        items: &[(String, NamedExpr)],
    ) -> Result<PipeOp, PlanError> {
        if items.is_empty() {
            return Err(PlanError::EmptySelect { query: c.q.name.clone() });
        }
        let context = format!("select over {}", c.source);
        let scope = self.scope(&c.cols);
        let exprs = items
            .iter()
            .map(|(_, e)| scope.typed(e, Kind::Num, "numeric projection expression", &context))
            .collect::<Result<_, _>>()?;
        c.replace_cols(items.iter().map(|(name, _)| name.clone()), DataType::F64);
        Ok(PipeOp::Project(exprs))
    }

    /// Join `at` of the chain: choose its payload, lower (or reuse) its
    /// build side and probe it; the payload columns join the visible ones.
    fn lower_join(
        &mut self,
        c: &mut Chain,
        at: usize,
        j: &JoinSpec,
    ) -> Result<PipeOp, PlanError> {
        let payload = self.payload(c, at, &j.build)?;
        let built = self.build_side(j, c.root, &payload)?;
        check_key_type(&built.cols[built.key_col], &j.build.name)?;
        let context = format!("probe side of join with {}", j.build.name);
        let key_col = self.scope(&c.cols).resolve(&j.probe_key, &context)?;
        check_key_type(&c.cols[key_col], c.source)?;
        // Payload indices into the build output, ascending so the probe
        // appends them in a stable physical order.
        let (build, context) =
            (self.scope(&built.cols), format!("build side {}", j.build.name));
        let mut build_payload_cols = payload
            .iter()
            .map(|n| build.resolve(n, &context))
            .collect::<Result<Vec<_>, _>>()?;
        build_payload_cols.sort_unstable();
        c.cols.extend(build_payload_cols.iter().map(|&b| built.cols[b].clone()));
        Ok(PipeOp::JoinProbe { ht: built.ht, key_col, build_payload_cols, algo: j.algo })
    }

    /// The names join `at` carries as payload: each name read after it
    /// that the probe side lacks and `build` provides — unless a later
    /// join, before the name's first read, provides it too. Payloads so
    /// ride the latest (cheapest) hash table that can carry them: Q5's
    /// `n_name` rides the small supplier build, not the whole orders →
    /// customer → nation chain. A later build side's names are listed on
    /// first need, once.
    fn payload(&self, c: &Chain, at: usize, build: &Query) -> Result<Vec<String>, PlanError> {
        let available = build.available_names(self.base)?;
        let mut provides: Vec<Option<Vec<String>>> = vec![None; c.q.ops.len()];
        let mut payload: Vec<String> = Vec::new();
        'candidates: for (name, first_use) in c.q.reads_from(at + 1, c.export) {
            if c.cols.iter().any(|col| col.name == name)
                || !available.contains(&name)
                || payload.contains(&name)
            {
                continue;
            }
            for (op, names) in c.q.ops[at + 1..first_use].iter().zip(&mut provides[at + 1..]) {
                if let LogicalOp::Join(later) = op {
                    let names = match names {
                        Some(names) => names,
                        None => names.insert(later.build.available_names(self.base)?),
                    };
                    if names.contains(&name) {
                        continue 'candidates;
                    }
                }
            }
            payload.push(name);
        }
        Ok(payload)
    }

    /// Lower `j`'s build side exporting `payload` and its key, and emit its
    /// build stage — or, outside the collection pass, reuse the build a
    /// structurally identical site already emitted (Q5's shared
    /// ASIA-nations chain builds once). The first site lowers with the
    /// union of every site's exports, so the one table carries all their
    /// payloads.
    fn build_side(
        &mut self,
        j: &JoinSpec,
        root: &str,
        payload: &[String],
    ) -> Result<Built, PlanError> {
        let mut export = payload.to_vec();
        if !export.contains(&j.build_key) {
            export.push(j.build_key.clone());
        }
        let mut structure = String::new();
        j.build.structural_key(&mut structure);
        let memo_key: BuildKey = (structure, j.build_key.clone());
        if self.collecting {
            self.export_unions
                .entry(memo_key.clone())
                .or_default()
                .extend(export.iter().cloned());
        } else if let Some(built) = self.built.get(&memo_key) {
            return Ok(built.clone());
        } else if let Some(union) = self.export_unions.get(&memo_key) {
            export = union.iter().cloned().collect();
        }
        let (pipeline, cols) = self.lower_chain(&j.build, root, &export)?;
        let context = format!("build side {}", j.build.name);
        let key_col = self.scope(&cols).resolve(&j.build_key, &context)?;
        let ht = claim(&mut self.taken_hts, &format!("{root}.{}", j.build.name), |_| false);
        self.stages.push(Stage::Build { name: ht.clone(), key_col, pipeline });
        let built = Built { ht, cols, key_col };
        if !self.collecting {
            self.fingerprints.insert(built.ht.clone(), fingerprint(&memo_key, &built.cols));
            self.built.insert(memo_key, built.clone());
        }
        Ok(built)
    }

    /// A stateful per-user aggregate replaces the visible columns with its
    /// output: one all-i64 row per user, user first.
    fn lower_stateful(&self, c: &mut Chain, s: &StatefulSpec) -> Result<PipeOp, PlanError> {
        let context = format!("stateful aggregate over {}", c.source);
        let scope = self.scope(&c.cols);
        // Event names resolve through the event column's dictionary. An
        // absent name — or any name, when the event column is not a string
        // column, which the contract check below refuses — is the -1
        // sentinel no code equals, so it matches no rows, as in filters.
        let agg = s.agg(
            |name| scope.resolve(name, &context),
            |event, value| scope.str_code(event, value).unwrap_or(-1),
        )?;
        // The operator's input contract, stated once in
        // `plan::stateful_inputs`.
        for (_, column, accepted, expected) in crate::plan::stateful_inputs(&agg) {
            let found = c.cols[column].dtype;
            if !accepted.contains(&found) {
                let found = format!("{found:?}");
                return Err(PlanError::TypeMismatch { context, expected, found });
            }
        }
        c.replace_cols(s.output_names(), DataType::I64);
        Ok(PipeOp::Stateful(agg))
    }

    /// The terminal aggregation over the chain's output. The group-by's
    /// arity is the binding walk's to judge (its invariant 13), when
    /// `QueryPlan::try_new` closes the lowering.
    fn lower_aggregate(&self, c: &Chain) -> Result<AggSpec, PlanError> {
        let scope = self.scope(&c.cols);
        let context = format!("group-by of {}", c.q.name);
        let mut group_by = Vec::with_capacity(c.q.group_by.len());
        for g in &c.q.group_by {
            let i = scope.resolve(g, &context)?;
            if !crate::plan::is_group_key(c.cols[i].dtype) {
                return Err(PlanError::TypeMismatch {
                    context,
                    expected: "integer, date or string group key",
                    found: "f64".to_string(),
                });
            }
            group_by.push(i);
        }
        let context = format!("aggregate of {}", c.q.name);
        let mut aggs = Vec::with_capacity(c.q.aggs.len());
        for (func, e) in &c.q.aggs {
            let arg = match func {
                AggFunc::Count => scope.expr(e, &context)?,
                _ => scope.typed(e, Kind::Num, "numeric aggregate argument", &context)?,
            };
            aggs.push((*func, arg));
        }
        Ok(AggSpec { group_by, aggs })
    }
}

/// Claim a name derived from `want` that `taken` does not hold and that
/// is not `reserved`: scan aliases must not shadow a base table; hash
/// tables live in the run's table store, a namespace of their own.
fn claim(taken: &mut HashSet<String>, want: &str, reserved: impl Fn(&str) -> bool) -> String {
    let mut name = want.to_string();
    let mut n = 1;
    while taken.contains(&name) || reserved(&name) {
        n += 1;
        name = format!("{want}#{n}");
    }
    taken.insert(name.clone());
    name
}

/// A build side's cross-query fingerprint (see
/// [`LoweredQuery::build_fingerprints`]): its structure and key, then the
/// layout term. Payload names and types, in physical order, determine the
/// built batch and the payload indices probe sites address, so two queries
/// share a cached table only when their export unions coincide exactly.
fn fingerprint((structure, key): &BuildKey, cols: &[ColInfo]) -> String {
    use std::fmt::Write as _;
    let mut fp = format!("{structure}#key={key}#cols=[");
    for c in cols {
        let _ = write!(fp, "{}:{:?};", c.name, c.dtype);
    }
    fp.push(']');
    fp
}

fn check_key_type(col: &ColInfo, side: &str) -> Result<(), PlanError> {
    if crate::plan::is_join_key(col.dtype) {
        return Ok(());
    }
    Err(PlanError::TypeMismatch {
        context: format!("join key {} of {side}", col.name),
        expected: "i32-typed key column",
        found: format!("{:?}", col.dtype),
    })
}

/// Infer an expression's result kind against the visible columns,
/// rejecting ill-typed shapes (arithmetic on strings/booleans, ordering
/// comparisons on strings, logic over non-booleans).
fn infer_kind(e: &NamedExpr, cols: &[ColInfo], context: &str) -> Result<Kind, PlanError> {
    let of = |name: &str| -> Result<Kind, PlanError> {
        let info = cols.iter().find(|c| c.name == name).ok_or_else(|| {
            PlanError::UnknownColumn { column: name.to_string(), context: context.to_string() }
        })?;
        Ok(match info.dtype {
            DataType::Str => Kind::Str,
            _ => Kind::Num,
        })
    };
    let mismatch = |expected: &'static str, found: Kind| PlanError::TypeMismatch {
        context: context.to_string(),
        expected,
        found: found.describe().to_string(),
    };
    Ok(match e {
        NamedExpr::Col(n) => of(n)?,
        NamedExpr::LitI32(_) | NamedExpr::LitI64(_) | NamedExpr::LitF64(_) => Kind::Num,
        NamedExpr::LitStr(_) => Kind::Str,
        NamedExpr::Add(a, b) | NamedExpr::Sub(a, b) | NamedExpr::Mul(a, b) => {
            for side in [a, b] {
                let k = infer_kind(side, cols, context)?;
                if k != Kind::Num {
                    return Err(mismatch("numeric operand", k));
                }
            }
            Kind::Num
        }
        NamedExpr::Eq(a, b) => {
            let (ka, kb) = (infer_kind(a, cols, context)?, infer_kind(b, cols, context)?);
            match (ka, kb) {
                (Kind::Num, Kind::Num) => Kind::Bool,
                // String equality is only meaningful against a literal
                // (resolved through the column's own dictionary). Two
                // string *columns* carry independent dictionaries whose
                // codes are not comparable — lowering that would silently
                // return wrong rows, so it is a typed error.
                (Kind::Str, Kind::Str) => {
                    let literal_operand = matches!(**a, NamedExpr::LitStr(_))
                        || matches!(**b, NamedExpr::LitStr(_));
                    if !literal_operand {
                        return Err(PlanError::TypeMismatch {
                            context: context.to_string(),
                            expected: "a string literal operand (column dictionaries are not \
                                       mutually comparable)",
                            found: "two string columns".to_string(),
                        });
                    }
                    Kind::Bool
                }
                (Kind::Bool, _) => return Err(mismatch("comparable operand", Kind::Bool)),
                (_, k) => return Err(mismatch("matching comparison operand", k)),
            }
        }
        NamedExpr::Lt(a, b)
        | NamedExpr::Le(a, b)
        | NamedExpr::Gt(a, b)
        | NamedExpr::Ge(a, b) => {
            for side in [a, b] {
                let k = infer_kind(side, cols, context)?;
                if k != Kind::Num {
                    return Err(mismatch("numeric comparison operand", k));
                }
            }
            Kind::Bool
        }
        NamedExpr::And(a, b) | NamedExpr::Or(a, b) => {
            for side in [a, b] {
                let k = infer_kind(side, cols, context)?;
                if k != Kind::Bool {
                    return Err(mismatch("boolean operand", k));
                }
            }
            Kind::Bool
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::DiagnosticKind;
    use hape_ops::{col, lit};
    use hape_storage::datagen::gen_key_fk_table;
    use hape_storage::{Batch, Column, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_as("fact", gen_key_fk_table(1 << 10, 1 << 10, 1));
        c.register_as("dim", gen_key_fk_table(1 << 8, 1 << 8, 2));
        c
    }

    fn count() -> Vec<(AggFunc, NamedExpr)> {
        vec![(AggFunc::Count, col("k"))]
    }

    #[test]
    fn lowers_scan_filter_agg() {
        let q = Query::new("q")
            .from_table("fact")
            .filter(col("k").lt(lit(100)))
            .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
        let lowered = q.lower(&catalog()).unwrap();
        assert_eq!(lowered.plan.stages.len(), 1);
        // Full-width scan: no alias registered.
        assert!(lowered.catalog.get("q.fact").is_none());
    }

    #[test]
    fn projection_pushdown_registers_view() {
        let q = Query::new("q")
            .from_table("fact")
            .filter(col("k").lt(lit(100)))
            .agg(vec![(AggFunc::Count, col("k"))]);
        let lowered = q.lower(&catalog()).unwrap();
        // Only `k` is referenced; the scan view drops `v`.
        let view = lowered.catalog.get("q.fact").expect("projected view");
        assert_eq!(view.schema.len(), 1);
        assert_eq!(view.schema.fields[0].name, "k");
        match &lowered.plan.stages[0] {
            Stage::Stream { pipeline } => assert_eq!(pipeline.source, "q.fact"),
            s => panic!("unexpected stage {s:?}"),
        }
    }

    #[test]
    fn join_lowers_to_build_and_probe_with_payload() {
        let q = Query::new("q")
            .from_table("fact")
            .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
            .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
        let lowered = q.lower(&catalog()).unwrap();
        assert_eq!(lowered.plan.stages.len(), 2);
        match &lowered.plan.stages[0] {
            Stage::Build { name, key_col, .. } => {
                assert_eq!(name, "q.dim");
                assert_eq!(*key_col, 0);
            }
            s => panic!("unexpected stage {s:?}"),
        }
        // `v` resolves from the probe side (first provider wins), so the
        // join carries no payload at all.
        match &lowered.plan.stages[1] {
            Stage::Stream { pipeline } => match &pipeline.ops[0] {
                crate::plan::PipeOp::JoinProbe { build_payload_cols, .. } => {
                    assert!(build_payload_cols.is_empty());
                }
                op => panic!("unexpected op {op:?}"),
            },
            s => panic!("unexpected stage {s:?}"),
        }
    }

    #[test]
    fn a_name_two_builds_provide_rides_the_latest_join_before_its_first_use() {
        let table = |cols: [&str; 2]| {
            let data = || Column::from_i32((0..16).collect());
            let schema = Schema::new(cols.map(|c| (c, DataType::I32)));
            Table::new("t", schema, Batch::new(vec![data(), data()]))
        };
        let mut c = Catalog::new();
        c.register_as("f", table(["fk1", "fk2"]));
        c.register_as("d1", table(["k1", "name"]));
        c.register_as("d2", table(["k2", "name"]));
        let payloads = |between: Option<NamedExpr>| {
            let mut q = Query::new("q").from_table("f").join(
                Query::scan("d1"),
                "fk1",
                "k1",
                JoinAlgo::NonPartitioned,
            );
            if let Some(e) = between {
                q = q.filter(e);
            }
            let q = q
                .join(Query::scan("d2"), "fk2", "k2", JoinAlgo::NonPartitioned)
                .agg(vec![(AggFunc::Sum, col("name"))]);
            let lowered = q.lower(&c).unwrap();
            let Some(Stage::Stream { pipeline }) = lowered.plan.stages.last() else {
                panic!("the last stage streams")
            };
            let probes = pipeline.ops.iter().filter_map(|op| match op {
                crate::plan::PipeOp::JoinProbe { build_payload_cols, .. } => {
                    Some(build_payload_cols.len())
                }
                _ => None,
            });
            probes.collect::<Vec<_>>()
        };
        // Read only by the aggregate: the later join carries `name`.
        assert_eq!(payloads(None), [0, 1]);
        // Read between the joins: the earlier one carries it, and the
        // later join's build side is not consulted.
        assert_eq!(payloads(Some(col("name").lt(lit(8)))), [1, 0]);
    }

    #[test]
    fn select_lowers_to_project_and_replaces_columns() {
        let q = Query::new("q")
            .from_table("fact")
            .select(vec![("vk", col("v").mul(col("k"))), ("k2", col("k").add(lit(1)))])
            .agg(vec![(AggFunc::Sum, col("vk")), (AggFunc::Sum, col("k2"))]);
        let lowered = q.lower(&catalog()).unwrap();
        let Stage::Stream { pipeline } = &lowered.plan.stages[0] else {
            panic!("stream stage");
        };
        assert!(
            matches!(&pipeline.ops[0], crate::plan::PipeOp::Project(exprs) if exprs.len() == 2)
        );
    }

    #[test]
    fn select_output_shadows_dropped_columns() {
        // `v` is not re-selected, so referencing it downstream is a typed
        // error.
        let q = Query::new("q")
            .from_table("fact")
            .select(vec![("vk", col("v").mul(col("k")))])
            .agg(vec![(AggFunc::Sum, col("v"))]);
        match q.lower(&catalog()).unwrap_err() {
            PlanError::UnknownColumn { column, .. } => assert_eq!(column, "v"),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn select_type_checks() {
        // A boolean expression is not a projection.
        let q = Query::new("q")
            .from_table("fact")
            .select(vec![("b", col("k").lt(lit(1)))])
            .agg(vec![(AggFunc::Sum, col("b"))]);
        match q.lower(&catalog()).unwrap_err() {
            PlanError::TypeMismatch { expected, .. } => {
                assert_eq!(expected, "numeric projection expression");
            }
            e => panic!("unexpected error {e}"),
        }
        // A select output is f64-typed: joining on it is rejected.
        let q = Query::new("q")
            .from_table("fact")
            .select(vec![("k2", col("k").add(lit(0)))])
            .join(Query::scan("dim"), "k2", "k", JoinAlgo::NonPartitioned)
            .agg(vec![(AggFunc::Count, col("k2"))]);
        assert!(matches!(q.lower(&catalog()).unwrap_err(), PlanError::TypeMismatch { .. }));
        // An empty select is its own typed error.
        let q = Query::new("q")
            .from_table("fact")
            .select(Vec::<(&str, hape_ops::NamedExpr)>::new())
            .agg(count());
        assert_eq!(
            q.lower(&catalog()).unwrap_err(),
            PlanError::EmptySelect { query: "q".into() }
        );
    }

    #[test]
    fn unknown_table_reported() {
        let q = Query::new("q").from_table("ghost").agg(count());
        assert_eq!(
            q.lower(&catalog()).unwrap_err(),
            PlanError::UnknownTable { table: "ghost".into() }
        );
    }

    #[test]
    fn unknown_column_reported() {
        let q = Query::new("q").from_table("fact").filter(col("nope").lt(lit(1))).agg(count());
        match q.lower(&catalog()).unwrap_err() {
            PlanError::UnknownColumn { column, .. } => assert_eq!(column, "nope"),
            e => panic!("unexpected error {e}"),
        }
    }

    /// The kind of the binding finding lowering `q` is refused with.
    fn unbound_kind(q: &Query) -> DiagnosticKind {
        match q.lower(&catalog()) {
            Err(PlanError::Unbound(d)) => d.kind,
            other => panic!("expected Unbound, got {:?}", other.err()),
        }
    }

    #[test]
    fn missing_aggregate_reported() {
        let q = Query::new("q").from_table("fact");
        assert_eq!(unbound_kind(&q), DiagnosticKind::StreamMissingAgg);
    }

    #[test]
    fn aggregating_build_side_reported() {
        let build = Query::scan("dim").agg(vec![(AggFunc::Count, col("k"))]);
        let q = Query::new("q")
            .from_table("fact")
            .join(build, "k", "k", JoinAlgo::NonPartitioned)
            .agg(count());
        assert!(
            matches!(unbound_kind(&q), DiagnosticKind::BuildAggregates { ref name } if name == "q.dim"),
            "{:?}",
            q.lower(&catalog()).err()
        );
    }

    #[test]
    fn missing_scan_reported() {
        let q = Query::new("q").agg(count());
        assert_eq!(
            q.lower(&catalog()).unwrap_err(),
            PlanError::MissingScan { query: "q".into() }
        );
    }

    #[test]
    fn filter_must_be_boolean() {
        let q = Query::new("q").from_table("fact").filter(col("k").add(lit(1))).agg(count());
        match q.lower(&catalog()).unwrap_err() {
            PlanError::TypeMismatch { expected, found, .. } => {
                assert_eq!(expected, "boolean predicate");
                assert_eq!(found, "numeric");
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn identical_build_sides_are_memoised() {
        // The same dim chain joined twice on the same key: one build
        // stage, probed twice.
        let dim = Query::scan("dim").filter(col("k").lt(lit(100)));
        let q = Query::new("q")
            .from_table("fact")
            .join(dim.clone(), "k", "k", JoinAlgo::NonPartitioned)
            .join(dim, "k", "k", JoinAlgo::NonPartitioned)
            .agg(count());
        let lowered = q.lower(&catalog()).unwrap();
        let builds: Vec<_> =
            lowered.plan.stages.iter().filter(|s| matches!(s, Stage::Build { .. })).collect();
        assert_eq!(builds.len(), 1, "shared structure must build once");
        let Stage::Stream { pipeline } = lowered.plan.stages.last().unwrap() else {
            panic!("stream last");
        };
        let probes: Vec<&str> = pipeline
            .ops
            .iter()
            .filter_map(|op| match op {
                crate::plan::PipeOp::JoinProbe { ht, .. } => Some(ht.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(probes, vec!["q.dim", "q.dim"]);
    }

    #[test]
    fn different_keys_or_structure_are_not_memoised() {
        // Same scan, different build key: two distinct hash tables.
        let q = Query::new("q")
            .from_table("fact")
            .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
            .join(Query::scan("dim"), "v", "v", JoinAlgo::NonPartitioned)
            .agg(count());
        let lowered = q.lower(&catalog()).unwrap();
        let builds =
            lowered.plan.stages.iter().filter(|s| matches!(s, Stage::Build { .. })).count();
        assert_eq!(builds, 2);
        // Different filter constants: structurally distinct, two builds.
        let q = Query::new("q")
            .from_table("fact")
            .join(
                Query::scan("dim").filter(col("k").lt(lit(10))),
                "k",
                "k",
                JoinAlgo::NonPartitioned,
            )
            .join(
                Query::scan("dim").filter(col("k").lt(lit(20))),
                "k",
                "k",
                JoinAlgo::NonPartitioned,
            )
            .agg(count());
        let lowered = q.lower(&catalog()).unwrap();
        let builds =
            lowered.plan.stages.iter().filter(|s| matches!(s, Stage::Build { .. })).count();
        assert_eq!(builds, 2);
    }

    /// `ev(user i32, ts i64, event str)`, sorted by `(user, ts)`.
    fn events() -> Catalog {
        use hape_storage::{Batch, Column, Schema, Table};
        let mut c = Catalog::new();
        c.register(Table::new(
            "ev",
            Schema::new([
                ("user", DataType::I32),
                ("ts", DataType::I64),
                ("event", DataType::Str),
            ]),
            Batch::new(vec![
                Column::from_i32(vec![1, 1, 2]),
                Column::from_i64(vec![0, 5, 7]),
                Column::from_strs(["view", "buy", "view"]),
            ]),
        ));
        c
    }

    fn stateful_mismatch(q: &Query) -> (&'static str, String) {
        match q.lower(&events()).unwrap_err() {
            PlanError::TypeMismatch { expected, found, .. } => (expected, found),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn stateful_roles_are_type_checked_by_name() {
        let funnel = |user: &str, ts: &str, event: &str| {
            Query::new("q")
                .from_table("ev")
                .window_funnel(user, ts, event, &["view", "buy"], 10)
                .agg(vec![(AggFunc::Sum, col("funnel_depth"))])
        };
        assert!(funnel("user", "ts", "event").lower(&events()).is_ok());
        assert_eq!(
            stateful_mismatch(&funnel("event", "ts", "event")),
            ("integer user column", "Str".to_string())
        );
        assert_eq!(
            stateful_mismatch(&funnel("user", "event", "event")),
            ("integer or date timestamp column", "Str".to_string())
        );
        assert_eq!(
            stateful_mismatch(&funnel("user", "ts", "ts")),
            ("string event column", "I64".to_string())
        );
    }

    #[test]
    fn stateful_event_column_without_a_base_column_is_a_type_error_not_a_panic() {
        // A select alias: f64-typed, and no column of `ev` has its name —
        // resolving the step names must not go looking for one.
        let q = Query::new("q")
            .from_table("ev")
            .select(vec![("u", col("user")), ("t", col("ts")), ("e", col("ts").add(lit(0)))])
            .window_funnel("u", "t", "e", &["view"], 10)
            .agg(vec![(AggFunc::Sum, col("funnel_depth"))]);
        assert_eq!(stateful_mismatch(&q).1, "F64");
        // An earlier stateful aggregate's i64 output, likewise.
        let q = Query::new("q")
            .from_table("ev")
            .sessionize("user", "ts", 3)
            .window_funnel("user", "events", "sessions", &["view"], 10)
            .agg(vec![(AggFunc::Sum, col("funnel_depth"))]);
        assert_eq!(stateful_mismatch(&q), ("string event column", "I64".to_string()));
    }
}
