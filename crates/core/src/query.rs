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
//! Everything is fallible: unknown tables and columns and type mismatches
//! surface as [`PlanError`]s by name; what the binding walk owns — an
//! aggregating build side, an aggregate-less stream, a too-wide group-by —
//! as the [`PlanError::Unbound`] finding of [`QueryPlan::try_new`], which
//! closes every lowering.

use std::collections::{BTreeSet, HashMap, HashSet};

use hape_ops::{AggFunc, AggSpec, ColumnResolver, NamedExpr, ResolveError, StatefulAgg};
use hape_storage::{DataType, Table};

use crate::catalog::Catalog;
use crate::error::PlanError;
use crate::plan::{JoinAlgo, Pipeline, QueryPlan, Stage};

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

    /// Output column names (user column first), mirroring
    /// [`hape_ops::StatefulAgg::out_names`].
    fn output_names(&self) -> Vec<String> {
        let mut names = vec![self.user.clone()];
        match &self.kind {
            StatefulKind::Sessionize { .. } => {
                names.extend(["sessions".to_string(), "events".to_string()]);
            }
            StatefulKind::WindowFunnel { .. } => names.push("funnel_depth".to_string()),
            StatefulKind::Retention { returns, .. } => {
                names.push("in_cohort".to_string());
                names.extend((1..=returns.len()).map(|i| format!("ret{i}")));
            }
            StatefulKind::SequenceMatch { .. } => names.push("matched".to_string()),
        }
        names
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
        let mut ctx = Lowering::with_export_unions(
            catalog,
            Lowering::collect_export_unions(catalog, self, &self.name)?,
        );
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

    /// Names this chain itself consumes (filters, select expressions,
    /// probe keys, group-by, aggregate arguments) — not including
    /// sub-chains.
    fn names_used(&self) -> Vec<String> {
        let mut names = Vec::new();
        for op in &self.ops {
            match op {
                LogicalOp::Filter(e) => names.extend(e.columns_used()),
                LogicalOp::Select(items) => {
                    names.extend(items.iter().flat_map(|(_, e)| e.columns_used()));
                }
                LogicalOp::Join(j) => names.push(j.probe_key.clone()),
                LogicalOp::Stateful(s) => names.extend(s.input_names()),
            }
        }
        names.extend(self.group_by.iter().cloned());
        for (_, e) in &self.aggs {
            names.extend(e.columns_used());
        }
        names
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
    fn find(&self, name: &str) -> Option<&ColInfo> {
        self.cols.iter().find(|c| c.name == name)
    }
}

impl ColumnResolver for Scope<'_> {
    fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    fn str_code(&self, name: &str, value: &str) -> Result<i32, ResolveError> {
        let info = self
            .find(name)
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
    built: HashMap<BuildKey, (String, Vec<ColInfo>)>,
    /// Cross-query structural fingerprint per emitted hash table (see
    /// [`LoweredQuery::build_fingerprints`]).
    fingerprints: HashMap<String, String>,
    /// True during the collection pass (stages are discarded; only
    /// `export_unions` survives).
    collecting: bool,
}

impl<'a> Lowering<'a> {
    fn new(base: &'a Catalog) -> Self {
        Lowering {
            base,
            derived: base.clone(),
            stages: Vec::new(),
            taken_tables: HashSet::new(),
            taken_hts: HashSet::new(),
            export_unions: HashMap::new(),
            built: HashMap::new(),
            fingerprints: HashMap::new(),
            collecting: false,
        }
    }

    /// The real (second) lowering pass, seeded with the export unions the
    /// collection pass gathered.
    fn with_export_unions(
        base: &'a Catalog,
        export_unions: HashMap<BuildKey, BTreeSet<String>>,
    ) -> Self {
        Lowering { export_unions, ..Lowering::new(base) }
    }

    /// Pass 1: lower the whole chain once, discarding the plan, to learn —
    /// per shared build structure — the union of export columns its probe
    /// sites need. Cheap (lowering touches no data) and keeps the payload
    /// derivation logic in one place.
    fn collect_export_unions(
        base: &'a Catalog,
        q: &Query,
        root: &str,
    ) -> Result<HashMap<BuildKey, BTreeSet<String>>, PlanError> {
        let mut ctx = Lowering::new(base);
        ctx.collecting = true;
        ctx.lower_chain(q, root, &[])?;
        Ok(ctx.export_unions)
    }

    /// Claim a unique scan alias derived from `want` (must not shadow a
    /// base table either).
    fn unique_table(&mut self, want: &str) -> String {
        let mut name = want.to_string();
        let mut n = 1;
        while self.taken_tables.contains(&name) || self.base.get(&name).is_some() {
            n += 1;
            name = format!("{want}#{n}");
        }
        self.taken_tables.insert(name.clone());
        name
    }

    /// Claim a unique hash-table name derived from `want`. Hash tables
    /// live in the run's table store, a separate namespace from the
    /// catalog.
    fn unique_ht(&mut self, want: &str) -> String {
        let mut name = want.to_string();
        let mut n = 1;
        while self.taken_hts.contains(&name) {
            n += 1;
            name = format!("{want}#{n}");
        }
        self.taken_hts.insert(name.clone());
        name
    }

    /// Claim a hash-table name for a lowered build side, resolve the key
    /// column the table is built over, and emit the build stage. Returns
    /// the name and output layout probe sites address payloads against.
    fn push_build(
        &mut self,
        build: &Query,
        build_key: &str,
        root: &str,
        pipeline: Pipeline,
        build_cols: &[ColInfo],
    ) -> Result<(String, Vec<ColInfo>), PlanError> {
        let key_col = build_cols.iter().position(|c| c.name == build_key).ok_or_else(|| {
            PlanError::UnknownColumn {
                column: build_key.to_string(),
                context: format!("build side {}", build.name),
            }
        })?;
        let ht = self.unique_ht(&format!("{root}.{}", build.name));
        self.stages.push(Stage::Build { name: ht.clone(), key_col, pipeline });
        Ok((ht, build_cols.to_vec()))
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
        let table = lookup(self.base, source)?;

        // ---- Projection pushdown: the scan reads exactly the base-table
        // columns this chain (or its consumer) references.
        let mut wanted: Vec<String> = q.names_used();
        wanted.extend(export.iter().cloned());
        let projected: Vec<&str> = table
            .schema
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .filter(|n| wanted.iter().any(|w| w == n))
            .collect();
        let scan_source = if projected.len() == table.schema.len() {
            source.to_string()
        } else {
            let alias = self.unique_table(&format!("{root}.{source}"));
            let view =
                table.try_project(&projected).expect("projected names come from this schema");
            self.derived.register_as(alias.clone(), view);
            alias
        };
        let mut cols: Vec<ColInfo> = projected
            .iter()
            .map(|n| ColInfo {
                name: n.to_string(),
                dtype: table.schema.dtype_of(n).expect("projected names come from this schema"),
                origin: source.to_string(),
            })
            .collect();

        let mut pipeline = Pipeline::scan(scan_source);
        for (i, op) in q.ops.iter().enumerate() {
            match op {
                LogicalOp::Filter(pred) => {
                    let context = format!("filter over {source}");
                    let kind = infer_kind(pred, &cols, &context)?;
                    if kind != Kind::Bool {
                        return Err(PlanError::TypeMismatch {
                            context,
                            expected: "boolean predicate",
                            found: kind.describe().to_string(),
                        });
                    }
                    let scope = Scope { cols: &cols, catalog: self.base };
                    let resolved =
                        pred.resolve(&scope).map_err(|e| map_resolve(e, &context))?;
                    pipeline = pipeline.filter(resolved);
                }
                LogicalOp::Select(items) => {
                    if items.is_empty() {
                        return Err(PlanError::EmptySelect { query: q.name.clone() });
                    }
                    let context = format!("select over {source}");
                    let mut exprs = Vec::with_capacity(items.len());
                    let mut out_cols = Vec::with_capacity(items.len());
                    for (name, e) in items {
                        let kind = infer_kind(e, &cols, &context)?;
                        if kind != Kind::Num {
                            return Err(PlanError::TypeMismatch {
                                context,
                                expected: "numeric projection expression",
                                found: kind.describe().to_string(),
                            });
                        }
                        let scope = Scope { cols: &cols, catalog: self.base };
                        exprs.push(e.resolve(&scope).map_err(|e| map_resolve(e, &context))?);
                        // Projection outputs are materialised as f64; the
                        // origin is only consulted for dictionary lookups,
                        // which f64 columns never trigger.
                        out_cols.push(ColInfo {
                            name: name.clone(),
                            dtype: DataType::F64,
                            origin: source.to_string(),
                        });
                    }
                    pipeline = pipeline.project(exprs);
                    cols = out_cols;
                }
                LogicalOp::Join(j) => {
                    // What later ops (and our own consumer) still need but
                    // cannot see yet — candidates for this join's payload.
                    // Track each name's first point of use: a name only
                    // needed *after* a later join that can also provide it
                    // is deferred to that join, so payloads ride the
                    // latest (cheapest) hash table that can carry them —
                    // e.g. Q5's n_name rides the small supplier build, not
                    // the whole orders→customers→nations chain.
                    let rest = &q.ops[i + 1..];
                    let mut downstream: Vec<(String, usize)> = Vec::new();
                    for (pos, later) in rest.iter().enumerate() {
                        match later {
                            LogicalOp::Filter(e) => downstream
                                .extend(e.columns_used().into_iter().map(|n| (n, pos))),
                            LogicalOp::Select(items) => downstream.extend(
                                items
                                    .iter()
                                    .flat_map(|(_, e)| e.columns_used())
                                    .map(|n| (n, pos)),
                            ),
                            LogicalOp::Join(later_join) => {
                                downstream.push((later_join.probe_key.clone(), pos));
                            }
                            LogicalOp::Stateful(s) => {
                                downstream
                                    .extend(s.input_names().into_iter().map(|n| (n, pos)));
                            }
                        }
                    }
                    let end = rest.len();
                    downstream.extend(q.group_by.iter().map(|n| (n.clone(), end)));
                    for (_, e) in &q.aggs {
                        downstream.extend(e.columns_used().into_iter().map(|n| (n, end)));
                    }
                    downstream.extend(export.iter().map(|n| (n.clone(), end)));
                    let available = j.build.available_names(self.base)?;
                    let mut payload: Vec<String> = Vec::new();
                    'candidates: for (name, first_use) in &downstream {
                        if cols.iter().any(|c| c.name == *name)
                            || !available.contains(name)
                            || payload.contains(name)
                        {
                            continue;
                        }
                        for later in rest.iter().take(*first_use) {
                            if let LogicalOp::Join(later_join) = later {
                                if later_join.build.available_names(self.base)?.contains(name) {
                                    // A later join provides it before its
                                    // first use; let that join carry it.
                                    continue 'candidates;
                                }
                            }
                        }
                        payload.push(name.clone());
                    }

                    // Lower the build side, exporting payloads + its key —
                    // or reuse a structurally identical build another site
                    // already lowered (the memo; Q5's shared ASIA-nations
                    // chain builds once).
                    let mut build_export = payload.clone();
                    if !build_export.contains(&j.build_key) {
                        build_export.push(j.build_key.clone());
                    }
                    let mut skey = String::new();
                    j.build.structural_key(&mut skey);
                    let memo_key: BuildKey = (skey, j.build_key.clone());
                    // Seed of the cross-query fingerprint: structure + key.
                    // The exported column layout joins it below, once the
                    // build side is lowered.
                    let fp_base = format!("{}#key={}", memo_key.0, memo_key.1);
                    let (ht, build_cols) = if self.collecting {
                        self.export_unions
                            .entry(memo_key)
                            .or_default()
                            .extend(build_export.iter().cloned());
                        let (build_pipeline, build_cols) =
                            self.lower_chain(&j.build, root, &build_export)?;
                        self.push_build(
                            &j.build,
                            &j.build_key,
                            root,
                            build_pipeline,
                            &build_cols,
                        )?
                    } else if let Some((ht, build_cols)) = self.built.get(&memo_key) {
                        (ht.clone(), build_cols.clone())
                    } else {
                        // First site of this structure: lower with the
                        // union of every site's exports so the shared
                        // table carries all of their payloads.
                        let exports: Vec<String> = self
                            .export_unions
                            .get(&memo_key)
                            .map(|s| s.iter().cloned().collect())
                            .unwrap_or_else(|| build_export.clone());
                        let (build_pipeline, build_cols) =
                            self.lower_chain(&j.build, root, &exports)?;
                        let out = self.push_build(
                            &j.build,
                            &j.build_key,
                            root,
                            build_pipeline,
                            &build_cols,
                        )?;
                        self.built.insert(memo_key, out.clone());
                        out
                    };
                    if !self.collecting && !self.fingerprints.contains_key(&ht) {
                        use std::fmt::Write as _;
                        // The layout term: payload columns (names + types,
                        // in physical order) determine the built batch and
                        // the payload indices probe sites address, so two
                        // queries share a cached table only when their
                        // export unions coincide exactly.
                        let mut fp = fp_base;
                        let _ = write!(fp, "#cols=[");
                        for c in &build_cols {
                            let _ = write!(fp, "{}:{:?};", c.name, c.dtype);
                        }
                        let _ = write!(fp, "]");
                        self.fingerprints.insert(ht.clone(), fp);
                    }
                    let key_col = build_cols
                        .iter()
                        .position(|c| c.name == j.build_key)
                        .ok_or_else(|| PlanError::UnknownColumn {
                            column: j.build_key.clone(),
                            context: format!("build side {}", j.build.name),
                        })?;
                    check_key_type(&build_cols[key_col], &j.build.name)?;

                    let probe_col = cols
                        .iter()
                        .position(|c| c.name == j.probe_key)
                        .ok_or_else(|| PlanError::UnknownColumn {
                            column: j.probe_key.clone(),
                            context: format!("probe side of join with {}", j.build.name),
                        })?;
                    check_key_type(&cols[probe_col], source)?;

                    // Payload indices into the build output, ascending so
                    // the probe appends them in a stable physical order.
                    let mut payload_cols: Vec<usize> = payload
                        .iter()
                        .map(|n| {
                            build_cols.iter().position(|c| c.name == *n).ok_or_else(|| {
                                PlanError::UnknownColumn {
                                    column: n.clone(),
                                    context: format!("build side {}", j.build.name),
                                }
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    payload_cols.sort_unstable();

                    for &b in &payload_cols {
                        cols.push(build_cols[b].clone());
                    }
                    pipeline = pipeline.join(ht, probe_col, payload_cols, j.algo);
                }
                LogicalOp::Stateful(s) => {
                    let context = format!("stateful aggregate over {source}");
                    let find = |name: &str| -> Result<usize, PlanError> {
                        cols.iter().position(|c| c.name == name).ok_or_else(|| {
                            PlanError::UnknownColumn {
                                column: name.to_string(),
                                context: context.clone(),
                            }
                        })
                    };
                    let (user_col, ts_col) = (find(&s.user)?, find(&s.ts)?);
                    // Resolve an event-name literal through the event
                    // column's base-table dictionary. Absent names map to
                    // the -1 sentinel no dictionary code equals, so they
                    // match no rows — same semantics as string filters.
                    // Only a string column is looked up: a select alias or
                    // an earlier aggregate's output names no base column
                    // (and is refused by the contract check below).
                    let base = self.base;
                    let code = |i: usize, value: &str| -> i32 {
                        let info: &ColInfo = &cols[i];
                        base.get(&info.origin)
                            .filter(|_| info.dtype == DataType::Str)
                            .and_then(|t| t.column(&info.name).dict())
                            .and_then(|d| d.code_of(value))
                            .map_or(-1, |c| c as i32)
                    };
                    let agg = match &s.kind {
                        StatefulKind::Sessionize { gap } => {
                            StatefulAgg::Sessionize { user_col, ts_col, gap: *gap }
                        }
                        StatefulKind::WindowFunnel { event, steps, window } => {
                            let ev = find(event)?;
                            StatefulAgg::WindowFunnel {
                                user_col,
                                ts_col,
                                event_col: ev,
                                steps: steps.iter().map(|n| code(ev, n)).collect(),
                                window: *window,
                            }
                        }
                        StatefulKind::Retention { event, cohort, returns, period } => {
                            let ev = find(event)?;
                            StatefulAgg::Retention {
                                user_col,
                                ts_col,
                                event_col: ev,
                                cohort_event: code(ev, cohort),
                                return_events: returns.iter().map(|n| code(ev, n)).collect(),
                                period: *period,
                            }
                        }
                        StatefulKind::SequenceMatch { event, pattern } => {
                            let ev = find(event)?;
                            StatefulAgg::SequenceMatch {
                                user_col,
                                ts_col,
                                event_col: ev,
                                pattern: pattern.iter().map(|n| code(ev, n)).collect(),
                            }
                        }
                    };
                    // The operator's input contract, stated once in
                    // `plan::stateful_inputs`.
                    for (_, column, accepted, expected) in crate::plan::stateful_inputs(&agg) {
                        if !accepted.contains(&cols[column].dtype) {
                            let found = format!("{:?}", cols[column].dtype);
                            return Err(PlanError::TypeMismatch { context, expected, found });
                        }
                    }
                    pipeline = pipeline.stateful(agg);
                    // Output layout: one all-i64 row per user, user first.
                    // Origin is only consulted for dictionary lookups,
                    // which i64 columns never trigger.
                    cols = s
                        .output_names()
                        .into_iter()
                        .map(|name| ColInfo {
                            name,
                            dtype: DataType::I64,
                            origin: source.to_string(),
                        })
                        .collect();
                }
            }
        }

        // ---- Exports must all be visible in the chain output.
        for name in export {
            if cols.iter().all(|c| c.name != *name) {
                return Err(PlanError::UnknownColumn {
                    column: name.clone(),
                    context: format!("output of {}", q.name),
                });
            }
        }

        // ---- Terminal aggregation.
        if q.aggregates() {
            let mut group_idx = Vec::with_capacity(q.group_by.len());
            for g in &q.group_by {
                let context = format!("group-by of {}", q.name);
                let i = cols.iter().position(|c| c.name == *g).ok_or_else(|| {
                    PlanError::UnknownColumn { column: g.clone(), context: context.clone() }
                })?;
                if !crate::plan::is_group_key(cols[i].dtype) {
                    return Err(PlanError::TypeMismatch {
                        context,
                        expected: "integer, date or string group key",
                        found: "f64".to_string(),
                    });
                }
                group_idx.push(i);
            }
            let mut aggs = Vec::with_capacity(q.aggs.len());
            for (func, e) in &q.aggs {
                let context = format!("aggregate of {}", q.name);
                if *func != AggFunc::Count {
                    let kind = infer_kind(e, &cols, &context)?;
                    if kind != Kind::Num {
                        return Err(PlanError::TypeMismatch {
                            context,
                            expected: "numeric aggregate argument",
                            found: kind.describe().to_string(),
                        });
                    }
                }
                let scope = Scope { cols: &cols, catalog: self.base };
                aggs.push((*func, e.resolve(&scope).map_err(|e| map_resolve(e, &context))?));
            }
            // The group-by's arity is the binding walk's to judge (its
            // invariant 13), when `QueryPlan::try_new` closes the lowering.
            pipeline = pipeline.aggregate(AggSpec { group_by: group_idx, aggs });
        }

        Ok((pipeline, cols))
    }
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

fn map_resolve(e: ResolveError, context: &str) -> PlanError {
    match e {
        ResolveError::UnknownColumn { column } => {
            PlanError::UnknownColumn { column, context: context.to_string() }
        }
        ResolveError::StringLiteralContext { literal }
        | ResolveError::StringLiteralType { literal, .. } => {
            PlanError::StringComparedToNonString { literal, context: context.to_string() }
        }
    }
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
