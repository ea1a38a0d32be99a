//! The concurrent multi-query serving layer.
//!
//! A [`SessionServer`] wraps a [`Session`] and serves many queries over
//! the session's *shared* simulated device fleet — the single-node shape
//! of a multi-tenant coordinator. Queries are submitted up front
//! ([`SessionServer::submit`] / [`SessionServer::submit_with`], each
//! returning a [`QueryHandle`]) and executed together by the blocking
//! batch scheduler [`SessionServer::run_all`]. Three cooperating pieces:
//!
//! 1. **Device-aware admission control.** Every submission is lowered and
//!    placed immediately — lowering already refused a plan that breaks
//!    the binding walk's structure, and [`Engine::begin`](crate::Engine::begin)
//!    binds it against the catalog at admission, isolating a refusal into
//!    that query's outcome; admission verifies nothing itself. Its
//!    worst-case GPU working-set footprint is
//!    read from the optimizer's [`StageCost`](crate::cost::StageCost)
//!    estimates (attached by [`Placement::Auto`](crate::Placement) plans,
//!    re-derived from the [`CostModel`] for manual placements). The
//!    scheduler admits queries FIFO while their summed footprints fit the
//!    fleet's smallest GPU memory ([`SessionServer::gpu_budget`]); a
//!    second GPU-hungry query *queues* — counted in
//!    [`QueryOutcome::admission_wait`] — instead of OOM-failing or
//!    thrashing the broadcast working set. A query whose footprint alone
//!    exceeds the budget is admitted when the fleet is otherwise idle, so
//!    it fails (or co-processes) exactly as it would solo, in isolation.
//!
//! 2. **Fair interleaving with per-query sim-time isolation.** Admitted
//!    queries advance round-robin, one placed stage per round, each
//!    through its own [`QueryExec`] whose simulated clock starts at zero
//!    and whose workers are instantiated per stage. Interleaving therefore
//!    cannot perturb results: every query's rows *and* simulated makespan
//!    are bit-identical to a solo [`Session::execute`] run, at any thread
//!    count and any admission order (asserted by the differential harness,
//!    `tests/differential.rs`).
//!
//! 3. **A cross-query build-side cache.** Query lowering already memoises
//!    structurally identical build sides *within* a query; the
//!    [`BuildCache`] generalises that across queries, keyed on the
//!    structural fingerprints in
//!    [`LoweredQuery::build_fingerprints`](crate::query::LoweredQuery).
//!    A repeated query re-probing the same dimension tables skips the
//!    build — and, when the table was broadcast by the producing query,
//!    the PCIe broadcast too (skipped builds are counted in
//!    [`QueryReport::builds_cached`]). Entries are validated against the
//!    session catalog's version counter: re-registering a table
//!    invalidates every cached hash table built over its old contents
//!    ([`CacheStats::invalidations`]). The cache can be bounded
//!    ([`SessionServer::with_build_cache_capacity`]): over capacity it
//!    evicts least-recently-used first, counted in
//!    [`CacheStats::evictions`] and [`ServeReport::builds_evicted`]; at
//!    capacity 0 it is off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hape_sim::SimTime;
use hape_storage::Table;

use crate::catalog::TableRegistration;
use crate::cost::{CostModel, HtEstimates};
use crate::engine::{ExecConfig, QueryExec, QueryReport};
use crate::error::HapeError;
use crate::fault::{FaultPlan, HealthRegistry};
use crate::place::{PlacedPlan, PlacedStage};
use crate::plan::JoinTable;
use crate::query::{LoweredQuery, Query};
use crate::session::Session;
use crate::trace::{Ledger, TraceRecorder};

/// Identifies one submitted query within its [`SessionServer`]; index into
/// [`ServeReport::outcomes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle(usize);

impl QueryHandle {
    /// Submission index (0-based, in submission order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// How one submitted query left the batch — the serving layer's summary
/// on top of the per-query [`QueryOutcome::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Ran to completion without fault-plane intervention.
    Completed,
    /// Ran to completion, but only through the fault plane's recovery
    /// machinery: priced transfer retries and/or mid-query re-placements
    /// on the surviving fleet. Results are still bit-identical to a
    /// fault-free run.
    Degraded {
        /// Priced transfer retries absorbed.
        retries: usize,
        /// Mid-query re-placements absorbed.
        replans: usize,
    },
    /// The query's simulated time exceeded its submission budget
    /// ([`SessionServer::submit_with_budget`]): it stops at the next
    /// stage barrier with the partial report it had — a scheduling
    /// outcome, not an error.
    TimedOut {
        /// The sim-time budget it was submitted under.
        budget: SimTime,
        /// Simulated time elapsed when the deadline was detected.
        elapsed: SimTime,
    },
    /// Canceled via its [`CancelToken`] before finishing; stops at the
    /// next stage barrier with the partial report it had.
    Canceled,
    /// Preparation or execution failed; the error is in
    /// [`QueryOutcome::report`].
    Failed,
}

/// Cooperative cancellation for one submission: obtained from
/// [`SessionServer::cancel_token`], trippable from any thread (the
/// scheduler checks it between stage steps — the serving-layer face of
/// `QueryHandle` cancellation).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation: the owning query stops at its next stage
    /// barrier and finishes as [`Outcome::Canceled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once cancellation was requested.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A successfully prepared submission: lowered, placed and footprinted at
/// submit time (failures are stored and reported per query instead).
struct PreparedPlan {
    lowered: LoweredQuery,
    placed: PlacedPlan,
    /// Worst-case per-GPU working-set bytes across the plan's stages —
    /// the admission signal.
    gpu_footprint: u64,
    /// Session catalog version at submit time; cache entries produced by
    /// this query carry it.
    version: u64,
}

impl PreparedPlan {
    /// The build stage at `stage` and its structural fingerprint — the
    /// cross-query cache key — when the stage is a fingerprinted build.
    fn cacheable_build(&self, stage: usize) -> Option<(&String, &String)> {
        let PlacedStage::Build { name, .. } = self.placed.stages.get(stage)? else {
            return None;
        };
        Some((name, self.lowered.build_fingerprints.get(name)?))
    }
}

/// One pending submission (prepared plan or its preparation error).
struct Prepared {
    handle: QueryHandle,
    name: String,
    prep: Result<PreparedPlan, HapeError>,
    /// Per-query sim-time deadline (`None` = unbounded).
    budget: Option<SimTime>,
    /// Cooperative cancellation flag, shared with handed-out tokens.
    cancel: CancelToken,
}

/// Hit/miss/invalidation counters of the [`BuildCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: usize,
    /// Lookups that found no (valid) entry.
    pub misses: usize,
    /// Entries evicted because the catalog version moved past them.
    pub invalidations: usize,
    /// Entries evicted least-recently-used-first by the capacity bound.
    pub evictions: usize,
}

struct CacheEntry {
    /// Catalog version the table was built under.
    version: u64,
    /// Device health epoch ([`HealthRegistry::epoch`]) at insert time.
    /// A broadcast-resident entry inserted before a GPU failure may name
    /// a device copy that died with the device, so a hit under a newer
    /// epoch downgrades the entry to host-resident (the host `Arc` copy
    /// is always valid) and counts an invalidation.
    epoch: u64,
    /// Whether the producing plan broadcast the table to GPU memory (a
    /// hit then also skips the broadcast: the table is device-resident).
    broadcast: bool,
    /// Recency stamp ([`BuildCache::tick`] at the last hit or insert) —
    /// the LRU eviction order.
    last_used: u64,
    table: Arc<JoinTable>,
}

/// The cross-query build-side cache: structural fingerprint → built hash
/// table, validated against the session catalog's version counter and
/// optionally bounded to `capacity` entries with LRU eviction — capacity 0
/// is no cache at all.
#[derive(Default)]
pub struct BuildCache {
    entries: HashMap<String, CacheEntry>,
    stats: CacheStats,
    /// Maximum live entries (`None` = unbounded).
    capacity: Option<usize>,
    /// Monotonic recency clock; bumped on every hit and insert.
    tick: u64,
}

impl BuildCache {
    /// False at capacity 0: nothing is looked up, inserted or counted.
    fn enabled(&self) -> bool {
        self.capacity != Some(0)
    }

    /// Look up a fingerprint. A hit requires the entry to have been built
    /// under the *current* catalog version (stale entries are evicted and
    /// counted as invalidations) and the requesting plan to have been
    /// prepared under it too (a plan lowered over an older snapshot must
    /// rebuild from its own snapshot). Returns the table and whether it
    /// is device-resident.
    fn lookup(
        &mut self,
        fingerprint: &str,
        current_version: u64,
        plan_version: u64,
        current_epoch: u64,
    ) -> Option<(Arc<JoinTable>, bool)> {
        self.tick += 1;
        match self.entries.get_mut(fingerprint) {
            Some(e) if e.version == current_version && plan_version == current_version => {
                self.stats.hits += 1;
                e.last_used = self.tick;
                if e.broadcast && e.epoch != current_epoch {
                    // The fleet lost a device since this entry was
                    // broadcast: its device-resident copy cannot be
                    // trusted. Serve the host copy and re-key the entry
                    // to the current epoch.
                    e.broadcast = false;
                    e.epoch = current_epoch;
                    self.stats.invalidations += 1;
                }
                Some((e.table.clone(), e.broadcast))
            }
            Some(e) if e.version != current_version => {
                self.entries.remove(fingerprint);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(
        &mut self,
        fingerprint: String,
        version: u64,
        epoch: u64,
        broadcast: bool,
        table: Arc<JoinTable>,
    ) {
        self.tick += 1;
        self.entries.insert(
            fingerprint,
            CacheEntry { version, epoch, broadcast, last_used: self.tick, table },
        );
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let oldest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("cache over capacity is non-empty");
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// What happened to one submitted query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The submission's handle.
    pub handle: QueryHandle,
    /// The query's display name.
    pub query: String,
    /// Scheduler rounds this query spent queued behind the GPU-memory
    /// admission gate before starting (0 = admitted immediately).
    pub admission_wait: usize,
    /// GPU working-set bytes the admission controller reserved for it.
    pub gpu_reserved: u64,
    /// How the query left the batch: completed cleanly, completed
    /// degraded (fault-plane recovery), timed out, canceled, or failed.
    pub outcome: Outcome,
    /// The query's report, bit-identical to a solo run — or its error
    /// (preparation or execution), isolated to this query.
    pub report: Result<QueryReport, HapeError>,
}

/// The batch result of [`SessionServer::run_all`].
#[derive(Debug)]
pub struct ServeReport {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// The GPU admission budget the batch ran under (`None` on a fleet
    /// without GPUs: admission then never queues).
    pub gpu_budget: Option<u64>,
    /// Build-cache entries the capacity bound evicted (LRU-first) while
    /// this batch ran. Always 0 on an unbounded cache.
    pub builds_evicted: usize,
}

impl ServeReport {
    /// The outcome of one submission. Panics on a handle from a
    /// different batch (handles are not reused across batches).
    pub fn outcome(&self, handle: QueryHandle) -> &QueryOutcome {
        self.outcomes
            .iter()
            .find(|o| o.handle == handle)
            .unwrap_or_else(|| panic!("handle {handle:?} is not part of this batch"))
    }

    /// The report of one submission.
    pub fn report(&self, handle: QueryHandle) -> &Result<QueryReport, HapeError> {
        &self.outcome(handle).report
    }

    /// Total scheduler rounds any query spent waiting on admission.
    pub fn total_admission_waits(&self) -> usize {
        self.outcomes.iter().map(|o| o.admission_wait).sum()
    }

    /// Total build stages served from the cross-query cache.
    pub fn total_builds_cached(&self) -> usize {
        self.outcomes
            .iter()
            .filter_map(|o| o.report.as_ref().ok())
            .map(|r| r.builds_cached)
            .sum()
    }
}

impl std::fmt::Display for ServeReport {
    /// One header line plus one line per query, in submission order —
    /// what concurrency front-ends print for a batch.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let budget = match self.gpu_budget {
            Some(b) => format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64),
            None => "none".to_string(),
        };
        writeln!(
            f,
            "served {} queries (gpu budget {budget}): {} failed, {} admission waits, \
             {} cached builds, {} evicted",
            self.outcomes.len(),
            self.outcomes.iter().filter(|o| o.report.is_err()).count(),
            self.total_admission_waits(),
            self.total_builds_cached(),
            self.builds_evicted,
        )?;
        for o in &self.outcomes {
            match &o.report {
                Ok(r) => {
                    let tag = match o.outcome {
                        Outcome::Completed => "ok",
                        Outcome::Degraded { .. } => "degrad",
                        Outcome::TimedOut { .. } => "t-out",
                        Outcome::Canceled => "cancel",
                        Outcome::Failed => "error",
                    };
                    writeln!(
                        f,
                        "  {:<12} {:<6} time={:<12} groups={:<6} packets={}cpu+{}gpu \
                         waits={} cached={}",
                        o.query,
                        tag,
                        r.time.to_string(),
                        r.rows.len(),
                        r.packets_cpu,
                        r.packets_gpu,
                        o.admission_wait,
                        r.builds_cached,
                    )?;
                }
                Err(e) => writeln!(f, "  {:<12} error  {e}", o.query)?,
            }
        }
        Ok(())
    }
}

/// A concurrent multi-query server over one [`Session`]: submit many
/// queries, then run them as one admission-controlled, fairly interleaved
/// batch over the session's shared device fleet. See the module docs for
/// the scheduling semantics.
pub struct SessionServer {
    session: Session,
    cache: BuildCache,
    pending: Vec<Prepared>,
    next_id: usize,
    /// The server's own ledger (admission and cache events); each served
    /// query gets one more over the same recorder.
    ledger: Ledger,
    /// The fault plan every served query runs under (off by default).
    faults: FaultPlan,
    /// Fleet-wide device health, shared across all served queries: a GPU
    /// one query loses permanently stays quarantined for the whole
    /// server's lifetime.
    health: HealthRegistry,
}

impl SessionServer {
    /// A server over a session (build cache unbounded, tracing off).
    pub fn new(session: Session) -> Self {
        SessionServer {
            session,
            cache: BuildCache::default(),
            pending: Vec::new(),
            next_id: 0,
            ledger: Ledger::default(),
            faults: FaultPlan::off(),
            health: HealthRegistry::new(),
        }
    }

    /// Attach a [`TraceRecorder`]: every query executed by
    /// [`SessionServer::run_all`] records its spans and counters into it,
    /// plus the serving layer's own events — admission grants/waits and
    /// cross-query cache hits/misses.
    pub fn with_trace(mut self, trace: TraceRecorder) -> Self {
        self.ledger = Ledger::new(trace, "");
        self
    }

    /// Arm the fault-injection plane for every query this server runs
    /// (off by default — see [`crate::fault`]). All queries share one
    /// fleet [`HealthRegistry`]: a permanent device loss quarantines the
    /// device for later queries and shrinks the admission budget.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fleet's shared device-health registry.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Bound the build cache to at most `capacity` entries. Over capacity
    /// it evicts the least-recently-used entry — recency is bumped by hits
    /// and inserts — counting [`CacheStats::evictions`]. Capacity 0 turns
    /// the cache off: no lookup, no insert, nothing counted, every batch
    /// fully cold — the mode the determinism tests use, since a cache hit
    /// legitimately *shortens* a query's simulated makespan relative to
    /// solo execution. The default cache is unbounded.
    pub fn with_build_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache.capacity = Some(capacity);
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The cross-query build cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cached build-side tables currently held.
    pub fn cached_builds(&self) -> usize {
        self.cache.len()
    }

    /// The admission budget: the smallest *surviving* GPU device-memory
    /// capacity in the fleet (`None` without GPUs, or once every GPU is
    /// quarantined). Summed reserved footprints of admitted queries never
    /// exceed it unless a single query alone does (which is then admitted
    /// solo, to fail or co-process exactly as it would outside the
    /// server). Recomputed per admission round, so a device lost
    /// mid-batch tightens (or widens, if it was the smallest) the gate
    /// for everything still queued.
    pub fn gpu_budget(&self) -> Option<u64> {
        let failed = self.health.failed();
        self.session
            .engine()
            .server
            .gpus
            .iter()
            .enumerate()
            .filter(|(i, _)| !failed.contains(i))
            .map(|(_, g)| g.dram_capacity as u64)
            .min()
    }

    /// Register a table under its own name (bumps the catalog version —
    /// see [`SessionServer::register_table`]).
    pub fn register(&mut self, table: Table) {
        self.session.register(table);
    }

    /// Register a table under an explicit name, reporting whether it was
    /// fresh or replaced an existing table. Either way the catalog version
    /// advances, invalidating every cached build-side hash table on its
    /// next lookup — the typed invalidation path for replacing a table
    /// mid-session.
    pub fn register_table(
        &mut self,
        name: impl Into<String>,
        table: Table,
    ) -> TableRegistration {
        self.session.register_table(name, table)
    }

    /// Submit a query under the session's default config. Lowering,
    /// placement and the admission footprint estimate run now; failures
    /// are stored and surface as the query's [`QueryOutcome::report`]
    /// error (never aborting the batch).
    pub fn submit(&mut self, query: &Query) -> QueryHandle {
        let config = self.session.config().clone();
        self.submit_with(query, &config)
    }

    /// Submit under an explicit per-query config (placement, packet
    /// sizing, threads).
    pub fn submit_with(&mut self, query: &Query, config: &ExecConfig) -> QueryHandle {
        self.submit_inner(query, config, None)
    }

    /// Submit with a per-query simulated-time deadline: once the query's
    /// sim clock exceeds `budget` it stops at the next stage barrier and
    /// finishes as [`Outcome::TimedOut`] with the partial report it had —
    /// a scheduling outcome, not an error.
    pub fn submit_with_budget(
        &mut self,
        query: &Query,
        config: &ExecConfig,
        budget: SimTime,
    ) -> QueryHandle {
        self.submit_inner(query, config, Some(budget))
    }

    fn submit_inner(
        &mut self,
        query: &Query,
        config: &ExecConfig,
        budget: Option<SimTime>,
    ) -> QueryHandle {
        let handle = QueryHandle(self.next_id);
        self.next_id += 1;
        let prep = self.prepare(query, config);
        self.pending.push(Prepared {
            handle,
            name: query.name.clone(),
            prep,
            budget,
            cancel: CancelToken::new(),
        });
        handle
    }

    /// The cancellation token of a pending submission (`None` once the
    /// batch ran or for a foreign handle). Tokens are `Clone + Send`:
    /// trip one from any thread while [`SessionServer::run_all`] blocks
    /// and the query stops at its next stage barrier as
    /// [`Outcome::Canceled`].
    pub fn cancel_token(&self, handle: QueryHandle) -> Option<CancelToken> {
        self.pending.iter().find(|p| p.handle == handle).map(|p| p.cancel.clone())
    }

    /// Request cancellation of a pending submission (sugar for tripping
    /// its [`CancelToken`]). Returns false for an unknown handle.
    pub fn cancel(&self, handle: QueryHandle) -> bool {
        match self.cancel_token(handle) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Queries submitted and not yet run.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    fn prepare(&self, query: &Query, config: &ExecConfig) -> Result<PreparedPlan, HapeError> {
        let lowered = self.session.lower(query)?;
        let placed = self.session.place_lowered(&lowered, config)?;
        let gpu_footprint = gpu_footprint(&self.session, &lowered, &placed);
        Ok(PreparedPlan {
            lowered,
            placed,
            gpu_footprint,
            version: self.session.catalog().version(),
        })
    }

    /// Run every pending submission as one batch: admission-gate on GPU
    /// memory, interleave admitted queries round-robin (one placed stage
    /// per round), serve and harvest the build cache, and return per-query
    /// outcomes in submission order. Blocks until the whole batch is
    /// done; per-query failures are isolated into their outcomes.
    pub fn run_all(&mut self) -> ServeReport {
        let prepared = std::mem::take(&mut self.pending);
        let evictions_before = self.cache.stats.evictions;
        let gpu_budget = self.gpu_budget();
        let current_version = self.session.catalog().version();
        let engine = self.session.engine();

        // Split preparation failures out; the live submissions stay owned
        // here so the per-query executions can borrow their catalogs and
        // plans.
        let (live, failed): (Vec<Prepared>, Vec<Prepared>) =
            prepared.into_iter().partition(|p| p.prep.is_ok());
        let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(live.len() + failed.len());
        for p in failed {
            if let Err(e) = p.prep {
                outcomes.push(QueryOutcome {
                    handle: p.handle,
                    query: p.name,
                    admission_wait: 0,
                    gpu_reserved: 0,
                    outcome: Outcome::Failed,
                    report: Err(e),
                });
            }
        }

        struct Slot<'a> {
            sub: &'a Prepared,
            plan: &'a PreparedPlan,
            /// The running execution, once admitted and until it is done.
            exec: Option<QueryExec<'a>>,
            /// How the query left the batch, with its report or error.
            done: Option<(Outcome, Result<QueryReport, HapeError>)>,
            admission_wait: usize,
            reserved: u64,
        }
        let mut slots: Vec<Slot> = live
            .iter()
            .filter_map(|sub| {
                let plan = sub.prep.as_ref().ok()?;
                Some(Slot { sub, plan, exec: None, done: None, admission_wait: 0, reserved: 0 })
            })
            .collect();

        let mut reserved_total = 0u64;
        loop {
            // ---- Admission: FIFO in submission order, head-of-line
            // blocking (a queued query is never overtaken, so admission
            // order — and thus the cache's build/hit pattern — is
            // deterministic). A query is admitted when its footprint fits
            // the remaining budget, or unconditionally when the fleet is
            // idle (an oversized query then runs solo, failing or
            // co-processing exactly as it would outside the server).
            //
            // The budget is recomputed every round against the *surviving*
            // fleet: a GPU quarantined mid-batch changes the gate for
            // everything still queued.
            let budget = self.gpu_budget().unwrap_or(u64::MAX);
            for slot in slots.iter_mut() {
                if slot.done.is_some() || slot.exec.is_some() {
                    continue;
                }
                let fp = slot.plan.gpu_footprint;
                if fp != 0 && reserved_total != 0 && reserved_total.saturating_add(fp) > budget
                {
                    break; // head of line waits; everyone behind it too
                }
                reserved_total += fp;
                slot.reserved = fp;
                self.ledger.admitted(&slot.sub.name, slot.admission_wait, fp);
                match engine.begin(&slot.plan.lowered.catalog, &slot.plan.placed) {
                    Ok(exec) => {
                        slot.exec = Some(
                            exec.with_trace(self.ledger.recorder())
                                .with_fault_health(&self.faults, self.health.clone()),
                        );
                    }
                    Err(e) => {
                        // Admission failed at execution setup: isolate the
                        // error into this query and release its reservation.
                        slot.done = Some((Outcome::Failed, Err(HapeError::Engine(e))));
                        reserved_total -= fp;
                        slot.reserved = 0;
                    }
                }
            }

            // ---- One fair round: each admitted query advances one stage.
            let mut progressed = false;
            for slot in slots.iter_mut() {
                let Some(mut exec) = slot.exec.take() else {
                    // Still queued behind the admission gate: one more
                    // round of waiting.
                    if slot.done.is_none() {
                        slot.admission_wait += 1;
                        self.ledger.scheduled("admission.waits");
                    }
                    continue;
                };
                progressed = true;
                // ---- Cancellation: checked between stage steps. The
                // query keeps the partial report it accumulated.
                if slot.sub.cancel.is_canceled() {
                    slot.done = Some((Outcome::Canceled, Ok(exec.finish())));
                    reserved_total -= slot.reserved;
                    self.ledger.scheduled("serve.canceled");
                    continue;
                }
                // ---- Serve the next stage from the cross-query cache if
                // it is a build we already hold: a hash table built by an
                // *earlier* query this round is visible to later ones
                // immediately. The install makes `step` skip the stage —
                // no build work, no broadcast, no simulated time.
                if let Some((name, fpr)) = slot
                    .plan
                    .cacheable_build(exec.stage_index())
                    .filter(|_| self.cache.enabled())
                {
                    let (version, epoch) = (slot.plan.version, self.health.epoch());
                    let hit = self.cache.lookup(fpr, current_version, version, epoch);
                    self.ledger.cache_lookup(&slot.sub.name, name, hit.is_some());
                    if let Some((table, resident)) = hit {
                        exec.install_cached_build(name, table, resident);
                    }
                }
                if let Err(e) = exec.step() {
                    slot.done = Some((Outcome::Failed, Err(HapeError::Engine(e))));
                    reserved_total -= slot.reserved;
                    continue;
                }
                // Harvest a freshly built (not cache-served) hash table
                // into the cache right away, so queries later in this
                // same round already hit it at admission.
                if self.cache.enabled() && slot.plan.version == current_version {
                    let built = slot.plan.cacheable_build(exec.stage_index() - 1);
                    if let Some((name, fpr)) =
                        built.filter(|(_, fpr)| !self.cache.entries.contains_key(*fpr))
                    {
                        if let Some(table) = exec.built_table(name) {
                            let resident = plan_broadcasts(&slot.plan.placed, name);
                            let (version, epoch) = (slot.plan.version, self.health.epoch());
                            self.cache.insert(fpr.clone(), version, epoch, resident, table);
                        }
                    }
                }
                // ---- Per-query sim-time deadline, checked at the stage
                // barrier: over budget finishes with the partial report —
                // a scheduling outcome, not an error.
                let elapsed = exec.sim_time();
                let over = slot.sub.budget.filter(|&b| !exec.is_done() && elapsed > b);
                if !exec.is_done() && over.is_none() {
                    slot.exec = Some(exec);
                    continue;
                }
                // Done: release the reservation and drop the execution.
                let report = exec.finish();
                let outcome = match over {
                    Some(budget) => {
                        self.ledger.scheduled("serve.timed_out");
                        Outcome::TimedOut { budget, elapsed }
                    }
                    None if report.retries > 0 || report.replans > 0 => {
                        Outcome::Degraded { retries: report.retries, replans: report.replans }
                    }
                    None => Outcome::Completed,
                };
                slot.done = Some((outcome, Ok(report)));
                reserved_total -= slot.reserved;
            }
            if !progressed {
                break; // nothing running and nothing admitted: batch done
            }
        }

        for slot in slots {
            let (outcome, report) = slot.done.expect("scheduler resolves every slot");
            outcomes.push(QueryOutcome {
                handle: slot.sub.handle,
                query: slot.sub.name.clone(),
                admission_wait: slot.admission_wait,
                gpu_reserved: slot.reserved,
                outcome,
                report,
            });
        }
        outcomes.sort_by_key(|o| o.handle.0);
        let builds_evicted = self.cache.stats.evictions - evictions_before;
        ServeReport { outcomes, gpu_budget, builds_evicted }
    }
}

/// Whether any stage of the plan broadcasts hash table `ht` into GPU
/// memory — a build or stream stage with a GPU segment whose pipeline
/// probes it. A cache entry produced by such a plan is device-resident, so
/// later hits skip the PCIe broadcast too.
fn plan_broadcasts(placed: &PlacedPlan, ht: &str) -> bool {
    placed.stages.iter().any(|stage| match stage {
        PlacedStage::Build { pipeline, segments, .. }
        | PlacedStage::Stream { pipeline, segments } => {
            segments.iter().any(|s| s.target.is_gpu()) && pipeline.tables_probed().contains(&ht)
        }
        PlacedStage::CoProcess { .. } => false,
    })
}

/// Worst-case per-GPU working-set bytes across the plan's stages — the
/// admission signal. Optimizer-placed plans carry their chosen
/// [`StageCost`](crate::cost::StageCost)s; manual placements re-run the
/// cost model's capacity walk over the placed stages. Estimation failures
/// degrade to 0 (admit immediately): execution still capacity-checks for
/// real, so the worst case is solo-equivalent behaviour, never a new
/// failure mode.
fn gpu_footprint(session: &Session, lowered: &LoweredQuery, placed: &PlacedPlan) -> u64 {
    if let Some(costs) = &placed.costs {
        return costs
            .stages
            .iter()
            .filter(|c| c.gpu_capacity.is_some())
            .map(|c| c.gpu_required)
            .max()
            .unwrap_or(0);
    }
    let model = CostModel::new(&session.engine().server, &lowered.catalog);
    let mut hts: HtEstimates = HashMap::new();
    let mut worst = 0u64;
    for stage in &placed.stages {
        let Ok(est) = model.estimate_pipeline(stage.pipeline(), &hts) else {
            return 0;
        };
        let devices = stage.devices();
        let is_build = matches!(stage, PlacedStage::Build { .. });
        if let Ok(cost) = model.stage_cost(&est, &devices, is_build) {
            if cost.gpu_capacity.is_some() {
                worst = worst.max(cost.gpu_required);
            }
        }
        if let PlacedStage::Build { name, .. } = stage {
            hts.insert(name.clone(), est.table_estimate());
        }
    }
    worst
}
