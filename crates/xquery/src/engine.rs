//! The public engine API.
//!
//! An [`Engine`] builds a corpus: it loads documents, mounts layer sets
//! and overlays, binds external variables and sets the compile options
//! — most importantly the [`StandoffStrategy`] switch the paper's
//! Figure 6 experiment sweeps. Queries run on a [`Session`], the one
//! query handle: it owns the document store, the per-(document,
//! configuration) region-index cache and the per-query state, and it
//! defines every query, stats and run-time method. An engine owns one
//! session and reaches those methods through `Deref`.
//!
//! # Shared engines and sessions
//!
//! [`Engine::into_shared`] freezes the engine's session behind an
//! [`Arc`]; [`SharedEngine::session`] then stamps out cheap per-thread
//! copies that share the corpus (documents, element-name tables, region
//! indexes, layer groups) but construct results privately. This is the
//! substrate of the concurrent batch executor in [`crate::exec`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use standoff_algebra::{Item, LlSeq};
use standoff_core::join::{JoinCounters, JoinScratch};
use standoff_core::obs::{Counter, Histogram, MetricsRegistry};
use standoff_core::{Budget, IndexStats, RegionIndex, StandoffConfig, StandoffStrategy};
use standoff_xml::{DocId, Document, Store};

use crate::compile::{self, PlanContext};
use crate::error::QueryError;
use crate::eval::Evaluator;
use crate::parser::parse_query;
use crate::plan::Plan;
use crate::profile::{PlanProfile, QueryProfile};
use crate::result::QueryResult;

pub use standoff_core::JoinStats;

/// Engine-wide evaluation options.
///
/// These are *compile-time* inputs: the query compiler bakes them into
/// the plan (per-operator strategy and pushdown annotations), so a plan
/// compiled under one set of options is never affected by — and must
/// never be reused under — another. [`EngineOptions::fingerprint`] is
/// the cache-key component that enforces the latter.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// How StandOff axis steps and built-ins are evaluated (ignored per
    /// operator when `auto_strategy` is set).
    pub strategy: StandoffStrategy,
    /// Push element-name tests down into the region index as candidate
    /// sequences (§4.3). Disabling this is the ablation of §3.3(iii).
    pub candidate_pushdown: bool,
    /// Maximum user-defined function call depth.
    pub recursion_limit: usize,
    /// Let the optimizer choose each StandOff operator's strategy from
    /// region-index statistics ([`StandoffStrategy::pick_for`]) instead
    /// of applying `strategy` globally. Off by default so explicit
    /// strategy sweeps (the Figure 6 experiment) keep forcing.
    pub auto_strategy: bool,
    /// Record a per-operator execution profile (wall time, cardinality,
    /// join mechanism decisions — see [`crate::profile`]) for every
    /// query. Off by default; when off the evaluator pays a single
    /// branch per operator (the `TraceSink::enabled` pattern). Unlike
    /// the other options this is a pure *run-time* switch — it never
    /// changes the compiled plan — so it is deliberately **not** part
    /// of [`EngineOptions::fingerprint`]: profiled and unprofiled runs
    /// may share one cached plan.
    pub profile: bool,
    /// Worker threads a single query may fan a dense candidate scan out
    /// over (morsel-driven intra-query parallelism; 1 = sequential).
    /// Like `profile` this is a pure *run-time* switch — the plan and
    /// the results are identical at any thread count — so it is **not**
    /// part of [`EngineOptions::fingerprint`] either.
    pub threads: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategy: StandoffStrategy::LoopLiftedMergeJoin,
            candidate_pushdown: true,
            recursion_limit: 64,
            auto_strategy: false,
            profile: false,
            threads: 1,
        }
    }
}

impl EngineOptions {
    /// A stable fingerprint of every option that influences
    /// compilation. Plan caches key on `(query text, store generation,
    /// options fingerprint)`; omitting the fingerprint would let a plan
    /// compiled under one strategy/pushdown setting serve queries run
    /// under another. `profile` is excluded on purpose — it only
    /// affects execution, and toggling it must *not* fault warmed plans
    /// out of the cache.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the option bytes — stable within a process, which
        // is all a cache key needs.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.strategy as u8);
        eat(self.candidate_pushdown as u8);
        eat(self.auto_strategy as u8);
        for b in (self.recursion_limit as u64).to_le_bytes() {
            eat(b);
        }
        hash
    }
}

/// Pre-registered handles into an engine's [`MetricsRegistry`], created
/// once per engine so hot paths never touch the registry's map lock.
/// Cloning shares the underlying cells (sessions of one shared engine
/// all feed the same counters).
#[derive(Clone)]
pub(crate) struct MetricHandles {
    pub(crate) query_executions: Counter,
    pub(crate) query_exec_ns: Histogram,
    pub(crate) mounts: Counter,
    pub(crate) mount_ns: Histogram,
    /// Every `join.*` counter of the [`JoinStats`] table.
    pub(crate) join: JoinCounters,
    pub(crate) delta_merge_reads: Counter,
}

impl MetricHandles {
    fn new(registry: &MetricsRegistry) -> MetricHandles {
        MetricHandles {
            query_executions: registry.counter("query.executions"),
            query_exec_ns: registry.histogram("query.exec_ns"),
            mounts: registry.counter("engine.mounts"),
            mount_ns: registry.histogram("engine.mount_ns"),
            join: JoinCounters::register(registry),
            delta_merge_reads: registry.counter("store.delta.merge_reads"),
        }
    }
}

/// Source of store-generation stamps: every corpus-shaping mutation of
/// any engine draws a fresh, process-unique number. Caches keyed on
/// `(query text, generation)` therefore never serve an entry built
/// against different mounted content, even across unrelated engines.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The query handle: a document store with its region indexes and
/// mounted layer groups, the evaluation options, and the per-query
/// state (constructed documents, join scratch, counters, profile,
/// budget).
///
/// Every query, stats and run-time method lives here. An [`Engine`]
/// owns one session and reaches these methods through `Deref`; a
/// [`SharedEngine`] freezes one behind an [`Arc`] and stamps out
/// per-thread copies with [`SharedEngine::session`]. A copy shares the
/// (Arc'd) documents and region indexes and costs a pointer per shared
/// document plus the small URI / layer maps. Queries take `&mut self`,
/// so one worker drives a session at a time.
///
/// # Join counters
///
/// [`Session::join_stats`] is **cumulative per session**, never per
/// query: every query run on the same session adds to it. A fresh
/// session from [`SharedEngine::session`] starts at zero — it does
/// *not* inherit counts accumulated before the engine was frozen. To
/// meter one query (or any window), call [`Session::reset_join_stats`]
/// first or use [`Session::take_join_stats`], which returns the counts
/// since the last take/reset and zeroes them in one step. The same
/// events are also added to the engine's [`MetricsRegistry`] under
/// `join.*` names, where they accumulate engine-wide across all
/// sessions.
#[derive(Clone)]
pub struct Session {
    pub(crate) store: Store,
    pub(crate) options: EngineOptions,
    region_cache: HashMap<(u32, StandoffConfig), Arc<RegionIndex>>,
    /// Mounted layer groups: group id → member documents (base first).
    /// StandOff axes join across all members of a group.
    layer_groups: Vec<Vec<DocId>>,
    /// Document id → its layer group, for mounted documents.
    doc_group: HashMap<u32, u32>,
    /// The configuration each mounted layer's index was built under.
    layer_configs: HashMap<u32, StandoffConfig>,
    /// `(store uri, layer name)` → document, for the `layer()` builtin.
    layer_lookup: HashMap<(String, String), DocId>,
    /// Overlay retractions: document id → strictly ascending,
    /// subtree-expanded pre ranks hidden by a mounted delta. Empty on
    /// pure corpora — the zero-cost common case.
    retracted: HashMap<u32, Arc<Vec<u32>>>,
    /// Parent layer document → the delta document carrying its pending
    /// inserts (mounted as an extra member of the same layer group).
    delta_of: HashMap<u32, DocId>,
    /// Document ids that *are* delta documents.
    delta_docs: std::collections::HashSet<u32>,
    /// Values for `declare variable $x external` declarations.
    externals: HashMap<String, Vec<Item>>,
    /// Reusable buffers for the StandOff join hot path; lives on the
    /// session so batch workers reuse one allocation set across queries
    /// (cloning a session starts the clone with cold, empty scratch).
    pub(crate) join_scratch: JoinScratch,
    /// Fast-path decision counters (see [`JoinStats`]).
    pub(crate) join_stats: JoinStats,
    /// The engine's metrics registry. Shared (not cloned) across every
    /// session of a [`SharedEngine`], so counters accumulate
    /// engine-wide while tests with private engines stay isolated.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Pre-registered counter/histogram handles into `metrics`.
    pub(crate) handles: MetricHandles,
    /// The per-operator profile of the most recent profiled execution
    /// (see [`EngineOptions::profile`]).
    pub(crate) last_profile: Option<PlanProfile>,
    /// Governance handle for the *next* executions on this session:
    /// deadline, result-cardinality and scratch caps, cooperative
    /// cancellation. Runtime-only — never part of the options
    /// fingerprint (a governed and an ungoverned run share compiled
    /// plans), and cleared when a session is stamped out.
    pub(crate) budget: Option<Budget>,
    /// Documents of the corpus proper; everything at or beyond this id
    /// is query-constructed and dropped by [`Session::reset`].
    base_docs: usize,
}

impl Session {
    fn new(options: EngineOptions) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let handles = MetricHandles::new(&metrics);
        Session {
            store: Store::new(),
            options,
            region_cache: HashMap::new(),
            layer_groups: Vec::new(),
            doc_group: HashMap::new(),
            layer_configs: HashMap::new(),
            layer_lookup: HashMap::new(),
            retracted: HashMap::new(),
            delta_of: HashMap::new(),
            delta_docs: std::collections::HashSet::new(),
            externals: HashMap::new(),
            join_scratch: JoinScratch::default(),
            join_stats: JoinStats::default(),
            metrics,
            handles,
            last_profile: None,
            budget: None,
            base_docs: 0,
        }
    }

    /// The region index of a document under a configuration, built on
    /// first use and cached (documents are immutable).
    pub(crate) fn region_index(
        &mut self,
        doc: DocId,
        config: &StandoffConfig,
    ) -> Result<Arc<RegionIndex>, QueryError> {
        let key = (doc.0, config.clone());
        if let Some(idx) = self.region_cache.get(&key) {
            return Ok(Arc::clone(idx));
        }
        let index = Arc::new(RegionIndex::build(self.store.doc(doc), config)?);
        self.region_cache.insert(key, Arc::clone(&index));
        Ok(index)
    }

    /// Drop documents with id ≥ `len` and their cached indexes.
    fn truncate_docs(&mut self, len: usize) {
        self.store.truncate(len);
        self.region_cache
            .retain(|(doc, _), _| (*doc as usize) < len);
    }

    /// The layer group a mounted document belongs to, if any.
    pub(crate) fn layer_group_id(&self, doc: DocId) -> Option<u32> {
        self.doc_group.get(&doc.0).copied()
    }

    /// Member documents of a layer group (base first).
    pub(crate) fn layer_group_members(&self, group: u32) -> &[DocId] {
        &self.layer_groups[group as usize]
    }

    /// The configuration a mounted layer's index was registered under.
    pub(crate) fn layer_config(&self, doc: DocId) -> Option<&StandoffConfig> {
        self.layer_configs.get(&doc.0)
    }

    /// Resolve `layer("uri", "name")` to a mounted layer document.
    pub(crate) fn layer_doc(&self, uri: &str, layer: &str) -> Option<DocId> {
        self.layer_lookup
            .get(&(uri.to_string(), layer.to_string()))
            .copied()
    }

    /// Overlay retractions of a document: strictly ascending,
    /// subtree-expanded pre ranks hidden until the next compaction.
    /// Empty for pure (non-overlay) documents.
    pub(crate) fn retractions_of(&self, doc: DocId) -> &[u32] {
        self.retracted.get(&doc.0).map_or(&[], |v| v.as_slice())
    }

    /// Does any mounted document carry retractions? A single branch that
    /// keeps the pure read path free of per-node retraction checks.
    #[inline]
    pub(crate) fn has_retractions(&self) -> bool {
        !self.retracted.is_empty()
    }

    /// Is `doc` a mounted delta document (pending overlay inserts)?
    pub(crate) fn is_delta_doc(&self, doc: DocId) -> bool {
        self.delta_docs.contains(&doc.0)
    }

    /// The delta document mounted over a layer document, if any.
    pub(crate) fn delta_doc_of(&self, doc: DocId) -> Option<DocId> {
        self.delta_of.get(&doc.0).copied()
    }

    /// Does any mounted document carry a delta companion? The pure-mount
    /// fast-path branch for tree-step context expansion.
    #[inline]
    pub(crate) fn has_delta_docs(&self) -> bool {
        !self.delta_docs.is_empty()
    }

    /// The layer document a delta document overlays (inverse of
    /// [`Self::delta_doc_of`]). Linear in the number of overlaid layers,
    /// which is small and only walked on overlay mounts.
    pub(crate) fn base_doc_of(&self, delta: DocId) -> Option<DocId> {
        self.delta_of
            .iter()
            .find(|(_, d)| **d == delta)
            .map(|(base, _)| DocId(*base))
    }

    /// The compilation context this session offers the query compiler:
    /// current options plus statistics of every region index available
    /// right now (mounted snapshot indexes and lazily built ones).
    /// Estimates are off — execution paths don't pay for explain-only
    /// annotations; the explain entry points flip
    /// [`PlanContext::estimates`] on.
    pub(crate) fn plan_context(&self) -> PlanContext<'_> {
        let mut stats = IndexStats::default();
        for ((doc, _), index) in self.region_cache.iter() {
            // Overlay retractions are subtracted per index, so the
            // optimizer costs the *visible* corpus, not the raw columns.
            let retracted = self.retracted.get(doc).map_or(&[][..], |v| v.as_slice());
            stats.merge(standoff_core::RegionSource::with_retractions(index, retracted).stats());
        }
        PlanContext {
            options: &self.options,
            store: Some(&self.store),
            index_stats: stats,
            estimates: false,
            retracted: if self.retracted.is_empty() {
                None
            } else {
                Some(&self.retracted)
            },
            delta_docs: if self.delta_docs.is_empty() {
                None
            } else {
                Some(&self.delta_docs)
            },
        }
    }

    /// Compile a query into its optimized plan under the current options
    /// and index statistics — the plan cache's compile path, so the
    /// explain-only estimate pass is skipped ([`Session::explain`] and
    /// [`Session::run_profiled`] run it).
    pub fn compile(&self, query: &str) -> Result<Plan, QueryError> {
        compile::compile(&parse_query(query)?, &self.plan_context())
    }

    /// [`Session::compile`] plus the explain-grade `estimate` pass.
    fn compile_with_estimates(&self, query: &str) -> Result<Plan, QueryError> {
        let mut ctx = self.plan_context();
        ctx.estimates = true;
        compile::compile(&parse_query(query)?, &ctx)
    }

    /// Render the optimized plan of a query under the current options
    /// and corpus statistics (see [`crate::explain`]). The text is
    /// generated from the very plan object execution would run.
    pub fn explain(&self, query: &str) -> Result<String, QueryError> {
        let plan = self.compile_with_estimates(query)?;
        Ok(crate::explain::explain_plan(&plan))
    }

    /// Evaluate a compiled plan — the single execution entry point every
    /// query path funnels through. Always meters `query.executions` /
    /// `query.exec_ns` in the engine's registry; records a per-operator
    /// [`PlanProfile`] (retrievable via [`Session::take_last_profile`])
    /// when [`EngineOptions::profile`] is on.
    pub fn execute_plan(&mut self, plan: &Plan) -> Result<QueryResult, QueryError> {
        let started = Instant::now();
        // A budget that tripped before we even start (deadline already
        // past, request cancelled in the queue) refuses cleanly here.
        if let Some(b) = &self.budget {
            b.check()?;
        }
        // External variable values are cloned out first so the evaluator
        // can borrow the session mutably.
        let mut external_values = Vec::with_capacity(plan.externals.len());
        for name in &plan.externals {
            let items = self.externals.get(name).cloned().ok_or_else(|| {
                QueryError::stat(format!(
                    "external variable ${name} has no value (Engine::bind_external)"
                ))
            })?;
            external_values.push((name.clone(), items));
        }
        let profiling = self.options.profile;
        let mut evaluator = Evaluator::new(self, plan.config.clone());
        if profiling {
            evaluator.enable_profiling();
        }
        evaluator.functions = plan.functions.clone();
        for (name, items) in external_values {
            evaluator.bind(&name, LlSeq::for_iter(0, items));
        }
        // Global variables evaluate in declaration order in the root
        // scope.
        let outcome = (|| {
            for (name, expr) in &plan.globals {
                let value = evaluator.eval(expr)?;
                evaluator.bind(name, value);
            }
            evaluator.eval(&plan.body)
        })();
        let profile = evaluator.take_profile();
        if profiling {
            self.last_profile = profile;
        }
        self.handles.query_executions.inc();
        self.handles
            .query_exec_ns
            .record_duration(started.elapsed());
        let items = outcome?.into_items();
        Ok(QueryResult::new(items, &self.store))
    }

    /// Parse, compile, optimize and evaluate a query; returns the
    /// materialized result sequence.
    pub fn run(&mut self, query: &str) -> Result<QueryResult, QueryError> {
        let plan = self.compile(query)?;
        self.execute_plan(&plan)
    }

    /// Evaluate a query through the *unoptimized* direct-AST lowering —
    /// the reference path the `plan_equivalence` suite holds the
    /// optimizer against. Not a production entry point.
    #[doc(hidden)]
    pub fn run_unoptimized(&mut self, query: &str) -> Result<QueryResult, QueryError> {
        let plan = compile::lower(&parse_query(query)?, &self.plan_context())?;
        self.execute_plan(&plan)
    }

    /// Evaluate a query and return only the result cardinality, dropping
    /// any documents the query constructed. Benchmark harnesses use this
    /// so repeated runs neither pay serialization costs nor accumulate
    /// constructed results in the store.
    pub fn run_and_discard(&mut self, query: &str) -> Result<usize, QueryError> {
        let docs_before = self.store.len();
        let result = self.run(query);
        self.truncate_docs(docs_before);
        result.map(|r| r.len())
    }

    /// Run a query with per-operator profiling forced on, returning the
    /// result together with the executed plan and its profile. The plan
    /// is compiled with explain-grade estimates so renderings can show
    /// estimate-vs-actual drift.
    pub fn run_profiled(&mut self, query: &str) -> Result<(QueryResult, QueryProfile), QueryError> {
        let plan = Arc::new(self.compile_with_estimates(query)?);
        let was = self.options.profile;
        self.options.profile = true;
        let outcome = self.execute_plan(&plan);
        self.options.profile = was;
        let ops = self.last_profile.take().unwrap_or_default();
        Ok((outcome?, QueryProfile { plan, ops }))
    }

    /// `explain analyze`: execute the query with profiling and render
    /// the plan tree annotated with measured rows/time per operator
    /// next to the optimizer's estimates (see [`crate::explain`]).
    pub fn explain_analyze(&mut self, query: &str) -> Result<String, QueryError> {
        let (result, profile) = self.run_profiled(query)?;
        let mut out = profile.render();
        out.push_str(&format!("result: {} item(s)\n", result.len()));
        Ok(out)
    }

    /// Drop query-constructed documents and their cached indexes,
    /// returning the session to its post-creation state. Call between
    /// queries to keep long-lived worker sessions from accumulating
    /// constructed results.
    pub fn reset(&mut self) {
        self.truncate_docs(self.base_docs);
    }

    /// The document store: the corpus plus documents constructed by
    /// queries since the last [`Session::reset`].
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Current evaluation options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The engine's metrics registry: join mechanism counters, query
    /// execution timings, mount timings. Shared by the engine and every
    /// session stamped out of it.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Counters of the join executor's fast-path decisions accumulated
    /// by queries run on this session (see the type-level docs for the
    /// reset semantics).
    pub fn join_stats(&self) -> JoinStats {
        self.join_stats
    }

    /// Reset the [`JoinStats`] counters to zero.
    pub fn reset_join_stats(&mut self) {
        self.join_stats = JoinStats::default();
    }

    /// The [`JoinStats`] accumulated since the last take/reset, zeroing
    /// the counters in one step.
    pub fn take_join_stats(&mut self) -> JoinStats {
        std::mem::take(&mut self.join_stats)
    }

    /// Enable/disable per-operator execution profiling (see
    /// [`EngineOptions::profile`]). A pure run-time switch — compiled
    /// and cached plans are unaffected.
    pub fn set_profile(&mut self, enabled: bool) {
        self.options.profile = enabled;
    }

    /// Set the intra-query morsel parallelism budget (see
    /// [`EngineOptions::threads`]). A run-time switch: results and plans
    /// are identical at any thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.options.threads = threads.max(1);
    }

    /// Install (or clear, with `None`) the governance budget for
    /// subsequent runs: deadline, result-cardinality and scratch-memory
    /// caps, and cooperative cancellation via [`Budget::cancel`] (keep a
    /// clone to cancel from another thread). A run-time switch like
    /// profiling — compiled and cached plans are unaffected, and an
    /// exhausted budget must be replaced (budgets do not reset between
    /// queries).
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget;
    }

    /// The per-operator profile of the most recent profiled run,
    /// consuming it (`None` unless profiling was on).
    pub fn take_last_profile(&mut self) -> Option<PlanProfile> {
        self.last_profile.take()
    }
}

/// The XQuery engine with StandOff support: the builder side — loading,
/// mounting, external bindings and compile options — over one owned
/// [`Session`], whose query, stats and run-time methods it reaches
/// through `Deref`.
pub struct Engine {
    session: Session,
    /// Stamp of the last corpus-shaping mutation (see
    /// [`SharedEngine::generation`]).
    generation: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Engine {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.session
    }
}

impl std::ops::DerefMut for Engine {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl Engine {
    pub fn new() -> Self {
        Self::with_options(EngineOptions::default())
    }

    pub fn with_options(options: EngineOptions) -> Self {
        Engine {
            session: Session::new(options),
            generation: fresh_generation(),
        }
    }

    /// Record a corpus-shaping mutation: a fresh generation stamp, and
    /// everything loaded so far becomes corpus that
    /// [`Session::reset`] keeps.
    fn corpus_changed(&mut self) {
        self.generation = fresh_generation();
        self.session.base_docs = self.session.store.len();
    }

    /// Provide the value of a `declare variable $name external`
    /// declaration for subsequent runs.
    pub fn bind_external(&mut self, name: &str, items: Vec<Item>) {
        self.session.externals.insert(name.to_string(), items);
        self.corpus_changed();
    }

    /// Convenience: bind an external variable to a single string.
    pub fn bind_external_string(&mut self, name: &str, value: &str) {
        self.bind_external(name, vec![Item::str(value)]);
    }

    /// Convenience: bind an external variable to a single integer.
    pub fn bind_external_integer(&mut self, name: &str, value: i64) {
        self.bind_external(name, vec![Item::Integer(value)]);
    }

    /// Parse and register a document under a URI for `fn:doc`.
    ///
    /// Re-registering a plain URI rebinds it (the store's historical
    /// behavior), but URIs claimed by a mounted layer set are protected —
    /// silently shadowing a layer would leave `doc()` and `layer()`
    /// resolving to different documents.
    pub fn load_document(&mut self, uri: &str, xml: &str) -> Result<DocId, QueryError> {
        if let Some(existing) = self.session.store.by_uri(uri) {
            if self.session.layer_group_id(existing).is_some() {
                return Err(QueryError::stat(format!(
                    "cannot load document: '{uri}' is a mounted store layer"
                )));
            }
        }
        let id = self.session.store.load(uri, xml)?;
        self.corpus_changed();
        Ok(id)
    }

    /// Register an already-shredded document.
    pub fn add_document(&mut self, doc: Document, uri: Option<&str>) -> DocId {
        let id = self.session.store.add(doc, uri);
        self.corpus_changed();
        id
    }

    /// Mount a persistent layer set (typically loaded from a
    /// `standoff-store` snapshot) — [`Engine::mount_overlay`] with an
    /// empty delta. Returns the base document's id.
    pub fn mount_store(&mut self, set: standoff_store::LayerSet) -> Result<DocId, QueryError> {
        self.mount_overlay(set, &standoff_store::DeltaSet::new())
    }

    /// Mount every layer of a [`standoff_store::Snapshot`] — the
    /// *prefetch* form of snapshot mounting: all layers are materialized
    /// up front (zero-copy for v3 files) and shared with the snapshot's
    /// layer cache. To mount selectively, materialize layers through
    /// [`standoff_store::Snapshot::layer`] and assemble a
    /// [`standoff_store::LayerSet`] for [`Engine::mount_store`].
    pub fn mount_snapshot(
        &mut self,
        snapshot: &standoff_store::Snapshot,
    ) -> Result<DocId, QueryError> {
        let started = Instant::now();
        let set = snapshot
            .to_layer_set()
            .map_err(|e| QueryError::stat(format!("cannot mount snapshot: {e}")))?;
        self.session
            .metrics
            .record("engine.snapshot_materialize_ns", elapsed_ns(started));
        self.mount_store(set)
    }

    /// Mount a layer set together with a pending [`DeltaSet`](standoff_store::DeltaSet) overlay —
    /// the merge-on-read mount behind [`crate::WritableEngine`]. Returns
    /// the base document's id.
    ///
    /// * the base layer registers under the set's URI, so `doc("uri")`
    ///   resolves to it;
    /// * every other layer registers under `uri#name` (also reachable via
    ///   the `layer("uri", "name")` builtin);
    /// * each layer's prebuilt region index is installed in the engine's
    ///   cache under the layer's own configuration — the snapshot's
    ///   indices are used as-is, never rebuilt, and document and index
    ///   stay shared with the layer set: mounting is pointer plumbing,
    ///   not a copy of column data;
    /// * all layers of the set form one *layer group*: StandOff axis
    ///   steps and the `select-narrow(..)` builtin family join across the
    ///   whole group, so `entities` can be narrowed by `tokens`.
    ///
    /// Per layer the delta mutates:
    ///
    /// * pending **inserts** materialize as a small sibling document
    ///   (`uri#layer#delta`) mounted into the same layer group,
    ///   *immediately after* its parent layer — document ids drive
    ///   cross-document order, and compaction appends inserts at the end
    ///   of the parent's root, so adjacency keeps the merged stream and
    ///   the compacted snapshot in the same document order;
    /// * pending **retracts** become the layer's hidden-pre set, which
    ///   joins, tree steps and the optimizer's statistics subtract via
    ///   [`standoff_core::RegionSource`].
    ///
    /// An empty delta adds no overlay bookkeeping at all.
    pub fn mount_overlay(
        &mut self,
        set: standoff_store::LayerSet,
        delta: &standoff_store::DeltaSet,
    ) -> Result<DocId, QueryError> {
        let started = Instant::now();
        let (uri, layers) = set.into_layers();
        let overlay_err =
            |e: &dyn std::fmt::Display| QueryError::stat(format!("cannot mount overlay: {e}"));
        // Per layer: registration URI, hidden pres, and the indexed
        // insert document (if any) with its derived URI. Prepared fully
        // before any state is touched so a failed mount changes nothing.
        let mut prepared = Vec::with_capacity(layers.len());
        for (k, layer) in layers.iter().enumerate() {
            let doc_uri = if k == 0 {
                uri.clone()
            } else {
                format!("{uri}#{}", layer.name())
            };
            let (retracted, inserts) = match delta.layer_delta(layer.name()) {
                Some(d) => (
                    d.retracted_pres(layer),
                    d.insert_doc(layer).map_err(|e| overlay_err(&e))?,
                ),
                None => (Vec::new(), None),
            };
            let inserts = inserts
                .map(|doc| -> Result<_, QueryError> {
                    let index =
                        RegionIndex::build(&doc, layer.config()).map_err(|e| overlay_err(&e))?;
                    Ok((format!("{doc_uri}#delta"), Arc::new(doc), Arc::new(index)))
                })
                .transpose()?;
            prepared.push((doc_uri, retracted, inserts));
        }
        // Check every URI the mount will claim before registering any,
        // so a mount never silently rebinds an existing registration.
        for (doc_uri, _, inserts) in &prepared {
            for u in std::iter::once(doc_uri).chain(inserts.as_ref().map(|(u, ..)| u)) {
                if self.session.store.by_uri(u).is_some() {
                    return Err(QueryError::stat(format!(
                        "cannot mount store: a document is already registered at '{u}'"
                    )));
                }
            }
        }
        let s = &mut self.session;
        let group_id = s.layer_groups.len() as u32;
        let mut members = Vec::with_capacity(layers.len());
        let mut register = |s: &mut Session, doc, doc_uri: &str, config: &StandoffConfig, index| {
            let id = s.store.add_shared(doc, Some(doc_uri));
            s.region_cache.insert((id.0, config.clone()), index);
            s.layer_configs.insert(id.0, config.clone());
            s.doc_group.insert(id.0, group_id);
            members.push(id);
            id
        };
        for (layer, (doc_uri, retracted, inserts)) in layers.into_iter().zip(prepared) {
            let (name, config, doc, index) = layer.into_parts();
            let id = register(s, doc, &doc_uri, &config, index);
            s.layer_lookup.insert((uri.clone(), name), id);
            if !retracted.is_empty() {
                s.retracted.insert(id.0, Arc::new(retracted));
            }
            if let Some((delta_uri, doc, index)) = inserts {
                let did = register(s, doc, &delta_uri, &config, index);
                s.delta_of.insert(id.0, did);
                s.delta_docs.insert(did.0);
            }
        }
        let base = members[0];
        s.layer_groups.push(members);
        s.handles.mounts.inc();
        s.handles.mount_ns.record_duration(started.elapsed());
        self.corpus_changed();
        Ok(base)
    }

    /// Switch the StandOff evaluation strategy (Figure 6's independent
    /// variable).
    ///
    /// Option changes do *not* bump the store generation: the
    /// generation stamps corpus identity, while plan caches key the
    /// options separately via [`EngineOptions::fingerprint`].
    pub fn set_strategy(&mut self, strategy: StandoffStrategy) {
        self.session.options.strategy = strategy;
    }

    /// Enable/disable candidate-sequence pushdown (§4.3 ablation).
    pub fn set_candidate_pushdown(&mut self, enabled: bool) {
        self.session.options.candidate_pushdown = enabled;
    }

    /// Enable/disable per-operator strategy selection from index
    /// statistics (see [`EngineOptions::auto_strategy`]).
    pub fn set_auto_strategy(&mut self, enabled: bool) {
        self.session.options.auto_strategy = enabled;
    }

    /// Pre-build the region index for a document under a configuration
    /// (otherwise built lazily on the first StandOff step). Useful to
    /// exclude index construction from benchmark timings, mirroring the
    /// paper's pre-created indices — and to build an index once *before*
    /// [`Engine::into_shared`] instead of once per session after.
    pub fn prebuild_region_index(
        &mut self,
        doc: DocId,
        config: &StandoffConfig,
    ) -> Result<(), QueryError> {
        self.session.region_index(doc, config)?;
        Ok(())
    }

    /// The engine's current store-generation stamp: changes whenever a
    /// corpus-shaping mutation (load, mount, rebind) happens. See
    /// [`SharedEngine::generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Freeze this engine into an immutable, thread-shareable corpus.
    ///
    /// Everything loaded or mounted so far — documents, element-name
    /// tables, region indexes built or installed up to this point,
    /// layer groups, options, external bindings — becomes the shared
    /// base every [`Session`] evaluates against.
    pub fn into_shared(self) -> SharedEngine {
        SharedEngine {
            core: Arc::new(self.session),
            generation: self.generation,
        }
    }
}

/// A frozen engine, shareable across threads.
///
/// Cloning is one atomic increment; every clone sees the same corpus.
/// Read access (compile, explain, store, options, metrics) goes through
/// `Deref` to the frozen [`Session`]; stamp out a private session per
/// worker thread to evaluate queries.
#[derive(Clone)]
pub struct SharedEngine {
    core: Arc<Session>,
    generation: u64,
}

impl std::ops::Deref for SharedEngine {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.core
    }
}

impl SharedEngine {
    /// Create a per-thread evaluation session over the shared corpus.
    ///
    /// No document or index data is copied. The session's [`JoinStats`]
    /// start at zero (it does not inherit counts accumulated before the
    /// freeze); its metrics registry is *shared* with the engine and
    /// every sibling session.
    pub fn session(&self) -> Session {
        let mut session = self.core.as_ref().clone();
        session.join_stats = JoinStats::default();
        session.last_profile = None;
        // Governance is per request, never inherited: a budget frozen
        // into the shared core must not govern (or cancel) every
        // future session.
        session.budget = None;
        session.base_docs = session.store.len();
        session
    }

    /// The generation stamp of the frozen corpus: changes whenever the
    /// originating engine loaded, mounted or rebound anything before
    /// freezing. Cache keys derived from query text must include it
    /// *and* the options fingerprint (see [`crate::exec::QueryCache`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The same corpus under different evaluation options — strategy
    /// sweeps over one mounted corpus without re-loading anything. The
    /// generation stamp is preserved (the corpus is identical); plan
    /// caches distinguish the variants by options fingerprint. The
    /// metrics registry stays shared.
    pub fn with_options(&self, options: EngineOptions) -> SharedEngine {
        let mut session = self.core.as_ref().clone();
        session.options = options;
        SharedEngine {
            core: Arc::new(session),
            generation: self.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::config_from_prolog;

    #[test]
    fn options_default_to_loop_lifted() {
        let engine = Engine::new();
        assert_eq!(
            engine.options().strategy,
            StandoffStrategy::LoopLiftedMergeJoin
        );
        assert!(engine.options().candidate_pushdown);
    }

    #[test]
    fn prolog_standoff_options() {
        let prolog = crate::parser::parse_query(
            r#"declare option standoff-start "from";
               declare option standoff-end "to";
               declare option standoff-region "span";
               1"#,
        )
        .unwrap()
        .prolog;
        let config = config_from_prolog(&prolog).unwrap();
        assert_eq!(config.start_name, "from");
        assert_eq!(config.end_name, "to");
        assert_eq!(config.region_name.as_deref(), Some("span"));
    }

    #[test]
    fn invalid_standoff_type_rejected() {
        let prolog = crate::parser::parse_query(r#"declare option standoff-type "xs:duration"; 1"#)
            .unwrap()
            .prolog;
        assert!(config_from_prolog(&prolog).is_err());
    }

    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<SharedEngine>();
        assert_send::<Session>();
        assert_send::<QueryResult>();
    }

    #[test]
    fn sessions_share_documents_but_not_constructions() {
        let mut engine = Engine::new();
        engine.load_document("d.xml", "<a><b/><b/></a>").unwrap();
        let shared = engine.into_shared();
        let mut s1 = shared.session();
        let mut s2 = shared.session();
        // A constructor adds a session-local document…
        let r1 = s1.run(r#"<wrap>{count(doc("d.xml")//b)}</wrap>"#).unwrap();
        assert_eq!(r1.as_xml(), "<wrap>2</wrap>");
        assert_eq!(s1.store().len(), shared.store().len() + 1);
        // …invisible to the sibling session and the shared corpus.
        assert_eq!(s2.store().len(), shared.store().len());
        let r2 = s2.run(r#"count(doc("d.xml")//b)"#).unwrap();
        assert_eq!(r2.as_strings(), ["2"]);
        // Reset drops the construction.
        s1.reset();
        assert_eq!(s1.store().len(), shared.store().len());
    }

    #[test]
    fn generation_changes_on_mutation() {
        let mut engine = Engine::new();
        engine.load_document("a", "<a/>").unwrap();
        let g0 = engine.generation();
        engine.load_document("b", "<b/>").unwrap();
        assert_ne!(g0, engine.generation());
        let other = Engine::new();
        // Stamps are process-unique, never reused across engines.
        assert_ne!(other.generation(), engine.generation());
    }
}
