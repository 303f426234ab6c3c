//! Multi-session query service over built MLOC variables.
//!
//! The execution layer answers one query per call; exploration
//! workloads are many *sessions* — queries from different tenants,
//! arriving together, over shared datasets. [`QueryServer`] admits
//! them in FIFO **admission windows** and runs each window on a
//! scoped worker pool ([`mloc_runtime::parallel_map`]), sharing two
//! cross-session structures:
//!
//! * the 16-way sharded [`BlockCache`] as the block store (decompressed
//!   index headers, bitmaps, PLoD parts survive across sessions), and
//! * an [`ExtentFuser`] that merges the coalesced-read want-lists of
//!   concurrently admitted queries, so overlapping bin extents are
//!   read from the PFS once and fanned out as `Arc`-backed views to
//!   every waiting session (see `DESIGN.md` §13).
//!
//! # Scheduling and fairness
//!
//! Sessions of the *same* tenant always run serially in submission
//! order; distinct tenants run concurrently, up to
//! [`ServeConfig::workers`] at a time. Combined with budgets charged
//! in *logical bytes* (`bytes_read + bytes_saved + fused_bytes_saved`
//! — invariant under cache and fusion state), this makes budget
//! enforcement deterministic: whether a session is admitted depends
//! only on the workload and the seed, never on thread timing, and a
//! tenant is charged for what it asked for, not for what the cache or
//! a neighbor's read happened to cover.
//!
//! # Example
//!
//! ```
//! use mloc::prelude::*;
//! use mloc_pfs::MemBackend;
//! use mloc_serve::{QueryServer, ServeConfig, SessionSpec, TenantBudget};
//!
//! let be = MemBackend::new();
//! let values: Vec<f64> = (0..256).map(|i| i as f64).collect();
//! let config = MlocConfig::builder(vec![16, 16])
//!     .chunk_shape(vec![8, 8])
//!     .num_bins(4)
//!     .build();
//! build_variable(&be, "demo", "t", &values, &config).unwrap();
//!
//! let mut server = QueryServer::new(&be, ServeConfig::default());
//! server.set_budget("alice", TenantBudget::bytes(1 << 20));
//! let sessions = vec![
//!     SessionSpec::new("alice", "demo", "t", Query::region(10.0, 90.0)),
//!     SessionSpec::new("bob", "demo", "t", Query::values_where(10.0, 90.0)),
//! ];
//! let reports = server.run(&sessions);
//! assert!(reports.iter().all(|r| r.outcome.is_ok()));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mloc::fusion::FusionStats;
use mloc::{
    BlockCache, CacheStats, ExtentFuser, MlocError, MlocStore, ParallelExecutor, ProgressiveStep,
    Query, QueryMetrics, QueryResult,
};
use mloc_pfs::{CostModel, RetryPolicy, StorageBackend};
use mloc_runtime::parallel_map;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Completed-read retention budget of a server's fuser, in MiB.
const FUSION_WINDOW_MB: u64 = 64;

/// Server configuration; [`ServeConfig::default`] is a sensible
/// interactive setup (4 workers, windows of 8, cache and fusion on).
/// Sessions are priced on the default [`CostModel`] and may complete
/// degraded (see [`ParallelExecutor::allow_degraded`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent worker threads per admission window (tenant groups
    /// are the unit of parallelism; same-tenant sessions never race).
    pub workers: usize,
    /// Sessions admitted per window. The fuser's retained extents
    /// reset at window boundaries; every session still CRC-checks each
    /// extent it is handed, fused or not.
    pub window: usize,
    /// Shared block-cache budget in MiB (0 disables the cache).
    pub cache_mb: u64,
    /// Whether to fuse overlapping extent reads across the window's
    /// sessions (the fuser retains up to 64 MiB of completed reads).
    pub fusion: bool,
    /// Ranks each session executes over.
    pub nranks: usize,
    /// Run ranks threaded (the deployment shape) instead of replay.
    pub threaded: bool,
    /// Retry policy for transient storage errors.
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            window: 8,
            cache_mb: 64,
            fusion: true,
            nranks: 1,
            threaded: false,
            retry: RetryPolicy::none(),
        }
    }
}

/// Per-tenant admission limits. A session is admitted while the
/// tenant's accumulated usage is *below* every configured limit, and
/// charged on completion — so enforcement is deterministic (the
/// decision never depends on sessions still in flight).
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantBudget {
    /// Max accumulated *logical* bytes (`bytes_read + bytes_saved +
    /// fused_bytes_saved`) before further sessions are rejected.
    /// Logical bytes are invariant under cache and fusion state, which
    /// is what makes byte budgets deterministic — and fair: a tenant
    /// is not billed less because a neighbor warmed the window.
    pub max_bytes: Option<u64>,
    /// Max accumulated simulated I/O seconds. Best-effort under
    /// fusion: the leading session of a fused read pays its I/O time.
    pub max_io_s: Option<f64>,
}

impl TenantBudget {
    /// Unlimited.
    pub fn unlimited() -> Self {
        TenantBudget::default()
    }

    /// Limit accumulated logical bytes.
    pub fn bytes(max: u64) -> Self {
        TenantBudget {
            max_bytes: Some(max),
            max_io_s: None,
        }
    }
}

/// Accumulated per-tenant counters, reconcilable with the sum of the
/// tenant's per-session [`QueryMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    /// Sessions submitted.
    pub sessions: u64,
    /// Sessions that completed successfully.
    pub completed: u64,
    /// Sessions rejected by budget enforcement.
    pub rejected: u64,
    /// Sessions that failed during execution.
    pub failed: u64,
    /// Sum of `bytes_read` over completed sessions.
    pub bytes_read: u64,
    /// Sum of `bytes_saved` (cache) over completed sessions.
    pub bytes_saved: u64,
    /// Sum of `fused_bytes_saved` over completed sessions.
    pub fused_bytes_saved: u64,
    /// Sum of logical bytes — the quantity byte budgets meter.
    pub logical_bytes: u64,
    /// Sum of simulated I/O seconds over completed sessions.
    pub io_s: f64,
    /// Sum of cache hits over completed sessions.
    pub cache_hits: u64,
    /// Sum of cache misses over completed sessions.
    pub cache_misses: u64,
    /// Sum of fused reads over completed sessions.
    pub fused_reads: u64,
    /// Sum of transient-read retries over completed sessions.
    pub retries: u64,
}

/// One session: a tenant's query against a built variable.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Billing/fairness identity.
    pub tenant: String,
    /// Dataset name.
    pub dataset: String,
    /// Variable name.
    pub var: String,
    /// The query to run.
    pub query: Query,
    /// Run as a progressive ladder instead of one shot: the session
    /// serves a base-precision step and pulls byte-group refinements
    /// (through the shared cache and fuser) until done or until
    /// `target_error` is met. Budgets are charged on the cumulative
    /// metrics over all steps taken.
    pub progressive: bool,
    /// Stop refining once the worst-case relative error bound is at or
    /// below this (progressive sessions only; `None` refines to the
    /// query's full target level).
    pub target_error: Option<f64>,
}

impl SessionSpec {
    /// Convenience constructor.
    pub fn new(tenant: &str, dataset: &str, var: &str, query: Query) -> Self {
        SessionSpec {
            tenant: tenant.to_string(),
            dataset: dataset.to_string(),
            var: var.to_string(),
            query,
            progressive: false,
            target_error: None,
        }
    }

    /// Run this session as a progressive ladder.
    pub fn progressive(mut self) -> Self {
        self.progressive = true;
        self
    }

    /// Progressive ladder that stops once the error bound reaches
    /// `eps` (implies [`SessionSpec::progressive`]).
    pub fn with_target_error(mut self, eps: f64) -> Self {
        self.progressive = true;
        self.target_error = Some(eps);
        self
    }
}

/// Why a session produced no result.
#[derive(Debug)]
pub enum ServeError {
    /// Rejected at admission: the tenant's accumulated usage already
    /// met or exceeded a budget limit.
    BudgetExceeded {
        /// The tenant whose budget ran out.
        tenant: String,
        /// Which resource (`"bytes"` or `"io_s"`).
        resource: &'static str,
        /// Usage at the admission check.
        used: f64,
        /// The configured limit.
        limit: f64,
    },
    /// The variable could not be opened.
    Open {
        /// Dataset name.
        dataset: String,
        /// Variable name.
        var: String,
        /// Rendered open error.
        error: String,
    },
    /// The query failed during execution.
    Query(MlocError),
}

impl ServeError {
    /// Whether this is a budget rejection (an expected, deterministic
    /// outcome) rather than an execution failure.
    pub fn is_budget(&self) -> bool {
        matches!(self, ServeError::BudgetExceeded { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BudgetExceeded {
                tenant,
                resource,
                used,
                limit,
            } => write!(
                f,
                "tenant {tenant}: {resource} budget exceeded ({used} used, limit {limit})"
            ),
            ServeError::Open {
                dataset,
                var,
                error,
            } => write!(f, "cannot open {dataset}/{var}: {error}"),
            ServeError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What happened to one submitted session.
#[derive(Debug)]
pub struct SessionReport {
    /// Index into the submitted session slice.
    pub index: usize,
    /// The session's tenant.
    pub tenant: String,
    /// Which admission window ran it.
    pub window: usize,
    /// The result, or why there is none.
    pub outcome: Result<QueryResult, ServeError>,
    /// Per-session metrics (present iff the query executed and
    /// succeeded). For progressive sessions these are cumulative over
    /// every step taken.
    pub metrics: Option<QueryMetrics>,
    /// The progressive ladder's step log (progressive sessions only).
    pub steps: Option<Vec<ProgressiveStep>>,
    /// Wall-clock seconds from admission to completion (informational;
    /// use `metrics.response_s` for deterministic latency).
    pub wall_s: f64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A resident query server over one storage backend.
///
/// `run` executes a batch of sessions window by window; the cache,
/// fuser and tenant usage persist across `run` calls,
/// so a long-lived server keeps its warm state between batches.
pub struct QueryServer<'a> {
    backend: &'a dyn StorageBackend,
    config: ServeConfig,
    cache: Option<Arc<BlockCache>>,
    fuser: Option<Arc<ExtentFuser>>,
    budgets: HashMap<String, TenantBudget>,
    usage: Mutex<BTreeMap<String, TenantUsage>>,
}

impl<'a> QueryServer<'a> {
    /// A server over `backend` with shared cache and fuser built from
    /// `config`.
    pub fn new(backend: &'a dyn StorageBackend, config: ServeConfig) -> Self {
        let cache =
            (config.cache_mb > 0).then(|| Arc::new(BlockCache::with_budget_mb(config.cache_mb)));
        let fuser = config
            .fusion
            .then(|| Arc::new(ExtentFuser::with_window_mb(FUSION_WINDOW_MB)));
        QueryServer {
            backend,
            config,
            cache,
            fuser,
            budgets: HashMap::new(),
            usage: Mutex::new(BTreeMap::new()),
        }
    }

    /// Set (or replace) a tenant's budget. Tenants without a budget
    /// are unlimited.
    pub fn set_budget(&mut self, tenant: &str, budget: TenantBudget) {
        self.budgets.insert(tenant.to_string(), budget);
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Shared block-cache statistics (None when the cache is off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Extent-fusion statistics (None when fusion is off).
    pub fn fusion_stats(&self) -> Option<FusionStats> {
        self.fuser.as_ref().map(|f| f.stats())
    }

    /// Snapshot of per-tenant usage.
    pub fn usage(&self) -> BTreeMap<String, TenantUsage> {
        lock(&self.usage).clone()
    }

    /// Run a batch of sessions and return one report per session, in
    /// submission order.
    ///
    /// Sessions are admitted in FIFO windows of [`ServeConfig::window`].
    /// Within a window, sessions are grouped by tenant (preserving
    /// submission order inside each group) and the groups run
    /// concurrently on up to [`ServeConfig::workers`] threads; the
    /// fuser's admission window rotates at every window boundary.
    pub fn run(&self, sessions: &[SessionSpec]) -> Vec<SessionReport> {
        // Open each distinct variable once; sessions share the store.
        let mut stores: HashMap<(String, String), Result<MlocStore<'a>, String>> = HashMap::new();
        for s in sessions {
            let k = (s.dataset.clone(), s.var.clone());
            stores.entry(k).or_insert_with(|| {
                MlocStore::open(self.backend, &s.dataset, &s.var)
                    .map(|mut st| {
                        if let Some(c) = &self.cache {
                            st.set_cache(Some(Arc::clone(c)));
                        }
                        if let Some(f) = &self.fuser {
                            st.set_fusion(Some(Arc::clone(f)));
                        }
                        st
                    })
                    .map_err(|e| e.to_string())
            });
        }

        let mut exec = ParallelExecutor::new(self.config.nranks.max(1), CostModel::default())
            .with_retry(self.config.retry);
        if self.config.threaded {
            exec = exec.threaded(true);
        }

        let window = self.config.window.max(1);
        let mut reports: Vec<SessionReport> = Vec::with_capacity(sessions.len());
        for (w, chunk) in sessions.chunks(window).enumerate() {
            if let Some(f) = &self.fuser {
                f.begin_window();
            }
            // Group the window's sessions by tenant, first-appearance
            // order; each group is one unit of (serial) work.
            let base = w * window;
            let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
            for (k, s) in chunk.iter().enumerate() {
                match groups.iter_mut().find(|(t, _)| *t == s.tenant) {
                    Some((_, idxs)) => idxs.push(base + k),
                    None => groups.push((s.tenant.clone(), vec![base + k])),
                }
            }
            let produced: Vec<Vec<SessionReport>> =
                parallel_map(self.config.workers.max(1), groups, |_, (tenant, idxs)| {
                    idxs.into_iter()
                        .map(|i| self.run_session(i, w, &tenant, &sessions[i], &stores, &exec))
                        .collect()
                });
            // Every session of the window reports once; placing them
            // by index restores submission order across tenant groups.
            let mut produced: Vec<SessionReport> = produced.into_iter().flatten().collect();
            produced.sort_unstable_by_key(|r| r.index);
            reports.append(&mut produced);
        }
        reports
    }

    /// Apply `f` to `tenant`'s usage entry, creating it if absent,
    /// and return the entry as updated.
    fn charge(&self, tenant: &str, f: impl FnOnce(&mut TenantUsage)) -> TenantUsage {
        let mut usage = lock(&self.usage);
        let u = usage.entry(tenant.to_string()).or_default();
        f(u);
        *u
    }

    fn run_session(
        &self,
        index: usize,
        window: usize,
        tenant: &str,
        spec: &SessionSpec,
        stores: &HashMap<(String, String), Result<MlocStore<'a>, String>>,
        exec: &ParallelExecutor,
    ) -> SessionReport {
        let t0 = Instant::now();
        let u = self.charge(tenant, |t| t.sessions += 1);
        // Admission check against usage accumulated by *completed*
        // sessions of this tenant (same-tenant sessions are serial, so
        // the decision is deterministic).
        if let Some(b) = self.budgets.get(tenant) {
            let over: Option<(&'static str, f64, f64)> = match (b.max_bytes, b.max_io_s) {
                (Some(mb), _) if u.logical_bytes >= mb => {
                    Some(("bytes", u.logical_bytes as f64, mb as f64))
                }
                (_, Some(ms)) if u.io_s >= ms => Some(("io_s", u.io_s, ms)),
                _ => None,
            };
            if let Some((resource, used, limit)) = over {
                self.charge(tenant, |t| t.rejected += 1);
                return SessionReport {
                    index,
                    tenant: tenant.to_string(),
                    window,
                    outcome: Err(ServeError::BudgetExceeded {
                        tenant: tenant.to_string(),
                        resource,
                        used,
                        limit,
                    }),
                    metrics: None,
                    steps: None,
                    wall_s: t0.elapsed().as_secs_f64(),
                };
            }
        }

        let store = match stores.get(&(spec.dataset.clone(), spec.var.clone())) {
            Some(Ok(st)) => st,
            opened => {
                self.charge(tenant, |t| t.failed += 1);
                let error = match opened {
                    Some(Err(e)) => e.clone(),
                    _ => "variable was not opened for this batch".to_string(),
                };
                return SessionReport {
                    index,
                    tenant: tenant.to_string(),
                    window,
                    outcome: Err(ServeError::Open {
                        dataset: spec.dataset.clone(),
                        var: spec.var.clone(),
                        error,
                    }),
                    metrics: None,
                    steps: None,
                    wall_s: t0.elapsed().as_secs_f64(),
                };
            }
        };

        let executed: Result<(QueryResult, QueryMetrics, Option<Vec<ProgressiveStep>>), MlocError> =
            if spec.progressive {
                // Progressive ladder: refinement pulls re-enter the
                // shared cache and fuser, so a warm step reads only
                // byte groups no session has fetched yet.
                exec.progressive(store, &spec.query).and_then(|mut pq| {
                    match spec.target_error {
                        Some(eps) => pq.run_to_target_error(eps)?,
                        None => pq.run_to_completion()?,
                    }
                    let (res, m, steps, _) = pq.into_outcome();
                    Ok((res, m, Some(steps)))
                })
            } else {
                exec.execute(store, &spec.query).map(|(r, m)| (r, m, None))
            };
        match executed {
            Ok((res, m, steps)) => {
                let logical = m.bytes_read + m.bytes_saved + m.fused_bytes_saved;
                self.charge(tenant, |u| {
                    u.completed += 1;
                    u.bytes_read += m.bytes_read;
                    u.bytes_saved += m.bytes_saved;
                    u.fused_bytes_saved += m.fused_bytes_saved;
                    u.logical_bytes += logical;
                    u.io_s += m.io_s;
                    u.cache_hits += m.cache_hits;
                    u.cache_misses += m.cache_misses;
                    u.fused_reads += m.fused_reads;
                    u.retries += m.retries;
                });
                SessionReport {
                    index,
                    tenant: tenant.to_string(),
                    window,
                    outcome: Ok(res),
                    metrics: Some(m),
                    steps,
                    wall_s: t0.elapsed().as_secs_f64(),
                }
            }
            Err(e) => {
                self.charge(tenant, |t| t.failed += 1);
                SessionReport {
                    index,
                    tenant: tenant.to_string(),
                    window,
                    outcome: Err(ServeError::Query(e)),
                    metrics: None,
                    steps: None,
                    wall_s: t0.elapsed().as_secs_f64(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mloc::prelude::*;
    use mloc_datagen::gts_like_2d;
    use mloc_pfs::MemBackend;

    fn build(be: &MemBackend) -> Vec<f64> {
        let field = gts_like_2d(32, 32, 7);
        let config = MlocConfig::builder(vec![32, 32])
            .chunk_shape(vec![8, 8])
            .num_bins(4)
            .build();
        build_variable(be, "ds", "v", field.values(), &config).unwrap();
        field.into_values()
    }

    fn specs(n: usize) -> Vec<SessionSpec> {
        (0..n)
            .map(|i| {
                SessionSpec::new(
                    if i % 2 == 0 { "a" } else { "b" },
                    "ds",
                    "v",
                    Query::values_where(-1.0 + 0.1 * (i % 3) as f64, 1.5),
                )
            })
            .collect()
    }

    #[test]
    fn sessions_match_direct_execution() {
        let be = MemBackend::new();
        build(&be);
        // Cache off so repeated extents are served by the fuser's
        // window retention (deterministically fused) instead of being
        // absorbed by the block cache before they reach the read path.
        let config = ServeConfig {
            cache_mb: 0,
            ..ServeConfig::default()
        };
        let server = QueryServer::new(&be, config);
        let sessions = specs(6);
        let reports = server.run(&sessions);
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        for (r, s) in reports.iter().zip(&sessions) {
            let direct = store.query_serial(&s.query).unwrap();
            let got = r.outcome.as_ref().unwrap();
            assert_eq!(got.positions(), direct.positions(), "session {}", r.index);
            assert_eq!(r.tenant, s.tenant);
        }
        let usage = server.usage();
        assert_eq!(usage["a"].completed, 3);
        assert_eq!(usage["b"].completed, 3);
        assert!(server.fusion_stats().unwrap().fused_reads > 0 || sessions.len() < 2);
    }

    #[test]
    fn byte_budget_rejections_are_deterministic() {
        let be = MemBackend::new();
        build(&be);
        let run_once = || {
            let mut server = QueryServer::new(&be, ServeConfig::default());
            server.set_budget("a", TenantBudget::bytes(4_000));
            let reports = server.run(&specs(8));
            reports
                .iter()
                .map(|r| match &r.outcome {
                    Ok(_) => 'o',
                    Err(e) if e.is_budget() => 'b',
                    Err(_) => 'x',
                })
                .collect::<String>()
        };
        let first = run_once();
        assert!(first.contains('b'), "tiny budget never tripped: {first}");
        assert!(first.contains('o'), "first session must be admitted");
        assert!(!first.contains('x'));
        for _ in 0..3 {
            assert_eq!(run_once(), first, "budget outcomes must be deterministic");
        }
    }

    #[test]
    fn progressive_sessions_share_cache_and_match_one_shot() {
        let be = MemBackend::new();
        build(&be);
        let server = QueryServer::new(&be, ServeConfig::default());
        // Spatial value query: no value constraint, so every touched
        // bin is refinable by the ladder.
        let q = Query::values_in(Region::new(vec![(4, 28), (0, 32)]));
        let sessions = vec![
            SessionSpec::new("a", "ds", "v", q.clone()).progressive(),
            // Same tenant, same query, after the first: the warm
            // ladder should be answered largely from the shared cache.
            SessionSpec::new("a", "ds", "v", q.clone()).progressive(),
            SessionSpec::new("b", "ds", "v", q.clone()).with_target_error(1e-3),
        ];
        let reports = server.run(&sessions);
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let direct = store.query_serial(&q).unwrap();

        let full = reports[0].outcome.as_ref().unwrap();
        assert_eq!(full.positions(), direct.positions());
        for (a, b) in full.values().unwrap().iter().zip(direct.values().unwrap()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let steps = reports[0].steps.as_ref().unwrap();
        assert!(steps.len() > 1);
        assert!(steps.last().unwrap().done);
        // Warm repeat: every refinement byte was already cached.
        let warm = reports[1].steps.as_ref().unwrap();
        assert_eq!(warm.iter().skip(1).map(|s| s.bytes_read).sum::<u64>(), 0);
        assert!(warm.iter().skip(1).map(|s| s.bytes_saved).sum::<u64>() > 0);
        // Early stop honors the target error bound.
        let capped = reports[2].steps.as_ref().unwrap();
        assert!(capped.last().unwrap().error_bound <= 1e-3);
        assert!(capped.len() < steps.len());
        // Budgets metered the cumulative ladder, in logical bytes.
        let m0 = reports[0].metrics.as_ref().unwrap();
        let usage = server.usage();
        assert!(usage["a"].logical_bytes >= m0.bytes_read + m0.bytes_saved);
    }

    #[test]
    fn unknown_variable_reports_open_error() {
        let be = MemBackend::new();
        build(&be);
        let server = QueryServer::new(&be, ServeConfig::default());
        let reports = server.run(&[SessionSpec::new(
            "a",
            "ds",
            "missing",
            Query::region(0.0, 1.0),
        )]);
        match &reports[0].outcome {
            Err(ServeError::Open { var, .. }) => assert_eq!(var, "missing"),
            other => panic!("expected open error, got {other:?}"),
        }
        assert_eq!(server.usage()["a"].failed, 1);
    }
}
