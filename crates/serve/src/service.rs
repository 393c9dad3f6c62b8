//! The provisioning service: admission control in front of a shard
//! fleet, with two interchangeable work-stealing scheduler backends.
//!
//! - **Virtual time** ([`SchedMode::VirtualTime`]): sessions "arrive" on
//!   a fixed model-cycle cadence; admission queues each one (or batches
//!   it with same-key peers) on a per-shard deque, and an incremental
//!   event loop runs the fleet forward: the earliest-free live worker
//!   pops its own deque, or steals a whole item from a victim chosen as
//!   a pure function of `(seed, tick)` when its deque is empty.
//!   Durations are the shards' actual machine cycle deltas, so
//!   throughput, latency, queueing, and `Busy` rejections are all
//!   functions of the cost model alone — bit-reproducible for a fixed
//!   seed, independent of host load or core count. This is the repo's
//!   headline measurement mode, consistent with every other
//!   OpenSGX-style cycle figure.
//! - **Threaded** ([`SchedMode::Threaded`]): real `std::thread` workers,
//!   one deque per worker behind a shared mutex+condvar; an idle worker
//!   steals from the deepest peer deque. Results come back over an
//!   `mpsc` channel. Wall-clock numbers from this mode are auxiliary
//!   (they depend on host cores) but exercise the actual concurrency:
//!   machines are never shared, one per worker thread.
//!
//! Worker death is steal-aware in both backends: a dead worker's deque
//! is *not* lost — its queued items stay stealable and peers drain
//! them, so only the session that carried the death fault fails. Only a
//! fully dead fleet turns queued sessions into typed `PoolDead`
//! failures.
//!
//! Both backends share [`Shard::run_session`] for the per-session
//! protocol, eviction, and retry logic, and feed the same
//! [`ServeMetrics`].

use crate::error::ServeError;
use crate::faults::{self, FaultDirective, FaultKind, FaultPlan};
use crate::metrics::{lock_recover, EventKind, FaultStage, ServeMetrics};
use crate::persist::{StoreConfig, DEFAULT_STORE_CACHE_CAPACITY};
use crate::pool::{
    BatchPolicy, QueuedSession, SessionOutcome, SessionReport, SessionRunConfig, Shard, WorkDeques,
    WorkItem,
};
use crate::session::SessionRequest;
use engarde_core::cache::{lock_cache, shared_cache, CacheKey, SharedVerdictCache};
use engarde_core::provision::StageCycles;
use engarde_crypto::sha256::Sha256;
use engarde_sgx::machine::MachineConfig;
use engarde_store::{
    chaos, StoreOptions, VerdictStore, STORE_FLUSH_PER_RECORD, STORE_HYDRATE_PER_RECORD,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// How long a threaded worker sleeps on the queue condvar before
/// re-checking for shutdown. Bounds how late a worker can notice a
/// missed wakeup — nothing blocks forever on the queue.
const WORKER_POLL: Duration = Duration::from_millis(25);

/// Domain separator folded into the machine seed to derive the
/// virtual-time steal stream (so steal order never aliases any machine
/// RNG stream).
const STEAL_SEED_TAG: u64 = 0x57EA_1F1E_E75E_ED00;

/// Which scheduler drives the shard fleet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedMode {
    /// Deterministic cost-model scheduling: session `i` arrives at
    /// `i * arrival_gap` model cycles; per-shard deques with
    /// seed-deterministic work stealing. Bit-reproducible.
    VirtualTime {
        /// Model cycles between successive arrivals (the offered load).
        arrival_gap: u64,
    },
    /// Real worker threads and wall-clock timing.
    Threaded,
}

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of shards (machines) in the fleet.
    pub shards: usize,
    /// Scheduler backend.
    pub mode: SchedMode,
    /// Base machine configuration; shard `i` runs on
    /// [`MachineConfig::shard`]`(i)`.
    pub machine: MachineConfig,
    /// Admission bound: sessions allowed to wait. Beyond it, submission
    /// fails with [`ServeError::Busy`].
    pub queue_capacity: usize,
    /// Per-session execution knobs (retries, budgets, recycling).
    pub run: SessionRunConfig,
    /// `Some(capacity)`: share one content-addressed verdict cache with
    /// this LRU bound across the whole fleet (behind a lock in thread
    /// mode; probed in deterministic submission order in virtual-time
    /// mode). `None` disables caching.
    pub verdict_cache: Option<usize>,
    /// Deterministic fault-injection plan. `None` (and
    /// [`FaultPlan::disabled`]) leave the serve path bit-identical to a
    /// build without the fault layer: directives are a pure function of
    /// the plan seed and the arrival index, never of machine state.
    pub faults: Option<FaultPlan>,
    /// `Some`: persist verdicts to a sealed on-disk store. At start the
    /// store is recovered and hydrated into the fleet verdict cache
    /// (enabling a default-capacity cache if `verdict_cache` is `None`),
    /// with hydration cost charged to virtual time; at runtime dirty
    /// verdicts flush write-behind in `flush_batch` batches; at drain
    /// the remainder flushes and the store optionally compacts. A store
    /// that fails to open degrades the service to memory-only operation
    /// with a typed event — never a panic.
    pub store: Option<StoreConfig>,
    /// `Some`: admission groups small sessions sharing an
    /// [`SessionRequest::admission_key`] into one batch that runs
    /// back-to-back on a single worker — the leader's inspection seeds
    /// the verdict cache and every follower replays it. Pair with
    /// `verdict_cache` (a batch without a cache still co-schedules but
    /// amortizes nothing). `None` admits every session individually.
    pub batch: Option<BatchPolicy>,
    /// Whether idle workers steal queued items from peers (including
    /// dead ones). On by default; benches disable it to measure what a
    /// skewed fleet loses without stealing.
    pub steal: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            mode: SchedMode::VirtualTime {
                arrival_gap: 2_000_000,
            },
            machine: MachineConfig::default(),
            queue_capacity: 8,
            run: SessionRunConfig::default(),
            verdict_cache: None,
            faults: None,
            store: None,
            batch: None,
            steal: true,
        }
    }
}

/// Everything the service hands back after [`ProvisioningService::drain`].
pub struct ServiceResult {
    /// Per-session reports. Virtual mode: submission order. Threaded
    /// mode: sorted by session name (completion order is racy).
    pub reports: Vec<SessionReport>,
    /// The service metrics (counters, percentiles, event log).
    pub metrics: Arc<ServeMetrics>,
    /// The shard fleet with its providers — virtual mode only (threaded
    /// shards live and die on their worker threads); empty otherwise.
    /// Tests use these to assert host-side state across tenants.
    pub shards: Vec<Shard>,
    /// Fleet makespan in model cycles: when the last shard went idle
    /// (virtual) or the busiest shard's total cycles (threaded).
    pub makespan_cycles: u64,
    /// Wall-clock time from service start to drain completion.
    pub wall_nanos: u64,
}

impl ServiceResult {
    /// Hex SHA-256 over every report's deterministic fields (name,
    /// cycles, latency, outcome class, signed verdict) plus the fleet
    /// makespan. Two runs with the same seeds — fault layer enabled or
    /// not — must produce the same fingerprint; the fault tests and
    /// benches assert exactly that.
    pub fn fingerprint(&self) -> String {
        let mut h = Sha256::new();
        for r in &self.reports {
            h.update(r.name.as_bytes());
            h.update(&r.cycles.to_be_bytes());
            h.update(&r.latency_cycles.to_be_bytes());
            h.update(&[r.outcome.class_byte()]);
            if let Some(v) = &r.verdict {
                h.update(&[u8::from(v.compliant)]);
                h.update(v.detail.as_bytes());
                h.update(&v.signature);
            }
        }
        h.update(&self.makespan_cycles.to_be_bytes());
        h.finalize().to_hex()
    }

    /// Hex SHA-256 over verdict *content* only — session name, outcome
    /// class, and the signed verdict's polarity and detail — with no
    /// cycle or latency fields. A warm-restarted fleet replaying
    /// hydrated verdicts must reproduce a cold run's value bit for bit
    /// even though its timing (probe cost instead of full inspection)
    /// differs; the warm-start tests and `bench_store_warmstart` assert
    /// exactly that.
    pub fn verdict_fingerprint(&self) -> String {
        let mut h = Sha256::new();
        for r in &self.reports {
            h.update(r.name.as_bytes());
            h.update(&[r.outcome.class_byte()]);
            if let Some(v) = &r.verdict {
                h.update(&[u8::from(v.compliant)]);
                h.update(v.detail.as_bytes());
            }
        }
        h.finalize().to_hex()
    }
}

/// The service's live persistence state.
struct StoreState {
    store: VerdictStore,
    cfg: StoreConfig,
    /// Store faults scheduled by the fault plan during this run; they
    /// damage bytes at rest, so they are applied (and their recovery
    /// proven) at drain, after the final flush.
    pending_faults: Vec<FaultDirective>,
}

/// The virtual-time backend: an incremental discrete-event simulation.
/// `submit` advances the event loop to the new arrival (running every
/// item the fleet could have started by then) before admission-checking
/// against what is *actually* still queued; `drain` advances to
/// completion.
struct VirtualState {
    shards: Vec<Shard>,
    /// Virtual instant each shard becomes free.
    free_at: Vec<u64>,
    /// Per-shard work deques.
    work: WorkDeques,
    arrival_gap: u64,
    /// Seed of the deterministic steal stream.
    steal_seed: u64,
    /// Monotonic steal counter: victim choice is
    /// [`faults::steal_victim`]`(steal_seed, steal_tick, candidates)`.
    steal_tick: u64,
    /// `(arrival_index, report)` — sorted back to submission order at
    /// drain (stealing completes sessions out of order).
    reports: Vec<(u64, SessionReport)>,
}

struct SharedQueue {
    /// Per-worker deques behind one lock: contention is irrelevant at
    /// fleet sizes of single-digit shards, and a single lock keeps the
    /// steal scan (find the deepest victim) atomic.
    work: Mutex<WorkDeques>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Workers still able to take jobs. Decremented by a drop guard on
    /// every exit path — including panics — so `submit` can detect a
    /// dead pool instead of queueing work nobody will run.
    live: AtomicUsize,
    /// Per-worker death flags, so a stealing peer can tell whether it
    /// is draining a dead worker's deque (the `drained_from_dead`
    /// metric) without touching the victim's thread.
    dead: Box<[AtomicBool]>,
}

/// Panic-safe liveness accounting for one worker thread.
struct WorkerGuard(Arc<SharedQueue>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

enum WorkerMsg {
    Report(Box<SessionReport>),
    Done { cycles: u64 },
}

struct ThreadedState {
    shared: Arc<SharedQueue>,
    workers: Vec<thread::JoinHandle<()>>,
    rx: mpsc::Receiver<WorkerMsg>,
}

enum Backend {
    Virtual(VirtualState),
    Threaded(ThreadedState),
}

/// The multi-tenant provisioning service.
pub struct ProvisioningService {
    cfg: ServiceConfig,
    metrics: Arc<ServeMetrics>,
    backend: Backend,
    verdict_cache: Option<SharedVerdictCache>,
    store: Option<StoreState>,
    submitted: u64,
    started: std::time::Instant,
    draining: bool,
}

impl ProvisioningService {
    /// Boots the fleet: `cfg.shards` machines with per-shard derived
    /// seeds, plus worker threads in threaded mode.
    pub fn start(cfg: ServiceConfig) -> Self {
        let metrics = Arc::new(ServeMetrics::new());
        let shards = cfg.shards.max(1);
        // One cache for the whole fleet: the point is cross-shard (and
        // cross-tenant) verdict sharing. A persistent store needs a
        // cache to hydrate into, so it enables a default-capacity one.
        let cache_capacity = cfg
            .verdict_cache
            .or_else(|| cfg.store.as_ref().map(|_| DEFAULT_STORE_CACHE_CAPACITY));
        let verdict_cache = cache_capacity.map(shared_cache);
        // Open (and recover) the store before any shard boots; a store
        // that cannot open degrades the service to memory-only with a
        // typed event rather than failing the whole fleet.
        let mut hydrate_cycles = 0u64;
        let store = cfg.store.as_ref().and_then(|sc| {
            let options = StoreOptions {
                segment_max_records: sc.segment_max_records.max(1),
                compact_live_per_mille: sc.compact_live_per_mille,
            };
            match VerdictStore::open(&sc.dir, &sc.seal_key, options) {
                Ok((store, recovery)) => {
                    metrics.mark_store_enabled();
                    metrics.record(
                        EventKind::StoreOpened,
                        "",
                        None,
                        &format!(
                            "recovered {} records ({} live); damage found: {}",
                            recovery.records_recovered,
                            store.len(),
                            recovery.found_damage()
                        ),
                    );
                    Some(StoreState {
                        store,
                        cfg: sc.clone(),
                        pending_faults: Vec::new(),
                    })
                }
                Err(e) => {
                    metrics.record(
                        EventKind::StoreDegraded,
                        "",
                        None,
                        &format!("store failed to open, running memory-only: {e}"),
                    );
                    None
                }
            }
        });
        if let (Some(state), Some(cache)) = (&store, &verdict_cache) {
            let mut cache = lock_cache(cache);
            // Track dirty inserts from here on so live verdicts can be
            // flushed write-behind; hydrated entries are already
            // durable and are not re-logged.
            cache.track_dirty();
            let n = state.store.hydrate_into(&mut cache) as u64;
            metrics.record_store_hydrated(n);
            // Warm start is not free: every hydrated record pays a
            // read + authenticate + decode charge on the virtual clock
            // before the first session can run.
            hydrate_cycles = n * STORE_HYDRATE_PER_RECORD;
        }
        let backend = match cfg.mode {
            SchedMode::VirtualTime { arrival_gap } => Backend::Virtual(VirtualState {
                shards: (0..shards)
                    .map(|i| Shard::new(i, &cfg.machine, verdict_cache.clone()))
                    .collect(),
                free_at: vec![hydrate_cycles; shards],
                work: WorkDeques::new(shards),
                arrival_gap,
                steal_seed: cfg.machine.seed ^ STEAL_SEED_TAG,
                steal_tick: 0,
                reports: Vec::new(),
            }),
            SchedMode::Threaded => {
                let shared = Arc::new(SharedQueue {
                    work: Mutex::new(WorkDeques::new(shards)),
                    available: Condvar::new(),
                    shutdown: AtomicBool::new(false),
                    live: AtomicUsize::new(shards),
                    dead: (0..shards).map(|_| AtomicBool::new(false)).collect(),
                });
                let (tx, rx) = mpsc::channel();
                let workers = (0..shards)
                    .map(|i| {
                        let shared = Arc::clone(&shared);
                        let tx = tx.clone();
                        let machine = cfg.machine.clone();
                        let cache = verdict_cache.clone();
                        let run_cfg = cfg.run.clone();
                        let metrics = Arc::clone(&metrics);
                        let steal = cfg.steal;
                        thread::spawn(move || {
                            worker_loop(i, machine, cache, shared, tx, run_cfg, metrics, steal)
                        })
                    })
                    .collect();
                Backend::Threaded(ThreadedState {
                    shared,
                    workers,
                    rx,
                })
            }
        };
        ProvisioningService {
            cfg,
            metrics,
            backend,
            verdict_cache,
            store,
            submitted: 0,
            started: std::time::Instant::now(),
            draining: false,
        }
    }

    /// The service metrics handle.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Shards/workers still able to run sessions. Virtual mode counts
    /// non-dead shards; threaded mode reads the pool's liveness counter
    /// (kept honest by per-thread drop guards).
    pub fn live_workers(&self) -> usize {
        match &self.backend {
            Backend::Virtual(v) => v.shards.iter().filter(|s| !s.is_dead()).count(),
            Backend::Threaded(t) => t.shared.live.load(Ordering::SeqCst),
        }
    }

    /// Submits one session.
    ///
    /// Virtual mode advances the event simulation to this arrival, then
    /// queues the session (or joins it to an open same-key batch);
    /// threaded mode enqueues it for the worker fleet.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] when admission control rejects the session,
    /// [`ServeError::ShuttingDown`] after drain has begun.
    pub fn submit(&mut self, req: SessionRequest) -> Result<(), ServeError> {
        if self.draining {
            return Err(ServeError::ShuttingDown);
        }
        let arrival_index = self.submitted;
        // The directive is a pure function of (plan seed, arrival
        // index): scheduling, machine state, and host timing cannot
        // perturb the fault schedule, so it replays bit-identically.
        let mut directive = self
            .cfg
            .faults
            .as_ref()
            .and_then(|plan| plan.directive_for(arrival_index));
        // Store faults damage bytes at rest, not this session's
        // transport: the session runs unfaulted, and the scheduled
        // damage is applied (and its recovery proven) at drain, after
        // the final flush. With no store attached there is nothing to
        // damage and the directive is a no-op.
        if let Some(d) = directive.filter(|d| d.kind.is_store()) {
            directive = None;
            if let Some(state) = &mut self.store {
                state.pending_faults.push(d);
            }
        }
        match &mut self.backend {
            Backend::Virtual(v) => {
                let arrival = arrival_index * v.arrival_gap;
                // Catch the simulation up to this instant first:
                // admission must see what is *actually* still queued at
                // the arrival, not what was queued at the last submit.
                advance_fleet(
                    v,
                    arrival,
                    &self.cfg,
                    &self.metrics,
                    &mut self.store,
                    &self.verdict_cache,
                );
                let waiting = v.work.queued_sessions();
                if waiting >= self.cfg.queue_capacity {
                    self.metrics.record(
                        EventKind::RejectedBusy,
                        &req.name,
                        None,
                        &format!("queue depth {waiting}"),
                    );
                    return Err(ServeError::Busy {
                        queue_depth: waiting,
                    });
                }
                // A fully dead fleet is a typed error, never a hang or
                // a panic. (A *partially* dead fleet still admits: live
                // peers steal from dead shards' deques.)
                if v.shards.iter().all(|s| s.is_dead()) {
                    self.metrics
                        .record(EventKind::Shed, &req.name, None, "no live shards");
                    return Err(ServeError::PoolDead);
                }
                self.metrics.observe_queue_depth(waiting + 1);
                self.metrics
                    .record(EventKind::Admitted, &req.name, None, "");
                self.submitted += 1;

                let batch_key = batchable_key(&req, self.cfg.batch.as_ref());
                let mut pending = Some(QueuedSession {
                    arrival_index,
                    arrival,
                    req,
                    directive,
                });
                if let (Some(key), Some(policy)) = (&batch_key, self.cfg.batch.as_ref()) {
                    if let Some(item) = v.work.find_joinable(key, policy) {
                        if let Some(qs) = pending.take() {
                            item.sessions.push(qs);
                            self.metrics.record_batch_join(item.sessions.len() as u64);
                        }
                    }
                }
                if let Some(qs) = pending {
                    // Home shard: the tenant's explicit hint, else the
                    // shard that could start it soonest (greedy — the
                    // pre-stealing scheduler's assignment rule).
                    let home = qs
                        .req
                        .shard_hint
                        .map(|h| h % v.shards.len())
                        .or_else(|| {
                            (0..v.shards.len())
                                .filter(|&i| !v.shards[i].is_dead())
                                .min_by_key(|&i| (v.free_at[i].max(arrival), i))
                        })
                        .unwrap_or(0);
                    v.work.push(WorkItem {
                        home,
                        batch_key,
                        sessions: vec![qs],
                    });
                    self.metrics.observe_deque_depth(v.work.depth(home) as u64);
                }
                // Let an idle worker start the new work at its arrival
                // instant (batched joins ride an already-queued item).
                advance_fleet(
                    v,
                    arrival,
                    &self.cfg,
                    &self.metrics,
                    &mut self.store,
                    &self.verdict_cache,
                );
                Ok(())
            }
            Backend::Threaded(t) => {
                if t.shared.live.load(Ordering::SeqCst) == 0 {
                    self.metrics
                        .record(EventKind::Shed, &req.name, None, "no live workers");
                    return Err(ServeError::PoolDead);
                }
                let mut work = lock_recover(&t.shared.work);
                if t.shared.shutdown.load(Ordering::SeqCst) {
                    return Err(ServeError::ShuttingDown);
                }
                let waiting = work.queued_sessions();
                if waiting >= self.cfg.queue_capacity {
                    drop(work);
                    self.metrics.record(
                        EventKind::RejectedBusy,
                        &req.name,
                        None,
                        &format!("queue depth {waiting}"),
                    );
                    return Err(ServeError::Busy {
                        queue_depth: waiting,
                    });
                }
                self.metrics
                    .record(EventKind::Admitted, &req.name, None, "");
                let batch_key = batchable_key(&req, self.cfg.batch.as_ref());
                let mut pending = Some(QueuedSession {
                    arrival_index,
                    arrival: 0,
                    req,
                    directive,
                });
                if let (Some(key), Some(policy)) = (&batch_key, self.cfg.batch.as_ref()) {
                    if let Some(item) = work.find_joinable(key, policy) {
                        if let Some(qs) = pending.take() {
                            item.sessions.push(qs);
                            self.metrics.record_batch_join(item.sessions.len() as u64);
                        }
                    }
                }
                if let Some(qs) = pending {
                    let shards = self.cfg.shards.max(1);
                    let home = qs
                        .req
                        .shard_hint
                        .map_or(arrival_index as usize % shards, |h| h % shards);
                    work.push(WorkItem {
                        home,
                        batch_key,
                        sessions: vec![qs],
                    });
                    self.metrics.observe_deque_depth(work.depth(home) as u64);
                }
                self.metrics.observe_queue_depth(work.queued_sessions());
                self.submitted += 1;
                drop(work);
                // Wake the whole fleet: the home worker may be busy
                // while an idle peer could steal the new item.
                t.shared.available.notify_all();
                Ok(())
            }
        }
    }

    /// Graceful drain: stops admission, lets queued sessions finish,
    /// joins the workers, and returns every report plus the metrics.
    pub fn drain(mut self) -> ServiceResult {
        self.draining = true;
        self.metrics
            .record(EventKind::DrainStarted, "", None, "graceful drain");
        match self.backend {
            Backend::Virtual(mut v) => {
                // Run the simulation to completion: every queued item a
                // live worker can reach (own deque or steal) finishes.
                advance_fleet(
                    &mut v,
                    u64::MAX,
                    &self.cfg,
                    &self.metrics,
                    &mut self.store,
                    &self.verdict_cache,
                );
                // Whatever is still queued is unreachable — a fully
                // dead fleet, or dead-shard deques with stealing
                // disabled. Typed failure reports, not silence.
                for qs in v.work.drain_all() {
                    let error = ServeError::PoolDead.to_string();
                    self.metrics
                        .record(EventKind::Failed, &qs.req.name, None, &error);
                    v.reports
                        .push((qs.arrival_index, pool_dead_report(qs.req.name, error)));
                }
                // Final write-behind flush (plus optional compaction and
                // any scheduled at-rest fault injection + recovery
                // proof); the flush cost lands on the makespan.
                let store_cost =
                    finish_store(self.store.take(), &self.verdict_cache, &self.metrics);
                if let Some(cache) = &self.verdict_cache {
                    self.metrics.set_cache_stats(&lock_cache(cache).stats());
                }
                let makespan = v.free_at.iter().copied().max().unwrap_or(0) + store_cost;
                // Stealing finishes sessions out of submission order;
                // reports are handed back in it.
                v.reports.sort_by_key(|(i, _)| *i);
                ServiceResult {
                    reports: v.reports.into_iter().map(|(_, r)| r).collect(),
                    metrics: self.metrics,
                    shards: v.shards,
                    makespan_cycles: makespan,
                    wall_nanos: self.started.elapsed().as_nanos() as u64,
                }
            }
            Backend::Threaded(t) => {
                t.shared.shutdown.store(true, Ordering::SeqCst);
                t.shared.available.notify_all();
                for handle in t.workers {
                    let _ = handle.join();
                }
                // Workers have quiesced; the cache's counters are final
                // and every verdict is visible for the final flush.
                let _ = finish_store(self.store.take(), &self.verdict_cache, &self.metrics);
                if let Some(cache) = &self.verdict_cache {
                    self.metrics.set_cache_stats(&lock_cache(cache).stats());
                }
                let mut reports = Vec::new();
                let mut makespan = 0u64;
                while let Ok(msg) = t.rx.try_recv() {
                    match msg {
                        WorkerMsg::Report(r) => reports.push(*r),
                        WorkerMsg::Done { cycles, .. } => makespan = makespan.max(cycles),
                    }
                }
                // Sessions still queued after every worker exited were
                // admitted but never ran (the pool died under them).
                // They get typed failure reports, not silence.
                for qs in lock_recover(&t.shared.work).drain_all() {
                    let error = ServeError::PoolDead.to_string();
                    self.metrics
                        .record(EventKind::Failed, &qs.req.name, None, &error);
                    reports.push(pool_dead_report(qs.req.name, error));
                }
                reports.sort_by(|a, b| a.name.cmp(&b.name));
                ServiceResult {
                    reports,
                    metrics: self.metrics,
                    shards: Vec::new(),
                    makespan_cycles: makespan,
                    wall_nanos: self.started.elapsed().as_nanos() as u64,
                }
            }
        }
    }
}

/// The batch key for `req` under `policy` — `None` when batching is
/// off, the policy cannot hold two sessions, the binary is too large,
/// or the session stalls (a stalling client inside a batch would hold
/// its followers hostage on one worker).
fn batchable_key(req: &SessionRequest, policy: Option<&BatchPolicy>) -> Option<CacheKey> {
    let policy = policy?;
    if policy.max_sessions < 2 || req.stall_after.is_some() || req.binary.len() > policy.max_bytes {
        return None;
    }
    Some(req.admission_key())
}

/// A typed failure report for a session the pool died under.
fn pool_dead_report(name: String, error: String) -> SessionReport {
    SessionReport {
        name,
        shard: usize::MAX,
        outcome: SessionOutcome::Failed { error },
        stages: StageCycles::default(),
        cycles: 0,
        latency_cycles: 0,
        wall_nanos: 0,
        retries: 0,
        blocks_delivered: 0,
        enclave_key_fp: None,
        measurement: None,
        verdict: None,
        client_verified: false,
        instructions: 0,
        cache_hit: false,
    }
}

/// The virtual-time event loop: repeatedly give the earliest-free live
/// worker that can reach work (own deque, or any deque when stealing)
/// its next item, until the fleet's next start would pass `until` or no
/// reachable work remains.
///
/// Determinism: worker choice is a pure function of the (deterministic)
/// `free_at` vector; steal-victim choice is
/// [`faults::steal_victim`]`(seed, tick, candidates)` — a pure function
/// of the fleet seed and a monotonic counter. Nothing here reads host
/// state.
fn advance_fleet(
    v: &mut VirtualState,
    until: u64,
    cfg: &ServiceConfig,
    metrics: &Arc<ServeMetrics>,
    store: &mut Option<StoreState>,
    verdict_cache: &Option<SharedVerdictCache>,
) {
    loop {
        let n = v.shards.len();
        let worker = (0..n)
            .filter(|&i| !v.shards[i].is_dead())
            .filter(|&i| v.work.depth(i) > 0 || (cfg.steal && !v.work.victims(i).is_empty()))
            .min_by_key(|&i| (v.free_at[i], i));
        let Some(w) = worker else { break };
        if v.free_at[w] > until {
            break;
        }
        let item = match v.work.pop_own(w) {
            Some(item) => item,
            None => {
                let victims = v.work.victims(w);
                let pick = faults::steal_victim(v.steal_seed, v.steal_tick, victims.len());
                v.steal_tick += 1;
                let Some(&victim) = victims.get(pick) else {
                    break;
                };
                let Some(item) = v.work.steal_from(victim) else {
                    break;
                };
                metrics.record_steal(item.sessions.len() as u64, v.shards[victim].is_dead());
                item
            }
        };
        run_item(v, w, item, cfg, metrics, store, verdict_cache);
    }
}

/// Runs one work item (a session or a whole batch) on worker `w`,
/// advancing its virtual clock. If the worker dies mid-item, the
/// unstarted remainder is requeued at the front of its deque so live
/// peers steal and finish it.
fn run_item(
    v: &mut VirtualState,
    w: usize,
    item: WorkItem,
    cfg: &ServiceConfig,
    metrics: &Arc<ServeMetrics>,
    store: &mut Option<StoreState>,
    verdict_cache: &Option<SharedVerdictCache>,
) {
    let batch_key = item.batch_key;
    let mut pos = v.free_at[w];
    let mut remaining = item.sessions.into_iter();
    let mut requeue: Option<WorkItem> = None;
    while let Some(qs) = remaining.next() {
        if v.shards[w].is_dead() {
            // Steal-aware worker death: only the session that carried
            // the fault failed; the rest of the batch goes back to the
            // head of the dead shard's deque for peers to drain.
            requeue = Some(WorkItem {
                home: w,
                batch_key,
                sessions: std::iter::once(qs).chain(remaining).collect(),
            });
            break;
        }
        // A batch follower cannot start before it arrives: the leader
        // may still be running (overlap is fine — the follower joined
        // an in-flight batch), but its own start clamps to its arrival.
        let start = pos.max(qs.arrival);
        let before = v.shards[w].total_cycles();
        let mut report =
            v.shards[w].run_session_with_fault(&qs.req, &cfg.run, metrics, qs.directive.as_ref());
        let duration = v.shards[w].total_cycles() - before;
        let end = start + duration;
        pos = end;
        // Write-behind flush: once enough fresh verdicts have queued
        // up, seal them to the store and charge the flush to the shard
        // that just ran — deterministic virtual time, bounded dirty
        // queue.
        let mut store_died = false;
        if let (Some(state), Some(cache)) = (store.as_mut(), verdict_cache) {
            let depth = lock_cache(cache).dirty_len();
            metrics.observe_flush_queue_depth(depth as u64);
            if depth >= state.cfg.flush_batch.max(1) {
                let dirty = lock_cache(cache).take_dirty();
                let flushed = dirty.len() as u64;
                match state.store.append_batch(&dirty) {
                    Ok(()) => {
                        metrics.record_store_flushed(flushed);
                        pos += flushed * STORE_FLUSH_PER_RECORD;
                    }
                    Err(e) => {
                        // Persistence degrades; serving does not.
                        metrics.record(
                            EventKind::StoreDegraded,
                            &qs.req.name,
                            Some(w),
                            &format!("write-behind flush failed: {e}"),
                        );
                        store_died = true;
                    }
                }
            }
        }
        if store_died {
            *store = None;
        }
        report.latency_cycles = end - qs.arrival;
        metrics.record_timing(&report.stages, report.cycles, report.latency_cycles, 0);
        v.reports.push((qs.arrival_index, report));
    }
    v.free_at[w] = pos;
    if let Some(rest) = requeue {
        v.work.push_front(w, rest);
    }
}

/// Drain-time store finalization: flush the remaining dirty verdicts,
/// optionally compact, mirror the store counters into the metrics, then
/// apply any at-rest faults the plan scheduled during the run and prove
/// they recover (typed counters, longest authenticated prefix, never a
/// panic). Returns the model cycles the final flush cost, so virtual
/// mode can charge it to the makespan.
fn finish_store(
    state: Option<StoreState>,
    verdict_cache: &Option<SharedVerdictCache>,
    metrics: &ServeMetrics,
) -> u64 {
    let Some(state) = state else { return 0 };
    let StoreState {
        mut store,
        cfg,
        pending_faults,
    } = state;
    let mut cost = 0u64;
    if let Some(cache) = verdict_cache {
        let dirty = lock_cache(cache).take_dirty();
        if !dirty.is_empty() {
            let n = dirty.len() as u64;
            match store.append_batch(&dirty) {
                Ok(()) => {
                    metrics.record_store_flushed(n);
                    cost += n * STORE_FLUSH_PER_RECORD;
                }
                Err(e) => metrics.record(
                    EventKind::StoreDegraded,
                    "",
                    None,
                    &format!("drain flush failed: {e}"),
                ),
            }
        }
    }
    if cfg.compact_on_drain {
        if let Err(e) = store.compact() {
            metrics.record(
                EventKind::StoreDegraded,
                "",
                None,
                &format!("compaction failed: {e}"),
            );
        }
    }
    metrics.set_store_stats(&store.stats());
    if pending_faults.is_empty() {
        return cost;
    }
    // At-rest damage is injected against the closed files, the way a
    // crash or media fault lands between runs; a fresh recovery scan
    // then repairs the store in place and its typed findings are the
    // detection evidence.
    let dir = store.dir().to_path_buf();
    drop(store);
    let mut applied: Vec<(FaultKind, bool)> = Vec::new();
    for d in &pending_faults {
        let outcome = match d.kind {
            FaultKind::StoreTornWrite => chaos::torn_write(&dir, d.block as u64),
            FaultKind::StoreBitFlip => chaos::flip_bit(&dir, d.block as u64, d.bit as u8),
            FaultKind::StoreLostSegment => chaos::lose_segment(&dir, d.block as u64),
            _ => Ok(None),
        };
        match outcome {
            Ok(Some(o)) => {
                metrics.record_fault(d.kind, FaultStage::Injected);
                metrics.record(
                    EventKind::FaultInjected,
                    "",
                    None,
                    &format!("{}: {}", d.kind.name(), o.detail),
                );
                applied.push((d.kind, o.detectable));
            }
            // Nothing on disk to damage yet (an empty store).
            Ok(None) => {}
            Err(e) => metrics.record(
                EventKind::StoreDegraded,
                "",
                None,
                &format!("chaos injection failed: {e}"),
            ),
        }
    }
    if applied.is_empty() {
        return cost;
    }
    let options = StoreOptions {
        segment_max_records: cfg.segment_max_records.max(1),
        compact_live_per_mille: cfg.compact_live_per_mille,
    };
    match VerdictStore::open(&dir, &cfg.seal_key, options) {
        Ok((reopened, report)) => {
            for (kind, detectable) in &applied {
                // An injection its own helper calls observable must
                // surface in the recovery report; silent ones (a lost
                // final segment) honestly stay undetected.
                if *detectable && report.found_damage() {
                    metrics.record_fault(*kind, FaultStage::Detected);
                }
                // Recovery completed with typed counters and only
                // authenticated records — the clean-recovery outcome.
                metrics.record_fault(*kind, FaultStage::Recovered);
            }
            metrics.set_store_stats(&reopened.stats());
            metrics.record(
                EventKind::StoreOpened,
                "",
                None,
                &format!(
                    "post-fault recovery: {} live records, damage found: {}",
                    reopened.len(),
                    report.found_damage()
                ),
            );
        }
        Err(e) => metrics.record(
            EventKind::StoreDegraded,
            "",
            None,
            &format!("post-fault recovery failed: {e}"),
        ),
    }
    cost
}

/// Threaded-mode worker: builds its shard (providers are not `Send`, so
/// each machine is born and dies on its own thread), then pulls items —
/// its own deque first, stealing from the deepest peer deque when idle —
/// until shutdown with no reachable work.
///
/// Wall-clock steal order is inherently racy, so the threaded victim
/// rule is load-based (deepest deque, ties to the lowest index) rather
/// than seeded; determinism claims live entirely in the virtual-time
/// backend.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    index: usize,
    machine: MachineConfig,
    verdict_cache: Option<SharedVerdictCache>,
    shared: Arc<SharedQueue>,
    tx: mpsc::Sender<WorkerMsg>,
    run_cfg: SessionRunConfig,
    metrics: Arc<ServeMetrics>,
    steal: bool,
) {
    let _guard = WorkerGuard(Arc::clone(&shared));
    let mut shard = Shard::new(index, &machine, verdict_cache);
    'outer: loop {
        let item = {
            let mut work = lock_recover(&shared.work);
            loop {
                if let Some(item) = work.pop_own(index) {
                    break Some(item);
                }
                if steal {
                    let victim = work
                        .victims(index)
                        .into_iter()
                        .max_by_key(|&i| (work.depth(i), std::cmp::Reverse(i)));
                    if let Some(victim) = victim {
                        if let Some(item) = work.steal_from(victim) {
                            let from_dead = shared.dead[victim].load(Ordering::SeqCst);
                            metrics.record_steal(item.sessions.len() as u64, from_dead);
                            break Some(item);
                        }
                    }
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // Bounded wait: a missed notification (or a peer that
                // died holding the lock) costs at most one poll
                // interval, never a hung worker.
                let (guard, _) = shared
                    .available
                    .wait_timeout(work, WORKER_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
                work = guard;
            }
        };
        let Some(item) = item else {
            break;
        };
        let batch_key = item.batch_key;
        let mut remaining = item.sessions.into_iter();
        while let Some(qs) = remaining.next() {
            let report =
                shard.run_session_with_fault(&qs.req, &run_cfg, &metrics, qs.directive.as_ref());
            metrics.record_timing(
                &report.stages,
                report.cycles,
                report.latency_cycles,
                report.wall_nanos,
            );
            let died = shard.is_dead();
            if tx.send(WorkerMsg::Report(Box::new(report))).is_err() {
                break 'outer;
            }
            if died {
                // The injected death takes effect after the report
                // ships: the session's typed failure is visible, then
                // the rest of the batch goes back to this worker's
                // deque — peers steal from dead deques, so nothing
                // queued is lost — and the liveness guard announces
                // the death.
                shared.dead[index].store(true, Ordering::SeqCst);
                let rest: Vec<QueuedSession> = remaining.collect();
                if !rest.is_empty() {
                    lock_recover(&shared.work).push_front(
                        index,
                        WorkItem {
                            home: index,
                            batch_key,
                            sessions: rest,
                        },
                    );
                }
                shared.available.notify_all();
                break 'outer;
            }
        }
    }
    let _ = tx.send(WorkerMsg::Done {
        cycles: shard.total_cycles(),
    });
}
