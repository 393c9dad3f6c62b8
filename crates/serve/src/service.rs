//! The provisioning service: admission control in front of a shard
//! fleet, with two interchangeable work-stealing scheduler backends.
//!
//! - **Virtual time** ([`SchedMode::VirtualTime`]): sessions "arrive" on
//!   a fixed model-cycle cadence, and an incremental event loop runs the
//!   fleet forward: the earliest-free live worker pops its own deque, or
//!   steals a whole item from a victim chosen as a pure function of
//!   `(seed, tick)` when its deque is empty. Durations are the shards'
//!   actual machine cycle deltas, so throughput, latency, queueing, and
//!   `Busy` rejections are all functions of the cost model alone —
//!   bit-reproducible for a fixed seed, independent of host load or
//!   core count. This is the repo's headline measurement mode,
//!   consistent with every other OpenSGX-style cycle figure.
//! - **Threaded** ([`SchedMode::Threaded`]): real `std::thread` workers,
//!   one deque per worker behind a shared mutex+condvar; an idle worker
//!   steals from the deepest peer deque. Wall-clock numbers from this
//!   mode are auxiliary (they depend on host cores) but exercise the
//!   actual concurrency: machines are never shared, one per worker
//!   thread.
//!
//! Only three things differ between the backends: where the deques live
//! (owned by the event loop, or behind the shared mutex), how a worker
//! picks its next item (earliest-free worker with a seeded victim, or
//! deepest-deque victim with the condvar), and the clock (virtual
//! instants, or wall time). Everything else is one scheduler core that
//! both call: admission (`Busy`, then `PoolDead`, then a batch join or a
//! push to the home deque), item execution ([`Shard::run_session`] per
//! session, timing, death-requeue), the write-behind store flush, and
//! the drain tail. Both feed the same [`ServeMetrics`].
//!
//! Worker death is steal-aware in both backends: a dead worker's deque
//! is *not* lost — its queued items stay stealable and peers drain
//! them, so only the session that carried the death fault fails. Only a
//! fully dead fleet turns queued sessions into typed `PoolDead`
//! failures.

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
use engarde_crypto::sha256::Sha256;
use engarde_sgx::machine::MachineConfig;
use engarde_store::{chaos, VerdictStore, STORE_FLUSH_PER_RECORD, STORE_HYDRATE_PER_RECORD};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// the remainder flushes. A store that fails to open degrades the
    /// service to memory-only operation with a typed event — never a
    /// panic.
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
    /// The fleet cache whose dirty log feeds the store (a store always
    /// comes with a cache to hydrate into).
    cache: SharedVerdictCache,
    /// Store faults scheduled by the fault plan during this run; they
    /// damage bytes at rest, so they are applied (and their recovery
    /// proven) at drain, after the final flush.
    pending_faults: Vec<FaultDirective>,
}

impl StoreState {
    /// Takes the cache's dirty log and appends it to the store,
    /// recording the flushed count, or a `StoreDegraded` event naming
    /// `session`, `shard` and `what` failed. Returns the model cycles
    /// the flush costs, or `None` when the append failed.
    fn flush(
        &mut self,
        metrics: &ServeMetrics,
        session: &str,
        shard: Option<usize>,
        what: &str,
    ) -> Option<u64> {
        let dirty = lock_cache(&self.cache).take_dirty();
        let n = dirty.len() as u64;
        match self.store.append_batch(&dirty) {
            Ok(()) => {
                metrics.record_store_flushed(n);
                Some(n * STORE_FLUSH_PER_RECORD)
            }
            Err(e) => {
                metrics.record(
                    EventKind::StoreDegraded,
                    session,
                    shard,
                    &format!("{what} failed: {e}"),
                );
                None
            }
        }
    }
}

/// What both backends share: the configuration, the metrics, the fleet
/// verdict cache, the store behind one lock, and the reports. Admission,
/// item execution, the write-behind flush and the drain tail are its
/// methods, so each exists once.
struct Core {
    cfg: ServiceConfig,
    metrics: Arc<ServeMetrics>,
    verdict_cache: Option<SharedVerdictCache>,
    store: Mutex<Option<StoreState>>,
    /// `(arrival_index, report)` for every finished session, in
    /// completion order; drain sorts them.
    reports: Mutex<Vec<(u64, SessionReport)>>,
}

impl Core {
    /// Admission control: refuses with `Busy` when `queue_capacity`
    /// sessions already wait, then with `PoolDead` when `fleet_dead`
    /// (a *partially* dead fleet still admits: live peers steal from
    /// dead shards' deques). An admitted session joins an open same-key
    /// batch, or goes to its home deque: the tenant's shard hint, else
    /// the backend's `fallback_home`.
    fn admit(
        &self,
        work: &mut WorkDeques,
        qs: QueuedSession,
        fleet_dead: bool,
        fallback_home: usize,
    ) -> Result<(), ServeError> {
        let name = qs.req.name.as_str();
        let waiting = work.queued_sessions();
        if waiting >= self.cfg.queue_capacity {
            self.metrics.record(
                EventKind::RejectedBusy,
                name,
                None,
                &format!("queue depth {waiting}"),
            );
            return Err(ServeError::Busy {
                queue_depth: waiting,
            });
        }
        if fleet_dead {
            self.metrics
                .record(EventKind::Shed, name, None, "no live shards");
            return Err(ServeError::PoolDead);
        }
        self.metrics.observe_queue_depth(waiting + 1);
        self.metrics.record(EventKind::Admitted, name, None, "");
        let batch_key = batchable_key(&qs.req, self.cfg.batch.as_ref());
        if let (Some(key), Some(policy)) = (&batch_key, self.cfg.batch.as_ref()) {
            if let Some(item) = work.find_joinable(key, policy) {
                item.sessions.push(qs);
                self.metrics.record_batch_join(item.sessions.len() as u64);
                return Ok(());
            }
        }
        let shards = self.cfg.shards.max(1);
        let home = qs.req.shard_hint.map_or(fallback_home, |h| h % shards);
        work.push(WorkItem {
            home,
            batch_key,
            sessions: vec![qs],
        });
        self.metrics.observe_deque_depth(work.depth(home) as u64);
        Ok(())
    }

    /// Runs one work item (a session or a whole batch) on `shard`,
    /// records each session's timing and report, and flushes
    /// write-behind after each. `clock` is the shard's virtual clock
    /// (virtual time) or `None` (threaded, where the wall clock is
    /// authoritative). If the shard dies mid-item, returns the unstarted
    /// rest for the caller to requeue at the front of its deque, so live
    /// peers steal and finish it.
    fn run_item(
        &self,
        shard: &mut Shard,
        item: WorkItem,
        mut clock: Option<&mut u64>,
    ) -> Option<WorkItem> {
        let batch_key = item.batch_key;
        let mut remaining = item.sessions.into_iter();
        while let Some(qs) = remaining.next() {
            let mut report =
                shard.run_session(&qs.req, &self.cfg.run, &self.metrics, qs.directive.as_ref());
            let mut wall_nanos = report.wall_nanos;
            if let Some(pos) = clock.as_deref_mut() {
                // A batch follower cannot start before it arrives: the
                // leader may still be running (overlap is fine — the
                // follower joined an in-flight batch), but its own start
                // clamps to its arrival. Virtual timing stays a function
                // of the cost model alone, so the wall clock is not
                // recorded.
                let end = (*pos).max(qs.arrival) + report.cycles;
                report.latency_cycles = end - qs.arrival;
                *pos = end;
                wall_nanos = 0;
            }
            self.metrics.record_timing(
                &report.stages,
                report.cycles,
                report.latency_cycles,
                wall_nanos,
            );
            let flush_cycles = self.flush_write_behind(&qs.req.name, shard.index());
            if let Some(pos) = clock.as_deref_mut() {
                *pos += flush_cycles;
            }
            lock_recover(&self.reports).push((qs.arrival_index, report));
            if shard.is_dead() {
                // Steal-aware worker death: only the session that
                // carried the fault failed; the rest of the batch goes
                // back to the dead shard's deque for peers to drain.
                let sessions: Vec<QueuedSession> = remaining.collect();
                return (!sessions.is_empty()).then(|| WorkItem {
                    home: shard.index(),
                    batch_key,
                    sessions,
                });
            }
        }
        None
    }

    /// Write-behind flush: once `flush_batch` fresh verdicts have
    /// queued up, seal them to the store, so the dirty queue stays
    /// bounded while the service runs. Returns the flush's model cycles
    /// (virtual time charges them to the shard that just ran). A failed
    /// flush detaches the store: persistence degrades, serving does not.
    fn flush_write_behind(&self, session: &str, shard: usize) -> u64 {
        let mut store = lock_recover(&self.store);
        let Some(state) = store.as_mut() else {
            return 0;
        };
        let depth = lock_cache(&state.cache).dirty_len();
        self.metrics.observe_flush_queue_depth(depth as u64);
        if depth < state.cfg.flush_batch.max(1) {
            return 0;
        }
        let flushed = state.flush(&self.metrics, session, Some(shard), "write-behind flush");
        if flushed.is_none() {
            lock_cache(&state.cache).stop_tracking_dirty();
            *store = None;
        }
        flushed.unwrap_or(0)
    }

    /// The drain tail: sessions still queued after the fleet stopped
    /// (a fully dead fleet, or dead-shard deques with stealing off) get
    /// typed `PoolDead` failure reports, not silence; then the store
    /// finishes and the cache counters are mirrored. Returns the model
    /// cycles the final flush cost.
    fn finish(&self, unreachable: Vec<QueuedSession>) -> u64 {
        let error = ServeError::PoolDead.to_string();
        for qs in unreachable {
            self.metrics
                .record(EventKind::Failed, &qs.req.name, None, &error);
            let report = SessionReport::without_verdict(
                qs.req.name,
                usize::MAX,
                SessionOutcome::Failed {
                    error: error.clone(),
                },
                0,
                0,
                0,
            );
            lock_recover(&self.reports).push((qs.arrival_index, report));
        }
        let store_cycles = finish_store(lock_recover(&self.store).take(), &self.metrics);
        if let Some(cache) = &self.verdict_cache {
            self.metrics.set_cache_stats(&lock_cache(cache).stats());
        }
        store_cycles
    }
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
}

impl VirtualState {
    /// The virtual-time event loop: repeatedly give the earliest-free
    /// live worker that can reach work (own deque, or any deque when
    /// stealing) its next item, until the fleet's next start would pass
    /// `until` or no reachable work remains.
    ///
    /// Determinism: worker choice is a pure function of the
    /// (deterministic) `free_at` vector; steal-victim choice is
    /// [`faults::steal_victim`]`(seed, tick, candidates)` — a pure
    /// function of the fleet seed and a monotonic counter. Nothing here
    /// reads host state.
    fn advance(&mut self, until: u64, core: &Core) {
        loop {
            let worker = (0..self.shards.len())
                .filter(|&i| !self.shards[i].is_dead())
                .filter(|&i| {
                    self.work.depth(i) > 0 || (core.cfg.steal && !self.work.victims(i).is_empty())
                })
                .min_by_key(|&i| (self.free_at[i], i));
            let Some(w) = worker else { break };
            if self.free_at[w] > until {
                break;
            }
            let item = match self.work.pop_own(w) {
                Some(item) => item,
                None => {
                    let victims = self.work.victims(w);
                    let pick =
                        faults::steal_victim(self.steal_seed, self.steal_tick, victims.len());
                    self.steal_tick += 1;
                    let Some(&victim) = victims.get(pick) else {
                        break;
                    };
                    let Some(item) = self.work.steal_from(victim) else {
                        break;
                    };
                    core.metrics
                        .record_steal(item.sessions.len() as u64, self.shards[victim].is_dead());
                    item
                }
            };
            let clock = Some(&mut self.free_at[w]);
            if let Some(rest) = core.run_item(&mut self.shards[w], item, clock) {
                self.work.push_front(w, rest);
            }
        }
    }

    /// The fallback home rule: the live shard that could start a
    /// session arriving at `arrival` soonest.
    fn earliest_free(&self, arrival: u64) -> usize {
        (0..self.shards.len())
            .filter(|&i| !self.shards[i].is_dead())
            .min_by_key(|&i| (self.free_at[i].max(arrival), i))
            .unwrap_or(0)
    }
}

/// The threaded backend's queue.
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

impl SharedQueue {
    /// Worker `index`'s next item: its own deque first, else (when
    /// `steal`) the front of the deepest peer deque, waiting on the
    /// condvar while there is none. `None` once shutdown leaves no
    /// reachable work.
    ///
    /// Wall-clock steal order is inherently racy, so the threaded
    /// victim rule is load-based (deepest deque, ties to the lowest
    /// index) rather than seeded; determinism claims live entirely in
    /// the virtual-time backend.
    fn next_item(&self, index: usize, steal: bool, metrics: &ServeMetrics) -> Option<WorkItem> {
        let mut work = lock_recover(&self.work);
        loop {
            if let Some(item) = work.pop_own(index) {
                return Some(item);
            }
            if steal {
                let victim = work
                    .victims(index)
                    .into_iter()
                    .max_by_key(|&i| (work.depth(i), std::cmp::Reverse(i)));
                if let Some(victim) = victim {
                    if let Some(item) = work.steal_from(victim) {
                        let from_dead = self.dead[victim].load(Ordering::SeqCst);
                        metrics.record_steal(item.sessions.len() as u64, from_dead);
                        return Some(item);
                    }
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            // Bounded wait: a missed notification (or a peer that died
            // holding the lock) costs at most one poll interval, never a
            // hung worker.
            work = self
                .available
                .wait_timeout(work, WORKER_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Panic-safe liveness accounting for one worker thread.
struct WorkerGuard(Arc<SharedQueue>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

struct ThreadedState {
    shared: Arc<SharedQueue>,
    /// Each worker returns its shard's total model cycles.
    workers: Vec<thread::JoinHandle<u64>>,
}

enum Backend {
    Virtual(VirtualState),
    Threaded(ThreadedState),
}

/// The multi-tenant provisioning service.
pub struct ProvisioningService {
    core: Arc<Core>,
    backend: Backend,
    submitted: u64,
    started: std::time::Instant,
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
        let store = cfg
            .store
            .as_ref()
            .zip(verdict_cache.as_ref())
            .and_then(|(sc, cache)| open_store(sc, cache, &metrics));
        // Warm start is not free: every hydrated record pays a read +
        // authenticate + decode charge on the virtual clock before the
        // first session can run.
        let hydrate_cycles = metrics.store_stats().hydrated * STORE_HYDRATE_PER_RECORD;
        let core = Arc::new(Core {
            cfg,
            metrics,
            verdict_cache,
            store: Mutex::new(store),
            reports: Mutex::new(Vec::new()),
        });
        let backend = match core.cfg.mode {
            SchedMode::VirtualTime { arrival_gap } => Backend::Virtual(VirtualState {
                shards: (0..shards)
                    .map(|i| Shard::new(i, &core.cfg.machine, core.verdict_cache.clone()))
                    .collect(),
                free_at: vec![hydrate_cycles; shards],
                work: WorkDeques::new(shards),
                arrival_gap,
                steal_seed: core.cfg.machine.seed ^ STEAL_SEED_TAG,
                steal_tick: 0,
            }),
            SchedMode::Threaded => {
                let shared = Arc::new(SharedQueue {
                    work: Mutex::new(WorkDeques::new(shards)),
                    available: Condvar::new(),
                    shutdown: AtomicBool::new(false),
                    live: AtomicUsize::new(shards),
                    dead: (0..shards).map(|_| AtomicBool::new(false)).collect(),
                });
                let workers = (0..shards)
                    .map(|i| {
                        let (core, shared) = (Arc::clone(&core), Arc::clone(&shared));
                        thread::spawn(move || worker_loop(i, &core, shared))
                    })
                    .collect();
                Backend::Threaded(ThreadedState { shared, workers })
            }
        };
        ProvisioningService {
            core,
            backend,
            submitted: 0,
            started: std::time::Instant::now(),
        }
    }

    /// The service metrics handle.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.core.metrics)
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
    /// [`ServeError::PoolDead`] when no worker is left to run it.
    pub fn submit(&mut self, req: SessionRequest) -> Result<(), ServeError> {
        let arrival_index = self.submitted;
        let core = &*self.core;
        // The directive is a pure function of (plan seed, arrival
        // index): scheduling, machine state, and host timing cannot
        // perturb the fault schedule, so it replays bit-identically.
        let mut directive = core
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
            if let Some(state) = lock_recover(&core.store).as_mut() {
                state.pending_faults.push(d);
            }
        }
        let mut qs = QueuedSession {
            arrival_index,
            arrival: 0,
            req,
            directive,
        };
        match &mut self.backend {
            Backend::Virtual(v) => {
                qs.arrival = arrival_index * v.arrival_gap;
                let arrival = qs.arrival;
                // Catch the simulation up to this instant first:
                // admission must see what is *actually* still queued at
                // the arrival, not what was queued at the last submit.
                v.advance(arrival, core);
                let dead = v.shards.iter().all(Shard::is_dead);
                let home = v.earliest_free(arrival);
                core.admit(&mut v.work, qs, dead, home)?;
                // Let an idle worker start the new work at its arrival
                // instant (batched joins ride an already-queued item).
                v.advance(arrival, core);
            }
            Backend::Threaded(t) => {
                let dead = t.shared.live.load(Ordering::SeqCst) == 0;
                let shards = core.cfg.shards.max(1);
                let mut work = lock_recover(&t.shared.work);
                core.admit(&mut work, qs, dead, arrival_index as usize % shards)?;
                drop(work);
                // Wake the whole fleet: the home worker may be busy
                // while an idle peer could steal the new item.
                t.shared.available.notify_all();
            }
        }
        self.submitted += 1;
        Ok(())
    }

    /// Graceful drain: lets queued sessions finish, joins the workers,
    /// and returns every report plus the metrics.
    pub fn drain(self) -> ServiceResult {
        let core = self.core;
        core.metrics
            .record(EventKind::DrainStarted, "", None, "graceful drain");
        let (unreachable, shards, busy_until) = match self.backend {
            Backend::Virtual(mut v) => {
                // Run the simulation to completion: every queued item a
                // live worker can reach (own deque or steal) finishes.
                v.advance(u64::MAX, &core);
                let busy_until = v.free_at.iter().copied().max().unwrap_or(0);
                (v.work.drain_all(), v.shards, busy_until)
            }
            Backend::Threaded(t) => {
                t.shared.shutdown.store(true, Ordering::SeqCst);
                t.shared.available.notify_all();
                let busy_until = t.workers.into_iter().map(|h| h.join().unwrap_or(0)).max();
                let unreachable = lock_recover(&t.shared.work).drain_all();
                (unreachable, Vec::new(), busy_until.unwrap_or(0))
            }
        };
        let threaded = core.cfg.mode == SchedMode::Threaded;
        let store_cycles = core.finish(unreachable);
        let mut reports = std::mem::take(&mut *lock_recover(&core.reports));
        // Stealing finishes sessions out of submission order; virtual
        // reports are handed back in it, threaded ones by name.
        reports.sort_by_key(|(i, _)| *i);
        if threaded {
            reports.sort_by(|(_, a), (_, b)| a.name.cmp(&b.name));
        }
        ServiceResult {
            reports: reports.into_iter().map(|(_, r)| r).collect(),
            metrics: Arc::clone(&core.metrics),
            shards,
            // Only virtual time charges the final flush to its clock.
            makespan_cycles: busy_until + if threaded { 0 } else { store_cycles },
            wall_nanos: self.started.elapsed().as_nanos() as u64,
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

/// Opens (and recovers) the store before any shard boots and hydrates
/// `cache` from it. A store that cannot open degrades the service to
/// memory-only with a typed event rather than failing the whole fleet.
fn open_store(
    sc: &StoreConfig,
    cache: &SharedVerdictCache,
    metrics: &ServeMetrics,
) -> Option<StoreState> {
    let (store, recovery) = match VerdictStore::open(&sc.dir, &sc.seal_key, sc.options()) {
        Ok(opened) => opened,
        Err(e) => {
            metrics.record(
                EventKind::StoreDegraded,
                "",
                None,
                &format!("store failed to open, running memory-only: {e}"),
            );
            return None;
        }
    };
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
    let mut locked = lock_cache(cache);
    // Track dirty inserts from here on so live verdicts can be flushed
    // write-behind; hydrated entries are already durable and are not
    // re-logged.
    locked.track_dirty();
    metrics.record_store_hydrated(store.hydrate_into(&mut locked) as u64);
    drop(locked);
    Some(StoreState {
        store,
        cfg: sc.clone(),
        cache: Arc::clone(cache),
        pending_faults: Vec::new(),
    })
}

/// Drain-time store finalization: flush the remaining dirty verdicts,
/// mirror the store counters into the metrics, then apply any at-rest
/// faults the plan scheduled during the run and prove they recover
/// (typed counters, longest authenticated prefix, never a panic).
/// Returns the model cycles the final flush cost, so virtual mode can
/// charge it to the makespan.
fn finish_store(state: Option<StoreState>, metrics: &ServeMetrics) -> u64 {
    let Some(mut state) = state else { return 0 };
    let cost = state.flush(metrics, "", None, "drain flush").unwrap_or(0);
    let StoreState {
        store,
        cfg,
        pending_faults,
        ..
    } = state;
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
    match VerdictStore::open(&dir, &cfg.seal_key, cfg.options()) {
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
/// each machine is born and dies on its own thread), then runs items
/// until shutdown leaves no reachable work or its shard dies. Returns
/// the shard's total model cycles.
fn worker_loop(index: usize, core: &Core, shared: Arc<SharedQueue>) -> u64 {
    let guard = WorkerGuard(shared);
    let shared = &guard.0;
    let mut shard = Shard::new(index, &core.cfg.machine, core.verdict_cache.clone());
    while let Some(item) = shared.next_item(index, core.cfg.steal, &core.metrics) {
        let rest = core.run_item(&mut shard, item, None);
        if shard.is_dead() {
            // The death takes effect after the dying session's report
            // is recorded: the flag goes up first so a peer stealing
            // the requeued rest counts it as drained from the dead, and
            // the liveness guard announces the death on return.
            shared.dead[index].store(true, Ordering::SeqCst);
            if let Some(rest) = rest {
                lock_recover(&shared.work).push_front(index, rest);
            }
            shared.available.notify_all();
            break;
        }
    }
    shard.total_cycles()
}
