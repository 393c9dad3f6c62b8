//! Shard workers: each shard owns one [`SgxMachine`]-backed
//! [`CloudProvider`] and runs sessions to completion with eviction,
//! retry-with-budget, and EPC recycling.
//!
//! A shard is the unit of parallelism: providers are not `Send`-shared —
//! every shard's machine lives on exactly one worker (threaded mode) or
//! is driven round-robin by the virtual-time scheduler. Either way the
//! per-session logic is identical and lives in [`Shard::run_session`].
//!
//! [`SgxMachine`]: engarde_sgx::machine::SgxMachine

use crate::error::{is_retryable, EvictReason, ServeError};
use crate::faults::{self, FaultDirective, FaultKind};
use crate::metrics::{EventKind, FaultStage, ServeMetrics};
use crate::session::{SessionFsm, SessionPhase, SessionRequest};
use engarde_core::cache::SharedVerdictCache;
use engarde_core::protocol::SignedVerdict;
use engarde_core::provider::CloudProvider;
use engarde_core::provision::StageCycles;
use engarde_crypto::sha256::Digest;
use engarde_sgx::machine::{EnclaveId, MachineConfig};
use std::collections::VecDeque;

/// How one session ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SessionOutcome {
    /// Inspection passed; the enclave was finalized.
    Compliant,
    /// Inspection produced a signed rejection verdict.
    NonCompliant,
    /// The service evicted the session mid-protocol.
    Evicted {
        /// Why.
        reason: EvictReason,
    },
    /// A terminal failure (after retries, if the error was retryable).
    Failed {
        /// The rendered error.
        error: String,
    },
    /// The shard's circuit breaker was open; the session was shed
    /// without touching the machine.
    Shed,
}

impl SessionOutcome {
    /// The outcome's class as one byte (0 compliant, 1 non-compliant,
    /// 2 evicted, 3 failed, 4 shed), as the service and bench
    /// fingerprints hash it.
    pub fn class_byte(&self) -> u8 {
        match self {
            SessionOutcome::Compliant => 0,
            SessionOutcome::NonCompliant => 1,
            SessionOutcome::Evicted { .. } => 2,
            SessionOutcome::Failed { .. } => 3,
            SessionOutcome::Shed => 4,
        }
    }
}

/// Everything the service records about one finished session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The session's name.
    pub name: String,
    /// Shard that ran it.
    pub shard: usize,
    /// How it ended.
    pub outcome: SessionOutcome,
    /// Per-stage inspection costs (zero unless a verdict was reached).
    pub stages: StageCycles,
    /// Model cycles this session consumed on its shard's machine.
    pub cycles: u64,
    /// End-to-end latency in model cycles (duration + queueing delay;
    /// the scheduler fills the queueing component in).
    pub latency_cycles: u64,
    /// Wall-clock time spent running the session.
    pub wall_nanos: u64,
    /// Transient retries performed.
    pub retries: u32,
    /// Sealed blocks the provider accepted.
    pub blocks_delivered: usize,
    /// SHA-256 fingerprint of the session's attested enclave key.
    pub enclave_key_fp: Option<[u8; 32]>,
    /// The enclave's measurement at attestation time.
    pub measurement: Option<Digest>,
    /// The enclave-signed verdict, when one was produced.
    pub verdict: Option<SignedVerdict>,
    /// Whether the tenant's client accepted the verdict signature.
    pub client_verified: bool,
    /// Instructions inspected.
    pub instructions: usize,
    /// Whether the verdict was replayed from the shared verdict cache.
    pub cache_hit: bool,
}

impl SessionReport {
    /// Whether the session reached a verdict (either polarity).
    pub fn reached_verdict(&self) -> bool {
        matches!(
            self.outcome,
            SessionOutcome::Compliant | SessionOutcome::NonCompliant
        )
    }
}

/// Per-session execution knobs, shared by both scheduler backends.
#[derive(Clone, Debug)]
pub struct SessionRunConfig {
    /// Additional attempts allowed after a transient failure.
    pub retry_budget: u32,
    /// Model-cycle budget for the delivery phase; exceeding it evicts
    /// the session (`DeliverBudgetExceeded`).
    pub deliver_cycle_budget: Option<u64>,
    /// Destroy compliant enclaves after inspection (recycling EPC). When
    /// false, compliant enclaves are retained — the long-running-tenant
    /// model — until pressure reclaims them.
    pub release_enclaves: bool,
    /// Under transient EPC pressure, reclaim the oldest retained enclave
    /// before retrying.
    pub reclaim_on_pressure: bool,
    /// Base of the exponential retry backoff, in model cycles; attempt
    /// `n` waits `base · 2^(n-1)` plus deterministic jitter derived
    /// from the session's client seed. `0` disables backoff (retries
    /// are immediate — the pre-fault-layer behavior).
    pub backoff_base_cycles: u64,
    /// End-to-end model-cycle budget for the whole session (attempts
    /// plus backoff); exceeding it between attempts evicts the session
    /// (`SessionBudgetExceeded`). `None` disables the budget.
    pub session_cycle_budget: Option<u64>,
    /// Consecutive terminal failures that open the shard's circuit
    /// breaker; while open, sessions are shed with a typed outcome
    /// instead of run. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long (model cycles of the shard's own clock) an opened
    /// breaker sheds before letting a half-open probe through.
    pub breaker_cooldown_cycles: u64,
}

impl Default for SessionRunConfig {
    fn default() -> Self {
        SessionRunConfig {
            retry_budget: 2,
            deliver_cycle_budget: None,
            release_enclaves: true,
            reclaim_on_pressure: true,
            backoff_base_cycles: 0,
            session_cycle_budget: None,
            breaker_threshold: 0,
            breaker_cooldown_cycles: 0,
        }
    }
}

impl SessionRunConfig {
    /// The chaos-hardened profile used by fault benches and tests:
    /// three retries with exponential backoff + jitter, a generous
    /// session budget, and a 4-strike breaker with a cooldown.
    pub fn chaos_hardened() -> Self {
        SessionRunConfig {
            retry_budget: 3,
            backoff_base_cycles: 50_000,
            session_cycle_budget: Some(2_000_000_000),
            breaker_threshold: 4,
            breaker_cooldown_cycles: 20_000_000,
            ..SessionRunConfig::default()
        }
    }
}

/// Admission-time batching policy. Small sessions whose
/// [`SessionRequest::admission_key`] matches an item already queued
/// join that item instead of queueing alone; the whole batch then runs
/// back-to-back on one worker, so the leader's full inspection seeds
/// the verdict cache and every follower replays it for `CACHE_PROBE` +
/// receive/decrypt — one inspection amortized across the batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchPolicy {
    /// Largest number of sessions one batch may hold (≥ 2 to batch at
    /// all; 1 degenerates to unbatched admission).
    pub max_sessions: usize,
    /// Sessions with binaries larger than this never join a batch — a
    /// huge image holding a queue slot hostage defeats the point of
    /// amortizing small sessions.
    pub max_bytes: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_sessions: 8,
            max_bytes: 1 << 20,
        }
    }
}

/// One admitted session waiting in a deque.
pub(crate) struct QueuedSession {
    /// Submission order (reports are re-sorted by it at drain).
    pub arrival_index: u64,
    /// Virtual arrival instant (always 0 in threaded mode, where the
    /// wall clock is authoritative).
    pub arrival: u64,
    /// The request itself.
    pub req: SessionRequest,
    /// The fault scheduled for this arrival, if any.
    pub directive: Option<FaultDirective>,
}

/// The unit of scheduling: one session, or a batch of same-key
/// sessions that must run back-to-back on whichever worker takes the
/// item. Stealing moves whole items, so a batch is never split across
/// machines (splitting would forfeit the shared-cache amortization the
/// batch exists for).
pub(crate) struct WorkItem {
    /// Shard whose deque this item was admitted to.
    pub home: usize,
    /// The shared admission key, for joinable batches; `None` for
    /// sessions excluded from batching (stalls, oversized binaries, or
    /// batching disabled).
    pub batch_key: Option<[u8; 32]>,
    /// The sessions, in join order — the first is the batch leader.
    pub sessions: Vec<QueuedSession>,
}

impl WorkItem {
    /// Whether `key` may join this queued item under `policy`.
    pub fn can_join(&self, key: &[u8; 32], policy: &BatchPolicy) -> bool {
        self.batch_key.as_ref() == Some(key) && self.sessions.len() < policy.max_sessions
    }
}

/// The per-shard work deques both scheduler backends share: shard `i`
/// owns `deques[i]`, pushes admitted items to its back, and pops its
/// own work from the front (FIFO for fairness); an idle worker steals
/// a whole item from the *front* of a victim's deque (the oldest,
/// most-overdue work moves first). Dead shards keep their deques —
/// stealing is how their queued sessions survive a worker death.
pub(crate) struct WorkDeques {
    deques: Vec<VecDeque<WorkItem>>,
    queued_sessions: usize,
}

impl WorkDeques {
    pub fn new(shards: usize) -> Self {
        WorkDeques {
            deques: (0..shards).map(|_| VecDeque::new()).collect(),
            queued_sessions: 0,
        }
    }

    /// Sessions admitted but not yet started (the admission-control
    /// queue depth).
    pub fn queued_sessions(&self) -> usize {
        self.queued_sessions
    }

    /// Queued items in shard `i`'s deque.
    pub fn depth(&self, i: usize) -> usize {
        self.deques[i].len()
    }

    /// Pushes a fresh item to the back of its home deque.
    pub fn push(&mut self, item: WorkItem) {
        self.queued_sessions += item.sessions.len();
        self.deques[item.home].push_back(item);
    }

    /// Requeues an interrupted item at the *front* of shard `i`'s deque
    /// (it was already dequeued once; its remaining sessions go back to
    /// the head so peers draining the dead shard see them first).
    pub fn push_front(&mut self, i: usize, item: WorkItem) {
        self.queued_sessions += item.sessions.len();
        self.deques[i].push_front(item);
    }

    /// Pops shard `i`'s own next item (front: oldest first).
    pub fn pop_own(&mut self, i: usize) -> Option<WorkItem> {
        let item = self.deques[i].pop_front()?;
        self.queued_sessions -= item.sessions.len();
        Some(item)
    }

    /// Steals the *oldest* item from the front of shard `victim`'s
    /// deque. Thieves take the FIFO end: the oldest item has the
    /// earliest arrival, so a steal never leaves an overdue session
    /// waiting while the thief idles on an arrival clamp — stealing the
    /// newest item instead measurably loses throughput to exactly those
    /// gaps.
    pub fn steal_from(&mut self, victim: usize) -> Option<WorkItem> {
        let item = self.deques[victim].pop_front()?;
        self.queued_sessions -= item.sessions.len();
        Some(item)
    }

    /// Shards with work available to steal, ascending. Dead shards are
    /// deliberately *not* filtered here: their deques must drain.
    pub fn victims(&self, excluding: usize) -> Vec<usize> {
        (0..self.deques.len())
            .filter(|&i| i != excluding && !self.deques[i].is_empty())
            .collect()
    }

    /// Finds a queued item `key` may join under `policy`, scanning
    /// deques in shard order and each deque back-to-front (newest
    /// first — an older batch is closer to running and joining it
    /// would race its start in threaded mode). Returns a mutable
    /// handle so the caller can append the joining session.
    pub fn find_joinable(&mut self, key: &[u8; 32], policy: &BatchPolicy) -> Option<&mut WorkItem> {
        // Two passes to appease the borrow checker: locate, then borrow.
        let mut found = None;
        'outer: for (d, deque) in self.deques.iter().enumerate() {
            for (j, item) in deque.iter().enumerate().rev() {
                if item.can_join(key, policy) {
                    found = Some((d, j));
                    break 'outer;
                }
            }
        }
        let (d, j) = found?;
        self.queued_sessions += 1;
        self.deques[d].get_mut(j)
    }

    /// Drains every remaining session out of every deque (a fully dead
    /// fleet at drain time): the sessions that will get typed
    /// `PoolDead` failure reports instead of silently vanishing.
    pub fn drain_all(&mut self) -> Vec<QueuedSession> {
        self.queued_sessions = 0;
        self.deques
            .iter_mut()
            .flat_map(|d| d.drain(..))
            .flat_map(|item| item.sessions)
            .collect()
    }
}

/// One shard: a provider on its own SGX machine plus the enclaves it has
/// retained for long-running tenants.
pub struct Shard {
    index: usize,
    provider: CloudProvider,
    retained: VecDeque<EnclaveId>,
    dead: bool,
    breaker_failures: u32,
    breaker_open_until: Option<u64>,
    breaker_tripped: bool,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shard({}, {} retained)", self.index, self.retained.len())
    }
}

/// What one protocol attempt produced (before outcome bookkeeping).
struct AttemptOutput {
    compliant: bool,
    stages: StageCycles,
    instructions: usize,
    blocks_delivered: usize,
    enclave_key_fp: Option<[u8; 32]>,
    measurement: Option<Digest>,
    verdict: Option<SignedVerdict>,
    client_verified: bool,
    cache_hit: bool,
    taint: Option<engarde_core::analysis::TaintStats>,
}

impl Shard {
    /// Boots shard `index` on a machine derived from `base` via
    /// [`MachineConfig::shard`] — distinct device keys and RNG streams
    /// per shard, deterministically. When `verdict_cache` is given, the
    /// shard's provider probes (and feeds) it on every inspection; the
    /// same handle attached to every shard is what shares verdicts
    /// across the fleet.
    pub fn new(
        index: usize,
        base: &MachineConfig,
        verdict_cache: Option<SharedVerdictCache>,
    ) -> Self {
        let mut provider = CloudProvider::new(base.shard(index));
        if let Some(cache) = verdict_cache {
            provider.set_verdict_cache(cache);
        }
        Shard {
            index,
            provider,
            retained: VecDeque::new(),
            dead: false,
            breaker_failures: 0,
            breaker_open_until: None,
            breaker_tripped: false,
        }
    }

    /// Whether this shard's worker has died (a `WorkerDeath` fault or a
    /// panicked thread). A dead shard runs no further sessions; the
    /// scheduler must route around it.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether the shard's circuit breaker is currently shedding load.
    pub fn breaker_open(&self) -> bool {
        self.breaker_open_until
            .is_some_and(|until| self.total_cycles() < until)
    }

    /// The shard's index in the fleet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's provider (assertions and host-state inspection).
    pub fn provider(&self) -> &CloudProvider {
        &self.provider
    }

    /// Enclaves retained for long-running tenants.
    pub fn retained_enclaves(&self) -> usize {
        self.retained.len()
    }

    /// Model cycles consumed on this shard's machine so far.
    pub fn total_cycles(&self) -> u64 {
        self.provider.host().machine().counter().total_cycles()
    }

    /// Destroys the oldest retained enclave, returning the EPC pages it
    /// freed. `None` when nothing is retained.
    pub fn reclaim_oldest(&mut self) -> Option<usize> {
        let id = self.retained.pop_front()?;
        self.provider.close_session(id).ok()
    }

    /// Runs one session start to finish: create, attest, channel,
    /// delivery (with stall/budget eviction), inspection, and teardown
    /// or retention — retrying transient EPC-pressure failures within
    /// `cfg.retry_budget`.
    pub fn run_session(
        &mut self,
        req: &SessionRequest,
        cfg: &SessionRunConfig,
        metrics: &ServeMetrics,
    ) -> SessionReport {
        self.run_session_with_fault(req, cfg, metrics, None)
    }

    /// [`Shard::run_session`] with an optional injected fault. The
    /// directive applies to the *first* attempt only: retries re-seal
    /// the content from the client seed, so transport faults are
    /// recoverable by design, while resource faults (EPC pressure)
    /// persist on the provider until their spike drains.
    ///
    /// Every fault's lifecycle is mirrored into `metrics`:
    /// injected → detected (first typed error) → retried per extra
    /// attempt → recovered (verdict reached) or evicted (terminal
    /// typed rejection). No path panics and no path signs a verdict
    /// over tampered content — tampering dies in the channel layer.
    pub fn run_session_with_fault(
        &mut self,
        req: &SessionRequest,
        cfg: &SessionRunConfig,
        metrics: &ServeMetrics,
        directive: Option<&FaultDirective>,
    ) -> SessionReport {
        let wall_start = std::time::Instant::now();
        let start_cycles = self.total_cycles();

        if cfg.breaker_threshold > 0 {
            if let Some(until) = self.breaker_open_until {
                if self.total_cycles() < until {
                    metrics.record(
                        EventKind::Shed,
                        &req.name,
                        Some(self.index),
                        "circuit breaker open",
                    );
                    if let Some(d) = directive {
                        // The fault was assigned but never ran; the
                        // breaker absorbed it.
                        metrics.record_fault(d.kind, FaultStage::Injected);
                        metrics.record_fault(d.kind, FaultStage::Evicted);
                    }
                    return self.bare_report(req, SessionOutcome::Shed, 0, wall_start, 0);
                }
                // Cooldown elapsed: half-open, this session probes.
                self.breaker_open_until = None;
            }
        }

        metrics.record(EventKind::Started, &req.name, Some(self.index), "");

        if let Some(d) = directive {
            metrics.record_fault(d.kind, FaultStage::Injected);
            metrics.record(
                EventKind::FaultInjected,
                &req.name,
                Some(self.index),
                d.kind.name(),
            );
            if d.kind == FaultKind::WorkerDeath {
                // The worker running this session dies. The shard is
                // marked dead so schedulers route around it instead of
                // waiting on a thread that will never answer.
                self.dead = true;
                metrics.record_fault(d.kind, FaultStage::Detected);
                metrics.record_fault(d.kind, FaultStage::Evicted);
                metrics.record(
                    EventKind::WorkerDied,
                    &req.name,
                    Some(self.index),
                    "injected worker death",
                );
                let rendered = ServeError::WorkerLost.to_string();
                metrics.record(EventKind::Failed, &req.name, Some(self.index), &rendered);
                let cycles = self.total_cycles() - start_cycles;
                return self.bare_report(
                    req,
                    SessionOutcome::Failed { error: rendered },
                    cycles,
                    wall_start,
                    0,
                );
            }
        }

        let mut retries = 0u32;
        let mut fault_detected = false;
        let result = loop {
            let dir = if retries == 0 { directive } else { None };
            match self.attempt(req, cfg, dir) {
                Ok(out) => break Ok(out),
                Err(e) if is_retryable(&e) && retries < cfg.retry_budget => {
                    if let Some(d) = directive {
                        if !fault_detected {
                            fault_detected = true;
                            metrics.record_fault(d.kind, FaultStage::Detected);
                        }
                        metrics.record_fault(d.kind, FaultStage::Retried);
                    }
                    retries += 1;
                    if cfg.backoff_base_cycles > 0 {
                        let wait = faults::backoff_cycles(
                            cfg.backoff_base_cycles,
                            retries,
                            req.client_seed ^ self.index as u64,
                        );
                        self.provider
                            .host_mut()
                            .machine_mut()
                            .counter_mut()
                            .charge_native(wait);
                    }
                    if let Some(budget) = cfg.session_cycle_budget {
                        if self.total_cycles() - start_cycles > budget {
                            break Err((
                                ServeError::Evicted {
                                    reason: EvictReason::SessionBudgetExceeded,
                                },
                                retries,
                            ));
                        }
                    }
                    let reclaimed = if cfg.reclaim_on_pressure {
                        self.reclaim_oldest()
                    } else {
                        None
                    };
                    metrics.record(
                        EventKind::Retried,
                        &req.name,
                        Some(self.index),
                        &match reclaimed {
                            Some(pages) => format!("{e}; reclaimed {pages} EPC pages"),
                            None => format!("{e}"),
                        },
                    );
                }
                Err(e) => {
                    if let Some(d) = directive {
                        if !fault_detected {
                            metrics.record_fault(d.kind, FaultStage::Detected);
                        }
                    }
                    break Err((e, retries));
                }
            }
        };

        if let Some(d) = directive {
            match &result {
                Ok(_) => metrics.record_fault(d.kind, FaultStage::Recovered),
                Err(_) => metrics.record_fault(d.kind, FaultStage::Evicted),
            }
        }
        if cfg.breaker_threshold > 0 {
            match &result {
                Ok(_) => {
                    if self.breaker_tripped {
                        metrics.record(
                            EventKind::BreakerClosed,
                            &req.name,
                            Some(self.index),
                            "clean probe closed the breaker",
                        );
                        self.breaker_tripped = false;
                    }
                    self.breaker_failures = 0;
                }
                Err(_) => {
                    self.breaker_failures += 1;
                    if self.breaker_failures >= cfg.breaker_threshold || self.breaker_tripped {
                        self.breaker_open_until =
                            Some(self.total_cycles() + cfg.breaker_cooldown_cycles);
                        self.breaker_tripped = true;
                        metrics.record(
                            EventKind::BreakerOpened,
                            &req.name,
                            Some(self.index),
                            &format!("{} consecutive failures", self.breaker_failures),
                        );
                        self.breaker_failures = 0;
                    }
                }
            }
        }

        let cycles = self.total_cycles() - start_cycles;
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;
        match result {
            Ok(out) => {
                let outcome = if out.compliant {
                    SessionOutcome::Compliant
                } else {
                    SessionOutcome::NonCompliant
                };
                metrics.record_verdict(out.compliant);
                if let Some(taint) = &out.taint {
                    metrics.record_taint(taint);
                }
                if out.cache_hit {
                    metrics.record(
                        EventKind::CacheHit,
                        &req.name,
                        Some(self.index),
                        "verdict replayed from cache",
                    );
                }
                metrics.record(
                    EventKind::Completed,
                    &req.name,
                    Some(self.index),
                    if out.compliant {
                        "compliant"
                    } else {
                        "noncompliant"
                    },
                );
                SessionReport {
                    name: req.name.clone(),
                    shard: self.index,
                    outcome,
                    stages: out.stages,
                    cycles,
                    latency_cycles: cycles,
                    wall_nanos,
                    retries,
                    blocks_delivered: out.blocks_delivered,
                    enclave_key_fp: out.enclave_key_fp,
                    measurement: out.measurement,
                    verdict: out.verdict,
                    client_verified: out.client_verified,
                    instructions: out.instructions,
                    cache_hit: out.cache_hit,
                }
            }
            Err((e, retries)) => {
                let outcome = match e {
                    ServeError::Evicted { reason } => {
                        metrics.record(
                            EventKind::Evicted,
                            &req.name,
                            Some(self.index),
                            &reason.to_string(),
                        );
                        SessionOutcome::Evicted { reason }
                    }
                    other => {
                        let rendered = if retries > 0 {
                            ServeError::RetriesExhausted {
                                attempts: retries + 1,
                                last: other.to_string(),
                            }
                            .to_string()
                        } else {
                            other.to_string()
                        };
                        metrics.record(EventKind::Failed, &req.name, Some(self.index), &rendered);
                        SessionOutcome::Failed { error: rendered }
                    }
                };
                SessionReport {
                    name: req.name.clone(),
                    shard: self.index,
                    outcome,
                    stages: StageCycles::default(),
                    cycles,
                    latency_cycles: cycles,
                    wall_nanos,
                    retries,
                    blocks_delivered: 0,
                    enclave_key_fp: None,
                    measurement: None,
                    verdict: None,
                    client_verified: false,
                    instructions: 0,
                    cache_hit: false,
                }
            }
        }
    }

    /// A verdict-less report for sessions that never ran the protocol
    /// (shed by the breaker, or lost to a worker death).
    fn bare_report(
        &self,
        req: &SessionRequest,
        outcome: SessionOutcome,
        cycles: u64,
        wall_start: std::time::Instant,
        retries: u32,
    ) -> SessionReport {
        SessionReport {
            name: req.name.clone(),
            shard: self.index,
            outcome,
            stages: StageCycles::default(),
            cycles,
            latency_cycles: cycles,
            wall_nanos: wall_start.elapsed().as_nanos() as u64,
            retries,
            blocks_delivered: 0,
            enclave_key_fp: None,
            measurement: None,
            verdict: None,
            client_verified: false,
            instructions: 0,
            cache_hit: false,
        }
    }

    /// One protocol attempt. Any mid-protocol failure tears the enclave
    /// down before returning so EPC pages are never leaked.
    fn attempt(
        &mut self,
        req: &SessionRequest,
        cfg: &SessionRunConfig,
        directive: Option<&FaultDirective>,
    ) -> Result<AttemptOutput, ServeError> {
        let mut fsm = SessionFsm::create(&mut self.provider, req)?;
        match self.drive(&mut fsm, req, cfg, directive) {
            Ok(out) => {
                // Rejected content never keeps an enclave; compliant
                // enclaves are recycled or retained per config.
                if !out.compliant || cfg.release_enclaves {
                    let _ = fsm.abort(&mut self.provider);
                } else {
                    self.retained.push_back(fsm.enclave());
                }
                Ok(out)
            }
            Err(e) => {
                let _ = fsm.abort(&mut self.provider);
                Err(e)
            }
        }
    }

    /// The protocol body, separated so `attempt` can guarantee teardown.
    /// An injected fault lands at its protocol-accurate point: key
    /// tampering at channel establishment, block tampering on the
    /// sealed transfer, pressure spikes on the provider before
    /// delivery, stalls as a truncated send.
    fn drive(
        &mut self,
        fsm: &mut SessionFsm,
        req: &SessionRequest,
        cfg: &SessionRunConfig,
        directive: Option<&FaultDirective>,
    ) -> Result<AttemptOutput, ServeError> {
        fsm.attest(&mut self.provider)?;
        let key_tamper = directive.filter(|d| d.kind == FaultKind::KeyMismatch);
        fsm.open_channel_with(&mut self.provider, key_tamper)?;

        let mut blocks = fsm.content_blocks()?;
        let mut stall_after = req.stall_after;
        if let Some(d) = directive {
            match d.kind {
                FaultKind::CorruptBlock
                | FaultKind::TruncateBlock
                | FaultKind::DropBlock
                | FaultKind::ReorderBlocks
                | FaultKind::DuplicateBlock
                | FaultKind::FlipManifest => {
                    faults::apply_to_blocks(&mut blocks, d);
                }
                FaultKind::ClientStall => {
                    if let Some(p) = faults::stall_point(d, blocks.len()) {
                        stall_after = Some(stall_after.map_or(p, |s| s.min(p)));
                    }
                }
                FaultKind::EpcPressure => {
                    // Even parity spikes the host EPC allocator (felt at
                    // the next deliver); odd parity spikes the enclave's
                    // working memory (felt inside receive).
                    if d.bit % 2 == 0 {
                        self.provider.inject_epc_pressure(d.pressure);
                    } else {
                        self.provider
                            .inject_working_memory_pressure(fsm.enclave(), d.pressure)?;
                    }
                }
                // Key tampering landed at channel establishment above;
                // worker death never reaches `drive`; store faults
                // damage bytes at rest, not this session's transport.
                FaultKind::KeyMismatch
                | FaultKind::WorkerDeath
                | FaultKind::StoreTornWrite
                | FaultKind::StoreBitFlip
                | FaultKind::StoreLostSegment => {}
            }
        }
        let deliver_start = self.total_cycles();
        let take = stall_after.map_or(blocks.len(), |n| n.min(blocks.len()));
        for block in blocks.iter().take(take) {
            fsm.deliver(&mut self.provider, block)?;
            if let Some(budget) = cfg.deliver_cycle_budget {
                if self.total_cycles() - deliver_start > budget {
                    return Err(ServeError::Evicted {
                        reason: EvictReason::DeliverBudgetExceeded,
                    });
                }
            }
        }
        if fsm.phase() != SessionPhase::Complete {
            // The client went silent before the manifest was satisfied.
            return Err(ServeError::Evicted {
                reason: EvictReason::ClientStalled,
            });
        }

        let measurement = self.provider.measurement(fsm.enclave());
        let verdict = fsm.inspect(&mut self.provider)?;
        Ok(AttemptOutput {
            compliant: verdict.view.compliant,
            stages: verdict.view.stages,
            instructions: verdict.view.instructions,
            blocks_delivered: fsm.blocks_delivered(),
            enclave_key_fp: fsm.enclave_key_fingerprint(),
            measurement,
            verdict: Some(verdict.verdict),
            client_verified: verdict.client_verified,
            cache_hit: verdict.view.cache_hit,
            taint: verdict.view.taint,
        })
    }
}
