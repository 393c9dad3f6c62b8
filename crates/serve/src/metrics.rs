//! Built-in service observability: counters, cycle/latency accounting,
//! and a bounded structured event log — all in-tree, exportable as JSON
//! with no external dependencies.
//!
//! Every exported number is declared once. Counters the service owns
//! are fields of the plain structs below, whose JSON keys are their
//! field names; blocks mirrored from another crate keep that crate's
//! own struct ([`CacheStats`], [`StoreStats`], [`TaintStats`],
//! [`StageCycles`]). All of them live behind one short-held mutex, so
//! an export is a consistent snapshot. Percentiles are computed at
//! export.

use crate::faults::{FaultKind, FAULT_KIND_COUNT};
use engarde_core::analysis::TaintStats;
use engarde_core::cache::CacheStats;
use engarde_core::provision::StageCycles;
use engarde_store::StoreStats;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning: a panicking worker must
/// never cascade into a fleet-wide crash just because it died while
/// holding a metrics or queue lock. The guarded data here is counters,
/// samples, and queue entries — all valid at every intermediate state,
/// so recovery is safe. (Same pattern as `engarde_core::cache`.)
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many events the log keeps. Older events are dropped (and
/// counted) so a long-running service's log stays bounded.
pub const EVENT_LOG_CAPACITY: usize = 4096;

/// What happened, for the structured event log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Session accepted into the queue.
    Admitted,
    /// Session refused: queue full.
    RejectedBusy,
    /// Session started on a shard.
    Started,
    /// Transient failure; the session will be retried.
    Retried,
    /// Session evicted (stall or budget).
    Evicted,
    /// Session finished with a verdict.
    Completed,
    /// Session failed terminally.
    Failed,
    /// Session's verdict was replayed from the content-addressed cache.
    CacheHit,
    /// Service entered drain.
    DrainStarted,
    /// The fault layer injected a fault into this session.
    FaultInjected,
    /// A shard's circuit breaker shed this session.
    Shed,
    /// A worker (or virtual-time shard) died.
    WorkerDied,
    /// A shard's circuit breaker opened (fault rate spiked).
    BreakerOpened,
    /// A shard's circuit breaker closed again after a clean probe.
    BreakerClosed,
    /// The persistent verdict store opened (recovery scan complete).
    StoreOpened,
    /// The store was disabled or a store operation failed; the service
    /// degrades to memory-only operation instead of crashing.
    StoreDegraded,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::Admitted => "admitted",
            EventKind::RejectedBusy => "rejected_busy",
            EventKind::Started => "started",
            EventKind::Retried => "retried",
            EventKind::Evicted => "evicted",
            EventKind::Completed => "completed",
            EventKind::Failed => "failed",
            EventKind::CacheHit => "cache_hit",
            EventKind::DrainStarted => "drain_started",
            EventKind::FaultInjected => "fault_injected",
            EventKind::Shed => "shed",
            EventKind::WorkerDied => "worker_died",
            EventKind::BreakerOpened => "breaker_opened",
            EventKind::BreakerClosed => "breaker_closed",
            EventKind::StoreOpened => "store_opened",
            EventKind::StoreDegraded => "store_degraded",
        }
    }
}

/// One structured log record.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (assigned at record time).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The session's name (empty for service-wide events).
    pub session: String,
    /// Shard index, when known.
    pub shard: Option<usize>,
    /// Free-form detail (verdict, eviction reason, error).
    pub detail: String,
}

/// `(key, value)` JSON pairs for the named fields of `$v`, each keyed
/// by the field's own name, so an export cannot drift from its struct.
macro_rules! fields {
    ($v:expr; $($field:ident),+ $(,)?) => {
        vec![$((stringify!($field).to_string(), Json::from($v.$field))),+]
    };
}

/// Adds each named field of `$src` into the same field of `$dst`.
macro_rules! add_fields {
    ($dst:expr, $src:expr; $($field:ident),+ $(,)?) => {
        $($dst.$field += $src.$field;)+
    };
}

/// Declares a block of service-owned counters once: the struct with
/// its field docs, plus a `to_json` whose keys are the field names in
/// declaration order.
macro_rules! counter_block {
    (
        $(#[$doc:meta])*
        pub struct $name:ident {
            $($(#[$field_doc:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        pub struct $name {
            $($(#[$field_doc])* pub $field: $ty,)*
        }

        impl $name {
            /// This block as a JSON object keyed by field name.
            pub fn to_json(&self) -> Json {
                Json::Obj(fields!(self; $($field),*))
            }
        }
    };
}

counter_block! {
    /// Session-lifecycle counters, as plain numbers.
    pub struct CounterSnapshot {
        /// Sessions accepted into the queue.
        pub admitted: u64,
        /// Sessions refused with `Busy`.
        pub rejected_busy: u64,
        /// Sessions evicted mid-protocol.
        pub evicted: u64,
        /// Sessions that reached a verdict.
        pub completed: u64,
        /// ... of which compliant.
        pub compliant: u64,
        /// ... of which rejected by policy.
        pub noncompliant: u64,
        /// Sessions that failed terminally (non-eviction).
        pub failed: u64,
        /// Transient retries performed.
        pub retries: u64,
        /// Sessions shed by an open circuit breaker.
        pub shed: u64,
        /// Workers (threads or virtual shards) that died.
        pub workers_died: u64,
        /// Highest queue depth observed.
        pub queue_depth_highwater: usize,
    }
}

counter_block! {
    /// Work-stealing scheduler counters: steals, batch admissions, and
    /// deque-depth pressure. Whichever backend a service runs feeds
    /// them (virtual-time deterministic steals or threaded load-based
    /// steals); a threaded run's figures are these, read from that run.
    pub struct SchedSnapshot {
        /// Work items an idle worker stole from a peer's deque.
        pub steals: u64,
        /// Sessions that moved in those steals (a batch steals as a unit).
        pub stolen_sessions: u64,
        /// ... of which came off a *dead* worker's deque (the steal-aware
        /// worker-death path: queued work outlives its home worker).
        pub drained_from_dead: u64,
        /// Batches formed (an item becomes a batch when its first follower
        /// joins).
        pub batches: u64,
        /// Follower sessions admitted into an existing item.
        pub batched_sessions: u64,
        /// Largest batch ever formed.
        pub batch_size_highwater: u64,
        /// Deepest any single home deque ever got at admission.
        pub deque_depth_highwater: u64,
    }
}

counter_block! {
    /// One fault kind's lifecycle counters: how many faults the layer
    /// injected, how many a typed error detected, how many retries they
    /// cost, how many sessions recovered cleanly, and how many were
    /// evicted because of the fault.
    pub struct FaultKindStats {
        /// Faults of this kind the layer injected.
        pub injected: u64,
        /// ... of which a typed error detected.
        pub detected: u64,
        /// Retries spent on sessions carrying this fault.
        pub retried: u64,
        /// Faulted sessions that still reached a clean outcome.
        pub recovered: u64,
        /// Faulted sessions the service evicted.
        pub evicted: u64,
    }
}

/// A step in a fault's lifecycle, counted by
/// [`ServeMetrics::record_fault`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultStage {
    /// The fault layer injected the fault.
    Injected,
    /// A typed error detected it.
    Detected,
    /// One retry was spent on the faulted session.
    Retried,
    /// The faulted session reached a clean outcome anyway.
    Recovered,
    /// The faulted session was evicted.
    Evicted,
}

/// Snapshot of every fault kind's counters, indexable by
/// [`FaultKind::index`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultStatsSnapshot {
    /// Per-kind stats in [`FaultKind::ALL`] order.
    pub per_kind: [FaultKindStats; FAULT_KIND_COUNT],
}

impl FaultStatsSnapshot {
    /// The stats for one kind.
    pub fn kind(&self, kind: FaultKind) -> FaultKindStats {
        self.per_kind[kind.index()]
    }

    /// Totals across every kind.
    pub fn totals(&self) -> FaultKindStats {
        let mut t = FaultKindStats::default();
        for s in &self.per_kind {
            add_fields!(t, s; injected, detected, retried, recovered, evicted);
        }
        t
    }
}

/// Persistent-store metrics: the four flow counters the service
/// updates as verdicts hydrate and flush, next to the store's own
/// [`StoreStats`] (mirrored idempotently via
/// [`ServeMetrics::set_store_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreSnapshot {
    /// Whether a store was attached to the service at all.
    pub enabled: bool,
    /// Records hydrated into the fleet cache at warm start.
    pub hydrated: u64,
    /// Records flushed from the dirty queue to disk.
    pub flushed: u64,
    /// Deepest the write-behind dirty queue ever got.
    pub flush_queue_highwater: u64,
    /// The store's own counters, as of the last mirror.
    pub stats: StoreStats,
}

/// Taint-analysis counters: [`TaintStats`] summed over every session
/// whose policy run touched the taint engine (cache hits replay the
/// original session's stats and count here too).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TaintSnapshot {
    /// Sessions whose verdict included taint statistics.
    pub sessions: u64,
    /// Their statistics, summed field by field.
    pub stats: TaintStats,
}

/// Everything [`ServeMetrics`] accumulates, behind one lock.
#[derive(Clone, Default)]
struct Totals {
    counters: CounterSnapshot,
    stages: StageCycles,
    cache: CacheStats,
    store: StoreSnapshot,
    taint: TaintSnapshot,
    faults: FaultStatsSnapshot,
    sched: SchedSnapshot,
    total_cycles: u64,
    total_wall_nanos: u64,
    /// Every session's latency: percentiles are exact nearest-rank.
    latency_cycles: Vec<u64>,
}

/// The newest [`EVENT_LOG_CAPACITY`] events in `seq` order, plus a
/// count of the older ones dropped to stay within it (so the next
/// `seq` is `dropped + ring.len()`). The ring grows on demand; nothing
/// is preallocated.
#[derive(Default)]
struct EventLog {
    ring: VecDeque<Event>,
    dropped: u64,
}

/// Service-wide metrics. One instance is shared (via `Arc`) between the
/// admission path, every worker, and the drain path.
#[derive(Default)]
pub struct ServeMetrics {
    totals: Mutex<Totals>,
    events: Mutex<EventLog>,
}

impl ServeMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    fn totals(&self) -> MutexGuard<'_, Totals> {
        lock_recover(&self.totals)
    }

    /// Records an event and bumps the matching counter.
    pub fn record(&self, kind: EventKind, session: &str, shard: Option<usize>, detail: &str) {
        {
            let c = &mut self.totals().counters;
            match kind {
                EventKind::Admitted => c.admitted += 1,
                EventKind::RejectedBusy => c.rejected_busy += 1,
                EventKind::Retried => c.retries += 1,
                EventKind::Evicted => c.evicted += 1,
                EventKind::Failed => c.failed += 1,
                EventKind::Completed => c.completed += 1,
                EventKind::Shed => c.shed += 1,
                EventKind::WorkerDied => c.workers_died += 1,
                // Cache-hit counters come from the cache itself (the
                // authoritative source) via `set_cache_stats`; the event
                // is log-only so per-session records and cache totals
                // cannot drift apart. Fault-lifecycle counters come
                // through the typed `record_fault` for the same reason.
                EventKind::Started
                | EventKind::CacheHit
                | EventKind::DrainStarted
                | EventKind::FaultInjected
                | EventKind::BreakerOpened
                | EventKind::BreakerClosed
                | EventKind::StoreOpened
                | EventKind::StoreDegraded => {}
            }
        }
        let mut log = lock_recover(&self.events);
        if log.ring.len() == EVENT_LOG_CAPACITY {
            log.ring.pop_front();
            log.dropped += 1;
        }
        let seq = log.dropped + log.ring.len() as u64;
        log.ring.push_back(Event {
            seq,
            kind,
            session: session.to_string(),
            shard,
            detail: detail.to_string(),
        });
    }

    /// Records a completed session's verdict polarity.
    pub fn record_verdict(&self, compliant: bool) {
        let c = &mut self.totals().counters;
        if compliant {
            c.compliant += 1;
        } else {
            c.noncompliant += 1;
        }
    }

    /// Records a session's stage costs, total model cycles, end-to-end
    /// latency (model cycles), and wall time.
    pub fn record_timing(
        &self,
        stages: &StageCycles,
        cycles: u64,
        latency_cycles: u64,
        wall_nanos: u64,
    ) {
        let mut t = self.totals();
        add_fields!(t.stages, stages; receive_decrypt, disassembly, policy_checking,
            loading_relocation);
        t.total_cycles += cycles;
        t.total_wall_nanos += wall_nanos;
        t.latency_cycles.push(latency_cycles);
    }

    /// Accumulates one session's taint-analysis counters (call once
    /// per completed session that carried taint statistics).
    pub fn record_taint(&self, stats: &TaintStats) {
        let taint = &mut self.totals().taint;
        taint.sessions += 1;
        add_fields!(taint.stats, stats; leaks_found, tainted_branches, scc_count,
            fixpoint_iterations, spill_cells, weak_updates, unresolved_store_sinks, cycles_charged);
    }

    /// Snapshot of the accumulated taint counters.
    pub fn taint_stats(&self) -> TaintSnapshot {
        self.totals().taint
    }

    /// Counts one lifecycle step of a fault of `kind`.
    pub fn record_fault(&self, kind: FaultKind, stage: FaultStage) {
        let s = &mut self.totals().faults.per_kind[kind.index()];
        *match stage {
            FaultStage::Injected => &mut s.injected,
            FaultStage::Detected => &mut s.detected,
            FaultStage::Retried => &mut s.retried,
            FaultStage::Recovered => &mut s.recovered,
            FaultStage::Evicted => &mut s.evicted,
        } += 1;
    }

    /// Snapshot of every fault kind's lifecycle counters.
    pub fn fault_stats(&self) -> FaultStatsSnapshot {
        self.totals().faults
    }

    /// Records one steal: a whole work item of `sessions` sessions
    /// moved from a victim deque to an idle worker. `from_dead` marks
    /// steals that drained a dead worker's deque.
    pub fn record_steal(&self, sessions: u64, from_dead: bool) {
        let s = &mut self.totals().sched;
        s.steals += 1;
        s.stolen_sessions += sessions;
        if from_dead {
            s.drained_from_dead += sessions;
        }
    }

    /// Records a follower joining an already-queued work item, which
    /// now holds `batch_len` sessions. The first follower (batch_len 2)
    /// is what turns an item into a batch.
    pub fn record_batch_join(&self, batch_len: u64) {
        let s = &mut self.totals().sched;
        s.batched_sessions += 1;
        if batch_len == 2 {
            s.batches += 1;
        }
        s.batch_size_highwater = s.batch_size_highwater.max(batch_len);
    }

    /// Raises the per-deque depth high-water mark to at least `depth`.
    pub fn observe_deque_depth(&self, depth: u64) {
        let s = &mut self.totals().sched;
        s.deque_depth_highwater = s.deque_depth_highwater.max(depth);
    }

    /// Snapshot of the work-stealing scheduler counters.
    pub fn sched_stats(&self) -> SchedSnapshot {
        self.totals().sched
    }

    /// Raises the queue-depth high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: usize) {
        let c = &mut self.totals().counters;
        c.queue_depth_highwater = c.queue_depth_highwater.max(depth);
    }

    /// Mirrors the verdict cache's cumulative counters into the metrics
    /// (the cache is the authoritative source; this overwrites, so the
    /// call is idempotent).
    pub fn set_cache_stats(&self, stats: &CacheStats) {
        self.totals().cache = *stats;
    }

    /// The verdict cache's counters, as of the last mirror.
    pub fn cache_stats(&self) -> CacheStats {
        self.totals().cache
    }

    /// Marks that a persistent store is attached (the `store` JSON
    /// block stays zeroed-but-present without one).
    pub fn mark_store_enabled(&self) {
        self.totals().store.enabled = true;
    }

    /// Records `n` verdicts hydrated from the store at warm start.
    pub fn record_store_hydrated(&self, n: u64) {
        self.totals().store.hydrated += n;
    }

    /// Records `n` dirty verdicts flushed through to the store.
    pub fn record_store_flushed(&self, n: u64) {
        self.totals().store.flushed += n;
    }

    /// Raises the flush-queue high-water mark to at least `depth`.
    pub fn observe_flush_queue_depth(&self, depth: u64) {
        let s = &mut self.totals().store;
        s.flush_queue_highwater = s.flush_queue_highwater.max(depth);
    }

    /// Mirrors the persistent store's own counters (the store is the
    /// authoritative source; this overwrites, so the call is
    /// idempotent).
    pub fn set_store_stats(&self, stats: &StoreStats) {
        self.totals().store.stats = *stats;
    }

    /// Snapshot of the persistent-store metrics.
    pub fn store_stats(&self) -> StoreSnapshot {
        self.totals().store
    }

    /// Current counter values.
    pub fn counters(&self) -> CounterSnapshot {
        self.totals().counters
    }

    /// Latency percentile in model cycles (`q` in 0..=100). `None` with
    /// no samples.
    pub fn latency_percentile(&self, q: u32) -> Option<u64> {
        percentile(&self.totals().latency_cycles, q)
    }

    /// A copy of the kept events (the newest [`EVENT_LOG_CAPACITY`]),
    /// in sequence order.
    pub fn events(&self) -> Vec<Event> {
        lock_recover(&self.events).ring.iter().cloned().collect()
    }

    /// Serializes counters, stage totals, latency percentiles, and the
    /// event log as a JSON object.
    pub fn to_json(&self) -> String {
        let t = self.totals().clone();
        let log = lock_recover(&self.events);
        let (store, samples) = (t.store.stats, &t.latency_cycles);
        let stages = fields!(t.stages; receive_decrypt, disassembly, policy_checking,
            loading_relocation);
        let cache = fields!(t.cache; hits, misses, evictions, insertions, cycles_saved, warm_hits);
        let recovery = fields!(store.recovery; records_recovered, torn_tail_truncations,
            corrupt_records, garbage_segments, lost_segments);
        let store = [
            fields!(t.store; enabled, hydrated, flushed, flush_queue_highwater),
            fields!(store; live_records, stored_records, segments, compactions),
            vec![("recovery".into(), Json::Obj(recovery))],
        ];
        let taint = [
            fields!(t.taint; sessions),
            fields!(t.taint.stats; leaks_found, tainted_branches, scc_count, fixpoint_iterations,
                spill_cells, weak_updates, unresolved_store_sinks, cycles_charged),
        ];
        let faults = FaultKind::ALL.map(|k| (k.name(), t.faults.kind(k).to_json()));
        let latency = [
            ("samples", samples.len().into()),
            ("p50", percentile(samples, 50).unwrap_or(0).into()),
            ("p99", percentile(samples, 99).unwrap_or(0).into()),
            ("max", samples.iter().copied().max().unwrap_or(0).into()),
        ];
        let events = log.ring.iter().cloned();
        let events = events.map(|e| Json::Obj(fields!(e; seq, kind, session, shard, detail)));
        Json::obj([
            ("counters", t.counters.to_json()),
            ("stage_cycles", Json::Obj(stages)),
            ("verdict_cache", Json::Obj(cache)),
            ("store", Json::Obj(store.concat())),
            ("taint", Json::Obj(taint.concat())),
            ("faults", Json::obj(faults)),
            ("scheduler", t.sched.to_json()),
            ("latency_cycles", Json::obj(latency)),
            ("total_cycles", t.total_cycles.into()),
            ("total_wall_nanos", t.total_wall_nanos.into()),
            ("events_dropped", log.dropped.into()),
            ("events", Json::Arr(events.collect())),
        ])
        .render()
    }
}

/// Nearest-rank percentile over unsorted samples. `None` on an empty
/// slice; out-of-range quantiles (`q > 100`) clamp to the maximum
/// rather than indexing past the end. Rank arithmetic is widened to
/// `u128` so `q * len` cannot overflow for any input on any platform.
fn percentile(samples: &[u64], q: u32) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let len = sorted.len() as u128;
    let rank = ((q as u128 * len).div_ceil(100)).clamp(1, len) as usize;
    Some(sorted[rank - 1])
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON value: the one emitter behind [`ServeMetrics::to_json`] and
/// every bench binary's output.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float written in Rust's shortest round-trip form.
    Float(f64),
    /// A float written with a fixed number of decimal places.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value as a document: the top level, and every container
    /// whose entries are all containers or that holds one written
    /// across lines, put one entry per line with two-space indents;
    /// everything else stays on one line. Ends with a newline.
    pub fn render(&self) -> String {
        format!("{self}\n")
    }

    fn entries(&self) -> Vec<(Option<&str>, &Json)> {
        match self {
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            _ => Vec::new(),
        }
    }

    fn spans_lines(&self) -> bool {
        let values: Vec<&Json> = self.entries().into_iter().map(|(_, v)| v).collect();
        let container = |v: &&Json| matches!(v, Json::Arr(_) | Json::Obj(_));
        !values.is_empty()
            && (values.iter().all(container) || values.iter().any(|v| v.spans_lines()))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::UInt(n) => return write!(f, "{n}"),
            Json::Float(x) => return write!(f, "{x}"),
            Json::Fixed(x, places) => return write!(f, "{x:.places$}"),
            Json::Str(s) => return write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(_) => ('[', ']'),
            Json::Obj(_) => ('{', '}'),
        };
        let (comma, newline, inner, outer) = match indent == 0 || self.spans_lines() {
            true => (",", "\n", indent + 2, indent),
            false => (", ", "", 0, 0),
        };
        write!(f, "{open}")?;
        for (i, (key, value)) in self.entries().into_iter().enumerate() {
            let comma = if i > 0 { comma } else { "" };
            write!(f, "{comma}{newline}{:inner$}", "")?;
            if let Some(key) = key {
                write!(f, "\"{}\": ", json_escape(key))?;
            }
            value.write(f, indent + 2)?;
        }
        write!(f, "{newline}{:outer$}{close}", "")
    }
}

/// Writes the value as [`Json::render`] does, without the final newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// `From` conversions into [`Json`], one per line.
macro_rules! json_from {
    ($($ty:ty => |$x:ident| $value:expr),+ $(,)?) => {
        $(impl From<$ty> for Json {
            fn from($x: $ty) -> Self {
                $value
            }
        })+
    };
}

json_from! {
    bool => |b| Json::Bool(b),
    u64 => |n| Json::UInt(n),
    usize => |n| Json::UInt(n as u64),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    EventKind => |kind| Json::Str(kind.name().to_string()),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_events() {
        let m = ServeMetrics::new();
        m.record(EventKind::Admitted, "s0", None, "");
        m.record(EventKind::Admitted, "s1", None, "");
        m.record(EventKind::RejectedBusy, "s2", None, "depth 4");
        m.record(EventKind::Completed, "s0", Some(1), "compliant");
        m.record_verdict(true);
        let c = m.counters();
        assert_eq!(c.admitted, 2);
        assert_eq!(c.rejected_busy, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.compliant, 1);
        let events = m.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].kind, EventKind::RejectedBusy);
        assert_eq!(events[3].shard, Some(1));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50), Some(50));
        assert_eq!(percentile(&samples, 99), Some(99));
        assert_eq!(percentile(&samples, 100), Some(100));
        assert_eq!(percentile(&[42], 50), Some(42));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn percentile_of_empty_samples_is_none_for_every_quantile() {
        for q in [0, 1, 50, 99, 100] {
            assert_eq!(percentile(&[], q), None, "q={q}");
        }
    }

    #[test]
    fn percentile_q0_is_the_minimum() {
        // Nearest-rank with q=0 yields rank 0, which must clamp to the
        // first element, not index out of bounds.
        assert_eq!(percentile(&[30, 10, 20], 0), Some(10));
        assert_eq!(percentile(&[7], 0), Some(7));
    }

    #[test]
    fn percentile_q100_is_the_maximum() {
        assert_eq!(percentile(&[30, 10, 20], 100), Some(30));
        assert_eq!(percentile(&[7], 100), Some(7));
    }

    #[test]
    fn percentile_single_sample_is_that_sample_for_every_quantile() {
        for q in [0, 1, 50, 99, 100] {
            assert_eq!(percentile(&[42], q), Some(42), "q={q}");
        }
    }

    #[test]
    fn percentile_two_samples_split_at_the_nearest_rank() {
        // rank = ceil(q·n/100) clamped to [1, n]: q≤50 → first, q>50 →
        // second.
        assert_eq!(percentile(&[10, 20], 50), Some(10));
        assert_eq!(percentile(&[10, 20], 51), Some(20));
    }

    #[test]
    fn percentile_out_of_range_quantile_clamps_to_the_maximum() {
        // Callers promise q in 0..=100, but the helper must not index
        // out of bounds (or overflow the rank product) if they lie.
        assert_eq!(percentile(&[30, 10, 20], 101), Some(30));
        assert_eq!(percentile(&[30, 10, 20], u32::MAX), Some(30));
        assert_eq!(percentile(&[7], u32::MAX), Some(7));
        assert_eq!(percentile(&[], u32::MAX), None);
    }

    #[test]
    fn scheduler_counters_accumulate_and_export() {
        let m = ServeMetrics::new();
        // Item becomes a batch at its first follower (len 2); the
        // highwater tracks the largest batch, not the last join.
        m.record_batch_join(2);
        m.record_batch_join(3);
        m.record_batch_join(2);
        m.record_steal(3, false);
        m.record_steal(1, true);
        m.observe_deque_depth(4);
        m.observe_deque_depth(2);
        let s = m.sched_stats();
        assert_eq!(s.steals, 2);
        assert_eq!(s.stolen_sessions, 4);
        assert_eq!(s.drained_from_dead, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batched_sessions, 3);
        assert_eq!(s.batch_size_highwater, 3);
        assert_eq!(s.deque_depth_highwater, 4);
        assert!(m.to_json().contains(
            "\"scheduler\": {\"steals\": 2, \"stolen_sessions\": 4, \
             \"drained_from_dead\": 1, \"batches\": 2, \"batched_sessions\": 3, \
             \"batch_size_highwater\": 3, \"deque_depth_highwater\": 4}"
        ));
    }

    #[test]
    fn scheduler_block_is_present_and_zeroed_without_steals_or_batches() {
        // A run with stealing never triggered and batching disabled
        // still exports the block, so jq gates can assert on it
        // unconditionally.
        let m = ServeMetrics::new();
        assert_eq!(m.sched_stats(), SchedSnapshot::default());
        assert!(m.to_json().contains(
            "\"scheduler\": {\"steals\": 0, \"stolen_sessions\": 0, \
             \"drained_from_dead\": 0, \"batches\": 0, \"batched_sessions\": 0, \
             \"batch_size_highwater\": 0, \"deque_depth_highwater\": 0}"
        ));
    }

    #[test]
    fn cache_stats_are_mirrored_and_exported() {
        let m = ServeMetrics::new();
        let stats = engarde_core::cache::CacheStats {
            hits: 5,
            misses: 3,
            evictions: 1,
            insertions: 4,
            cycles_saved: 123_456,
            warm_hits: 2,
        };
        m.set_cache_stats(&stats);
        // Idempotent: stores, not increments.
        m.set_cache_stats(&stats);
        assert_eq!(m.cache_stats(), stats);
        let json = m.to_json();
        assert!(json.contains(
            "\"verdict_cache\": {\"hits\": 5, \"misses\": 3, \"evictions\": 1, \
             \"insertions\": 4, \"cycles_saved\": 123456, \"warm_hits\": 2}"
        ));
        m.record(EventKind::CacheHit, "tenant-1", Some(0), "verdict replayed");
        assert!(m.to_json().contains("\"kind\": \"cache_hit\""));
    }

    #[test]
    fn json_export_escapes_and_parses_shape() {
        let m = ServeMetrics::new();
        m.record(EventKind::Failed, "we\"ird\n", Some(0), "tab\there");
        let json = m.to_json();
        assert!(json.contains("\\\"ird\\n"));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("\"queue_depth_highwater\": 0"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fault_counters_track_lifecycle_per_kind() {
        let m = ServeMetrics::new();
        m.record_fault(FaultKind::CorruptBlock, FaultStage::Injected);
        m.record_fault(FaultKind::CorruptBlock, FaultStage::Injected);
        m.record_fault(FaultKind::CorruptBlock, FaultStage::Detected);
        m.record_fault(FaultKind::CorruptBlock, FaultStage::Retried);
        m.record_fault(FaultKind::CorruptBlock, FaultStage::Recovered);
        m.record_fault(FaultKind::ClientStall, FaultStage::Injected);
        m.record_fault(FaultKind::ClientStall, FaultStage::Evicted);
        let s = m.fault_stats();
        assert_eq!(
            s.kind(FaultKind::CorruptBlock),
            FaultKindStats {
                injected: 2,
                detected: 1,
                retried: 1,
                recovered: 1,
                evicted: 0
            }
        );
        assert_eq!(s.kind(FaultKind::ClientStall).evicted, 1);
        assert_eq!(s.kind(FaultKind::EpcPressure), FaultKindStats::default());
        assert_eq!(s.totals().injected, 3);
        let json = m.to_json();
        assert!(json.contains(
            "\"corrupt_block\": {\"injected\": 2, \"detected\": 1, \"retried\": 1, \
             \"recovered\": 1, \"evicted\": 0}"
        ));
        // Every kind appears in the export even when untouched.
        for kind in FaultKind::ALL {
            assert!(json.contains(&format!("\"{}\":", kind.name())), "{json}");
        }
    }

    #[test]
    fn store_counters_mirror_and_export() {
        let m = ServeMetrics::new();
        assert!(m.to_json().contains("\"store\": {\"enabled\": false,"));
        m.mark_store_enabled();
        m.record_store_hydrated(7);
        m.record_store_flushed(3);
        m.record_store_flushed(2);
        m.observe_flush_queue_depth(4);
        m.observe_flush_queue_depth(2);
        let stats = engarde_store::StoreStats {
            live_records: 9,
            stored_records: 12,
            segments: 3,
            appended_records: 5,
            compactions: 1,
            compaction_dropped: 3,
            recovery: engarde_store::RecoveryReport {
                segments_scanned: 3,
                garbage_segments: 1,
                lost_segments: 0,
                records_recovered: 7,
                superseded_records: 0,
                corrupt_records: 2,
                torn_tail_truncations: 1,
                bytes_discarded: 640,
            },
        };
        m.set_store_stats(&stats);
        // Idempotent: stores, not increments.
        m.set_store_stats(&stats);
        let s = m.store_stats();
        assert!(s.enabled);
        assert_eq!(s.hydrated, 7);
        assert_eq!(s.flushed, 5);
        assert_eq!(s.flush_queue_highwater, 4);
        assert_eq!(s.stats, stats);
        let json = m.to_json();
        assert!(json.contains(
            "\"store\": {\"enabled\": true, \"hydrated\": 7, \"flushed\": 5, \
             \"flush_queue_highwater\": 4, \"live_records\": 9, \"stored_records\": 12, \
             \"segments\": 3, \"compactions\": 1, \"recovery\": {\"records_recovered\": 7, \
             \"torn_tail_truncations\": 1, \"corrupt_records\": 2, \"garbage_segments\": 1, \
             \"lost_segments\": 0}}"
        ));
    }

    #[test]
    fn taint_counters_accumulate_and_export() {
        let m = ServeMetrics::new();
        let a = engarde_core::analysis::TaintStats {
            leaks_found: 2,
            tainted_branches: 1,
            scc_count: 4,
            fixpoint_iterations: 30,
            spill_cells: 6,
            weak_updates: 2,
            unresolved_store_sinks: 1,
            cycles_charged: 10_000,
        };
        let b = engarde_core::analysis::TaintStats {
            leaks_found: 0,
            tainted_branches: 0,
            scc_count: 3,
            fixpoint_iterations: 12,
            spill_cells: 4,
            weak_updates: 1,
            unresolved_store_sinks: 0,
            cycles_charged: 5_000,
        };
        m.record_taint(&a);
        m.record_taint(&b);
        let t = m.taint_stats();
        assert_eq!(t.sessions, 2);
        assert_eq!(
            t.stats,
            engarde_core::analysis::TaintStats {
                leaks_found: 2,
                tainted_branches: 1,
                scc_count: 7,
                fixpoint_iterations: 42,
                spill_cells: 10,
                weak_updates: 3,
                unresolved_store_sinks: 1,
                cycles_charged: 15_000,
            }
        );
        let json = m.to_json();
        assert!(json.contains(
            "\"taint\": {\"sessions\": 2, \"leaks_found\": 2, \"tainted_branches\": 1, \
             \"scc_count\": 7, \"fixpoint_iterations\": 42, \"spill_cells\": 10, \
             \"weak_updates\": 3, \"unresolved_store_sinks\": 1, \"cycles_charged\": 15000}"
        ));
        // The block is present (zeroed) even with no taint-backed
        // policies loaded.
        assert!(ServeMetrics::new()
            .to_json()
            .contains("\"taint\": {\"sessions\": 0,"));
    }

    #[test]
    fn shed_and_worker_death_events_bump_counters() {
        let m = ServeMetrics::new();
        m.record(EventKind::Shed, "s0", Some(1), "breaker open");
        m.record(EventKind::WorkerDied, "s1", Some(0), "fault: worker_death");
        m.record(
            EventKind::BreakerOpened,
            "",
            Some(1),
            "4 consecutive faults",
        );
        m.record(EventKind::BreakerClosed, "", Some(1), "clean probe");
        let c = m.counters();
        assert_eq!(c.shed, 1);
        assert_eq!(c.workers_died, 1);
        let json = m.to_json();
        assert!(json.contains("\"kind\": \"breaker_opened\""));
        assert!(json.contains("\"shed\": 1"));
    }

    #[test]
    fn poisoned_events_lock_is_recovered_not_propagated() {
        // A worker that panics while holding the events lock poisons
        // it; every later record/export must recover instead of
        // cascading the panic fleet-wide.
        let m = std::sync::Arc::new(ServeMetrics::new());
        let m2 = std::sync::Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let _guard = m2.events.lock().unwrap();
            panic!("worker died holding the events lock");
        })
        .join();
        assert!(joined.is_err(), "the poisoning thread must have panicked");
        assert!(m.events.is_poisoned());
        m.record(EventKind::Admitted, "after-poison", None, "");
        assert_eq!(m.events().len(), 1);
        assert_eq!(m.counters().admitted, 1);
        assert!(m.to_json().contains("after-poison"));
    }

    #[test]
    fn poisoned_totals_lock_is_recovered_not_propagated() {
        let m = std::sync::Arc::new(ServeMetrics::new());
        let m2 = std::sync::Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let _guard = m2.totals.lock().unwrap();
            panic!("worker died holding the totals lock");
        })
        .join();
        assert!(joined.is_err());
        assert!(m.totals.is_poisoned());
        m.record_timing(&Default::default(), 10, 25, 0);
        assert_eq!(m.latency_percentile(50), Some(25));
        assert!(m.to_json().contains("\"samples\": 1"));
    }

    #[test]
    fn highwater_is_monotonic() {
        let m = ServeMetrics::new();
        m.observe_queue_depth(3);
        m.observe_queue_depth(1);
        assert_eq!(m.counters().queue_depth_highwater, 3);
    }

    #[test]
    fn event_log_keeps_the_newest_events_in_order_and_counts_the_dropped() {
        let m = ServeMetrics::new();
        let extra = 5;
        for i in 0..EVENT_LOG_CAPACITY + extra {
            m.record(EventKind::Admitted, &format!("s{i}"), None, "");
        }
        let events = m.events();
        assert_eq!(events.len(), EVENT_LOG_CAPACITY);
        // The oldest `extra` events went; the rest stay in seq order.
        assert_eq!(events[0].seq, extra as u64);
        assert_eq!(events[0].session, format!("s{extra}"));
        assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        // Counters still see every event.
        assert_eq!(m.counters().admitted, (EVENT_LOG_CAPACITY + extra) as u64);
        let json = m.to_json();
        assert!(
            json.contains(&format!("\"events_dropped\": {extra},")),
            "{json}"
        );
    }

    #[test]
    fn json_export_has_exactly_the_documented_top_level_blocks() {
        let json = ServeMetrics::new().to_json();
        let keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.strip_prefix("  \"")?.split('"').next())
            .collect();
        assert_eq!(
            keys,
            [
                "counters",
                "stage_cycles",
                "verdict_cache",
                "store",
                "taint",
                "faults",
                "scheduler",
                "latency_cycles",
                "total_cycles",
                "total_wall_nanos",
                "events_dropped",
                "events",
            ]
        );
    }

    #[test]
    fn json_layout_breaks_lines_only_for_rows_and_maps_of_blocks() {
        let doc = Json::obj([
            ("n", 1u64.into()),
            ("x", Json::Fixed(2.0 / 3.0, 4)),
            ("ghz", Json::Float(3.5)),
            ("none", Json::Null),
            ("flat", Json::obj([("a", true.into()), ("b", "q\"".into())])),
            ("rows", Json::Arr(vec![Json::obj([("k", 1u64.into())]); 2])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"n\": 1,\n  \"x\": 0.6667,\n  \"ghz\": 3.5,\n  \"none\": null,\n  \
             \"flat\": {\"a\": true, \"b\": \"q\\\"\"},\n  \"rows\": [\n    {\"k\": 1},\n    \
             {\"k\": 1}\n  ],\n  \"empty\": []\n}\n"
        );
    }
}
