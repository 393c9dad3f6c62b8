//! Content-addressed inspection verdict cache.
//!
//! When a fleet of tenants ships the *same* binary (the paper's own
//! scenario: many clients deploying stock Nginx/Memcached against agreed
//! policies), every session re-pays full disassembly + policy checking
//! for bit-identical content. Inspection is deterministic — the same
//! bytes under the same EnGarde configuration always produce the same
//! verdict — so the verdict of a previous session can be replayed.
//!
//! # Key derivation (fail closed)
//!
//! The cache key is `SHA-256(domain tag || bootstrap bytes ||
//! content measurement)`, where the content measurement is the SHA-256
//! of the **fully decrypted, reassembled** client image — never a
//! prefix, a page subset, or anything the client *declared* (manifest
//! fields are attacker-controlled; two manifests can claim the same
//! name/length for different bytes). Binding the serialized
//! [`BootstrapSpec`](crate::provision::BootstrapSpec) bytes means the
//! same binary inspected under a different policy set or loader
//! configuration occupies a different cache slot: verdicts never leak
//! across policy regimes.
//!
//! # What a hit may — and may not — skip
//!
//! A hit replays the disassembly + policy **verdict** (and its recorded
//! stage cycles) but skips none of the per-tenant work: the session
//! still received and decrypted its own ciphertext, still reassembles
//! and hashes the image (the key *is* that hash), still re-verifies the
//! declared page kinds against the actual content, and still performs a
//! fresh `map_and_relocate` into its own enclave region.
//!
//! # The record
//!
//! A [`CachedVerdict`] holds only what a replay reads: the compliance
//! bit and the signed detail string, the two stage costs and the
//! instruction count the provider's view reports, and the taint
//! counters. Its byte layout (`ECV3`) is what the sealed verdict store
//! persists.

use crate::analysis::TaintStats;
use engarde_crypto::sha256::{Digest, Sha256};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Domain-separation tag mixed into every cache key.
const KEY_DOMAIN: &[u8] = b"ENGARDE-VERDICT-CACHE-V1";

/// A verdict-cache key: the joint measurement of the EnGarde
/// configuration and the client content.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// Derives the key for `content_digest` (the SHA-256 of the fully
    /// reassembled client image) inspected under the configuration
    /// serialized as `bootstrap_bytes`.
    pub fn derive(bootstrap_bytes: &[u8], content_digest: &Digest) -> Self {
        let mut h = Sha256::new();
        h.update(KEY_DOMAIN);
        h.update(&(bootstrap_bytes.len() as u64).to_be_bytes());
        h.update(bootstrap_bytes);
        h.update(content_digest.as_bytes());
        CacheKey(*h.finalize().as_bytes())
    }

    /// The raw 32 key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Rebuilds a key from its raw bytes (the persistent store's
    /// records carry keys verbatim; authenticity comes from the store's
    /// MAC, not from re-derivation).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        CacheKey(bytes)
    }
}

/// The replayable part of an inspection outcome: the verdict and the
/// stage costs the original session paid to reach it. Every field is
/// read by a replay; nothing else is recorded.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CachedVerdict {
    /// Whether every policy passed.
    pub compliant: bool,
    /// The verdict detail string — reused verbatim so a cached session
    /// signs the *identical* message and produces the identical
    /// signature a cold session would.
    pub detail: String,
    /// Disassembly cycles the original session paid.
    pub disassembly_cycles: u64,
    /// Policy-checking cycles the original session paid.
    pub policy_cycles: u64,
    /// Instructions the original session disassembled.
    pub instructions: usize,
    /// Taint-analysis counters from the original session, when a
    /// taint-backed policy ran. Replayed alongside the verdict so a
    /// cache hit reports the same analysis statistics the cold
    /// inspection produced (with the cost already paid once).
    pub taint: Option<TaintStats>,
}

impl CachedVerdict {
    /// Cycles a hit avoids re-paying (disassembly + policy checking).
    pub fn replayed_cycles(&self) -> u64 {
        self.disassembly_cycles + self.policy_cycles
    }

    /// Serializes the verdict to the versioned on-disk byte layout
    /// (`ECV3`): little-endian integers, a length-prefixed string, one
    /// flag byte for the optional taint block. The layout is pinned
    /// byte-for-byte by `cached_verdict_byte_layout_is_pinned` — the
    /// sealed verdict store depends on it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.detail.len());
        out.extend_from_slice(CODEC_MAGIC);
        out.push(self.compliant as u8);
        out.extend_from_slice(&(self.detail.len() as u32).to_le_bytes());
        out.extend_from_slice(self.detail.as_bytes());
        out.extend_from_slice(&self.disassembly_cycles.to_le_bytes());
        out.extend_from_slice(&self.policy_cycles.to_le_bytes());
        out.extend_from_slice(&(self.instructions as u64).to_le_bytes());
        match &self.taint {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                for v in [
                    t.leaks_found,
                    t.tainted_branches,
                    t.scc_count,
                    t.fixpoint_iterations,
                    t.spill_cells,
                    t.weak_updates,
                    t.unresolved_store_sinks,
                    t.cycles_charged,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserializes a verdict from [`CachedVerdict::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] on any malformed input: wrong
    /// magic, truncation, a non-boolean flag byte, invalid UTF-8, or
    /// trailing bytes. Never panics — the bytes come from disk and may
    /// be corrupt.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(CODEC_MAGIC.len(), "magic")? != CODEC_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let compliant = r.bool("compliant")?;
        let detail = r.string("detail")?;
        let disassembly_cycles = r.u64("disassembly cycles")?;
        let policy_cycles = r.u64("policy cycles")?;
        let instructions = r.u64("instructions")? as usize;
        let taint = match r.byte("taint flag")? {
            0 => None,
            1 => Some(TaintStats {
                leaks_found: r.u64("leaks found")?,
                tainted_branches: r.u64("tainted branches")?,
                scc_count: r.u64("scc count")?,
                fixpoint_iterations: r.u64("fixpoint iterations")?,
                spill_cells: r.u64("spill cells")?,
                weak_updates: r.u64("weak updates")?,
                unresolved_store_sinks: r.u64("unresolved store sinks")?,
                cycles_charged: r.u64("cycles charged")?,
            }),
            flag => return Err(CodecError::BadFlag { flag }),
        };
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(CachedVerdict {
            compliant,
            detail,
            disassembly_cycles,
            policy_cycles,
            instructions,
            taint,
        })
    }
}

/// Version tag leading every serialized [`CachedVerdict`]. Records
/// under an older tag (`ECV1`, `ECV2`) fail closed with
/// [`CodecError::BadMagic`] and the store layer degrades to a cold
/// start.
const CODEC_MAGIC: &[u8] = b"ECV3";

/// Typed failure decoding a serialized [`CachedVerdict`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The input does not start with the current `ECV3` version tag
    /// (older `ECV1`/`ECV2` records land here too — fail closed,
    /// re-inspect).
    BadMagic,
    /// The input ended inside a field.
    UnexpectedEof {
        /// The field being read when the input ran out.
        field: &'static str,
    },
    /// A declared length exceeds the remaining input.
    LengthOverflow {
        /// The field whose declared length overflows.
        field: &'static str,
    },
    /// A boolean/flag byte held something other than its legal values.
    BadFlag {
        /// The illegal byte value.
        flag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// The field holding the invalid bytes.
        field: &'static str,
    },
    /// Well-formed value followed by unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "verdict bytes lack the ECV3 magic"),
            CodecError::UnexpectedEof { field } => {
                write!(f, "verdict bytes truncated inside {field}")
            }
            CodecError::LengthOverflow { field } => {
                write!(f, "declared length of {field} exceeds the input")
            }
            CodecError::BadFlag { flag } => write!(f, "illegal flag byte {flag:#04x}"),
            CodecError::BadUtf8 { field } => write!(f, "{field} is not valid UTF-8"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a well-formed verdict")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked cursor over untrusted verdict bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { field });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn byte(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, CodecError> {
        match self.byte(field)? {
            0 => Ok(false),
            1 => Ok(true),
            flag => Err(CodecError::BadFlag { flag }),
        }
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, field)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn string(&mut self, field: &'static str) -> Result<String, CodecError> {
        let len = self.u32(field)? as usize;
        if len > self.remaining() {
            return Err(CodecError::LengthOverflow { field });
        }
        let raw = self.take(len, field)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8 { field })
    }
}

/// Hit/miss/eviction counters, exported through `engarde-serve` metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Probes that found a usable verdict.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Disassembly + policy cycles hits avoided re-paying.
    pub cycles_saved: u64,
    /// The subset of `hits` served from entries hydrated out of a
    /// persistent store (a warm restart), rather than inserted by a
    /// session of this process.
    pub warm_hits: u64,
}

struct Entry {
    verdict: CachedVerdict,
    last_used: u64,
    /// Whether this entry came from store hydration (warm start) rather
    /// than a live inspection in this process.
    hydrated: bool,
}

/// A bounded, LRU-evicting verdict cache.
///
/// Recency is tracked with a monotonic access tick; every operation
/// assigns a distinct tick, so the least-recently-used entry is unique
/// and eviction order is deterministic regardless of `HashMap` iteration
/// order — which is what keeps virtual-time service runs bit-for-bit
/// reproducible with caching enabled.
pub struct VerdictCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<CacheKey, Entry>,
    stats: CacheStats,
    /// When `Some`, every live [`VerdictCache::insert`] is also
    /// appended here (in insertion order) for a write-behind flusher to
    /// drain with [`VerdictCache::take_dirty`]. Hydrated inserts are
    /// never logged — they came *from* the store.
    dirty: Option<Vec<(CacheKey, CachedVerdict)>>,
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VerdictCache({}/{} entries, {:?})",
            self.entries.len(),
            self.capacity,
            self.stats
        )
    }
}

impl VerdictCache {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        VerdictCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            dirty: None,
        }
    }

    /// Probes for `key`, counting a hit or miss and refreshing recency.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CachedVerdict> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                if entry.hydrated {
                    self.stats.warm_hits += 1;
                }
                self.stats.cycles_saved += entry.verdict.replayed_cycles();
                Some(entry.verdict.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a verdict, evicting the least-recently
    /// used entry if the bound is reached.
    pub fn insert(&mut self, key: CacheKey, verdict: CachedVerdict) {
        if let Some(log) = &mut self.dirty {
            log.push((key, verdict.clone()));
        }
        self.insert_inner(key, verdict, false);
    }

    /// Inserts a verdict recovered from the persistent store at warm
    /// start. Hydrated entries are never appended to the dirty log (the
    /// store already holds them) and hits on them count as `warm_hits`.
    pub fn insert_hydrated(&mut self, key: CacheKey, verdict: CachedVerdict) {
        self.insert_inner(key, verdict, true);
    }

    fn insert_inner(&mut self, key: CacheKey, verdict: CachedVerdict, hydrated: bool) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Ticks are unique, so the minimum is unique: deterministic
            // eviction independent of HashMap iteration order.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.stats.insertions += 1;
        self.entries.insert(
            key,
            Entry {
                verdict,
                last_used: self.tick,
                hydrated,
            },
        );
    }

    /// Starts recording live inserts for write-behind persistence.
    /// Inserts made before this call are not replayed.
    pub fn track_dirty(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(Vec::new());
        }
    }

    /// Stops recording inserts and drops the unflushed log: the store
    /// it fed is gone, and an unread log would grow with every insert.
    pub fn stop_tracking_dirty(&mut self) {
        self.dirty = None;
    }

    /// Drains the dirty log (insertion order). Empty when
    /// [`VerdictCache::track_dirty`] was never called or no inserts
    /// happened since the last drain.
    pub fn take_dirty(&mut self) -> Vec<(CacheKey, CachedVerdict)> {
        match &mut self.dirty {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Number of inserts awaiting a write-behind flush.
    pub fn dirty_len(&self) -> usize {
        self.dirty.as_ref().map_or(0, |log| log.len())
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured LRU bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A verdict cache shared across shards (thread mode locks it briefly
/// around each probe/insert; virtual-time mode drives shards
/// sequentially, so the lock is uncontended and ordering deterministic).
pub type SharedVerdictCache = Arc<Mutex<VerdictCache>>;

/// Builds a [`SharedVerdictCache`] with the given LRU bound.
pub fn shared_cache(capacity: usize) -> SharedVerdictCache {
    Arc::new(Mutex::new(VerdictCache::new(capacity)))
}

/// Locks a shared cache, recovering from a poisoned lock (a panicking
/// inspection thread must not take the whole service's cache with it —
/// counters and entries are plain data, valid at every interleaving).
pub fn lock_cache(cache: &SharedVerdictCache) -> std::sync::MutexGuard<'_, VerdictCache> {
    cache
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(tag: &str) -> CachedVerdict {
        CachedVerdict {
            compliant: true,
            detail: tag.to_string(),
            disassembly_cycles: 1_000,
            policy_cycles: 500,
            instructions: 42,
            taint: None,
        }
    }

    fn key(n: u8) -> CacheKey {
        CacheKey::derive(&[n], &Digest([n; 32]))
    }

    #[test]
    fn key_binds_configuration_and_content() {
        let d = Digest([7u8; 32]);
        let base = CacheKey::derive(b"spec-a", &d);
        assert_eq!(base, CacheKey::derive(b"spec-a", &d));
        // Same binary under a different policy regime: different slot.
        assert_ne!(base, CacheKey::derive(b"spec-b", &d));
        // Same regime, different content: different slot.
        assert_ne!(base, CacheKey::derive(b"spec-a", &Digest([8u8; 32])));
    }

    #[test]
    fn key_length_prefix_prevents_boundary_ambiguity() {
        // "ab" + content starting with "c" must not collide with
        // "abc" + the rest — the length prefix separates the fields.
        let a = CacheKey::derive(b"ab", &Digest([b'c'; 32]));
        let b = CacheKey::derive(b"abc", &Digest([b'c'; 32]));
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = VerdictCache::new(4);
        assert!(c.lookup(&key(1)).is_none());
        c.insert(key(1), verdict("one"));
        let got = c.lookup(&key(1)).expect("hit");
        assert_eq!(got.detail, "one");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.cycles_saved, 1_500);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = VerdictCache::new(2);
        c.insert(key(1), verdict("one"));
        c.insert(key(2), verdict("two"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.lookup(&key(1)).is_some());
        c.insert(key(3), verdict("three"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(&key(2)).is_none(), "LRU entry evicted");
        assert!(c.lookup(&key(1)).is_some());
        assert!(c.lookup(&key(3)).is_some());
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = VerdictCache::new(2);
        c.insert(key(1), verdict("one"));
        c.insert(key(2), verdict("two"));
        c.insert(key(1), verdict("one-again"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(&key(1)).expect("hit").detail, "one-again");
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut c = VerdictCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(key(1), verdict("one"));
        c.insert(key(2), verdict("two"));
        assert_eq!(c.len(), 1);
    }

    fn full_verdict() -> CachedVerdict {
        CachedVerdict {
            compliant: true,
            detail: "ok".to_string(),
            disassembly_cycles: 0x0102_0304_0506_0708,
            policy_cycles: 42,
            instructions: 1_000,
            taint: Some(TaintStats {
                leaks_found: 1,
                tainted_branches: 2,
                scc_count: 3,
                fixpoint_iterations: 4,
                spill_cells: 5,
                weak_updates: 6,
                unresolved_store_sinks: 7,
                cycles_charged: 8,
            }),
        }
    }

    /// The exact `ECV3` wire bytes for [`full_verdict`], spelled out
    /// field by field. Reordering a struct field, changing an integer
    /// width, or touching endianness breaks this vector — and with it
    /// every sealed verdict already on disk.
    fn pinned_encoding() -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(b"ECV3"); // magic
        b.push(1); // compliant = true
        b.extend_from_slice(&[2, 0, 0, 0]); // detail len (u32 LE)
        b.extend_from_slice(b"ok");
        b.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]); // disassembly cycles
        b.extend_from_slice(&[42, 0, 0, 0, 0, 0, 0, 0]); // policy cycles
        b.extend_from_slice(&[0xE8, 3, 0, 0, 0, 0, 0, 0]); // instructions
        b.push(1); // taint present
        for v in [1u8, 2, 3, 4, 5, 6, 7, 8] {
            b.extend_from_slice(&[v, 0, 0, 0, 0, 0, 0, 0]);
        }
        b
    }

    /// [`full_verdict`] as the `ECV2` layout wrote it: the same fields
    /// with a `u32` per-policy report count (here none) after the
    /// detail string.
    fn ecv2_encoding() -> Vec<u8> {
        let mut b = pinned_encoding();
        b[..4].copy_from_slice(b"ECV2");
        b.splice(11..11, [0, 0, 0, 0]);
        b
    }

    #[test]
    fn older_records_fail_closed_with_bad_magic() {
        // An `ECV2` record, or an `ECV1` one (a 5-u64 taint block under
        // that magic), must not half-parse: the version tag rejects it
        // outright and the store layer re-inspects from scratch.
        for magic in [b"ECV1", b"ECV2"] {
            let mut old = ecv2_encoding();
            old[..4].copy_from_slice(magic);
            assert_eq!(CachedVerdict::from_bytes(&old), Err(CodecError::BadMagic));
        }
    }

    #[test]
    fn cached_verdict_byte_layout_is_pinned() {
        // Byte-exact: the encoder must emit exactly the pinned vector,
        // and the decoder must reproduce the original verdict —
        // TaintStats included — from those bytes alone.
        let v = full_verdict();
        assert_eq!(v.to_bytes(), pinned_encoding());
        let back = CachedVerdict::from_bytes(&pinned_encoding()).expect("decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn codec_round_trips_every_shape() {
        let shapes = [
            full_verdict(),
            CachedVerdict {
                compliant: false,
                detail: "policy violation: stack-protection".to_string(),
                disassembly_cycles: u64::MAX,
                policy_cycles: 0,
                instructions: 0,
                taint: None,
            },
            verdict("unicode detail: ∀x ≠ y"),
        ];
        for v in shapes {
            let bytes = v.to_bytes();
            assert_eq!(CachedVerdict::from_bytes(&bytes).expect("decodes"), v);
        }
    }

    #[test]
    fn codec_rejects_malformed_bytes_with_typed_errors() {
        let good = full_verdict().to_bytes();
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(CachedVerdict::from_bytes(&bad), Err(CodecError::BadMagic));
        // Truncation at every prefix length: typed error, never a panic
        // or a successful decode.
        for len in 0..good.len() {
            assert!(
                CachedVerdict::from_bytes(&good[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
        // Trailing garbage after a well-formed verdict.
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(
            CachedVerdict::from_bytes(&padded),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
        // A compliant flag that is neither 0 nor 1.
        let mut flag = good.clone();
        flag[4] = 2;
        assert_eq!(
            CachedVerdict::from_bytes(&flag),
            Err(CodecError::BadFlag { flag: 2 })
        );
    }

    #[test]
    fn dirty_log_records_live_inserts_only() {
        let mut c = VerdictCache::new(4);
        c.insert(key(1), verdict("before tracking")); // not recorded
        c.track_dirty();
        c.insert_hydrated(key(2), verdict("from store")); // not recorded
        c.insert(key(3), verdict("live"));
        c.insert(key(4), verdict("live too"));
        assert_eq!(c.dirty_len(), 2);
        let drained = c.take_dirty();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, key(3));
        assert_eq!(drained[1].0, key(4));
        assert_eq!(c.dirty_len(), 0);
        assert!(c.take_dirty().is_empty());
    }

    #[test]
    fn warm_hits_count_only_hydrated_entries() {
        let mut c = VerdictCache::new(4);
        c.insert(key(1), verdict("live"));
        c.insert_hydrated(key(2), verdict("hydrated"));
        assert!(c.lookup(&key(1)).is_some());
        assert!(c.lookup(&key(2)).is_some());
        assert!(c.lookup(&key(2)).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.warm_hits, 2);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Same operation sequence → same surviving set, run after run
        // (ticks are unique, so min-by-last-used has a unique answer).
        let run = || {
            let mut c = VerdictCache::new(3);
            for n in 0..8u8 {
                c.insert(key(n), verdict("v"));
                let _ = c.lookup(&key(n / 2));
            }
            let mut alive: Vec<u8> = (0..8u8)
                .filter(|&n| c.entries.contains_key(&key(n)))
                .collect();
            alive.sort_unstable();
            alive
        };
        assert_eq!(run(), run());
    }
}
