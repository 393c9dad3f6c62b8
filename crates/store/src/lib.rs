//! Sealed, crash-safe persistent verdict store.
//!
//! The content-addressed verdict cache (`engarde_core::cache`) dies
//! with its process: a restarted fleet re-pays full disassembly +
//! policy checking for every binary it has already judged. This crate
//! persists verdicts to an append-only, segment-rotated log on
//! `std::fs`, sealed with an SGX-style sealing key, so a warm-started
//! fleet hydrates its cache from disk and re-admits known binaries for
//! probe cost only.
//!
//! # Sealing
//!
//! The caller supplies one 32-byte [`SealKey`] — in the serve stack it
//! comes from `SgxMachine::egetkey_for_measurement` keyed to the
//! EnGarde inspector's *measurement*, so a different inspector build
//! (different policy set, different loader) derives a different key
//! and cannot replay this store's verdicts. From the seal key the
//! store derives two independent subkeys (HMAC-SHA256 with distinct
//! labels): an AES-256-CTR encryption key and a MAC key. Every record
//! is encrypted (no plaintext verdict bytes ever reach disk) and
//! authenticated (HMAC-SHA256 over the segment index, sequence number,
//! length, and ciphertext), and every segment carries an authenticated
//! header. Nothing unauthenticated is ever admitted.
//!
//! # Crash safety
//!
//! Recovery ([`VerdictStore::open`]) is panic-free and lossless-prefix:
//! each segment is scanned record by record and the scan stops at the
//! first frame that fails its length or MAC check — the longest
//! *authenticated* prefix survives, the torn or corrupt tail is
//! truncated, and a segment whose header fails authentication is
//! skipped wholesale. Every repair is a typed counter in the
//! [`RecoveryReport`], never a crash. A [`VerdictStore::compact`] pass
//! rewrites the live (last-write-wins) records into fresh segments
//! under the same keying and deletes the old files.

#![forbid(unsafe_code)]

pub mod chaos;
mod format;
mod store;

pub use format::{SealKey, MAX_RECORD_LEN, SEGMENT_HEADER_LEN};
pub use store::{CompactionReport, RecoveryReport, StoreOptions, StoreStats, VerdictStore};

/// Native cycles the service charges virtual time per record flushed
/// through the write-behind queue (seal + MAC + append).
pub const STORE_FLUSH_PER_RECORD: u64 = 3_000;

/// Native cycles the service charges virtual time per record hydrated
/// into the in-memory cache at warm start (read + MAC verify + open +
/// decode).
pub const STORE_HYDRATE_PER_RECORD: u64 = 2_500;

/// Typed store failure. Recovery findings (torn tails, corrupt
/// records, garbage segments) are *not* errors — they are counted in
/// [`RecoveryReport`]; this type covers I/O failures and misuse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing (`"open segment"`, `"append"`, …).
        op: &'static str,
        /// The underlying I/O error kind.
        kind: std::io::ErrorKind,
    },
    /// The store directory path exists but is not a directory.
    NotADirectory,
}

impl StoreError {
    pub(crate) fn io(op: &'static str, err: &std::io::Error) -> Self {
        StoreError::Io {
            op,
            kind: err.kind(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, kind } => write!(f, "store I/O failure during {op}: {kind}"),
            StoreError::NotADirectory => write!(f, "store path exists but is not a directory"),
        }
    }
}

impl std::error::Error for StoreError {}
