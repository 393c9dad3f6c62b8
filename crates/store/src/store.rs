//! The [`VerdictStore`]: open/recover, append, rotate, hydrate,
//! compact.

use crate::format::{RecordParse, SealKey, StoreKeys, SEGMENT_HEADER_LEN};
use crate::StoreError;
use engarde_core::cache::{CacheKey, CachedVerdict, VerdictCache};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Tuning knobs for a store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreOptions {
    /// Records per segment before the store rotates to a fresh file.
    pub segment_max_records: usize,
    /// Live-fraction compaction threshold in per-mille: when fewer than
    /// `compact_live_per_mille` of every 1000 stored records are still
    /// live (the rest superseded by rewrites of the same key), the
    /// store compacts itself at the next segment rotation instead of
    /// waiting for an explicit [`VerdictStore::compact`] call. `0`
    /// disables the trigger (the default): the store compacts only on
    /// an explicit call.
    pub compact_live_per_mille: u16,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_max_records: 256,
            compact_live_per_mille: 0,
        }
    }
}

/// What recovery found and repaired while opening a store. All counts
/// are typed observations, never reasons to fail: recovery always
/// completes with the longest authenticated prefix of every segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// Segment files found on disk.
    pub segments_scanned: u64,
    /// Segments whose header failed authentication — skipped wholesale.
    pub garbage_segments: u64,
    /// Segment indices missing between the lowest and highest present
    /// index (a deleted or lost file). The store writes indices
    /// contiguously and compaction only removes a *prefix*, so any
    /// interior hole is loss. A lost first or final segment is
    /// indistinguishable from a smaller store and goes uncounted —
    /// the documented residual blind spot of a manifest-free log.
    pub lost_segments: u64,
    /// Authenticated records admitted (including later-superseded ones).
    pub records_recovered: u64,
    /// Records superseded by a later write of the same cache key
    /// (last-write-wins).
    pub superseded_records: u64,
    /// Complete frames that failed their MAC or decoding — the scan
    /// stopped there and the tail was truncated.
    pub corrupt_records: u64,
    /// Segments ending mid-record (torn writes) — tail truncated.
    pub torn_tail_truncations: u64,
    /// Bytes discarded by truncation and garbage-segment skips.
    pub bytes_discarded: u64,
}

impl RecoveryReport {
    /// Whether recovery found any damage at all.
    pub fn found_damage(&self) -> bool {
        self.garbage_segments > 0
            || self.lost_segments > 0
            || self.corrupt_records > 0
            || self.torn_tail_truncations > 0
    }
}

/// Outcome of a [`VerdictStore::compact`] pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompactionReport {
    /// Live records rewritten into fresh segments.
    pub records_kept: u64,
    /// Superseded records dropped.
    pub records_dropped: u64,
    /// Old segment files deleted.
    pub segments_removed: u64,
    /// On-disk bytes reclaimed (old size − new size).
    pub bytes_reclaimed: u64,
}

/// Counters exported through `engarde-serve` metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Distinct cache keys currently live (last-write-wins).
    pub live_records: u64,
    /// Sealed records currently on disk (live + superseded).
    pub stored_records: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Records appended by this process.
    pub appended_records: u64,
    /// Compaction passes run by this process.
    pub compactions: u64,
    /// Superseded records dropped by compaction.
    pub compaction_dropped: u64,
    /// What recovery found when this store was opened.
    pub recovery: RecoveryReport,
}

/// An open, recovered verdict store. See the crate docs for the
/// format and the sealing/recovery invariants.
pub struct VerdictStore {
    dir: PathBuf,
    keys: StoreKeys,
    options: StoreOptions,
    /// Last-write-wins image of every authenticated record, keyed by
    /// raw cache-key bytes (`BTreeMap` for deterministic iteration).
    live: BTreeMap<[u8; 32], CachedVerdict>,
    /// Next record sequence number — monotonic for the store's
    /// lifetime on disk, never reissued (it is the CTR nonce).
    next_seq: u64,
    active_index: u64,
    active_records: usize,
    active_file: File,
    stored_records: u64,
    segment_count: u64,
    appended: u64,
    compactions: u64,
    compaction_dropped: u64,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for VerdictStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VerdictStore({} live / {} stored in {} segments at {})",
            self.live.len(),
            self.stored_records,
            self.segment_count,
            self.dir.display()
        )
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.seg"))
}

/// Parses `seg-NNNNNNNN.seg` back to its index.
fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Sorted `(index, path)` list of the segment files in `dir`.
pub(crate) fn segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("list segments", &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("list segments", &e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(index) = parse_segment_name(name) {
                out.push((index, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|(index, _)| *index);
    Ok(out)
}

impl VerdictStore {
    /// Opens (creating if absent) and recovers the store at `dir`.
    ///
    /// Recovery scans every segment, admits the longest authenticated
    /// prefix of each, physically truncates torn/corrupt tails so
    /// later appends land at a clean offset, and records everything it
    /// found in the returned [`RecoveryReport`] (also kept in
    /// [`VerdictStore::stats`]).
    ///
    /// # Errors
    ///
    /// Only on real I/O failure (permissions, disk full, …) — damage
    /// in the segment files is repaired, not reported as an error.
    pub fn open(
        dir: &Path,
        seal_key: &SealKey,
        options: StoreOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        if dir.exists() && !dir.is_dir() {
            return Err(StoreError::NotADirectory);
        }
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create store dir", &e))?;
        let keys = StoreKeys::derive(seal_key);

        let mut report = RecoveryReport::default();
        let mut live: BTreeMap<[u8; 32], CachedVerdict> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut stored_records = 0u64;
        let segments = segment_files(dir)?;
        let mut usable_indices: Vec<u64> = Vec::new();

        for (index, path) in &segments {
            report.segments_scanned += 1;
            let bytes = fs::read(path).map_err(|e| StoreError::io("read segment", &e))?;
            if !keys.verify_header(&bytes, *index) {
                report.garbage_segments += 1;
                report.bytes_discarded += bytes.len() as u64;
                continue;
            }
            usable_indices.push(*index);
            let mut offset = SEGMENT_HEADER_LEN;
            loop {
                match keys.open_record(*index, &bytes, offset) {
                    RecordParse::End => break,
                    RecordParse::Valid {
                        seq,
                        consumed,
                        key,
                        verdict,
                    } => {
                        next_seq = next_seq.max(seq + 1);
                        stored_records += 1;
                        report.records_recovered += 1;
                        if live.insert(*key.as_bytes(), verdict).is_some() {
                            report.superseded_records += 1;
                        }
                        offset += consumed;
                    }
                    RecordParse::TornTail { torn_seq } => {
                        report.torn_tail_truncations += 1;
                        report.bytes_discarded += (bytes.len() - offset) as u64;
                        // The torn record's sequence may have reached
                        // the platter before the crash; never reissue
                        // it (the sequence is the CTR nonce). When the
                        // frame is too short to read it, skip one
                        // sequence defensively.
                        next_seq = match torn_seq {
                            Some(seq) => next_seq.max(seq + 1),
                            None => next_seq + 1,
                        };
                        truncate_file(path, offset as u64)?;
                        break;
                    }
                    RecordParse::Corrupt { seq } => {
                        report.corrupt_records += 1;
                        report.bytes_discarded += (bytes.len() - offset) as u64;
                        next_seq = next_seq.max(seq.saturating_add(1));
                        truncate_file(path, offset as u64)?;
                        break;
                    }
                }
            }
        }

        // Lost-segment detection: present segment files must cover
        // min..=max contiguously (appends and compaction never skip an
        // index). A garbage segment is *present* — it is counted
        // above, not here.
        if let (Some((min, _)), Some((max, _))) = (segments.first(), segments.last()) {
            report.lost_segments = (max - min + 1).saturating_sub(segments.len() as u64);
        }

        // The active segment is the highest usable index; a fresh (or
        // fully-garbage) store starts a new segment after the highest
        // *file* index so garbage files are never appended to.
        let highest_file_index = segments.last().map(|(i, _)| *i);
        let (active_index, active_records, active_file) = match usable_indices.last() {
            Some(&index) if Some(index) == highest_file_index => {
                let count = count_records(&keys, dir, index)?;
                let file = open_append(&segment_path(dir, index))?;
                (index, count, file)
            }
            _ => {
                let index = highest_file_index.map_or(0, |i| i + 1);
                let file = create_segment(&keys, dir, index)?;
                (index, 0, file)
            }
        };

        let segment_count = segment_files(dir)?.len() as u64;
        let store = VerdictStore {
            dir: dir.to_path_buf(),
            keys,
            options,
            live,
            next_seq,
            active_index,
            active_records,
            active_file,
            stored_records,
            segment_count,
            appended: 0,
            compactions: 0,
            compaction_dropped: 0,
            recovery: report,
        };
        Ok((store, report))
    }

    /// Seals and appends one verdict, rotating to a fresh segment when
    /// the active one is full.
    ///
    /// # Errors
    ///
    /// Only on I/O failure; the record is sealed before any byte is
    /// written, so a failed append never leaves plaintext behind.
    pub fn append(&mut self, key: &CacheKey, verdict: &CachedVerdict) -> Result<(), StoreError> {
        if self.active_records >= self.options.segment_max_records.max(1) {
            self.rotate()?;
            self.maybe_auto_compact()?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let record = self.keys.seal_record(self.active_index, seq, key, verdict);
        self.active_file
            .write_all(&record)
            .map_err(|e| StoreError::io("append record", &e))?;
        self.active_file
            .flush()
            .map_err(|e| StoreError::io("flush segment", &e))?;
        self.active_records += 1;
        self.stored_records += 1;
        self.appended += 1;
        self.live.insert(*key.as_bytes(), verdict.clone());
        Ok(())
    }

    /// Appends a batch (the write-behind flush path).
    ///
    /// # Errors
    ///
    /// Propagates the first failed append; earlier records in the
    /// batch stay durable.
    pub fn append_batch(&mut self, items: &[(CacheKey, CachedVerdict)]) -> Result<(), StoreError> {
        for (key, verdict) in items {
            self.append(key, verdict)?;
        }
        Ok(())
    }

    /// The live-fraction trigger, checked at segment rotation (so its
    /// cost amortizes over `segment_max_records` appends): compacts
    /// when live records have fallen below `compact_live_per_mille` of
    /// every 1000 stored. A compaction pass leaves `stored == live`, so
    /// the trigger cannot re-fire until supersessions accumulate again.
    fn maybe_auto_compact(&mut self) -> Result<(), StoreError> {
        let threshold = u64::from(self.options.compact_live_per_mille);
        if threshold == 0 {
            return Ok(());
        }
        let live = self.live.len() as u64;
        if self.stored_records > live && live * 1000 < self.stored_records * threshold {
            self.compact()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        let index = self.active_index + 1;
        self.active_file = create_segment(&self.keys, &self.dir, index)?;
        self.active_index = index;
        self.active_records = 0;
        self.segment_count += 1;
        Ok(())
    }

    /// Inserts every live record into `cache` via
    /// [`VerdictCache::insert_hydrated`] (deterministic key order).
    /// Returns how many records were hydrated.
    pub fn hydrate_into(&self, cache: &mut VerdictCache) -> usize {
        for (key_bytes, verdict) in &self.live {
            cache.insert_hydrated(CacheKey::from_bytes(*key_bytes), verdict.clone());
        }
        self.live.len()
    }

    /// Rewrites the live records into fresh segments (continuing the
    /// index and sequence counters — neither is ever reused) and
    /// deletes every older segment file.
    ///
    /// # Errors
    ///
    /// Only on I/O failure. The old segments are deleted only after
    /// the replacement segments are fully written, so a crash
    /// mid-compaction loses nothing (recovery supersedes duplicates).
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        let old_segments = segment_files(&self.dir)?;
        let old_bytes: u64 = old_segments
            .iter()
            .map(|(_, p)| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        let dropped = self.stored_records - self.live.len() as u64;

        // Write all live records into fresh segments after the current
        // active index.
        self.rotate()?;
        let first_new_index = self.active_index;
        let live: Vec<([u8; 32], CachedVerdict)> =
            self.live.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (key_bytes, verdict) in &live {
            if self.active_records >= self.options.segment_max_records.max(1) {
                self.rotate()?;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let record = self.keys.seal_record(
                self.active_index,
                seq,
                &CacheKey::from_bytes(*key_bytes),
                verdict,
            );
            self.active_file
                .write_all(&record)
                .map_err(|e| StoreError::io("compact append", &e))?;
            self.active_records += 1;
        }
        self.active_file
            .flush()
            .map_err(|e| StoreError::io("compact flush", &e))?;

        // Old segments are now fully superseded: delete them.
        let mut removed = 0u64;
        for (index, path) in &old_segments {
            if *index < first_new_index {
                fs::remove_file(path).map_err(|e| StoreError::io("remove old segment", &e))?;
                removed += 1;
            }
        }
        self.stored_records = self.live.len() as u64;
        self.segment_count = segment_files(&self.dir)?.len() as u64;
        self.compactions += 1;
        self.compaction_dropped += dropped;

        let new_bytes: u64 = segment_files(&self.dir)?
            .iter()
            .map(|(_, p)| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        Ok(CompactionReport {
            records_kept: self.live.len() as u64,
            records_dropped: dropped,
            segments_removed: removed,
            bytes_reclaimed: old_bytes.saturating_sub(new_bytes),
        })
    }

    /// Distinct live cache keys.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `key` has a live record.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.live.contains_key(key.as_bytes())
    }

    /// The live verdict for `key`, if any.
    pub fn get(&self, key: &CacheKey) -> Option<&CachedVerdict> {
        self.live.get(key.as_bytes())
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters for metrics export.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_records: self.live.len() as u64,
            stored_records: self.stored_records,
            segments: self.segment_count,
            appended_records: self.appended,
            compactions: self.compactions,
            compaction_dropped: self.compaction_dropped,
            recovery: self.recovery,
        }
    }
}

fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io("open for truncate", &e))?;
    file.set_len(len)
        .map_err(|e| StoreError::io("truncate tail", &e))?;
    Ok(())
}

fn open_append(path: &Path) -> Result<File, StoreError> {
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| StoreError::io("open segment", &e))
}

fn create_segment(keys: &StoreKeys, dir: &Path, index: u64) -> Result<File, StoreError> {
    let path = segment_path(dir, index);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| StoreError::io("create segment", &e))?;
    file.write_all(&keys.encode_header(index))
        .map_err(|e| StoreError::io("write header", &e))?;
    file.flush()
        .map_err(|e| StoreError::io("flush header", &e))?;
    Ok(file)
}

/// Counts the authenticated records already in segment `index` (used
/// to resume appends against the recovered active segment).
fn count_records(keys: &StoreKeys, dir: &Path, index: u64) -> Result<usize, StoreError> {
    let bytes =
        fs::read(segment_path(dir, index)).map_err(|e| StoreError::io("read segment", &e))?;
    let mut offset = SEGMENT_HEADER_LEN;
    let mut count = 0;
    loop {
        match keys.open_record(index, &bytes, offset) {
            RecordParse::Valid { consumed, .. } => {
                count += 1;
                offset += consumed;
            }
            _ => return Ok(count),
        }
    }
}
