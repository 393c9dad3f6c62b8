//! Functional contract of the sealed verdict store: append → restart →
//! recover, segment rotation, last-write-wins, hydration, compaction,
//! and key binding.

use engarde_core::cache::{CacheKey, CachedVerdict, VerdictCache};
use engarde_crypto::sha256::Digest;
use engarde_store::{chaos, SealKey, StoreOptions, VerdictStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, self-cleaning scratch directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("engarde-store-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn seal_key() -> SealKey {
    SealKey::new([0x5A; 32])
}

fn key(n: u8) -> CacheKey {
    CacheKey::derive(&[n], &Digest([n; 32]))
}

fn verdict(tag: &str) -> CachedVerdict {
    CachedVerdict {
        compliant: true,
        detail: format!("compliant: {tag}"),
        disassembly_cycles: 1_000,
        policy_cycles: 500,
        instructions: 42,
        taint: None,
    }
}

fn small_segments() -> StoreOptions {
    StoreOptions {
        segment_max_records: 4,
        ..StoreOptions::default()
    }
}

#[test]
fn verdicts_survive_a_restart_bit_for_bit() {
    let dir = TempDir::new("restart");
    {
        let (mut store, report) =
            VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("open");
        assert!(!report.found_damage());
        for n in 0..10u8 {
            store
                .append(&key(n), &verdict(&format!("v{n}")))
                .expect("append");
        }
        assert_eq!(store.len(), 10);
    }
    let (store, report) =
        VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("reopen");
    assert!(!report.found_damage(), "clean shutdown recovers cleanly");
    assert_eq!(report.records_recovered, 10);
    assert_eq!(store.len(), 10);
    for n in 0..10u8 {
        assert_eq!(
            store.get(&key(n)).expect("recovered"),
            &verdict(&format!("v{n}")),
            "record {n} is bit-identical after restart"
        );
    }
}

#[test]
fn segments_rotate_and_recover_across_files() {
    let dir = TempDir::new("rotate");
    {
        let (mut store, _) =
            VerdictStore::open(dir.path(), &seal_key(), small_segments()).expect("open");
        for n in 0..10u8 {
            store.append(&key(n), &verdict("x")).expect("append");
        }
        assert!(store.stats().segments >= 3, "4-record segments rotated");
    }
    let (store, report) =
        VerdictStore::open(dir.path(), &seal_key(), small_segments()).expect("reopen");
    assert_eq!(report.records_recovered, 10);
    assert_eq!(report.lost_segments, 0);
    assert_eq!(store.len(), 10);
}

#[test]
fn last_write_wins_per_key() {
    let dir = TempDir::new("lww");
    {
        let (mut store, _) =
            VerdictStore::open(dir.path(), &seal_key(), small_segments()).expect("open");
        store.append(&key(1), &verdict("old")).expect("append");
        store.append(&key(2), &verdict("other")).expect("append");
        store.append(&key(1), &verdict("new")).expect("append");
    }
    let (store, report) =
        VerdictStore::open(dir.path(), &seal_key(), small_segments()).expect("reopen");
    assert_eq!(report.records_recovered, 3);
    assert_eq!(report.superseded_records, 1);
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(&key(1)).expect("live"), &verdict("new"));
}

#[test]
fn hydration_fills_a_cache_with_warm_entries() {
    let dir = TempDir::new("hydrate");
    {
        let (mut store, _) =
            VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("open");
        for n in 0..5u8 {
            store.append(&key(n), &verdict("w")).expect("append");
        }
    }
    let (store, _) =
        VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("reopen");
    let mut cache = VerdictCache::new(16);
    assert_eq!(store.hydrate_into(&mut cache), 5);
    assert_eq!(cache.len(), 5);
    for n in 0..5u8 {
        assert!(cache.lookup(&key(n)).is_some());
    }
    assert_eq!(
        cache.stats().warm_hits,
        5,
        "hydrated entries count warm hits"
    );
    assert_eq!(cache.stats().hits, 5);
}

#[test]
fn compaction_drops_superseded_records_and_old_segments() {
    let dir = TempDir::new("compact");
    let (mut store, _) =
        VerdictStore::open(dir.path(), &seal_key(), small_segments()).expect("open");
    // 20 appends over 4 keys: 16 superseded records across ~5 segments.
    for round in 0..5u8 {
        for n in 0..4u8 {
            store
                .append(&key(n), &verdict(&format!("r{round}")))
                .expect("append");
        }
    }
    let before = store.stats();
    assert_eq!(before.stored_records, 20);
    assert_eq!(before.live_records, 4);

    let report = store.compact().expect("compact");
    assert_eq!(report.records_kept, 4);
    assert_eq!(report.records_dropped, 16);
    assert!(report.segments_removed >= 4);
    assert!(report.bytes_reclaimed > 0);
    let after = store.stats();
    assert_eq!(after.stored_records, 4);
    assert_eq!(after.compactions, 1);

    // The compacted store recovers the same live image with no damage:
    // compaction removed a segment *prefix*, so the surviving indices
    // are still contiguous and trip no lost-segment counter.
    drop(store);
    let (store, report) =
        VerdictStore::open(dir.path(), &seal_key(), small_segments()).expect("reopen");
    assert_eq!(store.len(), 4);
    assert!(report.records_recovered >= 4);
    for n in 0..4u8 {
        assert_eq!(store.get(&key(n)).expect("live"), &verdict("r4"));
    }
}

#[test]
fn a_different_seal_key_reads_nothing() {
    let dir = TempDir::new("foreign-key");
    {
        let (mut store, _) =
            VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("open");
        for n in 0..4u8 {
            store.append(&key(n), &verdict("sealed")).expect("append");
        }
    }
    // A different inspector build derives a different seal key: every
    // segment fails header authentication and is skipped wholesale —
    // zero unauthenticated verdicts admitted, zero panics.
    let foreign = SealKey::new([0xA5; 32]);
    let (store, report) =
        VerdictStore::open(dir.path(), &foreign, StoreOptions::default()).expect("open");
    assert_eq!(store.len(), 0, "foreign key admits nothing");
    assert!(report.garbage_segments >= 1);
    assert_eq!(report.records_recovered, 0);
}

#[test]
fn no_plaintext_verdict_bytes_reach_disk() {
    let dir = TempDir::new("plaintext");
    let marker = "MARKER-THE-QUICK-BROWN-VERDICT";
    let (mut store, _) =
        VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("open");
    let mut v = verdict("x");
    v.detail = format!("compliant: {marker}");
    store.append(&key(9), &v).expect("append");
    drop(store);

    for path in chaos::segment_paths(dir.path()).expect("list") {
        let bytes = std::fs::read(&path).expect("read");
        assert!(
            !contains(&bytes, marker.as_bytes()),
            "verdict detail leaked in {}",
            path.display()
        );
        assert!(
            !contains(&bytes, b"stack-protection"),
            "policy name leaked in {}",
            path.display()
        );
        assert!(
            !contains(&bytes, key(9).as_bytes()),
            "cache key leaked in {}",
            path.display()
        );
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn sequence_numbers_are_never_reissued_after_a_torn_tail() {
    let dir = TempDir::new("seq");
    {
        let (mut store, _) =
            VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("open");
        for n in 0..3u8 {
            store.append(&key(n), &verdict("v")).expect("append");
        }
    }
    // Tear the last record, then append after recovery: the new record
    // must decrypt correctly on a third open (a reused CTR nonce with
    // different plaintext would corrupt silently — the MAC would catch
    // it, losing the record).
    chaos::torn_write(dir.path(), 7)
        .expect("chaos")
        .expect("tore");
    {
        let (mut store, report) =
            VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("reopen");
        assert_eq!(report.torn_tail_truncations, 1);
        store
            .append(&key(3), &verdict("after-tear"))
            .expect("append");
    }
    let (store, report) =
        VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("third open");
    assert!(!report.found_damage());
    assert_eq!(store.get(&key(3)).expect("live"), &verdict("after-tear"));
}

#[test]
fn live_fraction_threshold_auto_compacts_a_superseding_workload() {
    // A re-verdicting fleet rewrites the same few keys forever. With
    // only drain-gated compaction the log grows without bound; the
    // live-fraction threshold must bound it. Run the identical
    // supersession workload twice — threshold off, then on — and pin
    // that the trigger actually fires and shrinks the segment count.
    let run = |dir: &std::path::Path, compact_live_per_mille: u16| {
        let (mut store, _) = VerdictStore::open(
            dir,
            &seal_key(),
            StoreOptions {
                segment_max_records: 4,
                compact_live_per_mille,
            },
        )
        .expect("open");
        // 40 appends over 4 keys: 4 live, 36 superseded by the end.
        for round in 0..10u8 {
            for n in 0..4u8 {
                store
                    .append(&key(n), &verdict(&format!("round-{round}")))
                    .expect("append");
            }
        }
        store
    };

    let plain_dir = TempDir::new("autocompact-off");
    let plain = run(plain_dir.path(), 0);
    assert_eq!(plain.stats().compactions, 0, "0 per mille must not fire");
    assert!(
        plain.stats().segments >= 8,
        "without the trigger the log must keep growing, got {} segments",
        plain.stats().segments
    );

    // 500 per mille: compact whenever fewer than half the stored
    // records are live — i.e. as soon as supersessions outnumber live
    // keys at a rotation point.
    let auto_dir = TempDir::new("autocompact-on");
    let auto = run(auto_dir.path(), 500);
    let stats = auto.stats();
    assert!(
        stats.compactions >= 2,
        "live-fraction trigger never fired: {stats:?}"
    );
    assert!(
        stats.segments < plain.stats().segments / 2,
        "auto-compaction must bound segment growth: {} vs {} without",
        stats.segments,
        plain.stats().segments
    );
    assert!(stats.compaction_dropped > 0);
    assert_eq!(stats.live_records, 4, "compaction must not lose live keys");

    // The bounded store still serves the latest write of every key and
    // recovers clean: compaction under the trigger is just compaction.
    drop(auto);
    let (reopened, report) = VerdictStore::open(
        auto_dir.path(),
        &seal_key(),
        StoreOptions {
            segment_max_records: 4,
            compact_live_per_mille: 500,
        },
    )
    .expect("reopen");
    assert!(!report.found_damage());
    assert_eq!(reopened.len(), 4);
    for n in 0..4u8 {
        assert_eq!(
            reopened.get(&key(n)).expect("live key"),
            &verdict("round-9"),
            "key {n} must resolve to its final supersession"
        );
    }
}
