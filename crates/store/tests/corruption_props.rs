//! Corruption properties of the sealed store's recovery path.
//!
//! The acceptance contract: *any* on-disk damage — truncation at every
//! possible offset, single-bit flips anywhere, whole garbage segments,
//! deleted files — recovers the longest authenticated prefix with
//! typed counters. Zero panics, and zero unauthenticated verdicts
//! admitted: every record recovery returns must be bit-identical to
//! one the store once sealed.

use engarde_core::cache::{CacheKey, CachedVerdict};
use engarde_crypto::sha256::Digest;
use engarde_rand::harness::Property;
use engarde_rand::Rng;
use engarde_store::{chaos, SealKey, StoreOptions, VerdictStore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("engarde-corrupt-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn seal_key() -> SealKey {
    SealKey::new([0x42; 32])
}

fn key(n: u8) -> CacheKey {
    CacheKey::derive(&[n], &Digest([n; 32]))
}

fn verdict(n: u8) -> CachedVerdict {
    CachedVerdict {
        compliant: !n.is_multiple_of(3),
        detail: format!("verdict-{n}"),
        disassembly_cycles: 10_000 + n as u64,
        policy_cycles: 5_000 + n as u64,
        instructions: 100 + n as usize,
        taint: None,
    }
}

/// Seeds a store with `records` verdicts over 4-record segments and
/// returns the ground truth: what each key's live verdict must be if
/// recovered at all.
fn seed_store(dir: &Path, records: u8) -> HashMap<[u8; 32], CachedVerdict> {
    let (mut store, _) = VerdictStore::open(
        dir,
        &seal_key(),
        StoreOptions {
            segment_max_records: 4,
            ..StoreOptions::default()
        },
    )
    .expect("open");
    let mut truth = HashMap::new();
    for n in 0..records {
        store.append(&key(n), &verdict(n)).expect("append");
        truth.insert(*key(n).as_bytes(), verdict(n));
    }
    truth
}

/// Reopens the store after damage and checks the iron invariant: no
/// panic (we got here), and every admitted record is bit-identical to
/// a record the store once sealed — corruption may *lose* suffixes,
/// never fabricate or alter a verdict.
fn assert_only_authentic_records(dir: &Path, truth: &HashMap<[u8; 32], CachedVerdict>) {
    let (store, report) = VerdictStore::open(dir, &seal_key(), StoreOptions::default())
        .expect("recovery only errors on real I/O failure");
    assert!(store.len() <= truth.len());
    let mut cache = engarde_core::cache::VerdictCache::new(64);
    let hydrated = store.hydrate_into(&mut cache);
    assert_eq!(hydrated, store.len());
    for n in 0..=u8::MAX {
        let k = key(n);
        if let Some(got) = store.get(&k) {
            let expected = truth
                .get(k.as_bytes())
                .expect("recovered a key that was never written");
            assert_eq!(got, expected, "recovered verdict for key {n} was altered");
        }
        if truth.get(k.as_bytes()).is_none() {
            break;
        }
    }
    // The report is internally consistent: damage counters are the
    // only way records disappear.
    if store.len() < truth.len() {
        assert!(
            report.found_damage() || report.records_recovered < truth.len() as u64,
            "records vanished without a damage counter"
        );
    }
}

#[test]
fn truncation_at_every_offset_recovers_the_authenticated_prefix() {
    // Exhaustive, not sampled: seed one store, then for every prefix
    // length of the final segment, truncate to it and recover.
    let dir = TempDir::new("every-offset");
    let truth = seed_store(dir.path(), 6);
    let paths = chaos::segment_paths(dir.path()).expect("list");
    let target = paths.last().expect("has segments").clone();
    let original = std::fs::read(&target).expect("read");

    for len in 0..original.len() {
        std::fs::write(&target, &original[..len]).expect("truncate");
        assert_only_authentic_records(dir.path(), &truth);
        std::fs::write(&target, &original).expect("restore");
    }
}

#[test]
fn random_single_bit_flips_never_panic_and_never_fabricate() {
    Property::new("store_bit_flips_fail_closed")
        .cases(96)
        .run(|rng| {
            let dir = TempDir::new("bitflip");
            let truth = seed_store(dir.path(), rng.gen_range(1u8..14));
            let paths = chaos::segment_paths(dir.path()).expect("list");
            let target = &paths[rng.gen_range(0usize..paths.len())];
            let mut bytes = std::fs::read(target).expect("read");
            let pos = rng.gen_range(0usize..bytes.len());
            bytes[pos] ^= 1 << rng.gen_range(0u8..8);
            std::fs::write(target, &bytes).expect("write");
            assert_only_authentic_records(dir.path(), &truth);
        });
}

#[test]
fn random_multi_corruption_storms_never_panic() {
    Property::new("store_corruption_storms_fail_closed")
        .cases(64)
        .run(|rng| {
            let dir = TempDir::new("storm");
            let truth = seed_store(dir.path(), rng.gen_range(4u8..20));
            for _ in 0..rng.gen_range(1usize..5) {
                match rng.gen_range(0u8..4) {
                    0 => {
                        let _ = chaos::torn_write(dir.path(), rng.gen());
                    }
                    1 => {
                        let _ = chaos::flip_bit(dir.path(), rng.gen(), rng.gen());
                    }
                    2 => {
                        let _ = chaos::lose_segment(dir.path(), rng.gen());
                    }
                    _ => {
                        // A whole garbage segment wearing a valid name.
                        let len = rng.gen_range(0usize..512);
                        let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                        let idx = rng.gen_range(90u64..99);
                        std::fs::write(dir.path().join(format!("seg-{idx:08}.seg")), &garbage)
                            .expect("write garbage");
                    }
                }
            }
            assert_only_authentic_records(dir.path(), &truth);
        });
}

#[test]
fn garbage_segments_are_skipped_with_typed_counters() {
    let dir = TempDir::new("garbage");
    let truth = seed_store(dir.path(), 8);
    // Overwrite one real segment with garbage of the same length and
    // drop a foreign-named one next to it.
    let paths = chaos::segment_paths(dir.path()).expect("list");
    let victim = &paths[0];
    let len = std::fs::metadata(victim).expect("meta").len() as usize;
    std::fs::write(victim, vec![0xEE; len]).expect("overwrite");
    std::fs::write(dir.path().join("seg-00000007.seg"), b"not a segment").expect("write");

    let (_, report) =
        VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("open");
    assert!(report.garbage_segments >= 2);
    assert!(report.bytes_discarded >= len as u64);
    assert_only_authentic_records(dir.path(), &truth);
}

#[test]
fn chaos_helpers_report_what_recovery_then_finds() {
    // Each chaos primitive's `detectable` claim must be honest: a
    // detectable injection always surfaces in the recovery report.
    let dir = TempDir::new("honest");
    seed_store(dir.path(), 12); // 3 segments of 4
    let torn = chaos::torn_write(dir.path(), 5)
        .expect("io")
        .expect("had records");
    assert!(torn.detectable);
    let (_, report) =
        VerdictStore::open(dir.path(), &seal_key(), StoreOptions::default()).expect("open");
    assert!(report.torn_tail_truncations >= 1, "torn write detected");

    let dir2 = TempDir::new("honest2");
    seed_store(dir2.path(), 12);
    let flip = chaos::flip_bit(dir2.path(), 3, 4)
        .expect("io")
        .expect("had records");
    assert!(flip.detectable);
    let (_, report) =
        VerdictStore::open(dir2.path(), &seal_key(), StoreOptions::default()).expect("open");
    // A flipped ciphertext/MAC bit fails authentication (corrupt); a
    // flipped length field can masquerade as a torn tail instead.
    // Either way the damage is typed and counted.
    assert!(report.found_damage(), "bit flip detected");

    let dir3 = TempDir::new("honest3");
    seed_store(dir3.path(), 12);
    let lost = chaos::lose_segment(dir3.path(), 1)
        .expect("io")
        .expect("had segments");
    assert!(lost.detectable, "3 segments: interior loss is observable");
    let (_, report) =
        VerdictStore::open(dir3.path(), &seal_key(), StoreOptions::default()).expect("open");
    assert!(report.lost_segments >= 1, "lost segment detected");
}
