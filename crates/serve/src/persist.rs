//! Persistence glue: how the service binds an [`engarde_store`]
//! verdict store to the fleet.
//!
//! The seal key is the SGX MRENCLAVE-policy sealing identity of the
//! EnGarde inspector itself: `EGETKEY(measurement(spec), label)` on the
//! fleet's *base* machine. Two consequences the warm-start tests pin:
//!
//! - A restarted fleet with the same machine configuration and the same
//!   agreed bootstrap spec derives the same key and hydrates every
//!   sealed verdict — re-admitting known binaries for probe cost only.
//! - A different inspector build (different bootstrap spec, so a
//!   different measurement) or a different machine (different fused
//!   seal key) derives a different key, so every segment fails header
//!   authentication and the store admits nothing. One inspector's
//!   verdicts can never be replayed under another inspector's identity.

use engarde_core::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde_sgx::machine::{MachineConfig, SgxMachine};
use engarde_store::{SealKey, StoreOptions};
use std::path::PathBuf;

/// The EGETKEY label under which the service seals its verdict store.
pub const STORE_SEAL_LABEL: &[u8] = b"ENGARDE-STORE-SEAL-V1";

/// Default LRU capacity for the fleet cache a store hydrates into when
/// the service config did not size one explicitly.
pub const DEFAULT_STORE_CACHE_CAPACITY: usize = 1024;

/// How the service persists verdicts across restarts.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the sealed segment files.
    pub dir: PathBuf,
    /// The sealing key — derive it with [`store_seal_key`] so it is
    /// bound to the inspector's measurement.
    pub seal_key: SealKey,
    /// Dirty-queue depth that triggers a write-behind flush. The drain
    /// path always flushes whatever remains, so durability does not
    /// depend on the batch filling.
    pub flush_batch: usize,
    /// Records per on-disk segment before rotation.
    pub segment_max_records: usize,
    /// Live-fraction auto-compaction threshold in per-mille, checked at
    /// segment rotation: compact once fewer than this many of every
    /// 1000 stored records are still live. `0` (the default) disables
    /// the trigger; the service then never compacts the store.
    pub compact_live_per_mille: u16,
}

impl StoreConfig {
    /// A store at `dir` sealed under the inspector identity derived
    /// from `machine` and `spec`, with default batching.
    pub fn sealed_at(
        dir: impl Into<PathBuf>,
        machine: &MachineConfig,
        spec: &BootstrapSpec,
    ) -> Self {
        StoreConfig {
            dir: dir.into(),
            seal_key: store_seal_key(machine, spec),
            flush_batch: 8,
            segment_max_records: 256,
            compact_live_per_mille: 0,
        }
    }

    /// The store's own tuning knobs, as [`engarde_store::VerdictStore::open`]
    /// takes them.
    pub fn options(&self) -> StoreOptions {
        StoreOptions {
            segment_max_records: self.segment_max_records.max(1),
            compact_live_per_mille: self.compact_live_per_mille,
        }
    }
}

/// Derives the store's [`SealKey`]: the key `EGETKEY` would hand an
/// initialized EnGarde enclave measuring `spec` at the default base, on
/// the fleet's base machine.
pub fn store_seal_key(machine: &MachineConfig, spec: &BootstrapSpec) -> SealKey {
    let mut m = SgxMachine::new(machine.clone());
    let measurement = spec.expected_measurement(DEFAULT_ENCLAVE_BASE);
    SealKey::new(m.egetkey_for_measurement(&measurement, STORE_SEAL_LABEL))
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_core::loader::LoaderConfig;

    fn spec(client_region_pages: usize) -> BootstrapSpec {
        BootstrapSpec::new(
            "EnGarde-1.0",
            LoaderConfig::default(),
            &[],
            client_region_pages,
            512,
        )
    }

    #[test]
    fn seal_key_is_bound_to_machine_and_measurement() {
        let machine = MachineConfig::default();
        let k1 = store_seal_key(&machine, &spec(64));
        let k2 = store_seal_key(&machine, &spec(64));
        assert_eq!(k1, k2, "same machine + same spec: same key");

        let other_machine = MachineConfig {
            seed: machine.seed ^ 1,
            ..machine.clone()
        };
        assert_ne!(
            store_seal_key(&other_machine, &spec(64)),
            k1,
            "a different machine (different fused seal key) derives differently"
        );

        assert_ne!(
            store_seal_key(&machine, &spec(65)),
            k1,
            "a different inspector build (different measurement) derives differently"
        );
    }
}
