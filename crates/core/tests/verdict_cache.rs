//! End-to-end tests of the content-addressed verdict cache: stage
//! accounting on hits, bit-identical verdicts/signatures between cached
//! and uncached runs, rejection replay, and policy-regime isolation.

use engarde_core::cache::{lock_cache, shared_cache, SharedVerdictCache};
use engarde_core::client::Client;
use engarde_core::loader::LoaderConfig;
use engarde_core::policy::{LibraryLinkingPolicy, PolicyModule, StackProtectionPolicy};
use engarde_core::protocol::SignedVerdict;
use engarde_core::provider::{CloudProvider, ProviderView};
use engarde_core::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::MachineConfig;
use engarde_sgx::perf::costs;
use engarde_workloads::generator::{generate, WorkloadSpec};
use engarde_workloads::libc::{Instrumentation, LibcLibrary};

fn machine_config(seed: u64) -> MachineConfig {
    MachineConfig {
        epc_pages: 1024,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    }
}

fn linking_policies() -> Vec<Box<dyn PolicyModule>> {
    let lib = LibcLibrary::build(Instrumentation::None);
    vec![Box::new(LibraryLinkingPolicy::new(
        "musl-libc",
        lib.function_hashes(),
    ))]
}

fn stack_policies() -> Vec<Box<dyn PolicyModule>> {
    vec![Box::new(StackProtectionPolicy::new())]
}

fn compliant_image() -> Vec<u8> {
    generate(&WorkloadSpec {
        target_instructions: 6_000,
        ..WorkloadSpec::default()
    })
    .image
}

/// Runs one full provisioning session (attest → channel → deliver →
/// inspect) and tears the enclave down afterwards so EPC pages recycle.
fn provision(
    provider: &mut CloudProvider,
    spec: &BootstrapSpec,
    policies: Vec<Box<dyn PolicyModule>>,
    image: Vec<u8>,
) -> (ProviderView, SignedVerdict) {
    let enclave = provider
        .create_engarde_enclave(spec.clone(), policies)
        .expect("create enclave");
    let mut client = Client::new(
        image,
        spec,
        DEFAULT_ENCLAVE_BASE,
        provider.device_public_key(),
        7,
    );
    let nonce = client.challenge();
    let quote = provider.attest(enclave, nonce).expect("attest");
    let key = provider.enclave_public_key(enclave).expect("enclave key");
    client.verify_quote(&quote, &key).expect("quote verifies");
    let wrapped = client.establish_channel(&key).expect("channel");
    provider.open_channel(enclave, &wrapped).expect("open");
    for block in client.content_blocks().expect("blocks") {
        provider.deliver(enclave, &block).expect("deliver");
    }
    let view = provider.inspect_and_provision(enclave).expect("inspect");
    let verdict = provider
        .signed_verdict(enclave)
        .expect("verdict recorded")
        .clone();
    provider.close_session(enclave).expect("close");
    (view, verdict)
}

fn cached_provider(seed: u64, cache: &SharedVerdictCache) -> CloudProvider {
    let mut p = CloudProvider::new(machine_config(seed));
    p.set_verdict_cache(cache.clone());
    p
}

#[test]
fn cache_hit_still_pays_receive_decrypt_and_loading_relocation() {
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &linking_policies(),
        64,
        512,
    );
    let cache = shared_cache(8);
    let mut provider = cached_provider(42, &cache);
    let image = compliant_image();

    let (cold, _) = provision(&mut provider, &spec, linking_policies(), image.clone());
    let (hit, _) = provision(&mut provider, &spec, linking_policies(), image);

    assert!(cold.compliant && hit.compliant);
    assert!(!cold.cache_hit);
    assert!(hit.cache_hit, "second identical binary must hit the cache");

    // A hit never reports a free stage: the session still decrypted its
    // own ciphertext and mapped into its own region.
    assert!(hit.stages.receive_decrypt > 0);
    assert!(hit.stages.loading_relocation > 0);
    assert_eq!(hit.stages.receive_decrypt, cold.stages.receive_decrypt);
    assert_eq!(
        hit.stages.loading_relocation,
        cold.stages.loading_relocation
    );
    // The analysis stages collapse to the metered probe cost.
    assert_eq!(hit.stages.disassembly, costs::CACHE_PROBE);
    assert_eq!(hit.stages.policy_checking, 0);
    assert!(hit.stages.total() < cold.stages.total());

    let stats = lock_cache(&cache).stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    assert!(stats.cycles_saved > 0);
}

#[test]
fn cached_and_uncached_sessions_sign_identical_verdicts() {
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &linking_policies(),
        64,
        512,
    );
    let image = compliant_image();

    let cache = shared_cache(8);
    let mut with_cache = cached_provider(42, &cache);
    let (_, warm1) = provision(&mut with_cache, &spec, linking_policies(), image.clone());
    let (hit_view, warm2) = provision(&mut with_cache, &spec, linking_policies(), image.clone());

    let mut without_cache = CloudProvider::new(machine_config(42));
    let (_, cold1) = provision(&mut without_cache, &spec, linking_policies(), image.clone());
    let (cold_view, cold2) = provision(&mut without_cache, &spec, linking_policies(), image);

    assert!(hit_view.cache_hit);
    assert!(!cold_view.cache_hit);
    // Same machine seed, same session order: the replayed verdict must
    // be indistinguishable — detail, digest, and signature bits.
    assert_eq!(warm1.signature, cold1.signature);
    assert_eq!(warm2.compliant, cold2.compliant);
    assert_eq!(warm2.detail, cold2.detail);
    assert_eq!(warm2.content_digest, cold2.content_digest);
    assert_eq!(warm2.signature, cold2.signature);
    // And the provider's view of the mapping is identical too.
    assert_eq!(hit_view.exec_pages, cold_view.exec_pages);
    assert_eq!(hit_view.instructions, cold_view.instructions);
}

#[test]
fn rejections_are_replayed_from_cache() {
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &stack_policies(),
        64,
        512,
    );
    // No stack-protector instrumentation → the stack-protection policy
    // rejects, deterministically.
    let image = generate(&WorkloadSpec {
        target_instructions: 6_000,
        instrumentation: Instrumentation::None,
        ..WorkloadSpec::default()
    })
    .image;

    let cache = shared_cache(8);
    let mut provider = cached_provider(42, &cache);
    let (first, v1) = provision(&mut provider, &spec, stack_policies(), image.clone());
    let (second, v2) = provision(&mut provider, &spec, stack_policies(), image);

    assert!(!first.compliant && !second.compliant);
    assert!(!first.cache_hit);
    assert!(second.cache_hit, "a cached rejection replays as a hit");
    assert_eq!(v1.detail, v2.detail);
    assert_eq!(v1.content_digest, v2.content_digest);
    let stats = lock_cache(&cache).stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn verdicts_never_shared_across_policy_regimes() {
    // The same bytes under two different agreed configurations (here:
    // different EnGarde versions; policy sets and loader settings are
    // bound the same way) must occupy distinct slots.
    let spec_a = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &linking_policies(),
        64,
        512,
    );
    let spec_b = BootstrapSpec::new(
        "EnGarde-1.1",
        LoaderConfig::default(),
        &linking_policies(),
        64,
        512,
    );
    let image = compliant_image();

    let cache = shared_cache(8);
    let mut provider = cached_provider(42, &cache);
    let (first, _) = provision(&mut provider, &spec_a, linking_policies(), image.clone());
    let (second, _) = provision(&mut provider, &spec_b, linking_policies(), image);

    assert!(!first.cache_hit);
    assert!(
        !second.cache_hit,
        "a different policy regime must not reuse the verdict"
    );
    let stats = lock_cache(&cache).stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 2, 2));
}

#[test]
fn a_region_too_small_for_the_binary_caches_a_signed_rejection() {
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &linking_policies(),
        2,
        512,
    );
    let image = compliant_image();

    let cache = shared_cache(8);
    let mut provider = cached_provider(42, &cache);
    let (first, v1) = provision(&mut provider, &spec, linking_policies(), image.clone());
    assert!(!first.compliant && !v1.compliant);
    assert_eq!(
        v1.detail,
        "enclave memory exhausted: client segments exceed the committed client region"
    );
    assert!(!first.cache_hit);
    assert_eq!(first.instructions, 0);
    assert!(first.exec_pages.is_empty());
    let stats = lock_cache(&cache).stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 1, 1));

    let (second, v2) = provision(&mut provider, &spec, linking_policies(), image.clone());
    assert!(!second.compliant);
    assert!(
        second.cache_hit,
        "the cached mapping failure replays as a hit"
    );
    assert_eq!(second.stages.loading_relocation, 0);
    assert_eq!(second.stages.disassembly, costs::CACHE_PROBE);
    assert_eq!(second.instructions, 0);
    assert_eq!(v1.detail, v2.detail);
    let stats = lock_cache(&cache).stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));

    // The replayed rejection signs exactly what a cold one does.
    let mut uncached = CloudProvider::new(machine_config(42));
    let (_, u1) = provision(&mut uncached, &spec, linking_policies(), image.clone());
    let (_, u2) = provision(&mut uncached, &spec, linking_policies(), image);
    assert_eq!((&v1, &v2), (&u1, &u2));
}

#[test]
fn a_hit_under_a_lying_manifest_fails_closed_and_inserts_nothing() {
    use engarde_core::protocol::{ContentManifest, PageKind, PagePayload};
    use engarde_core::EngardeError;
    use engarde_crypto::channel::ChannelClient;
    use engarde_rand::{SeedableRng, StdRng};
    use engarde_sgx::epc::PAGE_SIZE;

    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &linking_policies(),
        64,
        512,
    );
    let image = compliant_image();
    let cache = shared_cache(8);
    let mut provider = cached_provider(42, &cache);
    let (cold, _) = provision(&mut provider, &spec, linking_policies(), image.clone());
    assert!(cold.compliant);

    // The same bytes again, but the manifest calls every page data.
    let enclave = provider
        .create_engarde_enclave(spec.clone(), linking_policies())
        .expect("create enclave");
    let key = provider.enclave_public_key(enclave).expect("enclave key");
    let mut rng = StdRng::seed_from_u64(9);
    let (wrapped, mut session) = ChannelClient::establish(&mut rng, &key).expect("establish");
    provider.open_channel(enclave, &wrapped).expect("open");
    let manifest = ContentManifest {
        total_len: image.len(),
        page_kinds: vec![PageKind::Data; image.len().div_ceil(PAGE_SIZE)],
    };
    provider
        .deliver(enclave, &session.seal(&manifest.to_bytes()))
        .expect("manifest");
    for (index, chunk) in image.chunks(PAGE_SIZE).enumerate() {
        let page = PagePayload {
            index,
            data: chunk.to_vec(),
        };
        provider
            .deliver(enclave, &session.seal(&page.to_bytes()))
            .expect("page");
    }
    let err = provider.inspect_and_provision(enclave).unwrap_err();
    assert!(matches!(err, EngardeError::Protocol { .. }), "got {err}");
    assert!(provider.signed_verdict(enclave).is_none());
    let stats = lock_cache(&cache).stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
}
