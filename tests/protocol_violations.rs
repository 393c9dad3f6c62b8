//! Protocol-order and framing violations: every out-of-order or
//! malformed interaction must fail closed.

use engarde::client::Client;
use engarde::loader::LoaderConfig;
use engarde::policy::{IfccPolicy, PolicyModule, WxSegments};
use engarde::protocol::{ContentManifest, PageKind, PagePayload};
use engarde::provider::CloudProvider;
use engarde::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::MachineConfig;
use engarde::workloads::generator::{generate, WorkloadSpec};
use engarde::EngardeError;

fn policies() -> Vec<Box<dyn PolicyModule>> {
    vec![Box::new(IfccPolicy::new())]
}

fn spec() -> BootstrapSpec {
    BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &policies(),
        128,
        512,
    )
}

fn provider(seed: u64) -> CloudProvider {
    CloudProvider::new(MachineConfig {
        epc_pages: 1_024,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    })
}

fn binary() -> Vec<u8> {
    generate(&WorkloadSpec {
        target_instructions: 6_000,
        ..WorkloadSpec::default()
    })
    .image
}

#[test]
fn content_before_channel_is_refused() {
    let mut p = provider(1);
    let id = p
        .create_engarde_enclave(spec(), policies())
        .expect("create");
    // Craft a syntactically-valid sealed block with a random key — the
    // enclave has no session yet.
    let fake = engarde::crypto::channel::SealedBlock {
        sequence: 0,
        ciphertext: vec![1, 2, 3],
        tag: [0; 32],
    };
    let err = p.deliver(id, &fake).unwrap_err();
    assert!(matches!(err, EngardeError::Protocol { .. }));
}

#[test]
fn client_refuses_channel_before_attestation() {
    let p = provider(2);
    let mut c = Client::new(
        binary(),
        &spec(),
        DEFAULT_ENCLAVE_BASE,
        p.device_public_key(),
        22,
    );
    // No challenge/verify yet.
    let some_key = p.device_public_key();
    let err = c.establish_channel(&some_key).unwrap_err();
    assert!(matches!(err, EngardeError::Protocol { .. }));
    let err = c.content_blocks().unwrap_err();
    assert!(matches!(err, EngardeError::Protocol { .. }));
}

#[test]
fn inspect_before_any_content_is_refused() {
    let mut p = provider(3);
    let id = p
        .create_engarde_enclave(spec(), policies())
        .expect("create");
    let err = p.inspect_and_provision(id).unwrap_err();
    assert!(matches!(err, EngardeError::Protocol { .. }));

    // Mid-transfer: the manifest and one page are in, the rest are not.
    let mut c = Client::new(
        binary(),
        &spec(),
        DEFAULT_ENCLAVE_BASE,
        p.device_public_key(),
        33,
    );
    let nonce = c.challenge();
    let quote = p.attest(id, nonce).expect("attest");
    let key = p.enclave_public_key(id).expect("key");
    c.verify_quote(&quote, &key).expect("quote");
    let wrapped = c.establish_channel(&key).expect("channel");
    p.open_channel(id, &wrapped).expect("open");
    let blocks = c.content_blocks().expect("blocks");
    assert!(blocks.len() > 2);
    for block in &blocks[..2] {
        p.deliver(id, block).expect("deliver");
    }
    assert!(!p.content_complete(id).expect("session"));
    let err = p.inspect_and_provision(id).unwrap_err();
    assert!(matches!(err, EngardeError::Protocol { .. }));
}

#[test]
fn unknown_enclave_ids_are_refused_everywhere() {
    let mut p = provider(4);
    assert!(p.attest(99, [0; 32]).is_err());
    assert!(p.enclave_public_key(99).is_err());
    assert!(p.open_channel(99, b"xx").is_err());
    assert!(p.inspect_and_provision(99).is_err());
    assert!(p.signed_verdict(99).is_none());
}

#[test]
fn page_index_out_of_range_is_refused() {
    let mut p = provider(5);
    let id = p
        .create_engarde_enclave(spec(), policies())
        .expect("create");
    let mut c = Client::new(
        binary(),
        &spec(),
        DEFAULT_ENCLAVE_BASE,
        p.device_public_key(),
        55,
    );
    let nonce = c.challenge();
    let quote = p.attest(id, nonce).expect("attest");
    let key = p.enclave_public_key(id).expect("key");
    c.verify_quote(&quote, &key).expect("quote");
    let wrapped = c.establish_channel(&key).expect("channel");
    p.open_channel(id, &wrapped).expect("open");

    // Hand-seal a manifest and a page with a bogus index through a
    // parallel session (same key material is inaccessible, so reuse the
    // client's legit block stream but resequence the page payload).
    let blocks = c.content_blocks().expect("blocks");
    p.deliver(id, &blocks[0]).expect("manifest");
    // blocks[1] is page 0; craft a *new* client to build a bad payload
    // is impossible without the session key — instead deliver a legit
    // block for page 0 twice is a sequence error:
    let err = p.deliver(id, &blocks[2]).unwrap_err(); // skipped seq 1
    assert!(matches!(
        err,
        EngardeError::Crypto(engarde::crypto::CryptoError::SequenceMismatch { .. })
    ));
}

#[test]
fn manifest_total_len_must_match_pages() {
    // Direct protocol-type checks (unit-level, no enclave needed).
    let m = ContentManifest {
        total_len: 4096 * 3,
        page_kinds: vec![PageKind::Data; 2],
    };
    assert!(ContentManifest::from_bytes(&m.to_bytes()).is_err());

    let p = PagePayload {
        index: 0,
        data: vec![],
    };
    assert!(PagePayload::from_bytes(&p.to_bytes()).is_err());
}

/// Opens a raw channel to `id` with a hand-rolled client session, so
/// tests can seal arbitrary (hostile) protocol messages.
fn hand_session(
    p: &mut CloudProvider,
    id: engarde::sgx::machine::EnclaveId,
    seed: u64,
) -> engarde::crypto::channel::Session {
    use engarde::crypto::channel::ChannelClient;
    use engarde::rand::{SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let key = p.enclave_public_key(id).expect("enclave key");
    let (wrapped, session) = ChannelClient::establish(&mut rng, &key).expect("establish");
    p.open_channel(id, &wrapped).expect("open channel");
    session
}

fn two_page_manifest() -> ContentManifest {
    ContentManifest {
        total_len: 4096 * 2,
        page_kinds: vec![PageKind::Code, PageKind::Data],
    }
}

#[test]
fn duplicate_page_delivery_is_a_typed_replay_error() {
    let mut p = provider(8);
    let id = p
        .create_engarde_enclave(spec(), policies())
        .expect("create");
    let mut session = hand_session(&mut p, id, 0xD0_B0);
    p.deliver(id, &session.seal(&two_page_manifest().to_bytes()))
        .expect("manifest");
    let page = PagePayload {
        index: 0,
        data: vec![0x90; 4096],
    };
    p.deliver(id, &session.seal(&page.to_bytes()))
        .expect("first copy of page 0");
    // Replaying the same page index (fresh sequence number, so the
    // channel layer accepts it) must fail closed with the typed error —
    // a hostile provider could otherwise swap page contents mid-stream.
    let err = p.deliver(id, &session.seal(&page.to_bytes())).unwrap_err();
    assert!(
        matches!(err, EngardeError::DuplicatePage { index: 0 }),
        "got {err}"
    );
}

#[test]
fn out_of_manifest_page_index_is_a_typed_error() {
    let mut p = provider(9);
    let id = p
        .create_engarde_enclave(spec(), policies())
        .expect("create");
    let mut session = hand_session(&mut p, id, 0xBAD1);
    p.deliver(id, &session.seal(&two_page_manifest().to_bytes()))
        .expect("manifest");
    // The manifest declared 2 pages; index 5 is outside it and must be
    // refused before any buffer is touched.
    let payload = PagePayload {
        index: 5,
        data: vec![0xCC; 4096],
    };
    let err = p
        .deliver(id, &session.seal(&payload.to_bytes()))
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngardeError::PageIndexOutOfRange { index: 5, pages: 2 }
        ),
        "got {err}"
    );
}

#[test]
fn double_provisioning_the_same_enclave_is_refused() {
    let mut p = provider(6);
    let id = p
        .create_engarde_enclave(spec(), policies())
        .expect("create");
    let mut c = Client::new(
        binary(),
        &spec(),
        DEFAULT_ENCLAVE_BASE,
        p.device_public_key(),
        66,
    );
    let nonce = c.challenge();
    let quote = p.attest(id, nonce).expect("attest");
    let key = p.enclave_public_key(id).expect("key");
    c.verify_quote(&quote, &key).expect("quote");
    let wrapped = c.establish_channel(&key).expect("channel");
    p.open_channel(id, &wrapped).expect("open");
    for b in c.content_blocks().expect("blocks") {
        p.deliver(id, &b).expect("deliver");
    }
    let view = p.inspect_and_provision(id).expect("first inspection");
    assert!(view.compliant);
    // Second inspection attempt: the enclave is locked; mapping into it
    // again must fail (pages are sealed RX/RW now).
    let err = p.inspect_and_provision(id).unwrap_err();
    assert!(
        matches!(err, EngardeError::Sgx(_) | EngardeError::Protocol { .. }),
        "got {err}"
    );
}

#[test]
fn a_second_inspection_of_a_session_is_a_protocol_error() {
    // The first inspection takes the session's content, whatever it
    // judges; a second must fail typed, never judge empty content. Under
    // the W^X policy the generated binary passes and the W|X fixture is
    // a signed rejection.
    let policies = || -> Vec<Box<dyn PolicyModule>> { vec![Box::new(WxSegments::new())] };
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &policies(),
        128,
        512,
    );
    let rejected = engarde::workloads::adversarial::wx_segment().image;
    for (seed, image, compliant) in [(8, binary(), true), (9, rejected, false)] {
        let mut p = provider(seed);
        let id = p
            .create_engarde_enclave(spec.clone(), policies())
            .expect("create");
        let mut c = Client::new(
            image,
            &spec,
            DEFAULT_ENCLAVE_BASE,
            p.device_public_key(),
            seed,
        );
        let nonce = c.challenge();
        let quote = p.attest(id, nonce).expect("attest");
        let key = p.enclave_public_key(id).expect("key");
        c.verify_quote(&quote, &key).expect("quote");
        let wrapped = c.establish_channel(&key).expect("channel");
        p.open_channel(id, &wrapped).expect("open");
        let blocks = c.content_blocks().expect("blocks");
        for b in &blocks {
            p.deliver(id, b).expect("deliver");
        }
        let view = p.inspect_and_provision(id).expect("first inspection");
        assert_eq!(view.compliant, compliant);
        let first = p.signed_verdict(id).expect("verdict").clone();
        assert!(!p.content_complete(id).expect("session"));

        let err = p.inspect_and_provision(id).unwrap_err();
        assert!(
            matches!(&err, EngardeError::Protocol { what } if what == "content already inspected"),
            "got {err}"
        );
        // Sealing the content again cannot open a second judgement
        // either: the fresh manifest block is refused unopened, so it
        // costs the machine no decryption cycles.
        let again = c.content_blocks().expect("blocks");
        let cycles = p.host().machine().counter().total_cycles();
        let err = p.deliver(id, &again[0]).unwrap_err();
        assert!(
            matches!(&err, EngardeError::Protocol { what } if what == "content after inspection"),
            "got {err}"
        );
        assert_eq!(p.host().machine().counter().total_cycles(), cycles);
        assert_eq!(p.signed_verdict(id), Some(&first));
    }
}

#[test]
fn verdict_for_different_content_is_detected() {
    let mut p = provider(7);
    let id = p
        .create_engarde_enclave(spec(), policies())
        .expect("create");
    let mut c = Client::new(
        binary(),
        &spec(),
        DEFAULT_ENCLAVE_BASE,
        p.device_public_key(),
        77,
    );
    let nonce = c.challenge();
    let quote = p.attest(id, nonce).expect("attest");
    let key = p.enclave_public_key(id).expect("key");
    c.verify_quote(&quote, &key).expect("quote");
    let wrapped = c.establish_channel(&key).expect("channel");
    p.open_channel(id, &wrapped).expect("open");
    for b in c.content_blocks().expect("blocks") {
        p.deliver(id, &b).expect("deliver");
    }
    p.inspect_and_provision(id).expect("inspect");
    let verdict = p.signed_verdict(id).expect("verdict").clone();

    // A different client (different binary) is shown the same verdict:
    // content digest mismatch.
    let mut spec2 = WorkloadSpec {
        target_instructions: 6_000,
        ..WorkloadSpec::default()
    };
    spec2.seed ^= 1;
    let other = Client::new(
        generate(&spec2).image,
        &spec(),
        DEFAULT_ENCLAVE_BASE,
        p.device_public_key(),
        78,
    );
    let err = other.verify_verdict(&verdict, &key).unwrap_err();
    assert!(matches!(err, EngardeError::Protocol { .. }));
}
