//! Golden values for RSA key generation and signing.
//!
//! `tests/determinism.rs` compares two runs of the same build, so it
//! cannot notice a change to the arithmetic itself. These digests pin
//! seeded keys whose primes have their top two bits set, each key built
//! from the first prime pair its generator draws: two moduli (512 and
//! 1024 bits), a signature under each, the default machine's 1024-bit
//! device key, and 33 swept moduli with the word each generator yields
//! next. Any change to the candidate shape, modular exponentiation, the
//! Miller–Rabin witness stream or the trial-division sieve that moves a
//! single key bit, or the stream position after keygen, fails here.

use engarde::crypto::rsa::RsaKeyPair;
use engarde::crypto::sha256::Sha256;
use engarde::rand::{RngCore, SeedableRng, StdRng};
use engarde::sgx::machine::{MachineConfig, SgxMachine};

fn digest(bytes: &[u8]) -> String {
    Sha256::digest(bytes).to_hex()
}

fn keypair(seed: u64, bits: usize) -> RsaKeyPair {
    RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits)
}

#[test]
fn rsa_512_modulus_is_pinned() {
    let kp = keypair(0x5EED, 512);
    assert_eq!(
        digest(&kp.public().modulus_be()),
        "ba915bff065dfe2801eb3e01fefa64f50e4da5b632eb8b6d9b0dc2548c51655f"
    );
}

#[test]
fn rsa_1024_modulus_is_pinned() {
    let kp = keypair(0x1024, 1024);
    assert_eq!(
        digest(&kp.public().modulus_be()),
        "5a682d0835da1c0c67535e1c808667ac19bd099fac4d44899699bd4072924548"
    );
}

#[test]
fn rsa_signatures_are_pinned() {
    let msg = b"EnGarde verdict: compliant";
    let sig512 = keypair(0x5EED, 512).sign(msg).expect("sign");
    assert_eq!(
        digest(&sig512),
        "6a2f6cba7d8f8839d4dc1eee6ac8a5ae578c0f9e6bebec485451fbfe4d62bed6"
    );
    let sig1024 = keypair(0x1024, 1024).sign(msg).expect("sign");
    assert_eq!(
        digest(&sig1024),
        "9c75f808896aedc20169e249de3558c59eb97cd576eaa534c0d071dfabc571c8"
    );
}

#[test]
fn default_machine_device_key_is_pinned() {
    let machine = SgxMachine::new(MachineConfig::default());
    let device = machine.device_key().public();
    assert_eq!(device.modulus_bits(), 1024);
    assert_eq!(
        digest(&device.modulus_be()),
        "de72ea7b22c3396210e7f81470d2ab75f70fe8b64a15ec4eb0290204cfe462b0"
    );
}

/// One digest over many seeded keys and over where each generator's
/// stream stands afterwards. A prime test that answers the same but
/// draws a different number of witness words still moves the next
/// word, so this catches a shifted stream even before it moves a key.
#[test]
fn rsa_seed_sweep_and_stream_position_are_pinned() {
    let mut h = Sha256::new();
    for (bits, seeds) in [(512, 0..25u64), (1024, 0..8u64)] {
        for seed in seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let kp = RsaKeyPair::generate(&mut rng, bits);
            h.update(&kp.public().modulus_be());
            h.update(&rng.next_u64().to_le_bytes());
        }
    }
    assert_eq!(
        h.finalize().to_hex(),
        "6d1b8ae359eb865b247bc331cf09cd83ee05346b813a67e0650f7219d5d2495a"
    );
}
