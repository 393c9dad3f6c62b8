//! Golden values for RSA key generation and signing.
//!
//! `tests/determinism.rs` compares two runs of the same build, so it
//! cannot notice a change to the arithmetic itself. These digests were
//! recorded from the square-and-multiply implementation that predates
//! the Montgomery core: any change to modular exponentiation, the
//! Miller–Rabin witness stream or the trial-division sieve that moves
//! a single key bit fails here.

use engarde::crypto::rsa::RsaKeyPair;
use engarde::crypto::sha256::Sha256;
use engarde::rand::{SeedableRng, StdRng};
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
        "588cbd4e4899d556f496c0c39ddf2d1c897a8f23ae503cf5d4393af01bade37a"
    );
}

#[test]
fn rsa_1024_modulus_is_pinned() {
    let kp = keypair(0x1024, 1024);
    assert_eq!(
        digest(&kp.public().modulus_be()),
        "ec58260da02b987fc0c3a8c2f4c10c37b8ea1d14998ea65dbd8436b49e4a7b78"
    );
}

#[test]
fn rsa_signatures_are_pinned() {
    let msg = b"EnGarde verdict: compliant";
    let sig512 = keypair(0x5EED, 512).sign(msg).expect("sign");
    assert_eq!(
        digest(&sig512),
        "b86fbbee04bde6663f037564982a663cbfec9f511a7014a73ff6c6fb119efdfc"
    );
    let sig1024 = keypair(0x1024, 1024).sign(msg).expect("sign");
    assert_eq!(
        digest(&sig1024),
        "214eda81e9e5d92dab5daf9d24223d4766c19d8b07ca9031183eb4cf06bed005"
    );
}

#[test]
fn default_machine_device_key_is_pinned() {
    let machine = SgxMachine::new(MachineConfig::default());
    let device = machine.device_key().public();
    assert_eq!(device.modulus_bits(), 1024);
    assert_eq!(
        digest(&device.modulus_be()),
        "60789c4617a2187bd8426ea6f5208b0ec0d6d93c024e1ae15cdb7cb8da364c59"
    );
}
