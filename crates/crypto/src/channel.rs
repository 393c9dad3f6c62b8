//! The paper's provisioning channel (§3, "Overall Design").
//!
//! The freshly-created enclave generates a 2048-bit RSA key pair and sends
//! the public key to the client; the client wraps a 256-bit AES key under
//! it and sends the wrapped key back; the client's enclave content then
//! flows over the resulting end-to-end encrypted channel in blocks.
//!
//! On top of the paper's sketch this module adds what any real deployment
//! needs: per-message authentication (encrypt-then-MAC with HMAC-SHA256),
//! per-direction sequence numbers (replay/reorder protection), and key
//! separation between the two directions.
//!
//! # Examples
//!
//! ```
//! use engarde_crypto::channel::{ChannelServer, ChannelClient};
//! use engarde_crypto::rsa::RsaKeyPair;
//! use engarde_rand::SeedableRng;
//!
//! # fn main() -> Result<(), engarde_crypto::CryptoError> {
//! let mut rng = engarde_rand::StdRng::seed_from_u64(7);
//! // Enclave side: generate the key pair (2048-bit in production).
//! let keypair = RsaKeyPair::generate(&mut rng, 512);
//! let server = ChannelServer::new(keypair);
//!
//! // Client side: wrap a fresh AES-256 key under the enclave public key.
//! let (wrapped, mut client) = ChannelClient::establish(&mut rng, server.public_key())?;
//!
//! // Enclave side: unwrap and open the session.
//! let mut session = server.accept(&wrapped)?;
//!
//! let block = client.seal(b"first page of enclave content");
//! assert_eq!(session.open(&block)?, b"first page of enclave content");
//! # Ok(())
//! # }
//! ```

use crate::aes::{ctr_xor, AesKey};
use crate::hmac::{constant_time_eq, hmac_sha256, HmacSha256};
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::CryptoError;
use engarde_rand::Rng;

/// An authenticated, encrypted message travelling over the channel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedBlock {
    /// Direction-local sequence number (starts at 0).
    pub sequence: u64,
    /// AES-256-CTR ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA256 over direction label, sequence, and ciphertext.
    pub tag: [u8; 32],
}

impl SealedBlock {
    /// Serialises the block to bytes (length-prefixed wire format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + self.ciphertext.len() + 32);
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&(self.ciphertext.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.ciphertext);
        out.extend_from_slice(&self.tag);
        out
    }

    /// Parses a block from bytes produced by [`SealedBlock::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedMessage`] on truncated or
    /// inconsistent input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (sequence, rest) = bytes
            .split_first_chunk::<8>()
            .ok_or(CryptoError::MalformedMessage)?;
        let (len, rest) = rest
            .split_first_chunk::<4>()
            .ok_or(CryptoError::MalformedMessage)?;
        let (ciphertext, tag) = rest
            .split_last_chunk::<32>()
            .ok_or(CryptoError::MalformedMessage)?;
        if ciphertext.len() != u32::from_be_bytes(*len) as usize {
            return Err(CryptoError::MalformedMessage);
        }
        Ok(SealedBlock {
            sequence: u64::from_be_bytes(*sequence),
            ciphertext: ciphertext.to_vec(),
            tag: *tag,
        })
    }
}

/// Direction of a message, mixed into keys and MACs so the two directions
/// can never be confused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    ClientToEnclave,
    EnclaveToClient,
}

impl Direction {
    fn label(self) -> &'static [u8] {
        match self {
            Direction::ClientToEnclave => b"c2e",
            Direction::EnclaveToClient => b"e2c",
        }
    }
}

/// Keys for one direction of the duplex channel.
#[derive(Clone)]
struct DirectionKeys {
    enc: AesKey,
    mac: [u8; 32],
    nonce_seed: [u8; 32],
}

impl DirectionKeys {
    fn derive(master: &[u8; 32], dir: Direction) -> Self {
        let enc_key = hmac_sha256(master, &[dir.label(), b"/enc"].concat());
        let mac_key = hmac_sha256(master, &[dir.label(), b"/mac"].concat());
        let nonce_seed = hmac_sha256(master, &[dir.label(), b"/nonce"].concat());
        DirectionKeys {
            enc: AesKey::new_256(enc_key.as_bytes()),
            mac: *mac_key.as_bytes(),
            nonce_seed: *nonce_seed.as_bytes(),
        }
    }

    fn nonce_for(&self, sequence: u64) -> [u8; 16] {
        let d = hmac_sha256(&self.nonce_seed, &sequence.to_be_bytes());
        let mut nonce = [0u8; 16];
        nonce.copy_from_slice(&d.as_bytes()[..16]);
        nonce
    }

    fn tag_for(&self, dir: Direction, sequence: u64, ciphertext: &[u8]) -> [u8; 32] {
        let mut mac = HmacSha256::new(&self.mac);
        mac.update(dir.label());
        mac.update(&sequence.to_be_bytes());
        mac.update(ciphertext);
        *mac.finalize().as_bytes()
    }
}

/// One endpoint's live session state (both directions).
#[derive(Clone)]
pub struct Session {
    send_dir: Direction,
    send_keys: DirectionKeys,
    recv_keys: DirectionKeys,
    next_send: u64,
    next_recv: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Session(sent={}, received={})",
            self.next_send, self.next_recv
        )
    }
}

impl Session {
    fn new(master: &[u8; 32], send_dir: Direction) -> Self {
        let recv_dir = match send_dir {
            Direction::ClientToEnclave => Direction::EnclaveToClient,
            Direction::EnclaveToClient => Direction::ClientToEnclave,
        };
        Session {
            send_dir,
            send_keys: DirectionKeys::derive(master, send_dir),
            recv_keys: DirectionKeys::derive(master, recv_dir),
            next_send: 0,
            next_recv: 0,
        }
    }

    /// Encrypts and authenticates `plaintext` as the next outgoing block.
    pub fn seal(&mut self, plaintext: &[u8]) -> SealedBlock {
        let sequence = self.next_send;
        self.next_send += 1;
        let mut ciphertext = plaintext.to_vec();
        let nonce = self.send_keys.nonce_for(sequence);
        ctr_xor(&self.send_keys.enc, &nonce, 0, &mut ciphertext);
        let tag = self.send_keys.tag_for(self.send_dir, sequence, &ciphertext);
        SealedBlock {
            sequence,
            ciphertext,
            tag,
        }
    }

    /// Verifies and decrypts the next incoming block.
    ///
    /// # Errors
    ///
    /// - [`CryptoError::SequenceMismatch`] if the block is replayed,
    ///   reordered, or dropped.
    /// - [`CryptoError::AuthenticationFailed`] if the MAC does not verify.
    pub fn open(&mut self, block: &SealedBlock) -> Result<Vec<u8>, CryptoError> {
        if block.sequence != self.next_recv {
            return Err(CryptoError::SequenceMismatch {
                expected: self.next_recv,
                got: block.sequence,
            });
        }
        let recv_dir = match self.send_dir {
            Direction::ClientToEnclave => Direction::EnclaveToClient,
            Direction::EnclaveToClient => Direction::ClientToEnclave,
        };
        let expected = self
            .recv_keys
            .tag_for(recv_dir, block.sequence, &block.ciphertext);
        if !constant_time_eq(&expected, &block.tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        self.next_recv += 1;
        let mut plaintext = block.ciphertext.clone();
        let nonce = self.recv_keys.nonce_for(block.sequence);
        ctr_xor(&self.recv_keys.enc, &nonce, 0, &mut plaintext);
        Ok(plaintext)
    }

    /// Number of blocks sealed so far.
    pub fn sent(&self) -> u64 {
        self.next_send
    }

    /// Number of blocks opened so far.
    pub fn received(&self) -> u64 {
        self.next_recv
    }
}

/// Enclave-side endpoint: owns the RSA key pair, accepts a wrapped
/// session key.
#[derive(Debug)]
pub struct ChannelServer {
    keypair: RsaKeyPair,
}

impl ChannelServer {
    /// Creates the server from the enclave's freshly-generated key pair.
    pub fn new(keypair: RsaKeyPair) -> Self {
        ChannelServer { keypair }
    }

    /// The public key to advertise to the client (also bound into the
    /// attestation quote by `engarde-sgx`).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// Unwraps the client's wrapped AES-256 key and opens the session.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DecryptionFailed`] for malformed wrapping or
    /// [`CryptoError::MalformedMessage`] if the unwrapped key is not
    /// exactly 32 bytes.
    pub fn accept(&self, wrapped_key: &[u8]) -> Result<Session, CryptoError> {
        let key = self.keypair.decrypt(wrapped_key)?;
        let master: [u8; 32] = key
            .as_slice()
            .try_into()
            .map_err(|_| CryptoError::MalformedMessage)?;
        Ok(Session::new(&master, Direction::EnclaveToClient))
    }

    /// Signs `message` with the enclave key (used for signed verdicts).
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError::KeyTooSmall`] for undersized keys.
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.keypair.sign(message)
    }
}

/// Client-side endpoint.
#[derive(Debug)]
pub struct ChannelClient;

impl ChannelClient {
    /// Generates a fresh AES-256 session key, wraps it under the enclave
    /// public key, and returns `(wrapped_key, session)`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if the enclave key is too
    /// small to wrap a 32-byte key (modulus below 43 bytes).
    pub fn establish<R: Rng + ?Sized>(
        rng: &mut R,
        enclave_key: &RsaPublicKey,
    ) -> Result<(Vec<u8>, Session), CryptoError> {
        let mut master = [0u8; 32];
        rng.fill(&mut master);
        let wrapped = enclave_key.encrypt(rng, &master)?;
        Ok((wrapped, Session::new(&master, Direction::ClientToEnclave)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_rand::{SeedableRng, StdRng};

    fn handshake() -> (Session, Session) {
        let mut rng = StdRng::seed_from_u64(0xC4A7);
        let kp = RsaKeyPair::generate(&mut rng, 512);
        let server = ChannelServer::new(kp);
        let (wrapped, client) = ChannelClient::establish(&mut rng, server.public_key()).unwrap();
        let enclave = server.accept(&wrapped).unwrap();
        (client, enclave)
    }

    #[test]
    fn duplex_round_trip() {
        let (mut client, mut enclave) = handshake();
        let b1 = client.seal(b"page 0: code");
        assert_eq!(enclave.open(&b1).unwrap(), b"page 0: code");
        let b2 = enclave.seal(b"verdict: compliant");
        assert_eq!(client.open(&b2).unwrap(), b"verdict: compliant");
        assert_eq!(client.sent(), 1);
        assert_eq!(client.received(), 1);
    }

    #[test]
    fn many_blocks_in_order() {
        let (mut client, mut enclave) = handshake();
        for i in 0..50u32 {
            let msg = format!("block {i}");
            let b = client.seal(msg.as_bytes());
            assert_eq!(enclave.open(&b).unwrap(), msg.as_bytes());
        }
    }

    #[test]
    fn replay_rejected() {
        let (mut client, mut enclave) = handshake();
        let b = client.seal(b"once");
        enclave.open(&b).unwrap();
        let err = enclave.open(&b).unwrap_err();
        assert!(matches!(err, CryptoError::SequenceMismatch { .. }));
    }

    #[test]
    fn reorder_rejected() {
        let (mut client, mut enclave) = handshake();
        let _b0 = client.seal(b"zero");
        let b1 = client.seal(b"one");
        let err = enclave.open(&b1).unwrap_err();
        assert!(matches!(
            err,
            CryptoError::SequenceMismatch {
                expected: 0,
                got: 1
            }
        ));
    }

    #[test]
    fn tamper_rejected() {
        let (mut client, mut enclave) = handshake();
        let mut b = client.seal(b"payload");
        b.ciphertext[0] ^= 1;
        assert!(matches!(
            enclave.open(&b),
            Err(CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn tag_tamper_rejected() {
        let (mut client, mut enclave) = handshake();
        let mut b = client.seal(b"payload");
        b.tag[5] ^= 0x80;
        assert!(matches!(
            enclave.open(&b),
            Err(CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn directions_are_separated() {
        // A block sealed by the client cannot be opened by the client
        // itself (reflection attack).
        let (mut client, _enclave) = handshake();
        let b = client.seal(b"reflected");
        assert!(client.open(&b).is_err());
    }

    #[test]
    fn wire_format_round_trip() {
        let (mut client, mut enclave) = handshake();
        let b = client.seal(b"wire test");
        let bytes = b.to_bytes();
        let parsed = SealedBlock::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(enclave.open(&parsed).unwrap(), b"wire test");
    }

    #[test]
    fn wire_format_rejects_garbage() {
        assert!(SealedBlock::from_bytes(&[]).is_err());
        assert!(SealedBlock::from_bytes(&[0u8; 20]).is_err());
        let (mut client, _) = handshake();
        let mut bytes = client.seal(b"x").to_bytes();
        bytes.pop();
        assert!(SealedBlock::from_bytes(&bytes).is_err());
        bytes.extend_from_slice(&[0, 0]);
        assert!(
            SealedBlock::from_bytes(&bytes).is_err(),
            "one byte too many"
        );
        // The shortest frame carries an empty ciphertext; a length field
        // naming more bytes than follow is malformed.
        let mut empty = [0u8; 8 + 4 + 32];
        assert!(SealedBlock::from_bytes(&empty).is_ok_and(|b| b.ciphertext.is_empty()));
        empty[11] = 1;
        assert_eq!(
            SealedBlock::from_bytes(&empty),
            Err(CryptoError::MalformedMessage)
        );
    }

    #[test]
    fn wrong_wrapped_key_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = RsaKeyPair::generate(&mut rng, 512);
        let server = ChannelServer::new(kp);
        assert!(server.accept(&[0u8; 64]).is_err());
        assert!(server.accept(b"short").is_err());
    }

    #[test]
    fn distinct_sessions_have_distinct_keys() {
        let (mut c1, _) = handshake();
        let mut rng = StdRng::seed_from_u64(42);
        let kp = RsaKeyPair::generate(&mut rng, 512);
        let server = ChannelServer::new(kp);
        let (wrapped, _c2) = ChannelClient::establish(&mut rng, server.public_key()).unwrap();
        let mut e2 = server.accept(&wrapped).unwrap();
        // Block from session 1 fails to authenticate in session 2.
        let b = c1.seal(b"cross-session");
        assert!(e2.open(&b).is_err());
    }

    #[test]
    fn empty_plaintext_allowed() {
        let (mut client, mut enclave) = handshake();
        let b = client.seal(b"");
        assert_eq!(enclave.open(&b).unwrap(), b"");
    }
}
