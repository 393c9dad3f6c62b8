//! Wall-clock milliseconds per RSA key pair at 512, 1024 and 2048 bits.
//!
//! Each width generates one key from each of seeds 0..30 (0..10 at 2048
//! bits) and prints the mean time per key. Run it in release mode:
//!
//! ```sh
//! cargo run --release --offline -p engarde-crypto --example keygen_ms
//! ```

use engarde_crypto::rsa::RsaKeyPair;
use engarde_rand::{SeedableRng, StdRng};
use std::time::Instant;

fn main() {
    for (bits, seeds) in [(512, 30u64), (1024, 30), (2048, 10)] {
        let total_ms: f64 = (0..seeds)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let start = Instant::now();
                std::hint::black_box(RsaKeyPair::generate(&mut rng, bits));
                start.elapsed().as_secs_f64() * 1e3
            })
            .sum();
        println!(
            "{bits:>5} bits: {seeds:>2} keys, mean {:.2} ms",
            total_ms / seeds as f64
        );
    }
}
