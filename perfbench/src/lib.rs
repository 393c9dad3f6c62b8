//! Wall-clock benchmark of the EnGarde provisioning service.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <paper-cold|paper-warm|keys-1024> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as its last line, one
//! JSON object with the run's correctness tally and metrics: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced pass with `--trace 1`. `--steadiness <rounds>` runs every
//! workload that many times in alternating order and prints the median
//! and quartiles of each end-to-end metric. Times are reported at a
//! fixed reference host speed, calibrated on the measuring thread
//! between calls (see [`calib`]). `perfbench/BENCHMARK.md` describes
//! the workloads, the load shape, the calibration and the layer map.

pub mod calib;
pub mod fleet;
pub mod run;
pub mod sessions;
pub mod stats;
pub mod trace;
