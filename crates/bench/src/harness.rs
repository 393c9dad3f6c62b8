//! What the `bench_*` binaries share: one command-line flag parser, the
//! fleet they measure on and the runner that drives it, the model-time
//! rate they report, and their JSON output.

use engarde_serve::metrics::Json;
use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde_serve::{ServeError, SessionRequest};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::MachineConfig;
use engarde_sgx::perf::CLOCK_GHZ;
use std::str::FromStr;

/// A bench binary's command line: `--flag value` pairs and bare
/// `--switch`es. The binary reads each flag it knows, then calls
/// [`Flags::finish`], which refuses whatever is left.
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// The process's own arguments.
    pub fn from_env() -> Self {
        Flags::parse(std::env::args().skip(1))
    }

    /// Splits `args`: a flag takes the next token as its value unless
    /// that token is itself a `--flag`.
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut args = args.into_iter().peekable();
        let mut flags = Vec::new();
        while let Some(flag) = args.next() {
            let value = args.next_if(|v| !v.starts_with("--"));
            flags.push((flag, value));
        }
        Flags(flags)
    }

    /// Removes every occurrence of `name`, returning the last one's value
    /// (`Some(None)` for a bare switch).
    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let mut last = None;
        self.0.retain(|(flag, value)| {
            let hit = flag == name;
            if hit {
                last = Some(value.clone());
            }
            !hit
        });
        last
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// If the flag has no value or the value does not parse.
    pub fn get<T: FromStr>(&mut self, name: &str, default: T) -> T {
        self.opt(name).unwrap_or(default)
    }

    /// The value of `--name` parsed as `T`, or `None` when absent.
    ///
    /// # Panics
    ///
    /// If the flag has no value or the value does not parse.
    pub fn opt<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let value = self.take(name)?;
        let value = value.unwrap_or_else(|| panic!("{name} needs a value"));
        Some(parse_value(name, &value))
    }

    /// The comma-separated values of `--name`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// If the flag has no value or an element does not parse.
    pub fn list<T: FromStr>(&mut self, name: &str, default: Vec<T>) -> Vec<T> {
        self.opt::<String>(name).map_or(default, |v| {
            v.split(',').map(|s| parse_value(name, s.trim())).collect()
        })
    }

    /// Whether the bare switch `--name` was given.
    ///
    /// # Panics
    ///
    /// If the switch was given a value.
    pub fn switch(&mut self, name: &str) -> bool {
        match self.take(name) {
            Some(Some(value)) => panic!("{name} takes no value, got {value}"),
            given => given.is_some(),
        }
    }

    /// Ends parsing.
    ///
    /// # Panics
    ///
    /// On any flag the binary did not read.
    pub fn finish(self) {
        if let Some((flag, _)) = self.0.first() {
            panic!("unknown flag {flag}");
        }
    }
}

fn parse_value<T: FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("{name}: cannot parse {value:?}"))
}

/// The SGX machine every serve-fleet bench runs on: 8,192 EPC pages,
/// SGX2, 512-bit device key.
pub fn fleet_machine(seed: u64) -> MachineConfig {
    MachineConfig {
        epc_pages: 8_192,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    }
}

/// The fleet every serve bench starts from: virtual time with one
/// arrival every `arrival_gap` model cycles, [`fleet_machine`]`(seed)`,
/// an admission queue of `queue_capacity`, the default run config and
/// stealing on, with no cache, store, faults or batching. A bench
/// changes what it measures by struct update.
pub fn fleet_config(seed: u64, arrival_gap: u64, queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        mode: SchedMode::VirtualTime { arrival_gap },
        machine: fleet_machine(seed),
        queue_capacity,
        ..ServiceConfig::default()
    }
}

/// Starts a service on `cfg`, submits every request, and drains it.
/// Returns the result and how many submissions admission refused
/// `Busy`.
///
/// # Panics
///
/// On any other submission error.
pub fn run_fleet(
    cfg: ServiceConfig,
    requests: impl IntoIterator<Item = SessionRequest>,
) -> (ServiceResult, u64) {
    let mut svc = ProvisioningService::start(cfg);
    let mut busy = 0;
    for req in requests {
        let name = req.name.clone();
        match svc.submit(req) {
            Ok(()) => {}
            Err(ServeError::Busy { .. }) => busy += 1,
            Err(e) => panic!("submit {name}: {e}"),
        }
    }
    (svc.drain(), busy)
}

/// `count` events per second of model time, over `cycles` model cycles
/// (at least one) at [`CLOCK_GHZ`].
pub fn per_model_second(count: u64, cycles: u64) -> f64 {
    let model_seconds = cycles.max(1) as f64 / (CLOCK_GHZ * 1e9);
    count as f64 / model_seconds
}

/// Writes a bench's JSON document to `path` and says so on stderr.
///
/// # Panics
///
/// If the file cannot be written.
pub fn write_json(path: &str, doc: &Json) {
    std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn values_switches_lists_and_defaults() {
        let mut f = flags(&[
            "--sessions",
            "6",
            "--skip",
            "--shards",
            "1, 2",
            "--out",
            "x.json",
        ]);
        assert_eq!(f.get("--sessions", 24usize), 6);
        assert_eq!(f.get("--seed", 7u64), 7);
        assert!(f.switch("--skip"));
        assert!(!f.switch("--other"));
        assert_eq!(f.list("--shards", vec![4usize]), vec![1, 2]);
        assert_eq!(f.opt::<String>("--out").as_deref(), Some("x.json"));
        f.finish();
    }

    #[test]
    fn the_last_occurrence_wins() {
        let mut f = flags(&["--seed", "1", "--seed", "2"]);
        assert_eq!(f.get("--seed", 0u64), 2);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "unknown flag --bogus")]
    fn unread_flags_are_refused() {
        let mut f = flags(&["--seed", "1", "--bogus", "2"]);
        f.get("--seed", 0u64);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "--seed needs a value")]
    fn a_flag_without_its_value_is_refused() {
        flags(&["--seed", "--out", "x"]).get("--seed", 0u64);
    }

    #[test]
    #[should_panic(expected = "--seed: cannot parse")]
    fn a_value_that_does_not_parse_is_refused() {
        flags(&["--seed", "x"]).get("--seed", 0u64);
    }
}
