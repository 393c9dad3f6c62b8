//! `engarde-perfbench`: one workload per process, or the steadiness
//! mode that runs every workload repeatedly. See `perfbench/BENCHMARK.md`.

use engarde_perfbench::run::{self, RunArgs};
use engarde_perfbench::sessions::Workload;
use engarde_perfbench::stats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: engarde-perfbench --workload <paper-cold|paper-warm|keys-1024> \
--seed <n> --seconds <s> --trace <0|1>\n       engarde-perfbench --steadiness <rounds> \
[--seconds <s>] [--first-seed <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_flags(&args) {
        Ok(flags) if flags.contains_key("steadiness") => steadiness(&flags),
        Ok(flags) => single(&flags),
        Err(e) => Err(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        if !matches!(
            name,
            "workload" | "seed" | "seconds" | "trace" | "steadiness" | "first-seed"
        ) {
            return Err(format!("unknown flag {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name}: not a number: {v}"))
        })
        .transpose()
}

fn seconds(flags: &BTreeMap<String, String>) -> Result<f64, String> {
    match number::<f64>(flags, "seconds")? {
        Some(s) if s > 0.0 && s.is_finite() => Ok(s),
        Some(s) => Err(format!("--seconds must be positive, got {s}")),
        None => Err("--seconds is required".into()),
    }
}

fn single(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let args = RunArgs {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: number(flags, "seed")?.ok_or("--seed is required")?,
        seconds: seconds(flags)?,
        trace: match flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    let out = run::run(&args)?;
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", out.to_json());
    Ok(())
}

/// Runs every workload `rounds` times, alternating the order each round
/// and giving each round its own seed, then prints each end-to-end
/// metric's median, quartiles and spread (interquartile range over
/// median) per workload. Fails if any run fails or is incorrect, or if a
/// warm run's verdict fingerprint differs from the cold run's on the
/// same seed.
fn steadiness(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let rounds: usize = number(flags, "steadiness")?.unwrap_or(0);
    let secs = seconds(flags)?;
    let first_seed: u64 = number(flags, "first-seed")?.unwrap_or(1);
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut verdicts: BTreeMap<(u64, &str), String> = BTreeMap::new();
    for round in 0..rounds {
        let seed = first_seed + round as u64;
        let mut order = Workload::ALL;
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &secs.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() || !last.contains("\"correct\": true") {
                return Err(format!(
                    "{} seed {seed} failed:\n{stdout}{}",
                    w.name(),
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            for line in stdout.lines() {
                if let Some(fp) = line.strip_prefix("# verdict_fingerprint lap0 ") {
                    let class = if w == Workload::Keys1024 {
                        "keys"
                    } else {
                        "paper"
                    };
                    if let Some(prev) = verdicts.insert((seed, class), fp.to_owned()) {
                        if prev != fp {
                            return Err(format!(
                                "seed {seed}: verdict fingerprints differ between paper-cold and paper-warm ({prev} vs {fp})"
                            ));
                        }
                    }
                }
            }
            for (name, value) in parse_metrics(last) {
                values.entry((w.name(), name)).or_default().push(value);
            }
            for line in stdout.lines() {
                println!("# round {round} {} seed {seed}: {line}", w.name());
            }
        }
    }
    println!(
        "workload     metric                    median        q1            q3            spread"
    );
    for ((w, name), v) in &values {
        let q = stats::quartiles(v).unwrap_or([0.0; 3]);
        let spread = if q[1] == 0.0 {
            0.0
        } else {
            (q[2] - q[0]) / q[1].abs()
        };
        println!(
            "{w:<12} {name:<25} {:<13.6} {:<13.6} {:<13.6} {:.4}",
            stats::median(v).unwrap_or(0.0),
            q[0],
            q[2],
            spread
        );
    }
    Ok(())
}

/// `(name, value)` pairs of a result line's metrics.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(body) = line.split("\"metrics\": {").nth(1) else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}
