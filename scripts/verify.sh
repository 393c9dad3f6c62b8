#!/usr/bin/env bash
# Hermetic verification: tier-1 (release build + full test suite) with
# the network-facing registry disabled, then an assertion that the
# dependency graph contains no registry (crates.io) packages at all —
# every crate in the workspace must resolve by path.
#
# Run from anywhere: the script cd's to the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== build + test: perfbench (its own package) =="
# perfbench/ is outside the workspace but calls the engarde-core and
# engarde-sgx pub APIs; building it here makes an API change that
# breaks the benchmark fail the gate.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== tier-1: test suite (offline) =="
# --no-fail-fast: one failing target must not hide the others' results;
# the step still exits non-zero if any test fails.
cargo test -q --offline --workspace --no-fail-fast

echo "== lint: clippy, warnings denied =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== lint: rustfmt drift =="
cargo fmt --check

echo "== smoke: bench_serve_throughput (bounded) =="
# A small bounded replay: proves the service bench runs end-to-end and
# emits the documented JSON schema. The full run (EXPERIMENTS.md) uses
# the defaults; this one is sized to finish in seconds.
smoke_out=target/BENCH_serve_smoke.json
cargo run --release --offline -q -p engarde-bench --bin bench_serve_throughput -- \
    --sessions 6 --shards 1,2 --scale 3 --capacity 64 \
    --out "$smoke_out"
jq -e '
    .deterministic == true
    and (.runs | length == 2)
    and (.runs | all(
        (.throughput_per_sec > 0)
        and (.p50_latency_cycles > 0)
        and (.p99_latency_cycles >= .p50_latency_cycles)
        and (.fingerprint | type == "string")))
    and (.runs[1].speedup_vs_min_fleet > 1)
    and (.overload.rejection_rate > 0)
    and (.skewed.deterministic == true)
    and (.skewed.runs | length == 4)
    and (.skewed.runs | all(
        (.throughput_per_sec > 0)
        and (.makespan_cycles > 0)
        and (.fingerprint | type == "string")))
    and (.skewed.speedup_steal > .skewed.speedup_pinned)
    and (.skewed.speedup_steal_batch_cache >= .skewed.speedup_steal)
    and ([.skewed.runs[] | select(.steal) | .steals] | add > 0)
    and ([.skewed.runs[] | select(.batch) | .batches] | add > 0)
    and (.threaded | type == "object")
    and (.threaded.completed > 0)
    and (.threaded.wall_throughput_per_sec > 0)
    and ([.threaded.steals, .threaded.stolen_sessions,
          .threaded.drained_from_dead, .threaded.batches,
          .threaded.batched_sessions] | all(type == "number" and . >= 0))
    and (.threaded.stolen_sessions >= .threaded.drained_from_dead)
' "$smoke_out" > /dev/null \
    || { echo "FAIL: $smoke_out missing required keys/invariants" >&2; exit 1; }
echo "OK: $smoke_out schema + invariants hold"

echo "== smoke: bench_verdict_cache (bounded) =="
# Bounded verdict-cache replay: the bench itself asserts that cached
# and uncached runs sign bit-identical verdicts and that distinct
# binaries never hit; the jq gate re-checks the exported schema.
cache_out=target/BENCH_cache_smoke.json
cargo run --release --offline -q -p engarde-bench --bin bench_verdict_cache -- \
    --sessions 6 --scale 3 --cache-capacity 16 --cross-shards 2 \
    --out "$cache_out"
jq -e '
    .verdicts_bit_identical == true
    and (.speedup_same_vs_distinct > 1)
    and (.same_binary_cached.cache_hits == .sessions - 1)
    and (.same_binary_cached.verdict_fingerprint
         == .same_binary_uncached.verdict_fingerprint)
    and (.distinct_binary_cached.cache_hits == 0)
    and (.distinct_binary_cached.cache_insertions == .sessions)
    and (.cross_shard.run.cache_hits > 0)
    and ([.same_binary_cached, .same_binary_uncached, .distinct_binary_cached]
         | all(.sessions_per_model_sec > 0 and .makespan_cycles > 0))
' "$cache_out" > /dev/null \
    || { echo "FAIL: $cache_out missing required keys/invariants" >&2; exit 1; }
echo "OK: $cache_out schema + invariants hold"

echo "== smoke: bench_fault_recovery (bounded) =="
# Bounded chaos replay: transient faults injected into a compliant
# fleet must be retried to verdicts (recovery floor 0.9), the idle
# fault layer must be bit-identical to no layer at all, and the
# per-fault lifecycle counters must balance (every injection detected,
# every detection recovered or evicted).
faults_out=target/BENCH_faults_smoke.json
cargo run --release --offline -q -p engarde-bench --bin bench_fault_recovery -- \
    --sessions 10 --scale 3 --out "$faults_out"
jq -e '
    (.recovery_rate >= 0.9)
    and (.throughput_retention > 0)
    and (.fault_free_identical == true)
    and (.faults | type == "object")
    and ([.faults[]] | all(
        (.injected >= .detected)
        and (.detected == .recovered + .evicted)))
    and ([.faults[].injected] | add > 0)
' "$faults_out" > /dev/null \
    || { echo "FAIL: $faults_out missing required keys/invariants" >&2; exit 1; }
echo "OK: $faults_out schema + invariants hold"

echo "== smoke: bench_taint_analysis (bounded) =="
# Bounded taint-engine replay: the bench itself asserts every leaking
# fixture is rejected, every compliant twin passes, and the shared
# analysis memo beats two fresh passes; the jq gate re-checks the
# exported schema and the linear-scaling/memo invariants.
taint_out=target/BENCH_analysis_smoke.json
cargo run --release --offline -q -p engarde-bench --bin bench_taint_analysis -- \
    --depths 2,4,8 --out "$taint_out"
jq -e '
    .all_fixtures_correct == true
    and (.fixtures | [.[]] | all(. == true))
    and (.scaling | length == 3)
    and (.scaling | all(
        (.taint_cycles > 0)
        and (.propagation_steps > 0)
        and (.sccs == .functions)
        and (.leaks == 0)))
    and (.memo.memo_speedup >= 1.5)
    and (.memo.shared_two_policy_cycles
         < .memo.single_leakage_cycles + .memo.single_branch_cycles)
    and (.memory_domain | type == "object")
    and (.memory_domain.spill_cells >= 1)
    and (.memory_domain.cell_steps > 0)
    and (.memory_domain.spill_chain_cycles > .memory_domain.plain_chain_cycles)
    and ([.memory_domain.weak_updates, .memory_domain.unresolved_store_sinks]
         | all(type == "number" and . >= 0))
' "$taint_out" > /dev/null \
    || { echo "FAIL: $taint_out missing required keys/invariants" >&2; exit 1; }
echo "OK: $taint_out schema + invariants hold"

echo "== smoke: bench_store_warmstart (bounded) =="
# Bounded warm-start replay: the bench itself asserts a restarted fleet
# reproduces the cold run's verdicts bit-for-bit from the sealed store,
# hydrates every record, and clears a 2x speedup floor; the jq gate
# re-checks the exported schema.
store_out=target/BENCH_store_smoke.json
cargo run --release --offline -q -p engarde-bench --bin bench_store_warmstart -- \
    --sessions 6 --scale 3 --out "$store_out"
jq -e '
    .deterministic == true
    and (.verdicts_bit_identical == true)
    and (.all_warm_hits == true)
    and (.warmstart_speedup >= 2)
    and (.cold.flushed == .sessions)
    and (.cold.hydrated == 0)
    and (.warm_restart.hydrated == .sessions)
    and (.warm_restart.warm_hits == .sessions)
    and (.warm_restart.flushed == 0)
    and (.warm_restart.verdict_fingerprint == .cold.verdict_fingerprint)
    and (.warm_restart.makespan_cycles == .warm_repeat.makespan_cycles)
    and ([.cold, .warm_restart, .warm_repeat]
         | all(.sessions_per_model_sec > 0 and .makespan_cycles > 0))
' "$store_out" > /dev/null \
    || { echo "FAIL: $store_out missing required keys/invariants" >&2; exit 1; }
echo "OK: $store_out schema + invariants hold"

echo "== gate: no unwrap/expect in hostile-input/serve non-test code =="
# The parser faces hostile bytes, the analysis/policy engines chew on
# attacker-shaped binaries, the serve path faces injected faults, and
# the store recovers arbitrarily damaged segments; every read must be
# fallible and no fault may panic a worker. Strip each file's
# #[cfg(test)] module, then refuse any unwrap()/expect( left.
panic_free_files=(
    crates/elf/src/parse.rs
    crates/core/src/cache.rs
    crates/core/src/exec.rs
    crates/core/src/analysis/*.rs
    crates/core/src/policy/*.rs
    crates/serve/src/error.rs
    crates/serve/src/faults.rs
    crates/serve/src/metrics.rs
    crates/serve/src/persist.rs
    crates/serve/src/pool.rs
    crates/serve/src/regimes.rs
    crates/serve/src/service.rs
    crates/serve/src/session.rs
    crates/serve/src/lib.rs
    crates/store/src/*.rs
)
for f in "${panic_free_files[@]}"; do
    if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
            | grep -nE '\.unwrap\(\)|\.expect\('; then
        echo "FAIL: $f non-test code calls unwrap()/expect(" >&2
        exit 1
    fi
done
echo "OK: ${#panic_free_files[@]} files of non-test code are panic-free"

echo "== hermetic: dependency graph has zero registry packages =="
# Every package with a non-null "source" came from a registry or git
# remote; a hermetic tree has none.
metadata=$(cargo metadata --offline --format-version 1)
if echo "$metadata" | grep -q '"source":"registry'; then
    echo "FAIL: registry dependencies found:" >&2
    echo "$metadata" | grep -o '"id":"[^"]*registry[^"]*"' >&2
    exit 1
fi
if echo "$metadata" | grep -q '"source":"git'; then
    echo "FAIL: git dependencies found" >&2
    exit 1
fi

echo "== gate: a bare cargo test covers every workspace member =="
# Tier-1 runs `cargo test` without --workspace, which tests only the
# default members; they must stay the whole workspace.
echo "$metadata" | jq -e \
    '(.workspace_default_members | length) == (.workspace_members | length)' > /dev/null \
    || { echo "FAIL: [workspace] default-members omits a member" >&2; exit 1; }

echo "== gate: unsafe code lives in crypto::hw alone =="
# Every workspace library root forbids unsafe code, except
# engarde-crypto: it denies it and allows it on one module, `hw`, the
# AES-NI/SHA-NI kernels behind CPU-feature tokens.
lib_roots=$(echo "$metadata" | jq -r '
    .workspace_members as $ws
    | .packages[] | select(.id as $id | $ws | index($id))
    | .name + " " + (.targets[] | select(.kind | index("lib")) | .src_path)')
while read -r name root; do
    if [ "$name" = engarde-crypto ]; then
        want='#![deny(unsafe_code)]'
    else
        want='#![forbid(unsafe_code)]'
    fi
    grep -qxF "$want" "$root" \
        || { echo "FAIL: $name ($root) lacks $want" >&2; exit 1; }
done <<< "$lib_roots"
# The one allow, with the item it covers on the next line.
allows=$(grep -rn -A1 --include='*.rs' --exclude-dir=target -F 'allow(unsafe_code)' . \
    | sed -E 's/[:-][0-9]+[:-]/ /' || true)
if [ "$allows" != "./crates/crypto/src/lib.rs #[allow(unsafe_code)]
./crates/crypto/src/lib.rs mod hw;" ]; then
    echo "FAIL: the only allow(unsafe_code) must be the one on crypto::hw; found:" >&2
    echo "$allows" >&2
    exit 1
fi
if grep -rnE --include='*.rs' --exclude-dir=target '\bunsafe +(\{|fn|impl|trait|extern)' . \
        | grep -v '^./crates/crypto/src/hw.rs:'; then
    echo "FAIL: unsafe code outside crates/crypto/src/hw.rs" >&2
    exit 1
fi
echo "OK: $(echo "$lib_roots" | wc -l) library roots; unsafe code only in crypto::hw"

echo "OK: tier-1 green, dependency graph is path-only"
