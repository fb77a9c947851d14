#!/usr/bin/env bash
# Runs the tier-1 test suite under AddressSanitizer, ThreadSanitizer and
# UndefinedBehaviorSanitizer (no recovery) in sequence — the pre-merge
# confidence sweep for the concurrency, memory-safety and defined-
# behaviour guarantees the code comments promise — plus a
# store-recovery fuzz sweep (hi::store corruption handling under ASan,
# wider than the tier-1 smoke run).
#
#   scripts/check.sh [--extended] [extra ctest args...]
#
# --extended additionally runs the `extended` ctest label (the long
# fuzz_dse / fuzz_store sweeps) in every sanitizer tree.
#
# Build trees live in build-address/, build-thread/ and build-undefined/
# next to build/ (all gitignored); each is configured on first use and
# reused afterwards.
#
# Also runs the cheap documentation-consistency check (docs_check.sh)
# up front and the quick perf-regression smoke (bench.sh --quick, 40%
# tolerance against the committed BENCH_*.json baselines) at the end.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> docs_check"
./scripts/docs_check.sh

extended=0
if [[ "${1:-}" == "--extended" ]]; then
  extended=1
  shift
fi

# run_suite SANITIZER WERROR [ctest args...]; WERROR (ON/OFF) sets
# HI_WARNINGS_AS_ERRORS for that tree.
run_suite() {
  local sanitizer="$1"
  local werror="$2"
  shift 2
  local dir="build-${sanitizer}"
  echo "==> ${sanitizer}: configure + build (${dir})"
  cmake -B "${dir}" -S . -DHI_SANITIZE="${sanitizer}" \
        -DHI_WARNINGS_AS_ERRORS="${werror}" \
        -DHI_BUILD_BENCH=OFF -DHI_BUILD_EXAMPLES=OFF
  cmake --build "${dir}" -j "$(nproc)"
  echo "==> ${sanitizer}: ctest -L tier1"
  ctest --test-dir "${dir}" -L tier1 --output-on-failure -j "$(nproc)" "$@"
  if [[ "${extended}" == 1 ]]; then
    echo "==> ${sanitizer}: ctest -L extended"
    ctest --test-dir "${dir}" -L extended --output-on-failure \
          -j "$(nproc)" "$@"
  fi
}

# strict_json FILE...: each file must load as strict JSON.  Python's
# json module accepts NaN / Infinity unless parse_constant refuses them.
strict_json() {
  local f
  for f in "$@"; do
    python3 -c 'import json,sys; json.load(open(sys.argv[1]), parse_constant=lambda c: sys.exit("non-JSON constant " + c))' "${f}"
  done
}

# The ASan tree also builds warning-free: -Werror on the library, tool
# and test sources.
run_suite address ON "$@"
run_suite thread OFF "$@"
run_suite undefined OFF "$@"

# Store-recovery fuzzing beyond the tier-1 smoke run: seeded torn-write /
# bit-flip corruption against hi::store's recovery contract, under ASan
# so any parsing overrun in the framing or codecs is caught outright.
echo "==> address: fuzz_store recovery sweep"
fuzz_dir="$(mktemp -d)"
trap 'rm -rf "${fuzz_dir}"' EXIT
./build-address/tests/fuzz_store --seed 1 --scenarios 25 --trials 12 \
                                 --dir "${fuzz_dir}"

# Robustness property sweep beyond the tier-1 smoke run: the Γ>0
# battery (Bertsimas–Sim counterpart differential, robust Alg 1 vs
# robust exhaustive, Γ/K monotonicity, Γ=0 collapse) at a deeper
# protection budget and realization fold, under ASan.  The full
# 200-seed acceptance sweep is ctest's fuzz_dse_robust_extended.
echo "==> address: fuzz_dse robust sweep"
./build-address/tests/fuzz_dse --seed 1 --scenarios 40 --gamma 2 \
                               --realizations 3

# Campaign-fabric crash smoke: a 2-worker mini-campaign in which worker
# 0 SIGKILLs itself after its first checkpoint (--kill-slot) and
# --no-steal pins its row, so the first run must end incomplete (exit
# 3).  The --resume run recovers the dead worker's claim, completes the
# grid (exit 0) with the takeover visible in fleet.json, and the merged
# store must audit clean.  Runs the ASan-built CLI: the whole fork /
# claim / merge path is swept for memory errors too.
echo "==> campaign fabric crash/resume smoke (ASan CLI)"
fabric_dir="${fuzz_dir}/fabric-smoke"
fabric_cli=./build-address/tools/hi_campaign
fabric_grid=(--gen-seed 5 --gen-seed 6 --pdr-min 0.5,0.7 --json)
fabric_rc=0
"${fabric_cli}" --shard-dir "${fabric_dir}" --workers 2 --no-steal \
     --kill-slot 0 --kill-after-cells 1 "${fabric_grid[@]}" >/dev/null \
  || fabric_rc=$?
if [[ "${fabric_rc}" != 3 ]]; then
  echo "fabric smoke: killed fleet exited ${fabric_rc}, expected 3" >&2
  exit 1
fi
"${fabric_cli}" --shard-dir "${fabric_dir}" --workers 2 --resume \
                "${fabric_grid[@]}" >/dev/null
grep -q '"complete": true' "${fabric_dir}/fleet.json"
grep -Eq '"recoveries": [1-9]' "${fabric_dir}/fleet.json"
"${fabric_cli}" --audit "${fabric_dir}/merged.store" >/dev/null

# Pareto frontier crash/resume smoke (DESIGN.md §14): a tiny generated
# scenario on the ASan-built CLI.  The first run SIGKILLs itself after
# one completed MILP round (--kill-after-rounds; the store is synced
# after every round first), so it must die on signal 9 (exit 137).  The
# rerun warm-starts from the same store, finishes the ladder (exit 0),
# and its report must show the store actually serving points.
echo "==> pareto frontier crash/resume smoke (ASan CLI)"
pareto_cli=./build-address/tools/hi_pareto
pareto_store="${fuzz_dir}/pareto-smoke.store"
pareto_args=(--gen-seed 7 --tsim 2 --runs 1 --pdr-min 0.5,0.7,0.9)
pareto_rc=0
"${pareto_cli}" "${pareto_args[@]}" --store "${pareto_store}" \
     --kill-after-rounds 1 >/dev/null || pareto_rc=$?
if [[ "${pareto_rc}" != 137 ]]; then
  echo "pareto smoke: killed run exited ${pareto_rc}, expected 137" >&2
  exit 1
fi
pareto_out="${fuzz_dir}/pareto-smoke.json"
"${pareto_cli}" "${pareto_args[@]}" --store "${pareto_store}" \
     --out "${pareto_out}"
grep -q '"schema": "hi-pareto/v1"' "${pareto_out}"
grep -q '"complete": true' "${pareto_out}"
grep -Eq '"store_hits": [1-9]' "${pareto_out}"

# Crowd sweep crash/resume smoke (DESIGN.md §15): a short M=1..3 sweep
# on the ASan-built CLI.  The first run SIGKILLs itself after one
# completed point (--kill-after-points; the store is synced after every
# point first), so it must die on signal 9 (exit 137).  The --resume
# rerun must serve the completed point from the store (one hit, two
# fresh simulations — no re-simulation of finished work) and finish the
# sweep; a second, fully-warm rerun must then be pure hits.
echo "==> crowd sweep crash/resume smoke (ASan CLI)"
crowd_cli=./build-address/tools/hi_crowd
crowd_store="${fuzz_dir}/crowd-smoke.store"
crowd_args=(--list 1,2,3 --tsim 2 --runs 1 --seed 5)
crowd_rc=0
"${crowd_cli}" "${crowd_args[@]}" --store "${crowd_store}" \
     --kill-after-points 1 >/dev/null || crowd_rc=$?
if [[ "${crowd_rc}" != 137 ]]; then
  echo "crowd smoke: killed run exited ${crowd_rc}, expected 137" >&2
  exit 1
fi
crowd_out="${fuzz_dir}/crowd-smoke.json"
"${crowd_cli}" "${crowd_args[@]}" --store "${crowd_store}" --resume \
     --out "${crowd_out}"
grep -q '"schema": "hi-crowd/v1"' "${crowd_out}"
grep -q '"complete": true' "${crowd_out}"
grep -q '"store": {"store_hits": 1, "simulations": 2}' "${crowd_out}"
"${crowd_cli}" "${crowd_args[@]}" --store "${crowd_store}" --resume \
     --out "${crowd_out}"
grep -q '"store": {"store_hits": 3, "simulations": 0}' "${crowd_out}"
if grep -q '"from_store": false' "${crowd_out}"; then
  echo "crowd smoke: warm rerun re-simulated a completed point" >&2
  exit 1
fi
# Thread invariance at the CLI: the sweep's (point, replication) tasks
# on three workers must print the same bytes as the same tasks run
# inline — a fold-order or seeding bug in the threaded path shows here.
crowd_inv=(--list 1,2,3 --tsim 2 --runs 2 --seed 5)
"${crowd_cli}" "${crowd_inv[@]}" --threads 3 --out "${fuzz_dir}/crowd-t3.json"
"${crowd_cli}" "${crowd_inv[@]}" --threads 0 --out "${fuzz_dir}/crowd-t0.json"
cmp "${fuzz_dir}/crowd-t3.json" "${fuzz_dir}/crowd-t0.json"
# The same at the robust DSE batch engine: K = 3 channel realizations on
# three workers (one pool for every realization) must write the same
# store bytes, in the same order, and the same report up to its wall
# clock as the serial run.
echo "==> robust DSE thread invariance (ASan CLI)"
robust_inv=(--gen-seed 7 --realizations 3 --gamma 1 --tsim 2 --runs 2)
for t in 3 0; do
  "${pareto_cli}" "${robust_inv[@]}" --threads "${t}" \
       --store "${fuzz_dir}/robust-t${t}.store" \
       --out "${fuzz_dir}/robust-t${t}.json"
  sed -E 's/"wall_s": [^,}]*/"wall_s": 0/' "${fuzz_dir}/robust-t${t}.json" \
      > "${fuzz_dir}/robust-t${t}-masked.json"
done
cmp "${fuzz_dir}/robust-t3.store" "${fuzz_dir}/robust-t0.store"
cmp "${fuzz_dir}/robust-t3-masked.json" "${fuzz_dir}/robust-t0-masked.json"

# Every document the smoke steps wrote, and each CLI's --dump-scenario,
# must be strict JSON (no NaN / Infinity, no trailing garbage).
echo "==> smoke documents are strict JSON"
for cli in hi_campaign hi_pareto hi_crowd; do
  "./build-address/tools/${cli}" --dump-scenario \
    > "${fuzz_dir}/${cli}-scenario.json"
done
strict_json "${fabric_dir}/fleet.json" "${pareto_out}" "${crowd_out}" \
            "${fuzz_dir}/crowd-t0.json" "${fuzz_dir}/crowd-t3.json" \
            "${fuzz_dir}"/hi_*-scenario.json

# Perf-regression smoke: scaled-down benches gated at 40% against the
# committed baselines (full-precision gate: scripts/bench.sh, 10%).
echo "==> bench smoke (scripts/bench.sh --quick)"
./scripts/bench.sh --quick

echo "==> all sanitizer suites passed"
