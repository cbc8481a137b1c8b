#!/usr/bin/env bash
# Tier-1 verification: lint, configure, build, and run the full test
# suite. Warnings are errors here; the plain `cmake -B build` path
# stays permissive for exotic compilers.
set -euo pipefail
cd "$(dirname "$0")/.."
python3 tools/lint.py
python3 tools/analyze --out build/analyze
cmake -B build -S . -DXRPL_WERROR=ON
cmake --build build -j
cd build && ctest --output-on-failure -j
# The determinism suites prove thread-count independence from INSIDE
# one process (ScopedParallelism); re-running them under explicit
# XRPL_THREADS pins also covers the env-driven shared-pool setup the
# benches use. Widths 1 and 8 bracket serial and oversubscribed.
# The golden suites ride along: ReplayParityTest (indexed-vs-scan
# path-engine parity, golden Table II) and ColumnarParityTest (the
# pinned Fig 3 / anonymity / attack / mitigation / clustering / spam
# values) must hold at every pool width too, and FingerprintGroupsTest
# checks the bucketed fingerprint sort against one whole-array sort.
# CI's width step runs the same filter.
for width in 1 8; do
  echo "--- determinism + golden suites at XRPL_THREADS=${width} ---"
  XRPL_THREADS="${width}" ./tests/xrpl_tests \
    --gtest_filter='DeterminismTest.*:ShardedDeterminismTest.*:ShardedSlicingTest.*:ObsParityTest.*:ReplayParityTest.*:ColumnarParityTest.*:FingerprintGroupsTest.*' \
    --gtest_brief=1
done
# XCOL round-trip determinism: the snapshot a width-1 process saves
# must be byte-identical to a width-8 one, and both must load back to
# the same fingerprint (save -> load -> fingerprint; DESIGN.md §15).
echo "--- xcol round-trip determinism (widths 1 and 8) ---"
snap_dir=$(mktemp -d)
for width in 1 8; do
  XRPL_THREADS="${width}" \
    ./examples/snapctl gen "${snap_dir}/w${width}.xcol" 4000 > /dev/null
done
cmp "${snap_dir}/w1.xcol" "${snap_dir}/w8.xcol"
fp1=$(XRPL_THREADS=1 ./examples/snapctl verify "${snap_dir}/w1.xcol")
fp8=$(XRPL_THREADS=8 ./examples/snapctl verify "${snap_dir}/w8.xcol")
[ "${fp1#OK *: }" = "${fp8#OK *: }" ]
echo "xcol round-trip OK: ${fp1#OK *: }"
rm -rf "${snap_dir}"
# Observability smoke run: one real bench through the harness must
# emit a well-formed BENCH_<name>.json with live metrics and phases.
# Runs twice against a dataset cache: the first pass generates and
# publishes, the second must be served from the snapshot
# (snap.cache.hits >= 1) with byte-identical console output.
echo "--- obs smoke run (fig4 via bench harness, cold + warm cache) ---"
obs_dir=$(mktemp -d)
XRPL_OBS=1 XRPL_BENCH_PAYMENTS=2000 XRPL_BENCH_JSON_DIR="${obs_dir}" \
  XRPL_DATASET_DIR="${obs_dir}/datasets" \
  ./bench/fig4_currencies > "${obs_dir}/cold.out"
XRPL_OBS=1 XRPL_BENCH_PAYMENTS=2000 XRPL_BENCH_JSON_DIR="${obs_dir}" \
  XRPL_DATASET_DIR="${obs_dir}/datasets" \
  ./bench/fig4_currencies > "${obs_dir}/warm.out"
cmp "${obs_dir}/cold.out" "${obs_dir}/warm.out"
python3 - "${obs_dir}/BENCH_fig4_currencies.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    report = json.load(fh)
assert sorted(report) == ["bench", "obs", "wall_seconds"], sorted(report)
assert report["bench"] == "fig4_currencies"
assert report["wall_seconds"] > 0
obs = report["obs"]
assert obs["enabled"] is True
assert obs["counters"].get("analytics.scans", 0) > 0, obs["counters"]
# The warm pass (this JSON is the second run's) served the history
# from the XCOL cache instead of regenerating it.
assert obs["counters"].get("snap.cache.hits", 0) >= 1, obs["counters"]
assert obs["counters"].get("snap.decode.rows", 0) > 0, obs["counters"]
print("obs smoke run OK:", len(obs["counters"]), "counters,",
      len(obs["histograms"]), "histograms, warm pass cache-served")
EOF
rm -rf "${obs_dir}"
# Benchmark smoke, the same step as CI's tier1 job: builds perfbench/
# against this tree's src/ (Release, in .bench_build/) and runs every
# workload at tiny size, so a change to the ledger, engine or obs
# calls the benchmark makes fails here rather than in a benchmark run.
echo "--- perfbench smoke ---"
python3 ../perfbench/check.py smoke
