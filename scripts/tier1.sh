#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrency-heavy
# net/core subset rebuilt and re-run under ThreadSanitizer (the tsan test
# preset selects that subset; see CMakePresets.json), the full suite under
# AddressSanitizer+UBSan, the DPS-specific lint pass, the dps_verify
# AST-level protocol/lock-order stage, and — when clang is installed — the
# Clang Thread Safety Analysis build (-Werror) and a clang-tidy sweep whose
# WarningsAsErrors subset is fatal. docs/STATIC_ANALYSIS.md describes each
# stage.
#
# Usage: scripts/tier1.sh            # everything
#        DPS_SKIP_TSAN=1 scripts/tier1.sh    # skip the TSan stage
#        DPS_SKIP_ASAN=1 scripts/tier1.sh    # skip the ASan+UBSan stage
#        DPS_SKIP_ANALYZE=1 scripts/tier1.sh # skip -Wthread-safety (clang)
#        DPS_SKIP_TIDY=1 scripts/tier1.sh    # skip clang-tidy
#        DPS_SKIP_VERIFY=1 scripts/tier1.sh  # skip the dps_verify AST stage
#        DPS_VERIFY_REQUIRE_LIBCLANG=1       # SKIP (not run) verify-ast when
#            the clang python bindings are missing, instead of running the
#            analyzer's built-in fallback frontend
#        DPS_BENCH_SMOKE=1 scripts/tier1.sh  # also run a reduced pass of
#            every bench binary with --json, concatenate the records into
#            BENCH_pr10.json (includes micro_serialization's zero-realloc
#            assertion, micro_engine's flat-dispatch assertion, the
#            table2_services service-mesh sweep + overload self-checks,
#            fig15_lu's --check-scaleout gate — 8-node pipelined must beat
#            1-node — fig6_throughput's --check-shm gate — shm must beat
#            TCP loopback 2x at 1 KB on multi-core hosts — micro_steal's
#            work-stealing gate, ablation_flowctl's flow-window knee
#            gate, fig9_life's --check-leaf gate —
#            the LUT leaf kernel must beat naive 3x at 1024^2 on
#            multi-core hosts — and stream_video's streaming self-checks:
#            checksum-verified frames, base rate sustained within 20%, p99
#            end-to-end under the SLO), append a code_size record carrying
#            the src/ line count, and flag fig15_lu / fig6_throughput /
#            fig9_life throughput regressions >10% against the committed
#            BENCH_pr9.json baseline. Every bench runs even when an earlier
#            one fails; BENCH_pr10.json is still written and compared, and
#            the script then exits non-zero naming each failed bench
set -uo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

failures=0
pass() { echo "== PASS: $1"; }
fail() { echo "== FAIL: $1"; failures=$((failures + 1)); }
skip() { echo "== SKIP: $1 ($2)"; }

run_preset() {  # run_preset <name> — configure + build + ctest one preset
  cmake --preset "$1" &&
    cmake --build --preset "$1" -j "$JOBS" &&
    ctest --preset "$1" -j "$JOBS"
}

# --- default build + full suite (includes Lint.DpsLint and the
# --- negative-compile checks, which run at configure time) ------------------
if run_preset default; then
  pass "default build + full ctest suite"
else
  fail "default build + full ctest suite"
fi

# --- dps_lint standalone (also a ctest above; run it visibly here) ----------
if python3 scripts/dps_lint.py; then
  pass "dps_lint (token registration, raw primitives, tsan coverage, live allowlists)"
else
  fail "dps_lint"
fi

# --- verify-ast: protocol & lock-order analysis (scripts/dps_verify.py) -----
# Runs over the compile database from the `compile-commands` preset; the
# fixture corpus is asserted first so a broken analyzer can never
# green-light src/. With the clang python bindings installed the real
# clang AST is used; otherwise the built-in fallback frontend runs (set
# DPS_VERIFY_REQUIRE_LIBCLANG=1 to SKIP instead in that situation).
if [ "${DPS_SKIP_VERIFY:-0}" = "1" ]; then
  skip "verify-ast" "DPS_SKIP_VERIFY=1"
elif [ "${DPS_VERIFY_REQUIRE_LIBCLANG:-0}" = "1" ] &&
    ! python3 -c 'import clang.cindex' 2>/dev/null; then
  skip "verify-ast" "clang python bindings not installed (DPS_VERIFY_REQUIRE_LIBCLANG=1)"
else
  cmake --preset compile-commands >/dev/null
  if python3 scripts/dps_verify.py \
        --check-fixtures tests/static_checks/verify_fixtures &&
      python3 scripts/dps_verify.py \
        --compile-commands build-cc/compile_commands.json \
        --dot docs/lock_order.dot; then
    pass "verify-ast (fixture corpus + lock-order/protocol/discard over src/)"
  else
    fail "verify-ast"
  fi
fi

# --- shared-memory fabric (skipped where POSIX shm is unusable: no
# --- /dev/shm in the container, or an explicit DPS_SHM=0 opt-out) -----------
if [ "${DPS_SHM:-1}" = "0" ]; then
  skip "shm fabric" "DPS_SHM=0"
elif [ ! -d /dev/shm ]; then
  skip "shm fabric" "/dev/shm not mounted"
elif build/tests/dps_tests --gtest_filter='ShmFabric.*' >/dev/null 2>&1; then
  pass "shm fabric (ShmFabric.* suite)"
else
  fail "shm fabric (ShmFabric.* suite)"
fi

# --- ThreadSanitizer over the concurrency subset ----------------------------
if [ "${DPS_SKIP_TSAN:-0}" = "1" ]; then
  skip "tsan" "DPS_SKIP_TSAN=1"
elif run_preset tsan; then
  pass "tsan (concurrency subset)"
else
  fail "tsan (concurrency subset)"
fi

# --- AddressSanitizer + UBSan over the full suite ---------------------------
if [ "${DPS_SKIP_ASAN:-0}" = "1" ]; then
  skip "asan-ubsan" "DPS_SKIP_ASAN=1"
elif run_preset asan-ubsan; then
  pass "asan-ubsan (full suite)"
else
  fail "asan-ubsan (full suite)"
fi

# --- Clang Thread Safety Analysis (build-only, -Werror=thread-safety) -------
if [ "${DPS_SKIP_ANALYZE:-0}" = "1" ]; then
  skip "analyze" "DPS_SKIP_ANALYZE=1"
elif ! command -v clang++ >/dev/null 2>&1; then
  skip "analyze" "clang++ not installed; annotations are no-ops under gcc"
elif cmake --preset analyze && cmake --build --preset analyze -j "$JOBS"; then
  pass "analyze (-Wthread-safety clean)"
else
  fail "analyze (-Wthread-safety)"
fi

# --- clang-tidy (the WarningsAsErrors subset in .clang-tidy is fatal:
# --- use-after-move / dangling-handle / mt-unsafe; the rest is advisory) ----
if [ "${DPS_SKIP_TIDY:-0}" = "1" ]; then
  skip "clang-tidy" "DPS_SKIP_TIDY=1"
elif ! command -v clang-tidy >/dev/null 2>&1; then
  skip "clang-tidy" "clang-tidy not installed"
else
  # Needs a compile database; CMAKE_EXPORT_COMPILE_COMMANDS is on globally,
  # so the default preset build dir always carries one.
  cmake --preset default >/dev/null
  mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
  if clang-tidy -p build "${tidy_sources[@]}"; then
    pass "clang-tidy (no fatal findings; remaining output is advisory)"
  else
    fail "clang-tidy (WarningsAsErrors subset: bugprone-use-after-move, bugprone-dangling-handle, concurrency-mt-unsafe)"
  fi
fi

echo
if [ "$failures" -ne 0 ]; then
  echo "tier1: $failures stage(s) FAILED"
  exit 1
fi
echo "tier1: all stages passed (or were skipped explicitly)"

if [ "${DPS_BENCH_SMOKE:-0}" != "1" ]; then
  exit 0
fi

# Bench smoke: tiny configurations of every harness, machine-readable
# results concatenated into BENCH_pr10.json for cross-commit diffing.
# micro_serialization exits nonzero if an envelope encode reallocates,
# micro_engine exits nonzero if merge matching scales with queue depth, the
# table2_services sweep/overload pass exits nonzero if the service mesh
# breaks its contract (iteration slowdown >= 2x at 100 clients, a shed call
# reporting anything but kBackpressure, or a tenant exceeding its in-flight
# budget), fig15_lu --check-scaleout exits nonzero unless the 8-node
# pipelined run actually beats 1 node (multicast scale-out),
# fig6_throughput --check-shm exits nonzero unless the shm ring beats DPS
# over TCP loopback 2x at 1 KB tokens (skipped on single-core hosts, where
# a pipelined ring cannot overlap transport with compute), micro_steal
# exits nonzero unless enabling work stealing actually steals and speeds up
# an imbalanced pipeline (skipped below 4 cores), ablation_flowctl
# exits nonzero unless a flow-window knee exists at every message size,
# fig9_life --check-leaf exits nonzero unless the LUT leaf kernel
# beats naive 3x at 1024^2 through the backend seam (skipped on
# single-core hosts) or the two kernels disagree bit-wise, and
# stream_video exits nonzero unless every frame's chained checksum
# verifies, the base rate is sustained within 20%, and base-rate p99
# end-to-end latency meets the SLO — all of those invariants are enforced
# here too. A failing bench does not stop the pass: each one runs, its exit
# code is recorded, and the stage fails at the end naming every failure.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
b=build/bench
bench_failures=()
run_bench() {  # run_bench <label> <command...> — records a non-zero exit
  local label=$1 rc=0
  shift
  "$@" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "== bench FAIL: $label (exit $rc)"
    bench_failures+=("$label (exit $rc)")
  fi
}
run_bench "fig6_throughput --check-shm" \
  "$b/fig6_throughput"    4    --check-shm --json "$smoke_dir/fig6.json"
run_bench micro_steal \
  "$b/micro_steal"             --json "$smoke_dir/micro_steal.json"
run_bench table1_overlap \
  "$b/table1_overlap"     256  --json "$smoke_dir/table1.json"
run_bench "fig9_life --check-leaf" \
  "$b/fig9_life"          1    --check-leaf --json "$smoke_dir/fig9.json"
run_bench "fig15_lu --check-scaleout" \
  "$b/fig15_lu"           512 110 32 --check-scaleout \
  --json "$smoke_dir/fig15.json"
run_bench table2_services \
  "$b/table2_services"    1024 1 --json "$smoke_dir/table2.json"
run_bench "table2_services --sweep/--overload" \
  "$b/table2_services"    512 1 --sweep 1,10,100 --overload 100 2 \
  --json "$smoke_dir/table2_mesh.json"
run_bench ablation_flowctl \
  "$b/ablation_flowctl"   256  --json "$smoke_dir/ablation.json"
run_bench stream_video \
  "$b/stream_video"       120  --json "$smoke_dir/stream_video.json"
run_bench micro_engine \
  "$b/micro_engine"        --json "$smoke_dir/micro_engine.json" \
  --benchmark_filter='BM_CallLatencySingleNode|BM_TokenThroughputSerialized/256|BM_DispatchMergeMatch'
run_bench micro_serialization \
  "$b/micro_serialization" --json "$smoke_dir/micro_serial.json" \
  --benchmark_filter='BM_SimpleTokenRoundTrip|BM_ComplexTokenRoundTrip/4096'
# Code size rides along as one record (not watched by bench_compare.py):
# the line count of every source file under src/.
src_lines=$(find src -name '*.cpp' -o -name '*.hpp' | sort | xargs cat | wc -l)
echo "{\"bench\":\"code_size\",\"config\":\"src_lines\",\"lines\":$src_lines}" \
  > "$smoke_dir/zz_code_size.json"
cat "$smoke_dir"/*.json > BENCH_pr10.json
echo "bench smoke: $(wc -l < BENCH_pr10.json) records -> BENCH_pr10.json"
# Guard the hot-path wins: any fig15_lu / fig6_throughput / fig9_life
# config more than 10% below the PR-9 baseline fails the smoke stage
# (fig9's wall-clock leaf=* configs are advisory; the in-binary
# --check-leaf gate owns that win).
run_bench bench_compare \
  python3 scripts/bench_compare.py BENCH_pr9.json BENCH_pr10.json
if [ "${#bench_failures[@]}" -ne 0 ]; then
  echo "bench smoke: ${#bench_failures[@]} failed:"
  printf '  %s\n' "${bench_failures[@]}"
  exit 1
fi
echo "bench smoke: every bench passed"
