#!/usr/bin/env bash
# One-command correctness gate: plain build + full test suite (including the
# `ctest -L lint` static-analysis pass) + a compile of the end-to-end
# benchmark, then the concurrency suites under ThreadSanitizer, then the full
# suite under AddressSanitizer+UBSan.
#
# Usage:
#   tools/check.sh            # run the whole matrix
#   tools/check.sh plain      # just the plain build + full ctest (+ lint,
#                             # incl. the lock-coverage snapshot gate), then
#                             # a Release build of the perfbench/ package
#                             # into build-perfbench/ (compiled, not run)
#   tools/check.sh tsan       # just the TSan build + `ctest -L tsan`
#   tools/check.sh asan       # just the ASan/UBSan build + full ctest
#   tools/check.sh lint       # `ctest -L lint` + `shmcaffe-lint --coverage`
#                             # gated against LINT_coverage.json: unannotated
#                             # fields fail, per-class unguarded counts and
#                             # pin_escapes must not grow, and the root/
#                             # contract counters (deterministic_roots,
#                             # hot_kernel_roots, blocking_roots,
#                             # nonblocking_contracts) must not shrink
#                             # (--force overrides)
#   tools/check.sh recovery   # `ctest -L recovery` in the plain AND TSan trees
#   tools/check.sh elastic    # `ctest -L elastic` in the plain AND TSan trees,
#                             # then bench_ext_elastic from the plain tree,
#                             # whose output must match BENCH_elastic.json
#                             # byte for byte (--force re-records it)
#   tools/check.sh integrity  # `ctest -L integrity` in the plain AND ASan
#                             # trees (checksum/repair paths are memory hot
#                             # spots), then bench_ext_integrity from the
#                             # plain tree, whose output must match
#                             # BENCH_integrity.json byte for byte (--force
#                             # re-records it)
#   tools/check.sh simd       # the `simd`-labelled kernel-equivalence tests in
#                             # the AVX2 tree AND a -DSHMCAFFE_SIMD=OFF scalar
#                             # tree: the SIMD tier must be bitwise identical
#                             # to the scalar cores, build to build
#   tools/check.sh stress [N] # the functional end-to-end suites
#                             # (ElasticEndToEnd, RecoveryEndToEnd,
#                             # IntegrityEndToEnd, TrainerDegradation*) and
#                             # the bitwise GoldenRun final losses,
#                             # repeated N times (default 10) in three modes:
#                             # full width, pinned to one core (taskset -c 0),
#                             # and next to `nproc` busy-loop processes; prints
#                             # a pass count per test and mode, and fails on
#                             # any failure
#   tools/check.sh bench      # Release build + bench_micro_kernels, run as 3
#                             # processes; the per-row median snapshot goes
#                             # into BENCH_kernels.json; refuses to overwrite
#                             # the baseline on a >20% throughput regression,
#                             # or when its host block (nproc, SIMD tier)
#                             # differs from this machine's, unless --force
#                             # is also given
#
# Each configuration builds into its own tree (build/, build-tsan/,
# build-asan/, build-scalar/, build-bench/, build-perfbench/) so incremental
# reruns are cheap.  `plain` and `asan` build every target, so the benches
# and examples still compile in the plain and ASan trees; the stages that
# run a ctest label (tsan, lint, recovery, elastic, integrity, simd and its
# scalar tree) build only the gtest binaries (the `shm_tests` target), plus
# shmcaffe-lint in `lint`.  A stage also fails if the compiler printed a
# warning while building any of its trees.  Exits non-zero on the first
# failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
FORCE=0
REPEATS=10
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --force) FORCE=1 ;;
    [0-9]*) REPEATS=$arg ;;
    *) ARGS+=("$arg") ;;
  esac
done
STAGES=("${ARGS[@]:-plain tsan asan}")
STAGES=(${STAGES[@]})  # re-split when the default multi-word string is used

# build_clean <name> <build dir> [cmake --build args...]: builds, and fails
# the stage if the compiler printed a warning, so a new one cannot hide in
# a long log.  Only the units this run compiles can print one: an up-to-date
# tree passes.
build_clean() {
  local name=$1 build_dir=$2 log warnings
  log=$(mktemp)
  cmake --build "$build_dir" -j "$JOBS" "${@:3}" 2>&1 | tee "$log"
  warnings=$(grep 'warning:' "$log" || true)
  rm -f "$log"
  if [[ -n "$warnings" ]]; then
    echo "==> [$name] the $build_dir build printed warnings:" >&2
    echo "$warnings" >&2
    exit 1
  fi
}

# run_stage <name> <build dir> <sanitizer> <ctest args> [targets...]: builds
# the named targets (every target when none is given) with no compiler
# warning, then runs ctest.
run_stage() {
  local name=$1 build_dir=$2 sanitize=$3 ctest_args=$4
  local build_args=()
  (( $# > 4 )) && build_args=(--target "${@:5}")
  echo "==> [$name] configure + build ($build_dir${5:+: ${*:5}})"
  cmake -B "$build_dir" -S . -DSHMCAFFE_SANITIZE="$sanitize" >/dev/null
  build_clean "$name" "$build_dir" "${build_args[@]}"
  echo "==> [$name] ctest $ctest_args"
  (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" $ctest_args)
}

# Compile gate for the end-to-end benchmark.  perfbench/ is a CMake package
# of its own that compiles ../src, so without this a change to a header it
# includes would fail only when the benchmark runs.  Built in Release, as
# perfbench/run.py builds it; not run.
perfbench_build() {
  echo "==> [plain] configure + build perfbench (build-perfbench, Release)"
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
  build_clean plain build-perfbench --target perfbench
}

# Fails the gate if a per-class count (`sed` script $2 prints "class count"
# lines) grew in the new report $1 versus LINT_coverage.json.
fence_classes() {
  local new_json=$1 extract=$2 field=$3 what=$4
  if ! awk -v field="$field" 'NR==FNR { old[$1] = $2; next }
            ($1 in old) && $2 > old[$1] {
              printf "coverage regression: %s %s %d -> %d\n", $1, field, old[$1], $2
              bad = 1
            }
            END { exit bad }' \
        <(sed -n "$extract" LINT_coverage.json) <(sed -n "$extract" "$new_json"); then
    echo "==> [lint] $what grew vs LINT_coverage.json;" \
         "baseline kept (rerun with --force after review)" >&2
    rm -f "$new_json"
    exit 1
  fi
}

# Fails the gate if the summary counter $2 of the new report $1 moved the
# forbidden way ($3: grow or shrink) versus LINT_coverage.json.
fence_counter() {
  local new_json=$1 key=$2 forbidden=$3 what=$4
  local extract="s/.*\"$key\": \\([0-9]*\\).*/\\1/p" old new
  old=$(sed -n "$extract" LINT_coverage.json | head -1)
  new=$(sed -n "$extract" "$new_json" | head -1)
  [[ -n "$old" && -n "$new" ]] || return 0
  if [[ $forbidden == grow && $new -gt $old ]] || [[ $forbidden == shrink && $new -lt $old ]]; then
    echo "==> [lint] $what $([[ $forbidden == grow ]] && echo grew || echo shrank)" \
         "vs LINT_coverage.json ($old -> $new); baseline kept (rerun with --force after review)" >&2
    rm -f "$new_json"
    exit 1
  fi
}

# Lock-coverage snapshot: `shmcaffe-lint --coverage` against the committed
# LINT_coverage.json baseline.  Fails if any class has unannotated fields, or
# if a class's `unguarded` count grew versus the baseline (declaring a field
# SHMCAFFE_UNGUARDED is an explicit, reviewed loosening — the snapshot pins
# it).  The flow-sensitive counters are pinned the same way: a class's
# `unguarded_access` count (guarded-field reads/writes the lock-region pass
# could not prove held) and the summary `tainted` count (statements the
# determinism pass reaches from a SHMCAFFE_DETERMINISTIC root) must not grow.
# The summary `deterministic_roots` count must not SHRINK: the roots are the
# cross-stack reproducibility contract (the control-event planner and the
# journal fingerprint), and silently dropping an annotation un-gates its
# callees.
# On success the new report becomes the baseline; a regression keeps the old
# baseline unless --force is given.
lint_coverage_gate() {
  local build_dir=$1
  echo "==> [lint] shmcaffe-lint --coverage gate"
  if [[ ! -x "./$build_dir/tools/lint/shmcaffe-lint" ]]; then
    echo "==> [lint] ./$build_dir/tools/lint/shmcaffe-lint is missing — the $build_dir tree" \
         "is stale; run 'tools/check.sh plain' (or: cmake --build $build_dir" \
         "--target shmcaffe-lint) and retry" >&2
    exit 1
  fi
  local new_json
  new_json=$(mktemp)
  "./$build_dir/tools/lint/shmcaffe-lint" . --coverage > "$new_json"
  local extract='s/.*"class": "\([^"]*\)".*"unguarded": \([0-9]*\), "unannotated": \([0-9]*\).*/\1 \2 \3/p'
  local extract_access='s/.*"class": "\([^"]*\)".*"unguarded_access": \([0-9]*\).*/\1 \2/p'
  if grep -q '"unannotated": [1-9]' "$new_json"; then
    echo "==> [lint] classes with unannotated fields (guarded-by rule should have caught this):" >&2
    sed -n "$extract" "$new_json" | awk '$3 > 0' >&2
    rm -f "$new_json"
    exit 1
  fi
  if [[ -f LINT_coverage.json && "$FORCE" != 1 ]]; then
    fence_classes "$new_json" "$extract" unguarded "unguarded field count"
    fence_classes "$new_json" "$extract_access" unguarded_access \
        "unguarded guarded-field accesses"
    # Suppressed allocation sites reachable from SHMCAFFE_HOT_KERNEL roots
    # (net of justified lint:allow escapes) and audited SHMCAFFE_PIN_ESCAPE
    # sites must not grow; the annotated root and contract groups must not
    # shrink — dropping one silently un-gates every callee.
    fence_counter "$new_json" tainted grow "determinism-tainted statement count"
    fence_counter "$new_json" deterministic_roots shrink "SHMCAFFE_DETERMINISTIC root count"
    fence_counter "$new_json" hot_allocs grow "hot-kernel allocation count"
    fence_counter "$new_json" hot_kernel_roots shrink "SHMCAFFE_HOT_KERNEL root count"
    fence_counter "$new_json" blocking_roots shrink "SHMCAFFE_BLOCKS root count"
    fence_counter "$new_json" nonblocking_contracts shrink \
        "SHMCAFFE_NONBLOCKING contract count"
    fence_counter "$new_json" pin_escapes grow "SHMCAFFE_PIN_ESCAPE count"
  fi
  mv "$new_json" LINT_coverage.json
  echo "==> [lint] snapshot written to LINT_coverage.json"
}

# Per-row median of the bench documents given as arguments (an odd number
# of runs of one binary): each kernel row is the run's line whose
# throughput is the median for that row, each speedup_vs_ref ratio is the
# median ratio, and every other line comes from the first run.
median_snapshot() {
  awk '
    function median(list,    n, v, i, j, t) {
      n = split(list, v, " ")
      for (i = 2; i <= n; i++) {
        for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
      }
      return v[int((n + 1) / 2)]
    }
    FNR == 1 { runs++ }
    /"name": "/ {
      name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      tput = $0; sub(/.*"throughput": /, "", tput); sub(/,.*/, "", tput)
      line[name, tput] = $0
      tputs[name] = tputs[name] " " tput
      if (runs == 1) doc[++lines] = "\001" name
      next
    }
    /"speedup_vs_ref": / {
      rest = $0; sub(/.*\{/, "", rest); sub(/\}.*/, "", rest)
      count = split(rest, pairs, ", ")
      for (p = 1; p <= count; p++) {
        split(pairs[p], kv, ": ")
        ratios[kv[1]] = ratios[kv[1]] " " kv[2]
        if (runs == 1) keys[p] = kv[1]
      }
      if (runs == 1) doc[++lines] = "\002"
      next
    }
    runs == 1 { doc[++lines] = $0 }
    END {
      for (l = 1; l <= lines; l++) {
        if (substr(doc[l], 1, 1) == "\001") {
          name = substr(doc[l], 2)
          print line[name, median(tputs[name])]
        } else if (doc[l] == "\002") {
          out = "  \"speedup_vs_ref\": {"
          for (p = 1; p <= count; p++) {
            out = out (p > 1 ? ", " : "") keys[p] ": " sprintf("%.4f", median(ratios[keys[p]]))
          }
          print out "},"
        } else {
          print doc[l]
        }
      }
    }' "$@"
}

# Simulated-bench snapshot gate: bench target $2 built in the plain tree
# must print exactly the committed $3.  Its quantities are simulated
# (deterministic and build-type independent), so any difference is a
# modelling change: the stage fails and keeps the baseline unless --force
# is given, which re-records it.
exact_snapshot_gate() {
  local stage=$1 target=$2 json=$3
  echo "==> [$stage] build $target (build)"
  build_clean "$stage" build --target "$target"
  local new_json
  new_json=$(mktemp)
  "./build/bench/$target" > "$new_json"
  if [[ -f "$json" && "$FORCE" != 1 ]] && ! cmp -s "$json" "$new_json"; then
    diff "$json" "$new_json" >&2 || true
    echo "==> [$stage] $target output differs from $json;" \
         "baseline kept (rerun with --force to re-record)" >&2
    rm -f "$new_json"
    exit 1
  fi
  mv "$new_json" "$json"
  echo "==> [$stage] $json matches"
}

# Micro-kernel snapshot gate: Release build of bench_micro_kernels, three
# runs whose per-row median is the snapshot, then a guarded overwrite of
# the committed BENCH_kernels.json.  Every row present in both the old and
# the new snapshot must stay within 20% of its recorded throughput, or the
# stage fails and keeps the baseline (override with --force after an
# intentional change).  The fence also refuses a baseline whose host line
# (nproc, SIMD tier) differs from this machine's: that throughput was
# measured on another kind of machine.
kernel_snapshot_gate() {
  local target=bench_micro_kernels json=BENCH_kernels.json runs=3
  echo "==> [bench] configure + build (build-bench, Release)"
  # Lock-held assertions off: the benches are measured, not checked, and the
  # per-call held-list scan would perturb the hot paths.
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
        -DSHMCAFFE_LOCK_ASSERTS=OFF >/dev/null
  build_clean bench build-bench --target "$target"
  local new_json run_dir
  new_json=$(mktemp)
  run_dir=$(mktemp -d)
  for run in $(seq "$runs"); do
    echo "==> [bench] $target (run $run of $runs)"
    "./build-bench/bench/$target" > "$run_dir/$run.json"
  done
  median_snapshot $(seq -f "$run_dir/%g.json" "$runs") > "$new_json"
  rm -rf "$run_dir"
  local extract='s/.*"name": "\([^"]*\)".*"throughput": \([0-9.eE+-]*\).*/\1 \2/p'
  if [[ -f "$json" && "$FORCE" != 1 ]]; then
    local host_line='s/^ *"host": \(.*\),$/\1/p' old_host new_host
    old_host=$(sed -n "$host_line" "$json")
    new_host=$(sed -n "$host_line" "$new_json")
    if [[ "$old_host" != "$new_host" ]]; then
      echo "==> [bench] $json came from another host" \
           "(${old_host:-no host block}; this one is $new_host): not fenced," \
           "baseline kept (rerun with --force to overwrite)" >&2
      rm -f "$new_json"
      exit 1
    fi
    if ! awk 'NR==FNR { old[$1] = $2; next }
              ($1 in old) && old[$1] > 0 && $2 < 0.8 * old[$1] {
                printf "regression: %s %.4f -> %.4f (-%.0f%%)\n",
                       $1, old[$1], $2, 100 * (1 - $2 / old[$1]); bad = 1
              }
              END { exit bad }' \
          <(sed -n "$extract" "$json") <(sed -n "$extract" "$new_json"); then
      echo "==> [bench] >20% throughput regression vs $json;" \
           "baseline kept (rerun with --force to overwrite)" >&2
      rm -f "$new_json"
      exit 1
    fi
  fi
  mv "$new_json" "$json"
  echo "==> [bench] snapshot written to $json"
}

# Schedule-independence gate: every functional end-to-end test must pass
# whatever the core count or load, on every repeat.  Each suite runs
# in-process N times (--gtest_repeat) per mode; a pass is an "[ OK ]" line,
# so a crashed binary shows up as missing passes.
STRESS_SUITES=("elastic_test:ElasticEndToEnd.*" "recovery_test:RecoveryEndToEnd.*"
               "integrity_test:IntegrityEndToEnd.*" "fault_test:*TrainerDegradation*"
               "conv_engine_test:GoldenRun.*")
HOGS=()
stop_hogs() {
  if (( ${#HOGS[@]} > 0 )); then kill "${HOGS[@]}" 2>/dev/null || true; fi
  HOGS=()
}
trap stop_hogs EXIT

stress_stage() {
  local repeats=$1
  echo "==> [stress] configure + build (build)"
  cmake -B build -S . >/dev/null
  build_clean stress build --target elastic_test recovery_test integrity_test fault_test \
      conv_engine_test
  local failed=0 mode suite log
  for mode in full pinned loaded; do
    local prefix=()
    case "$mode" in
      pinned) prefix=(taskset -c 0) ;;
      loaded)
        for _ in $(seq "$(nproc)"); do
          (while :; do :; done) &
          HOGS+=($!)
        done
        ;;
    esac
    echo "==> [stress] $mode: $repeats repeats"
    log=$(mktemp)
    for suite in "${STRESS_SUITES[@]}"; do
      "${prefix[@]}" "./build/tests/${suite%%:*}" --gtest_filter="${suite#*:}" \
          --gtest_repeat="$repeats" >>"$log" 2>&1 || failed=1
    done
    stop_hogs
    awk -v repeats="$repeats" '
      / ms\)$/ && /^\[       OK \]/ { name = $4; pass[name]++; seen[name] = 1 }
      / ms\)$/ && /^\[  FAILED  \]/ { name = $4; sub(/,$/, "", name); seen[name] = 1 }
      END {
        for (name in seen) {
          printf "    %d/%d  %s\n", pass[name], repeats, name
          if (pass[name] < repeats) bad = 1
        }
        exit bad
      }' "$log" | sort -k2 || failed=1
    rm -f "$log"
  done
  if (( failed )); then
    echo "==> [stress] failures above" >&2
    exit 1
  fi
}

MATRIX_START=$(date +%s)
for stage in "${STAGES[@]}"; do
  STAGE_START=$(date +%s)
  case "$stage" in
    plain)
      # The plain tree runs everything: unit + integration suites, the
      # shmcaffe-lint repo scan (`-L lint`), and the lock-order detector
      # guards embedded in the concurrency suites.  Then perfbench/ must
      # still compile against the changed sources.
      run_stage plain build "" ""
      lint_coverage_gate build
      perfbench_build
      ;;
    tsan)
      # Data-race + (via the LockOrder guard tests) deadlock-potential pass
      # over the suites that drive real threads.
      run_stage tsan build-tsan thread "-L tsan" shm_tests
      ;;
    asan)
      # Heap/stack/UB pass over the full suite; `address` also enables UBSan.
      run_stage asan build-asan address ""
      ;;
    lint)
      # Static half (`ctest -L lint`: the repo scan + rule unit tests), then
      # the lock-coverage snapshot gate.
      run_stage lint build "" "-L lint" shm_tests shmcaffe-lint
      lint_coverage_gate build
      ;;
    recovery)
      # Focused gate for the recovery layer (replicated-SMB failover,
      # checkpoints, re-admission): its suite in the plain tree, then the
      # same tests under ThreadSanitizer — failover and re-admission are
      # concurrency hot spots.
      run_stage recovery-plain build "" "-L recovery" shm_tests
      run_stage recovery-tsan build-tsan thread "-L recovery" shm_tests
      ;;
    elastic)
      # Focused gate for the elastic membership layer (live join/drain,
      # shard rebalancing, straggler quarantine): its suite in the plain
      # tree, then under ThreadSanitizer — membership transitions race
      # against live training — and finally the simulated elastic bench,
      # byte for byte against the committed snapshot.
      run_stage elastic-plain build "" "-L elastic" shm_tests
      run_stage elastic-tsan build-tsan thread "-L elastic" shm_tests
      exact_snapshot_gate elastic bench_ext_elastic BENCH_elastic.json
      ;;
    integrity)
      # Focused gate for the data-integrity layer (chunk checksums,
      # verify-on-read, replica read-repair, scrubbing): its suite in the
      # plain tree, then the same tests under AddressSanitizer+UBSan — the
      # checksum and repair paths do raw byte-span arithmetic over segment
      # storage, so memory errors are the failure mode to hunt — and finally
      # the simulated integrity bench, byte for byte against the committed
      # snapshot.
      run_stage integrity-plain build "" "-L integrity" shm_tests
      run_stage integrity-asan build-asan address "-L integrity" shm_tests
      exact_snapshot_gate integrity bench_ext_integrity BENCH_integrity.json
      ;;
    simd)
      # Kernel-core tier cross-check: build a second tree with the SIMD tier
      # compiled out (-DSHMCAFFE_SIMD=OFF forces the scalar cores) and run
      # the kernel-equivalence suites in both.  The contract under test is
      # bitwise identity: the `simd`-labelled tests hash training floats and
      # kernel outputs, and those hashes must agree between the two builds
      # (each build asserts its own invariance; the shared expectations in
      # the tests pin the cross-build equality).
      run_stage simd-on build "" "-L simd" shm_tests
      echo "==> [simd] configure + build (build-scalar, SIMD tier off: shm_tests)"
      cmake -B build-scalar -S . -DSHMCAFFE_SIMD=OFF >/dev/null
      build_clean simd-scalar build-scalar --target shm_tests
      echo "==> [simd] ctest -L simd (scalar cores)"
      (cd build-scalar && ctest --output-on-failure -j "$JOBS" -L simd)
      ;;
    bench)
      # Micro-kernel throughput snapshot.  Optimised tree (the sanitizer
      # trees and default RelWithDebInfo mismeasure the kernels), fenced only
      # against a baseline from the same host: kernel throughput depends on
      # the core count and SIMD tier.  One process can read a row 40% off on
      # a shared VM, so the fence sees the per-row median of three.
      kernel_snapshot_gate
      ;;
    stress)
      stress_stage "$REPEATS"
      ;;
    *)
      echo "unknown stage '$stage' (expected plain|tsan|asan|lint|recovery|elastic|integrity|simd|stress|bench)" >&2
      exit 2
      ;;
  esac
  echo "==> [$stage] stage wall clock: $(( $(date +%s) - STAGE_START ))s"
done

echo "==> all stages passed ($(( $(date +%s) - MATRIX_START ))s total)"
