#!/usr/bin/env bash
# CI entry point: build the plain and ASan+UBSan configurations and run the
# full test suite under both. Usage: scripts/ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

# The measured value of the results row labelled $2 in the BENCH json $1
# (empty when the row is missing).
row() {
  awk -F': ' -v label="\"label\": \"$2\"" \
      'index($0, label){grab=1} grab && /"measured"/{gsub(/,/,"",$2); print $2; exit}' "$1"
}

for preset in default asan; do
  echo "=== configure/build/test: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}"

  # The five examples drive the whole stack end to end (migration runs sls
  # recv's one receiver through three pre-copy rounds and a final delta);
  # each exits non-zero when its own check fails.
  build_dir="build"
  [[ "${preset}" == "asan" ]] && build_dir="build-asan"
  for example in quickstart kvstore_persistence migration timetravel_debugging \
                 serverless_warmstart; do
    if ! "${build_dir}/examples/${example}" >/dev/null; then
      echo "CI FAIL: example ${example} exited non-zero" >&2
      exit 1
    fi
  done

  # The lane-scaling contract is load-bearing (byte-identity + monotone
  # makespan); run it by name so a filter typo elsewhere can't silently
  # drop it from the suite.
  "${build_dir}/tests/lane_scaling_test" >/dev/null

  # So are the checksum and content-key contracts: CRC32C values persist in
  # extents, metadata and replication frames, and content keys in the dedup
  # index, so the hardware CRC must match the table reference bit for bit
  # and be the path picked on SSE4.2 hosts, and the key goldens must hold.
  "${build_dir}/tests/base_test" >/dev/null

  # So is the fault matrix (end-to-end integrity, retry masking, epoch
  # abort): run it by name too.
  "${build_dir}/tests/fault_matrix_test" >/dev/null

  # And the in-flight window: every checkpoint that flushes — periodic,
  # direct or sls_memckpt — waits for room in it before it begins.
  "${build_dir}/tests/overlap_test" >/dev/null

  # The page index behind VM objects, page tables and the standby's image
  # table must behave as the ordered map it replaced (the flush, collapse
  # and invalidation orders follow its visits), and shared frames must copy
  # before a write.
  "${build_dir}/tests/page_index_test" >/dev/null

  # And the stop-path contract (clean epochs elide protection + shootdowns,
  # restored images equal the written bytes, cache invalidation per op).
  "${build_dir}/tests/stop_path_test" >/dev/null

  # The segment-log GC contract: compaction keeps churn space flat, never
  # changes a retained epoch, and interleaves cleanly with the scrubber.
  "${build_dir}/tests/segment_gc_test" >/dev/null

  # The allocator is rebuilt from the persisted tables at every mount: every
  # crash point recovers an exact epoch, a store reused after recovery
  # changes no retained epoch, and the reference model checks the live
  # bitmap against the tables after every operation and across reopens.
  "${build_dir}/tests/crash_matrix_test" >/dev/null
  "${build_dir}/tests/objstore_model_test" >/dev/null

  # The content-addressed flush contract: dedup hits install references,
  # the index + flush options survive remount, codecs round-trip, and GC
  # moves a shared block exactly once (DESIGN.md section 17).
  "${build_dir}/tests/dedup_test" >/dev/null

  # The LZ stream format is on-media (stored lengths set device bytes):
  # pinned compressor goldens, no write past dst[len], and a seeded mutation
  # harness in which every Decompress call matches the byte-at-a-time
  # reference and stays inside its output buffer.
  "${build_dir}/tests/extent_codec_test" >/dev/null

  # The replication contract (DESIGN.md section 18): every backend honors
  # the conformance round-trip, the standby state machine survives
  # duplication/reordering/partitions/corruption, and the failover matrix
  # never promotes a torn image at any cut point of the stream.
  "${build_dir}/tests/backend_conformance_test" >/dev/null
  "${build_dir}/tests/replication_test" >/dev/null
  "${build_dir}/tests/restore_fault_test" >/dev/null

  # The epoch wire format shared by sls send/recv and the replica stream:
  # pinned frame goldens, and a seeded mutation harness in which every
  # mutant is a typed error or an exact image, and no replica mutant applies.
  "${build_dir}/tests/epoch_stream_test" >/dev/null

  # The store's on-media formats: the image golden pins every superblock,
  # metadata blob and journal block byte for byte, four decoder crashes stay
  # fixed, and in the mutation harness every superblock, journal and
  # metadata mutant is a typed error or round-trips, and mounting, scrubbing
  # and reading a damaged image stay typed.
  "${build_dir}/tests/store_golden_test" >/dev/null
  "${build_dir}/tests/store_format_test" >/dev/null

  # The manifest decoders under the same harness: no mutant crashes, leaves
  # a half-built process or a registered inode, or allocates past the test's
  # bound. The manifest golden pins the bytes of a group holding every record
  # kind, and the simulated time its serialize and restore charge.
  "${build_dir}/tests/manifest_harness_test" >/dev/null
  "${build_dir}/tests/manifest_golden_test" >/dev/null

  # Static-analysis gate: every tree — src, tools, tests, bench — must lint
  # clean under all six rule families, and the linter must prove its rules
  # still fire on the fixtures.
  "${build_dir}/tools/aurora_lint/aurora_lint" src tools tests bench
  "${build_dir}/tests/lint_test" >/dev/null

  # A refactor of the linter must never silently drop a rule family: the
  # --list-rules inventory is part of the contract.
  rules_out="$("${build_dir}/tools/aurora_lint/aurora_lint" --list-rules)"
  for family in error-propagation determinism hygiene typestate gen result; do
    if ! grep -q "\b${family}\b" <<<"${rules_out}"; then
      echo "CI FAIL: rule family '${family}' missing from aurora_lint --list-rules" >&2
      exit 1
    fi
  done

  # The ablation bench must keep exporting the per-lane flush metrics and
  # the fault-handling counters; a BENCH json without them means the lane
  # accounting or the retry/abort instrumentation regressed.
  (cd "${build_dir}" && ./bench/bench_ablations >/dev/null)
  for key in flush.lane0.bytes flush.lane0.busy_time flush.lane3.bytes \
             flush.lane3.busy_time flush.lanes io.retries ckpt.epochs_aborted \
             ckpt.stop_time vm.shootdowns_elided; do
    if ! grep -q "\"${key}\"" "${build_dir}/BENCH_ablations.json"; then
      echo "CI FAIL: ${key} missing from ${build_dir}/BENCH_ablations.json" >&2
      exit 1
    fi
  done

  # The content-addressed flush path must actually fire on the ablation's
  # redundancy-rich write profile (index hits recorded) and cut the flushed
  # bytes at least ~3x against the dedup-off baseline.
  deduped=$(awk '/"dedup_on"/{grab=1}
                 grab && /"ckpt.bytes_deduped"/{gsub(/[^0-9]/,""); print; exit}' \
            "${build_dir}/BENCH_ablations.json")
  if [[ -z "${deduped}" ]] || [[ "${deduped}" -eq 0 ]]; then
    echo "CI FAIL: ckpt.bytes_deduped is ${deduped:-missing} in the dedup_on ablation run" >&2
    exit 1
  fi
  ratio=$(row "${build_dir}/BENCH_ablations.json" "dedup flush ratio")
  if [[ -z "${ratio}" ]] || ! awk -v r="${ratio}" 'BEGIN{exit !(r <= 0.34)}'; then
    echo "CI FAIL: dedup flush ratio not <= 0.34x of raw (ratio = ${ratio:-missing})" >&2
    exit 1
  fi

  # The flush lanes carry the flusher's CPU (DESIGN.md section 12), so on
  # the ablation's content-stage machine four lanes at least halve the
  # append flush's makespan.
  lanes1=$(row "${build_dir}/BENCH_ablations.json" "flush lanes=1 makespan")
  lanes4=$(row "${build_dir}/BENCH_ablations.json" "flush lanes=4 makespan")
  if [[ -z "${lanes1}" ]] || [[ -z "${lanes4}" ]] ||
     ! awk -v a="${lanes4}" -v b="${lanes1}" 'BEGIN{exit !(a <= 0.5 * b)}'; then
    echo "CI FAIL: 4 flush lanes not <= 0.5x of 1 lane (${lanes4:-missing} vs ${lanes1:-missing} ms)" >&2
    exit 1
  fi

  # Epoch overlap must pay off: with two flushes in flight the same window
  # fits more epochs than with one.
  limit1=$(row "${build_dir}/BENCH_ablations.json" "overlap limit=1 epochs")
  limit2=$(row "${build_dir}/BENCH_ablations.json" "overlap limit=2 epochs")
  if [[ -z "${limit1}" ]] || [[ -z "${limit2}" ]] ||
     ! awk -v a="${limit2}" -v b="${limit1}" 'BEGIN{exit !(a > b)}'; then
    echo "CI FAIL: overlap limit=2 epochs (${limit2:-missing}) not > limit=1 (${limit1:-missing})" >&2
    exit 1
  fi

  # Retries are not free, but a 1 % transient fault rate costs the flush
  # under 5 % (the row is in percent).
  fault=$(row "${build_dir}/BENCH_ablations.json" "fault rate=0.010000 overhead vs clean")
  if [[ -z "${fault}" ]] || ! awk -v r="${fault}" 'BEGIN{exit !(r > 0 && r < 5)}'; then
    echo "CI FAIL: 1% fault-rate flush overhead not in (0, 5) % (${fault:-missing})" >&2
    exit 1
  fi

  # The long-horizon soak: the segment log must actually reclaim whole
  # segments and hold space flat (end-of-run within 10% of the mid-run
  # steady state) across 10^4+ retained-churn epochs.
  (cd "${build_dir}" && ./bench/bench_soak >/dev/null)
  if ! grep -q '"gc.segments_reclaimed"' "${build_dir}/BENCH_soak.json"; then
    echo "CI FAIL: gc.segments_reclaimed missing from ${build_dir}/BENCH_soak.json" >&2
    exit 1
  fi
  flat=$(row "${build_dir}/BENCH_soak.json" "segment-log end/mid used")
  if [[ -z "${flat}" ]] || ! awk -v r="${flat}" 'BEGIN{exit !(r <= 1.10)}'; then
    echo "CI FAIL: segment-log soak space not flat (end/mid = ${flat:-missing})" >&2
    exit 1
  fi

  # Cross-epoch dedup: content first stored in an earlier epoch must keep
  # resolving to index hits over the long horizon, not just within a flush.
  xhits=$(row "${build_dir}/BENCH_soak.json" "cross-epoch dedup hits")
  if [[ -z "${xhits}" ]] || ! awk -v h="${xhits}" 'BEGIN{exit !(h > 0)}'; then
    echo "CI FAIL: no cross-epoch dedup hits in the soak (hits = ${xhits:-missing})" >&2
    exit 1
  fi

  # Warm-standby failover: promotion must restore the dirty delta, not the
  # full image (>= 4x faster than the cold path), and no run — including the
  # mid-stream-crash period sweep — may ever promote a torn image.
  (cd "${build_dir}" && ./bench/bench_replication >/dev/null)
  repl_ratio=$(row "${build_dir}/BENCH_replication.json" "delta/cold failover ratio")
  if [[ -z "${repl_ratio}" ]] || ! awk -v r="${repl_ratio}" 'BEGIN{exit !(r < 0.25)}'; then
    echo "CI FAIL: delta failover not < 0.25x of cold restore (ratio = ${repl_ratio:-missing})" >&2
    exit 1
  fi
  torn=$(row "${build_dir}/BENCH_replication.json" "torn promotions")
  if [[ -z "${torn}" ]] || ! awk -v t="${torn}" 'BEGIN{exit !(t == 0)}'; then
    echo "CI FAIL: torn promotions in replication bench (count = ${torn:-missing})" >&2
    exit 1
  fi

  # The paper's claims (bench/claims.json): fig3's orderings, fig4's band
  # at 10 ms, fig6's WAL win and table7's floors against CRIU. Then the
  # results gate: every row of all eleven benches (these eight and the
  # three above) must match its committed baseline in bench/baseline/; a
  # change that moves a row on purpose regenerates that baseline with
  # `scripts/check_baseline.py --write` and explains the move in
  # EXPERIMENTS.md. The paper benches take about 40 s together and table5
  # peaks at 4.2 GiB, so only the default preset runs them.
  if [[ "${preset}" == "default" ]]; then
    for bench in fig3_filebench fig4_memcached_peak fig5_memcached_fixed fig6_rocksdb \
                 table4_posix_objects table5_memory_objects table6_apps table7_redis; do
      (cd "${build_dir}" && "./bench/bench_${bench}" >/dev/null)
    done
    python3 scripts/check_claims.py "${build_dir}"
    python3 scripts/check_baseline.py "${build_dir}"
  fi

  # A stale serialize-cache record (its generation matched, its bytes did
  # not) means a VM or POSIX mutator changed serialized state without
  # bumping its generation: no machine of the three benches may report one,
  # in the warm pass or in the stopped window.
  for bench in ablations soak replication; do
    python3 - "${build_dir}/BENCH_${bench}.json" <<'PY'
import json
import sys

path = sys.argv[1]
for machine, section in json.load(open(path))["metrics"].items():
    for key in ("ckpt.serialize_cache_stale", "ckpt.serialize_warm_stale"):
        stale = section.get("counters", {}).get(key, 0)
        if stale != 0:
            sys.exit(f"CI FAIL: {key} = {stale} in {machine} of {path}")
PY
  done
done

# UBSan-only configuration: near-native speed, so the undefined-behavior
# matrix can cover the lint engine, the checksum and content-hash word loads
# and 128-bit multiplies, the LZ codec's word loads and count-trailing-zeros
# with the dedup flush path around it, the crash/restore paths, the stop
# path and segment-log GC, the epoch wire format with its replica and
# failover paths, the store-format and manifest decoders with the object
# store and SLS suites around them, the allocator rebuild under the
# reference model, every restore source (store,
# standby and in-memory snapshot) directly, the device queues
# with the flush lanes over them, the checkpoint pipeline's window,
# abort path and region scope (overlap, fault matrix, Aurora API), and the
# page index's shifts and count-trailing-zeros under the VM suites. One list
# names each suite once: it is both built and run.
ubsan_tests=(
  lint_test base_test crash_matrix_test stop_path_test segment_gc_test epoch_stream_test
  backend_conformance_test replication_test restore_fault_test extent_codec_test dedup_test
  store_golden_test store_format_test manifest_harness_test manifest_golden_test objstore_test
  core_more_test core_test integration_test storage_test lane_scaling_test overlap_test
  fault_matrix_test api_test objstore_model_test page_index_test vm_test vm_more_test
)
echo "=== configure/build: ubsan ==="
cmake --preset ubsan
cmake --build --preset ubsan -j "${jobs}" --target "${ubsan_tests[@]}"
for test in "${ubsan_tests[@]}"; do
  "build-ubsan/tests/${test}" >/dev/null
done

# clang-tidy over src/ + tools/ with the curated .clang-tidy profile. The
# container image does not ship clang-tidy, so its absence is tolerated — but
# when present, every warning is a hard failure.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy (warnings are errors) ==="
  mapfile -t tidy_files < <(find src tools -name '*.cc' | sort)
  clang-tidy -p build --quiet --warnings-as-errors='*' "${tidy_files[@]}"
else
  echo "=== clang-tidy not found; skipping tidy pass ==="
fi
