#!/usr/bin/env bash
# CI entry point: tier-1 verification + sanitizer passes + throughput gate.
#
#   ./ci.sh          # everything below
#   ./ci.sh fast     # tier-1 build + ctest only
#
# Stages:
#   1. tier-1: default build, full ctest suite (the ROADMAP acceptance bar),
#              then the cloudbench self-test (cloudbench/tests/selftest.py):
#              every benchmark workload for about a second, each op's bytes
#              checked and each restart required clean -- zero orphans,
#              stale ids, aborted puts and repairs after reconcile
#   2. asan:   -DCSHIELD_SANITIZE=address, full ctest suite (includes
#              obs_test and recovery_test, so the telemetry layer, the
#              journal codec fuzz sweeps, and the crash-injection harness
#              all run under ASan here)
#   3. tsan:   -DCSHIELD_SANITIZE=thread, concurrency_test (the shared-
#              MetadataStore / two-front-end interleaving harness, telemetry
#              on) + obs_test (metrics/tracer semantics under TSan) +
#              chaos_test (retry/hedge/breaker layer under injected faults)
#              + recovery_test (journal append path + background scrubber
#              thread against live traffic, including the group-commit
#              multi-threaded append hammer and its crash-at-every-batch-
#              boundary replay checks) + health_test (the exporter sampler
#              thread and watchdog polling racing live metric writers)
#              + fragmentation_test (the differential/property battery for
#              the fast-fragmentation entangle/detangle kernels, including
#              the arm-switching bit-identity sweep)
#              + migration_test (the provider-lifecycle registry hammer --
#              concurrent drain/activate churn against eligibility readers
#              -- plus the background Migrator running alongside live reads)
#              + shardplane_test (the N-way partitioned metadata/journal
#              plane: 8 front-ends x 64 clients hammering a shared 4-shard
#              plane, routing-discipline checks, and the per-shard
#              crash-at-every-append-boundary recovery sweep)
#   4. crash-e2e: scripted end-to-end crash drill against cshield_cli on a
#              disk-backed root: put files, kill the process mid-stripe via
#              CSHIELD_CRASH_AFTER_APPENDS (it _exit(42)s inside a journal
#              append, before the record hits disk), restart, `recover`,
#              and verify every committed file reads back byte-identical,
#              the in-flight put is aborted with its orphan shards GC'd,
#              and a second `recover` is a no-op. The drill runs twice:
#              once with the default per-op commit and once with journal
#              group commit enabled (--batch-ops 8 --batch-ms 2), so the
#              crash/recover contract is proven identical under batching.
#              A sharded pass repeats the drill on a 4-way partitioned
#              metadata plane (--meta-shards 4): the crash tears one
#              shard's journal, recovery replays all four in parallel, and
#              the shard-count discipline is then checked directly --
#              `stats` with no flag auto-detects 4 shards from the journal
#              stamp, an explicit matching --meta-shards 4 is accepted, and
#              a mismatched --meta-shards 2 is rejected with a clear
#              "shard count mismatch" error before any mutation.
#              A third pass round-trips a file stored with `put ...
#              --protection fragmentation`, proving the key-less entangled
#              protection mode survives a full process restart (metadata v2
#              persistence of the mode + nonce) and reads back byte-identical.
#              A fourth drill (run against the ASan-built cli) covers the
#              dynamic-topology migration: join a 9th provider, kill the
#              process mid-drain via the same crash hook, verify the restart
#              reports the provider still draining with the migration
#              pending, `recover` resumes and finishes it, a second
#              `recover` is a no-op, and the file reads back byte-identical
#              before the drained provider is decommissioned.
#   5. ops-plane e2e: cshield_cli with --export-file on a real workload;
#              the JSONL sample stream must be non-empty and the final
#              Prometheus exposition must pass promtool-style line
#              validation (every line a `# TYPE` declaration or a
#              `name{labels} value` sample) and carry the build-info and
#              process gauges; `cshield_cli health` must report a healthy
#              deployment (exit 0) with every SLO listed.
#   6. forced-scalar: -DCSHIELD_FORCE_SCALAR=ON + ASan build that compiles
#              the SIMD kernel arms and the SHA-NI sha256 arm out entirely,
#              then runs kernels_test, crypto_test, fragmentation_test, and
#              raid_test so the portable scalar/SWAR data plane and the
#              portable sha256 arm are exercised under a sanitizer
#              (crypto_test also re-executes itself with the env override
#              and checks that sha256 binds its portable arm). The
#              TSan binaries from stage 3 are also re-run with the
#              CSHIELD_FORCE_SCALAR=1 env override, covering the runtime
#              (no-rebuild) dispatch path.
#   7. bench:  bench_throughput writes BENCH_throughput.json at the repo
#              root and exits non-zero unless the pipelined engine beats the
#              serial baseline by >= 3x on 64-chunk put AND get, AND the
#              telemetry overhead gate holds (enabled vs disabled telemetry
#              within 5% on the 64-chunk put+get pair, with the metrics
#              exporter sampling at 100 ms on the enabled side; recorded
#              under "overhead_gate" in the JSON), AND the journal gate holds
#              (put throughput with the WAL enabled within 10% of the
#              no-journal baseline; recorded under "journal_gate"), AND the
#              small-op gate holds (group commit + batched shard RPCs give
#              >= 3x put ops/sec over per-op commit at 64 concurrent
#              clients on 1-8 KiB files; full per-op/group-commit/batched
#              curves land in BENCH_smallops.json), AND the
#              fault smoke passes (5% seeded transient faults absorbed with
#              zero client errors; recorded under "fault_smoke"). Then
#              bench_kernels writes BENCH_kernels.json and exits non-zero
#              unless (on SIMD hosts) the vectorized mul_add and xor arms
#              are >= 4x the scalar byte loops and targeted shard rebuild
#              is >= 2x the old decode+re-encode path, and (on SHA-NI hosts)
#              the SHA-NI sha256 arm is >= 3x the portable arm at 1, 26 and
#              64 KiB (the JSON's sha256_form names the form that ran). Then
#              bench_encryption_vs_fragmentation writes BENCH_frontier.json
#              and exits non-zero unless the privacy/perf frontier gate
#              holds: for at least one privacy level, fast-fragmentation
#              sustains >= 2x partial-AES put AND get throughput under every
#              measured kernel arm (scalar always; the active SIMD arm too
#              when different) while giving a colluding k-of-n adversary no
#              more plaintext coverage than partial-AES does. Then
#              bench_migration writes BENCH_migration.json and exits
#              non-zero unless a single provider join AND a single drain
#              each relocate <= 35% of live shard slots (vs ~100% for a
#              naive rehash) with every file byte-identical after, and a
#              throttled background drain under 5% transient faults serves
#              every concurrent read with zero failures. Then
#              bench_shardplane writes BENCH_shardplane.json and exits
#              non-zero unless the shard-plane gates hold at 64 clients:
#              a 4-shard plane sustains >= 2x the per-op put ops/sec of a
#              single-shard plane (median of rep-paired ratios), group
#              commit + batched RPCs on the 4-shard plane keep the PR 6
#              >= 3x small-op gate (with an honest single-core fallback
#              form recorded in the JSON), and parallel recovery of 4
#              torn journals beats sequential replay by >= 1.5x wall
#              clock (or, on single-core hosts, stays within 25% paired
#              overhead while the per-shard critical path shows >= 1.5x
#              headroom). Every gate runs even when an earlier one fails;
#              the stage then names each failed gate and exits non-zero.
set -euo pipefail
cd "$(dirname "$0")"

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== [1/7] tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

if [[ "${1:-}" == "fast" ]]; then
  echo "fast mode: skipping cloudbench self-test, sanitizer, crash-e2e, and bench stages"
  exit 0
fi

echo "== [1/7] cloudbench self-test: every workload briefly, clean restart =="
python3 cloudbench/tests/selftest.py

echo "== [2/7] address sanitizer: build + ctest =="
cmake -B build-asan -S . -DCSHIELD_SANITIZE=address >/dev/null
cmake --build build-asan -j "${jobs}"
(cd build-asan && ctest --output-on-failure -j "${jobs}")

echo "== [3/7] thread sanitizer: concurrency_test + obs_test + chaos_test + recovery_test + health_test + fragmentation_test + migration_test + shardplane_test =="
cmake -B build-tsan -S . -DCSHIELD_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${jobs}" --target concurrency_test obs_test \
  chaos_test recovery_test health_test fragmentation_test migration_test \
  shardplane_test
./build-tsan/tests/concurrency_test
./build-tsan/tests/obs_test
./build-tsan/tests/chaos_test
./build-tsan/tests/recovery_test
./build-tsan/tests/health_test
./build-tsan/tests/fragmentation_test
./build-tsan/tests/migration_test
./build-tsan/tests/shardplane_test

echo "== [4/7] crash e2e: put, kill mid-stripe, recover, verify =="
cli=./build/examples/cshield_cli
e2e="$(mktemp -d /tmp/cshield_e2e.XXXXXX)"
trap 'rm -rf "${e2e}"' EXIT

# crash_drill <label> [cli flags...]: the full drill against a fresh root.
# Extra flags (e.g. --batch-ops/--batch-ms) apply to every cli invocation,
# so the crash, the recovery replay, and the reads all run under the same
# journal commit mode.
crash_drill() {
  local label="$1"; shift
  local dir="${e2e}/${label}"
  local root="${dir}/root"
  mkdir -p "${dir}"

  "${cli}" "${root}" init 12 "$@"
  "${cli}" "${root}" adduser alice secret 2 "$@"

  # Commit three files; each put journals kBeginPut + kCommitPut and the
  # write-through mirror makes every shard durable before put returns.
  local i
  for i in 1 2 3; do
    head -c $((4000 * i)) /dev/urandom > "${dir}/f${i}.bin"
    "${cli}" "${root}" put alice secret "f${i}" "${dir}/f${i}.bin" 2 "$@"
  done

  # Kill the fourth put mid-stripe: the first append (kBeginPut) lands, the
  # process dies inside the second (kCommitPut) before it reaches disk. That
  # leaves an in-flight put whose shards are on-disk orphans.
  head -c 9000 /dev/urandom > "${dir}/f4.bin"
  set +e
  CSHIELD_CRASH_AFTER_APPENDS=1 \
    "${cli}" "${root}" put alice secret f4 "${dir}/f4.bin" 2 "$@"
  local crash_rc=$?
  set -e
  if [[ "${crash_rc}" -ne 42 ]]; then
    echo "crash e2e[${label}]: expected injected crash exit 42, got ${crash_rc}" >&2
    exit 1
  fi

  # Restart + reconcile: the torn journal replays, the in-flight put is
  # aborted, and its orphan shards are collected.
  local recover_out
  recover_out="$("${cli}" "${root}" recover "$@")"
  echo "${recover_out}"
  if ! grep -q "recover OK" <<< "${recover_out}"; then
    echo "crash e2e[${label}]: first recover failed" >&2
    exit 1
  fi
  if grep -q "recover OK: 0 orphan" <<< "${recover_out}"; then
    echo "crash e2e[${label}]: expected orphan shards from the aborted put, found none" >&2
    exit 1
  fi
  if ! grep -q "1 in-flight puts aborted" <<< "${recover_out}"; then
    echo "crash e2e[${label}]: expected exactly one aborted in-flight put" >&2
    exit 1
  fi

  # A second recover must be a no-op: nothing left to abort or collect.
  local recover_again
  recover_again="$("${cli}" "${root}" recover "$@")"
  echo "${recover_again}"
  if ! grep -q "recover OK: 0 orphan shards removed, 0 stale ids dropped, 0 in-flight puts aborted, 0 shards repaired" \
      <<< "${recover_again}"; then
    echo "crash e2e[${label}]: second recover was not idempotent" >&2
    exit 1
  fi

  # Every committed file must read back byte-identical; the aborted one must
  # be gone entirely.
  for i in 1 2 3; do
    "${cli}" "${root}" get alice secret "f${i}" "${dir}/f${i}.out" "$@"
    cmp "${dir}/f${i}.bin" "${dir}/f${i}.out"
  done
  if "${cli}" "${root}" get alice secret f4 "${dir}/f4.out" "$@" 2>/dev/null; then
    echo "crash e2e[${label}]: aborted put f4 is unexpectedly readable" >&2
    exit 1
  fi

  # Scrub the recovered deployment: a clean pass must find zero mismatches.
  local scrub_out
  scrub_out="$("${cli}" "${root}" scrub "$@")"
  echo "${scrub_out}"
  if ! grep -q "0 digest mismatches" <<< "${scrub_out}"; then
    echo "crash e2e[${label}]: scrub found mismatches on a recovered deployment" >&2
    exit 1
  fi
  echo "crash e2e[${label}]: PASS"
}

# Same drill, both journal commit modes: the crash/recover contract must be
# indistinguishable with group commit enabled.
crash_drill per-op
crash_drill group-commit --batch-ops 8 --batch-ms 2

# Sharded pass: the identical drill on a 4-way partitioned metadata plane.
# The injected crash tears whichever shard's journal the fourth put routes
# to, and `recover` replays all four journals in parallel.
crash_drill meta-shards-4 --meta-shards 4

# Shard-count discipline on the recovered 4-shard root: the journal stamp
# is the source of truth. No flag -> auto-detect 4 shards; a matching flag
# is accepted; a mismatched flag must be rejected up front with a clear
# error, leaving the plane untouched.
shard_root="${e2e}/meta-shards-4/root"
stats_out="$("${cli}" "${shard_root}" stats)"
if ! grep -q -- "--- journal (4 shards) ---" <<< "${stats_out}"; then
  echo "shard e2e: stats did not auto-detect the 4-shard plane" >&2
  exit 1
fi
for k in 0 1 2 3; do
  if ! grep -q "^shard ${k}: " <<< "${stats_out}"; then
    echo "shard e2e: stats output is missing shard ${k}" >&2
    exit 1
  fi
done
"${cli}" "${shard_root}" stats --meta-shards 4 >/dev/null
set +e
mismatch_out="$("${cli}" "${shard_root}" stats --meta-shards 2 2>&1)"
mismatch_rc=$?
set -e
if [[ "${mismatch_rc}" -eq 0 ]]; then
  echo "shard e2e: --meta-shards 2 on a 4-shard plane was not rejected" >&2
  exit 1
fi
if ! grep -q "shard count mismatch" <<< "${mismatch_out}"; then
  echo "shard e2e: mismatch rejection lacks the 'shard count mismatch' error" >&2
  exit 1
fi
echo "crash e2e[shard-count discipline]: PASS"

# Fast-fragmentation protection mode e2e: store a file with the key-less
# entangled mode, then read it back from fresh processes. The mode and its
# nonce must round-trip through the v2 metadata image across the restart.
frag="${e2e}/frag"
frag_root="${frag}/root"
mkdir -p "${frag}"
"${cli}" "${frag_root}" init 12
"${cli}" "${frag_root}" adduser alice secret 3
head -c 50000 /dev/urandom > "${frag}/f1.bin"
"${cli}" "${frag_root}" put alice secret f1 "${frag}/f1.bin" 3 \
  --protection fragmentation
"${cli}" "${frag_root}" get alice secret f1 "${frag}/f1.out"
cmp "${frag}/f1.bin" "${frag}/f1.out"
echo "crash e2e[fragmentation round-trip]: PASS"

# Migration crash drill, run under ASan: join a provider, kill the process
# mid-drain (the crash hook fires inside the 3rd journal append -- after
# kBeginMigrate and a couple of shard moves, before the drain completes),
# then prove the restart sees the pending drain, `recover` resumes and
# finishes it, recovery is idempotent, and no byte of the file was lost.
asan_cli=./build-asan/examples/cshield_cli
mig="${e2e}/migration"
mig_root="${mig}/root"
mkdir -p "${mig}"
"${asan_cli}" "${mig_root}" init 8
"${asan_cli}" "${mig_root}" adduser alice secret 2
head -c 100000 /dev/urandom > "${mig}/f1.bin"
"${asan_cli}" "${mig_root}" put alice secret f1 "${mig}/f1.bin" 2

join_out="$("${asan_cli}" "${mig_root}" add-provider Zephyr 3 2)"
echo "${join_out}"
if ! grep -q "join Zephyr OK" <<< "${join_out}"; then
  echo "migration e2e: join of Zephyr did not complete" >&2
  exit 1
fi
"${asan_cli}" "${mig_root}" get alice secret f1 "${mig}/f1.join.out"
cmp "${mig}/f1.bin" "${mig}/f1.join.out"

set +e
CSHIELD_CRASH_AFTER_APPENDS=3 \
  "${asan_cli}" "${mig_root}" drain Zephyr
mig_rc=$?
set -e
if [[ "${mig_rc}" -ne 42 ]]; then
  echo "migration e2e: expected injected crash exit 42, got ${mig_rc}" >&2
  exit 1
fi

# The restarted world must report the interrupted drain, not hide it.
providers_out="$("${asan_cli}" "${mig_root}" providers)"
echo "${providers_out}"
if ! grep -q "draining" <<< "${providers_out}"; then
  echo "migration e2e: Zephyr is not reported as draining after the crash" >&2
  exit 1
fi
if ! grep -q "drain pending" <<< "${providers_out}"; then
  echo "migration e2e: pending drain not surfaced after the crash" >&2
  exit 1
fi

# recover sweeps the orphan the mid-move crash left, then resumes the drain.
mig_recover="$("${asan_cli}" "${mig_root}" recover)"
echo "${mig_recover}"
if ! grep -q "resuming drain of Zephyr" <<< "${mig_recover}"; then
  echo "migration e2e: recover did not resume the pending drain" >&2
  exit 1
fi
if ! grep -q "drain Zephyr OK" <<< "${mig_recover}"; then
  echo "migration e2e: resumed drain did not complete" >&2
  exit 1
fi

# Idempotent: a second recover has nothing to collect and nothing to resume.
mig_again="$("${asan_cli}" "${mig_root}" recover)"
echo "${mig_again}"
if ! grep -q "recover OK: 0 orphan shards removed" <<< "${mig_again}"; then
  echo "migration e2e: second recover was not a no-op" >&2
  exit 1
fi
if grep -q "resuming" <<< "${mig_again}"; then
  echo "migration e2e: second recover re-ran a completed migration" >&2
  exit 1
fi

"${asan_cli}" "${mig_root}" get alice secret f1 "${mig}/f1.drain.out"
cmp "${mig}/f1.bin" "${mig}/f1.drain.out"
decomm_out="$("${asan_cli}" "${mig_root}" decommission Zephyr)"
echo "${decomm_out}"
if ! grep -q "decommission Zephyr OK" <<< "${decomm_out}"; then
  echo "migration e2e: decommission of the drained provider failed" >&2
  exit 1
fi
echo "crash e2e[migration drain]: PASS"

echo "== [5/7] ops plane e2e: --export-file stream + exposition validation + health =="
ops="${e2e}/ops"
ops_root="${ops}/root"
mkdir -p "${ops}"
"${cli}" "${ops_root}" init 12
"${cli}" "${ops_root}" adduser alice secret 2
head -c 60000 /dev/urandom > "${ops}/f1.bin"
"${cli}" "${ops_root}" put alice secret f1 "${ops}/f1.bin" 2 \
  --export-file "${ops}/put.jsonl"
"${cli}" "${ops_root}" get alice secret f1 "${ops}/f1.out" \
  --export-file "${ops}/get.jsonl"
cmp "${ops}/f1.bin" "${ops}/f1.out"

# Each command's JSONL stream: at least one sample line, each a single
# JSON object stamped with t_ns.
for stream in put get; do
  if [[ "$(grep -c '^{"t_ns":' "${ops}/${stream}.jsonl")" -lt 1 ]]; then
    echo "ops e2e: expected >= 1 JSONL sample in ${stream}.jsonl" >&2
    exit 1
  fi
done

# Promtool-style validation of each exposition: every non-empty line is a
# `# TYPE name counter|gauge|histogram` declaration or a `name{labels}
# value` sample, and the required series are present (the op counter the
# command itself bumped, plus the build-info/process/watchdog series).
validate_prom() {
  local prom="$1"; shift
  awk '
    /^$/ { next }
    /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/ { next }
    { print "ops e2e: malformed exposition line: " $0; bad = 1 }
    END { exit bad }
  ' "${prom}"
  local series
  for series in cshield_build_info process_uptime_seconds \
      watchdog_inflight_ops "$@"; do
    if ! grep -q "^${series}" "${prom}"; then
      echo "ops e2e: ${prom} is missing ${series}" >&2
      exit 1
    fi
  done
}
validate_prom "${ops}/put.jsonl.prom" cdd_put_file_total
validate_prom "${ops}/get.jsonl.prom" cdd_get_file_total

# The health engine on a freshly exercised deployment: exit 0 (not
# critical), every subsystem SLO present, overall healthy.
health_out="$("${cli}" "${ops_root}" health)"
echo "${health_out}"
if ! grep -q "^overall: healthy" <<< "${health_out}"; then
  echo "ops e2e: expected a healthy deployment" >&2
  exit 1
fi
for slo in availability latency.put latency.get journal.flush \
    scrub.integrity breakers batcher.queue migration; do
  if ! grep -q "  ${slo}: " <<< "${health_out}"; then
    echo "ops e2e: health report is missing SLO ${slo}" >&2
    exit 1
  fi
done
echo "ops e2e: PASS"

echo "== [6/7] forced-scalar: ASan build without SIMD arms + env-override TSan rerun =="
cmake -B build-scalar -S . -DCSHIELD_FORCE_SCALAR=ON \
  -DCSHIELD_SANITIZE=address >/dev/null
cmake --build build-scalar -j "${jobs}" --target kernels_test crypto_test \
  fragmentation_test raid_test
./build-scalar/tests/kernels_test
./build-scalar/tests/crypto_test
./build-scalar/tests/fragmentation_test
./build-scalar/tests/raid_test
# Same coverage through the runtime switch: the SIMD arms are compiled in
# but the env override pins dispatch to the scalar byte loops.
CSHIELD_FORCE_SCALAR=1 ./build-tsan/tests/concurrency_test
CSHIELD_FORCE_SCALAR=1 ./build-tsan/tests/recovery_test

echo "== [7/7] perf gates: bench_throughput + bench_kernels + frontier + migration + shardplane =="
failed_gates=()
# run_gate <name> <command...>: runs one gate, recording it when it fails.
run_gate() {
  local name="$1"; shift
  if ! "$@"; then failed_gates+=("${name}"); fi
}
run_gate bench_throughput ./build/bench/bench_throughput BENCH_throughput.json
run_gate bench_kernels ./build/bench/bench_kernels BENCH_kernels.json
run_gate bench_encryption_vs_fragmentation \
  ./build/bench/bench_encryption_vs_fragmentation BENCH_frontier.json
run_gate bench_migration ./build/bench/bench_migration BENCH_migration.json
run_gate bench_shardplane ./build/bench/bench_shardplane BENCH_shardplane.json
if [[ "${#failed_gates[@]}" -ne 0 ]]; then
  echo "ci.sh: perf gates failed: ${failed_gates[*]}" >&2
  exit 1
fi

echo "== ci.sh: all stages passed =="
