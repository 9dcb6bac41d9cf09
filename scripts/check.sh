#!/usr/bin/env sh
# Full verification: configure, build, tests, benches, sanitizers, format.
# What CI would run.
set -e

# One base seed feeds every randomized suite and the schedule fuzzer
# (core/config.hpp). Print it on ANY failure: re-exporting the same value
# reproduces the exact sequences and schedules that failed.
INFOPIPE_SEED="${INFOPIPE_SEED:-1}"
export INFOPIPE_SEED
trap 'status=$?; if [ "$status" -ne 0 ]; then
  echo "== FAILED (exit $status) with INFOPIPE_SEED=$INFOPIPE_SEED — re-export it to reproduce ==" >&2
fi' EXIT

# Formatting first (cheap): only when clang-format is available.
if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format check =="
  find src tests bench examples \
      \( -name '*.cpp' -o -name '*.hpp' \) -print |
    xargs clang-format --dry-run --Werror
else
  echo "== clang-format not installed; skipping format check =="
fi

echo "== RelWithDebInfo build + tests + benches (INFOPIPE_SEED=$INFOPIPE_SEED) =="
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
for b in build/bench/bench_*; do "$b"; done

echo "== replay stage: record -> replay smoke + schedule fuzz =="
# The §18 claim end to end: a LIVE two-kernel-thread run of the sharded
# player (mid-flow migration included) is recorded, then replayed on the
# manual lockstep substrate — exit is nonzero unless the per-flow digests
# are bit-identical. Then the fuzzer explores 100 perturbed schedules of
# the lockstep pipeline, asserting none of them moves a digest.
replay_trace="build/sharded_player_trace.bin"
./build/examples/sharded_player --record "$replay_trace"
./build/examples/sharded_player --replay "$replay_trace"
INFOPIPE_FUZZ_SEEDS=100 ./build/tests/replay_test \
  --gtest_filter='ScheduleFuzzer.*'

echo "== elastic replay smoke: record a grow/shrink run -> replay =="
# The §19 claim end to end: the same player, but the mid-flow migration
# lands on a shard added DURING playback and the old home is retired after
# — the trace carries kScale frames and the lockstep replay must re-apply
# them at their recorded instants and still match every digest.
elastic_trace="build/sharded_player_elastic_trace.bin"
./build/examples/sharded_player --record-elastic "$elastic_trace"
./build/examples/sharded_player --replay "$elastic_trace"

echo "== end-to-end smoke: bench/e2e, all four workloads =="
# About a second per workload on a Release build in build-e2e/: every
# workload's correctness checks (delivered counts, digests, sessions) run
# through the realized glue, and a failed check exits non-zero.
bash bench/e2e/run.sh --smoke

echo "== ASan+UBSan build + tests =="
cmake -B build-sanitize -G Ninja -DCMAKE_BUILD_TYPE=Sanitize
cmake --build build-sanitize
ASAN_OPTIONS=detect_stack_use_after_return=0 \
UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-sanitize --output-on-failure

echo "== TSan build + multi-runtime suites =="
# Only the suites that exercise multiple kernel threads: the ip_shard
# cut buffers/groups, the runtime's park point and io_bridge readiness, the
# rt substrate they build on,
# the feedback suites (cross-shard loops sample buffer atomics and
# post control events between kernel threads), and the ip_balance suite
# (live migration rebinds a cut buffer's end while the far shard runs), the
# ip_mem suite (payload blocks allocated on one shard are released on
# another through the pool's lock-free foreign-return/adoption path), and
# the batch suite (span moves publish across a cut buffer's SPSC
# positions with a single store each), the net suite (SimLink's
# set_bandwidth races a kernel-thread tuner against concurrent sends),
# and the socket suite (SocketTransport runs against real kernel sockets
# while posts race the runtime's park), and the session suite (open/close churn
# from plain std::threads against live shard engines, plus the socket
# front door), and the replay suite (the recorder's tap sink is fed from
# every shard thread at once; the HB checker joins vector clocks across
# them), and the elastic suite (host kernel threads are started and
# joined mid-run while sibling shards keep streaming items through cut
# buffers). Two single-runtime suites join them because they run
# coroutines: the core execution suite and the Figure 1 player. A
# suspending thread switches straight to the next thread (direct transfer),
# so these are the suites whose fiber switches go thread to thread and
# whose fresh contexts start from another thread rather than from the
# scheduler. The remaining suites are single-threaded by construction
# (one ULT scheduler on one kernel thread) and run under ASan above.
cmake -B build-thread -G Ninja -DCMAKE_BUILD_TYPE=Thread
cmake --build build-thread
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-thread -R 'rt_runtime_test|rt_stress_test|core_exec_test|figure1_test|io_bridge_test|shard|elastic|feedback|balance|mem_test|batch|net_test|socket_transport_test|session_test|replay_test' \
    --output-on-failure
# The park point's suites and the cut buffer's (core::Buffer's
# cross-runtime handshake: shard_test, batch_test) again, each up to 20
# times: park/wake, readiness and lost-wakeup races show up as an
# occasional failure, not a steady one.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-thread -R 'io_bridge_test|rt_runtime_test|socket_transport_test|shard_test|batch_test' \
    --repeat until-fail:20 --output-on-failure

echo "== multi-process smoke: distributed_player over loopback TCP =="
# Two real OS processes exchange the stream over loopback TCP; the client
# verifies a byte-identical digest against the in-process SimLink
# reference, and the single-process --sim run must keep working.
./build/examples/distributed_player
./build/examples/distributed_player --sim
