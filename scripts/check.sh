#!/usr/bin/env bash
# check.sh — the one-command tier-1 + static-analysis gate.
#
# Configures an ASan+UBSan build, builds everything, gates src/ on the
# S-family source rules against the checked-in baseline (new concurrency/
# hot-path/syscall findings fail; accepted ones live in
# scripts/lint_baseline.txt with a reason), runs the full test suite under
# the sanitizers, smoke-runs every bench binary (so the figure/table
# generators cannot silently rot) and requires the calibration and
# topology artifacts to regenerate byte-identical to the checked-in
# BENCH_calibration.json / BENCH_topo.json, runs rvhpc-lint in --werror mode over
# the registry, the signature suite, every example .machine file and every
# bench/example C++ source (B001: no predict sweeps bypassing the engine,
# plus the S-family), replays the checked-in serve fixture cold
# and warm through rvhpc-serve (bit-identical outputs, >= 90% warm cache
# hits) plus the rvhpc-serve --gate, serves the same fixture over loopback
# TCP with --shards=2 to two concurrent rvhpc-clients (merged responses
# byte-identical to the stdio replay, graceful SIGTERM drain), pipes it
# through the live stdio connection (sorted output byte-identical to the
# replay; `| head -n 1` still drains and writes the cache), serves it
# again over HTTP/1.1 (curl batch POST + rvhpc-client --http, /metrics
# and /healthz probed, graceful drain), then re-runs the threaded
# tests under TSan to catch data races in the thread pool and the net
# event loop.  Exits non-zero on the first failure.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"$repo_root/build-check"}"

generator=()
if command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi

echo "== configure (ASan+UBSan) -> $build_dir"
cmake -B "$build_dir" -S "$repo_root" "${generator[@]}" \
  -DRVHPC_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== build"
cmake --build "$build_dir" -j

echo "== rvhpc-lint --sources src --werror (baselined: new findings fail)"
"$build_dir/src/analysis/rvhpc-lint" --werror \
  --sources "$repo_root/src" --baseline "$repo_root/scripts/lint_baseline.txt"

echo "== ctest (sanitized)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "== bench smoke-runs (every figure/table generator must still run)"
found_bench=0
for exe in "$build_dir"/bench/*; do
  [ -f "$exe" ] && [ -x "$exe" ] || continue
  case "$(basename "$exe")" in
    *.cmake|CMakeFiles) continue ;;
    micro_benchmarks)
      args=(--benchmark_filter=PredictSingleCall --benchmark_min_time=0.01) ;;
    obs_overhead|engine_throughput)
      args=(--gate) ;;
    backend_calibration)
      # The analytic-vs-interval agreement gate: model arithmetic only, no
      # wall-clock assertions, so it must pass on single-CPU runners.  The
      # JSON artifact goes to the build dir and must match the checked-in
      # BENCH_calibration.json byte for byte (compared after the loop).
      args=(--gate "--out=$build_dir/BENCH_calibration.smoke.json") ;;
    serve_throughput)
      # Front-end ordering gate (always enforced); the 1.5x speedup bar
      # self-skips on sanitized builds and < 4 hardware threads, like
      # engine_throughput.  The checked-in BENCH_serve.json is regenerated
      # deliberately, not on every CI run.
      args=(--gate "--out=$build_dir/BENCH_serve.smoke.json") ;;
    http_throughput)
      # HTTP framing gate: correctness always, the 1.25x overhead bar
      # self-skips on sanitized builds and single-thread hosts.
      args=(--gate "--out=$build_dir/BENCH_serve.http.smoke.json") ;;
    topo_scaling)
      # Topology gate: backend bottleneck agreement + the two literature
      # scaling shapes.  Pure model arithmetic, single-CPU safe.  The
      # artifact must match the checked-in BENCH_topo.json byte for byte
      # (compared after the loop).
      args=(--gate "--out=$build_dir/BENCH_topo.smoke.json") ;;
    *)
      args=() ;;
  esac
  found_bench=1
  echo "-- $(basename "$exe")"
  "$exe" "${args[@]}" > /dev/null
done
if [ "$found_bench" -eq 0 ]; then
  echo "error: no bench binaries found under $build_dir/bench/" >&2
  exit 1
fi

echo "== delta sheet: calibration + topology artifacts match the checked-in copies"
# Neither artifact carries host fields, so any byte that moves is a model
# or simulator change: regenerate the checked-in file deliberately, in
# the change that explains the drift.
cmp "$build_dir/BENCH_calibration.smoke.json" "$repo_root/BENCH_calibration.json"
cmp "$build_dir/BENCH_topo.smoke.json" "$repo_root/BENCH_topo.json"

echo "== rvhpc-lint --werror: registry + signature suite"
"$build_dir/src/analysis/rvhpc-lint" --werror

echo "== rvhpc-lint --werror: examples/machines/"
found=0
for f in "$repo_root"/examples/machines/*.machine; do
  [ -e "$f" ] || continue
  found=1
  echo "-- $f"
  "$build_dir/src/analysis/rvhpc-lint" --werror "$f"
done
if [ "$found" -eq 0 ]; then
  echo "error: no .machine files found under examples/machines/" >&2
  exit 1
fi

echo "== rvhpc-lint --werror: bench/ and examples/ sources (B001 + S-family)"
"$build_dir/src/analysis/rvhpc-lint" --werror \
  "$repo_root"/bench/*.cpp "$repo_root"/examples/*.cpp

echo "== rvhpc-serve: cold+warm replay (bit-identical, >= 90% warm hits)"
serve="$build_dir/src/serve/rvhpc-serve"
fixture="$repo_root/tests/data/serve_replay20.jsonl"
serve_tmp="$(mktemp -d)"
trap 'rm -rf "$serve_tmp"' EXIT
"$serve" --replay="$fixture" --cache-file="$serve_tmp/replay.cache" \
  --out="$serve_tmp/cold.jsonl" 2> "$serve_tmp/cold.log"
"$serve" --replay="$fixture" --cache-file="$serve_tmp/replay.cache" \
  --out="$serve_tmp/warm.jsonl" 2> "$serve_tmp/warm.log"
cmp "$serve_tmp/cold.jsonl" "$serve_tmp/warm.jsonl"
hit_rate="$(sed -n 's/.*cache-hit-rate: \([0-9.]*\)%.*/\1/p' \
  "$serve_tmp/warm.log")"
if [ -z "$hit_rate" ] ||
   ! awk -v r="$hit_rate" 'BEGIN { exit !(r >= 90.0) }'; then
  echo "error: warm replay cache-hit-rate '${hit_rate:-?}' is below 90%" >&2
  exit 1
fi
echo "-- warm replay bit-identical to cold, cache-hit-rate ${hit_rate}%"

echo "== rvhpc-serve --gate"
(cd "$serve_tmp" && "$serve" --gate)

echo "== rvhpc-serve --listen=tcp: concurrent clients match the stdio replay"
# The transport gate: serve the fixture over loopback TCP — on two event
# loop shards — to two clients running at once, SIGTERM the server, and
# require (a) the merged per-id responses byte-identical to the stdio
# replay output and (b) a graceful drain.  The fixture's requests carry
# ids, so responses may legally complete out of order across the two
# shards — the sort before cmp keeps the comparison order-insensitive,
# and each client exits non-zero unless every id it sent came back.  Two
# clients interleave regardless of core count, so this passes on
# single-CPU runners — no wall-clock assertions.
client="$build_dir/src/net/rvhpc-client"
awk 'NR % 2 == 1' "$fixture" > "$serve_tmp/half_a.jsonl"
awk 'NR % 2 == 0' "$fixture" > "$serve_tmp/half_b.jsonl"
"$serve" --listen=tcp:0 --shards=2 --no-live-fields \
  --cache-file="$serve_tmp/tcp.cache" 2> "$serve_tmp/net.log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$serve_tmp/net.log")"
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "error: rvhpc-serve never reported its TCP port" >&2
  kill "$serve_pid" 2> /dev/null || true
  exit 1
fi
"$client" --connect="127.0.0.1:$port" --in="$serve_tmp/half_a.jsonl" \
  --out="$serve_tmp/out_a.jsonl" 2> /dev/null &
client_a=$!
"$client" --connect="127.0.0.1:$port" --in="$serve_tmp/half_b.jsonl" \
  --out="$serve_tmp/out_b.jsonl" 2> /dev/null &
client_b=$!
wait "$client_a" "$client_b"
kill -TERM "$serve_pid"
wait "$serve_pid"  # the drain must be graceful: exit 0, not a crash
cat "$serve_tmp/out_a.jsonl" "$serve_tmp/out_b.jsonl" | LC_ALL=C sort \
  > "$serve_tmp/tcp_merged.jsonl"
LC_ALL=C sort "$serve_tmp/cold.jsonl" > "$serve_tmp/stdio_sorted.jsonl"
cmp "$serve_tmp/tcp_merged.jsonl" "$serve_tmp/stdio_sorted.jsonl"
grep -q "net: drained" "$serve_tmp/net.log"
echo "-- $(wc -l < "$serve_tmp/tcp_merged.jsonl") responses over TCP," \
  "byte-identical to the stdio replay; drain was graceful"

echo "== rvhpc-serve --listen=stdio: live stdio matches the stdio replay"
# Stdio is one more connection on the same shard loop as TCP and HTTP:
# the fixture piped through it must sort byte-identical to the replay,
# and a reader that leaves after one line (`| head -n 1`) must still get
# a graceful drain — exit 0, the cache file written, "net: drained"
# logged — instead of a SIGPIPE death.
"$serve" --listen=stdio --no-live-fields < "$fixture" 2> /dev/null \
  | LC_ALL=C sort > "$serve_tmp/stdio_live.jsonl"
cmp "$serve_tmp/stdio_live.jsonl" "$serve_tmp/stdio_sorted.jsonl"
# 200 copies of the fixture: more output than a pipe holds, so the
# server is still writing when head leaves.
for _ in $(seq 1 200); do cat "$fixture"; done > "$serve_tmp/many.jsonl"
set +o pipefail
"$serve" --listen=stdio --cache-file="$serve_tmp/head.cache" \
  < "$serve_tmp/many.jsonl" 2> "$serve_tmp/head.log" | head -n 1 > /dev/null
head_status="${PIPESTATUS[0]}"
set -o pipefail
if [ "$head_status" -ne 0 ]; then
  echo "error: rvhpc-serve --listen=stdio | head -n 1 exited $head_status" >&2
  exit 1
fi
[ -s "$serve_tmp/head.cache" ]
grep -q "net: drained" "$serve_tmp/head.log"
echo "-- $(wc -l < "$serve_tmp/stdio_live.jsonl") responses over live stdio," \
  "byte-identical to the replay; | head -n 1 drained gracefully"

echo "== rvhpc-serve --http: curl-able predictions match the stdio replay"
# The HTTP front-end gate: serve the same fixture over HTTP/1.1 — a
# curl batch POST streamed back chunked, plus rvhpc-client --http — and
# require the sorted responses byte-identical to the stdio replay, the
# per-route request counter on /metrics, a drain-aware /healthz and a
# graceful SIGTERM drain.  curl is optional (rvhpc-client --http always
# runs); ids make the sort order-insensitive exactly like the TCP gate.
"$serve" --http=tcp:0 --shards=2 --no-live-fields \
  --cache-file="$serve_tmp/http.cache" 2> "$serve_tmp/http.log" &
http_pid=$!
hport=""
for _ in $(seq 1 100); do
  hport="$(sed -n 's/.*http: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$serve_tmp/http.log")"
  [ -n "$hport" ] && break
  sleep 0.1
done
if [ -z "$hport" ]; then
  echo "error: rvhpc-serve never reported its HTTP port" >&2
  kill "$http_pid" 2> /dev/null || true
  exit 1
fi
if command -v curl > /dev/null 2>&1; then
  # --data-binary, not -d: -d strips the newlines that delimit the batch.
  curl -sS --data-binary "@$fixture" "http://127.0.0.1:$hport/v1/predict" \
    | LC_ALL=C sort > "$serve_tmp/http_curl.jsonl"
  cmp "$serve_tmp/http_curl.jsonl" "$serve_tmp/stdio_sorted.jsonl"
  curl -sS "http://127.0.0.1:$hport/healthz" | grep -q '"serving"'
  curl -sS "http://127.0.0.1:$hport/metrics" \
    | grep -q 'rvhpc_http_requests_total{route="/v1/predict",status="200"}'
  echo "-- curl batch POST byte-identical to the stdio replay;" \
    "/metrics and /healthz answer"
else
  echo "-- curl not found; relying on rvhpc-client --http"
fi
"$client" --http --connect="127.0.0.1:$hport" --in="$fixture" \
  --out="$serve_tmp/http_client.jsonl" 2> /dev/null
LC_ALL=C sort "$serve_tmp/http_client.jsonl" \
  > "$serve_tmp/http_client_sorted.jsonl"
cmp "$serve_tmp/http_client_sorted.jsonl" "$serve_tmp/stdio_sorted.jsonl"
kill -TERM "$http_pid"
wait "$http_pid"  # the drain must be graceful: exit 0, not a crash
grep -q "net: drained" "$serve_tmp/http.log"
echo "-- rvhpc-client --http byte-identical to the stdio replay;" \
  "drain was graceful"

echo "== configure (TSan) -> $build_dir-tsan"
# TSan cannot combine with ASan, so the thread pool's owners get their own
# build; the engine, obs and serve tests run there — they own all the
# threading in the library.
cmake -B "$build_dir-tsan" -S "$repo_root" "${generator[@]}" \
  -DRVHPC_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
# test_analysis rides along: its source-rule fixtures (S002 flag races,
# S003 lock inversions) describe exactly the bugs TSan hunts, and the
# self-scan keeps the baseline honest under a second compiler config.
# test_sim exercises two concurrent memsim consumers (interval backend +
# stall profiler), which only TSan can vouch for.
# test_topo spins up domain-pinned thread pools (TopoPlacement) — the
# placement counter and worker handoff belong under TSan too.
cmake --build "$build_dir-tsan" -j \
  --target test_engine test_obs test_serve test_net test_http test_analysis \
  test_sim test_topo
echo "== TSan: test_engine + test_obs + test_serve + test_net + test_http" \
  "+ test_analysis + test_sim + test_topo"
"$build_dir-tsan/tests/test_engine"
"$build_dir-tsan/tests/test_obs"
"$build_dir-tsan/tests/test_serve"
"$build_dir-tsan/tests/test_net"
"$build_dir-tsan/tests/test_http"
"$build_dir-tsan/tests/test_analysis"
"$build_dir-tsan/tests/test_sim"
"$build_dir-tsan/tests/test_topo"

echo "== all gates green"
