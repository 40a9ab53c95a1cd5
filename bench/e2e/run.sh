#!/usr/bin/env bash
# Builds the end-to-end benchmark driver (Release, lock-rank checker off)
# into build-bench/ and runs it.
#
#   bench/e2e/run.sh --workload mix-disk --seed 1 --seconds 30 --trace 0
#   bench/e2e/run.sh                  # all three workloads, end-to-end metrics
#   bench/e2e/run.sh --trace 1        # all three, per-layer metrics + traces
#   bench/e2e/run.sh --self-test      # bad inputs must be rejected with exit 2
#
# Flags other than --self-test go to the driver unchanged (see README.md).
# Build output goes to stderr; the last stdout line of a one-workload run is
# its JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
bin="$build/sdw_e2e"
workloads=(mix-disk similar-qpipe shapes-k8)

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --target sdw_e2e -j "$(nproc)" >&2

commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export SDW_E2E_COMMIT="$commit"

if [[ "${1:-}" == "--self-test" ]]; then
  # Each line is one argument list the driver must refuse with exit 2 and
  # no result on stdout.
  bad_inputs=(
    ""
    "--bogus 1"
    "mix-disk"
    "--workload nope"
    "--workload mix-mem"
    "--workload mix-disk --seconds"
    "--workload mix-disk --seconds abc"
    "--workload mix-disk --seconds -1"
    "--workload mix-disk --seconds 0"
    "--workload mix-disk --seconds 1.5"
    "--workload mix-disk --seconds 99999999999999999999999"
    "--workload mix-disk --seed -3"
    "--workload mix-disk --seed 1x"
    "--workload mix-disk --seed="
    "--workload mix-disk --seed 1 --seed 2"
    "--workload mix-disk --trace 2"
    "--workload mix-disk --trace yes"
  )
  failures=0
  for args in "${bad_inputs[@]}"; do
    set +e
    # shellcheck disable=SC2086  # word splitting is the point
    out="$("$bin" $args 2>/dev/null)"
    code=$?
    set -e
    if [[ $code -eq 2 && -z "$out" ]]; then
      echo "self-test ok: '$args' rejected"
    else
      echo "self-test FAILED: '$args' exited $code"
      failures=$((failures + 1))
    fi
  done
  echo "self-test: $failures failure(s)"
  exit $((failures == 0 ? 0 : 1))
fi

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$bin" "$@"
  fi
done

status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" "$@" || status=1
done
exit $status
