#!/usr/bin/env bash
# One benchmark run, from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 runs the untraced binary (end-to-end metrics), --trace 1 the
# traced one (per-layer metrics). Each is built in release mode on first
# use, into $CARGO_TARGET_DIR when set. The last line of standard output
# is the result as one JSON object.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
args=("$@")
trace=""
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--trace" ]]; then
    trace="${args[i + 1]}"
  fi
done
case "$trace" in
  0) package=bench-e2e ;;
  1) package=bench-traced ;;
  *)
    echo "run.sh: --trace must be 0 or 1" >&2
    exit 2
    ;;
esac
exec cargo run --quiet --release --offline --manifest-path "$dir/Cargo.toml" \
  -p "$package" --bin "$package" -- "$@"
