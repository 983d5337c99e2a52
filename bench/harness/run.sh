#!/usr/bin/env bash
# Build the benchmark runner and the monitor daemon from source, then
# run one benchmark invocation from the repository root:
#
#   bash bench/harness/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr so the last line of stdout stays the
# runner's JSON result.  Exits 2 without a result when the tree cannot
# be built (for example when only the benchmark files are present).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the repository root (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "run.sh: dune is not on PATH" >&2
  exit 2
fi

# --cache=disabled keeps every build file inside the checkout.
if ! dune build --root . --cache=disabled bench/harness/unicert_bench.exe bin/unicert_monitord.exe 1>&2; then
  echo "run.sh: build failed" >&2
  exit 2
fi

exec ./_build/default/bench/harness/unicert_bench.exe run "$@"
