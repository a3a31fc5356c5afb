#!/usr/bin/env bash
# Builds emcheck and the e2e harness from source, then runs the harness.
# Run from the repository root; arguments go to `e2e.exe run`, e.g.
#   bash bench/e2e/run.sh --workload pg6-0.3 --seed 7 --seconds 20 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d bin ] || [ ! -d lib ]; then
  echo "run.sh: not at the root of the repository (no dune-project, bin/ or lib/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

# The shared dune cache lives outside the checkout; keep every build
# output under _build/. Build messages go to stderr so the harness's
# result stays the last line of stdout.
DUNE_CACHE=disabled dune build --root . bin/emcheck.exe bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe run "$@"
