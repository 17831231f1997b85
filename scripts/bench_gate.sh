#!/usr/bin/env bash
# CI correctness-and-budget gate: runs every smoke phase in the PHASES
# table of crates/bench/src/bin/bench_gate.rs (each phase's doc comment
# says what it checks), fails on any identity violation, on a counter over
# its exact budget, or on a phase wall-clock over its budget by more than
# 10% (budgets in scripts/bench_thresholds.json). Writes
# results/BENCH_ci.json and one record per phase to results/BENCH_gate.json.
#
# Usage:
#   scripts/bench_gate.sh            # gate against the checked-in budget
#   scripts/bench_gate.sh --update   # refresh the budget from a local run
#   scripts/bench_gate.sh --no-cache # cache off; fails a cache-on budget
#                                    # (em.cache.misses over budget)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -d results ]; then
  echo "bench_gate: results/ is missing — run from a full checkout of the repo root" >&2
  echo "bench_gate: (the gate writes results/BENCH_ci.json next to the checked-in baselines)" >&2
  exit 1
fi

cargo run --release --offline -p isop-bench --bin bench_gate -- "$@"
