#!/usr/bin/env bash
# Runs every workload once, untraced, and prints each one's phases and its
# result line. Exits non-zero as soon as a workload fails an output check.
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Run it from the root of the repository.
set -euo pipefail

for w in expand-cold expand-hot search; do
	echo "== $w"
	bash perfbench/run.sh --workload "$w" --seed "${1:-1}" --seconds "${2:-10}" --trace 0
done
