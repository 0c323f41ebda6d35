#!/usr/bin/env bash
# The frame ledger in one command: every workload, every end-to-end
# metric by name with its unit, outputs checked. Extra arguments are
# passed on, e.g.
#
#   ledger/run.sh                                  all five workloads once
#   ledger/run.sh --trace 1                        ... plus the per-layer runs
#   ledger/run.sh --smoke                          output checks only, a few seconds
#   ledger/run.sh --repeat 10 --sets 2 --out ledger/baseline.json
#   ledger/run.sh --compare ledger/baseline.json target/ledger/all.json
set -euo pipefail
cd "$(dirname "$0")/.."
rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
# A tree with uncommitted changes is not the commit it sits on.
[ -z "$(git status --porcelain 2>/dev/null)" ] || rev="$rev+uncommitted"
exec cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- \
    --all --seed 1 --rev "$rev" "$@"
