#!/usr/bin/env bash
# Checks that a change leaves the repository benchmark's surface alone: the
# benchmark pipeline runs the PARENT commit's benchmark/ against the change's
# tree, so a change may neither edit those files nor break what they compile
# against.
#
# Usage:
#   scripts/check_benchmark_frozen.sh [ref]    # ref defaults to HEAD~1
#
# Fails if the working tree differs from ref under benchmark/ or in
# BENCHMARK.json (edits, deletions and untracked files alike), then vets
# ./benchmark/ so a symbol the benchmark calls cannot silently disappear.
set -euo pipefail
cd "$(dirname "$0")/.."
ref="${1:-HEAD~1}"

if ! git rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
	echo "check_benchmark_frozen: unknown ref '$ref'" >&2
	exit 2
fi
changed="$(git diff --stat "$ref" -- benchmark BENCHMARK.json)"
untracked="$(git ls-files --others --exclude-standard -- benchmark BENCHMARK.json)"
if [ -n "$changed" ] || [ -n "$untracked" ]; then
	echo "check_benchmark_frozen: the benchmark surface differs from $ref:" >&2
	[ -n "$changed" ] && echo "$changed" >&2
	[ -n "$untracked" ] && echo "untracked: $untracked" >&2
	exit 1
fi
go vet ./benchmark/
echo "check_benchmark_frozen: benchmark/ and BENCHMARK.json match $ref; go vet ./benchmark/ clean"
