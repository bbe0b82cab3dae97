#!/usr/bin/env bash
# Regenerates perfbench/golden.json: the SHA-256 digest of each
# workload's virtual-time output, per seed, produced by the repository's
# own CLI (not by the benchmark), so a benchmark pass that matches it
# proves the benchmark's probes leave the simulated machine unchanged.
#
#   fleet          per machine seed: BENCH_fleet.json, then every other
#                  artifact the case writes, in byte order of name
#   wordcount-ssd  the rendered fig13b table (genesys run -runs 1)
#
# Run from the repository root: bash perfbench/mkgolden.sh [SEED...]
set -euo pipefail
cd "$(dirname "$0")/.."
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
	seeds=(1 2 3 4 5 6 7 8 9 10 1000)
fi
tmp=.bench_build/golden
rm -rf "$tmp"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/genesys" ./cmd/genesys

# A fleet pass at seed S runs machine seeds 4(S-1)+1 ... 4S.
fleet() {
	local out="$tmp/fleet-$1" first=$((4 * ($1 - 1) + 1))
	local subs=($first $((first + 1)) $((first + 2)) $((first + 3)))
	"$tmp/genesys" bench -parallel 1 -seeds "$(IFS=,; echo "${subs[*]}")" -out "$out" fleet >/dev/null
	for s in "${subs[@]}"; do
		(cd "$out/seed-$s" && cat BENCH_fleet.json $(LC_ALL=C ls | grep -v '^BENCH_fleet.json$'))
	done | sha256sum | cut -d' ' -f1
}

# The run command prints the table, a blank line, a wall-time line and
# another blank line; the digest covers the table alone.
figure() {
	"$tmp/genesys" run -runs 1 -seed "$2" "$1" | head -n -3 | sha256sum | cut -d' ' -f1
}

entries() {
	local sep=""
	for s in "${seeds[@]}"; do
		printf '%s\n    "%s": "%s"' "$sep" "$s" "$("$@" "$s")"
		sep=","
	done
}

{
	printf '{\n  "fleet": {'
	entries fleet
	printf '\n  },\n  "wordcount-ssd": {'
	entries figure fig13b
	printf '\n  }\n}\n'
} >"$tmp/golden.json"
mv "$tmp/golden.json" perfbench/golden.json
