#!/usr/bin/env bash
# Runs interleaved pairs of two checkouts for `bench -compare`:
#
#   bash bench/pairs.sh A_DIR B_DIR OUT_DIR [WORKLOAD...]
#
# A_DIR is the parent commit, B_DIR the change (the same directory twice
# measures the benchmark against itself). For each seed 1..PAIRS
# (default 10) and each workload (default all four), both sides run
# once at the same seed; which side goes first alternates from pair to
# pair, so slow drift of the host lands on both sides alike. Results
# are appended to OUT_DIR/A.jsonl and OUT_DIR/B.jsonl, one record per
# run: {"workload": W, "seed": S, "result": <the run's result line>}.
set -uo pipefail

a=$(cd "$1" && pwd)
b=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
shift 3
workloads=${*:-read4k rwlog fleet scaleout}
pairs=${PAIRS:-10}

one() { # checkout side workload seed
	local line
	line=$(cd "$1" && bash bench/run.sh --workload "$3" --seed "$4" --seconds 20 --trace 0 | tail -n 1)
	if [[ $line != \{* ]]; then
		echo "pairs: $2 $3 seed $4 printed no result" >&2
		return
	fi
	printf '{"workload":"%s","seed":%d,"result":%s}\n' "$3" "$4" "$line" >>"$out/$2.jsonl"
}

for s in $(seq 1 "$pairs"); do
	for w in $workloads; do
		if ((s % 2)); then
			one "$a" A "$w" "$s"
			one "$b" B "$w" "$s"
		else
			one "$b" B "$w" "$s"
			one "$a" A "$w" "$s"
		fi
	done
done
echo "compare: bash bench/run.sh -compare $out/A.jsonl $out/B.jsonl" >&2
