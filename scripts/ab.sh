#!/usr/bin/env bash
# The perf gate: a same-job A/B of the repository benchmark. Checks the
# merge-base of <base-ref> and HEAD out under .bench_build/, runs
# `bench/run.sh --seconds 5` there and on this tree, alternating which side
# goes first, for 3 pairs, and fails only when
#   (a) a sim_digest differs between base and head,
#   (b) head fails an op of a workload on which base failed none, or
#   (c) a head median is worse than the base median by more than the metric's
#       bound in BENCHMARK.json while base's own runs agree within that bound.
# A difference that base's own spread cannot resolve is printed as
# "unresolved" and passes. The runs' output stays in .bench_build/ab-*.log.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
cd "$(dirname "$0")/.."
out=.bench_build
tree=$out/ab-base
base=$(git merge-base "$1" HEAD)
mkdir -p $out
git worktree remove --force $tree 2>/dev/null || true
git worktree add --quiet --detach $tree "$base"
trap 'git worktree remove --force $tree' EXIT

run() { # <side> <pair>
	local dir=.
	[ "$1" = base ] && dir=$tree
	echo "== pair $2: $1"
	# A failed op makes the benchmark exit non-zero; the log says which.
	bash "$dir/bench/run.sh" --seconds 5 | tee "$out/ab-$1-$2.log" || true
}
for pair in 1 2 3; do
	order="base head"
	[ $((pair % 2)) = 0 ] && order="head base"
	for side in $order; do run $side $pair; done
done

echo "== base $base against this tree, 3 pairs"
{
	jq -r '.end_to_end[] | "bound \(.name) \(.better) \(.bound)"' BENCHMARK.json
	for side in base head; do
		for pair in 1 2 3; do sed "s/^/$side $pair /" "$out/ab-$side-$pair.log"; done
	done
} | awk '
# stats sets MED, LO and HI over the runs of one side that printed the metric.
function stats(side, w, m,    n, i, j, t, x) {
	for (i = 1; i <= 3; i++) if ((side, w, m, i) in val) x[++n] = val[side, w, m, i] + 0
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && x[j-1] > x[j]; j--) { t = x[j]; x[j] = x[j-1]; x[j-1] = t }
	LO = x[1]; HI = x[n]; MED = x[int((n + 1) / 2)]
	return n
}
function seen(w) { if (!(w in known)) { known[w] = 1; order[++nw] = w } }
$1 == "bound" { metric[++nm] = $2; better[$2] = $3; bound[$2] = $4; next }
$3 == "sim_digest" { seen($4); digest[$1, $4, $2] = $5 }
$3 == "metric" { seen($4); val[$1, $4, $5, $2] = $6 }
$3 == "FAILED" { w = ($4 == "op:") ? $5 : $4; sub(/:$/, "", w); seen(w); failed[$1, w] = 1 }
END {
	for (k = 1; k <= nw; k++) {
		w = order[k]
		for (i = 1; i <= 3; i++) {
			if (!(("base", w, i) in digest)) continue
			digests++
			if (digest["base", w, i] == digest["head", w, i]) equal++
			else {
				printf "FAIL %s pair %d: sim_digest base %s, head %s\n", w, i, digest["base", w, i], digest["head", w, i]
				bad = 1
			}
		}
		if ((("head", w) in failed) && !(("base", w) in failed)) {
			printf "FAIL %s: head fails an op, base does not\n", w
			bad = 1
		}
		for (j = 1; j <= nm; j++) {
			m = metric[j]
			if (!stats("head", w, m)) continue
			head = MED
			if (!stats("base", w, m) || LO <= 0) continue
			worse = (better[m] == "lower") ? (head - MED) / MED : (MED - head) / MED
			verdict = "ok"
			if (worse > bound[m]) verdict = ((HI - LO) / LO <= bound[m]) ? "FAIL" : "unresolved"
			if (verdict == "FAIL") bad = 1
			printf "%-10s %-12s %-17s base %-10g head %-10g %+6.1f%% worse, bound %2.0f%%, base spread %4.1f%%\n", \
				verdict, w, m, MED, head, 100 * worse, 100 * bound[m], 100 * (HI - LO) / LO
		}
	}
	printf "sim_digest: %d of %d base runs matched by head\n", equal, digests
	if (!digests) { print "FAIL: base printed no sim_digest"; bad = 1 }
	exit bad
}'
