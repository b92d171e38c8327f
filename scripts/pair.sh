#!/bin/sh
# make pair BASE=<ref> [W=<workload>] [N=10] [S=1]
#
# Alternating parent/change pairs of the benchmark, the protocol every perf
# claim in this repo is judged by (benchmark/README.md, ROADMAP item 1a):
# BASE is checked out into .bench_build/pair/base, both trees' ./benchmark are
# built with the settings benchmark/run.sh uses, and N pairs run with
# --seconds 18 --trace 0, pair i on seed S+i-1 for both sides, the side that
# goes first alternating. Every run's end-to-end metric lines are appended to
# .bench_build/PAIR_<base>_<W>.tsv; the report is over this invocation's runs.
# The working tree is the change: commit or not, what is on disk is measured.
set -eu
base=${1:?usage: pair.sh BASE [workload] [pairs] [first seed]}
w=${2:-ecommerce_checkout}
n=${3:-10}
s=${4:-1}

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
pair="$build/pair"
commit=$(git -C "$root" rev-parse --short "$base")
tsv="$build/PAIR_${commit}_$w.tsv"
run=$(date +%Y%m%dT%H%M%S)

rm -rf "$pair/base"
mkdir -p "$pair/base"
git -C "$root" archive "$base" | tar -x -C "$pair/base"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$pair/base" && go build -o "$pair/base.bin" ./benchmark)
(cd "$root" && go build -o "$pair/change.bin" ./benchmark)

# one <side> <seed> <pair> <order>: a run from its own tree, metric lines to the tsv.
one() {
	case $1 in base) dir="$pair/base" ;; *) dir="$root" ;; esac
	(cd "$dir" && "$pair/$1.bin" --workload "$w" --seed "$2" --seconds 18 --trace 0) > "$pair/run.out" || {
		cat "$pair/run.out" >&2
		echo "pair: $1 run failed (pair $3, seed $2)" >&2
		exit 1
	}
	awk -v run="$run" -v p="$3" -v seed="$2" -v side="$1" -v ord="$4" '
		/ is better, bound / { printf "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n", run, p, seed, side, ord, $1, $2, $3, $4 }
	' "$pair/run.out" >> "$tsv"
}

i=1
while [ "$i" -le "$n" ]; do
	seed=$((s + i - 1))
	if [ $((i % 2)) -eq 1 ]; then first=base second=change; else first=change second=base; fi
	echo "pair $i/$n on $w, seed $seed: $first, then $second" >&2
	one $first $seed $i 1
	one $second $seed $i 2
	i=$((i + 1))
done

# Per metric: the parent's median and quartiles, the change's median, the
# difference, and in how many pairs the change read better (ties count for
# neither side). The pair rule: better in at least nine tenths of the pairs,
# and the medians further apart than the parent's own inter-quartile range.
awk -F'\t' -v run="$run" -v base="$commit" -v w="$w" '
	function sorted(src, n, dst,    i, j, v) {
		for (i = 1; i <= n; i++) {
			v = src[i]
			for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
			dst[j + 1] = v
		}
	}
	function quantile(a, n, q,    h, lo) {
		h = (n - 1) * q + 1
		lo = int(h)
		if (lo >= n) return a[n]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	$1 == run {
		m = $6
		if (!(m in seen)) { seen[m] = 1; order[++metrics] = m; unit[m] = $8; better[m] = $9 }
		val[m, $4, $2] = $7
		if ($2 > pairs) pairs = $2
	}
	END {
		printf "%s: %d pairs, %s (parent) vs the working tree (change)%s\n", w, pairs, base, pairs < 10 ? "; a claim needs ten" : ""
		printf "%-16s %12s %25s %12s %8s %6s  %s\n", "metric", "parent", "[q1 .. q3]", "change", "delta", "wins", "pair rule"
		for (k = 1; k <= metrics; k++) {
			m = order[k]
			wins = 0
			for (p = 1; p <= pairs; p++) {
				b[p] = val[m, "base", p]; c[p] = val[m, "change", p]
				if (better[m] == "higher" ? c[p] > b[p] : c[p] < b[p]) wins++
			}
			sorted(b, pairs, sb); sorted(c, pairs, sc)
			mb = quantile(sb, pairs, 0.5); mc = quantile(sc, pairs, 0.5)
			q1 = quantile(sb, pairs, 0.25); q3 = quantile(sb, pairs, 0.75)
			gap = mc - mb; if (gap < 0) gap = -gap
			good = (better[m] == "higher" ? mc > mb : mc < mb)
			met = (good && wins * 10 >= pairs * 9 && gap > q3 - q1) ? "met" : "not met"
			printf "%-16s %12.4f %25s %12.4f %+7.1f%% %3d/%-2d  %s (%s, %s is better)\n", m, mb, sprintf("[%.4f .. %.4f]", q1, q3), mc, mb ? 100 * (mc - mb) / mb : 0, wins, pairs, met, unit[m], better[m]
		}
	}
' "$tsv"
echo "rows appended to $tsv"
