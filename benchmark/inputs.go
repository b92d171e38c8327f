package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// Input generation shared by the workloads. Inputs are drawn as exact
// quotas, not independently: a list of n draws over weighted items holds
// each item round(n * share) times and only the order comes from the seed.
// Two seeds then ask for the same amount of every kind of work in a
// different order, so a metric does not move with the seed the way it would
// if one seed happened to draw more expensive ops than another.

// zipfWeights returns the Zipf(s) shares of ranks 0..n-1.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// quotaCounts splits n draws over the items in proportion to weights: item
// i gets floor(n * weights[i]), at most limit, and what is left goes one
// each to the items with the largest remainders that are below the limit.
func quotaCounts(weights []float64, n, limit int) []int {
	counts := make([]int, len(weights))
	order := make([]int, len(weights))
	frac := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := w * float64(n)
		counts[i] = min(int(exact), limit)
		frac[i] = exact - float64(counts[i])
		order[i] = i
		left -= counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for k := 0; left > 0; k = (k + 1) % len(order) {
		if counts[order[k]] < limit {
			counts[order[k]]++
			left--
		}
	}
	return counts
}

// quota returns n draws over the items, item i appearing quotaCounts times,
// in an order shuffled by rng.
func quota(rng *rand.Rand, weights []float64, n int) []int32 {
	out := make([]int32, 0, n)
	for i, c := range quotaCounts(weights, n, n) {
		for ; c > 0; c-- {
			out = append(out, int32(i))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// poissonSchedule returns the due times of n arrivals of a Poisson process
// of the given rate, conditioned on exactly n of them falling in n/rate
// seconds: n uniform points in that window, sorted. Every seed's schedule
// spans the same time, so an open-loop rep offers exactly the stated rate.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	window := float64(n) / rate * float64(time.Second)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * window)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lens returns the length of every client's list.
func lens[T any](lists [][]T) []int {
	out := make([]int, len(lists))
	for c := range lists {
		out[c] = len(lists[c])
	}
	return out
}
