package main

import (
	"slices"
	"time"
)

// dist is a sorted sample of one quantity in one unit.
type dist []float64

func newDist(xs []float64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// pct returns the nearest-rank p-th percentile and how many samples rank
// above it. A percentile with fewer than ten samples beyond it is just
// one of the largest values, so the count is printed next to it.
func (d dist) pct(p int) (v float64, beyond int) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	rank := max(1, min((p*n+99)/100, n))
	return d[rank-1], n - rank
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// streamSeed derives the seed of one input stream (a client's requests,
// one cold taskset) from the run's seed, so every stream can be replayed
// on its own.
func streamSeed(seed uint64, parts ...uint64) uint64 {
	h := splitmix(seed)
	for _, p := range parts {
		h = splitmix(h ^ p)
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
