package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise, so a run keeps
// adding passes until every reported percentile is supported.
const minBeyond = 10

// rank is the 1-based nearest rank of the q-percentile among n samples.
// The epsilon keeps q·n from rounding up past a whole rank (0.99·1000).
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// beyond returns how many of n samples lie above the nearest-rank
// q-percentile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supported reports whether n samples support reporting the
// q-percentile.
func supported(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// quantile returns the nearest-rank q-quantile of xs, leaving xs
// untouched, or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), q)-1]
}

// median is the 0.5 quantile of an unsorted sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// chunk is the raw samples of consecutive passes.
type chunk struct {
	latMs   []float64 // decided bookings
	lateMs  []float64 // every booking sent
	wall    float64   // seconds spent sending
	decided int
}

func (c *chunk) merge(o chunk) {
	c.latMs = append(c.latMs, o.latMs...)
	c.lateMs = append(c.lateMs, o.lateMs...)
	c.wall += o.wall
	c.decided += o.decided
}

// chunkStats are one chunk's figures.
type chunkStats struct {
	p50, p99, rps, lateP99 float64
	samples                int
}

func (c chunk) stats() chunkStats {
	return chunkStats{
		p50:     quantile(c.latMs, 0.5),
		p99:     quantile(c.latMs, 0.99),
		rps:     float64(c.decided) / c.wall,
		lateP99: quantile(c.lateMs, 0.99),
		samples: len(c.latMs),
	}
}

// chunker groups passes into chunks of enough samples to support a p99
// each. Reporting the median of per-chunk figures, rather than one
// figure over the pooled samples, keeps a stretch of a run on a briefly
// slower machine from setting the run's figure. Only the latest closed
// chunk and the open one keep raw samples, so the benchmark's own
// memory stays flat however long a run is and live_heap_mb measures
// the daemon.
type chunker struct {
	summarized []chunkStats
	last       *chunk
	open       chunk
	// samples counts decided bookings over every chunk.
	samples int
}

// add appends one pass and closes the open chunk once its samples
// support a p99.
func (c *chunker) add(latMs, lateMs []float64, wallS float64, decided int) {
	c.samples += len(latMs)
	c.open.merge(chunk{latMs: latMs, lateMs: lateMs, wall: wallS, decided: decided})
	if !supported(len(c.open.latMs), 0.99) {
		return
	}
	if c.last != nil {
		c.summarized = append(c.summarized, c.last.stats())
	}
	closed := c.open
	c.last = &closed
	c.open = chunk{}
}

// stats returns every chunk's figures, with a trailing partial chunk
// folded into the last closed one.
func (c *chunker) stats() []chunkStats {
	out := append([]chunkStats(nil), c.summarized...)
	if c.last == nil {
		if len(c.open.latMs) > 0 {
			out = append(out, c.open.stats())
		}
		return out
	}
	var last chunk
	last.merge(*c.last)
	last.merge(c.open)
	return append(out, last.stats())
}

// medianOver is the median across chunks of f(chunk).
func medianOver(cs []chunkStats, f func(chunkStats) float64) float64 {
	vals := make([]float64, len(cs))
	for i, c := range cs {
		vals[i] = f(c)
	}
	return median(vals)
}
