package main

import (
	"encoding/json"
	"math/rand/v2"
	"slices"
	"time"
)

// Study load: an open loop of /v1/study requests at a fixed rate. 80%
// of requests come from a hot set of specs that hit the daemon's LRU
// after their first request; the rest are novel specs, never sent
// before, whose (H, SL) shapes mostly miss the process-wide memos too.
const (
	studyRate     = 200 // requests per second
	hotSpecs      = 8
	studyConns    = 2 // connections and sender goroutines
	minH, maxH    = 1024, 65536
	minSL, maxSL  = 1024, 8192
	axisStep      = 64
	maxRatioSteps = 300 // flop-vs-bw ratios 1.00, 1.01, ..., 4.00
)

// studySpec is one distinct study request and what the generator
// expects of it.
type studySpec struct {
	Hs     []int     `json:"h"`
	SLs    []int     `json:"sl"`
	FlopBW []float64 `json:"flopbw"`
	// points is how many comm-fraction points a correct answer holds;
	// zero means no Table-3 TP divides any H, so the spec has no
	// runnable point and the correct answer is a 4xx.
	points int
	body   []byte
}

// expectOK reports whether the spec has a runnable point.
func (s *studySpec) expectOK() bool { return s.points > 0 }

// loadPlan is the whole request sequence of a run: which spec each
// request sends and when it is due.
type loadPlan struct {
	specs    []*studySpec
	requests []int // spec index per request
	interval time.Duration
}

// due is when request i should be sent, relative to the load's start.
func (l *loadPlan) due(i int) time.Duration { return time.Duration(i) * l.interval }

// newLoadPlan generates n requests from seed. The same seed gives the
// same specs in the same order.
func newLoadPlan(seed uint64, n int) *loadPlan {
	rng := rand.New(rand.NewPCG(seed, 0x57d1))
	l := &loadPlan{interval: time.Second / studyRate}
	seen := map[string]bool{}
	add := func(draw func(*rand.Rand) *studySpec) int {
		for {
			s := draw(rng)
			if !seen[string(s.body)] {
				seen[string(s.body)] = true
				l.specs = append(l.specs, s)
				return len(l.specs) - 1
			}
		}
	}
	hot := make([]int, hotSpecs)
	for i := range hot {
		hot[i] = add(hotSpec)
	}
	// Exactly one request in each block of five is novel, at a seeded
	// position, so the hot share is 80% in every run and not only on
	// average.
	novelAt := 0
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			novelAt = i + rng.IntN(5)
		}
		if i == novelAt {
			l.requests = append(l.requests, add(novelSpec))
		} else {
			l.requests = append(l.requests, hot[rng.IntN(len(hot))])
		}
	}
	return l
}

// novelSpec draws two H values and one or two SL values, each a
// multiple of 64 within the Table-3 ranges, and one to three
// flop-vs-bw ratios; TP takes the Table-3 default.
func novelSpec(rng *rand.Rand) *studySpec {
	return newSpec(rng,
		distinctInts(rng, 2, minH/axisStep, maxH/axisStep, axisStep),
		distinctInts(rng, 1+rng.IntN(2), minSL/axisStep, maxSL/axisStep, axisStep),
		1+rng.IntN(3))
}

// hotSpec draws a spec of fixed size: two H values that every Table-3
// TP divides (multiples of 16384), two SL values and three ratios, so
// 84 points. Hot specs are answerable, or they would never reach the
// cache, and their fixed size keeps the cost of the hit path from
// depending on which specs a seed makes hot.
func hotSpec(rng *rand.Rand) *studySpec {
	const step = 16384
	return newSpec(rng,
		distinctInts(rng, 2, 1, maxH/step, step),
		distinctInts(rng, 2, minSL/axisStep, maxSL/axisStep, axisStep),
		3)
}

// newSpec completes a spec with nRatios distinct flop-vs-bw ratios and
// its expected point count.
func newSpec(rng *rand.Rand, hs, sls []int, nRatios int) *studySpec {
	s := &studySpec{Hs: hs, SLs: sls}
	for _, k := range distinctInts(rng, nRatios, 0, maxRatioSteps, 1) {
		s.FlopBW = append(s.FlopBW, 1+float64(k)/100)
	}
	for _, h := range s.Hs {
		s.points += runnableTPs(h) * len(s.SLs) * len(s.FlopBW)
	}
	s.body, _ = json.Marshal(s) // a struct of int and float slices always encodes
	return s
}

// distinctInts draws n distinct values k*step with k in [lo, hi],
// sorted ascending.
func distinctInts(rng *rand.Rand, n, lo, hi, step int) []int {
	var out []int
	for len(out) < n {
		v := (lo + rng.IntN(hi-lo+1)) * step
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}
