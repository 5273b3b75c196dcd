package telemetry

// Quantile estimation over the pow2 histogram buckets. The buckets are
// exact integer counts — byte-deterministic at any worker count — but a
// quantile read off them is an *estimate*: within a bucket the
// distribution is assumed uniform and the value is linearly
// interpolated. The interpolation formula is an implementation detail
// the repo does not promise to keep stable, so Snapshot.Deterministic
// strips quantiles, keeping the golden deterministic dumps pinned to
// raw integers only.

// Quantile returns the estimated q-quantile (0 < q < 1) of the
// histogram's observations, derived from its power-of-two buckets and
// clamped to the observed [Min, Max]. q <= 0 returns Min, q >= 1
// returns Max, and an empty histogram returns 0.
func (h HistogramValue) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	// rank is the fractional number of observations at or below the
	// quantile point; walk the cumulative bucket counts to find the
	// bucket containing it.
	rank := q * float64(h.Count)
	var cum float64
	for _, b := range h.Buckets {
		c := float64(b.Count)
		if cum+c >= rank {
			lo, hi := float64(b.Lo), float64(b.Hi)
			v := lo
			if c > 0 && hi > lo {
				v = lo + (rank-cum)/c*(hi-lo)
			}
			return clampInt64(int64(v), h.Min, h.Max)
		}
		cum += c
	}
	return h.Max
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// quantiles populates the P50/P95/P99 estimates of a snapshot
// histogram; Snapshot calls it once per histogram.
func (h *HistogramValue) quantiles() {
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
	h.Quantiled = true
}
