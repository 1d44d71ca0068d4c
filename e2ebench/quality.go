package main

import (
	"math"
	"sort"

	"fluxion/internal/sched"
)

// bsldTau is the bounded-slowdown threshold: runs shorter than it count
// as this long.
const bsldTau = 10

// quality holds the schedule-quality metrics, computed in simulated
// time from the completed jobs' records.
type quality struct {
	WaitMean, WaitP99, BsldMean, CoreUtil float64
}

// measureQuality computes wait, bounded slowdown and core utilization.
// Utilization is granted core-seconds over the system's core-seconds
// across each burst's busy period (first submit to last completion),
// so the drain gaps between bursts do not count as idle capacity.
func measureQuality(st *stream, recs []jobRec, idx index, totalCores int64) quality {
	byID := recIndex(recs)
	var waits []float64
	var q quality
	var granted, capacity float64
	first := 0
	for _, end := range st.BurstEnds {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, j := range st.Jobs[first:end] {
			r, ok := byID[j.ID]
			if !ok || r.State != sched.StateCompleted {
				continue
			}
			w := float64(r.Start - r.Submit)
			run := float64(r.End - r.Start)
			waits = append(waits, w)
			q.BsldMean += math.Max(1, (w+run)/math.Max(run, bsldTau))
			for _, g := range r.Grants {
				if idx[g.Path].typ == "core" {
					granted += float64(g.Units) * run
				}
			}
			lo, hi = min(lo, r.Submit), max(hi, r.End)
		}
		if hi > lo {
			capacity += float64(totalCores) * float64(hi-lo)
		}
		first = end
	}
	if len(waits) == 0 {
		return q
	}
	q.WaitMean = mean(waits)
	q.WaitP99 = percentile(waits, 0.99)
	q.BsldMean /= float64(len(waits))
	q.CoreUtil = granted / capacity
	return q
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}
