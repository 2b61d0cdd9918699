package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1).
// It refuses, with an error, a percentile that fewer than minBeyond
// samples lie beyond.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(rank, 1)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// outcome classifies one attempted update.
type outcome int

const (
	delivered outcome = iota
	errored           // the call into the program returned an error
	unseen            // its value never appeared in the result
	tooLate           // (mesh) reached HQ, but later than κ after its due instant
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	delivered: "delivered",
	errored:   "errored",
	unseen:    "unseen",
	tooLate:   "late",
}

// tally counts updates against the number attempted: every outcome but
// delivered is a miss.
type tally struct{ n [numOutcomes]int }

func (t *tally) add(o outcome) { t.n[o]++ }

func (t *tally) merge(o tally) {
	for i := range t.n {
		t.n[i] += o.n[i]
	}
}

func (t tally) attempted() int {
	s := 0
	for _, c := range t.n {
		s += c
	}
	return s
}

func (t tally) failed() int { return t.attempted() - t.n[delivered] }

// missFrac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) missFrac() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}

func (t tally) String() string {
	s := fmt.Sprintf("attempted=%d", t.attempted())
	for i, c := range t.n {
		if i != int(delivered) && c > 0 {
			s += fmt.Sprintf(" %s=%d", outcomeNames[i], c)
		}
	}
	return s
}

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point.  Start and End are nanoseconds since the run's
// origin; Parent is the 1-based index of the span that caused it (0 for
// a root).
type span struct {
	Name       string
	Parent     int
	Start, End int64
}

// spanLog keeps a run's spans in memory; they are reduced to per-layer
// figures when the run ends.
type spanLog struct{ spans []span }

// add records a span and returns its id for use as a child's Parent.
func (l *spanLog) add(name string, parent int, start, end int64) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(l.spans)
}

// durations returns the wall durations (ns) of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval that its child spans cover (overlapping children
// are counted once; child time outside the parent is ignored).
func (l *spanLog) selfTimes(name string) []float64 {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-covered(s, children[i+1])))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
