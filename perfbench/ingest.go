package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// The ingest workload: one serial shell on the virtual clock, 64 copy
// rules Ws(Xi,b) ->5s W(Yi,b) over 512 item pairs, an unbounded
// versioned trace, and a closed loop of seeded picks over the 64 bases
// with the clock advancing 1ms per update.  No transport, monitor or WAL
// is on the path, so it isolates rule dispatch, bindings and trace
// append, plus the GC cost of a trace that only grows.
const (
	ingestRules = 64
	ingestItems = 512
	// ingestRound is the number of updates per round.  Each round starts
	// from a fresh shell, so the live heap (which grows with the trace)
	// and the GC work it causes are the same in every round.
	ingestRound = 100_000
	ingestStep  = time.Millisecond
)

func ingestSpecText() string {
	var b strings.Builder
	b.WriteString("site S\n")
	for i := 0; i < ingestItems; i++ {
		fmt.Fprintf(&b, "private X%d @ S\nprivate Y%d @ S\n", i, i)
	}
	for r := 0; r < ingestRules; r++ {
		fmt.Fprintf(&b, "rule r%d: Ws(X%d, b) ->5s W(Y%d, b)\n", r, r, r)
	}
	return b.String()
}

// ingestRig is one freshly set-up shell.
type ingestRig struct {
	sp  *rule.Spec
	clk *vclock.Virtual
	tr  *trace.Trace
	sh  *shell.Shell
	reg *obs.Registry
}

// setupIngest is the measured set-up: spec parse, construction, Start.
func setupIngest(specText string) (*ingestRig, error) {
	sp, err := rule.ParseSpecString(specText)
	if err != nil {
		return nil, err
	}
	initial := data.NewInterpretation()
	for i := 0; i < ingestItems; i++ {
		initial.Set(data.Item(fmt.Sprintf("X%d", i)), data.NewInt(0))
		initial.Set(data.Item(fmt.Sprintf("Y%d", i)), data.NewInt(0))
	}
	rig := &ingestRig{sp: sp, clk: vclock.NewVirtual(vclock.Epoch), tr: trace.New(initial), reg: obs.NewRegistry()}
	rig.sh = shell.New("ingest", sp, shell.Options{Clock: rig.clk, Trace: rig.tr, Metrics: rig.reg, Fires: obs.NewRing(16)})
	rig.sh.AddSite("S", nil)
	if err := rig.sh.Start(); err != nil {
		return nil, err
	}
	return rig, nil
}

// ingestRoundResult is one round's figures.
type ingestRoundResult struct {
	setup   time.Duration
	cost    cost
	heapMB  float64
	lat     []float64 // per-update Spontaneous wall time, ns
	tally   tally
	events  uint64
	matches float64
	stages  *ingestStages // traced rounds only
	rig     *ingestRig
}

// runIngestRound drives one round of n updates.  lat is reused storage
// for the per-update latencies.
func runIngestRound(specText string, seed int64, n int, lat []float64, traced bool) (*ingestRoundResult, error) {
	t0 := time.Now()
	rig, err := setupIngest(specText)
	if err != nil {
		return nil, err
	}
	defer rig.sh.Stop()
	res := &ingestRoundResult{setup: time.Since(t0), lat: lat[:n], rig: rig}

	rng := rand.New(rand.NewSource(seed))
	targets := make([]data.ItemName, ingestRules)
	for i := range targets {
		targets[i] = data.Item(fmt.Sprintf("X%d", i))
	}
	last := make([]int64, ingestRules)
	picks := make([]int32, n)
	for u := range picks {
		picks[u] = int32(rng.Intn(ingestRules))
	}

	// Every update's Spontaneous call is timed: it returns once the copy
	// to Yi has been written (the serial engine runs the firing inline),
	// so its wall time is the update's latency.
	start := readUsage()
	for u := 0; u < n; u++ {
		i := picks[u]
		v := int64(u + 1)
		c0 := time.Now()
		rig.sh.Spontaneous(targets[i], data.NewInt(last[i]), data.NewInt(v))
		res.lat[u] = float64(time.Since(c0))
		last[i] = v
		rig.clk.Advance(ingestStep)
	}
	res.cost = costSince(start)
	res.heapMB = liveHeapMB(rig)
	res.events = rig.tr.TotalEvents()
	res.matches = rig.reg.Snapshot().Sum("cmtk_shell_rule_matches_total")

	events := rig.tr.Events()
	if err := checkIngest(rig, events, last, n, &res.tally); err != nil {
		return res, err
	}
	if traced {
		res.stages = replayIngest(rig, events)
	}
	return res, nil
}

// checkIngest is the round's correctness gate: the Appendix A.2 checker
// finds nothing, every update's value was copied to its Yi, every Yi
// equals its Xi at the end, and each update recorded exactly two events.
func checkIngest(rig *ingestRig, events []*event.Event, last []int64, n int, t *tally) error {
	copied := map[string]int{}
	for _, e := range events {
		if e.Desc.Op == event.OpW {
			copied[e.Desc.Item.Base+"="+e.Desc.Val.String()]++
		}
	}
	for _, e := range events {
		if e.Desc.Op != event.OpWs {
			continue
		}
		k := "Y" + strings.TrimPrefix(e.Desc.Item.Base, "X") + "=" + e.Desc.Val.String()
		if copied[k] == 1 {
			t.add(delivered)
		} else {
			t.add(unseen)
		}
	}
	if got := t.attempted(); got != n {
		return fmt.Errorf("ingest: %d of %d updates reached the trace", got, n)
	}
	if t.failed() > 0 {
		return fmt.Errorf("ingest: %d updates never reached their Yi (%s)", t.failed(), t)
	}
	if err := checkCopies("ingest", rig.tr.Final(), last); err != nil {
		return err
	}
	if rig.tr.TotalEvents() != uint64(2*n) {
		return fmt.Errorf("ingest: %d events for %d updates, want exactly 2 per update", rig.tr.TotalEvents(), n)
	}
	return nil
}

// checkCopies fails when some Yi differs from its Xi, or an Xi does not
// hold the last value written to it (last[i], 0 when never written).
func checkCopies(workload string, final data.Interpretation, last []int64) error {
	for i, v := range last {
		x := final.Get(data.Item(fmt.Sprintf("X%d", i)))
		y := final.Get(data.Item(fmt.Sprintf("Y%d", i)))
		if (v != 0 && x.Int() != v) || !y.Equal(x) {
			return fmt.Errorf("%s: final X%d=%v Y%d=%v, want both %d", workload, i, x, i, y, v)
		}
	}
	return nil
}

// ingestChecked is the size of the round the Appendix A.2 checker runs
// over.  The checker rebuilds interpretations event by event (about
// 0.4ms per update here), far too slow for the measured rounds, so each
// phase starts with one smaller, unmeasured round that it checks in full.
const ingestChecked = 2000

// checkedIngestRound drives one unmeasured round through the same
// generator and runs the Appendix A.2 checker over its trace.
func checkedIngestRound(specText string, seed int64) (tally, error) {
	lat := make([]float64, ingestChecked)
	r, err := runIngestRound(specText, seed, ingestChecked, lat, false)
	if err != nil || r == nil {
		return tally{}, err
	}
	rig := r.rig
	rig.clk.Advance(time.Minute) // let every obligation's δ elapse
	checker := trace.NewChecker(append(rig.sp.Rules, rig.sh.ImplicitRules()...))
	if vs := checker.Check(rig.tr); len(vs) > 0 {
		return r.tally, fmt.Errorf("ingest: Appendix A.2 checker found %d violations, first: %v", len(vs), vs[0])
	}
	return r.tally, nil
}

// ingestStages is the stage table: the round's recorded work replayed
// through each layer's public entry point, in ns.
type ingestStages struct {
	matchPerEvent  float64 // rule: Template.MatchInto of the owning rule, per Ws event
	clonePerMatch  float64 // event: Bindings.Clone, per match
	appendPerEvent float64 // trace: Append into a fresh trace.New, per event
	eventsPerUpd   float64
	matchesPerUpd  float64
}

// replayIngest times the three stages by replaying the round's recorded
// events.  The shell's match loop calls MatchInto with reused scratch
// bindings and clones them once per firing; the replay does the same.
func replayIngest(rig *ingestRig, events []*event.Event) *ingestStages {
	owner := map[string]*rule.Rule{}
	for i := range rig.sp.Rules {
		r := &rig.sp.Rules[i]
		owner[r.LHS.Item.Base] = r
	}
	var ws []*event.Event
	for _, e := range events {
		if e.Desc.Op == event.OpWs {
			ws = append(ws, e)
		}
	}
	st := &ingestStages{}

	scratch := event.Bindings{}
	t0 := time.Now()
	for _, e := range ws {
		clear(scratch)
		owner[e.Desc.Item.Base].LHS.MatchInto(e.Desc, scratch)
	}
	st.matchPerEvent = float64(time.Since(t0)) / float64(len(ws))

	// Clone the bindings of each match, collected outside the clock.
	var matched []event.Bindings
	for _, e := range ws {
		if b, ok := owner[e.Desc.Item.Base].LHS.Match(e.Desc); ok {
			matched = append(matched, b)
		}
	}
	clones := make([]event.Bindings, len(matched))
	t0 = time.Now()
	for i, b := range matched {
		clones[i] = b.Clone()
	}
	st.clonePerMatch = float64(time.Since(t0)) / float64(max(len(matched), 1))

	// Append copies of the recorded events (with their provenance links
	// remapped) into a fresh trace; copying happens before the clock.
	copies := make([]*event.Event, len(events))
	bySeq := make(map[uint64]*event.Event, len(events))
	for i, e := range events {
		c := &event.Event{Time: e.Time, Site: e.Site, Host: e.Host, Desc: e.Desc, Rule: e.Rule}
		if e.Trigger != nil {
			c.Trigger = bySeq[e.Trigger.Seq]
		}
		bySeq[e.Seq] = c
		copies[i] = c
	}
	fresh := trace.New(rig.tr.Initial())
	t0 = time.Now()
	for _, c := range copies {
		fresh.Append(c)
	}
	st.appendPerEvent = float64(time.Since(t0)) / float64(len(copies))
	return st
}

// ingestPhase runs rounds until their measured time reaches budget.
func ingestPhase(seed int64, budget time.Duration, traced bool) (*phase, error) {
	specText := ingestSpecText()
	lat := make([]float64, ingestRound)
	ph := &phase{}
	t, err := checkedIngestRound(specText, roundSeed(seed, -1))
	ph.tally.merge(t)
	if err != nil {
		return ph, err
	}
	var measured time.Duration
	var stages []*ingestStages
	var spont []float64
	for round := 0; measured < budget; round++ {
		r, err := runIngestRound(specText, roundSeed(seed, round), ingestRound, lat, traced)
		if r != nil {
			ph.tally.merge(r.tally)
		}
		if err != nil {
			return ph, err
		}
		measured += r.cost.wall
		p50, err := percentile(r.lat, 0.50)
		if err != nil {
			return ph, err
		}
		p90, err := percentile(r.lat, 0.90)
		if err != nil {
			return ph, err
		}
		p99, err := percentile(r.lat, 0.99)
		if err != nil {
			return ph, err
		}
		ph.addRound(map[string]float64{
			"updates_per_s":     float64(ingestRound) / r.cost.wall.Seconds(),
			"latency_p50_ms":    p50 / 1e6,
			"cpu_us_per_update": float64(r.cost.cpu.Microseconds()) / ingestRound,
			"heap_mb":           r.heapMB,
			"setup_s":           r.setup.Seconds(),
		}, r.cost, ingestRound)
		if traced {
			st := r.stages
			st.eventsPerUpd = float64(r.events) / ingestRound
			st.matchesPerUpd = r.matches / ingestRound
			stages = append(stages, st)
			spont = append(spont, mean(r.lat))
			ph.layerRound(map[string]float64{
				"shell.spontaneous_us.p50": p50 / 1e3,
				"shell.spontaneous_us.p99": p99 / 1e3,
				"bench.latency_p90_ms":     p90 / 1e6,
				"bench.latency_p99_ms":     p99 / 1e6,
			})
		}
		runtime.GC() // drop the round's trace before the next set-up
	}
	if traced {
		ph.set("rule.match_ns_per_event", median(field(stages, func(s *ingestStages) float64 { return s.matchPerEvent })))
		ph.set("event.bindings_clone_ns", median(field(stages, func(s *ingestStages) float64 { return s.clonePerMatch })))
		ph.set("trace.append_ns_per_event", median(field(stages, func(s *ingestStages) float64 { return s.appendPerEvent })))
		ph.set("trace.events_per_update", median(field(stages, func(s *ingestStages) float64 { return s.eventsPerUpd })))
		ph.set("shell.rule_matches_per_update", median(field(stages, func(s *ingestStages) float64 { return s.matchesPerUpd })))
		// Stage table: per-update cost of each replayed stage; the residual
		// is what the mean Spontaneous time leaves, so the rows sum to it.
		spontMean := median(spont)
		match := ph.layer["rule.match_ns_per_event"] * ph.layer["shell.rule_matches_per_update"]
		clone := ph.layer["event.bindings_clone_ns"] * ph.layer["shell.rule_matches_per_update"]
		app := ph.layer["trace.append_ns_per_event"] * ph.layer["trace.events_per_update"]
		ph.set("shell.residual_ns_per_update", spontMean-match-clone-app)
		ph.notes = append(ph.notes,
			"ingest stage table (ns per update; rows sum to the mean Spontaneous time):",
			fmt.Sprintf("  rule match (Template.MatchInto)   %10.1f", match),
			fmt.Sprintf("  bindings clone (Bindings.Clone)   %10.1f", clone),
			fmt.Sprintf("  trace append (Trace.Append x%.0f)  %10.1f", ph.layer["trace.events_per_update"], app),
			fmt.Sprintf("  residual (rest of Spontaneous)    %10.1f", ph.layer["shell.residual_ns_per_update"]),
			fmt.Sprintf("  = mean Spontaneous                %10.1f", spontMean))
		if ev := ph.layer["trace.events_per_update"]; ev != 2 {
			return ph, fmt.Errorf("ingest: trace.events_per_update = %v, want 2", ev)
		}
	}
	return ph, nil
}

func field[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
