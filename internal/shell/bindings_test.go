package shell

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/guarantee"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// ownershipSpec is a cascade over every owner a firing's bindings can
// have: r1 fires locally and its W(B) triggers r2, which uses other
// parameter names and a step guard reading them; both run on pooled maps
// that return to the free list.  r3's map leaves shell s in a remote send
// and the receive path executes it on t, where r4 matches and fires
// through t's FireDelay timer.
const ownershipSpec = `
site S
site T
private A @ S
private B @ S
private C @ S
private D @ T
private E @ T
rule r1: Ws(A(k), a) ->5s W(B(k), a)
rule r2: W(B(j), v) ->5s (v > 1 && j != "k3")? W(C(j), v)
rule r3: W(C(n), x) ->5s W(D(n), x)
rule r4: W(D(m), y) ->5s W(E(m), y)
`

const ownershipKeys = 4

func ownershipGuarantees() []guarantee.Guarantee {
	return []guarantee.Guarantee{
		guarantee.Follows{X: "A", Y: "B"},
		guarantee.Follows{X: "B", Y: "C"},
		guarantee.Follows{X: "C", Y: "D"},
		guarantee.MetricFollows{X: "D", Y: "E", Kappa: 10 * time.Millisecond},
	}
}

// ownershipRun drives a seeded update stream through shells s (site S,
// inline firing) and t (site T, 3ms FireDelay) with the given worker
// count on a shared trace, draining both between virtual-clock steps so
// the run is deterministic on either engine.
func ownershipRun(t *testing.T, workers, updates int) (*trace.Trace, []*Shell) {
	t.Helper()
	sp, err := rule.ParseSpecString(ownershipSpec)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.NewSharded(nil, workers)
	bus := transport.NewBus(clk, 500*time.Microsecond)
	s := New("s", sp, Options{Clock: clk, Trace: tr, Workers: workers})
	s.AddSite("S", nil)
	s.Route("T", "t")
	ts := New("t", sp, Options{Clock: clk, Trace: tr, Workers: workers, FireDelay: 3 * time.Millisecond})
	ts.AddSite("T", nil)
	ts.Route("S", "s")
	shells := []*Shell{s, ts}
	for _, sh := range shells {
		if err := sh.Attach(bus); err != nil {
			t.Fatal(err)
		}
		if err := sh.Start(); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		clk.Advance(time.Millisecond)
		for _, sh := range shells {
			sh.Drain()
		}
	}
	rng := rand.New(rand.NewSource(11))
	counters := make([]int64, ownershipKeys)
	for u := 0; u < updates; u++ {
		k := rng.Intn(ownershipKeys)
		counters[k]++
		s.Spontaneous(data.Item("A", data.NewString(fmt.Sprintf("k%d", k))),
			data.NewInt(counters[k]-1), data.NewInt(counters[k]))
		s.Drain()
		step()
	}
	for i := 0; i < 10; i++ {
		step()
	}
	for _, sh := range shells {
		sh.Stop()
	}
	return tr, shells
}

// TestBindingsOwnershipSerialParallel pins the free-list contract: no
// recycled bindings map is read after it returns to the list.  The serial
// engine recycles through one exec and the partitioned engine through
// several, so a map reused while still referenced would make a timeline
// or a verdict diverge between them.
func TestBindingsOwnershipSerialParallel(t *testing.T) {
	const updates = 300
	serialTr, serialShells := ownershipRun(t, 1, updates)
	parTr, _ := ownershipRun(t, 4, updates)

	if serialTr.Len() != parTr.Len() {
		t.Fatalf("event counts differ: serial %d, parallel %d", serialTr.Len(), parTr.Len())
	}
	for k := 0; k < ownershipKeys; k++ {
		key := data.NewString(fmt.Sprintf("k%d", k))
		for _, base := range []string{"A", "B", "C", "D", "E"} {
			item := data.Item(base, key)
			s, p := values(serialTr, item), values(parTr, item)
			if s != p {
				t.Errorf("timeline %s differs:\n  serial   %s\n  parallel %s", item, s, p)
			}
		}
	}
	// The guard drops k3 and each key's first value, so C never copies
	// them; everything else reaches E.
	if got := values(serialTr, data.Item("E", data.NewString("k3"))); got != "null," {
		t.Errorf("E(k3) = %s, want no values past r2's guard", got)
	}
	if got := values(serialTr, data.Item("E", data.NewString("k0"))); got == "null," {
		t.Error("E(k0) took no values; the cascade did not reach r4")
	}

	rules := append([]rule.Rule(nil), serialShells[0].spec.Rules...)
	for _, sh := range serialShells {
		rules = append(rules, sh.ImplicitRules()...)
	}
	for name, tr := range map[string]*trace.Trace{"serial": serialTr, "parallel": parTr} {
		if vs := trace.NewChecker(rules).Check(tr); len(vs) != 0 {
			t.Errorf("%s trace: %d violations, first: %s", name, len(vs), vs[0])
		}
	}
	want := guarantee.CheckAll(serialTr, ownershipGuarantees()...)
	got := guarantee.CheckAll(parTr, ownershipGuarantees()...)
	if !guarantee.EqualVerdicts(want, got) {
		t.Fatalf("verdicts differ:\n  serial   %+v\n  parallel %+v", want, got)
	}
	for _, r := range want {
		if !r.Holds || r.Checked == 0 {
			t.Errorf("guarantee %s: %+v", r.Guarantee, r)
		}
	}
}
