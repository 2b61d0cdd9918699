//go:build !race

package shell

import (
	"testing"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// TestSpontaneousAllocs gates the serial engine's firing path: a
// spontaneous write that fires one local copy rule allocates only the two
// events it records — no queued closure, no cloned bindings.  The race
// detector changes allocation counts, hence the build tag.
func TestSpontaneousAllocs(t *testing.T) {
	spec, err := rule.ParseSpecString(`
site S
private X @ S
private Y @ S
rule copy: Ws(X, b) ->5s W(Y, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	sh := New("alloc", spec, Options{Clock: clk, Trace: trace.New(nil), Metrics: obs.NewRegistry(), Fires: obs.NewRing(16)})
	sh.AddSite("S", nil)
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()
	x := itemOf("X")
	var last int64
	allocs := testing.AllocsPerRun(1000, func() {
		sh.Spontaneous(x, valueOf(last), valueOf(last+1))
		last++
		clk.Advance(time.Millisecond)
	})
	if v, ok := sh.ReadAux(itemOf("Y")); !ok || v.Int() != last {
		t.Fatalf("Y = %s, %v after %d updates; the copy rule did not fire", v, ok, last)
	}
	if allocs > 2 {
		t.Fatalf("Spontaneous allocates %.0f times per call, want at most 2 (the recorded Ws and W events)", allocs)
	}
}
