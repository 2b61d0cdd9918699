package main

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/trace"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{999, 0.99, 0, false},   // 9 beyond
		{100, 0.90, 90, true},
		{100, 0.95, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(samples(c.n), c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
	}
}

func TestMissFracCountsEveryFailureAgainstAttempted(t *testing.T) {
	const kappa = 10 * time.Millisecond
	arr := schedule(1, 1000, 10*time.Millisecond, 4, 2) // 10 arrivals, due 0..9ms
	errs := make([]error, len(arr))
	hq := make([]int64, len(arr))
	for i, a := range arr {
		hq[i] = int64(a.due + time.Millisecond)
	}
	errs[1] = errors.New("branch write refused")
	hq[1] = 0
	hq[4] = 0                           // never seen at HQ
	hq[7] = int64(arr[7].due + 2*kappa) // seen, but after κ
	hq[8] = int64(arr[8].due + kappa)   // exactly κ: on time
	tl, lat := classifyMesh(arr, errs, hq, kappa)
	if tl.attempted() != 10 || tl.failed() != 3 || tl.missFrac() != 0.3 {
		t.Fatalf("tally %v: attempted=%d failed=%d miss=%v, want 10, 3, 0.3", tl, tl.attempted(), tl.failed(), tl.missFrac())
	}
	if tl.n[errored] != 1 || tl.n[unseen] != 1 || tl.n[tooLate] != 1 {
		t.Fatalf("tally %v: want one errored, one unseen, one late", tl)
	}
	for i, l := range lat {
		if reached := hq[i] != 0 && errs[i] == nil; reached != (l >= 0) {
			t.Fatalf("update %d: latency %v, reached HQ %v", i, l, reached)
		}
	}
	var empty tally
	if empty.missFrac() != 0 {
		t.Fatalf("miss fraction of nothing attempted = %v, want 0", empty.missFrac())
	}
}

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	var l spanLog
	root := l.add("relstore.exec", 0, 0, 100)
	l.add("transport.send", root, 10, 30)
	l.add("transport.send", root, 20, 40)         // overlaps its sibling: counted once
	kid := l.add("transport.send", root, 90, 120) // only 90..100 is inside the parent
	l.add("deep", kid, 95, 99)                    // a grandchild is not the root's child
	other := l.add("relstore.exec", 0, 200, 250)
	l.add("transport.send", other, 260, 270) // wholly outside its parent

	if got, want := l.selfTimes("relstore.exec"), []float64{100 - 30 - 10, 50}; !equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if got, want := l.selfTimes("transport.send"), []float64{20, 20, 30 - 4, 10}; !equal(got, want) {
		t.Fatalf("child self times %v, want %v", got, want)
	}
	if got, want := l.durations("relstore.exec"), []float64{100, 50}; !equal(got, want) {
		t.Fatalf("durations %v, want %v", got, want)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A sink that stalls once must show up in the latency of the arrivals
// queued behind the stall when latency is taken from the due instant;
// taken from the send instant it would hide.
func TestStallRaisesDueTimeLatency(t *testing.T) {
	const stall = 50 * time.Millisecond
	arr := schedule(1, 1000, 100*time.Millisecond, 4, 1)
	var calls atomic.Int64
	loop := runOpenLoop(time.Now(), arr, 1, func(a arrival) error {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		return nil
	})
	for i := range arr {
		if loop.issued[i] == 0 && i > 0 {
			t.Fatalf("arrival %d was never issued", i)
		}
	}
	next := 20 // the arrival right after the stalled one (index 19)
	dueLat := time.Duration(loop.done[next]) - arr[next].due
	sendLat := time.Duration(loop.done[next] - loop.issued[next])
	if dueLat < stall-2*time.Millisecond {
		t.Fatalf("due-time latency after a %v stall is %v; the stall is hidden", stall, dueLat)
	}
	if sendLat >= stall/2 {
		t.Fatalf("send-instant latency %v should not include the stall", sendLat)
	}
	if loop.lateness(arr, next) < stall-2*time.Millisecond {
		t.Fatalf("generator lateness %v after the stall, want about %v", loop.lateness(arr, next), stall)
	}
}

// The mesh gate counts a property-1 inversion between events of different
// shells, but fails on one within a shell even when the checker reports
// it against the other shell's event in between.
func TestMeshTraceGateSeparatesShells(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	type rec struct {
		host string
		ms   int
	}
	check := func(recs ...rec) (int, error) {
		tr := trace.New(data.NewInterpretation())
		for i, r := range recs {
			tr.Append(&event.Event{Time: at(r.ms), Site: r.host, Host: r.host, Desc: event.Desc{
				Op: event.OpWs, Item: data.Item("x" + r.host), OldVal: data.NewInt(int64(i)), Val: data.NewInt(int64(i + 1))}})
		}
		return checkMeshTrace(tr.Events(), trace.NewChecker(nil).Check(tr))
	}
	if n, err := check(rec{"A", 10}, rec{"B", 9}, rec{"A", 11}); err != nil || n != 1 {
		t.Fatalf("cross-shell inversion: %d counted, err %v; want 1 counted and no error", n, err)
	}
	// a2 precedes a1 of its own shell; the checker reports it against b1.
	if _, err := check(rec{"A", 10}, rec{"B", 11}, rec{"A", 9}); err == nil || !strings.Contains(err.Error(), "shell A") {
		t.Fatalf("interleaved same-shell inversion passed the gate (err %v)", err)
	}
	// a2 precedes a1 but not b1, so the checker reports nothing about it.
	if _, err := check(rec{"A", 10}, rec{"B", 8}, rec{"A", 9}); err == nil {
		t.Fatal("same-shell inversion hidden behind an earlier event of the other shell passed the gate")
	}
	if n, err := check(rec{"A", 1}, rec{"B", 2}, rec{"A", 3}); err != nil || n != 0 {
		t.Fatalf("ordered trace: %d counted, err %v", n, err)
	}
}

func TestSleeperNeverWakesEarly(t *testing.T) {
	sl := newSleeper()
	defer sl.close()
	for _, d := range []time.Duration{-time.Millisecond, 0, 50 * time.Microsecond, 300 * time.Microsecond, 2 * time.Millisecond} {
		due := time.Now().Add(d)
		sl.until(due)
		if now := time.Now(); now.Before(due) {
			t.Errorf("until(now%+v) returned %v before its due instant", d, due.Sub(now))
		}
	}
}
