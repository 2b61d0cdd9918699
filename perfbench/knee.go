package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"cmtk/internal/obs"
)

// runKnee is the on-demand saturation diagnostic: it steps the mesh's
// open-loop rate and reports, per step, the updates missed, the reliable
// outbox's overflow drops and the keys that never converged, then names
// the first rate with misses.  The shells block admission at a queue
// depth of kneeQueueLimit, the setting under which the loss was first
// seen.  It is not a workload and gates nothing:
// the loss it looks for is nondeterministic, which is why the mesh
// workload runs with headroom.
func runKnee(cfg config, rates string, w io.Writer) error {
	var steps []float64
	for _, f := range strings.Split(rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 {
			return fmt.Errorf("bad rate %q", f)
		}
		steps = append(steps, r)
	}
	cfg.workload = "knee"
	printProvenance(w, cfg)
	writers := meshWriters()
	fmt.Fprintf(w, "# mesh knee, %d writers, shell queue limit %d with blocking admission\n", writers, kneeQueueLimit)
	fmt.Fprintf(w, "%10s %9s %7s %7s %7s %9s %9s %10s %10s %11s\n",
		"rate/s", "attempted", "missed", "unseen", "late", "p50_ms", "p99_ms", "gen_late", "overflow", "unconverged")
	knee := 0.0
	for i, rate := range steps {
		arr := schedule(roundSeed(cfg.seed, i), rate, time.Duration(cfg.seconds)*time.Second, meshKeys, writers)
		st := newMeshStamps(len(arr))
		rig, err := setupMesh(nil, true)
		if err != nil {
			return err
		}
		before := obs.Default.Snapshot()
		run, err := driveMesh(rig, st, arr, writers)
		if err != nil {
			rig.stop()
			return err
		}
		delta := obs.Default.Snapshot().Delta(before)
		bad, err := meshConverged(rig)
		rig.stop()
		if err != nil {
			return err
		}
		overflow := 0.0
		for k, v := range delta {
			if strings.HasPrefix(k, "cmtk_transport_outbox_dropped_total{") && strings.Contains(k, `reason="overflow"`) {
				overflow += v
			}
		}
		late := 0
		for j := range arr {
			if run.loop.lateness(arr, j) > time.Millisecond {
				late++
			}
		}
		var seen []float64
		for _, l := range run.lat {
			if l >= 0 {
				seen = append(seen, l)
			}
		}
		p50, p99 := "-", "-"
		if v, err := percentile(seen, 0.50); err == nil {
			p50 = fmt.Sprintf("%.3f", v/1e6)
		}
		if v, err := percentile(seen, 0.99); err == nil {
			p99 = fmt.Sprintf("%.3f", v/1e6)
		}
		t := run.tally
		fmt.Fprintf(w, "%10.0f %9d %7d %7d %7d %9s %9s %9.1f%% %10.0f %11d\n",
			rate, t.attempted(), t.failed(), t.n[unseen], t.n[tooLate], p50, p99,
			100*float64(late)/float64(len(arr)), overflow, len(bad))
		if knee == 0 && (t.failed() > 0 || len(bad) > 0) {
			knee = rate
		}
	}
	if knee > 0 {
		fmt.Fprintf(w, "first rate with misses: %.0f/s\n", knee)
	} else {
		fmt.Fprintln(w, "no rate missed")
	}
	return nil
}
