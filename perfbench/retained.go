package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/guarantee"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// The retained workload: one shell on the partitioned engine (2 workers
// over a 2-shard trace) with 32 copy bases at δ = 1s, bounded by
// guarantee-aware retention (the E18 guarantee set, a fold every 2s of
// virtual time) and made durable (interval-synced WAL journaling of
// private writes, a checkpoint on every fold).  The closed loop issues
// batches of seeded updates, 1ms of virtual time apart, and waits for
// each batch with Drain.  The trace is appended, folded and scanned by the
// monitor, so its memory stays bounded; ingest is the control.
const (
	retainedBases   = 32
	retainedWorkers = 2
	retainedCadence = 2 * time.Second
	retainedStep    = time.Millisecond
	retainedBatch   = 64
	// retainedWarm updates run before measuring, enough virtual time for
	// the retained trace to fill its band (widest lookback + hold +
	// cadence = 9s), so every window measures the steady state.
	retainedWarm = 12_000
	// retainedWindow is the number of updates per measured window.
	retainedWindow = 20_000
	// retainedSetups is how many times set-up is run and timed; the last
	// rig carries the traffic.
	retainedSetups = 15
)

func retainedSpecText() string {
	var b strings.Builder
	b.WriteString("site S\n")
	for i := 0; i < retainedBases; i++ {
		fmt.Fprintf(&b, "private X%d @ S\nprivate Y%d @ S\n", i, i)
		fmt.Fprintf(&b, "rule r%d: Ws(X%d, b) ->1s W(Y%d, b)\n", i, i, i)
	}
	return b.String()
}

// retainedGuarantees is the E18 set: metric-follows, metric-leads,
// exists-within and an invariant, every window finite so the monitor
// publishes a retention horizon.
func retainedGuarantees() ([]guarantee.Guarantee, error) {
	pred, err := rule.ParseExpr("X0 >= 0")
	if err != nil {
		return nil, err
	}
	return []guarantee.Guarantee{
		guarantee.MetricFollows{X: "X0", Y: "Y0", Kappa: 3 * time.Second},
		guarantee.MetricLeads{X: "X1", Y: "Y1", Kappa: 3 * time.Second},
		guarantee.ExistsWithin{Ref: "X2", Target: "Y2", Kappa: 3 * time.Second},
		guarantee.Invariant{Label: "x0-nonneg", Pred: pred},
	}, nil
}

// retainedBand is the ceiling on retained events, as in E18: the widest
// lookback (metric-leads 2κ = 6s) plus the strategy hold (1s) plus one
// cadence, at two events per update per step, times 3 for the phase
// alignment of advance and fold.
func retainedBand() int {
	lookback := 6*time.Second + time.Second + retainedCadence
	return 3 * int(lookback/time.Second) * int(time.Second/retainedStep) * 2
}

func retainedInitial() data.Interpretation {
	in := data.NewInterpretation()
	in.Set(data.Item("X0"), data.NewInt(0))
	return in
}

// retainedRig is one set-up shell with its store.
type retainedRig struct {
	dir string
	st  *durable.Store
	sp  *rule.Spec
	clk *vclock.Virtual
	sh  *shell.Shell
	mon *guarantee.Monitor
	reg *obs.Registry
}

// setupRetained is the measured set-up: store open, spec parse,
// construction, durable and retention enable, Start.
func setupRetained(dir, specText string) (*retainedRig, error) {
	rig := &retainedRig{dir: dir, reg: obs.NewRegistry(), clk: vclock.NewVirtual(vclock.Epoch)}
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncInterval, Metrics: rig.reg})
	if err != nil {
		return nil, err
	}
	rig.st = st
	if rig.sp, err = rule.ParseSpecString(specText); err != nil {
		return rig, err
	}
	rig.sh = newRetainedShell(rig.sp, rig.clk, rig.reg)
	if _, err := rig.sh.EnableDurable(st); err != nil {
		return rig, err
	}
	gs, err := retainedGuarantees()
	if err != nil {
		return rig, err
	}
	if rig.mon, err = guarantee.NewMonitor(gs...); err != nil {
		return rig, err
	}
	if _, err := rig.sh.EnableRetention(shell.Retention{Monitor: rig.mon, Every: retainedCadence, Store: st, CheckpointEvery: 1}); err != nil {
		return rig, err
	}
	return rig, rig.sh.Start()
}

func newRetainedShell(sp *rule.Spec, clk vclock.Clock, reg *obs.Registry) *shell.Shell {
	sh := shell.New("r", sp, shell.Options{
		Clock: clk, Trace: trace.NewSharded(retainedInitial(), retainedWorkers),
		Workers: retainedWorkers, Metrics: reg, Fires: obs.NewRing(16),
	})
	sh.AddSite("S", nil)
	return sh
}

// close stops the shell and closes the store (which writes the final
// checkpoint); it returns the store's close error.
func (r *retainedRig) close() error {
	if r.sh != nil {
		r.sh.Stop()
	}
	if r.st != nil {
		return r.st.Close()
	}
	return nil
}

// retainedLoop issues the closed loop and keeps the figures a window
// needs.
type retainedLoop struct {
	rig       *retainedRig
	rng       *rand.Rand
	targets   []data.ItemName
	last      []int64
	next      int64 // value of the next update
	nextFold  time.Time
	peak      int
	issued    []time.Time
	lat       []float64
	spont     []float64 // traced: each Spontaneous call's wall time, ns
	traced    bool
	shadow    *guarantee.Monitor
	spans     spanLog
	origin    time.Time
	depthMax  float64
	batchesIn int
}

// batch issues one batch of updates and waits for it with Drain.
func (d *retainedLoop) batch(measure bool) {
	d.issued = d.issued[:0]
	for k := 0; k < retainedBatch; k++ {
		i := d.rng.Intn(retainedBases)
		d.next++
		c0 := time.Now()
		d.issued = append(d.issued, c0)
		d.rig.sh.Spontaneous(d.targets[i], data.NewInt(d.last[i]), data.NewInt(d.next))
		if d.traced && measure {
			d.spont = append(d.spont, float64(time.Since(c0)))
		}
		d.last[i] = d.next
		to := d.rig.clk.Now().Add(retainedStep)
		if !to.Before(d.nextFold) {
			// This Advance runs the retention round (monitor advance, fold,
			// checkpoint) on the retention timer.
			d.nextFold = d.nextFold.Add(retainedCadence)
			if d.traced && measure {
				g0 := time.Now()
				d.shadow.Advance(d.rig.sh.Trace())
				d.spans.add("guarantee.advance", 0, d.ns(g0), d.ns(time.Now()))
				a0 := time.Now()
				d.rig.clk.AdvanceTo(to)
				d.spans.add("shell.retention_round", 0, d.ns(a0), d.ns(time.Now()))
				continue
			}
		}
		d.rig.clk.AdvanceTo(to)
	}
	if d.traced && measure {
		if d.batchesIn++; d.batchesIn%16 == 0 {
			snap := d.rig.reg.Snapshot()
			for k, v := range snap {
				if strings.HasPrefix(k, "cmtk_shell_partition_depth{") {
					d.depthMax = max(d.depthMax, v)
				}
			}
		}
	}
	t0 := time.Now()
	d.rig.sh.Drain()
	done := time.Now()
	if d.traced && measure {
		d.spans.add("shell.drain", 0, d.ns(t0), d.ns(done))
	}
	if measure {
		for _, at := range d.issued {
			d.lat = append(d.lat, float64(done.Sub(at)))
		}
	}
	d.peak = max(d.peak, d.rig.sh.Trace().Len())
}

func (d *retainedLoop) ns(t time.Time) int64 { return int64(t.Sub(d.origin)) }

// retainedPhase sets up retainedSetups times, warms the last rig up to
// its steady band and measures windows until their time reaches budget.
func retainedPhase(cfg config, budget time.Duration, traced bool) (*phase, error) {
	specText := retainedSpecText()
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.stateDir, "retained-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	ph := &phase{}
	var setups []float64
	var rig *retainedRig
	for i := 0; i < retainedSetups; i++ {
		t0 := time.Now()
		rig, err = setupRetained(filepath.Join(root, fmt.Sprint(i)), specText)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			if rig != nil {
				rig.close()
			}
			return ph, fmt.Errorf("retained: set-up: %w", err)
		}
		if i < retainedSetups-1 {
			if err := rig.close(); err != nil {
				return ph, fmt.Errorf("retained: closing set-up %d: %w", i, err)
			}
		}
	}
	setupS := median(setups)
	defer rig.close() // on an early return; checkRetained closes it otherwise

	d := &retainedLoop{
		rig: rig, rng: rand.New(rand.NewSource(roundSeed(cfg.seed, 0))),
		last: make([]int64, retainedBases), traced: traced, origin: time.Now(),
		nextFold: rig.clk.Now().Add(retainedCadence),
		lat:      make([]float64, 0, retainedWindow+retainedBatch),
	}
	for i := 0; i < retainedBases; i++ {
		d.targets = append(d.targets, data.Item(fmt.Sprintf("X%d", i)))
	}
	if traced {
		gs, err := retainedGuarantees()
		if err != nil {
			return ph, err
		}
		if d.shadow, err = guarantee.NewMonitor(gs...); err != nil {
			return ph, err
		}
	}
	for n := 0; n < retainedWarm; n += retainedBatch {
		d.batch(false)
	}
	d.peak = 0
	before := rig.reg.Snapshot()
	var measured time.Duration
	updates := 0
	for measured < budget {
		d.lat, d.spont = d.lat[:0], d.spont[:0]
		start := readUsage()
		n := 0
		for ; n < retainedWindow; n += retainedBatch {
			d.batch(true)
		}
		c := costSince(start)
		heap := liveHeapMB(rig)
		measured += c.wall
		updates += n
		p50, err := percentile(d.lat, 0.50)
		if err != nil {
			return ph, err
		}
		p90, err := percentile(d.lat, 0.90)
		if err != nil {
			return ph, err
		}
		p99, err := percentile(d.lat, 0.99)
		if err != nil {
			return ph, err
		}
		ph.addRound(map[string]float64{
			"updates_per_s":     float64(n) / c.wall.Seconds(),
			"latency_p50_ms":    p50 / 1e6,
			"cpu_us_per_update": float64(c.cpu.Microseconds()) / float64(n),
			"heap_mb":           heap,
			"setup_s":           setupS,
		}, c, n)
		if traced {
			m := map[string]float64{"bench.latency_p90_ms": p90 / 1e6, "bench.latency_p99_ms": p99 / 1e6}
			setPercentiles(ph, m, "shell.spontaneous_us", d.spont, 1e3, 0.50, 0.99)
			ph.layerRound(m)
		}
	}
	delta := rig.reg.Snapshot().Delta(before)
	if traced {
		m := map[string]float64{}
		setPercentiles(ph, m, "shell.retention_round_ms", d.spans.durations("shell.retention_round"), 1e6, 0.50, 0.90)
		setPercentiles(ph, m, "guarantee.advance_ms", d.spans.durations("guarantee.advance"), 1e6, 0.50, 0.90)
		setPercentiles(ph, m, "shell.drain_ms", d.spans.durations("shell.drain"), 1e6, 0.99)
		for k, v := range m {
			ph.set(k, v)
		}
		ph.set("shell.partition_depth.max", d.depthMax)
		ph.set("trace.retained_events.peak", float64(d.peak))
		if c := delta.Sum("cmtk_trace_compactions_total"); c > 0 {
			ph.set("trace.pruned_per_round", delta.Sum("cmtk_trace_pruned_total")/c)
		}
		ph.set("durable.wal_appends_per_update", delta.Sum("cmtk_wal_appends_total")/float64(updates))
		ph.set("durable.wal_bytes_per_update", delta.Sum("cmtk_wal_appended_bytes_total")/float64(updates))
		ph.set("durable.fsyncs", delta.Sum("cmtk_wal_fsyncs_total"))
		ph.set("durable.checkpoint_bytes", rig.reg.Snapshot().Sum("cmtk_trace_checkpoint_bytes"))
		ph.set("shell.rule_matches_per_update", delta.Sum("cmtk_shell_rule_matches_total")/float64(updates))
		ph.set("trace.events_per_update", delta.Sum("cmtk_shell_events_total")/float64(updates))
	}
	err = checkRetained(d)
	for i := int64(0); i < d.next; i++ {
		if err != nil {
			ph.tally.add(unseen)
		} else {
			ph.tally.add(delivered)
		}
	}
	return ph, err
}

// checkRetained is the correctness gate: every monitored guarantee
// holds, no checkpoint or journal write failed, the retained peak stayed
// inside the band, every Yi equals its Xi, and the store reopens with a
// checkpoint that verifies and imports with no section rejected.
func checkRetained(d *retainedLoop) error {
	rig := d.rig
	sh := rig.sh
	sh.Drain()
	if err := sh.RetentionError(); err != nil {
		return fmt.Errorf("retained: retention error: %w", err)
	}
	if err := sh.DurableError(); err != nil {
		return fmt.Errorf("retained: durable error: %w", err)
	}
	if band := retainedBand(); d.peak > band || d.peak == 0 {
		return fmt.Errorf("retained: retained peak %d outside the band (0, %d]", d.peak, band)
	}
	tr := sh.Trace()
	if pruned, _ := tr.Pruned(); pruned == 0 {
		return fmt.Errorf("retained: nothing was folded")
	}
	final := tr.Final()
	if err := checkCopies("retained", final, d.last); err != nil {
		return err
	}
	events := tr.TotalEvents()
	if events != uint64(2*d.next) {
		return fmt.Errorf("retained: %d events for %d updates, want exactly 2 per update", events, d.next)
	}
	for _, r := range rig.mon.Reports(tr) {
		if !r.Holds {
			return fmt.Errorf("retained: guarantee %s does not hold: %v", r.Guarantee, r.Violations)
		}
	}
	if err := rig.close(); err != nil {
		return fmt.Errorf("retained: closing the store: %w", err)
	}
	rig.sh, rig.st = nil, nil

	st, err := durable.Open(rig.dir, durable.Options{Sync: durable.SyncInterval, Metrics: obs.NewRegistry()})
	if err != nil {
		return fmt.Errorf("retained: reopening the store: %w", err)
	}
	defer st.Close()
	clk := vclock.NewVirtual(rig.clk.Now().Add(time.Minute))
	sh2 := newRetainedShell(rig.sp, clk, obs.NewRegistry())
	if _, err := sh2.EnableDurable(st); err != nil {
		return fmt.Errorf("retained: cold start: %w", err)
	}
	gs, err := retainedGuarantees()
	if err != nil {
		return err
	}
	mon, err := guarantee.NewMonitor(gs...)
	if err != nil {
		return err
	}
	res, err := sh2.EnableRetention(shell.Retention{Monitor: mon, Store: st})
	if err != nil {
		return fmt.Errorf("retained: cold start: %w", err)
	}
	if !res.Restored || res.Report.Rejected != 0 || res.Report.Reason != "" {
		return fmt.Errorf("retained: checkpoint did not verify and import: restored=%v rejected=%d reason=%q",
			res.Restored, res.Report.Rejected, res.Report.Reason)
	}
	if got := sh2.Trace().TotalEvents(); got != events {
		return fmt.Errorf("retained: cold start accounts for %d events, want %d", got, events)
	}
	if !sh2.Trace().Initial().Equal(final) {
		return fmt.Errorf("retained: cold-start base differs from the final state")
	}
	return nil
}

// setPercentiles records name.pNN into m for each q, scaled from ns by
// div.  A percentile with too few samples beyond it is left out and
// noted on the phase.
func setPercentiles(ph *phase, m map[string]float64, name string, samples []float64, div float64, qs ...float64) {
	for _, q := range qs {
		v, err := percentile(samples, q)
		key := fmt.Sprintf("%s.p%g", name, q*100)
		if err != nil {
			ph.notes = append(ph.notes, fmt.Sprintf("%s not reported: %v", key, err))
			continue
		}
		m[key] = v / div
	}
}
