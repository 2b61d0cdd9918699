package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cmtk/internal/core"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/obs"
	"cmtk/internal/rid"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
)

// The mesh workload: the live two-shell payroll deployment assembled
// through core on the real clock — branch relstore with a notify
// interface → shell A → reliable link over loopback TCP → shell B → HQ
// relstore — driven by an open loop at a fixed rate with headroom.
// Latency is carried by relstore, the translators and the transport,
// while engine and trace work per update is small; ingest is the control.
const (
	meshKeys  = 64
	meshRate  = 2000 // updates/s; the closed loop saturates near 10K/s at the branch
	meshRound = 2500 * time.Millisecond
	// kneeQueueLimit is the shell queue depth the knee diagnostic runs
	// at, with blocking admission.
	kneeQueueLimit = 1024
)

// The site configurations of Section 4.2: the branch notifies, HQ is
// writable.
const (
	branchRID = `
kind relstore
site A
item salary1
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface Ws(salary1(n), b) ->2s N(salary1(n), b)
interface RR(salary1(n)) && salary1(n) = b ->1s R(salary1(n), b)
`
	hqRID = `
kind relstore
site B
item salary2
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface WR(salary2(n), b) ->3s W(salary2(n), b)
`
)

func meshKey(k int) string { return fmt.Sprintf("e%d", k+1) }

// meshStamps are the per-update observations, in ns since the loop's
// start (0: not seen), written by whichever goroutine observes them.
type meshStamps struct {
	start              time.Time
	sendStart, sendEnd []atomic.Int64 // shell A hands the firing to TCP
	recv               []atomic.Int64 // the firing arrives at shell B's endpoint
	hq                 []atomic.Int64 // the HQ row shows the value
}

func newMeshStamps(n int) *meshStamps {
	return &meshStamps{
		sendStart: make([]atomic.Int64, n), sendEnd: make([]atomic.Int64, n),
		recv: make([]atomic.Int64, n), hq: make([]atomic.Int64, n),
	}
}

func (s *meshStamps) now() int64 { return max(int64(time.Since(s.start)), 1) }

// index maps an update's value to its schedule slot (-1 if none).
func (s *meshStamps) index(v int64) int {
	if v < 1 || v > int64(len(s.hq)) {
		return -1
	}
	return int(v - 1)
}

// firingValue is the copied value a fire message carries, or -1.
func firingValue(m transport.Message) int64 {
	if m.Kind != "fire" {
		return -1
	}
	if b, ok := m.BindingsVal["b"]; ok {
		return b.Int()
	}
	if v, err := strconv.ParseInt(m.Bindings["b"], 10, 64); err == nil {
		return v
	}
	return -1
}

// timedNet wraps the network under the reliability layer and stamps
// every firing's send and arrival: the transport seam, seen from outside.
type timedNet struct {
	inner transport.Network
	st    *meshStamps
}

func (n *timedNet) Join(id string, recv func(transport.Message)) (transport.Endpoint, error) {
	ep, err := n.inner.Join(id, func(m transport.Message) {
		if i := n.st.index(firingValue(m)); i >= 0 {
			n.st.recv[i].CompareAndSwap(0, n.st.now())
		}
		recv(m)
	})
	if err != nil {
		return nil, err
	}
	return &timedEndpoint{inner: ep, st: n.st}, nil
}

type timedEndpoint struct {
	inner transport.Endpoint
	st    *meshStamps
}

func (e *timedEndpoint) Send(to string, m transport.Message) error {
	t0 := e.st.now()
	err := e.inner.Send(to, m)
	if i := e.st.index(firingValue(m)); i >= 0 && e.st.sendStart[i].CompareAndSwap(0, t0) {
		e.st.sendEnd[i].Store(e.st.now())
	}
	return err
}

func (e *timedEndpoint) Close() error { return e.inner.Close() }

// meshRig is one deployed mesh.
type meshRig struct {
	tk            *core.Toolkit
	branch, hq    *relstore.DB
	kappa         time.Duration
	unhookTrigger func()
}

// setupMesh is the measured set-up: both stores seeded with every key,
// RID parse, deployment through core (strategy choice, shells, TCP
// listeners) and Start.  With bounded set, each shell's post queue is
// bounded at kneeQueueLimit with blocking admission (the knee
// diagnostic's overload setting); the workload leaves the queues
// unbounded, as core does by default.
func setupMesh(st *meshStamps, bounded bool) (*meshRig, error) {
	rig := &meshRig{branch: relstore.New("branch"), hq: relstore.New("hq")}
	for _, db := range []*relstore.DB{rig.branch, rig.hq} {
		if _, err := db.Exec("CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))"); err != nil {
			return nil, err
		}
		for k := 0; k < meshKeys; k++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO employees VALUES ('%s', 0)", meshKey(k))); err != nil {
				return nil, err
			}
		}
	}
	var network transport.Network = transport.NewTCPNetwork()
	if st != nil {
		network = &timedNet{inner: network, st: st}
	}
	cfg := core.Config{Network: transport.NewReliable(network, transport.ReliableOptions{})}
	if bounded {
		cfg.ShellOptions = func(_ string, o shell.Options) shell.Options {
			o.QueueLimit, o.Admission = kneeQueueLimit, shell.AdmitBlock
			return o
		}
	}
	rig.tk = core.New(cfg)
	for _, s := range []struct {
		rid string
		db  *relstore.DB
	}{{branchRID, rig.branch}, {hqRID, rig.hq}} {
		cfg, err := rid.ParseString(s.rid)
		if err != nil {
			return nil, err
		}
		if err := rig.tk.AddSite(core.Site{RID: cfg, Local: &translator.LocalStores{Rel: s.db}}); err != nil {
			return nil, err
		}
	}
	if err := rig.tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}); err != nil {
		return nil, err
	}
	if err := rig.tk.Deploy(); err != nil {
		return nil, err
	}
	if err := rig.tk.Start(); err != nil {
		rig.tk.Stop()
		return nil, err
	}
	for _, g := range rig.tk.Guarantees() {
		if mf, ok := g.(guarantee.MetricFollows); ok {
			rig.kappa = max(rig.kappa, mf.Kappa)
		}
	}
	if rig.kappa == 0 {
		rig.tk.Stop()
		return nil, fmt.Errorf("mesh: the deployment declares no metric bound κ")
	}
	return rig, nil
}

func (r *meshRig) stop() {
	if r.unhookTrigger != nil {
		r.unhookTrigger()
	}
	r.tk.Stop()
}

// meshRun is the outcome of one open-loop run against a deployed mesh.
type meshRun struct {
	arr    []arrival
	loop   *loopStamps
	st     *meshStamps
	cost   cost
	heapMB float64
	tally  tally
	lat    []float64 // due → HQ, ns, per update (-1: never reached HQ)
}

// driveMesh runs the open loop against rig, waits until every update
// reached HQ or its κ ran out, and classifies each update.
func driveMesh(rig *meshRig, st *meshStamps, arr []arrival, writers int) (*meshRun, error) {
	unhook, err := rig.hq.RegisterTrigger("employees", func(op relstore.TriggerOp, _ string, _, row relstore.Row) {
		if op == relstore.TrigUpdate && len(row) == 2 {
			if i := st.index(row[1].Int()); i >= 0 {
				st.hq[i].CompareAndSwap(0, st.now())
			}
		}
	})
	if err != nil {
		return nil, err
	}
	rig.unhookTrigger = unhook
	run := &meshRun{arr: arr, st: st}
	before := readUsage()
	st.start = time.Now()
	run.loop = runOpenLoop(st.start, arr, writers, func(a arrival) error {
		_, err := rig.branch.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = '%s'", a.val, meshKey(a.key)))
		return err
	})
	// Settle: every update either shows at HQ or runs out of its κ.
	deadline := st.start.Add(arr[len(arr)-1].due + rig.kappa)
	for i := range arr {
		for st.hq[i].Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	run.cost = costSince(before)
	run.heapMB = liveHeapMB(rig)
	hq := make([]int64, len(arr))
	for i := range hq {
		hq[i] = st.hq[i].Load()
	}
	run.tally, run.lat = classifyMesh(arr, run.loop.errs, hq, rig.kappa)
	return run, nil
}

// classifyMesh counts every attempted update: an error from the branch
// write, a value never seen at HQ (as a shed update would be), or one
// seen later than κ after its due instant is a miss.  lat[i] is update i's due → HQ latency in ns, or -1
// when it never reached HQ.
func classifyMesh(arr []arrival, errs []error, hq []int64, kappa time.Duration) (tally, []float64) {
	var t tally
	lat := make([]float64, len(arr))
	for i, a := range arr {
		lat[i] = -1
		switch {
		case errs[i] != nil:
			t.add(errored)
		case hq[i] == 0:
			t.add(unseen)
		default:
			d := time.Duration(hq[i]) - a.due
			lat[i] = float64(d)
			if d > kappa {
				t.add(tooLate)
			} else {
				t.add(delivered)
			}
		}
	}
	return t, lat
}

// meshConverged lists the keys whose HQ value differs from the branch.
func meshConverged(rig *meshRig) ([]string, error) {
	var bad []string
	for k := 0; k < meshKeys; k++ {
		q := fmt.Sprintf("SELECT salary FROM employees WHERE empid = '%s'", meshKey(k))
		a, err := rig.branch.Exec(q)
		if err != nil {
			return nil, err
		}
		b, err := rig.hq.Exec(q)
		if err != nil {
			return nil, err
		}
		if len(a.Rows) != 1 || len(b.Rows) != 1 || !a.Rows[0][0].Equal(b.Rows[0][0]) {
			bad = append(bad, meshKey(k))
		}
	}
	return bad, nil
}

// meshWriters is the number of writer goroutines: one per CPU, at most.
func meshWriters() int { return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))) }

// meshPhase runs as many rounds as it takes for their open loops to
// cover budget.  Each round
// deploys a fresh mesh, runs meshRound of the open loop against it,
// settles and gates it, and tears it down: the toolkit trace only grows,
// and the collector's work on it is what sets the latency tail, so a
// fixed round length is what makes that tail a repeatable figure.
func meshPhase(cfg config, budget time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	writers := meshWriters()
	late, lateMax := 0, time.Duration(0)
	attempted, inversions := 0, 0
	rounds := int((budget + meshRound - 1) / meshRound)
	// due → HQ of every update that reached HQ, ns; allocated up front so
	// the heap measured after each round holds the same benchmark state.
	lat := make([]float64, 0, rounds*int(meshRate*meshRound.Seconds()))
	for round := 0; round < rounds; round++ {
		runtime.GC() // start every round from the same clean heap
		arr := schedule(roundSeed(cfg.seed, round), meshRate, meshRound, meshKeys, writers)
		st := newMeshStamps(len(arr))
		var stamps *meshStamps
		if traced {
			stamps = st
		}
		t0 := time.Now()
		rig, err := setupMesh(stamps, false)
		setup := time.Since(t0)
		if err != nil {
			return ph, fmt.Errorf("mesh: set-up: %w", err)
		}
		obsBefore := obs.Default.Snapshot()
		histBefore := fireLatencyBuckets()
		run, err := driveMesh(rig, st, arr, writers)
		if err != nil {
			rig.stop()
			return ph, err
		}
		ph.tally.merge(run.tally)
		attempted += len(arr)
		for i := range arr {
			l := run.loop.lateness(arr, i)
			if l > time.Millisecond {
				late++
			}
			lateMax = max(lateMax, l)
		}
		for _, l := range run.lat {
			if l >= 0 {
				lat = append(lat, l)
			}
		}
		n := len(arr)
		ph.addRound(map[string]float64{
			"updates_per_s":     float64(run.tally.n[delivered]) / run.loop.elapsed.Seconds(),
			"cpu_us_per_update": float64(run.cost.cpu.Microseconds()) / float64(n),
			"heap_mb":           run.heapMB,
			"setup_s":           setup.Seconds(),
		}, run.cost, n)
		if traced {
			ph.layerRound(meshLayers(ph, run, obs.Default.Snapshot().Delta(obsBefore), histBefore))
		}
		inv, err := gateMesh(rig)
		inversions += inv
		rig.stop()
		if err != nil {
			return ph, err
		}
	}
	// Latency percentiles are taken over every round's updates together:
	// a round's own tail rests on a few dozen samples and swings with
	// whichever collections it happened to catch.  Above the median the
	// figures follow the host rather than the program: the p90 of one
	// 2.5 s round is about 0.25 ms on a quiet host and over 1 ms while a
	// shared host's other tenants hold its CPUs, which can last whole
	// runs.  So the tail is reported per layer, and the end-to-end latency
	// is the p50.
	var p [3]float64
	for i, q := range []float64{0.50, 0.90, 0.99} {
		v, err := percentile(lat, q)
		if err != nil {
			return ph, err
		}
		p[i] = v / 1e6
	}
	ph.whole = map[string]float64{"latency_p50_ms": p[0]}
	ph.set("bench.latency_p90_ms", p[1])
	ph.set("bench.latency_p99_ms", p[2])
	// The generator's own lateness is part of every due-time latency, so
	// it is reported beside them.
	ph.set("generator.late_frac", float64(late)/float64(attempted))
	ph.set("generator.late_ms.max", float64(lateMax)/1e6)
	ph.set("trace.cross_shell_inversions", float64(inversions))
	ph.notes = append(ph.notes, fmt.Sprintf("generator: %d of %d arrivals issued more than 1ms late, at worst %v (%d writers)",
		late, attempted, lateMax.Round(time.Microsecond), writers))
	if inversions > 0 {
		ph.notes = append(ph.notes, fmt.Sprintf(
			"known defect: %d property-1 inversions between events of different shells in the shared trace", inversions))
	}
	return ph, nil
}

// gateMesh fails the round when any key's HQ value differs from the
// branch after settle or the toolkit trace has a checker violation; it
// returns the cross-shell inversions it counted instead of failing on.
func gateMesh(rig *meshRig) (int, error) {
	bad, err := meshConverged(rig)
	if err != nil {
		return 0, err
	}
	if len(bad) > 0 {
		return 0, fmt.Errorf("mesh: %d keys differ between branch and HQ after settle: %v", len(bad), bad)
	}
	return checkMeshTrace(rig.tk.Trace().Events(), rig.tk.CheckTrace())
}

// checkMeshTrace gates on the Appendix A.2 checker's findings over the
// toolkit trace.  One kind is counted instead: a property-1 inversion
// between two events recorded by different shells.  Both shells write
// the one in-process trace, and a statically routed shell stamps an
// event before it takes the trace's append lock, so on the real clock
// shell B's event can land after shell A's later-stamped one by a few
// microseconds.  That is a defect of the shared trace's recording path
// (fleet shells already stamp at commit), not of the copy; it is
// reported so that a fix shows as zero.
//
// The checker compares each event only with its immediate predecessor,
// which may belong to the other shell even when the event also precedes
// an earlier event of its own.  So every event is first held against the
// latest time its own shell has recorded, and any inversion within one
// shell fails the run; the property-1 findings left are then between
// shells by construction.
func checkMeshTrace(events []*event.Event, vs []trace.Violation) (inversions int, err error) {
	last := map[string]*event.Event{}
	for _, e := range events {
		if p, ok := last[e.Host]; ok && e.Time.Before(p.Time) {
			return 0, fmt.Errorf("mesh: shell %s recorded event %d at %v after its event %d at %v",
				e.Host, e.Seq, e.Time, p.Seq, p.Time)
		}
		last[e.Host] = e
	}
	for _, v := range vs {
		if v.Property != 1 {
			return inversions, fmt.Errorf("mesh: Appendix A.2 checker: %v", v)
		}
		inversions++
	}
	return inversions, nil
}

// fireLatencyBuckets reads the shells' trigger-to-execution histogram
// from the registry's text exposition.
func fireLatencyBuckets() map[float64]uint64 {
	var b strings.Builder
	_ = obs.Default.WriteText(&b) // a strings.Builder cannot fail
	bounds, cum, _, _, ok := obs.ParseHistogram(b.String(), "cmtk_shell_fire_latency_seconds")
	out := map[float64]uint64{}
	if ok {
		for i, bd := range bounds {
			out[bd] = cum[i]
		}
	}
	return out
}

// meshLayers derives the per-layer figures of a traced round.
func meshLayers(ph *phase, run *meshRun, delta obs.Snapshot, histBefore map[float64]uint64) map[string]float64 {
	m := map[string]float64{}
	st, loop := run.st, run.loop
	n := float64(len(run.arr))
	var spans spanLog
	var link, apply []float64
	for i := range run.arr {
		exec := spans.add("relstore.exec", 0, loop.issued[i], loop.done[i])
		if s := st.sendStart[i].Load(); s > 0 {
			spans.add("transport.send", exec, s, st.sendEnd[i].Load())
			if r := st.recv[i].Load(); r > 0 {
				link = append(link, float64(r-s))
			}
		}
		if r, h := st.recv[i].Load(), st.hq[i].Load(); r > 0 && h > 0 {
			apply = append(apply, float64(h-r))
		}
	}
	setPercentiles(ph, m, "relstore.exec_us", spans.durations("relstore.exec"), 1e3, 0.50, 0.99)
	setPercentiles(ph, m, "relstore.exec_self_us", spans.selfTimes("relstore.exec"), 1e3, 0.50)
	setPercentiles(ph, m, "transport.send_us", spans.durations("transport.send"), 1e3, 0.50, 0.99)
	setPercentiles(ph, m, "transport.link_us", link, 1e3, 0.50, 0.99)
	setPercentiles(ph, m, "translator.apply_us", apply, 1e3, 0.50, 0.99)

	m["transport.sends_per_update"] = delta.Sum("cmtk_transport_sends_total") / n
	m["transport.retries"] = delta.Sum("cmtk_transport_retries_total")
	m["transport.outbox_dropped"] = delta.Sum("cmtk_transport_outbox_dropped_total")
	if c := delta.Sum("cmtk_transport_batch_size_count"); c > 0 {
		m["transport.batch_size.mean"] = delta.Sum("cmtk_transport_batch_size_sum") / c
	}
	m["translator.ops_per_update"] = delta.Sum("cmtk_translator_ops_total") / n
	m["translator.failures"] = delta.Sum("cmtk_translator_failures_total")
	m["shell.rule_matches_per_update"] = delta.Sum("cmtk_shell_rule_matches_total") / n
	m["trace.events_per_update"] = delta.Sum("cmtk_shell_events_total") / n

	after := fireLatencyBuckets()
	var bounds []float64
	for b := range after {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cum := make([]uint64, len(bounds))
	for i, b := range bounds {
		cum[i] = after[b] - histBefore[b]
	}
	total := delta.Sum("cmtk_shell_fire_latency_seconds_count")
	if total > 0 {
		m["shell.fire_latency_ms.p99"] = obs.QuantileFromBuckets(bounds, cum, uint64(total), 0.99) * 1e3
	}
	return m
}
