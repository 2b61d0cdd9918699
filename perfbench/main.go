// Command perfbench is the repository's benchmark of the constraint path.
// It drives the toolkit only through its public functions, runs one of
// three workloads (ingest, retained, mesh) for a fixed measured time, gates
// the run on the correctness of what the program produced, and prints
// every metric declared in BENCHMARK.json by name and unit.  With
// -trace 1 it runs the workload twice, untraced and then traced, and
// prints the per-layer metrics plus the tracing overhead instead.
//
//	perfbench -workload ingest -seed 1 -seconds 10 -trace 0
//	perfbench -knee -rates 2000,4000,8000,16000 -seconds 3
//
// The last line of standard output is the result object; README.md in
// this directory describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	stateDir string
}

// workloads maps each name to its phase runner: budget is the measured
// time the phase must cover.
var workloads = map[string]func(cfg config, budget time.Duration, traced bool) (*phase, error){
	"ingest":   func(cfg config, b time.Duration, tr bool) (*phase, error) { return ingestPhase(cfg.seed, b, tr) },
	"retained": func(cfg config, b time.Duration, tr bool) (*phase, error) { return retainedPhase(cfg, b, tr) },
	"mesh":     func(cfg config, b time.Duration, tr bool) (*phase, error) { return meshPhase(cfg, b, tr) },
}

// phase accumulates one measured phase of a workload.
type phase struct {
	tally       tally
	rounds      map[string][]float64 // end-to-end figures, one per round
	layerRounds map[string][]float64 // per-layer figures, one per round
	layer       map[string]float64   // per-layer figures for the whole phase
	whole       map[string]float64   // end-to-end figures for the whole phase
	notes       []string             // human-readable lines printed before the result
}

// addRound records one round's end-to-end figures and its runtime cost.
func (p *phase) addRound(m map[string]float64, c cost, updates int) {
	if p.rounds == nil {
		p.rounds = map[string][]float64{}
	}
	for k, v := range m {
		p.rounds[k] = append(p.rounds[k], v)
	}
	p.layerRound(map[string]float64{
		"runtime.allocs_per_update":      float64(c.allocs) / float64(updates),
		"runtime.alloc_bytes_per_update": float64(c.allocBytes) / float64(updates),
		"runtime.gc_cpu_frac":            c.gcCPUFrac,
		"runtime.gc_cycles":              float64(c.gcCycles),
	})
}

func (p *phase) layerRound(m map[string]float64) {
	if p.layerRounds == nil {
		p.layerRounds = map[string][]float64{}
	}
	for k, v := range m {
		p.layerRounds[k] = append(p.layerRounds[k], v)
	}
}

func (p *phase) set(k string, v float64) {
	if p.layer == nil {
		p.layer = map[string]float64{}
	}
	p.layer[k] = v
}

// endToEnd reports the phase-wide end-to-end figures, falling back to
// the median over rounds.
func (p *phase) endToEnd() map[string]float64 {
	out := map[string]float64{}
	for k, v := range p.rounds {
		out[k] = median(v)
	}
	for k, v := range p.whole {
		out[k] = v
	}
	return out
}

// perLayer reports the phase-wide figures, falling back to the median
// over rounds.
func (p *phase) perLayer() map[string]float64 {
	out := map[string]float64{"bench.miss_frac": p.tally.missFrac()}
	for k, v := range p.layerRounds {
		out[k] = median(v)
	}
	for k, v := range p.layer {
		out[k] = v
	}
	return out
}

// catalogue is the benchmark definition naming the metrics to print; the
// benchmark runs from the root of the repository.
const catalogue = "BENCHMARK.json"

// declared is the metric catalogue read from BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var knee bool
	var rates string
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, retained or mesh")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: print per-layer metrics from an untraced and a traced run")
	flag.StringVar(&cfg.stateDir, "state-dir", ".bench_build/state", "scratch directory for durable state")
	flag.BoolVar(&knee, "knee", false, "step the mesh rate and report where updates start to miss (diagnostic)")
	flag.StringVar(&rates, "rates", "2000,4000,8000,16000", "updates/s steps for -knee")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if knee {
		if err := runKnee(cfg, rates, os.Stdout); err != nil {
			fatalf("knee: %v", err)
		}
		return
	}
	run, found := workloads[cfg.workload]
	if !found {
		fatalf("unknown workload %q (want ingest, retained or mesh)", cfg.workload)
	}
	raw, err := os.ReadFile(catalogue)
	if err != nil {
		fatalf("reading metric catalogue: %v", err)
	}
	var cat declared
	if err := json.Unmarshal(raw, &cat); err != nil {
		fatalf("parsing %s: %v", catalogue, err)
	}
	printProvenance(os.Stdout, cfg)

	budget := time.Duration(cfg.seconds) * time.Second
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	ph, err := run(cfg, budget, false)
	var traced *phase
	if err == nil && cfg.trace {
		traced, err = run(cfg, budget, true)
	}
	for i, p := range []*phase{ph, traced} {
		if p == nil {
			continue
		}
		res.Attempted += p.tally.attempted()
		res.Failed += p.tally.failed()
		for _, n := range p.notes {
			fmt.Printf("# %s: %s\n", [...]string{"untraced", "traced"}[i], n)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate failed: %v\n", cfg.workload, err)
		res.Correct = false
	}
	if res.Correct && !cfg.trace {
		got := ph.endToEnd()
		for _, m := range cat.EndToEnd {
			v, have := got[m.Name]
			if !have {
				fatalf("workload %s did not produce end-to-end metric %s", cfg.workload, m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	if res.Correct && cfg.trace {
		got := traced.perLayer()
		base, tr := ph.endToEnd(), traced.endToEnd()
		// Tracing cost: throughput lost on the closed loops; CPU per update
		// added on the open loop, whose throughput is fixed by its rate.
		if cfg.workload == "mesh" {
			got["bench.trace_overhead_frac"] = tr["cpu_us_per_update"]/base["cpu_us_per_update"] - 1
		} else {
			got["bench.trace_overhead_frac"] = 1 - tr["updates_per_s"]/base["updates_per_s"]
		}
		for _, m := range cat.PerLayer {
			// A layer that is not on this workload's path reports 0.
			res.Metrics[m.Name] = metricValue{got[m.Name], m.Unit}
		}
		var extra []string
		for k := range got {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			fatalf("workload %s produced per-layer metrics missing from %s: %v", cfg.workload, catalogue, extra)
		}
	}
	printTable(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// roundSeed derives the input seed of one round from the run's seed, so
// the same seed always yields the same inputs round by round.
func roundSeed(seed int64, round int) int64 { return seed*1_000_003 + int64(round) }

// printProvenance writes the host and source identity the result was
// measured on, as one JSON line.
func printProvenance(w io.Writer, cfg config) {
	p := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     gitCommit(),
		"source":     sourceHash("."),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(map[string]any{"provenance": p}) // plain values always encode
	fmt.Fprintln(w, "# "+string(b))
}

// gitCommit names the checked-out commit, or "unknown" when the working
// directory is not itself the top of a git work tree (git is kept from
// searching the directories above it, which may belong to another
// repository).
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, so a
// result can be tied to its code even where no git metadata exists.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
