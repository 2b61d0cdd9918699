package obs

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteTextGolden pins the Prometheus text exposition byte-for-byte:
// sorted families and series, HELP/TYPE lines, label escaping, and
// cumulative histogram buckets with +Inf, _sum, and _count.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	fires := reg.Counter("cmtk_shell_fires_total", "Rule firings by scope.", "shell", "scope")
	fires.With("shell-A", "remote").Add(3)
	fires.With("shell-A", "local").Add(1)
	fires.With("shell-B", "received").Add(3)
	reg.Counter("plain_total", "").With().Add(42)
	reg.Counter("escape_total", `help with \ and
newline`, "l").With(`va"l\ue` + "\n").Inc()
	reg.Gauge("cmtk_transport_outbox_depth", "Unacked messages buffered.", "peer").With("shell-B").Set(-2)
	h := reg.Histogram("cmtk_shell_fire_latency_seconds", "Trigger-to-execution delay.", []float64{0.005, 0.05, 0.5, 2.5}, "shell")
	for _, v := range []float64{0.001, 0.05, 0.3, 10} {
		h.With("shell-A").Observe(v)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s (run with -update to accept):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestHandlerEndpoints drives the HTTP surface end to end: /metrics
// content type and body, /debug/traces JSON shape, and the index.
func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "").With().Inc()
	ring := NewRing(8)
	ring.Record(FireTrace{Rule: "r1", Shell: "A", Site: "S", Outcome: OutcomeLocal,
		Matched: time.Unix(1, 0).UTC()})

	srv, addr, err := Serve("127.0.0.1:0", reg, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body, ctype := httpGet(t, "http://"+addr+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ctype)
	}
	if !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	body, ctype = httpGet(t, "http://"+addr+"/debug/traces")
	if ctype != "application/json" {
		t.Fatalf("content type = %q", ctype)
	}
	var dump struct {
		Total    uint64      `json:"total"`
		Capacity int         `json:"capacity"`
		Events   []FireTrace `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v\n%s", err, body)
	}
	if dump.Total != 1 || dump.Capacity != 8 || len(dump.Events) != 1 ||
		dump.Events[0].Rule != "r1" || dump.Events[0].ID != 1 {
		t.Fatalf("dump = %+v", dump)
	}

	body, _ = httpGet(t, "http://"+addr+"/")
	if !strings.Contains(body, "/metrics") || !strings.Contains(body, "/debug/traces") {
		t.Fatalf("index body:\n%s", body)
	}
}

func httpGet(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// TestRingWrap checks oldest-first ordering across the wrap point and
// monotone IDs.
func TestRingWrap(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		id := r.Record(FireTrace{Rule: "r", Seq: uint64(i)})
		if id != uint64(i) {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("kept %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+3) || ev.ID != uint64(i+3) {
			t.Fatalf("events[%d] = %+v, want seq/id %d", i, ev, i+3)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
}
