package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_rounds_total", "", "rounds")
	g := r.Gauge("test_occupancy", "", "occupancy")
	h := r.Histogram("test_phase_seconds", `phase="vote"`, "vote time", []float64{0.001, 0.01})
	r.CounterFunc("test_live_total", "", "live", func() float64 { return 7 })
	c.Add(3)
	g.Set(0.5)
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_rounds_total counter",
		"test_rounds_total 3",
		"test_occupancy 0.5",
		"test_live_total 7",
		`test_phase_seconds_bucket{phase="vote",le="0.001"} 1`,
		`test_phase_seconds_bucket{phase="vote",le="0.01"} 2`,
		`test_phase_seconds_bucket{phase="vote",le="+Inf"} 3`,
		`test_phase_seconds_count{phase="vote"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	if got := h.Sum(); got != 2.0055 {
		t.Errorf("Sum = %v, want 2.0055", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "", "")
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(&RoundTrace{Round: i, Missing: []int{i}})
	}
	got := tr.Snapshot(nil)
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, rt := range got {
		want := 6 + i
		if rt.Round != want {
			t.Errorf("slot %d round = %d, want %d", i, rt.Round, want)
		}
		if len(rt.Missing) != 1 || rt.Missing[0] != want {
			t.Errorf("slot %d missing = %v, want [%d]", i, rt.Missing, want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("Total = %d, want 10", tr.Total())
	}
}

func TestTracerJSONL(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(8)
	tr.SetSink(&b)
	tr.SetLabel("unit")
	rt := RoundTrace{
		Round:       5,
		ReportBytes: 100, BroadcastBytes: 200,
		Missing: []int{1, 3}, Flagged: []int{2},
		MeanReputation: 0.75,
	}
	rt.PhaseNS[PhaseVote] = 1234
	tr.Record(&rt)
	tr.AttachEval(5, 9*time.Millisecond, 0.5, 0.9)

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	var round struct {
		Event   string           `json:"event"`
		Label   string           `json:"label"`
		Round   int              `json:"round"`
		Phases  map[string]int64 `json:"phases_ns"`
		Missing []int            `json:"missing"`
		Rep     float64          `json:"mean_reputation"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &round); err != nil {
		t.Fatalf("round line not JSON: %v\n%s", err, lines[0])
	}
	if round.Event != "round" || round.Label != "unit" || round.Round != 5 {
		t.Errorf("round line = %+v", round)
	}
	if strings.Contains(lines[0], `"shards"`) {
		t.Errorf("round line carries the deleted shards key: %s", lines[0])
	}
	if round.Phases["vote"] != 1234 {
		t.Errorf("vote span = %d, want 1234", round.Phases["vote"])
	}
	if len(round.Missing) != 2 || round.Missing[0] != 1 {
		t.Errorf("missing = %v", round.Missing)
	}
	var eval struct {
		Event  string  `json:"event"`
		Round  int     `json:"round"`
		EvalNS int64   `json:"eval_ns"`
		Acc    float64 `json:"accuracy"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &eval); err != nil {
		t.Fatalf("eval line not JSON: %v\n%s", err, lines[1])
	}
	if eval.Event != "eval" || eval.Round != 5 || eval.EvalNS != int64(9*time.Millisecond) || eval.Acc != 0.9 {
		t.Errorf("eval line = %+v", eval)
	}
	// The ring slot picked up the eval span too.
	snap := tr.Snapshot(nil)
	if snap[0].PhaseNS[PhaseEval] != int64(9*time.Millisecond) {
		t.Errorf("ring eval span = %d", snap[0].PhaseNS[PhaseEval])
	}
}

func TestFleetTable(t *testing.T) {
	ft := NewFleetTable(3)
	ft.SetState(1, WorkerLive)
	ft.ObserveRound(1, 7)
	ft.IncRejoins(1)
	ft.SetReputation(1, 0.25)
	ft.Touch(1, time.Now())
	ft.SetState(2, WorkerBlacklisted)

	if ft.State(0) != WorkerUnseen || ft.State(1) != WorkerLive || ft.State(2) != WorkerBlacklisted {
		t.Errorf("states = %v %v %v", ft.State(0), ft.State(1), ft.State(2))
	}
	if ft.LastRound(1) != 7 || ft.Rejoins(1) != 1 || ft.Reputation(1) != 0.25 {
		t.Errorf("row 1 = round %d rejoins %d rep %v", ft.LastRound(1), ft.Rejoins(1), ft.Reputation(1))
	}
	if ft.Reputation(0) != 1 {
		t.Errorf("default reputation = %v, want 1", ft.Reputation(0))
	}
	var b strings.Builder
	if err := ft.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`byzshield_worker_state{worker="1"} 1`,
		`byzshield_worker_state{worker="2"} 3`,
		`byzshield_worker_last_round{worker="1"} 7`,
		`byzshield_worker_rejoins_total{worker="1"} 1`,
		`byzshield_worker_reputation{worker="1"} 0.25`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}
	b.Reset()
	if err := ft.WriteStatusz(&b, time.Now()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "blacklisted") {
		t.Errorf("statusz table missing blacklisted row:\n%s", b.String())
	}
}

func TestDiagEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("diag_test_total", "", "x").Add(5)
	ft := NewFleetTable(2)
	tr := NewTracer(4)
	tr.Record(&RoundTrace{Round: 0})
	d, err := ListenAndServe("127.0.0.1:0", ServerOptions{Registry: r, Fleet: ft, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "diag_test_total 5") ||
		!strings.Contains(out, `byzshield_worker_state{worker="0"} 0`) {
		t.Errorf("/metrics missing series:\n%s", out)
	}
	if out := get("/healthz"); !strings.Contains(out, "ok") {
		t.Errorf("/healthz = %q", out)
	}
	if out := get("/statusz"); !strings.Contains(out, "fleet:") || !strings.Contains(out, "recent rounds") {
		t.Errorf("/statusz missing sections:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("alloc_test_seconds", "", "", ExpBuckets(1e-4, 4, 8))
	c := r.Counter("alloc_test_total", "", "")
	g := r.Gauge("alloc_test_gauge", "", "")
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(0.01)
		c.Inc()
		g.Set(3)
	})
	if allocs != 0 {
		t.Errorf("hot-path instruments allocate %.1f times per round, want 0", allocs)
	}
}

func TestTracerRecordAllocFree(t *testing.T) {
	tr := NewTracer(16)
	rt := RoundTrace{Round: 0, Missing: []int{1, 2}, Flagged: []int{3}}
	// Warm the ring so every slot owns slices at full capacity.
	for i := 0; i < 32; i++ {
		rt.Round = i
		tr.Record(&rt)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Record(&rt)
	})
	if allocs != 0 {
		t.Errorf("steady-state Record allocates %.1f times, want 0", allocs)
	}
}
