package transport

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/obs"
)

// scrapeMetrics GETs /metrics from a diagnostics listener and parses
// the Prometheus text into a series→value map (the full series text
// including any label fragment is the key).
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("scrape parse %q: %v", line, err)
		}
		vals[line[:i]] = v
	}
	return vals
}

// TestObsScrapeConsistentWithRoundStats runs a loopback cluster with
// the metrics registry, tracer, and diagnostics listener attached,
// kills and resumes one worker mid-run (an eviction followed by a
// token rejoin), scrapes /metrics while rounds are still executing, and
// then checks that the final scrape agrees exactly with the summed
// OnRound RoundStats — the live counters and the engine's per-round
// stats are two views of the same events, never two bookkeepings.
func TestObsScrapeConsistentWithRoundStats(t *testing.T) {
	const victim = 4
	spec := testSpec(8)
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	registry := obs.NewRegistry()
	tracer := obs.NewTracer(16)

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *Server
	var diag *obs.Diag
	restarted := make(chan error, 1)
	workerCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()

	srvCfg := ServerConfig{
		Spec:         spec,
		RoundTimeout: 30 * time.Second,
		Metrics:      registry,
		Tracer:       tracer,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
			if rs.Iteration == 2 {
				// Mid-run scrape: OnRound blocks the serve loop, so the
				// live counters must already cover this round.
				vals := scrapeMetrics(t, diag.Addr())
				if got := vals["byzshield_rounds_total"]; got != float64(rs.Iteration+1) {
					t.Errorf("mid-run scrape: rounds_total=%v after round %d", got, rs.Iteration)
				}
				if got := vals["byzshield_live_workers"]; got != float64(asn.K) {
					t.Errorf("mid-run scrape: live_workers=%v, want %d", got, asn.K)
				}
			}
			if rs.Iteration != 3 {
				return
			}
			// Between rounds 3 and 4: kill the victim (the pump sees the
			// broken stream and evicts it) and restart it with its
			// session token; OnRound blocks the serve loop until the
			// rejoin is parked for round-boundary admission.
			killWorker()
			token := workerToken(srv, victim)
			go func() {
				_, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{
					ID:          victim,
					ResumeToken: token,
				})
				restarted <- err
			}()
			waitRejoinPending(t, srv, victim)
		},
	}
	srv, err = NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	diag, err = obs.ListenAndServe("127.0.0.1:0", obs.ServerOptions{
		Registry: registry, Fleet: srv.Fleet(), Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer diag.Close()

	// Worker 0 carries the worker-side mirror registry so the test also
	// pins the byzworker_* instruments; the others run bare. (One
	// registry per worker process — families register once.)
	workerReg := obs.NewRegistry()
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			ctx := context.Background()
			cfg := WorkerConfig{ID: u}
			if u == 0 {
				cfg.Metrics = workerReg
			}
			if u == victim {
				ctx = workerCtx
				cfg.ReconnectAttempts = -1 // the test restarts it explicitly
			}
			_, err := RunWorker(ctx, srv.Addr(), cfg)
			if u != victim && err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	if err := <-restarted; err != nil {
		t.Errorf("restarted worker: %v", err)
	}

	if len(stats) != spec.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(stats), spec.Rounds)
	}
	var report, raw, bcast int64
	var rejoins, evictions, stale, degraded, droppedF, distorted int
	for _, rs := range stats {
		report += rs.Times.ReportBytes
		raw += rs.Times.ReportRawBytes
		bcast += rs.Times.BroadcastBytes
		rejoins += rs.Rejoins
		evictions += rs.Evictions
		stale += rs.StaleFrames
		degraded += rs.DegradedFiles
		droppedF += rs.DroppedFiles
		distorted += rs.DistortedFiles
	}
	if rejoins < 1 || evictions < 1 {
		t.Fatalf("run saw %d rejoins / %d evictions — the kill+resume exercised nothing", rejoins, evictions)
	}

	vals := scrapeMetrics(t, diag.Addr())
	for _, check := range []struct {
		series string
		want   float64
	}{
		{"byzshield_rounds_total", float64(spec.Rounds)},
		{"byzshield_report_bytes_total", float64(report)},
		{"byzshield_report_raw_bytes_total", float64(raw)},
		{"byzshield_broadcast_bytes_total", float64(bcast)},
		{"byzshield_rejoins_total", float64(rejoins)},
		{"byzshield_evictions_total", float64(evictions)},
		{"byzshield_stale_frames_total", float64(stale)},
		{"byzshield_files_degraded_total", float64(degraded)},
		{"byzshield_files_dropped_total", float64(droppedF)},
		{"byzshield_files_distorted_total", float64(distorted)},
	} {
		if got, ok := vals[check.series]; !ok {
			t.Errorf("final scrape missing %s", check.series)
		} else if got != check.want {
			t.Errorf("%s = %v, scraped totals must equal summed RoundStats %v", check.series, got, check.want)
		}
	}
	if got := vals[`byzshield_worker_rejoins_total{worker="`+strconv.Itoa(victim)+`"}`]; got != 1 {
		t.Errorf("fleet table rejoins for victim = %v, want 1", got)
	}
	if tracer.Total() != spec.Rounds {
		t.Errorf("tracer recorded %d rounds, want %d", tracer.Total(), spec.Rounds)
	}

	// The worker-side mirror saw every round and moved real bytes.
	var wb strings.Builder
	if err := workerReg.WritePrometheus(&wb); err != nil {
		t.Fatal(err)
	}
	wvals := make(map[string]float64)
	for _, line := range strings.Split(wb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				wvals[line[:i]] = v
			}
		}
	}
	if got := wvals["byzworker_rounds_total"]; got != float64(spec.Rounds) {
		t.Errorf("byzworker_rounds_total = %v, want %v", got, spec.Rounds)
	}
	if got := wvals["byzworker_report_bytes_total"]; got <= 0 {
		t.Errorf("byzworker_report_bytes_total = %v, want > 0", got)
	}

	// /statusz renders one row per worker, including the rejoin count.
	resp, err := http.Get("http://" + diag.Addr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status %d", resp.StatusCode)
	}
	// The fleet table is one row per worker: "<id> <state> <last_round> ...".
	rows := 0
	for _, line := range strings.Split(string(page), "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 {
			if id, err := strconv.Atoi(f[0]); err == nil && id == rows && (f[1] == "live" || f[1] == "down" || f[1] == "blacklisted" || f[1] == "unseen") {
				rows++
			}
		}
	}
	if rows != asn.K {
		t.Errorf("/statusz has %d worker rows, want %d:\n%s", rows, asn.K, page)
	}
	if !strings.Contains(string(page), "live") {
		t.Errorf("/statusz shows no live workers:\n%s", page)
	}
}

// TestObsConcurrentScrape hammers /metrics, /statusz and /healthz from
// a background goroutine while loopback rounds execute — the scrape
// path reads nothing but atomics and the tracer's guarded ring, so
// under -race this pins the absence of scrape-vs-round data races.
func TestObsConcurrentScrape(t *testing.T) {
	spec := testSpec(6)
	registry := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec:    spec,
		Metrics: registry,
		Tracer:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	diag, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerOptions{
		Registry: registry, Fleet: srv.Fleet(), Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer diag.Close()

	stop := make(chan struct{})
	scraped := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			for _, path := range []string{"/metrics", "/statusz", "/healthz"} {
				resp, err := http.Get("http://" + diag.Addr() + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %s: status %d", path, resp.StatusCode)
				}
			}
			n++
		}
	}()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("scraper never completed a pass — the test raced nothing")
	}
}
