// Loopback wire-path benchmarks: steady-state round latency and wire
// volume of the pipelined TCP rounds (reader pumps + uplink frames of
// each tier), and a straggler-injected variant showing round latency
// tracking the collection deadline rather than the slow worker's drain.
//
// Run with:
//
//	go test ./internal/transport -bench BenchmarkLoopback -run '^$'
//
// round_ns is the mean wall-clock per protocol round (measured from
// serve start to the last completed round, excluding the shutdown
// drain); upB/upRawB are the measured worker→PS bytes as moved vs the
// raw-frame equivalent, downB the PS→worker broadcast bytes.
package transport

import (
	"bytes"
	"context"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/obs"
	"byzshield/internal/registry"
	"byzshield/internal/wire"
)

// benchLoopback runs b.N protocol rounds over loopback TCP and reports
// round latency and per-round wire volume.
func benchLoopback(b *testing.B, spec Spec, cfg ServerConfig) {
	b.Helper()
	spec.Rounds = b.N
	cfg.Spec = spec
	var mu sync.Mutex
	var up, upRaw, down int64
	var roundsDone time.Duration
	var start time.Time
	cfg.OnRound = func(rs cluster.RoundStats) {
		mu.Lock()
		up += rs.Times.ReportBytes
		upRaw += rs.Times.ReportRawBytes
		down += rs.Times.BroadcastBytes
		roundsDone = time.Since(start)
		mu.Unlock()
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	asn, err := spec.BuildAssignment()
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
				b.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	b.ResetTimer()
	start = time.Now()
	if _, err := srv.Serve(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	wg.Wait()
	n := int64(b.N)
	b.ReportMetric(float64(roundsDone.Nanoseconds())/float64(n), "round_ns")
	b.ReportMetric(float64(up/n), "upB/round")
	b.ReportMetric(float64(upRaw/n), "upRawB/round")
	b.ReportMetric(float64(down/n), "downB/round")
}

// BenchmarkLoopbackRound is the steady-state pipelined wire round on
// the shared test spec: all workers honest, raw uplink frames, delta
// broadcasts at the default cadence.
func BenchmarkLoopbackRound(b *testing.B) {
	benchLoopback(b, testSpec(1), ServerConfig{})
}

// BenchmarkLoopbackRoundMetrics is BenchmarkLoopbackRound with the
// full observability plane attached — metrics registry, round tracer,
// fleet table updates. The round_ns gap against the bare variant is
// the total cost of live observability; CI's bench-smoke job fails if
// it exceeds 5%, pinning the "metrics are atomics on the hot path, not
// allocations or locks" design.
func BenchmarkLoopbackRoundMetrics(b *testing.B) {
	benchLoopback(b, testSpec(1), ServerConfig{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(256),
	})
}

// BenchmarkLoopbackRoundQuantizedUplink is the same round on the lossy
// int8 uplink tier: every report frame ships 8-bit linear-quantized
// gradients (~1/8 the raw bytes plus per-row parameters), and the PS
// dequantizes into the arena on decode. The upB gap against
// BenchmarkLoopbackRound is the realized lossy saving; round_ns shows the quantize /
// dequantize passes costing less than the bytes they remove.
func BenchmarkLoopbackRoundQuantizedUplink(b *testing.B) {
	benchLoopback(b, testSpec(1), ServerConfig{Uplink: wire.TierInt8})
}

// BenchmarkLoopbackRoundSignUplink is the 1-bit sign tier — ~1/64 the
// raw gradient bytes plus one scale per (file, shard) row.
func BenchmarkLoopbackRoundSignUplink(b *testing.B) {
	benchLoopback(b, testSpec(1), ServerConfig{Uplink: wire.TierSign})
}

// BenchmarkLoopbackRoundStraggler injects a worker whose every report
// is slower than the collection deadline. With per-connection reader
// pumps the straggler's backlog drains off the hot path, so round_ns
// must track the deadline (~25 ms here), not the straggler's 60 ms
// report cadence — the round no longer serializes behind the slowest
// worker's socket.
func BenchmarkLoopbackRoundStraggler(b *testing.B) {
	spec := testSpec(1)
	spec.Faults = []FaultSpec{{Name: "straggler", Params: registry.FaultParams{Workers: []int{3}, Delay: 60 * time.Millisecond}}}
	benchLoopback(b, spec, ServerConfig{RoundTimeout: 25 * time.Millisecond})
}

// readSyscalls returns the process's read-class syscall count from
// /proc/self/io (syscr), or -1 where that file does not exist.
func readSyscalls() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("syscr: ")); ok {
			n, _ := strconv.ParseInt(string(rest), 10, 64)
			return n
		}
	}
	return -1
}

// BenchmarkConnRecv receives report frames the size fleet-k240-raw
// sends (one file of 2056 float64 gradients) over loopback TCP, one at a
// time — each Recv finds the socket empty and parks, as a reader pump
// does — and reports frames/s and read syscalls per frame. Two reads
// per frame is the floor on an idle socket (the EAGAIN that parks the
// goroutine, then the read that drains the frame); the header/body
// state machine this replaced paid three.
func BenchmarkConnRecv(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	tx, rx := NewConn(dialed), NewConn(accepted)
	defer tx.Close()
	defer rx.Close()
	msg := GradientReport{Frame: make([]byte, wire.UplinkRawSize(1, 2056))}
	rx.setPayloadLimit(reportPayloadLimit[float64](1, 2056))

	next := make(chan struct{})
	sent := make(chan error, 1)
	go func() {
		for range next {
			if _, err := tx.Send(msg); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	b.SetBytes(int64(len(msg.Frame)))
	b.ResetTimer()
	reads := readSyscalls()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		next <- struct{}{}
		if _, err := rx.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	close(next)
	if err := <-sent; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "frames/s")
	if reads >= 0 {
		b.ReportMetric(float64(readSyscalls()-reads)/float64(b.N), "read_syscalls/frame")
	}
}
