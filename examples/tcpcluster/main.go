// TCP cluster: runs the distributed training protocol over real TCP
// sockets — one parameter-server and K = 15 worker clients on loopback,
// two of them Byzantine (reversed gradients), one fail-stopping mid-run
// and one flaky — a heterogeneous fault composition carried by the wire
// Spec. The scheme, aggregator, and fault models travel as registry
// names inside the Spec; the server executes every round through the
// shared cluster round core, so the wire path votes, aggregates, and
// steps exactly like the in-process engine, and the crash degrades the
// affected file votes instead of aborting training. Parameter
// broadcasts ship as bit-exact XOR deltas between periodic full
// refreshes (protocol v2), and the per-round broadcast volume is
// reported at the end. The same binaries-level protocol is exposed by
// cmd/byzps and cmd/byzworker for multi-process or multi-machine runs —
// including worker rejoin: a killed byzworker re-enters a live run with
// -resume-token (see README and the rejoin tests in
// internal/transport).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"sync/atomic"

	"byzshield"
	"byzshield/internal/cluster"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
)

func main() {
	ctx := context.Background()
	spec := transport.Spec{
		Scheme: "mols", L: 5, R: 3,
		Aggregator: "median",
		TrainN:     2000, TestN: 500, Dim: 16, Classes: 10,
		DataSeed: 31, ClassSep: 2.0,
		BatchSize: 250,
		Schedule:  trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25},
		Momentum:  0.9, Seed: 31, Rounds: 80,
		// Heterogeneous per-worker faults, composed on the wire: worker 6
		// fail-stops at round 40 (permanently — an injected crash is
		// terminal for the process) while worker 11 randomly skips ~20%
		// of its rounds. The crash degrades worker 6's five files to 2
		// of 3 replicas — enough for the default quorum — for the rest
		// of the run.
		Faults: []transport.FaultSpec{
			{Name: "crash", Params: byzshield.FaultParams{Workers: []int{6}, Round: 40}},
			{Name: "flaky", Params: byzshield.FaultParams{Workers: []int{11}, P: 0.2, Seed: 31}},
		},
	}
	var broadcastBytes, rounds atomic.Int64
	srv, err := transport.NewServer("127.0.0.1:0", transport.ServerConfig{
		Spec:      spec,
		Logf:      log.Printf,
		EvalEvery: 20,
		OnRound: func(rs cluster.RoundStats) {
			broadcastBytes.Add(rs.Times.BroadcastBytes)
			rounds.Add(1)
			if rs.Iteration == 40 {
				fmt.Printf("round %d: workers %v are gone, %d file votes degraded, %d dropped\n",
					rs.Iteration, rs.MissingWorkers, rs.DegradedFiles, rs.DroppedFiles)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("parameter server on %s\n", srv.Addr())

	// Two colluding Byzantine workers run the registry's reversed-gradient
	// attack — the same adversary object the in-process engine runs; the
	// MOLS(5,3) assignment limits them to distorting at most 1 of 25 file
	// votes (Table 3, q = 2), which the median then absorbs.
	reversed, err := byzshield.Registry.Attack("reversed")
	if err != nil {
		log.Fatal(err)
	}
	coalition := []int{2, 9}

	var wg sync.WaitGroup
	for id := 0; id < 15; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := transport.WorkerConfig{ID: id}
			if slices.Contains(coalition, id) {
				cfg.Attack, cfg.Coalition = reversed, coalition
			}
			_, err := transport.RunWorker(ctx, srv.Addr(), cfg)
			switch {
			case errors.Is(err, transport.ErrInjectedCrash):
				log.Printf("worker %d: crashed as scheduled", id)
			case err != nil:
				log.Printf("worker %d: %v", id, err)
			}
		}(id)
	}

	final, err := srv.Serve(ctx)
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	fmt.Printf("final top-1 accuracy with 2 Byzantine workers, 1 crash, 1 flaky: %.4f\n", final)
	fmt.Printf("PS→worker broadcast: %d bytes over %d rounds (%d B/round, delta frames between full refreshes)\n",
		broadcastBytes.Load(), rounds.Load(), broadcastBytes.Load()/rounds.Load())
}
