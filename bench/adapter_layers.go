package main

// The layer replay of the traced run: one round's steps executed by
// calling each layer's public entry points in order, on the workload's
// own data at its live parameters, with a span around every call. Both
// precisions run the same generic replay; kernels64 and kernels32 bind
// it to the program's two sets of entry points.

import (
	"context"
	"fmt"
	"net"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/data"
	"byzshield/internal/distort"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
	"byzshield/internal/vote"
	"byzshield/internal/wire"
)

// layerInputs is what an instance hands the replay.
type layerInputs struct {
	asn      *assign.Assignment
	rebuild  func() (*assign.Assignment, error) // the workload's assignment constructor
	mdl      model.Model
	train    *data.Dataset
	agg      aggregate.Aggregator
	batch    int
	seed     int64
	sched    trainer.Schedule
	momentum float64
	params   []float64 // f64 planes
	params32 []float32 // f32 planes
	byz      []int     // Byzantine workers of the live run

	// The live round's wire shape; zero on the in-process planes, where
	// the codecs and sockets are replayed for their unit costs only.
	wire        bool
	tier        wire.UplinkTier
	shards      int
	fullEvery   int
	joined      time.Duration
	evictions   int64
	staleFrames int64
}

const (
	replayReps = 30
	// connSequentialMax is the largest frame the two-socket micro-run
	// sends and then receives one after the other: it always fits the
	// loopback socket buffers. Larger frames need the receiver reading
	// while the sender writes, so their two timings overlap.
	connSequentialMax = 32 << 10
	medianCols        = 1024
)

// kernels binds the replay to one precision's entry points.
type kernels[T linalg.Float] struct {
	width       int // bytes per value
	grad        func(params []T, idx []int, out []T)
	vote        func(replicas [][]T) error
	aggregate   func(grads [][]T, out []T) error
	step        func(params, grad []T, t int)
	upEncode    func(shard int, dst []byte, worker int, files []int, grads [][]T) (frame []byte, rawSize int, err error)
	upDecode    func(shard int, src []byte) error
	paramsFull  func(dst []byte, p []T) ([]byte, error)
	paramsDelta func(dst []byte, base, cur []T) ([]byte, error)
	paramsDec   func(src []byte, p []T) error
}

func kernels64(in layerInputs, shards int) (kernels[float64], error) {
	ca, ok := in.agg.(aggregate.ChunkAggregator)
	if !ok {
		return kernels[float64]{}, fmt.Errorf("aggregator %s is not chunked", in.agg.Name())
	}
	opt, err := trainer.NewSGD(in.sched, in.momentum, in.mdl.NumParams())
	if err != nil {
		return kernels[float64]{}, err
	}
	encs := make([]wire.UplinkEncoder, shards)
	decs := make([]wire.UplinkDecoder, shards)
	frames := make([]wire.GradFrame, shards)
	for s := range encs {
		encs[s].Tier, decs[s].Tier = in.tier, in.tier
	}
	return kernels[float64]{
		width: 8,
		grad:  func(p []float64, idx []int, out []float64) { in.mdl.SumGradient(p, in.train, idx, out) },
		vote: func(r [][]float64) error {
			_, err := vote.Majority(r)
			return err
		},
		aggregate: func(g [][]float64, out []float64) error { return ca.AggregateChunk(g, out, 0, len(out)) },
		step:      opt.Step,
		upEncode: func(s int, dst []byte, worker int, files []int, g [][]float64) ([]byte, int, error) {
			out, _, raw, err := encs[s].Encode(dst, worker, files, g)
			return out, raw, err
		},
		upDecode: func(s int, src []byte) error {
			_, _, err := decs[s].Decode(src, &frames[s])
			return err
		},
		paramsFull:  wire.AppendParamsFull,
		paramsDelta: wire.AppendParamsDelta,
		paramsDec: func(src []byte, p []float64) error {
			_, _, err := wire.DecodeParams(src, p)
			return err
		},
	}, nil
}

func kernels32(in layerInputs, shards int) (kernels[float32], error) {
	mdl, ok := in.mdl.(model.Model32)
	if !ok {
		return kernels[float32]{}, fmt.Errorf("model %s has no float32 kernels", in.mdl.Name())
	}
	ca, ok := in.agg.(aggregate.ChunkAggregator32)
	if !ok {
		return kernels[float32]{}, fmt.Errorf("aggregator %s has no float32 kernels", in.agg.Name())
	}
	opt, err := trainer.NewSGD32(in.sched, in.momentum, in.mdl.NumParams())
	if err != nil {
		return kernels[float32]{}, err
	}
	train := in.train.To32()
	encs := make([]wire.UplinkEncoder32, shards)
	decs := make([]wire.UplinkDecoder32, shards)
	frames := make([]wire.GradFrame32, shards)
	for s := range encs {
		encs[s].Tier, decs[s].Tier = in.tier, in.tier
	}
	return kernels[float32]{
		width: 4,
		grad:  func(p []float32, idx []int, out []float32) { mdl.SumGradient32(p, train, idx, out) },
		vote: func(r [][]float32) error {
			_, err := vote.Majority32(r)
			return err
		},
		aggregate: func(g [][]float32, out []float32) error { return ca.AggregateChunk32(g, out, 0, len(out)) },
		step:      opt.Step,
		upEncode: func(s int, dst []byte, worker int, files []int, g [][]float32) ([]byte, int, error) {
			out, _, raw, err := encs[s].Encode(dst, worker, files, g)
			return out, raw, err
		},
		upDecode: func(s int, src []byte) error {
			_, _, err := decs[s].Decode(src, &frames[s])
			return err
		},
		paramsFull:  wire.AppendParamsFull32,
		paramsDelta: wire.AppendParamsDelta32,
		paramsDec: func(src []byte, p []float32) error {
			_, _, err := wire.DecodeParams32(src, p)
			return err
		},
	}, nil
}

// layerCosts is the replay's result: the per-layer metrics it can
// compute alone, and each layer's CPU cost per live round in ms.
type layerCosts struct {
	metrics  map[string]float64
	perRound map[string]float64 // layer name -> ms of that layer per live round
}

func replayLayers(in layerInputs, spans *spanLog) (layerCosts, error) {
	shards := in.shards
	if shards < 1 {
		shards = 1
	}
	if in.params32 != nil {
		k, err := kernels32(in, shards)
		if err != nil {
			return layerCosts{}, err
		}
		return replay(in, k, in.params32, shards, spans)
	}
	k, err := kernels64(in, shards)
	if err != nil {
		return layerCosts{}, err
	}
	return replay(in, k, in.params, shards, spans)
}

// timer records one span per call and keeps every duration by name.
type timer struct {
	spans  *spanLog
	parent int64
	round  int
	byName map[string][]float64 // ms
}

func (t *timer) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(name, start, time.Now())
	return err
}

func (t *timer) record(name string, start, end time.Time) {
	t.spans.add(name, t.parent, t.round, start, end)
	t.byName[name] = append(t.byName[name], ms(end.Sub(start)))
}

func (t *timer) p50(name string) float64 { return median(t.byName[name]) }

func replay[T linalg.Float](in layerInputs, k kernels[T], params []T, shards int, spans *spanLog) (layerCosts, error) {
	asn := in.asn
	dim := len(params)
	tm := &timer{spans: spans, byName: make(map[string][]float64)}
	out := layerCosts{metrics: make(map[string]float64), perRound: make(map[string]float64)}

	// Set-up layers, a few repetitions each.
	for rep := 0; rep < 5; rep++ {
		tm.round = rep
		if err := tm.time("assign.build", func() error {
			_, err := in.rebuild()
			return err
		}); err != nil {
			return out, err
		}
	}
	var worst distort.SearchResult
	for rep := 0; rep < 3; rep++ {
		tm.round = rep
		tm.time("distort.worstcase", func() error {
			worst = distort.NewAnalyzer(asn).MaxDistorted(context.Background(), len(in.byz))
			return nil
		})
	}
	out.metrics["assign.build_ms"] = tm.p50("assign.build")
	out.metrics["distort.worstcase_ms"] = tm.p50("distort.worstcase")
	out.metrics["distort.cmax"] = float64(worst.CMax)
	out.metrics["distort.epsilon"] = worst.Epsilon

	// Buffers of one replayed round.
	sampler, err := data.NewBatchSampler(in.train.Len(), in.batch, in.seed)
	if err != nil {
		return out, err
	}
	var files [][]int
	grads := make([][]T, asn.F)
	for v := range grads {
		grads[v] = make([]T, dim)
	}
	isByz := make(map[int]bool, len(in.byz))
	for _, u := range in.byz {
		isByz[u] = true
	}
	replicas := make([][][]T, asn.F)
	for v := range replicas {
		replicas[v] = make([][]T, asn.R)
		for j := range replicas[v] {
			replicas[v][j] = make([]T, dim)
		}
	}
	payload := make([]T, dim) // what every Byzantine replica carries
	update := make([]T, dim)
	stepped := make([]T, dim)
	decoded := make([]T, dim)
	cols := make([][]T, min(medianCols, dim))
	for c := range cols {
		cols[c] = make([]T, asn.F)
	}
	worker0 := asn.WorkerFiles(0)
	report := make([][]T, len(worker0))
	shardView := make([][]T, len(worker0))
	upFrames := make([][]byte, shards)
	var paramsFrame []byte
	upBytes, upRaw := 0, 0
	fullEvery := in.fullEvery
	if fullEvery == 0 {
		fullEvery = transport.DefaultFullBroadcastEvery
	}
	var fullSize, deltaSize int

	for rep := 0; rep < replayReps; rep++ {
		start := time.Now()
		tm.round = rep
		tm.parent = spans.add("replay", 0, rep, start, start) // end patched below
		root := tm.parent - 1

		if err := tm.time("data.batch", func() (err error) {
			files, err = data.PartitionFilesInto(sampler.Next(), asn.F, files)
			return err
		}); err != nil {
			return out, err
		}
		tm.time("model.grad", func() error {
			for v, idx := range files {
				clear(grads[v])
				k.grad(params, idx, grads[v])
			}
			return nil
		})

		// Every honest worker holds its own copy of a file's gradient;
		// the Byzantine ones all hold the same crafted vector, so the
		// vote sees the live round's agree/disagree pattern.
		for i, x := range grads[0] {
			payload[i] = -x
		}
		for v := range replicas {
			for j, u := range asn.FileWorkers(v) {
				if isByz[u] {
					copy(replicas[v][j], payload)
				} else {
					copy(replicas[v][j], grads[v])
				}
			}
		}
		if err := tm.time("vote.majority", func() error {
			for v := range replicas {
				if err := k.vote(replicas[v]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return out, err
		}
		if err := tm.time("aggregate.chunk", func() error { return k.aggregate(grads, update) }); err != nil {
			return out, err
		}
		copy(stepped, params)
		tm.time("trainer.step", func() error {
			k.step(stepped, update, rep)
			return nil
		})

		// One worker's report through its uplink codec, shard by shard.
		for i, v := range worker0 {
			report[i] = grads[v]
		}
		upBytes, upRaw = 0, 0
		if err := tm.time("wire.uplink_enc", func() error {
			for s := 0; s < shards; s++ {
				lo, hi := wire.ShardRange(dim, shards, s)
				for i := range report {
					shardView[i] = report[i][lo:hi]
				}
				frame, raw, err := k.upEncode(s, upFrames[s][:0], 0, worker0, shardView)
				if err != nil {
					return err
				}
				upFrames[s] = frame
				upBytes += len(frame)
				upRaw += raw
			}
			return nil
		}); err != nil {
			return out, err
		}
		if err := tm.time("wire.uplink_dec", func() error {
			for s := 0; s < shards; s++ {
				if err := k.upDecode(s, upFrames[s]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return out, err
		}

		// The parameter broadcast: a full frame and the XOR delta from
		// the live parameters to the stepped ones.
		if err := tm.time("wire.params_enc_full", func() (err error) {
			paramsFrame, err = k.paramsFull(paramsFrame[:0], stepped)
			return err
		}); err != nil {
			return out, err
		}
		fullSize = len(paramsFrame)
		if err := tm.time("wire.params_dec_full", func() error { return k.paramsDec(paramsFrame, decoded) }); err != nil {
			return out, err
		}
		if err := tm.time("wire.params_enc_delta", func() (err error) {
			paramsFrame, err = k.paramsDelta(paramsFrame[:0], params, stepped)
			return err
		}); err != nil {
			return out, err
		}
		deltaSize = len(paramsFrame)
		copy(decoded, params)
		if err := tm.time("wire.params_dec_delta", func() error { return k.paramsDec(paramsFrame, decoded) }); err != nil {
			return out, err
		}

		// The linalg kernels under the aggregators, on the same rows.
		for c := range cols {
			i := c * dim / len(cols)
			for v := range grads {
				cols[c][v] = grads[v][i]
			}
		}
		tm.time("linalg.median_select", func() error {
			for c := range cols {
				update[c] = linalg.MedianSelect(cols[c])
			}
			return nil
		})
		tm.time("linalg.mean_vec", func() error {
			linalg.MeanVecInto(update, grads)
			return nil
		})
		tm.time("linalg.axpy", func() error {
			linalg.AxpyInPlace(update, T(0.5), grads[0])
			return nil
		})
		spans.spans[root].EndNS = time.Since(spans.t0).Nanoseconds()
	}

	// Unit costs.
	gbps := func(bytes int, msec float64) float64 { return float64(bytes) / (msec * 1e6) }
	w := k.width
	grad := tm.p50("model.grad")
	out.metrics["data.batch_us_per_round"] = tm.p50("data.batch") * 1e3
	out.metrics["model.grad_ns_per_sample"] = grad * 1e6 / float64(in.batch)
	out.metrics["vote.ns_per_file"] = tm.p50("vote.majority") * 1e6 / float64(asn.F)
	out.metrics["vote.gbps"] = gbps(asn.F*asn.R*dim*w, tm.p50("vote.majority"))
	out.metrics["aggregate.ns_per_coord"] = tm.p50("aggregate.chunk") * 1e6 / float64(dim)
	out.metrics["linalg.median_ns_per_col"] = tm.p50("linalg.median_select") * 1e6 / float64(len(cols))
	out.metrics["linalg.mean_gbps"] = gbps(asn.F*dim*w, tm.p50("linalg.mean_vec"))
	out.metrics["linalg.axpy_gbps"] = gbps(3*dim*w, tm.p50("linalg.axpy")) // two reads, one write
	out.metrics["trainer.step_ns_per_coord"] = tm.p50("trainer.step") * 1e6 / float64(dim)
	reportBytes := len(worker0) * dim * w
	out.metrics["wire.uplink_enc_gbps"] = gbps(reportBytes, tm.p50("wire.uplink_enc"))
	out.metrics["wire.uplink_dec_gbps"] = gbps(reportBytes, tm.p50("wire.uplink_dec"))
	out.metrics["wire.uplink_ratio"] = float64(upBytes) / float64(upRaw)

	// The broadcast is a full frame every fullEvery-th round and a delta
	// otherwise; its costs are the cadence's weighted mean.
	fullShare := 1 / float64(fullEvery)
	mix := func(full, delta float64) float64 { return fullShare*full + (1-fullShare)*delta }
	paramsEnc := mix(tm.p50("wire.params_enc_full"), tm.p50("wire.params_enc_delta"))
	paramsDec := mix(tm.p50("wire.params_dec_full"), tm.p50("wire.params_dec_delta"))
	out.metrics["wire.params_enc_gbps"] = gbps(dim*w, paramsEnc)
	out.metrics["wire.params_dec_gbps"] = gbps(dim*w, paramsDec)
	out.metrics["wire.params_ratio"] = mix(1, float64(deltaSize)/float64(fullSize))

	// The two-socket micro-run with the first shard's report frame.
	send, recv, err := connMicroRun(upFrames[0], tm)
	if err != nil {
		return out, err
	}
	out.metrics["transport.conn_send_us_per_frame"] = send * 1e3
	out.metrics["transport.conn_recv_us_per_frame"] = recv * 1e3
	out.metrics["transport.conn_gbps"] = gbps(len(upFrames[0]), max(send, recv))

	// Each layer's CPU cost per live round: its unit cost times the
	// calls a live round makes. Every honest worker computes its l
	// files (a Byzantine one crafts its payload instead); an in-process
	// round runs no codec and no socket.
	honest := float64(asn.K - len(in.byz))
	out.perRound["data"] = tm.p50("data.batch")
	out.perRound["model"] = grad * honest * float64(asn.L) / float64(asn.F)
	out.perRound["vote"] = tm.p50("vote.majority")
	out.perRound["aggregate"] = tm.p50("aggregate.chunk")
	out.perRound["trainer"] = tm.p50("trainer.step")
	if in.wire {
		k := float64(asn.K)
		out.perRound["wire"] = k*(tm.p50("wire.uplink_enc")+tm.p50("wire.uplink_dec")) + paramsEnc + k*paramsDec
		// K reports up (one write carries all of a worker's shard
		// frames) and K round starts down.
		out.perRound["transport"] = 2 * k * (send + recv)
	}
	out.metrics["model.grad_ms_per_round"] = out.perRound["model"]
	out.metrics["vote.ms_per_round"] = out.perRound["vote"]
	out.metrics["aggregate.ms_per_round"] = out.perRound["aggregate"]
	out.metrics["wire.codec_ms_per_round"] = out.perRound["wire"]
	out.metrics["transport.join_ms"] = ms(in.joined)
	out.metrics["transport.evictions"] = float64(in.evictions)
	out.metrics["transport.stale_frames"] = float64(in.staleFrames)
	return out, nil
}

// connMicroRun times transport.Conn.Send and Recv of one GradientReport
// carrying frame over a loopback TCP pair, returning each side's p50 in
// ms per frame.
func connMicroRun(frame []byte, tm *timer) (send, recv float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	accepted, err := ln.Accept()
	if err != nil {
		dialed.Close()
		return 0, 0, err
	}
	tx, rx := transport.NewConn(dialed), transport.NewConn(accepted)
	defer tx.Close()
	defer rx.Close()

	msg := transport.GradientReport{Frame: frame}
	sequential := len(frame) <= connSequentialMax
	tm.parent = 0
	for rep := 0; rep < replayReps; rep++ {
		tm.round = rep
		type recvResult struct {
			start, end time.Time
			err        error
		}
		recvDone := make(chan recvResult, 1)
		doRecv := func() {
			start := time.Now()
			_, err := rx.Recv()
			recvDone <- recvResult{start, time.Now(), err}
		}
		if !sequential {
			go doRecv()
		}
		if err := tm.time("transport.conn_send", func() error {
			_, err := tx.Send(msg)
			return err
		}); err != nil {
			return 0, 0, err
		}
		if sequential {
			doRecv()
		}
		r := <-recvDone
		if r.err != nil {
			return 0, 0, r.err
		}
		tm.record("transport.conn_recv", r.start, r.end)
	}
	return tm.p50("transport.conn_send"), tm.p50("transport.conn_recv"), nil
}
