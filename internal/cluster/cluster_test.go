package cluster

import (
	"context"
	"slices"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/distort"
	"byzshield/internal/fault"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
	"byzshield/internal/wire"
)

// testSetup builds a small but realistic experiment: MOLS(5,3) → K=15
// workers, 25 files; softmax model on a separable synthetic dataset.
func testSetup(t testing.TB, byz []int, atk attack.Attack, agg aggregate.Aggregator) Config {
	t.Helper()
	return testSetupOf[float64](t, byz, atk, agg)
}

// testSetupOf is testSetup for the engine of width T.
func testSetupOf[T linalg.Float](t testing.TB, byz []int, atk attack.Attack, agg aggregate.Aggregator) ConfigOf[T] {
	t.Helper()
	a, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 600, Test: 200, Dim: 12, Classes: 10, Seed: 17, ClassSep: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewSoftmax(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	return ConfigOf[T]{
		Assignment: a,
		Model:      m,
		Train:      train,
		Test:       test,
		BatchSize:  100,
		Attack:     atk,
		Byzantines: byz,
		Aggregator: agg,
		Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25},
		Momentum:   0.9,
		Seed:       5,
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	bad := cfg
	bad.Aggregator = nil
	if _, err := New(bad); err == nil {
		t.Error("nil aggregator accepted")
	}
	bad = cfg
	bad.BatchSize = 10 // < 25 files
	if _, err := New(bad); err == nil {
		t.Error("batch < files accepted")
	}
	bad = cfg
	bad.Byzantines = []int{99}
	if _, err := New(bad); err == nil {
		t.Error("out-of-range byzantine accepted")
	}
	bad = cfg
	bad.Byzantines = []int{1, 1}
	if _, err := New(bad); err == nil {
		t.Error("duplicate byzantine accepted")
	}
	bad = cfg
	bad.Model = nil
	if _, err := New(bad); err == nil {
		t.Error("nil model accepted")
	}
}

func TestCorruptibleFilesMatchDistortAnalysis(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	an := distort.NewAnalyzer(cfg.Assignment)
	byz := an.WorstCaseByzantines(context.Background(), 5)
	cfg.Byzantines = byz
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := an.DistortedFiles(byz)
	got := e.CorruptibleFiles()
	if len(got) != len(want) {
		t.Fatalf("corruptible = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corruptible = %v, want %v", got, want)
		}
	}
	// Table 3: q=5 → c_max=8, ε̂=0.32.
	if len(got) != 8 {
		t.Errorf("c_max(5) = %d, want 8", len(got))
	}
	if e.DistortionFraction() != 8.0/25 {
		t.Errorf("ε̂ = %v", e.DistortionFraction())
	}
}

func TestBenignTrainingConverges(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Run(context.Background(), 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	if acc := h.FinalAccuracy(); acc < 0.6 {
		t.Errorf("benign training reached only %.2f accuracy", acc)
	}
}

// TestRoundStatsDistortionMatchesStaticAnalysis: the Byzantines win
// exactly c_max file votes a round (Table 3: q = 3 → 3) on every uplink
// tier and at either engine width. Under a lossy tier the true gradients
// the winners are judged against pass the same quantizer as the honest
// replicas, so the count does not depend on the tier. The oracle case
// crashes every honest holder of one corruptible file, so that file's
// true gradient is the engine's own oracle row: a benign coalition must
// still win nothing, which holds only if that row is quantized too.
func TestRoundStatsDistortionMatchesStaticAnalysis(t *testing.T) {
	asn := mustMOLS(t)
	an := distort.NewAnalyzer(asn)
	byz := an.WorstCaseByzantines(context.Background(), 3)
	var crashed []int
	for _, v := range an.DistortedFiles(byz) {
		for _, u := range asn.FileWorkers(v) {
			if !slices.Contains(byz, u) {
				crashed = append(crashed, u)
			}
		}
		if len(crashed) > 0 {
			break
		}
	}
	if len(crashed) == 0 {
		t.Fatal("every corruptible file is all-Byzantine: the oracle case checks nothing")
	}
	cases := []struct {
		name   string
		atk    attack.Attack
		fault  fault.Fault
		quorum int
		tiers  []wire.UplinkTier
		want   int
	}{
		{"constant", attack.Constant{Value: 7, ScaleByFileSize: true}, nil, 0,
			[]wire.UplinkTier{wire.TierRaw, wire.TierSign, wire.TierInt8}, 3},
		{"benign-oracle", attack.Benign{}, fault.Crash{Workers: crashed}, 1,
			[]wire.UplinkTier{wire.TierSign, wire.TierInt8}, 0},
	}
	for _, tc := range cases {
		for _, tier := range tc.tiers {
			name := tc.name + "/" + tier.String()
			t.Run(name+"/f64", func(t *testing.T) {
				cfg := testSetup(t, byz, tc.atk, aggregate.Median{})
				cfg.UplinkTier, cfg.Fault, cfg.Quorum = tier, tc.fault, tc.quorum
				expectDistorted(t, cfg, 2, tc.want)
			})
			t.Run(name+"/f32", func(t *testing.T) {
				cfg := testSetupOf[float32](t, byz, tc.atk, aggregate.Median{})
				cfg.UplinkTier, cfg.Fault, cfg.Quorum = tier, tc.fault, tc.quorum
				expectDistorted(t, cfg, 2, tc.want)
			})
		}
	}
}

// expectDistorted runs cfg for rounds rounds and requires every round to
// report want distorted files.
func expectDistorted[T linalg.Float](t *testing.T, cfg ConfigOf[T], rounds, want int) {
	t.Helper()
	e, err := NewOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < rounds; i++ {
		stats, err := e.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if stats.DistortedFiles != want {
			t.Errorf("round %d: distorted = %d, want %d", i, stats.DistortedFiles, want)
		}
	}
}

func mustMOLS(t testing.TB) *assign.Assignment {
	t.Helper()
	a, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMajorityVoteFiltersSubThresholdByzantines(t *testing.T) {
	// One Byzantine per file replica group (q=2 < r'=2 on any shared
	// file... actually q=2 can corrupt exactly 1 file per Table 3).
	an := distort.NewAnalyzer(mustMOLS(t))
	byz := an.WorstCaseByzantines(context.Background(), 2)
	cfg := testSetup(t, byz, attack.Constant{Value: 1e6}, aggregate.Median{})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DistortedFiles != 1 {
		t.Errorf("distorted = %d, want 1 (Table 3, q=2)", stats.DistortedFiles)
	}
	// Training still converges: 1/25 corrupted winners, median absorbs it.
	h, err := e.Run(context.Background(), 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalAccuracy() < 0.55 {
		t.Errorf("accuracy %.2f under q=2 constant attack", h.FinalAccuracy())
	}
}

func TestByzShieldBeatsUndefendedMeanUnderAttack(t *testing.T) {
	an := distort.NewAnalyzer(mustMOLS(t))
	byz := an.WorstCaseByzantines(context.Background(), 5)

	// Reversed gradient with C = 10: the 8 corrupted winners flip the
	// sign of the mean update entirely, while the median still sits
	// among the 17 honest winners.
	run := func(agg aggregate.Aggregator) float64 {
		cfg := testSetup(t, byz, attack.Reversed{C: 10}, agg)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Run(context.Background(), 50, 50)
		if err != nil {
			t.Fatal(err)
		}
		return h.FinalAccuracy()
	}
	median := run(aggregate.Median{})
	mean := run(aggregate.Mean{})
	if median < mean+0.2 {
		t.Errorf("median accuracy %.3f should clearly beat mean %.3f under reversed-gradient attack", median, mean)
	}
	if median < 0.6 {
		t.Errorf("median accuracy %.3f too low", median)
	}
}

// TestSignMessagesPipeline trains the signSGD pipeline under a sign-flip
// (reversed-gradient) coalition. Its name predates the deletion of the
// engine's sign-message mode: signSGD is now the aggregation rule alone,
// voting raw replicas and counting their signs.
func TestSignMessagesPipeline(t *testing.T) {
	cfg := testSetup(t, []int{0, 5}, attack.Reversed{}, aggregate.SignSGD{})
	cfg.Schedule = trainer.Schedule{Base: 0.005, Decay: 0.9, Every: 20}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Run(context.Background(), 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalAccuracy() < 0.3 {
		t.Errorf("signSGD accuracy %.2f too low", h.FinalAccuracy())
	}
}

// TestSignSGDStepsByLearningRate: under the signsgd rule one momentum-free
// round moves every parameter by exactly lr × the voted sign — −lr, 0 or
// +lr — with no per-sample rescale, at either engine width.
func TestSignSGDStepsByLearningRate(t *testing.T) {
	t.Run("f64", func(t *testing.T) { checkSignStep(t, testSetup(t, nil, attack.Benign{}, aggregate.SignSGD{})) })
	t.Run("f32", func(t *testing.T) {
		checkSignStep(t, testSetupOf[float32](t, nil, attack.Benign{}, aggregate.SignSGD{}))
	})
}

func checkSignStep[T linalg.Float](t *testing.T, cfg ConfigOf[T]) {
	t.Helper()
	cfg.Momentum = 0
	e, err := NewOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := e.Params()
	stats, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	lr := T(stats.LR)
	moved := 0
	for i, p := range e.Params() {
		switch p {
		case before[i] - lr:
			moved++
		case before[i] + lr:
			moved++
		case before[i]:
		default:
			t.Fatalf("param %d moved %v → %v, not by ±lr = %v", i, before[i], p, lr)
		}
	}
	if moved == 0 {
		t.Fatal("no parameter moved: the case checks nothing")
	}
}

// TestInProcessPhaseTimes: the in-process source times compute, the
// core times aggregation, and nothing is sent — communication and the
// byte counters stay exactly zero — while Times accumulates every round.
func TestInProcessPhaseTimes(t *testing.T) {
	cfg := testSetup(t, []int{0}, attack.Reversed{}, aggregate.Median{})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var sum PhaseTimes
	for i := 0; i < 3; i++ {
		stats, err := e.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Times.Compute <= 0 || stats.Times.Aggregation <= 0 {
			t.Errorf("round %d: phase times missing: %+v", i, stats.Times)
		}
		if stats.Times.Communication != 0 || stats.Times.ReportBytes != 0 || stats.Times.BroadcastBytes != 0 {
			t.Errorf("round %d: in-process round reports communication: %+v", i, stats.Times)
		}
		sum.Add(stats.Times)
	}
	if total := e.Times(); total != sum {
		t.Errorf("Times() = %+v, want the sum of the rounds %+v", total, sum)
	}
}

func TestCheckFeasible(t *testing.T) {
	an := distort.NewAnalyzer(mustMOLS(t))
	byz := an.WorstCaseByzantines(context.Background(), 5) // c_max = 8 of 25

	cfg := testSetup(t, byz, attack.ALIE{}, aggregate.MultiKrum{C: 8})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-Krum needs 25 >= 2*8+3 = 19: feasible.
	if err := e.CheckFeasible(); err != nil {
		t.Errorf("MultiKrum(8) on 25 operands should be feasible: %v", err)
	}
	// Bulyan needs 25 >= 4*8+3 = 35: infeasible — mirrors the paper's
	// "Bulyan cannot be paired" constraint.
	cfg.Aggregator = aggregate.Bulyan{C: 8}
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.CheckFeasible(); err == nil {
		t.Error("Bulyan(8) on 25 operands should be infeasible")
	}
}

func TestBaselineAssignmentNoVote(t *testing.T) {
	// Baseline: K = f = 15, r = 1: aggregator sees raw worker gradients.
	a, err := assign.Baseline(15)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 300, Test: 100, Dim: 8, Classes: 4, Seed: 23, ClassSep: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewSoftmax(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Assignment: a, Model: m, Train: train, Test: test,
		BatchSize: 60, Attack: attack.Reversed{}, Byzantines: []int{0, 1, 2},
		Aggregator: aggregate.Median{},
		Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25},
		Momentum:   0.9, Seed: 3,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	// With r = 1 every Byzantine file is distorted: q = 3 = ε̂·K.
	if stats.DistortedFiles != 3 {
		t.Errorf("baseline distorted = %d, want 3", stats.DistortedFiles)
	}
	h, err := e.Run(context.Background(), 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalAccuracy() < 0.5 {
		t.Errorf("baseline median under weak revgrad: %.2f", h.FinalAccuracy())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		cfg := testSetup(t, []int{2, 7}, attack.ALIE{}, aggregate.Median{})
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := e.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Params()
	}
	p1 := run()
	p2 := run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("runs diverged at param %d", i)
		}
	}
}

func TestRunRejectsBadIterations(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), 0, 1); err == nil {
		t.Error("0 iterations accepted")
	}
}

func BenchmarkRoundByzShield(b *testing.B) {
	cfg := testSetup(b, []int{0, 5, 10}, attack.ALIE{}, aggregate.Median{})
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCrashFaultDegradesWithoutAborting: crashing one worker mid-run
// must not abort training — files it held vote degraded over the two
// surviving replicas (quorum 2 of r=3), and RoundStats reports the
// missing worker.
func TestCrashFaultDegradesWithoutAborting(t *testing.T) {
	cfg := testSetup(t, nil, nil, aggregate.Median{})
	cfg.Fault = fault.Crash{Workers: []int{4}, AtRound: 3}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for round := 0; round < 8; round++ {
		stats, err := eng.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round < 3 {
			if len(stats.MissingWorkers) != 0 || stats.DegradedFiles != 0 || stats.DroppedFiles != 0 {
				t.Fatalf("round %d: unexpected degradation before crash: %+v", round, stats)
			}
			continue
		}
		if len(stats.MissingWorkers) != 1 || stats.MissingWorkers[0] != 4 {
			t.Fatalf("round %d: missing workers %v, want [4]", round, stats.MissingWorkers)
		}
		// Worker 4 holds l = 5 files; each keeps 2 of 3 replicas, which
		// meets the default quorum, so they degrade rather than drop.
		if stats.DegradedFiles != 5 || stats.DroppedFiles != 0 {
			t.Fatalf("round %d: degraded %d dropped %d, want 5/0", round, stats.DegradedFiles, stats.DroppedFiles)
		}
	}
	if acc := eng.Evaluate(); acc < 0.5 {
		t.Errorf("degraded training accuracy %.3f < 0.5", acc)
	}
}

// TestFlakyFaultSkipsAreTransient: a flaky worker drops some rounds but
// participates in others; no round errors out.
func TestFlakyFaultSkipsAreTransient(t *testing.T) {
	cfg := testSetup(t, nil, nil, aggregate.Median{})
	cfg.Fault = fault.Flaky{Workers: []int{0, 7}, P: 0.5, Seed: 11}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	missingRounds, fullRounds := 0, 0
	for round := 0; round < 12; round++ {
		stats, err := eng.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(stats.MissingWorkers) > 0 {
			missingRounds++
		} else {
			fullRounds++
		}
	}
	if missingRounds == 0 || fullRounds == 0 {
		t.Errorf("flaky fault: %d missing rounds, %d full rounds; want both > 0", missingRounds, fullRounds)
	}
}

// TestQuorumDropsFilesBelowSurvivors: crashing all three replica
// holders of a file drops it from aggregation; training continues on
// the remaining files.
func TestQuorumDropsFilesBelowSurvivors(t *testing.T) {
	cfg := testSetup(t, nil, nil, aggregate.Median{})
	holders := cfg.Assignment.FileWorkers(0)
	cfg.Fault = fault.Crash{Workers: holders, AtRound: 0}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stats, err := eng.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.MissingWorkers) != len(holders) {
		t.Fatalf("missing %v, want the %d holders of file 0", stats.MissingWorkers, len(holders))
	}
	if stats.DroppedFiles < 1 {
		t.Errorf("dropped %d files, want ≥ 1 (file 0 lost all replicas)", stats.DroppedFiles)
	}
}

// TestFaultFreeTrajectoryUnchanged: installing a no-op fault model must
// not perturb the parameter trajectory.
func TestFaultFreeTrajectoryUnchanged(t *testing.T) {
	base := testSetup(t, nil, nil, aggregate.Median{})
	e1, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	withFault := testSetup(t, nil, nil, aggregate.Median{})
	withFault.Fault = fault.None{}
	e2, err := New(withFault)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for round := 0; round < 5; round++ {
		if _, err := e1.RunRound(); err != nil {
			t.Fatal(err)
		}
		if _, err := e2.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2 := e1.Params(), e2.Params()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d diverged: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestDegradedTieDropsFileInsteadOfElectingByzantine: a file held by
// [byz, honest, honest] that loses one honest replica becomes a 1–1
// tie between the crafted payload and the honest gradient; the index
// tie-break must NOT hand the Byzantine replica the vote — the file is
// dropped for the round.
func TestDegradedTieDropsFileInsteadOfElectingByzantine(t *testing.T) {
	cfg := testSetup(t, nil, nil, aggregate.Median{})
	holders := cfg.Assignment.FileWorkers(0) // ascending worker ids
	cfg.Byzantines = []int{holders[0]}       // lowest id → wins index tie-breaks
	cfg.Attack = attack.Reversed{C: 1}
	cfg.Fault = fault.Crash{Workers: []int{holders[1]}, AtRound: 0}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stats, err := eng.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	// File 0: survivors [crafted, honest] tie → dropped, never counted
	// as a Byzantine-won (distorted) vote. The crashed worker's other
	// l−1 files keep 2 honest survivors and degrade normally.
	if stats.DroppedFiles != 1 {
		t.Errorf("dropped %d files, want exactly the tied file 0", stats.DroppedFiles)
	}
	if stats.DistortedFiles != 0 {
		t.Errorf("distorted %d files; the tied crafted payload must not win", stats.DistortedFiles)
	}
	if want := cfg.Assignment.L - 1; stats.DegradedFiles != want {
		t.Errorf("degraded %d files, want %d", stats.DegradedFiles, want)
	}
}
