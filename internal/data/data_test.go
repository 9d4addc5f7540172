package data

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Train: 100, Test: 20, Dim: 8, Classes: 10, Seed: 7}
	tr1, te1, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr1.X {
		for j := range tr1.X[i] {
			if tr1.X[i][j] != tr2.X[i][j] {
				t.Fatal("train not deterministic")
			}
		}
	}
	for i := range te1.X {
		for j := range te1.X[i] {
			if te1.X[i][j] != te2.X[i][j] {
				t.Fatal("test not deterministic")
			}
		}
	}
}

func TestSyntheticShapesAndLabels(t *testing.T) {
	tr, te, err := Synthetic(SyntheticConfig{Train: 95, Test: 31, Dim: 16, Classes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 95 || te.Len() != 31 || tr.Dim() != 16 {
		t.Fatalf("shapes: train %d test %d dim %d", tr.Len(), te.Len(), tr.Dim())
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if err := te.Validate(); err != nil {
		t.Error(err)
	}
	// All classes present in a 95-sample cycling draw.
	seen := make(map[int]bool)
	for _, y := range tr.Y {
		seen[y] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d classes present", len(seen))
	}
}

func TestSyntheticSeedsDiffer(t *testing.T) {
	tr1, _, _ := Synthetic(SyntheticConfig{Train: 10, Test: 1, Dim: 4, Classes: 2, Seed: 1})
	tr2, _, _ := Synthetic(SyntheticConfig{Train: 10, Test: 1, Dim: 4, Classes: 2, Seed: 2})
	same := true
	for i := range tr1.X {
		for j := range tr1.X[i] {
			if tr1.X[i][j] != tr2.X[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSyntheticErrors(t *testing.T) {
	if _, _, err := Synthetic(SyntheticConfig{Train: 0, Test: 1, Dim: 4, Classes: 2}); err == nil {
		t.Error("Train=0 accepted")
	}
	if _, _, err := Synthetic(SyntheticConfig{Train: 1, Test: 1, Dim: 0, Classes: 2}); err == nil {
		t.Error("Dim=0 accepted")
	}
	if _, _, err := Synthetic(SyntheticConfig{Train: 1, Test: 1, Dim: 4, Classes: 1}); err == nil {
		t.Error("Classes=1 accepted")
	}
}

func TestSyntheticImbalanced(t *testing.T) {
	tr, _, err := Synthetic(SyntheticConfig{Train: 550, Test: 1, Dim: 4, Classes: 10, Seed: 3, Imbalanced: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for _, y := range tr.Y {
		counts[y]++
	}
	if counts[9] <= counts[0] {
		t.Errorf("imbalanced ramp not increasing: %v", counts)
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}}, Y: []int{5}, Classes: 2}
	if err := ds.Validate(); err == nil {
		t.Error("bad label accepted")
	}
	ds2 := &Dataset{X: [][]float64{{1}, {2, 3}}, Y: []int{0, 1}, Classes: 2}
	if err := ds2.Validate(); err == nil {
		t.Error("ragged features accepted")
	}
	ds3 := &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}, Classes: 2}
	if err := ds3.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestBatchSamplerCoversEpoch(t *testing.T) {
	s, err := NewBatchSampler(10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < 2; i++ { // one epoch = 2 batches
		for _, idx := range s.Next() {
			seen[idx]++
		}
	}
	if len(seen) != 10 {
		t.Errorf("epoch covered %d distinct samples, want 10", len(seen))
	}
	for idx, c := range seen {
		if c != 1 {
			t.Errorf("sample %d drawn %d times in one epoch", idx, c)
		}
	}
}

func TestBatchSamplerDeterministic(t *testing.T) {
	s1, _ := NewBatchSampler(20, 7, 42)
	s2, _ := NewBatchSampler(20, 7, 42)
	for i := 0; i < 5; i++ {
		b1, b2 := s1.Next(), s2.Next()
		for j := range b1 {
			if b1[j] != b2[j] {
				t.Fatal("sampler not deterministic")
			}
		}
	}
}

func TestBatchSamplerErrors(t *testing.T) {
	if _, err := NewBatchSampler(5, 6, 1); err == nil {
		t.Error("batch > n accepted")
	}
	if _, err := NewBatchSampler(5, 0, 1); err == nil {
		t.Error("batch 0 accepted")
	}
}

func TestBatchSamplerBatchSizeAlwaysExact(t *testing.T) {
	// n = 10, batch = 4: epoch boundary falls inside a batch.
	s, _ := NewBatchSampler(10, 4, 9)
	for i := 0; i < 20; i++ {
		if got := len(s.Next()); got != 4 {
			t.Fatalf("batch %d has %d samples", i, got)
		}
	}
}

func TestPartitionFilesEven(t *testing.T) {
	batch := []int{0, 1, 2, 3, 4, 5}
	files, err := PartitionFiles(batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("%d files", len(files))
	}
	for i, f := range files {
		if len(f) != 2 {
			t.Errorf("file %d size %d", i, len(f))
		}
	}
	if files[0][0] != 0 || files[2][1] != 5 {
		t.Error("partition order wrong")
	}
}

func TestPartitionFilesUneven(t *testing.T) {
	batch := []int{0, 1, 2, 3, 4, 5, 6}
	files, err := PartitionFiles(batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{len(files[0]), len(files[1]), len(files[2])}
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 2 {
		t.Errorf("sizes = %v", sizes)
	}
	total := 0
	for _, f := range files {
		total += len(f)
	}
	if total != 7 {
		t.Errorf("total = %d", total)
	}
}

func TestPartitionFilesErrors(t *testing.T) {
	if _, err := PartitionFiles([]int{1, 2}, 3); err == nil {
		t.Error("f > len accepted")
	}
	if _, err := PartitionFiles([]int{1, 2}, 0); err == nil {
		t.Error("f = 0 accepted")
	}
}

// Property: every partition is a disjoint cover of the batch.
func TestQuickPartitionDisjointCover(t *testing.T) {
	prop := func(nRaw, fRaw uint8) bool {
		n := 1 + int(nRaw)%100
		f := 1 + int(fRaw)%n
		batch := make([]int, n)
		for i := range batch {
			batch[i] = i * 3
		}
		files, err := PartitionFiles(batch, f)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, file := range files {
			for _, idx := range file {
				if seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProbeIndicesDeterministicAndBounded(t *testing.T) {
	for _, n := range []int{1, 10, 256, 1000} {
		idx := ProbeIndices(n)
		if len(idx) != min(256, n) {
			t.Errorf("n=%d: %d probe indices", n, len(idx))
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				t.Fatalf("n=%d: probe index %d out of range", n, i)
			}
		}
		again := ProbeIndices(n)
		for k := range idx {
			if idx[k] != again[k] {
				t.Fatalf("n=%d: probe indices not deterministic", n)
			}
		}
	}
}

func TestPerSampleScale(t *testing.T) {
	if got := PerSampleScale(25, 250); got != 0.1 {
		t.Errorf("PerSampleScale(25, 250) = %v", got)
	}
	if got := PerSampleScale(1, 4); got != 0.25 {
		t.Errorf("PerSampleScale(1, 4) = %v", got)
	}
}

// TestFileStreamRoundIsPositional: round t's table depends on t alone —
// a stream that skipped rounds returns, for the rounds it is asked,
// what a fresh stream stepped round by round returns (and, for the IID
// sampler, what the sampler and PartitionFiles give by hand) — for both
// samplers; it cannot rewind; and a steady-state Round allocates nothing.
func TestFileStreamRoundIsPositional(t *testing.T) {
	const n, batch, f, seed = 97, 20, 6, 11
	ds, _, err := Synthetic(SyntheticConfig{Train: n, Dim: 2, Classes: f, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*FileStream, error){
		"iid":   func() (*FileStream, error) { return NewRunStream(ds, batch, seed, f, nil) },
		"pools": func() (*FileStream, error) { return NewRunStream(ds, batch, seed, f, IID{Seed: 4}) },
	} {
		t.Run(name, func(t *testing.T) {
			stepped, err := open()
			if err != nil {
				t.Fatal(err)
			}
			var want [][][]int // want[t][v]: a copy of round t's table
			for r := 0; r < 40; r++ {
				files, err := stepped.Round(r)
				if err != nil {
					t.Fatal(err)
				}
				table := make([][]int, len(files))
				for v := range files {
					table[v] = append([]int(nil), files[v]...)
				}
				want = append(want, table)
			}
			if name == "iid" {
				sampler, _ := NewBatchSampler(n, batch, seed)
				for r := range want {
					byHand, _ := PartitionFiles(sampler.Next(), f)
					if !reflect.DeepEqual(want[r], byHand) {
						t.Fatalf("round %d: the stream differs from sampler.Next + PartitionFiles", r)
					}
				}
			}
			skipping, err := open()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []int{3, 4, 9, 10, 31, 39} { // a seek from 0, steps, skips across epochs
				got, err := skipping.Round(r)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[r]) {
					t.Fatalf("round %d after skipping: %v, want %v", r, got, want[r])
				}
			}
			for _, r := range []int{39, 12, 0} {
				if _, err := skipping.Round(r); err == nil {
					t.Errorf("round %d after round 39: the stream rewound", r)
				}
			}
			next := 40
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := skipping.Round(next); err != nil {
					t.Fatal(err)
				}
				next += 2
			}); allocs != 0 {
				t.Errorf("%v allocations per steady-state Round, want 0", allocs)
			}
		})
	}
	if _, err := NewRunStream(ds, batch, seed, batch+1, nil); err == nil {
		t.Error("more files than samples in a batch accepted")
	}
}
