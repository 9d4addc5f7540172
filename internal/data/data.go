// Package data provides the datasets and batch/file plumbing for the
// training experiments. The paper trains ResNet-18 on CIFAR-10; with no
// Go deep-learning substrate available, we substitute a deterministic
// synthetic 10-class image-like dataset (Gaussian class clusters over
// d-dimensional feature vectors — see DESIGN.md for why this preserves
// the experiments' shape). The batching and file-partition logic
// implements the B_t → {B_t,i} split of the protocol (Sec. 2).
package data

import (
	"fmt"
	"math/rand"
)

// Dataset is a supervised classification dataset with dense features.
type Dataset struct {
	X       [][]float64 // n × d features
	Y       []int       // n labels in [0, Classes)
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimension (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks structural consistency.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("data: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	if d.Classes < 2 {
		return fmt.Errorf("data: %d classes < 2", d.Classes)
	}
	dim := d.Dim()
	for i, x := range d.X {
		if len(x) != dim {
			return fmt.Errorf("data: sample %d has dim %d, want %d", i, len(x), dim)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("data: label %d of sample %d out of range [0,%d)", y, i, d.Classes)
		}
	}
	return nil
}

// SyntheticConfig parameterizes the synthetic classification dataset.
type SyntheticConfig struct {
	Train      int     // number of training samples
	Test       int     // number of test samples
	Dim        int     // feature dimension
	Classes    int     // number of classes (CIFAR-10 uses 10)
	ClassSep   float64 // scale of class-mean separation (default 2.0)
	Noise      float64 // within-class standard deviation (default 1.0)
	Seed       int64   // PRNG seed; identical seeds give identical data
	Imbalanced bool    // when true, class sizes follow a 2:1 ramp
}

// Synthetic generates a deterministic Gaussian-mixture dataset: each
// class c has a mean vector drawn from N(0, ClassSep²·I); samples are
// mean + N(0, Noise²·I). Labels cycle through classes (or ramp when
// Imbalanced) so every class is populated for any Train/Test size.
func Synthetic(cfg SyntheticConfig) (train, test *Dataset, err error) {
	if cfg.Train < 1 || cfg.Test < 0 {
		return nil, nil, fmt.Errorf("data: need Train >= 1, Test >= 0, got %d/%d", cfg.Train, cfg.Test)
	}
	if cfg.Dim < 1 {
		return nil, nil, fmt.Errorf("data: Dim %d < 1", cfg.Dim)
	}
	if cfg.Classes < 2 {
		return nil, nil, fmt.Errorf("data: Classes %d < 2", cfg.Classes)
	}
	sep := cfg.ClassSep
	if sep == 0 {
		sep = 2.0
	}
	noise := cfg.Noise
	if noise == 0 {
		noise = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	means := make([][]float64, cfg.Classes)
	for c := range means {
		m := make([]float64, cfg.Dim)
		for i := range m {
			m[i] = rng.NormFloat64() * sep
		}
		means[c] = m
	}
	gen := func(n int) *Dataset {
		ds := &Dataset{
			X:       make([][]float64, n),
			Y:       make([]int, n),
			Classes: cfg.Classes,
		}
		for i := 0; i < n; i++ {
			c := i % cfg.Classes
			if cfg.Imbalanced {
				// Ramp: class c gets weight (c+1); invert the cumulative
				// distribution over a cycling counter.
				c = rampClass(i, cfg.Classes)
			}
			x := make([]float64, cfg.Dim)
			for j := range x {
				x[j] = means[c][j] + rng.NormFloat64()*noise
			}
			ds.X[i] = x
			ds.Y[i] = c
		}
		return ds
	}
	train = gen(cfg.Train)
	test = gen(cfg.Test)
	return train, test, nil
}

// rampClass maps a running index to a class with probability weight
// proportional to class+1, deterministically.
func rampClass(i, classes int) int {
	total := classes * (classes + 1) / 2
	pos := i % total
	for c := 0; c < classes; c++ {
		pos -= c + 1
		if pos < 0 {
			return c
		}
	}
	return classes - 1
}

// BatchSampler draws random mini-batches of indices without replacement
// within a batch (samples may repeat across batches, as in standard
// mini-batch SGD with reshuffling). The permutation and batch buffers
// are preallocated and reused, so steady-state sampling allocates
// nothing: each Next overwrites the previously returned slice.
type BatchSampler struct {
	n     int
	batch int
	rng   *rand.Rand
	perm  []int
	pos   int
	out   []int
}

// NewBatchSampler creates a sampler over n samples with the given batch
// size and seed.
func NewBatchSampler(n, batch int, seed int64) (*BatchSampler, error) {
	if batch < 1 || batch > n {
		return nil, fmt.Errorf("data: batch size %d out of range [1,%d]", batch, n)
	}
	return &BatchSampler{
		n:     n,
		batch: batch,
		rng:   rand.New(rand.NewSource(seed)),
		perm:  make([]int, n),
		out:   make([]int, 0, batch),
	}, nil
}

// reshuffle refills the permutation buffer in place, consuming the rng
// exactly like rand.Perm so preallocating changes no sample stream.
func (s *BatchSampler) reshuffle() {
	for i := 0; i < s.n; i++ {
		j := s.rng.Intn(i + 1)
		s.perm[i] = s.perm[j]
		s.perm[j] = i
	}
}

// Next returns the indices of the next batch B_t, reshuffling in place
// whenever the previous epoch is exhausted. The returned slice is
// owned by the sampler and overwritten by the following Next; callers
// that need it longer than one round must copy.
func (s *BatchSampler) Next() []int {
	out := s.out[:0]
	for len(out) < s.batch {
		if s.pos == 0 || s.pos >= s.n {
			s.reshuffle()
			s.pos = 0
		}
		take := s.batch - len(out)
		if rem := s.n - s.pos; take > rem {
			take = rem
		}
		out = append(out, s.perm[s.pos:s.pos+take]...)
		s.pos += take
	}
	s.out = out
	return out
}

// PartitionFiles splits batch indices into f disjoint files of
// near-equal size in order, implementing B_t = {B_t,0 ... B_t,f−1}.
// When f does not divide |batch|, leading files get one extra sample.
func PartitionFiles(batch []int, f int) ([][]int, error) {
	return PartitionFilesInto(batch, f, nil)
}

// PartitionFilesInto is PartitionFiles reusing dst's capacity for the
// file table (the per-file slices are always views into batch), so a
// caller that keeps dst across rounds partitions without allocating.
func PartitionFilesInto(batch []int, f int, dst [][]int) ([][]int, error) {
	if f < 1 {
		return nil, fmt.Errorf("data: partition into %d files", f)
	}
	if f > len(batch) {
		return nil, fmt.Errorf("data: %d files for %d samples", f, len(batch))
	}
	if cap(dst) < f {
		dst = make([][]int, f)
	}
	files := dst[:f]
	base := len(batch) / f
	extra := len(batch) % f
	pos := 0
	for i := 0; i < f; i++ {
		size := base
		if i < extra {
			size++
		}
		files[i] = batch[pos : pos+size]
		pos += size
	}
	return files, nil
}

// FileStream is a run's file→samples table, round by round: the batch
// B_t and its partition into f files are a function of the seed and the
// round number alone, so every process of a run — the parameter server's
// engine, each honest worker, each Byzantine worker replaying the round —
// holds its own stream and derives round t's table instead of being sent
// it. The stream is positional: Round(t) consumes the batches of the
// rounds it was not asked for, so a process that missed rounds (a skip
// fault, a lost connection, a restore from a checkpoint) still sees the
// run's batch t.
type FileStream struct {
	src   batchSource
	next  int // the round the next draw belongs to
	files [][]int
}

// batchSource is what a FileStream partitions: BatchSampler or
// PoolSampler, each deterministic in its seed.
type batchSource interface{ Next() []int }

// NewRunStream is a run's stream over train, each batch split into f
// files: the IID reshuffling sampler (BatchSampler) when dist is nil,
// the non-IID PoolSampler over dist's split of train into f pools — file
// v drawing from pool v alone — otherwise. The engine (at construction
// and on every Restore) and every worker build their stream through it,
// so each process of a run derives the same table.
func NewRunStream(train *Dataset, batch int, seed int64, f int, dist Distributor) (*FileStream, error) {
	if dist == nil {
		src, err := NewBatchSampler(train.Len(), batch, seed)
		if err != nil {
			return nil, err
		}
		return newFileStream(src, batch, f)
	}
	pools, err := dist.Split(train, f)
	if err != nil {
		return nil, fmt.Errorf("data: distribution %s: %w", dist.Name(), err)
	}
	src, err := NewPoolSampler(pools, batch, seed)
	if err != nil {
		return nil, err
	}
	return newFileStream(src, batch, len(pools))
}

func newFileStream(src batchSource, batch, f int) (*FileStream, error) {
	// Checked here so that Round can fail on its argument only.
	if f < 1 || f > batch {
		return nil, fmt.Errorf("data: %d files for a batch of %d samples", f, batch)
	}
	return &FileStream{src: src, files: make([][]int, f)}, nil
}

// Round returns round t's table: files[v] lists the training-sample
// indices of file v. Rounds must be asked for in strictly increasing
// order (a stream cannot rewind; build a new one to go back). The table
// is owned by the stream and overwritten by the following Round, and a
// steady-state call allocates nothing.
func (s *FileStream) Round(t int) ([][]int, error) {
	if t < s.next {
		return nil, fmt.Errorf("data: file stream asked for round %d after round %d", t, s.next-1)
	}
	var batch []int
	for ; s.next <= t; s.next++ {
		batch = s.src.Next()
	}
	return PartitionFilesInto(batch, len(s.files), s.files)
}

// ProbeIndices returns a fixed, deterministic subset of up to 256
// sample indices from a dataset of n samples, strided across the whole
// set. It is the shared loss-probe used for cheap history reporting by
// both the in-process engine and the TCP parameter server, so the two
// paths evaluate identical losses.
func ProbeIndices(n int) []int {
	size := 256
	if size > n {
		size = n
	}
	idx := make([]int, size)
	stride := n / size
	if stride < 1 {
		stride = 1
	}
	for i := range idx {
		idx[i] = (i * stride) % n
	}
	return idx
}

// PerSampleScale is the factor that normalizes a per-file gradient sum
// (over ~batch/f samples) to per-sample scale for the model update —
// Algorithm 1, line 17. Both round paths apply the same factor so their
// parameter trajectories match bit-for-bit.
func PerSampleScale(files, batch int) float64 {
	return float64(files) / float64(batch)
}
