package aggregate

import (
	"fmt"
	"sort"
	"sync"

	"byzshield/internal/linalg"
)

// ChunkAggregator is implemented by the coordinate-wise rules, which can
// reduce an arbitrary coordinate range into a caller-provided buffer.
// The cluster engine uses it to run the post-vote reduction in parallel
// across a worker pool: because every coordinate is reduced
// independently and identically, sharding [0, d) across goroutines is
// bit-identical to a single serial pass.
//
// AggregateChunk writes the aggregate of coordinates [lo, hi) into
// out[lo:hi], leaving the rest of out untouched. Implementations must be
// safe for concurrent calls on disjoint ranges, must not modify the
// inputs, and must produce bit-identical values to Aggregate over the
// same range.
type ChunkAggregator interface {
	Aggregator
	AggregateChunk(grads [][]float64, out []float64, lo, hi int) error
}

// ChunkAggregator32 is the float32 precision tier's mirror of
// ChunkAggregator: the identical coordinate-wise reduction over float32
// rows. Every chunked rule implements both interfaces from one generic
// kernel body, so the two tiers cannot drift. The same concurrency and
// bit-identity contract applies: sharding [0, d) across calls is
// bit-identical to one serial pass over the float32 values.
type ChunkAggregator32 interface {
	Aggregator
	AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error
}

// Bound is an aggregation rule at width T: Chunk for the coordinate-wise
// rules (nil otherwise), Whole for the rest.
type Bound[T linalg.Float] struct {
	Chunk func(grads [][]T, out []T, lo, hi int) error
	Whole func(grads [][]T) ([]T, error)
}

// BindOf binds agg at width T. At float32 only the coordinate-wise
// rules qualify; any other wraps linalg.ErrNoFloat32Kernels.
func BindOf[T linalg.Float](agg Aggregator) (Bound[T], error) {
	if linalg.Width[T]() == 8 {
		b := Bound[float64]{Whole: agg.Aggregate}
		if ca, ok := agg.(ChunkAggregator); ok {
			b.Chunk = ca.AggregateChunk
		}
		return any(b).(Bound[T]), nil
	}
	ca, ok := agg.(ChunkAggregator32)
	if !ok {
		return Bound[T]{}, fmt.Errorf("aggregator %s: %w", agg.Name(), linalg.ErrNoFloat32Kernels)
	}
	return any(Bound[float32]{Chunk: ca.AggregateChunk32}).(Bound[T]), nil
}

// chunkScratch is the pooled per-call working memory of the chunked
// rules, so steady-state aggregation performs no per-round allocation.
// One pool exists per element width (see getScratch).
type chunkScratch[T linalg.Float] struct {
	col    []T
	rank   linalg.RangeScratch
	med    []T
	means  []T
	bounds []int
	vd     []valDist[T]
	prefix []T
	sq     []T
}

// valDist pairs a coordinate value with its distance to the coordinate
// median (MeanAroundMedian's sort key).
type valDist[T linalg.Float] struct{ v, dist T }

var (
	scratchPool64 = sync.Pool{New: func() any { return new(chunkScratch[float64]) }}
	scratchPool32 = sync.Pool{New: func() any { return new(chunkScratch[float32]) }}
)

// getScratch returns a scratch with col capacity at least n, drawn from
// the element width's pool.
func getScratch[T linalg.Float](n int) *chunkScratch[T] {
	var s *chunkScratch[T]
	switch p := any(&s).(type) {
	case **chunkScratch[float64]:
		*p = scratchPool64.Get().(*chunkScratch[float64])
	case **chunkScratch[float32]:
		*p = scratchPool32.Get().(*chunkScratch[float32])
	}
	if cap(s.col) < n {
		s.col = make([]T, n)
	}
	return s
}

func putScratch[T linalg.Float](s *chunkScratch[T]) {
	switch p := any(s).(type) {
	case *chunkScratch[float64]:
		scratchPool64.Put(p)
	case *chunkScratch[float32]:
		scratchPool32.Put(p)
	}
}

// checkChunk validates the shared AggregateChunk preconditions.
func checkChunk[T linalg.Float](grads [][]T, out []T, lo, hi int) error {
	if len(grads) == 0 {
		return fmt.Errorf("aggregate: chunk of zero gradients")
	}
	d := len(grads[0])
	if len(out) != d {
		return fmt.Errorf("aggregate: chunk output length %d, want %d", len(out), d)
	}
	if lo < 0 || hi > d || lo > hi {
		return fmt.Errorf("aggregate: chunk range [%d,%d) outside [0,%d)", lo, hi, d)
	}
	for i, g := range grads {
		if len(g) != d {
			return fmt.Errorf("aggregate: gradient %d has dim %d, want %d", i, len(g), d)
		}
	}
	return nil
}

// newOut runs a full-range chunked reduction into a fresh vector — the
// shared body of the coordinate-wise Aggregate implementations.
func newOut(ca ChunkAggregator, grads [][]float64) ([]float64, error) {
	out := make([]float64, len(grads[0]))
	if err := ca.AggregateChunk(grads, out, 0, len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// --- Generic kernel bodies ------------------------------------------
//
// Each rule's AggregateChunk and AggregateChunk32 call one generic body,
// so the two precision tiers run the same reduction with only the
// element width changed. Median and TrimmedMean reduce tiles of
// linalg.Lanes coordinates through a pruned comparator network
// (linalg.MedianRange, linalg.TrimmedMeanRange): per-column quickselect
// spent its time in branch mispredicts on random gradients, not in the
// strided gather (DESIGN §9.6 has the measurements). The network's
// values are exactly the sorted order statistics, and the columns where
// a ±0 or NaN could make the bits depend on the selection order are
// redone with quickselect, so results stay bit-identical to
// linalg.MedianSelect and linalg.TrimmedMeanSelect per column. The other
// order-statistic rules gather each column and run quickselect
// (linalg.SelectKth and friends) or a sort.

func medianChunk[T linalg.Float](grads [][]T, out []T, lo, hi int) {
	s := getScratch[T](len(grads))
	defer putScratch(s)
	linalg.MedianRange(out, grads, lo, hi, s.col, &s.rank)
}

func trimmedMeanChunk[T linalg.Float](grads [][]T, out []T, lo, hi, trim int) {
	s := getScratch[T](len(grads))
	defer putScratch(s)
	linalg.TrimmedMeanRange(out, grads, lo, hi, trim, s.col, &s.rank)
}

// medianOfMeansChunk reduces with the same ceil-sized-prefix group
// distribution as MedianOfMeans.Aggregate; each group mean is
// accumulated in input order, matching linalg.MeanVec bit for bit.
func medianOfMeansChunk[T linalg.Float](grads [][]T, out []T, lo, hi, g int) {
	n := len(grads)
	s := getScratch[T](n)
	defer putScratch(s)
	if cap(s.bounds) < g+1 {
		s.bounds = make([]int, g+1)
	}
	bounds := s.bounds[:g+1]
	bounds[0] = 0
	for k := 0; k < g; k++ {
		size := (n - bounds[k] + (g - k - 1)) / (g - k)
		bounds[k+1] = bounds[k] + size
	}
	if cap(s.means) < g {
		s.means = make([]T, g)
	}
	means := s.means[:g]
	for i := lo; i < hi; i++ {
		for k := 0; k < g; k++ {
			var sum T
			for _, gr := range grads[bounds[k]:bounds[k+1]] {
				sum += gr[i]
			}
			means[k] = sum * (1 / T(bounds[k+1]-bounds[k]))
		}
		out[i] = linalg.MedianSelect(means)
	}
}

func signSGDChunk[T linalg.Float](grads [][]T, out []T, lo, hi int) {
	for i := lo; i < hi; i++ {
		pos, neg := 0, 0
		for _, g := range grads {
			switch {
			case g[i] > 0:
				pos++
			case g[i] < 0:
				neg++
			}
		}
		switch {
		case pos > neg:
			out[i] = 1
		case neg > pos:
			out[i] = -1
		default:
			out[i] = 0
		}
	}
}

// meanAroundMedianChunk computes the coordinate median on a scratch
// copy (selection reorders its input, and the value/distance pairs must
// keep their input order so the distance sort breaks ties exactly as
// before) and averages the near values closest to it.
func meanAroundMedianChunk[T linalg.Float](grads [][]T, out []T, lo, hi, near int) {
	n := len(grads)
	s := getScratch[T](n)
	defer putScratch(s)
	if cap(s.vd) < n {
		s.vd = make([]valDist[T], n)
	}
	if cap(s.med) < n {
		s.med = make([]T, n)
	}
	vd := s.vd[:n]
	for i := lo; i < hi; i++ {
		col := linalg.GatherCol(s.col, grads, i)
		medBuf := s.med[:n]
		copy(medBuf, col)
		med := linalg.MedianSelect(medBuf)
		for j, v := range col {
			diff := v - med
			if diff < 0 {
				diff = -diff
			}
			vd[j] = valDist[T]{v: v, dist: diff}
		}
		sortValDist(vd)
		var sum T
		for _, e := range vd[:near] {
			sum += e.v
		}
		out[i] = sum / T(near)
	}
}

func aurorChunk[T linalg.Float](grads [][]T, out []T, lo, hi int, threshold float64) {
	n := len(grads)
	s := getScratch[T](n)
	defer putScratch(s)
	if cap(s.prefix) < n+1 {
		s.prefix = make([]T, n+1)
		s.sq = make([]T, n+1)
	}
	for i := lo; i < hi; i++ {
		col := linalg.GatherCol(s.col, grads, i)
		linalg.SortAscending(col)
		out[i] = aurorSorted(col, threshold, s.prefix[:n+1], s.sq[:n+1])
	}
}

// AggregateChunk implements ChunkAggregator: the coordinate mean,
// linalg.MeanRange, summed in input order exactly as linalg.MeanVec does.
func (Mean) AggregateChunk(grads [][]float64, out []float64, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	linalg.MeanRange(out, grads, lo, hi)
	return nil
}

// AggregateChunk32 implements ChunkAggregator32.
func (Mean) AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	linalg.MeanRange(out, grads, lo, hi)
	return nil
}

// AggregateChunk implements ChunkAggregator.
func (Median) AggregateChunk(grads [][]float64, out []float64, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	medianChunk(grads, out, lo, hi)
	return nil
}

// AggregateChunk32 implements ChunkAggregator32.
func (Median) AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	medianChunk(grads, out, lo, hi)
	return nil
}

// checkTrim validates the trimmed-mean feasibility for n inputs.
func (t TrimmedMean) checkTrim(n int) error {
	if t.Trim < 0 || n <= 2*t.Trim {
		return fmt.Errorf("aggregate: trimmed mean needs n > 2·trim >= 0, got n=%d trim=%d", n, t.Trim)
	}
	return nil
}

// AggregateChunk implements ChunkAggregator.
func (t TrimmedMean) AggregateChunk(grads [][]float64, out []float64, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	if err := t.checkTrim(len(grads)); err != nil {
		return err
	}
	trimmedMeanChunk(grads, out, lo, hi, t.Trim)
	return nil
}

// AggregateChunk32 implements ChunkAggregator32.
func (t TrimmedMean) AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	if err := t.checkTrim(len(grads)); err != nil {
		return err
	}
	trimmedMeanChunk(grads, out, lo, hi, t.Trim)
	return nil
}

// checkGroups validates the median-of-means group count for n inputs.
func (m MedianOfMeans) checkGroups(n int) error {
	if m.Groups <= 0 || m.Groups > n {
		return fmt.Errorf("aggregate: median-of-means needs 1 <= groups <= n, got groups=%d n=%d", m.Groups, n)
	}
	return nil
}

// AggregateChunk implements ChunkAggregator. Group boundaries follow the
// same ceil-sized-prefix distribution as Aggregate, and each group mean
// is accumulated in input order, matching linalg.MeanVec bit for bit.
func (m MedianOfMeans) AggregateChunk(grads [][]float64, out []float64, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	if err := m.checkGroups(len(grads)); err != nil {
		return err
	}
	medianOfMeansChunk(grads, out, lo, hi, m.Groups)
	return nil
}

// AggregateChunk32 implements ChunkAggregator32.
func (m MedianOfMeans) AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	if err := m.checkGroups(len(grads)); err != nil {
		return err
	}
	medianOfMeansChunk(grads, out, lo, hi, m.Groups)
	return nil
}

// AggregateChunk implements ChunkAggregator.
func (SignSGD) AggregateChunk(grads [][]float64, out []float64, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	signSGDChunk(grads, out, lo, hi)
	return nil
}

// AggregateChunk32 implements ChunkAggregator32.
func (SignSGD) AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	signSGDChunk(grads, out, lo, hi)
	return nil
}

// nearCount resolves the Near parameter against n inputs.
func (m MeanAroundMedian) nearCount(n int) int {
	near := m.Near
	if near <= 0 {
		near = (n + 1) / 2
	}
	if near > n {
		near = n
	}
	return near
}

// AggregateChunk implements ChunkAggregator.
func (m MeanAroundMedian) AggregateChunk(grads [][]float64, out []float64, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	meanAroundMedianChunk(grads, out, lo, hi, m.nearCount(len(grads)))
	return nil
}

// AggregateChunk32 implements ChunkAggregator32.
func (m MeanAroundMedian) AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	meanAroundMedianChunk(grads, out, lo, hi, m.nearCount(len(grads)))
	return nil
}

// AggregateChunk implements ChunkAggregator.
func (a Auror) AggregateChunk(grads [][]float64, out []float64, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	aurorChunk(grads, out, lo, hi, a.Threshold)
	return nil
}

// AggregateChunk32 implements ChunkAggregator32.
func (a Auror) AggregateChunk32(grads [][]float32, out []float32, lo, hi int) error {
	if err := checkChunk(grads, out, lo, hi); err != nil {
		return err
	}
	aurorChunk(grads, out, lo, hi, a.Threshold)
	return nil
}

// sortValDist sorts the value/distance pairs by distance ascending with
// the exact comparator the pre-generic kernel used (sort.Slice on
// dist <), so tie order — and therefore the summation order of equal
// distances — is unchanged for float64.
func sortValDist[T linalg.Float](vd []valDist[T]) {
	sort.Slice(vd, func(a, b int) bool { return vd[a].dist < vd[b].dist })
}
