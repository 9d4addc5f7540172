package vote

// The historical per-width names: aliases and instantiations of the one
// generic exact vote, with no bodies of their own (see wire/names.go
// for the convention).

type (
	Result   = ResultOf[float64]
	Result32 = ResultOf[float32]
)

var (
	Majority   = MajorityOf[float64]
	Majority32 = MajorityOf[float32]
)
