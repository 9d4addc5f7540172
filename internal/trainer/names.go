package trainer

// The historical per-width names: aliases and instantiations of the one
// generic optimizer, with no bodies of their own (see wire/names.go for
// the convention).

type (
	SGD   = SGDOf[float64]
	SGD32 = SGDOf[float32]
)

var (
	NewSGD   = NewSGDOf[float64]
	NewSGD32 = NewSGDOf[float32]
)
