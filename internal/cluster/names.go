package cluster

// The historical per-width names: aliases of the one generic round
// core, with no bodies of their own (see wire/names.go for the
// convention). The seam types have no per-width names: sources are
// written against GradientSourceOf[T] and RoundOf[T].

type (
	Engine   = EngineOf[float64]
	Engine32 = EngineOf[float32]

	Config   = ConfigOf[float64]
	Config32 = ConfigOf[float32]
)

// New builds the float64 engine, New32 the float32 one.
var (
	New   = NewOf[float64]
	New32 = NewOf[float32]
)
