package transport

// The historical per-width names: aliases and instantiations of the one
// generic parameter server and worker, with no bodies of their own (see
// wire/names.go for the convention). The two workers differ only in the
// precision bit their Hello offers, the two servers in the one their
// Welcome pins.

type (
	Server   = ServerOf[float64]
	Server32 = ServerOf[float32]

	// ServerConfig32 and WorkerConfig32 are the one config struct each:
	// nothing in them names a width.
	ServerConfig32 = ServerConfig
	WorkerConfig32 = WorkerConfig
)

var (
	NewServer   = NewServerOf[float64]
	NewServer32 = NewServerOf[float32]

	RunWorker   = RunWorkerOf[float64]
	RunWorker32 = RunWorkerOf[float32]
)
