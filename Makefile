GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race bench bench-check fuzz lint fmt clean

all: lint test

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Each wire-codec fuzz target runs for FUZZTIME (go test allows one
# -fuzz pattern per invocation, hence the loop; the pattern is anchored
# because several f32 names extend an f64 name by suffix). The list is
# whatever the package declares; fewer than the 18 that exist means a
# target was deleted or renamed, which fails the run instead of
# shrinking it. FuzzParamsDeltaMatchesPortable and
# FuzzInt8QuantizeMatchesReference check every input on both codec
# dispatches (the AVX-512 bodies, where the CPU has them, and the
# portable Go ones). The chunked median/trimmed-mean kernels' bit-identity
# target runs after them for the same time: it repeats each input's
# bytes until the range holds a full 64-lane tile and checks both tile
# bodies (AVX-512 where the CPU has it, and the portable Go one). The
# MLP gradient's target runs next: it decodes a network, its parameters
# and a file of samples, special values included, and checks both dense
# kernel dispatches against the one-sample reference loops. The moments'
# target runs last: it builds rows from the input's bits and checks
# MomentsInto and MeanRange on both dispatches against the
# one-coordinate reference.
fuzz: build
	@targets=$$($(GO) test -list '^Fuzz' ./internal/wire | grep '^Fuzz') || exit 1; \
	n=$$(echo "$$targets" | wc -l); \
	if [ "$$n" -lt 18 ]; then \
		echo "found $$n wire fuzz targets, want at least 18"; exit 1; \
	fi; \
	for t in $$targets; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) ./internal/wire || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzMedianChunk$$' -fuzztime $(FUZZTIME) ./internal/aggregate
	$(GO) test -run '^$$' -fuzz '^FuzzMLPGradient$$' -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzMoments$$' -fuzztime $(FUZZTIME) ./internal/linalg

# bench/ is its own module (replace byzshield => ../) importing the
# per-width names from internal/; the root ./... never compiles it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
