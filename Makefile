GO ?= go

.PHONY: all build test bench-test vet race race-sim race-resilience race-net race-serve race-amr alloc-test fuzz-smoke chaos-smoke verify bench clean

all: build

build:
	$(GO) build ./...

# vet also fails when gofmt would rewrite any file, and vets the arm64
# build too: off amd64 the split kernels have no assembly rows, and that
# build must keep compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# bench-test builds and tests the benchmark of record on its own. bench/
# is a module of its own; the root `go test ./...` reaches it through
# TestBenchModule (skipped under -short), so a change to an API it reads
# (sim.ExchangeStats, the scenario schema, the checkpoint sets) or to a
# golden field hash fails tier-1 too.
bench-test:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# race-sim re-runs the simulation driver tests uncached under the race
# detector: the hybrid bit-identity tests (multi-worker vs serial,
# resilient replay with workers > 1) must pass fresh on every gate.
race-sim:
	$(GO) test -race -count=1 ./internal/sim/...

# race-resilience re-runs only the fault-tolerance tests uncached under
# the race detector — the recovery driver without an LBM (failure loop,
# checkpoint-set protocol, buddy ring, restore vote), what the uniform and
# the refined runtime supply to it (shrinking and healing recovery,
# spare-rank rejoin, replication, checkpoint sets, rewind replay), the
# recovery matrix over both runtimes and the communicator's failure
# handling — the quick gate while working on recovery code.
race-resilience:
	$(GO) test -race -count=1 -run 'TestShrink|TestReplicate|TestResilient|TestRestore|TestWriteCheckpoint|TestBackoff|TestMaxFailures|TestFail|TestHeal|TestSpare|TestGrowWorld|TestChaos|TestRecovery|TestDriver|TestSet|TestCheckpoint' ./internal/resilience/ ./internal/sim/ ./internal/amr/ ./internal/scenario/ ./internal/comm/

# race-net re-runs the socket-transport suite uncached under the race
# detector: wire framing, reconnect/backoff under the fault plan's frame
# clauses, in-order stalls on both transports (streams keep send order,
# stalled frames still cross the wire), failure accusation (only the
# silent rank is named), the receive-buffer ownership contract, and the
# cross-transport bit-identity and shrink-recovery-over-sockets tests.
race-net:
	$(GO) test -race -count=1 -run 'TestNet|TestFrame|TestRecvRing|TestCrossTransport|TestScalar|TestClassify|TestReadFrame|TestF64Bytes|TestFailureNamesOnlyTheSilentRank|TestDelayKeepsStreamOrder|TestDelayedFramesCrossTheWire' ./internal/comm/ ./internal/sim/

# race-serve re-runs the session daemon suite uncached under the race
# detector: concurrent session lifecycles over the shared fair-share
# gate, bit-identical suspend/resume, the scenario schema round trip and
# the HTTP API surface — and, because every one of them starts its world
# through it, the launcher (internal/core: first-error capture, world
# revocation, spare parking) and the walberla-sim front end on top.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/scenario/ ./internal/core/ ./cmd/walberla-sim/

# race-amr re-runs the adaptive mesh refinement suite uncached under the
# race detector: the level-wise timestepping determinism battery
# (workers/ranks/layout/transport bit-identity), the runtime
# refine/coarsen controller, migration, the grading invariants and the
# AMR resilience tests (rewind replay, buddy shrink with zero disk
# reads).
race-amr:
	$(GO) test -race -count=1 ./internal/amr/ ./internal/blockforest/

# alloc-test re-runs the memory gates uncached and WITHOUT the race
# detector (race instrumentation allocates, so the allocation tests skip
# themselves under -race): TestStepZeroAlloc with telemetry disabled AND
# TestStepZeroAllocTraced with a tracer and metrics registry attached — the
# telemetry overhead guard — TestStepZeroAllocTree (the smoke tree on row
# storage: interval kernels, per-row pulls, masked copies), the refined
# twins TestStepZeroAllocRefined and TestStepZeroAllocRefinedTraced (a
# coarse step of a static three-level forest), and
# TestFieldMemoryFollowsFluid, the proportionality gate of the allocation
# rows (PDF storage follows the fluid a rank owns, not its blocks' boxes).
alloc-test:
	$(GO) test -count=1 -run 'TestStepZeroAlloc|TestStepZeroAllocRefined|TestFieldMemoryFollowsFluid' ./internal/sim/ ./internal/amr/

# fuzz-smoke runs each fuzz target briefly against its seed corpus — a
# regression sweep, not an open-ended hunt: the checkpoint readers, the
# wire frame decoder, PDF fields stored in random allocation rows against
# whole-block twins, the sparse interval-list builder (on whole blocks and
# on row storage), the AVX2 split rows against the Go rows (bit for bit;
# skipped on CPUs without AVX2),
# the D3Q19 moment/equilibrium fast path against the generic stencil
# loops (bit for bit on finite input), the 2:1 grading, and the pruned
# signed-distance queries against the unpruned searches (the plane-bound
# nearest-triangle walk and the nearest-component-first union: same
# triangle, bits, feature and color).
fuzz-smoke:
	$(GO) test -run '^Fuzz' -fuzz FuzzReadManifest -fuzztime 5s ./internal/output/
	$(GO) test -run '^Fuzz' -fuzz FuzzReadLeafFile -fuzztime 5s ./internal/output/
	$(GO) test -run '^Fuzz' -fuzz FuzzLoadCheckpoint -fuzztime 5s ./internal/output/
	$(GO) test -run '^Fuzz' -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/comm/
	$(GO) test -run '^Fuzz' -fuzz FuzzRowLayout -fuzztime 5s ./internal/field/
	$(GO) test -run '^Fuzz' -fuzz FuzzSparseIntervals -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^Fuzz' -fuzz FuzzSplitRows -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^Fuzz' -fuzz FuzzStencilD3Q19 -fuzztime 5s ./internal/lattice/
	$(GO) test -run '^Fuzz' -fuzz FuzzRegrade -fuzztime 5s ./internal/blockforest/
	$(GO) test -run '^Fuzz' -fuzz FuzzNearest -fuzztime 5s ./internal/distance/
	$(GO) test -run '^Fuzz' -fuzz FuzzUnionSignedColor -fuzztime 5s ./internal/distance/

# chaos-smoke runs the deterministic multi-layer chaos soak three times
# uncached under the race detector, once per transport from one seeded
# plan: rank crashes, a silent hang and in-order stalls (plus frame
# drop/corruption/sever over sockets) and on-disk checkpoint bit-flips
# against a 4-active + 3-spare heal-mode world,
# asserting the run ends at full world size, bit-identical to the
# fault-free reference, with all recoveries served from buddy memory and
# no leaked goroutines. Three runs, so a detector that accuses the wrong
# rank one time in a few cannot pass by luck.
chaos-smoke:
	$(GO) test -race -count=3 -run 'TestChaos' ./internal/sim/

# verify is the pre-commit gate: static checks, a full build, the
# benchmark module's own tests, the allocation regression gate, the fuzz
# seed sweep, the chaos soak, and the test suite under the race detector.
verify: vet build bench-test alloc-test fuzz-smoke chaos-smoke race-net race-sim race-serve race-amr race

bench:
	$(GO) test -bench=. -benchtime=0.2s -run='^$$' ./internal/...

clean:
	$(GO) clean ./...
