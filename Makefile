GO ?= go

.PHONY: all build test bench-test vet race race-sim race-resilience race-net race-serve race-amr alloc-test fuzz-smoke chaos-smoke verify bench loc clean

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
# detector: the hybrid bit-identity tests (multi-worker vs serial — the
# overlap split on a rank cut normal to z, one frontier box per rank on a
# cut normal to x, where arena rows are swept whole — and resilient replay
# with workers > 1) must pass fresh on every gate, as must the row rule of
# the arena sweeps (TestArenaRowsSweepWhole). Its timeout is about three
# times its normal run (about 4 min on 2 vCPUs), so a hang ends in the
# goroutine dump that names the stuck test.
race-sim:
	$(GO) test -race -count=1 -timeout 12m ./internal/sim/...

# race-resilience re-runs only the fault-tolerance tests uncached under
# the race detector — the recovery driver without an LBM (failure loop,
# checkpoint-set protocol, buddy ring, restore vote), what the uniform and
# the refined runtime supply to it (shrinking and healing recovery,
# spare-rank rejoin, replication, checkpoint sets, rewind replay, and the
# rebalance that shares recovery's install path and verdict), the
# recovery matrix over both runtimes and the communicator's failure
# handling — the quick gate while working on recovery code. A uniform
# and a refined restore land through the one shared routine
# (sim.Simulation.Land), and a record refused on one rank fails every
# rank alike, within a bounded wait (TestRestoreRefusesWrongShapedRecord,
# on one and on two ranks, a set of another grid included, and
# TestRebalanceRejectsAssignmentOnEveryRank); every landed block matches a
# fresh build (TestShrinkAndRebalanceMatchConstruction, refined rows
# included); the refined cavity scenario ends on its pinned hash plainly,
# healed onto a spare and resumed (TestRefinedScenarioHash, walberla-sim).
# The periodic balance runs inside the step under the resilient driver
# too (TestRebalanceMatrix, internal/scenario: a uniform and a refined
# world, rebalanced every 3 steps or not, with and without a crash healed
# onto a spare, all on the fault-free hash; TestRebalance*, TestBalance*
# and TestAssign*, internal/sim: the balance's cut, weights, restart of
# the measured time and failure semantics).
# The packages run one at a time (-p 1): under -race the
# refined rows of internal/sim's binary alone reach about 3.4 GB, and two
# such binaries side by side do not fit an 8 GB host. Its timeout is about
# three times its normal run (about 5 min on 2 vCPUs), so a hang ends in
# the goroutine dump that names the stuck test.
race-resilience:
	$(GO) test -race -count=1 -p 1 -timeout 15m -run 'TestShrink|TestReplicate|TestResilient|TestRestore|TestWriteCheckpoint|TestBackoff|TestMaxFailures|TestFail|TestHeal|TestSpare|TestGrowWorld|TestChaos|TestRecovery|TestDriver|TestSet|TestCheckpoint|TestRebalance|TestBalance|TestAssign' ./internal/resilience/ ./internal/sim/ ./internal/amr/ ./internal/scenario/ ./internal/comm/
	$(GO) test -race -count=1 -run 'TestRefinedScenarioHash' ./cmd/walberla-sim/

# race-net re-runs the socket-transport suite uncached under the race
# detector: wire framing, reconnect/backoff under the fault plan's frame
# clauses, in-order stalls on both transports (streams keep send order,
# stalled frames still cross the wire), failure accusation (only the
# silent rank is named), the receive-buffer ownership contract, the
# payload contract on both transports, a payload split across frames and
# joined again, the cross-transport bit-identity and
# recovery-over-sockets tests, the refined overlapped step over
# sockets (TestRefinedLevelsOverlap: every level's interior blocks sweep
# while its slabs are on the wire), and a rank's panic waking a peer
# blocked in a receive from it on both transports (TestRankPanicWakesPeers).
# Its timeout is far above its normal run (the internal/sim binary takes
# 13–14 s), so a hang ends within minutes in the goroutine dump that names
# the stuck test.
race-net:
	$(GO) test -race -count=1 -timeout 3m -run 'TestNet|TestPayloadContract|TestPayloadAboveFrameBound|TestFrame|TestRecvRing|TestCrossTransport|TestScalar|TestClassify|TestReadFrame|TestF64Bytes|TestFailureNamesOnlyTheSilentRank|TestDelayKeepsStreamOrder|TestDelayedFramesCrossTheWire|TestRefinedLevelsOverlap|TestRankPanicWakesPeers' ./internal/comm/ ./internal/sim/ ./internal/amr/

# race-serve re-runs the session daemon suite uncached under the race
# detector: concurrent session lifecycles over the shared fair-share
# gate, bit-identical suspend/resume — of a refined session too, which
# ends on the command line's hash, snapshots one VTK file per leaf and
# refuses a steer (TestRefinedSessionLifecycle), and of rebalancing
# sessions, the tree and the refined cavity suspended after a balance
# that moved blocks, which end on the hash of the run without rebalancing
# (TestRebalancingSessionHash) — the scenario schema
# round trip, the one VTK writer (TestVTKFiles) and the HTTP API surface —
# and, because every one of them starts its world through it, the
# launcher (internal/core: first-error capture, world revocation, spare
# parking, the step count of an interrupted healed run) and the
# walberla-sim front end on top.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/scenario/ ./internal/core/ ./cmd/walberla-sim/

# race-amr re-runs the adaptive mesh refinement suite uncached under the
# race detector: the level-wise timestepping determinism battery
# (workers/ranks/layout/transport bit-identity of the data plane's one
# overlapped step, run per level, and its overlap on two ranks), the runtime
# refine/coarsen controller, migration, the grading invariants and the
# AMR resilience tests (rewind replay, buddy shrink with zero disk reads;
# a refined restore lands through the routine the uniform one uses, so a
# wrong-shaped record or one of another grid is refused on restore — on
# two ranks a record refused on one rank fails every rank alike), and
# blockforest's one neighbourhood routine against its oracles. Refined heal onto a
# recruited spare, in process and over unix sockets, is in
# TestRecoveryMatrix (race-resilience, race-serve). Its timeout is about
# three times its normal run (about 3.5 min on 2 vCPUs), so a hang ends
# in the goroutine dump that names the stuck test.
race-amr:
	$(GO) test -race -count=1 -timeout 12m ./internal/amr/ ./internal/blockforest/

# alloc-test re-runs the memory gates uncached and WITHOUT the race
# detector (race instrumentation allocates, so the allocation tests skip
# themselves under -race): TestStepZeroAlloc with telemetry disabled AND
# TestStepZeroAllocTraced with a tracer and metrics registry attached — the
# telemetry overhead guard — TestStepZeroAllocTree (the smoke tree on row
# storage: interval kernels, per-row pulls, masked copies), the refined
# twins TestStepZeroAllocRefined and TestStepZeroAllocRefinedTraced (a
# coarse step of a static three-level forest: the same overlapped step,
# run per level sub-step, whose refined leaves share an arena swept as a
# box), and
# TestFieldMemoryFollowsFluid, the proportionality gate of the allocation
# rows (PDF storage follows the fluid a rank owns, not its blocks' boxes).
alloc-test:
	$(GO) test -count=1 -run 'TestStepZeroAlloc|TestStepZeroAllocRefined|TestFieldMemoryFollowsFluid' ./internal/sim/ ./internal/amr/

# fuzz-smoke runs each fuzz target briefly against its seed corpus — a
# regression sweep, not an open-ended hunt: the checkpoint readers, the
# block-structure file reader (an accepted forest re-saves to its bytes),
# the wire frame decoder, PDF fields stored in random allocation rows against
# whole-block twins, the sparse interval-list builder (on whole blocks and
# on row storage), the AVX2 split rows against the Go rows (bit for bit;
# skipped on CPUs without AVX2),
# the D3Q19 moment/equilibrium fast path against the generic stencil
# loops (bit for bit on finite input), the 2:1 grading (and on every
# graded forest the neighbourhood invariant: Index.Neighbors lists, order
# included, what the refined runtime's reference routine lists), the pruned
# signed-distance queries against the unpruned searches (the plane-bound
# nearest-triangle walk and the nearest-component-first union: same
# triangle, bits, feature and color), and the boundary hull of a random
# colored tube against the scan that searches every hull cell's color
# (the fluid-driven dilation with its wall-color early-out: the same
# flags, bit for bit), and on such tubes the fluid count of a ghosted
# voxelization — the forest build's one classification, whose voxels the
# ranks land as flags — against a query per cell center.
fuzz-smoke:
	$(GO) test -run '^Fuzz' -fuzz FuzzReadManifest -fuzztime 5s ./internal/output/
	$(GO) test -run '^Fuzz' -fuzz FuzzReadLeafFile -fuzztime 5s ./internal/output/
	$(GO) test -run '^Fuzz' -fuzz FuzzLoadCheckpoint -fuzztime 5s ./internal/output/
	$(GO) test -run '^Fuzz' -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/comm/
	$(GO) test -run '^Fuzz' -fuzz FuzzDecodeEnvelope -fuzztime 5s ./internal/resilience/
	$(GO) test -run '^Fuzz' -fuzz FuzzRowLayout -fuzztime 5s ./internal/field/
	$(GO) test -run '^Fuzz' -fuzz FuzzSparseIntervals -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^Fuzz' -fuzz FuzzSplitRows -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^Fuzz' -fuzz FuzzStencilD3Q19 -fuzztime 5s ./internal/lattice/
	$(GO) test -run '^Fuzz' -fuzz FuzzRegrade -fuzztime 5s ./internal/blockforest/
	$(GO) test -run '^Fuzz' -fuzz FuzzLoadForest -fuzztime 5s ./internal/blockforest/
	$(GO) test -run '^Fuzz' -fuzz FuzzNearest -fuzztime 5s ./internal/distance/
	$(GO) test -run '^Fuzz' -fuzz FuzzUnionSignedColor -fuzztime 5s ./internal/distance/
	$(GO) test -run '^Fuzz' -fuzz FuzzDilateBoundary -fuzztime 5s ./internal/geometry/
	$(GO) test -run '^Fuzz' -fuzz FuzzVoxelCount -fuzztime 5s ./internal/geometry/

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

# loc prints the non-test Go line count of each package under internal/
# and cmd/, then the total of non-test Go outside bench/: the figure the
# line counts in CHANGES.md and ROADMAP.md report.
loc:
	@for d in internal/*/ cmd/*/; do \
		printf '%-24s %6d\n' "$${d%/}" "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	done
	@printf '%-24s %6d\n' 'total (outside bench/)' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"

bench:
	$(GO) test -bench=. -benchtime=0.2s -run='^$$' ./internal/...

clean:
	$(GO) clean ./...
