// Package setup implements the fully parallel initialization pipeline of
// section 2.3: building the block grid over a complex geometry, deciding
// in parallel which blocks the simulation requires, counting fluid cells
// per block as balancing workload, static load balancing, and the
// per-block voxelization and boundary-condition assignment hooks for the
// simulation. It also provides the binary searches in resolution (weak
// scaling) and block edge length (strong scaling) that produce domain
// partitionings matching a target block count.
package setup

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"walberla/internal/blockforest"
	"walberla/internal/comm"
	"walberla/internal/distance"
	"walberla/internal/field"
	"walberla/internal/geometry"
	"walberla/internal/lattice"
	"walberla/internal/partition"
)

// GridForDx computes the root block grid covering the bounding box of the
// geometry at isotropic resolution dx with the given cells per block, and
// the padded domain box the grid spans (the mesh is centered within it).
func GridForDx(bounds blockforest.AABB, cells [3]int, dx float64) (grid [3]int, domain blockforest.AABB) {
	size := bounds.Size()
	for d := 0; d < 3; d++ {
		blockLen := float64(cells[d]) * dx
		g := int(math.Ceil(size[d]/blockLen - 1e-12))
		if g < 1 {
			g = 1
		}
		grid[d] = g
		pad := (float64(g)*blockLen - size[d]) / 2
		domain.Min[d] = bounds.Min[d] - pad
		domain.Max[d] = bounds.Max[d] + pad
	}
	return grid, domain
}

// Options configures the initialization pipeline.
type Options struct {
	// CellsPerBlock is the lattice cell grid per block.
	CellsPerBlock [3]int
	// Dx is the isotropic lattice spacing.
	Dx float64
	// Ranks is the process count the forest is balanced for.
	Ranks int
	// MemoryLimitCells caps allocated cells per rank during balancing;
	// zero disables the constraint.
	MemoryLimitCells float64
	// Seed drives the randomized stages (block scatter, partitioner).
	Seed int64
	// UseGraphPartitioner selects METIS-style balancing (the paper's
	// choice for complex geometries); false selects Morton curve
	// balancing (sufficient for dense regular domains).
	UseGraphPartitioner bool
}

// Stats reports what the pipeline produced.
type Stats struct {
	Grid            [3]int
	Blocks          int
	DiscardedBlocks int
	FluidCells      int64
	TotalCells      int64
	FluidFraction   float64
	Dx              float64
}

// BuildForest runs the single-process version of the pipeline. A block is
// kept iff the center of one of its cells lies inside the domain, so one
// pass voxelizes every candidate that is not wholly outside — the
// nearest-triangle searches that are the bulk of set-up on a complex
// geometry — and the fluid count of its interior both decides the block
// and becomes its workload. The kept blocks' voxels come back as Voxels,
// the flags the simulation lands (FlagsFromSDF). The candidates are
// independent and run on GOMAXPROCS goroutines, each reusing one flag
// field; each writes only its own block's entries, so the forest and its
// balance are those of a serial pass. For the SPMD version see
// BuildForestParallel.
func BuildForest(sdf distance.SDF, opt Options) (*blockforest.SetupForest, Stats, *Voxels, error) {
	grid, domain := GridForDx(sdf.Bounds(), opt.CellsPerBlock, opt.Dx)
	f := blockforest.NewSetupForest(domain, grid, opt.CellsPerBlock, [3]bool{})
	blocks := f.Blocks()
	counts := make([]int64, len(blocks))
	bits := make([][]byte, len(blocks))
	forEach(len(blocks), func() func(int) {
		flags := newVoxelField(opt.CellsPerBlock)
		return func(i int) { counts[i], bits[i] = classify(sdf, blocks[i].AABB, flags) }
	})
	return keepCounted(f, blocks, counts, bits, grid, opt)
}

// classify voxelizes one candidate block into flags and returns its fluid
// count and, when it has fluid, its packed voxels. A block whose box is
// wholly outside has neither, and is not voxelized.
func classify(sdf distance.SDF, box blockforest.AABB, flags *field.FlagField) (int64, []byte) {
	if geometry.ClassifyAABB(sdf, box) == geometry.RegionOutside {
		return 0, nil
	}
	geometry.Voxelize(sdf, box, flags)
	n := flags.Count(field.Fluid)
	if n == 0 {
		return 0, nil
	}
	return int64(n), packVoxels(flags)
}

// keepCounted weighs every block by its fluid cell count, discards those
// without fluid (the paper: no block with zero fluid cells exists after
// classification), balances the rest and files the kept blocks' voxels.
func keepCounted(f *blockforest.SetupForest, blocks []*blockforest.SetupBlock, counts []int64, bits [][]byte, grid [3]int, opt Options) (*blockforest.SetupForest, Stats, *Voxels, error) {
	var fluid int64
	vox := &Voxels{cells: opt.CellsPerBlock, blocks: make(map[[3]int]voxelBlock)}
	for i, b := range blocks {
		b.Workload = float64(counts[i])
		fluid += counts[i]
		if counts[i] > 0 {
			vox.blocks[b.Coord] = voxelBlock{box: b.AABB, bits: bits[i]}
		}
	}
	discarded := f.Keep(func(b *blockforest.SetupBlock) bool { return b.Workload > 0 })
	if err := balance(f, opt); err != nil {
		return nil, Stats{}, nil, err
	}
	return f, statsFor(f, grid, discarded, fluid, opt.Dx), vox, nil
}

// forEach calls task(i) for every i in [0, n) from up to GOMAXPROCS
// goroutines and returns when all calls have. Each goroutine gets its
// task from worker, so a task may keep scratch of its own. Indices are
// handed out one at a time: per-block costs differ by orders of magnitude.
func forEach(n int, worker func() (task func(i int))) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		task := worker()
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			task := worker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(i)
			}
		}()
	}
	wg.Wait()
}

func balance(f *blockforest.SetupForest, opt Options) error {
	if opt.Ranks <= 0 {
		return fmt.Errorf("setup: invalid rank count %d", opt.Ranks)
	}
	if opt.UseGraphPartitioner {
		return partition.BalanceGraph(f, opt.Ranks, opt.MemoryLimitCells, opt.Seed)
	}
	f.BalanceMorton(opt.Ranks)
	return nil
}

func statsFor(f *blockforest.SetupForest, grid [3]int, discarded int, fluid int64, dx float64) Stats {
	total := f.TotalCells()
	s := Stats{
		Grid:            grid,
		Blocks:          f.NumBlocks(),
		DiscardedBlocks: discarded,
		FluidCells:      fluid,
		TotalCells:      total,
		Dx:              dx,
	}
	if total > 0 {
		s.FluidFraction = float64(fluid) / float64(total)
	}
	return s
}

// BuildForestParallel runs the pipeline SPMD over a communicator: the
// candidate blocks are randomly scattered among the ranks (avoiding the
// load imbalance of the surface's spatial clustering), each rank
// classifies its share, the nonzero counts and their voxels are gathered
// on all ranks, and the balancing runs redundantly but deterministically.
// Every rank returns the identical forest and voxels, those BuildForest
// builds.
func BuildForestParallel(c *comm.Comm, sdf distance.SDF, opt Options) (*blockforest.SetupForest, Stats, *Voxels, error) {
	grid, domain := GridForDx(sdf.Bounds(), opt.CellsPerBlock, opt.Dx)
	f := blockforest.NewSetupForest(domain, grid, opt.CellsPerBlock, [3]bool{})
	blocks := f.Blocks()
	// Deterministic random scatter, identical on every rank.
	perm := rand.New(rand.NewSource(opt.Seed)).Perm(len(blocks))
	var mine []int64 // interleaved index, count
	var mineBits []byte
	flags := newVoxelField(opt.CellsPerBlock)
	for i, b := range blocks {
		if perm[i]%c.Size() != c.Rank() {
			continue
		}
		if n, v := classify(sdf, b.AABB, flags); n > 0 {
			mine = append(mine, int64(i), n)
			mineBits = append(mineBits, v...)
		}
	}
	counts := make([]int64, len(blocks))
	bits := make([][]byte, len(blocks))
	size := (len(flags.Data()) + 7) / 8 // one block's packed voxels
	gotBits := c.Allgather(mineBits)
	for r, part := range c.Allgather(mine) {
		pairs, _ := part.([]int64)
		v, _ := gotBits[r].([]byte)
		for i := 0; i+1 < len(pairs); i += 2 {
			counts[pairs[i]], bits[pairs[i]] = pairs[i+1], v[:size:size]
			v = v[size:]
		}
	}
	return keepCounted(f, blocks, counts, bits, grid, opt)
}

// FlagsFromSDF returns a simulation setup hook that gives each block the
// voxels BuildForest kept for it — a copy, when kept holds a block at the
// block's coordinate with the block's box — or else voxelizes the block
// against the SDF, and then computes the boundary hull with condition
// assignment from surface colors: the per-process initialization of the
// paper ("every process voxelizes its blocks independently"), with the
// voxelization done once, by the forest build. kept may be nil. The hook
// only reads kept, so ranks and workers may call it at once.
func FlagsFromSDF(sdf distance.SDF, kept *Voxels) func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
	return func(b *blockforest.Block, forest *blockforest.BlockForest, flags *field.FlagField) {
		if !kept.Flags(b.Coord, b.AABB, flags) {
			geometry.Voxelize(sdf, b.AABB, flags)
		}
		geometry.DilateBoundary(sdf, b.AABB, flags, lattice.D3Q19())
	}
}
