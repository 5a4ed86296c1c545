// Command blockgen runs the offline initialization phase of section 2.2:
// it builds the block structure for a surface geometry — classification,
// workload counting, static load balancing — and writes it to the compact
// binary block-structure file that the simulation later loads and
// broadcasts. The geometry comes from a colored mesh file (or the built-in
// synthetic coronary tree), the target is either an explicit resolution or
// a block-count target resolved by binary search.
//
// Usage:
//
//	blockgen -tree -cells 16 -target 512 -ranks 512 -o tree.wbf
//	blockgen -mesh vessel.wbm -dx 0.05 -ranks 64 -metis -o vessel.wbf
package main

import (
	"flag"
	"fmt"
	"os"

	"walberla/internal/distance"
	"walberla/internal/mesh"
	"walberla/internal/setup"
	"walberla/internal/vascular"
)

func main() {
	var (
		meshPath  = flag.String("mesh", "", "colored mesh file (WBM1 format; see cmd/voxelize -export)")
		useTree   = flag.Bool("tree", false, "use the built-in synthetic coronary tree")
		treeDepth = flag.Int("tree-depth", 4, "bifurcation depth of the synthetic tree")
		seed      = flag.Int64("seed", 1, "seed for tree generation and balancing")
		cells     = flag.Int("cells", 16, "lattice cells per block edge")
		dx        = flag.Float64("dx", 0, "lattice spacing (alternative to -target)")
		target    = flag.Int("target", 0, "target block count resolved by binary search")
		ranks     = flag.Int("ranks", 1, "process count to balance for")
		metis     = flag.Bool("metis", false, "use the multilevel graph partitioner instead of the Morton curve")
		out       = flag.String("o", "blocks.wbf", "output block structure file")
	)
	flag.Parse()

	sdf, err := loadGeometry(*meshPath, *useTree, *treeDepth, *seed)
	if err != nil {
		fatal(err)
	}
	cpb := [3]int{*cells, *cells, *cells}
	resolution := *dx
	if resolution == 0 {
		if *target == 0 {
			fatal(fmt.Errorf("one of -dx or -target is required"))
		}
		var blocks int
		resolution, blocks, err = setup.FindWeakScalingDx(sdf, cpb, *target, 20)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("binary search: dx = %g yields %d blocks (target %d)\n", resolution, blocks, *target)
	}
	forest, stats, _, err := setup.BuildForest(sdf, setup.Options{
		CellsPerBlock:       cpb,
		Dx:                  resolution,
		Ranks:               *ranks,
		Seed:                *seed,
		UseGraphPartitioner: *metis,
	})
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := forest.Save(f); err != nil {
		fatal(err)
	}
	fmt.Printf("grid %v, %d blocks (%d discarded), %d fluid of %d cells (%.2f%%)\n",
		stats.Grid, stats.Blocks, stats.DiscardedBlocks,
		stats.FluidCells, stats.TotalCells, 100*stats.FluidFraction)
	fmt.Printf("wrote %s (%d bytes, %.2f bytes/block)\n",
		*out, forest.FileSize(), float64(forest.FileSize())/float64(stats.Blocks))
}

func loadGeometry(meshPath string, useTree bool, depth int, seed int64) (distance.SDF, error) {
	if useTree {
		p := vascular.DefaultParams()
		p.Depth = depth
		p.Seed = seed
		return vascular.Generate(p).SDF()
	}
	if meshPath == "" {
		return nil, fmt.Errorf("either -mesh or -tree is required")
	}
	f, err := os.Open(meshPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := mesh.Read(f)
	if err != nil {
		return nil, err
	}
	return distance.NewField(m)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blockgen:", err)
	os.Exit(1)
}
