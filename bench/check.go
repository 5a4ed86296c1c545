package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"

	"walberla/internal/comm"
)

// checkSteps is the length of the shape-independence copies.
const checkSteps = 20

// goldenFile holds the final field hash of every workload at the default
// seed, keyed by sizing; a run checks against it whenever its seed and
// step count match the entry.
const goldenFile = "golden.json"

type goldenEntry struct {
	Seed  int64  `json:"seed"`
	Steps int    `json:"steps"`
	Hash  string `json:"field_hash"`
}

func goldenKey(workload string, smoke bool) string {
	if smoke {
		return workload + "/smoke"
	}
	return workload
}

func loadGolden() (map[string]goldenEntry, error) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, err
	}
	g := make(map[string]goldenEntry)
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return g, nil
}

func saveGolden(g map[string]goldenEntry) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(data, '\n'), 0o644)
}

// shearError is the volume-weighted RMS error of uy against the analytic
// shear layer after the world's completed steps, over the whole domain
// and all ranks. Cell volumes weigh 8^-level so that mixed-resolution
// leaves integrate correctly.
func shearError(w *rankWorld) float64 {
	k := float64(w.scale)
	t := float64(w.ref.Steps()) / k
	var sq, vol float64
	for _, b := range w.ref.OwnedBlocks() {
		h := 1 / float64(int(1)<<uint(b.Level()))
		for z := 0; z < b.Src.Nz; z++ {
			for y := 0; y < b.Src.Ny; y++ {
				for x := 0; x < b.Src.Nx; x++ {
					px := (float64(b.Idx[0]*b.Src.Nx+x) + 0.5) * h / k
					_, _, uy, _ := b.Src.Moments(x, y, z)
					d := uy - shearAnalytic(w.amp, w.drift, float64(w.lx), px, t)
					sq += d * d * h * h * h
					vol += h * h * h
				}
			}
		}
	}
	sq = w.c.AllreduceFloat64(sq, comm.Sum[float64])
	vol = w.c.AllreduceFloat64(vol, comm.Sum[float64])
	return math.Sqrt(sq / vol)
}

// runFor builds the document's world, advances it the given number of
// steps and returns the final hash, the shear error (refined scenarios
// only) and the build's times.
func runFor(doc []byte, o buildOpts, steps int) (hash uint64, shearErr float64, bt buildTimes) {
	bt = buildWorld(doc, o, func(w *rankWorld, _ *buildTimes) {
		for i := 0; i < steps; i++ {
			w.step()
		}
		h := w.hash()
		var e float64
		if w.ref != nil {
			e = shearError(w)
		}
		if w.c.Rank() == 0 {
			hash, shearErr = h, e
		}
	})
	return hash, shearErr, bt
}

// checkOutputs verifies the run's outputs before any metric is accepted:
// the final field hash against golden.json (when seed and step count
// match an entry), a 20-step copy on the workload's shape against the
// same copy on one rank and one worker, and for the refined world its
// error against the analytic profile and its cell savings. A miss fails
// every operation of the workload. It returns the shape copy's build,
// which doubles as a set-up sample.
func checkOutputs(w *workload, o runOpts, doc []byte, mr *mainRun, res *result) buildTimes {
	steps := res.Steps
	res.Attempted = steps * res.Worlds
	ok := true
	note := func(pass bool, format string, args ...any) {
		verdict := "ok  "
		if !pass {
			verdict, ok = "MISS", false
		}
		res.Notes = append(res.Notes, verdict+" "+fmt.Sprintf(format, args...))
	}
	golden, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	for _, h := range mr.hashes[1:] {
		if h != mr.hashes[0] {
			note(false, "the %d worlds of the timed region end in different states: %#016x", len(mr.hashes), mr.hashes)
			break
		}
	}
	key, got := goldenKey(w.name, o.smoke), fmt.Sprintf("%#016x", mr.hashes[0])
	if g, found := golden[key]; o.writeGolden {
		golden[key] = goldenEntry{Seed: o.seed, Steps: steps, Hash: got}
		if err := saveGolden(golden); err != nil {
			fatal(err)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("recorded golden hash %s for seed %d at %d steps", got, o.seed, steps))
	} else if found && g.Seed == o.seed && g.Steps == steps {
		note(got == g.Hash, "final field hash %s against golden %s (%d steps)", got, g.Hash, steps)
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("skip golden hash: no entry for seed %d at %d steps (final hash %s)", o.seed, steps, got))
	}
	debug.FreeOSMemory()
	shapeDoc := w.scenarioJSON(o.seed, w.shape(), checkSteps, o.smoke)
	hShape, _, btShape := runFor(shapeDoc, buildOpts{}, checkSteps)
	hSerial, _, _ := runFor(w.scenarioJSON(o.seed, shape{1, 1, "inproc"}, checkSteps, o.smoke), buildOpts{}, checkSteps)
	note(hShape == hSerial, "%d-step copy hashes %#016x on %dx%d %s and %#016x on 1x1 inproc",
		checkSteps, hShape, w.ranks, w.workers, w.network, hSerial)
	if w.amr() {
		_, coarseErr, _ := runFor(doc, buildOpts{uniformScale: 1}, steps)
		note(mr.shearErr <= coarseErr, "shear-layer error %.4g against the analytic profile, coarse-uniform %.4g", mr.shearErr, coarseErr)
		note(mr.savings >= 4, "refined world ends with %.2fx fewer cells than uniform fine", mr.savings)
	}
	res.Correct = ok
	if !ok {
		res.Failed = res.Attempted
	}
	return btShape
}
