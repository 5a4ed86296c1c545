package resilience

import (
	"os"
	"strings"
	"sync"
	"testing"

	"walberla/internal/comm"
	"walberla/internal/output"
)

// TestSetWriteFailureLeavesNoSet: one rank failing its file write aborts
// the set for everyone — every rank gets the error, and neither a
// committed nor a temporary set directory survives. Rank 1's file is
// opened read-only, so its write fails in the file system.
func TestSetWriteFailureLeavesNoSet(t *testing.T) {
	dir := t.TempDir()
	createFile = func(name string) (*os.File, error) {
		f, err := os.Create(name)
		if err != nil || !strings.HasSuffix(name, output.RankFileName(1)) {
			return f, err
		}
		f.Close()
		return os.Open(name)
	}
	t.Cleanup(func() { createFile = os.Create })
	comm.Run(2, func(c *comm.Comm) {
		n, err := WriteSet(&counterWorld{c: c, n: 3}, dir, 3)
		if err == nil || !strings.Contains(err.Error(), "rank 1: write ") || n != 0 {
			t.Errorf("rank %d: WriteSet = %d, %v, want rank 1's write error", c.Rank(), n, err)
		}
	})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("a failed checkpoint left %s behind", e.Name())
	}
}

// TestSetCandidateVote: three members walk the same two committed sets.
// One supplier cannot load the newest, the recruit-side member loads
// nothing at all (nil loader, neutral vote) — all three must settle on the
// older set, and a plain restore of the same directory takes the newest.
func TestSetCandidateVote(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	got := make(map[int]int64)
	comm.Run(3, func(c *comm.Comm) {
		w := &counterWorld{c: c}
		for _, step := range []int{2, 4} {
			w.n = step
			if n, err := WriteSet(w, dir, step); err != nil || n != output.LeafFileSize(counterRecord(step)) {
				t.Errorf("rank %d: WriteSet(%d) = %d, %v", c.Rank(), step, n, err)
				return
			}
		}
		if n, err := WriteSet(w, dir, 4); err != nil || n != 0 {
			t.Errorf("rank %d: rewriting a committed set = %d, %v, want a skip", c.Rank(), n, err)
		}

		d := &Driver{World: w}
		var load func(string) error
		switch c.Rank() {
		case 0:
			load = func(setDir string) error {
				_, err := d.readRankFile(setDir, 0, 3)
				return err
			}
		case 1:
			load = func(setDir string) error {
				if strings.HasSuffix(setDir, "4") {
					return os.ErrNotExist
				}
				_, err := d.readRankFile(setDir, 1, 3)
				return err
			}
		}
		step, found, err := d.newestUsableSet(c, dir, load)
		if err != nil || !found {
			t.Errorf("rank %d: newestUsableSet: found %v, err %v", c.Rank(), found, err)
		}
		mu.Lock()
		got[c.Rank()] = step
		mu.Unlock()
		if reads := d.Stats.DiskReadsDuringRecovery; reads != []int{3, 1, 0}[c.Rank()] {
			t.Errorf("rank %d counted %d disk reads", c.Rank(), reads)
		}

		if _, err := d.readRankFile(dir+"/set-0000000004", c.Rank(), 2); err == nil {
			t.Errorf("rank %d: a set written by 3 ranks passed for a world of 2", c.Rank())
		}
		w.n = 0
		if step, err := RestoreNewestSet(w, dir); err != nil || step != 4 || w.n != 4 {
			t.Errorf("rank %d: RestoreNewestSet = %d, %v with state %d, want 4", c.Rank(), step, err, w.n)
		}
	})
	for r := 0; r < 3; r++ {
		if got[r] != 2 {
			t.Errorf("rank %d settled on set %d, want 2", r, got[r])
		}
	}
}
