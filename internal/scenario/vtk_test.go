package scenario

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestVTKFiles: one writer dumps a uniform and a refined world, one file
// per block — a refined world's named by level and level-grid index, so
// no two leaves share a name — and the files are byte for byte the ones
// pinned here (digest over the sorted names and their bytes).
func TestVTKFiles(t *testing.T) {
	for _, row := range []struct {
		file   string
		levels map[string]int // files per name prefix
		name   *regexp.Regexp
		digest string
	}{
		{"cavity.json", map[string]int{"block_0_": 1, "block_1_": 1}, regexp.MustCompile(`^block_\d+_\d+_\d+\.vtk$`),
			"7dd576a18a783d9151f7a2ab1c07aa1075acb42fe844631399d7fab65941b4dd"},
		{"amr-cavity.json", map[string]int{"block_L0": 4, "block_L1": 32}, regexp.MustCompile(`^block_L[01]_\d+_\d+_\d+\.vtk$`),
			"8c27683b54e1bf97081578257a9d919a67dfe73f10bf4abf98d10ba3e3fceb33"},
	} {
		sc, err := ParseFile(filepath.Join("testdata", row.file))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := Execute(context.Background(), sc, ExecuteOptions{VTKDir: dir}); err != nil {
			t.Fatalf("%s: %v", row.file, err)
		}
		entries, err := os.ReadDir(dir) // sorted by name
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		levels := map[string]int{}
		for _, e := range entries {
			if !row.name.MatchString(e.Name()) {
				t.Errorf("%s: unexpected file %s", row.file, e.Name())
			}
			levels[e.Name()[:min(8, len(e.Name()))]]++
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s\x00%d\x00", e.Name(), len(b))
			h.Write(b)
		}
		if !maps.Equal(levels, row.levels) {
			t.Errorf("%s: files per prefix %v, want %v", row.file, levels, row.levels)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != row.digest {
			t.Errorf("%s: files digest %s, want %s", row.file, got, row.digest)
		}
	}
}
