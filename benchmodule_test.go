package walberla

import (
	"os/exec"
	"testing"
)

// TestBenchModule builds and tests the benchmark of record. bench/ is a
// module of its own, so the root `go build ./... && go test ./...` never
// compiles it; this test does, so an internal API change that breaks the
// benchmark's build or moves one of its golden field hashes fails here.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests the bench/ module")
	}
	cmd := exec.Command("go", "test", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go test ./... in bench/: %v\n%s", err, out)
	}
}
