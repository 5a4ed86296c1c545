package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// runMainEnv makes the test binary behave as walberla-bench, so the
// tests drive the real flag parsing and exit codes without a go build.
const runMainEnv = "WALBERLA_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runBench(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), exit
}

// TestQuickFigures runs the figures that finish in well under a second
// with -quick (1, 2, 7 and balance take 2-10 s each and stay out): each
// prints at least one "###" header, and every header is followed by a
// column line and at least one tab-separated data row.
func TestQuickFigures(t *testing.T) {
	for _, name := range []string{"3", "4", "5", "6", "8", "sparse", "filesize", "iaca"} {
		t.Run(name, func(t *testing.T) {
			out, stderr, exit := runBench(t, "-fig", name, "-quick")
			if exit != 0 {
				t.Fatalf("exit %d: %s", exit, stderr)
			}
			sections := strings.Split(out, "\n### ")[1:]
			if len(sections) == 0 {
				t.Fatalf("no ### header in output:\n%s", out)
			}
			for _, s := range sections {
				lines := strings.Split(strings.TrimSpace(s), "\n")
				rows := 0
				for _, l := range lines[1:] {
					if strings.Contains(l, "\t") {
						rows++
					}
				}
				if rows < 2 {
					t.Errorf("section %q: want a column line and a data row, got:\n%s", lines[0], s)
				}
			}
		})
	}
}

func TestFigHelpListsTheTable(t *testing.T) {
	_, stderr, _ := runBench(t, "-h")
	m := regexp.MustCompile(`figure to regenerate: (\S+)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no -fig usage line in:\n%s", stderr)
	}
	var want []string
	for _, f := range figures {
		want = append(want, f.name)
	}
	want = append(want, "all")
	if got := strings.Split(m[1], "|"); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-fig help lists %v, table has %v", got, want)
	}
}

func TestBadInvocationsExit2(t *testing.T) {
	_, stderr, exit := runBench(t, "-fig", "hybrid")
	if exit != 2 || !strings.Contains(stderr, `unknown figure "hybrid"`) {
		t.Errorf("retired figure name: exit %d, stderr %q", exit, stderr)
	}
	_, stderr, exit = runBench(t, "-compare")
	if exit != 2 || !strings.Contains(stderr, "flag provided but not defined: -compare") {
		t.Errorf("-compare: exit %d, stderr %q", exit, stderr)
	}
}
