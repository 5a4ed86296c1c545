package walberla

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsPointAtThingsThatExist keeps the living documents honest about
// the repository they describe: every `make <target>` is a Makefile
// target, every `-fig <name>` is a key of walberla-bench's figure table,
// every `-flag` cited after `walberla-sim` (or the verify skill's `wsim`)
// on a line, or on the continuation lines of such a command, is a flag
// the binary defines, every back-ticked repository path exists, the
// retired per-writer benchmark records (`retired` below) are not cited,
// and — the other
// direction — every package directory under internal/ and cmd/ is named
// in DESIGN.md's module map. History (CHANGES.md, ROADMAP.md, ISSUE.md),
// the paper notes and bench/ (frozen by BENCHMARK.json) are out of scope.
func TestDocsPointAtThingsThatExist(t *testing.T) {
	docs := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, more...)

	// Spelled in two halves so that the repository-wide grep for stale
	// references does not find this file.
	retired := "BENCH" + "_"
	targets := makeTargets(t)
	figures := figureNames(t)
	figures["all"] = true
	simFlags := simFlagNames(t)

	var (
		span     = regexp.MustCompile("`[^`\n]+`")
		makeSpan = regexp.MustCompile("^`make ([a-z][a-z0-9-]*)")
		makeLine = regexp.MustCompile(`^\s*make ([a-z][a-z0-9-]*)`)
		fig      = regexp.MustCompile(`-fig ([A-Za-z0-9]+)`)
		repoPath = regexp.MustCompile(`^(internal|cmd|docs|bench|examples)/`)
		rootJSON = regexp.MustCompile(`^[A-Z][A-Za-z0-9_]*\.json$`)
		lineRef  = regexp.MustCompile(`(:\d+(-\d+)?)?[.,;:)]*$`)
		simCmd   = regexp.MustCompile(`\b(walberla-sim|wsim)\b(.*)$`)
		flagTok  = regexp.MustCompile("(?:^|[\\s`(\"])-([a-z][a-z0-9-]*)")
	)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := "`" + root + "/" + e.Name() + "`"; e.IsDir() && !strings.Contains(string(design), name) {
				t.Errorf("DESIGN.md: the module map has no row for %s", name)
			}
		}
	}

	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if os.IsNotExist(err) && strings.HasPrefix(doc, ".claude/") {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fenced, continued := false, false
		for i, line := range strings.Split(string(data), "\n") {
			bad := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			cited := ""
			if m := simCmd.FindStringSubmatch(line); m != nil {
				cited = m[2]
			} else if continued {
				cited = line
			}
			continued = cited != "" && strings.HasSuffix(strings.TrimSpace(line), `\`)
			for _, m := range flagTok.FindAllStringSubmatch(cited, -1) {
				if !simFlags[m[1]] {
					bad("-%s is not a flag of cmd/walberla-sim", m[1])
				}
			}
			if strings.Contains(line, retired) {
				bad("cites a retired %s*.json record", retired)
			}
			for _, m := range fig.FindAllStringSubmatch(line, -1) {
				if !figures[m[1]] {
					bad("-fig %s is not a figure of cmd/walberla-bench", m[1])
				}
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				if m := makeLine.FindStringSubmatch(line); m != nil && !targets[m[1]] {
					bad("make %s is not a Makefile target", m[1])
				}
				continue
			}
			for _, s := range span.FindAllString(line, -1) {
				if m := makeSpan.FindStringSubmatch(s); m != nil && !targets[m[1]] {
					bad("make %s is not a Makefile target", m[1])
				}
				for _, tok := range strings.Fields(strings.Trim(s, "`")) {
					tok = lineRef.ReplaceAllString(tok, "")
					if !repoPath.MatchString(tok) && !rootJSON.MatchString(tok) {
						continue
					}
					// Patterns, placeholders and what a benchmark run
					// leaves behind (git-ignored) name no committed file.
					if strings.ContainsAny(tok, "*{}<>…") || strings.HasSuffix(tok, "/...") || strings.HasPrefix(tok, "bench/out") {
						continue
					}
					if _, err := os.Stat(tok); err != nil {
						bad("path %s does not exist", tok)
					}
				}
			}
		}
	}
}

// makeTargets returns the targets the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets
}

// figureNames reads the keys of the `figures` table out of
// cmd/walberla-bench/main.go.
func figureNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/walberla-bench/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "figures" || len(spec.Values) != 1 {
			return true
		}
		table, ok := spec.Values[0].(*ast.CompositeLit)
		if !ok {
			return false
		}
		for _, row := range table.Elts {
			if r, ok := row.(*ast.CompositeLit); ok && len(r.Elts) > 0 {
				if lit, ok := r.Elts[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						names[name] = true
					}
				}
			}
		}
		return false
	})
	if len(names) == 0 {
		t.Fatal("no figure table found in cmd/walberla-bench/main.go")
	}
	return names
}

// simFlagNames reads the flags cmd/walberla-sim defines — the first
// argument of every fs.<Type>("name", ...) call in its main.go.
func simFlagNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/walberla-sim/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	if len(names) < 30 {
		t.Fatalf("found only %d flag definitions in cmd/walberla-sim/main.go", len(names))
	}
	return names
}
