package repro_test

import (
	"go/build"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestServingStackImports walks the non-test imports of the two serving
// binaries through the module and fails if they reach a package that only
// the offline tools (experiments, simulators, LP extensions, report
// rendering, workload generation) should use.
func TestServingStackImports(t *testing.T) {
	const module = "repro/"
	forbidden := []string{
		"internal/experiments", "internal/lp", "internal/sim", "internal/spill",
		"internal/stats", "internal/table", "internal/trace", "internal/workload",
	}
	seen := map[string]bool{}
	queue := []string{"cmd/amf-server", "cmd/amf-router"}
	for len(queue) > 0 {
		rel := queue[0]
		queue = queue[1:]
		if seen[rel] {
			continue
		}
		seen[rel] = true
		pkg, err := build.Default.ImportDir(filepath.FromSlash(rel), 0)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, imp := range pkg.Imports {
			if dep, ok := strings.CutPrefix(imp, module); ok {
				if slices.Contains(forbidden, dep) {
					t.Errorf("serving stack reaches %s (imported by %s)", imp, module+rel)
				}
				queue = append(queue, dep)
			}
		}
	}
	var reached []string
	for rel := range seen {
		reached = append(reached, rel)
	}
	sort.Strings(reached)
	t.Logf("serving stack: %s", strings.Join(reached, " "))
}
