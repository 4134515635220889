package core

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestServingImportBoundary keeps the §II plan out of the serving engine:
// the non-test import closure of this package must contain neither plan nor
// sharedagg, which stay behind as the paper's offline tier and the test
// oracle of TestEngineStrategyEquivalence.
func TestServingImportBoundary(t *testing.T) {
	const module = "sharedwd"
	forbidden := []string{module + "/internal/plan", module + "/internal/sharedagg"}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{module + "/internal/core": true}
	queue := []string{module + "/internal/core"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.Default.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module+"/") {
				continue // the standard library
			}
			if seen[imp] {
				continue
			}
			seen[imp] = true
			if slices.Contains(forbidden, imp) {
				t.Errorf("%s imports %s, so the serving engine does", path, imp)
			}
			queue = append(queue, imp)
		}
	}
}
