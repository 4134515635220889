package core

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestServingImportBoundary keeps the paper's offline tier out of the
// serving path: the non-test import closures of this package, the round
// server, the shard fleet and both network edges must contain neither the
// §II plan (plan, sharedagg), which stays behind for the figures and as
// the test oracle of TestEngineStrategyEquivalence, nor the §I batching
// simulator, the non-separable auction solver, the offline analytics or
// the Bloom filter.
func TestServingImportBoundary(t *testing.T) {
	const module = "sharedwd"
	forbidden := []string{
		module + "/internal/plan",
		module + "/internal/sharedagg",
		module + "/internal/batching",
		module + "/internal/nonsep",
		module + "/internal/analytics",
		module + "/internal/bloom",
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"core", "server", "shard", "binproto", "netserve"} {
		from := module + "/internal/" + pkg
		seen := map[string]bool{from: true}
		queue := []string{from}
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
					t.Errorf("%s imports %s, so %s does", path, imp, from)
				}
				queue = append(queue, imp)
			}
		}
	}
}
