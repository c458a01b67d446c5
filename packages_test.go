package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanPackages fails when an internal/ package has no importer
// outside its own directory: nothing builds on it, so it is dead code. It
// parses the imports of every non-test .go file in the repository, the
// nested bench/ module included.
func TestNoOrphanPackages(t *testing.T) {
	const module = "github.com/nofreelunch/gadget-planner/"
	fset := token.NewFileSet()
	internal := map[string]bool{} // internal/ package directories
	imported := map[string]bool{} // directories imported from another directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			internal[dir] = true
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if target, ok := strings.CutPrefix(p, module); ok && target != dir {
				imported[target] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal/ packages")
	}
	var orphans []string
	for dir := range internal {
		if !imported[dir] {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s has no importer outside its own directory; delete it or use it", dir)
	}
}
