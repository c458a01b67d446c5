package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileFuzzTargets checks that `make fuzz` (and so `make
// check`) runs every fuzz target of the module: go test fuzzes one target
// per invocation, so the Makefile lists them by hand, and each `func FuzzX(`
// in a _test.go file needs a `-fuzz '^FuzzX$$'` line naming its package.
func TestMakefileFuzzTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{} // "./pkg/dir FuzzX"
	line := regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' .* (\./\S+)\s*$`)
	for _, l := range strings.Split(string(mk), "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			listed[m[2]+" "+m[1]] = true
		}
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			// A nested module (bench/) is not part of this module's fuzz run.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found++
			if !listed[pkg+" "+m[1]] {
				t.Errorf("%s: %s has no -fuzz '^%s$$' line for %s in the Makefile's fuzz target", path, m[1], m[1], pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz targets")
	}
}
