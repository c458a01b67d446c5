package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchModuleVets type-checks the nested bench/ module, which `go test
// ./...` never builds: bench/ drives the public serve, pipeline and core
// APIs, so an API change that breaks it fails here. The module resolves
// this repository through its `replace ../` directive, and GOPROXY=off
// keeps the check offline.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
