package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/pipeline"
	"github.com/nofreelunch/gadget-planner/internal/serve"
)

// TestLocalMatchesServed runs gp on one binary locally and against a gpd:
// everything before the stage timings (the result's Canon and the payload
// dump) must be byte-identical.
func TestLocalMatchesServed(t *testing.T) {
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crc.sbf")
	if err := os.WriteFile(path, bin.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(pipeline.NewStore(), 0).Handler())
	t.Cleanup(ts.Close)

	canon := func(server string) string {
		t.Helper()
		var out bytes.Buffer
		args := []string{"-bin", path, "-max", "2", "-dump", "-cachedir=", "-server=" + server}
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("gp -server=%q: %v", server, err)
		}
		head, _, ok := strings.Cut(out.String(), "\nstage timings:")
		if !ok {
			t.Fatalf("gp -server=%q: no stage timings in\n%s", server, out.String())
		}
		return head
	}
	local, served := canon(""), canon(ts.URL)
	if !strings.HasPrefix(local, "key bin:") || !strings.Contains(local, "payload @ ") {
		t.Fatalf("local output lacks the canonical result or the dump:\n%s", local)
	}
	if local != served {
		t.Errorf("local and served output differ\nlocal:\n%s\nserved:\n%s", local, served)
	}
}
