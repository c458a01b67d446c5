package benchprog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
)

var update = flag.Bool("update", false, "rewrite testdata/rv64_text.sha256 from the current rv64 builds")

// isaPresets are the obfuscation presets the per-ISA build pins cover.
var isaPresets = []struct {
	name   string
	passes []obfuscate.Pass
}{
	{"original", nil},
	{"llvm", obfuscate.LLVMObf()},
	{"tigress", obfuscate.Tigress()},
}

// TestRV64CBuildIsRV64Build pins the fact that makes a scan-backend
// override unnecessary: for every program and obfuscation preset, the
// rv64c build is the rv64 build byte for byte (sections, entry, data and
// symbols) and differs only in its ISA tag. Scanning an rv64 binary under
// rv64c is therefore the same as analyzing the rv64c build.
func TestRV64CBuildIsRV64Build(t *testing.T) {
	for _, p := range All() {
		for _, pr := range isaPresets {
			rv, err := BuildISA(p, pr.passes, 42, "rv64")
			if err != nil {
				t.Fatalf("%s/%s rv64: %v", p.Name, pr.name, err)
			}
			rvc, err := BuildISA(p, pr.passes, 42, "rv64c")
			if err != nil {
				t.Fatalf("%s/%s rv64c: %v", p.Name, pr.name, err)
			}
			if rv.ISA != "rv64" || rvc.ISA != "rv64c" {
				t.Fatalf("%s/%s: tags %q/%q", p.Name, pr.name, rv.ISA, rvc.ISA)
			}
			rvc.ISA = rv.ISA
			if !bytes.Equal(rv.Marshal(), rvc.Marshal()) {
				t.Errorf("%s/%s: rv64c build differs from rv64 beyond the ISA tag", p.Name, pr.name)
			}
		}
	}
}

// TestRV64TextPinned pins the RV64 assembler's output: the SHA-256 of the
// .text bytes of every program × preset rv64 build must match
// testdata/rv64_text.sha256 (one "program/preset hex" line each). The
// bench goldens pin only text size and what extraction derives from the
// bytes; this pins the bytes themselves. Regenerate with
// `go test ./internal/benchprog -run TestRV64TextPinned -update`.
func TestRV64TextPinned(t *testing.T) {
	var got strings.Builder
	for _, p := range All() {
		for _, pr := range isaPresets {
			bin, err := BuildISA(p, pr.passes, 42, "rv64")
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, pr.name, err)
			}
			text := bin.Section(".text")
			if text == nil {
				t.Fatalf("%s/%s: no .text section", p.Name, pr.name)
			}
			sum := sha256.Sum256(text.Data)
			fmt.Fprintf(&got, "%s/%s %s\n", p.Name, pr.name, hex.EncodeToString(sum[:]))
		}
	}

	path := filepath.Join("testdata", "rv64_text.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("rv64 .text hashes differ from %s\n--- want ---\n%s--- got ---\n%s", path, want, got.String())
	}
}
