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
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

var update = flag.Bool("update", false, "rewrite the testdata/*_text.sha256 pins from the current builds")

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

// selfmodKey is the XOR key of the pinned self-modified netperf build.
const selfmodKey = 0x5a

// TestRV64TextPinned pins the RV64 assembler's output; see checkTextPin.
func TestRV64TextPinned(t *testing.T) { checkTextPin(t, "rv64", false) }

// TestX64TextPinned pins the x86-64 assembler's output; see checkTextPin.
// It also pins netperf under the self-modification transform, whose
// decoder stub goes through the textual assembler front end.
func TestX64TextPinned(t *testing.T) { checkTextPin(t, "x64", true) }

// checkTextPin pins a backend's assembler output: the SHA-256 of the
// executable bytes of every program × preset build must match
// testdata/<isa>_text.sha256 (one "program/preset hex" line each). The
// bench goldens pin only text size and what extraction derives from the
// bytes; this pins the bytes themselves. Regenerate with
// `go test ./internal/benchprog -run TextPinned -update`.
func checkTextPin(t *testing.T, isaName string, selfmod bool) {
	var got strings.Builder
	line := func(name string, bin *sbf.Binary) {
		h := sha256.New()
		n := 0
		for _, s := range bin.Sections {
			if s.Flags&sbf.FlagExec != 0 {
				h.Write(s.Data)
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no executable section", name)
		}
		fmt.Fprintf(&got, "%s %s\n", name, hex.EncodeToString(h.Sum(nil)))
	}
	for _, p := range All() {
		for _, pr := range isaPresets {
			bin, err := BuildISA(p, pr.passes, 42, isaName)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, pr.name, err)
			}
			line(p.Name+"/"+pr.name, bin)
		}
	}
	if selfmod {
		bin, err := BuildISA(Netperf(), nil, 42, isaName)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := obfuscate.SelfModifyBinary(bin, selfmodKey)
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("netperf/selfmod-%#x", selfmodKey), sm)
	}

	path := filepath.Join("testdata", isaName+"_text.sha256")
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
		t.Errorf("%s executable-section hashes differ from %s\n--- want ---\n%s--- got ---\n%s", isaName, path, want, got.String())
	}
}
