package benchprog

import (
	"bytes"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
)

// TestRV64CBuildIsRV64Build pins the fact that makes a scan-backend
// override unnecessary: for every program and obfuscation preset, the
// rv64c build is the rv64 build byte for byte (sections, entry, data and
// symbols) and differs only in its ISA tag. Scanning an rv64 binary under
// rv64c is therefore the same as analyzing the rv64c build.
func TestRV64CBuildIsRV64Build(t *testing.T) {
	presets := []struct {
		name   string
		passes []obfuscate.Pass
	}{
		{"original", nil},
		{"llvm", obfuscate.LLVMObf()},
		{"tigress", obfuscate.Tigress()},
	}
	for _, p := range All() {
		for _, pr := range presets {
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
