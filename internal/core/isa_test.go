package core

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
)

// TestPipelineOnRV64Binary runs the full build → extract → subsume → plan →
// concretize → verify pipeline against the second backend. The obfuscated
// crc benchmark must yield emulator-verified execve and mprotect payloads on
// both RV64 arms (mmap needs an a3 setter, which small programs rarely
// expose — it is not required here).
func TestPipelineOnRV64Binary(t *testing.T) {
	p, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	for _, isaName := range []string{"rv64", "rv64c"} {
		bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, isaName)
		if err != nil {
			t.Fatalf("%s: build: %v", isaName, err)
		}
		if bin.ISA != isaName {
			t.Fatalf("bin.ISA = %q, want %q", bin.ISA, isaName)
		}
		a := Analyze(bin, Config{
			Planner: planner.Options{MaxPlans: 4, MaxNodes: 5000},
		})
		if a.Pool.ISA != isaName {
			t.Fatalf("%s: minimized pool ISA = %q", isaName, a.Pool.ISA)
		}
		if a.RawPool.Size() == 0 || a.Pool.Size() == 0 {
			t.Fatalf("%s: empty pools: raw=%d min=%d", isaName, a.RawPool.Size(), a.Pool.Size())
		}
		if a.SubsumeStats.ReductionFactor() <= 1 {
			t.Errorf("%s: no subsumption reduction: %+v", isaName, a.SubsumeStats)
		}
		if len(a.RawPool.Syscalls) == 0 {
			t.Fatalf("%s: no syscall anchors", isaName)
		}

		attacks := a.FindAll()
		for _, goal := range []string{"execve", "mprotect"} {
			atk := attacks[goal]
			if atk == nil || len(atk.Payloads) == 0 {
				t.Fatalf("%s: no verified %s payloads (expanded %d)",
					isaName, goal, atk.Search.Expanded)
			}
			for _, pl := range atk.Payloads {
				if err := payload.Verify(a.Binary, pl, 0); err != nil {
					t.Errorf("%s: %s payload does not re-verify: %v", isaName, goal, err)
				}
			}
		}
	}
}

// TestRV64CFindsMoreGadgets checks the paper's C-extension claim on the
// decode side: scanning the same generated code at stride 2 with compressed
// decoding enabled (rv64c) must surface strictly more raw gadget starts
// than the aligned stride-4 rv64 scan, on original and obfuscated builds.
func TestRV64CFindsMoreGadgets(t *testing.T) {
	for _, name := range []string{"crc", "fibonacci"} {
		p, ok := benchprog.ByName(name)
		if !ok {
			t.Fatalf("%s benchmark missing", name)
		}
		for _, obf := range []struct {
			label  string
			passes []obfuscate.Pass
		}{{"original", nil}, {"llvm-obf", obfuscate.LLVMObf()}} {
			pools := make(map[string]int)
			for _, isaName := range []string{"rv64", "rv64c"} {
				bin, err := benchprog.BuildISA(p, obf.passes, 42, isaName)
				if err != nil {
					t.Fatalf("%s %s %s: build: %v", name, obf.label, isaName, err)
				}
				a := Analyze(bin, Config{SkipSubsume: true})
				pools[isaName] = a.RawPool.Size()
			}
			if pools["rv64c"] <= pools["rv64"] {
				t.Errorf("%s %s: rv64c pool (%d) not larger than rv64 pool (%d)",
					name, obf.label, pools["rv64c"], pools["rv64"])
			}
		}
	}
}
