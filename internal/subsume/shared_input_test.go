package subsume_test

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

// TestMinimizeLeavesInputUntouched pins that Minimize never writes to a
// gadget of its input. The store shares one raw pool between every
// analysis of a binary, and the planner indexes its per-gadget caches by
// ID, so renumbering a raw gadget corrupts a later SkipSubsume search of
// the same pool.
func TestMinimizeLeavesInputUntouched(t *testing.T) {
	crc, ok := benchprog.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	bin, err := benchprog.BuildISA(crc, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	raw := gadget.Extract(bin, gadget.Options{Parallelism: 1})
	before := raw.Canon()
	min, _ := subsume.Minimize(raw, subsume.Options{Parallelism: 1})

	moved := 0
	for i, g := range raw.Gadgets {
		if g.ID != i {
			moved++
		}
	}
	if moved > 0 {
		t.Errorf("Minimize renumbered %d of the %d raw gadgets", moved, raw.Size())
	}
	if raw.Canon() != before {
		t.Error("Minimize changed its input pool")
	}
	owned := make(map[*gadget.Gadget]bool, raw.Size())
	for _, g := range raw.Gadgets {
		owned[g] = true
	}
	for i, g := range min.Gadgets {
		if owned[g] {
			t.Fatalf("minimized gadget %d is the input's own gadget, not a copy", i)
		}
		if g.ID != i {
			t.Fatalf("minimized gadget at %d has ID %d", i, g.ID)
		}
	}
}
