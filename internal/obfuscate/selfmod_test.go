package obfuscate

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/mir"
)

func TestSelfModifyPreservesBehaviour(t *testing.T) {
	src := testPrograms["sort"]
	plain, err := codegen.BuildProgram(src, nil, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := codegen.Run(plain, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	sm, err := SelfModifyBinary(plain, 0x5A)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codegen.Run(sm, nil, 0)
	if err != nil {
		t.Fatalf("self-modified run: %v", err)
	}
	if got.Stdout != want.Stdout || got.ExitCode != want.ExitCode {
		t.Errorf("behaviour changed: %q/%d vs %q/%d",
			got.Stdout, got.ExitCode, want.Stdout, want.ExitCode)
	}
	// Decoding takes steps: the self-modified run is strictly longer.
	if got.Steps <= want.Steps {
		t.Errorf("steps %d <= %d: stub did not run?", got.Steps, want.Steps)
	}
}

// TestSelfModifyDefeatsStaticScan shows the two-sided result: the static
// scan of the encoded image finds almost nothing, while the decoded image
// has the full (original) attack surface back.
func TestSelfModifyDefeatsStaticScan(t *testing.T) {
	src := testPrograms["sort"]
	plain, err := codegen.BuildProgram(src, nil, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const key = 0x77
	sm, err := SelfModifyBinary(plain, key)
	if err != nil {
		t.Fatal(err)
	}

	before := gadget.TotalCount(gadget.CountISA(plain, 10, isa.X64))
	encodedScan := gadget.TotalCount(gadget.CountISA(sm, 10, isa.X64))
	if encodedScan >= before {
		t.Errorf("static scan of encoded image not reduced: %d vs %d", encodedScan, before)
	}

	decoded, err := DecodeSelfModified(sm, key)
	if err != nil {
		t.Fatal(err)
	}
	after := gadget.TotalCount(gadget.CountISA(decoded, 10, isa.X64))
	// The decoded image contains at least the original gadgets (plus the
	// stub's).
	if after < before {
		t.Errorf("decoded image lost gadgets: %d vs %d", after, before)
	}
	t.Logf("gadgets: original=%d encoded=%d decoded=%d", before, encodedScan, after)
}

func TestSelfModifyErrors(t *testing.T) {
	plain, err := codegen.BuildProgram(testPrograms["fib"], nil, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelfModifyBinary(plain, 0); err == nil {
		t.Error("zero key accepted")
	}
}

func TestSelfModifyComposesWithPasses(t *testing.T) {
	// Self-modification stacked on top of the LLVM-Obf preset.
	src := testPrograms["calls"]
	plain, err := codegen.BuildProgram(src, nil, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := codegen.Run(plain, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	obf, err := codegen.BuildProgram(src, func(m *mir.Module) error {
		return Apply(m, 9, LLVMObf()...)
	}, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := SelfModifyBinary(obf, 0xA5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codegen.Run(sm, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stdout != want.Stdout || got.ExitCode != want.ExitCode {
		t.Errorf("composed behaviour changed: %q vs %q", got.Stdout, want.Stdout)
	}
}
