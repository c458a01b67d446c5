package baseline_test

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/baseline"
	"github.com/nofreelunch/gadget-planner/internal/baseline/angrop"
	"github.com/nofreelunch/gadget-planner/internal/baseline/ropgadget"
	"github.com/nofreelunch/gadget-planner/internal/baseline/sgc"
	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// idealBin has every template gadget the classic tools need.
func idealBin(t *testing.T) *sbf.Binary {
	t.Helper()
	src := `
    pop rax
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
    mov qword [rdi], rsi
    ret
    syscall
    ret
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x601000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: make([]byte, 256)})
	return bin
}

func TestROPGadgetOnIdealBinary(t *testing.T) {
	res := (&ropgadget.Tool{}).Run(idealBin(t))
	if res.GadgetsTotal == 0 {
		t.Error("no gadgets counted")
	}
	if res.PayloadsFor("execve") != 1 {
		t.Errorf("execve payloads = %d, want 1 (template complete)", res.PayloadsFor("execve"))
	}
	if res.PayloadsFor("mprotect") != 0 {
		t.Error("ROPGadget only builds execve chains")
	}
	if res.GadgetsUsed == 0 {
		t.Error("used gadgets not tracked")
	}
}

func TestROPGadgetFailsWithoutTemplate(t *testing.T) {
	// Remove pop rax: the hard-coded template must fail completely.
	src := "pop rdi; ret; pop rsi; ret; pop rdx; ret; mov qword [rdi], rsi; ret; syscall"
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x601000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: make([]byte, 64)})
	res := (&ropgadget.Tool{}).Run(bin)
	if res.TotalPayloads() != 0 {
		t.Errorf("payloads = %d without pop rax", res.TotalPayloads())
	}
}

func TestAngropOnIdealBinary(t *testing.T) {
	res := (&angrop.Tool{}).Run(idealBin(t))
	if res.PayloadsFor("execve") != 1 {
		t.Errorf("execve = %d", res.PayloadsFor("execve"))
	}
	if res.PayloadsFor("mprotect") != 1 {
		t.Errorf("mprotect = %d", res.PayloadsFor("mprotect"))
	}
	// mmap needs r10: no setter exists.
	if res.PayloadsFor("mmap") != 0 {
		t.Errorf("mmap = %d", res.PayloadsFor("mmap"))
	}
}

func TestSGCOnIdealBinary(t *testing.T) {
	res := (&sgc.Tool{}).Run(idealBin(t))
	if res.PayloadsFor("execve") == 0 {
		t.Error("SGC found no execve chain on the ideal binary")
	}
}

// TestToolOrderingOnCompiledBinary is the Table IV shape: ROPGadget <=
// Angrop <= SGC <= Gadget-Planner on a real compiled, obfuscated program.
func TestToolOrderingOnCompiledBinary(t *testing.T) {
	p, _ := benchprog.ByName("crc")
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	rg := (&ropgadget.Tool{}).Run(bin).TotalPayloads()
	ag := (&angrop.Tool{}).Run(bin).TotalPayloads()
	sg := (&sgc.Tool{}).Run(bin).TotalPayloads()
	if rg > ag || ag > sg {
		t.Errorf("tool ordering violated: RG=%d Angrop=%d SGC=%d", rg, ag, sg)
	}
	if sg == 0 {
		t.Error("SGC found nothing on an obfuscated binary")
	}
	t.Logf("RG=%d Angrop=%d SGC=%d", rg, ag, sg)
}

func TestResultHelpers(t *testing.T) {
	r := &baseline.Result{ToolName: "x"}
	r.Chains = append(r.Chains,
		baseline.Chain{Goal: "execve", Verified: true},
		baseline.Chain{Goal: "execve", Verified: false},
		baseline.Chain{Goal: "mprotect", Verified: true},
	)
	if r.PayloadsFor("execve") != 1 || r.TotalPayloads() != 2 {
		t.Errorf("helpers wrong: %d %d", r.PayloadsFor("execve"), r.TotalPayloads())
	}
}
