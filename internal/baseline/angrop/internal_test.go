package angrop

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

func TestClassification(t *testing.T) {
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

	pool := gadget.Extract(bin, gadget.Options{MaxInsts: 8, MaxForks: 1, MaxMerges: 1})
	nSetters, nWriters, nAnchors := 0, 0, 0
	for _, g := range pool.Gadgets {
		eff := g.Effect
		if g.HasCond || g.Merged || len(eff.Conds) > 0 {
			continue
		}
		switch eff.End {
		case symex.EndSyscall:
			if !eff.HasDerefs() {
				nAnchors++
			}
		case symex.EndRet:
			if !eff.HasDerefs() && len(g.CtrlRegs) > 0 {
				nSetters++
			}
			if len(eff.MemWrites) == 1 && len(eff.MemReads) == 0 {
				w := eff.MemWrites[0]
				aReg, okA := symex.EntryReg(w.Addr)
				vReg, okV := symex.EntryReg(w.Val)
				t.Logf("writer candidate %s: addr=%s(%v %v) val=%s(%v %v) size=%d aligned=%v",
					g, w.Addr, aReg, okA, w.Val, vReg, okV, w.Size, alignedInputs(eff))
				nWriters++
			}
		}
	}
	t.Logf("setters=%d writers=%d anchors=%d", nSetters, nWriters, nAnchors)
	if nSetters == 0 || nAnchors == 0 {
		t.Error("classification found nothing")
	}
	_ = isa.RAX
}

func TestRunOnGadgetRichBinary(t *testing.T) {
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
	r, _ := asm.Assemble(src, 0x401000)
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	bin.AddSection(sbf.Section{Name: ".data", Addr: 0x601000, Flags: sbf.FlagRead | sbf.FlagWrite, Data: make([]byte, 256)})
	res := (&Tool{}).Run(bin)
	if res.PayloadsFor("execve") != 1 || res.PayloadsFor("mprotect") != 1 {
		t.Errorf("execve=%d mprotect=%d, want 1/1",
			res.PayloadsFor("execve"), res.PayloadsFor("mprotect"))
	}
	for _, c := range res.Chains {
		if c.Verified && len(c.Gadgets) == 0 {
			t.Error("verified chain without gadgets")
		}
	}
}
