package sgc

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/benchprog"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

func TestSelectionExcludesCondAndMerged(t *testing.T) {
	// A binary where rsi is reachable both via a plain pop and via a
	// conditional gadget: SGC's selection must keep the pool free of
	// conditional and merged gadgets entirely.
	src := `
    pop rax
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
half:
    pop rbx
    jmp fin
    hlt
fin:
    ret
    cmp rcx, rbx
    jne 0x90000
    pop rcx
    ret
    syscall
`
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code})
	res := (&Tool{}).Run(bin)
	if res.TotalPayloads() == 0 {
		t.Fatal("SGC found nothing despite a complete pop set")
	}
	for _, c := range res.Chains {
		for _, g := range c.Gadgets {
			if g.HasCond || g.Merged {
				t.Errorf("SGC chain uses excluded class: %s", g)
			}
		}
	}
}

func TestOrderingAgainstGadgetPlannerPool(t *testing.T) {
	// SGC's pool restriction makes it strictly weaker than the full pool
	// would allow on an obfuscated binary rich in conditional paths.
	p, _ := benchprog.ByName("fibonacci")
	bin, err := benchprog.BuildISA(p, obfuscate.LLVMObf(), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	res := (&Tool{MaxPlans: 4, MaxNodes: 3000}).Run(bin)
	if res.GadgetsTotal == 0 {
		t.Error("no gadgets collected")
	}
	full := gadget.Extract(bin, gadget.Options{})
	kept := 0
	for _, g := range full.Gadgets {
		if !g.HasCond && !g.Merged {
			kept++
		}
	}
	if kept >= full.Size() {
		t.Skip("binary has no excluded classes; nothing to compare")
	}
	t.Logf("payloads=%d from restricted pool %d/%d", res.TotalPayloads(), kept, full.Size())
}
