package payload

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/subsume"
)

const stackBase = uint64(0x7FFF_8000)

func buildBin(t *testing.T, src string) (*sbf.Binary, *gadget.Pool) {
	t.Helper()
	r, err := asm.Assemble(src, 0x401000)
	if err != nil {
		t.Fatal(err)
	}
	bin := sbf.New()
	bin.AddSection(sbf.Section{
		Name: ".text", Addr: 0x401000, Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code,
	})
	pool := gadget.Extract(bin, gadget.Options{})
	min, _ := subsume.Minimize(pool, subsume.Options{})
	return bin, min
}

// endToEnd plans, concretizes and emulator-verifies a goal against a gadget
// corpus, returning the verified payload.
func endToEnd(t *testing.T, src string, goal planner.Goal) *Payload {
	t.Helper()
	bin, pool := buildBin(t, src)
	conc := NewConcretizer(pool, bin, stackBase)
	var got *Payload
	res := planner.Search(pool, goal, planner.Options{
		MaxPlans: 1,
		Validate: func(p *planner.Plan) bool {
			pl, err := conc.Concretize(p, goal)
			if err != nil {
				t.Logf("concretize rejected plan %s: %v", p, err)
				return false
			}
			if err := Verify(bin, pl, 0); err != nil {
				t.Logf("verify rejected plan %s: %v", p, err)
				return false
			}
			got = pl
			return true
		},
	})
	if len(res.Plans) == 0 || got == nil {
		t.Fatalf("no verified payload (expanded=%d rejected=%d)", res.Expanded, res.Rejected)
	}
	return got
}

const classicGadgets = `
    pop rax
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
    pop r10
    ret
    syscall
`

func TestExecveEndToEnd(t *testing.T) {
	p := endToEnd(t, classicGadgets, planner.ExecveGoal())
	if len(p.Bytes) == 0 {
		t.Fatal("empty payload")
	}
	if !strings.Contains(string(p.Bytes), "/bin/sh\x00") {
		t.Error("payload does not embed /bin/sh")
	}
	if p.Dump() == "" {
		t.Error("empty dump")
	}
}

func TestMprotectEndToEnd(t *testing.T) {
	// The binary needs a writable page at the mprotect target.
	src := classicGadgets
	bin, pool := buildBin(t, src)
	bin.AddSection(sbf.Section{
		Name: ".data", Addr: 0x601000, Flags: sbf.FlagRead | sbf.FlagWrite,
		Data: make([]byte, 0x1000),
	})
	goal := planner.MprotectGoal()
	conc := NewConcretizer(pool, bin, stackBase)
	verified := false
	planner.Search(pool, goal, planner.Options{
		MaxPlans: 1,
		Validate: func(p *planner.Plan) bool {
			pl, err := conc.Concretize(p, goal)
			if err != nil {
				return false
			}
			if err := Verify(bin, pl, 0); err != nil {
				return false
			}
			verified = true
			return true
		},
	})
	if !verified {
		t.Fatal("no verified mprotect payload")
	}
}

func TestMmapEndToEnd(t *testing.T) {
	endToEnd(t, classicGadgets, planner.MmapGoal())
}

func TestJOPChainEndToEnd(t *testing.T) {
	// rdi only settable via a jmp-register gadget: the planner must route
	// control through rax.
	src := `
    pop rax
    ret
    pop rdi
    jmp rax
    pop rsi
    ret
    pop rdx
    ret
    syscall
`
	p := endToEnd(t, src, planner.ExecveGoal())
	hasJOP := false
	for _, g := range p.Chain {
		if g.JmpType == gadget.TypeUIJ {
			hasJOP = true
		}
	}
	if !hasJOP {
		t.Errorf("chain avoids the mandatory JOP gadget: %v", p.Chain)
	}
}

func TestConditionalChainEndToEnd(t *testing.T) {
	// rsi only settable through a gadget whose tail is guarded by a
	// conditional jump requiring rcx == rbx (Fig. 4(b) shape): starting
	// after the pop skips the rsi effect, so every rsi producer carries the
	// condition. The planner must arrange the equality.
	src := `
    pop rax
    ret
    pop rdi
    ret
    pop rsi
    cmp rcx, rbx
    jne trap
    ret
trap:
    hlt
    pop rdx
    ret
    pop rcx
    ret
    pop rbx
    ret
    syscall
`
	p := endToEnd(t, src, planner.ExecveGoal())
	hasCond := false
	for _, g := range p.Chain {
		if g.HasCond {
			hasCond = true
		}
	}
	if !hasCond {
		t.Errorf("chain avoids the conditional gadget: %v", p.Chain)
	}
}

func TestMergedGadgetChain(t *testing.T) {
	// rdx only settable via a gadget split across a direct jump (the Fig. 6
	// situation: no "pop rdx; ret" exists as a contiguous sequence).
	src := `
    pop rax
    ret
    pop rdi
    ret
    pop rsi
    ret
half:
    pop rdx
    jmp fin
    hlt
fin:
    ret
    syscall
`
	p := endToEnd(t, src, planner.ExecveGoal())
	hasMerged := false
	for _, g := range p.Chain {
		if g.Merged {
			hasMerged = true
		}
	}
	if !hasMerged {
		t.Errorf("chain avoids the merged gadget: %v", p.Chain)
	}
}

func TestSideEffectGadgets(t *testing.T) {
	// Gadgets with extra pops force the concretizer to lay out skipped
	// payload slots correctly.
	src := `
    pop rax
    pop rbp
    ret
    pop rdi
    pop r11
    ret
    pop rsi
    ret
    pop rdx
    ret
    syscall
`
	endToEnd(t, src, planner.ExecveGoal())
}

func TestConcretizeRejectsUncontrolled(t *testing.T) {
	// A chain whose only rax producer copies from an uncontrolled register
	// with no upstream setter must fail concretization.
	src := `
    mov rax, r15
    ret
    pop rdi
    ret
    pop rsi
    ret
    pop rdx
    ret
    syscall
`
	bin, pool := buildBin(t, src)
	_ = bin
	goal := planner.ExecveGoal()
	conc := NewConcretizer(pool, bin, stackBase)
	sawUncontrolled := false
	res := planner.Search(pool, goal, planner.Options{
		MaxPlans: 1,
		Validate: func(p *planner.Plan) bool {
			_, err := conc.Concretize(p, goal)
			if errors.Is(err, ErrUncontrolled) {
				sawUncontrolled = true
			}
			return err == nil
		},
	})
	// Either the planner already regresses to r15 (needing a setter that
	// does not exist -> no plans), or concretization catches it.
	if len(res.Plans) != 0 && !sawUncontrolled {
		t.Error("uncontrolled dependency not detected")
	}
}

// TestPayloadSlotsHoldChainAddresses checks that values the constraints
// fix reach the payload bytes: the first gadget's address in Bytes[0:8]
// and execve's syscall number in a popped slot.
func TestPayloadSlotsHoldChainAddresses(t *testing.T) {
	p := endToEnd(t, classicGadgets, planner.ExecveGoal())
	slot := func(off int) uint64 { return binary.LittleEndian.Uint64(p.Bytes[off:]) }
	if slot(0) != p.Entry {
		t.Errorf("payload[0] = %#x, entry = %#x", slot(0), p.Entry)
	}
	found := false
	for off := 8; off+8 <= len(p.Bytes); off += 8 {
		found = found || slot(off) == 59
	}
	if !found {
		t.Errorf("no payload slot holds execve's number 59:\n%s", p.Dump())
	}
}

func TestVerifyRejectsCorruptPayload(t *testing.T) {
	bin, pool := buildBin(t, classicGadgets)
	goal := planner.ExecveGoal()
	conc := NewConcretizer(pool, bin, stackBase)
	var pl *Payload
	planner.Search(pool, goal, planner.Options{
		MaxPlans: 1,
		Validate: func(p *planner.Plan) bool {
			var err error
			pl, err = conc.Concretize(p, goal)
			return err == nil
		},
	})
	if pl == nil {
		t.Fatal("no payload")
	}
	// Sanity: it verifies intact.
	if err := Verify(bin, pl, 0); err != nil {
		t.Fatalf("intact payload fails: %v", err)
	}
	// Corrupt the syscall-number slot region: flip payload bytes.
	bad := &Payload{Bytes: append([]byte(nil), pl.Bytes...), Base: pl.Base, Entry: pl.Entry, Chain: pl.Chain, Goal: pl.Goal}
	for i := 8; i < len(bad.Bytes); i++ {
		bad.Bytes[i] ^= 0xFF
	}
	if err := Verify(bin, bad, 0); err == nil {
		t.Error("corrupt payload verified")
	}
}
