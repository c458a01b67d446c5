package subsume

import (
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/gadget"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

// poolFrom builds a gadget pool by extracting from assembled code placed at
// distinct addresses (one section per snippet so offsets do not interfere).
func poolFrom(t *testing.T, snippets ...string) *gadget.Pool {
	t.Helper()
	bin := sbf.New()
	base := uint64(0x10000)
	for i, src := range snippets {
		r, err := asm.Assemble(src, base)
		if err != nil {
			t.Fatalf("snippet %d: %v", i, err)
		}
		bin.AddSection(sbf.Section{
			Name: ".text" + strings.Repeat("x", i), Addr: base,
			Flags: sbf.FlagRead | sbf.FlagExec, Data: r.Code,
		})
		base += 0x10000
	}
	return gadget.Extract(bin, gadget.Options{})
}

func render(p *gadget.Pool) []string {
	var out []string
	for _, g := range p.Gadgets {
		out = append(out, g.String())
	}
	return out
}

func countContaining(p *gadget.Pool, frag string) int {
	n := 0
	for _, g := range p.Gadgets {
		if strings.Contains(g.String(), frag) {
			n++
		}
	}
	return n
}

func TestRemovesDuplicateGadgets(t *testing.T) {
	// The same gadget at two different addresses: one copy survives.
	pool := poolFrom(t, "pop rdi; ret", "pop rdi; ret")
	if got := countContaining(pool, "pop rdi"); got != 2 {
		t.Fatalf("expected 2 pop rdi gadgets before, got %d", got)
	}
	min, stats := Minimize(pool, Options{})
	if got := countContaining(min, "pop rdi"); got != 1 {
		t.Errorf("expected 1 pop rdi gadget after, got %d: %v", got, render(min))
	}
	if stats.RemovedIdent == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Before <= stats.After {
		t.Errorf("no reduction: %+v", stats)
	}
	if stats.ReductionFactor() <= 1 {
		t.Errorf("reduction factor = %f", stats.ReductionFactor())
	}
}

func TestFoldsSemanticallyIdenticalViaBuilder(t *testing.T) {
	// xor rax, rax and mov rax, 0 both simplify to the constant 0.
	pool := poolFrom(t, "xor rax, rax; ret", "mov rax, 0; ret")
	min, _ := Minimize(pool, Options{})
	n := 0
	for _, g := range min.Gadgets {
		if v, err := expr.Eval(g.Effect.Regs[isa.RAX], expr.Env{"rax0": 77}); err == nil && v == 0 &&
			g.Effect.End == symex.EndRet && g.Effect.StackDelta == 8 && len(g.ClobRegs) == 1 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("rax-zeroing ret gadgets after minimize = %d, want 1\n%v", n, render(min))
	}
}

func TestSolverProvedEquivalence(t *testing.T) {
	// lea rax,[rax+rax] vs shl rax,1: structurally different expressions,
	// semantically equal; only the solver can merge them.
	pool := poolFrom(t, "lea rax, [rax+rax*1]; ret", "shl rax, 1; ret")
	min, stats := Minimize(pool, Options{})
	n := 0
	for _, g := range min.Gadgets {
		// Use a high-bit probe so 32-bit lookalikes do not match.
		if v, err := expr.Eval(g.Effect.Regs[isa.RAX], expr.Env{"rax0": 1 << 62}); err == nil &&
			v == 1<<63 && g.Effect.StackDelta == 8 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("doubling gadgets after minimize = %d, want 1\n%v", n, render(min))
	}
	if stats.RemovedProved == 0 {
		t.Errorf("expected a solver-proved removal: %+v", stats)
	}
}

func TestKeepsWeakerPrecondition(t *testing.T) {
	// Conditional variant (pre: rdx==rbx) of pop rax is subsumed by the
	// unconditional one.
	condSrc := `
    cmp rdx, rbx
    jne 0x90000
    pop rax
    ret
`
	pool := poolFrom(t, condSrc, "pop rax; ret")
	min, _ := Minimize(pool, Options{})
	// Find surviving gadgets that control rax and end ret with delta 16.
	var both []*gadget.Gadget
	for _, g := range min.Gadgets {
		if len(g.CtrlRegs) == 1 && g.CtrlRegs[0] == isa.RAX && g.Effect.End == symex.EndRet {
			both = append(both, g)
		}
	}
	// The conditional and unconditional variants have different stack deltas
	// is false: both pop once + ret (16). The unconditional one must win.
	for _, g := range both {
		if g.Effect.StackDelta == 16 && len(g.Effect.Conds) > 0 {
			t.Errorf("conditional variant survived alongside unconditional: %s", g)
		}
	}
}

func TestDistinctGadgetsKept(t *testing.T) {
	pool := poolFrom(t, "pop rdi; ret", "pop rsi; ret", "pop rdx; ret")
	min, _ := Minimize(pool, Options{})
	for _, frag := range []string{"pop rdi", "pop rsi", "pop rdx"} {
		if got := countContaining(min, frag); got != 1 {
			t.Errorf("%s count = %d, want 1", frag, got)
		}
	}
}

func TestIndexesRebuilt(t *testing.T) {
	pool := poolFrom(t, "pop rdi; ret", "pop rdi; ret")
	min, _ := Minimize(pool, Options{})
	if len(min.ByReg[isa.RDI]) == 0 {
		t.Error("ByReg index empty after minimize")
	}
	for i, g := range min.Gadgets {
		if g.ID != i {
			t.Errorf("gadget %d has ID %d", i, g.ID)
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	pool := poolFrom(t, "pop rdi; add rax, rbx; ret")
	var f fingerprinter
	for _, g := range pool.Gadgets {
		f1 := f.fingerprint(g, 4)
		f2 := new(fingerprinter).fingerprint(g, 4)
		if f1 != f2 {
			t.Fatalf("fingerprint not deterministic for %s", g)
		}
	}
}

// TestFingerprintPinned pins fingerprint values, so a change to how they
// are computed cannot move them, with one fingerprinter serving every
// gadget as in Minimize.
func TestFingerprintPinned(t *testing.T) {
	want := map[string]uint64{
		"0x10000: pop rdi; add rax, rbx; ret;":             0x557877cc788a9560,
		"0x10001: add rax, rbx; ret;":                      0x10d658fb2c00e06d,
		"0x10004: ret;":                                    0x044b30980f87883c,
		"0x20000: mov rax, qword [rsp+0x8]; pop rsi; ret;": 0xfe67a0a695d08015,
		"0x20005: pop rsi; ret;":                           0x49108bcf531b7838,
	}
	pool := poolFrom(t, "pop rdi; add rax, rbx; ret", "mov rax, [rsp+8]; pop rsi; ret")
	var f fingerprinter
	for _, g := range pool.Gadgets {
		if w, ok := want[g.String()]; ok {
			if got := f.fingerprint(g, 4); got != w {
				t.Errorf("%s: fingerprint %#x, want %#x", g, got, w)
			}
			delete(want, g.String())
		}
	}
	for s := range want {
		t.Errorf("gadget %q missing", s)
	}
}

// TestFingerprintAllocsFlat pins fingerprint's allocations to the gadget,
// not to how many of its effect's nodes are evaluated: 64 registers
// holding the same expression must allocate no more than one does. An
// evaluation memo or environment made per node or per round grows with
// the count and fails this.
func TestFingerprintAllocsFlat(t *testing.T) {
	b := expr.NewBuilder()
	x, y := b.Var("x", 64, expr.RoleOther, 0), b.Var("y", 64, expr.RoleOther, 0)
	e := x
	for i := 0; i < 20; i++ {
		e = b.Add(b.Xor(e, y), b.Const(uint64(i), 64))
	}
	allocs := func(regs int) float64 {
		g := &gadget.Gadget{Effect: &symex.Effect{Regs: make([]*expr.Node, regs), NextRIP: e}}
		for r := range g.Effect.Regs {
			g.Effect.Regs[r] = e
		}
		var f fingerprinter
		return testing.AllocsPerRun(20, func() { f.fingerprint(g, 4) })
	}
	if one, many := allocs(1), allocs(64); many > one {
		t.Errorf("fingerprint allocates %.0f objects with 64 registers, %.0f with 1", many, one)
	}
}

func TestFingerprintSeparates(t *testing.T) {
	pool := poolFrom(t, "pop rdi; ret", "pop rsi; ret")
	var a, b *gadget.Gadget
	for _, g := range pool.Gadgets {
		if strings.Contains(g.String(), "pop rdi") {
			a = g
		}
		if strings.Contains(g.String(), "pop rsi") {
			b = g
		}
	}
	if a == nil || b == nil {
		t.Fatal("gadgets missing")
	}
	var f fingerprinter
	if f.fingerprint(a, 4) == f.fingerprint(b, 4) {
		t.Error("different gadgets share a fingerprint")
	}
}

func TestSyscallGadgetsSurvive(t *testing.T) {
	pool := poolFrom(t, "syscall", "pop rax; syscall")
	min, _ := Minimize(pool, Options{})
	if len(min.Syscalls) == 0 {
		t.Error("syscall gadgets lost in minimization")
	}
}
