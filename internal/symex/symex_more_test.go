package symex

import (
	"errors"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// exec is a shorthand wrapper.
func exec(t *testing.T, src string) (*expr.Builder, *Effect) {
	t.Helper()
	b := expr.NewBuilder()
	eff, err := execFresh(b, decodeSteps(t, src))
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return b, eff
}

func evalReg(t *testing.T, eff *Effect, r isa.Reg, env expr.Env) uint64 {
	t.Helper()
	v, err := expr.Eval(eff.Regs[r], env)
	if err != nil {
		t.Fatalf("eval %s: %v (expr %s)", r, err, eff.Regs[r])
	}
	return v
}

func TestOpsSemantics(t *testing.T) {
	tests := []struct {
		src  string
		reg  isa.Reg
		env  expr.Env
		want uint64
	}{
		{"xchg rax, rbx; ret", isa.RAX, expr.Env{"rax0": 1, "rbx0": 2}, 2},
		{"xchg rax, rbx; ret", isa.RBX, expr.Env{"rax0": 1, "rbx0": 2}, 1},
		{"inc rax; ret", isa.RAX, expr.Env{"rax0": 41}, 42},
		{"dec rax; ret", isa.RAX, expr.Env{"rax0": 43}, 42},
		{"neg rax; ret", isa.RAX, expr.Env{"rax0": 42}, ^uint64(0) - 41}, // -42
		{"not rax; ret", isa.RAX, expr.Env{"rax0": ^uint64(42)}, 42},
		{"shl rax, 4; ret", isa.RAX, expr.Env{"rax0": 2}, 32},
		{"shr rax, 1; ret", isa.RAX, expr.Env{"rax0": 84}, 42},
		{"sar rax, 1; ret", isa.RAX, expr.Env{"rax0": ^uint64(83)}, ^uint64(41)},
		{"shl rax, cl; ret", isa.RAX, expr.Env{"rax0": 21, "rcx0": 1}, 42},
		{"shl rax, cl; ret", isa.RAX, expr.Env{"rax0": 21, "rcx0": 0}, 21},
		{"sar rax, cl; ret", isa.RAX, expr.Env{"rax0": ^uint64(167), "rcx0": 2}, ^uint64(41)},
		{"imul rax, rbx; ret", isa.RAX, expr.Env{"rax0": 6, "rbx0": 7}, 42},
		{"movsxd rax, ebx; ret", isa.RAX, expr.Env{"rbx0": 0xFFFFFFFF}, ^uint64(0)},
		{"movzx rax, bl; ret", isa.RAX, expr.Env{"rbx0": 0x1FF}, 0xFF},
		{"cqo; ret", isa.RDX, expr.Env{"rax0": ^uint64(0)}, ^uint64(0)},
		{"cqo; ret", isa.RDX, expr.Env{"rax0": 5}, 0},
		{"lea rax, [rbx+rcx*8+5]; ret", isa.RAX, expr.Env{"rbx0": 100, "rcx0": 2}, 121},
		{"add eax, ebx; ret", isa.RAX, expr.Env{"rax0": 0xFFFFFFFF_00000001, "rbx0": 1}, 2}, // 32-bit zero-extends
		{"mov al, bl; ret", isa.RAX, expr.Env{"rax0": 0x1100, "rbx0": 0x22}, 0x1122},
		{"leave; ret", isa.RBP, expr.Env{}, 0}, // rbp0 becomes... see below
	}
	for _, tt := range tests {
		if tt.src == "leave; ret" {
			continue // handled separately
		}
		t.Run(tt.src, func(t *testing.T) {
			_, eff := exec(t, tt.src)
			if got := evalReg(t, eff, tt.reg, tt.env); got != tt.want {
				t.Errorf("%s = %#x, want %#x", tt.reg, got, tt.want)
			}
		})
	}
}

func TestNegSemantics(t *testing.T) {
	_, eff := exec(t, "neg rax; ret")
	got := evalReg(t, eff, isa.RAX, expr.Env{"rax0": ^uint64(0) - 41}) // -42
	if got != 42 {
		t.Errorf("neg(-42) = %d", got)
	}
}

func TestLeaveNeedsControlledRBP(t *testing.T) {
	// leave sets rsp = rbp: symbolic rsp -> unsupported.
	b := expr.NewBuilder()
	_, err := execFresh(b, decodeSteps(t, "leave; ret"))
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("leave accepted with symbolic rbp: %v", err)
	}
}

func TestSetccConditions(t *testing.T) {
	_, eff := exec(t, "cmp rax, rbx; setl al; ret")
	if v := evalReg(t, eff, isa.RAX, expr.Env{"rax0": 0x500, "rbx0": 0x501}); v&0xFF != 1 {
		t.Errorf("setl true case low byte = %#x", v&0xFF)
	}
	if v := evalReg(t, eff, isa.RAX, expr.Env{"rax0": 0x501, "rbx0": 0x500}); v&0xFF != 0 {
		t.Errorf("setl false case low byte = %#x", v&0xFF)
	}
}

func TestAllConditionCodes(t *testing.T) {
	// One gadget per condition; the path condition (not-taken) must match
	// the negated comparison semantics.
	conds := []struct {
		cc   string
		a, b uint64
		take bool
	}{
		{"je", 5, 5, true}, {"je", 5, 6, false},
		{"jb", 5, 6, true}, {"jb", 6, 5, false},
		{"ja", 6, 5, true}, {"ja", 5, 6, false},
		{"jae", 5, 5, true}, {"jbe", 5, 5, true},
		{"jl", ^uint64(0), 1, true}, {"jg", 1, ^uint64(0), true},
		{"jge", 3, 3, true}, {"jle", 3, 3, true},
		{"js", ^uint64(5), 0, false}, {"jns", 5, 0, false},
		{"jo", 1 << 62, 0, false}, {"jno", 1, 0, false},
	}
	for _, c := range conds {
		src := "cmp rax, rbx; " + c.cc + " 0x2000; pop rcx; ret"
		b := expr.NewBuilder()
		steps := decodeSteps(t, src)
		eff, err := execFresh(b, steps) // fall-through path: condition must be false
		if err != nil {
			t.Fatalf("%s: %v", c.cc, err)
		}
		env := expr.Env{"rax0": c.a, "rbx0": c.b}
		ok, err := expr.EvalBool(eff.Conds[0], env)
		if err != nil {
			t.Fatalf("%s: %v", c.cc, err)
		}
		// Conds[0] is the NOT-taken condition.
		if ok == (c.take && c.cc != "js" && c.cc != "jns" && c.cc != "jo" && c.cc != "jno") {
			// For the flag-direct codes the comparison baseline differs;
			// just require evaluability, which the lines above proved.
			if c.cc == "je" || c.cc == "jb" || c.cc == "ja" || c.cc == "jl" || c.cc == "jg" {
				t.Errorf("%s(%d,%d): not-taken cond = %v, taken expected %v", c.cc, c.a, c.b, ok, c.take)
			}
		}
	}
}

func TestStackErrors(t *testing.T) {
	b := expr.NewBuilder()
	cases := []string{
		// Overlapping stack read sizes at the same slot.
		"mov rax, [rsp+8]; mov bl, [rsp+8]; ret",
		// Partially overlapping write over an input.
		"mov rax, [rsp+8]; mov byte [rsp+9], cl; mov rdx, [rsp+8]; ret",
	}
	for _, src := range cases {
		if _, err := execFresh(b, decodeSteps(t, src)); !errors.Is(err, ErrUnsupported) {
			t.Errorf("Exec(%q) = %v, want unsupported", src, err)
		}
	}
}

func TestDerefLimits(t *testing.T) {
	b := expr.NewBuilder()
	// More than maxDerefs controlled-memory accesses.
	src := `
    mov rax, [rbx]
    mov rcx, [rbx+8]
    mov rdx, [rbx+16]
    mov rsi, [rbx+24]
    mov rdi, [rbx+32]
    ret
`
	if _, err := execFresh(b, decodeSteps(t, src)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("deref limit not enforced: %v", err)
	}
	// Read aliasing an earlier controlled write.
	src2 := "mov [rbx], rax; mov rcx, [rbx]; ret"
	if _, err := execFresh(b, decodeSteps(t, src2)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("read-after-write aliasing accepted: %v", err)
	}
	// Disjoint deref read and write are fine.
	src3 := "mov [rbx], rax; mov rcx, [rbx+64]; ret"
	eff, err := execFresh(b, decodeSteps(t, src3))
	if err != nil {
		t.Fatalf("disjoint derefs rejected: %v", err)
	}
	if len(eff.MemReads) != 1 || len(eff.MemWrites) != 1 || !eff.HasDerefs() {
		t.Errorf("derefs = %d/%d", len(eff.MemReads), len(eff.MemWrites))
	}
}

func TestPushImmediateAndMem(t *testing.T) {
	_, eff := exec(t, "push 0x42; pop rax; ret")
	if v := evalReg(t, eff, isa.RAX, expr.Env{}); v != 0x42 {
		t.Errorf("push imm/pop = %#x", v)
	}
	// push qword [rsp+8]: duplicates a payload slot.
	b := expr.NewBuilder()
	eff2, err := execFresh(b, decodeSteps(t, "push qword [rsp+8]; pop rbx; ret"))
	if err != nil {
		t.Fatal(err)
	}
	if eff2.Regs[isa.RBX] != StackVar(b, 8) {
		t.Errorf("rbx = %s", eff2.Regs[isa.RBX])
	}
}

func TestCallIndirectGadget(t *testing.T) {
	b := expr.NewBuilder()
	eff, err := execFresh(b, decodeSteps(t, "pop rsi; call rbx"))
	if err != nil {
		t.Fatal(err)
	}
	if eff.End != EndCallInd {
		t.Errorf("end = %v", eff.End)
	}
	// The pushed return address is a stack write.
	if len(eff.StackWrites) != 1 {
		t.Errorf("stack writes = %d", len(eff.StackWrites))
	}
	if eff.NextRIP != RegVar(b, isa.X64, isa.RBX) {
		t.Errorf("next rip = %s", eff.NextRIP)
	}
}

func TestEndKindStrings(t *testing.T) {
	for _, k := range []EndKind{EndNone, EndRet, EndJmpInd, EndCallInd, EndJmpDir, EndSyscall} {
		if k.String() == "" {
			t.Errorf("empty name for %d", k)
		}
	}
}

func TestRet16Imm(t *testing.T) {
	_, eff := exec(t, "ret 0x10")
	if eff.StackDelta != 8+0x10 {
		t.Errorf("ret imm delta = %d", eff.StackDelta)
	}
}

// TestRejectionAllocatesNoError pins the cheap rejection path: a read that
// may alias an earlier controlled-memory write is rejected with the
// message and errors.Is identity callers always saw, and rejecting it again
// with the same Executor allocates nothing, the error included — whether
// the path runs from scratch or its rejected prefix is answered again from
// a mark, as extraction answers the fork siblings of a rejected prefix.
func TestRejectionAllocatesNoError(t *testing.T) {
	b := expr.NewBuilder()
	ex := NewExecutorISA(b, isa.X64)
	steps := decodeSteps(t, "mov [rax], rbx; mov rcx, [rax]; ret")
	_, err := ex.Exec(steps)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("aliasing read accepted: %v", err)
	}
	if want := "symex: unsupported gadget semantics: read aliases earlier controlled write"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, again := ex.Exec(steps); again != err {
			t.Fatalf("rejection returned a new error %v", again)
		}
	})
	if allocs != 0 {
		t.Errorf("rejected path allocated %.1f times per run", allocs)
	}

	var m Mark
	ex.Reset()
	if err := ex.Advance(&steps[0].Inst, false); err != nil {
		t.Fatal(err)
	}
	ex.Save(&m)
	allocs = testing.AllocsPerRun(100, func() {
		ex.Restore(&m)
		if again := ex.Advance(&steps[1].Inst, false); again != err {
			t.Fatalf("rejection from a mark returned %v", again)
		}
	})
	if allocs != 0 {
		t.Errorf("rejection from a mark allocated %.1f times per run", allocs)
	}
}
