package asm

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// TestX64ProgAssemble checks one-pass layout: forward and backward label
// references in operands A and B, label slots, literal data, alignment
// padding and extern symbols all land at the addresses a decode of the
// output reports.
func TestX64ProgAssemble(t *testing.T) {
	const base = 0x10000
	call := isa.Inst{Op: isa.OpCall, A: isa.ImmOp(0)}
	jmp := isa.Inst{Op: isa.OpJmp, A: isa.ImmOp(0)}
	jne := isa.Inst{Op: isa.OpJcc, Cond: isa.CondNE, A: isa.ImmOp(0)}
	movabs := func(r isa.Reg) isa.Inst {
		return isa.Inst{Op: isa.OpMov, Size: 8, A: isa.RegOp(r), B: isa.ImmOp(0)}
	}

	p := NewX64Prog(base)
	p.Label("start")
	p.InstRef(call, "fn")                 // +0, forward
	p.InstRefB(movabs(isa.RAX), "table")  // +5, forward
	p.InstRefB(movabs(isa.RCX), "global") // +12, extern
	p.InstRef(jne, "start")               // +19, backward
	p.Inst(isa.Inst{Op: isa.OpRet})       // +25
	p.Label("fn")                         // +26
	p.InstRef(jmp, "start")               // +26, backward
	p.Bytes([]byte{1, 2, 3, 4, 5})        // +31
	p.Align(16)                           // +36..+48
	p.Label("table")
	p.QuadLabel("fn")
	p.QuadLabel("global")
	res, err := p.Assemble(map[string]uint64{"global": 0x200010, "fn": 0xdead})
	if err != nil {
		t.Fatal(err)
	}

	fn, table := uint64(base+26), uint64(base+48)
	if res.Labels["start"] != base || res.Labels["fn"] != fn || res.Labels["table"] != table {
		t.Fatalf("labels = %v", res.Labels)
	}
	if res.Labels["global"] != 0x200010 {
		t.Errorf("extern global = %#x", res.Labels["global"])
	}
	if len(res.Code) != 64 {
		t.Fatalf("code is %d bytes, want 64", len(res.Code))
	}
	dec := func(off int, want isa.Op) isa.Inst {
		t.Helper()
		in, err := isa.Decode(res.Code[off:], base+uint64(off))
		if err != nil {
			t.Fatalf("decode at +%d: %v", off, err)
		}
		if in.Op != want {
			t.Fatalf("+%d: %v, want %v", off, in, want)
		}
		return in
	}
	if in := dec(0, isa.OpCall); uint64(in.A.Imm) != fn {
		t.Errorf("+0: %v, want call %#x", in, fn)
	}
	if in := dec(5, isa.OpMov); in.A.Reg != isa.RAX || uint64(in.B.Imm) != table {
		t.Errorf("+5: %v, want mov rax, %#x", in, table)
	}
	if in := dec(12, isa.OpMov); in.A.Reg != isa.RCX || uint64(in.B.Imm) != 0x200010 {
		t.Errorf("+12: %v, want mov rcx, 0x200010", in)
	}
	if in := dec(19, isa.OpJcc); in.Cond != isa.CondNE || uint64(in.A.Imm) != base {
		t.Errorf("+19: %v, want jne %#x", in, base)
	}
	dec(25, isa.OpRet)
	if in := dec(26, isa.OpJmp); uint64(in.A.Imm) != base {
		t.Errorf("+26: %v, want jmp %#x", in, base)
	}
	if got := res.Code[31:36]; string(got) != "\x01\x02\x03\x04\x05" {
		t.Errorf("data = %v", got)
	}
	for off := 36; off < 48; off++ {
		dec(off, isa.OpNop)
	}
	if got := binary.LittleEndian.Uint64(res.Code[48:]); got != fn {
		t.Errorf("label slot = %#x, want program label fn %#x (shadowing extern)", got, fn)
	}
	if got := binary.LittleEndian.Uint64(res.Code[56:]); got != 0x200010 {
		t.Errorf("label slot = %#x, want extern global 0x200010", got)
	}
}

// TestX64ProgErrors checks each error keeps its message, that the first
// error in program order wins whether it is found while appending or while
// patching, and that the text front end prefixes its source line.
func TestX64ProgErrors(t *testing.T) {
	jmp := isa.Inst{Op: isa.OpJmp, A: isa.ImmOp(0)}
	movabs := isa.Inst{Op: isa.OpMov, Size: 8, A: isa.RegOp(isa.RAX), B: isa.ImmOp(0)}
	bad := isa.Inst{Op: isa.OpMov, Size: 2, A: isa.RegOp(isa.RAX), B: isa.RegOp(isa.RCX)}
	cases := []struct {
		name  string
		build func(p *X64Prog)
		want  string
	}{
		{"duplicate", func(p *X64Prog) { p.Label("a"); p.Label("a") }, `asm: duplicate label "a"`},
		{"undefined", func(p *X64Prog) { p.InstRef(jmp, "nowhere") }, `asm: undefined label "nowhere"`},
		{"undefined-b", func(p *X64Prog) { p.InstRefB(movabs, "nowhere") }, `asm: undefined label "nowhere"`},
		{"undefined-quad", func(p *X64Prog) { p.QuadLabel("nowhere") }, `asm: undefined label "nowhere"`},
		{"encode", func(p *X64Prog) { p.Inst(bad) }, "asm: x64 at 0x1000: isa: cannot encode mov"},
		// The placeholder encodes mov rax, imm32 (7 bytes); the label's
		// real address needs movabs (10 bytes).
		{"length", func(p *X64Prog) { p.InstRefB(movabs, "far") },
			`asm: label "far" at 0x100000000 changes the instruction at 0x1000 from 7 to 10 bytes`},
		// Program order across the two phases.
		{"ref-then-dup", func(p *X64Prog) {
			p.InstRef(jmp, "nowhere")
			p.Label("a")
			p.Label("a")
		}, `asm: undefined label "nowhere"`},
		{"dup-then-ref", func(p *X64Prog) {
			p.Label("a")
			p.Label("a")
			p.InstRef(jmp, "nowhere")
		}, `asm: duplicate label "a"`},
		{"encode-then-ref", func(p *X64Prog) {
			p.Inst(bad)
			p.InstRef(jmp, "nowhere")
		}, "asm: x64 at 0x1000: "},
	}
	for _, c := range cases {
		p := NewX64Prog(0x1000)
		c.build(p)
		_, err := p.Assemble(map[string]uint64{"far": 1 << 32})
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	text := []struct{ src, want string }{
		{"ret\njmp nowhere", `asm: line 2: undefined label "nowhere"`},
		{"a: ret\n\na: ret", `asm: line 3: duplicate label "a"`},
		{"nop\nadd al, 5", "asm: line 2: isa: cannot encode add"},
		{"nop; bogus rax", `asm: line 1: unknown mnemonic "bogus"`},
	}
	for _, c := range text {
		_, err := Assemble(c.src, 0x1000)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Assemble(%q): err = %v, want %q", c.src, err, c.want)
		}
	}
}

// TestX64ProgAllocs pins the assembler's allocations below one object per
// emitted instruction, amortized: only buffer and map growth allocate, not
// each encoding or label reference. The mix covers register, memory and
// immediate operand forms.
func TestX64ProgAllocs(t *testing.T) {
	const items = 4096
	labels := make([]string, items/8)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%d", i)
	}
	forms := []isa.Inst{
		{Op: isa.OpMov, Size: 8, A: isa.RegOp(isa.RAX), B: isa.MemOp(isa.RBP, -8)},
		{Op: isa.OpMov, Size: 8, A: isa.MemOp(isa.RBP, -0x208), B: isa.RegOp(isa.R12)},
		{Op: isa.OpAdd, Size: 8, A: isa.RegOp(isa.RAX), B: isa.RegOp(isa.RBX)},
		{Op: isa.OpSub, Size: 8, A: isa.RegOp(isa.RSP), B: isa.ImmOp(0x120)},
		{Op: isa.OpMov, Size: 8, A: isa.RegOp(isa.RAX), B: isa.ImmOp(-5)},
	}
	emitted := 0
	allocs := testing.AllocsPerRun(5, func() {
		p := NewX64Prog(0x401000)
		emitted = 0
		for i := 0; i < items; i++ {
			switch l := labels[i/8]; i % 8 {
			case 0:
				p.Label(l)
			case 1:
				p.InstRef(isa.Inst{Op: isa.OpJmp, A: isa.ImmOp(0)}, l)
				emitted++
			case 2:
				p.InstRefB(isa.Inst{Op: isa.OpMov, Size: 8, A: isa.RegOp(isa.RCX), B: isa.ImmOp(0)}, labels[(i/8+1)%len(labels)])
				emitted++
			default:
				p.Inst(forms[i%8-3])
				emitted++
			}
		}
		if _, err := p.Assemble(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= float64(emitted) {
		t.Errorf("assembling %d instructions allocates %.0f objects", emitted, allocs)
	}
}
