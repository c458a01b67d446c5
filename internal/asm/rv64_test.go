package asm

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// TestRVProgAssemble checks one-pass layout: forward and backward label
// references, la, label slots, literal data, alignment padding and extern
// symbols all land at the addresses a decode of the output reports.
func TestRVProgAssemble(t *testing.T) {
	const base = 0x10000
	p := NewRVProg(base)
	p.Label("start")
	p.InstRef(isa.Inst{Op: isa.OpCall, A: isa.ImmOp(0)}, "fn") // forward
	p.La(isa.RVA0, "table")
	p.La(isa.RVA1, "global")
	p.Inst(isa.Inst{Op: isa.OpRet})
	p.Label("fn")
	p.InstRef(isa.Inst{Op: isa.OpJmp, A: isa.ImmOp(0)}, "start") // backward
	p.Bytes([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	p.Align(16)
	p.Label("table")
	p.QuadLabel("fn")
	res, err := p.Assemble(map[string]uint64{"global": 0x200010, "fn": 0xdead})
	if err != nil {
		t.Fatal(err)
	}

	fn, table := uint64(base+24), uint64(base+48)
	if res.Labels["start"] != base || res.Labels["fn"] != fn || res.Labels["table"] != table {
		t.Fatalf("labels = %v", res.Labels)
	}
	if res.Labels["global"] != 0x200010 {
		t.Errorf("extern global = %#x", res.Labels["global"])
	}
	if len(res.Code) != 56 {
		t.Fatalf("code is %d bytes, want 56", len(res.Code))
	}
	dec := func(off int) isa.Inst {
		t.Helper()
		in, err := isa.RV64.Decode(res.Code[off:], base+uint64(off))
		if err != nil {
			t.Fatalf("decode at +%d: %v", off, err)
		}
		return in
	}
	if in := dec(0); in.Op != isa.OpCall || uint64(in.A.Imm) != fn {
		t.Errorf("+0: %v, want call %#x", in, fn)
	}
	// lui+addi pairs: the register holds hi+lo.
	for _, c := range []struct {
		off  int
		want uint64
	}{{4, table}, {12, 0x200010}} {
		hi, lo := dec(c.off), dec(c.off+4)
		if got := uint64(hi.B.Imm + lo.C.Imm); got != c.want {
			t.Errorf("la at +%d materializes %#x, want %#x", c.off, got, c.want)
		}
	}
	if in := dec(24); in.Op != isa.OpJmp || uint64(in.A.Imm) != base {
		t.Errorf("+24: %v, want jmp %#x", in, base)
	}
	if got := res.Code[28:36]; string(got) != "\x01\x02\x03\x04\x05\x06\x07\x08" {
		t.Errorf("data = %v", got)
	}
	for off := 36; off < 48; off += 4 {
		if in := dec(off); in.Op != isa.OpNop {
			t.Errorf("+%d: %v, want alignment nop", off, in)
		}
	}
	if got := binary.LittleEndian.Uint64(res.Code[48:]); got != fn {
		t.Errorf("label slot = %#x, want program label fn %#x (shadowing extern)", got, fn)
	}
}

// TestRVProgErrors checks each error keeps its message and that the first
// error in program order wins, whether it is found while appending or
// while patching.
func TestRVProgErrors(t *testing.T) {
	jmp := isa.Inst{Op: isa.OpJmp, A: isa.ImmOp(0)}
	bad := isa.Inst{Op: isa.OpMov, Size: 8, A: isa.RegOp(isa.RVA0), B: isa.ImmOp(1 << 40)}
	cases := []struct {
		name  string
		build func(p *RVProg)
		want  string
	}{
		{"duplicate", func(p *RVProg) { p.Label("a"); p.Label("a") }, `asm: duplicate label "a"`},
		{"undefined", func(p *RVProg) { p.InstRef(jmp, "nowhere") }, `asm: undefined label "nowhere"`},
		{"undefined-la", func(p *RVProg) { p.La(isa.RVA0, "nowhere") }, `asm: undefined label "nowhere"`},
		{"undefined-quad", func(p *RVProg) { p.QuadLabel("nowhere") }, `asm: undefined label "nowhere"`},
		{"align", func(p *RVProg) { p.Bytes([]byte{0}); p.Align(4) }, "asm: rv64 .align 4 not a multiple of 4 at 0x1001"},
		{"encode", func(p *RVProg) { p.Inst(bad) }, "asm: rv64 at 0x1000: "},
		{"la-range", func(p *RVProg) { p.La(isa.RVA0, "far") }, `asm: la "far": address 0x100000000 exceeds 32 bits`},
		// Program order across the two phases.
		{"ref-then-dup", func(p *RVProg) {
			p.InstRef(jmp, "nowhere")
			p.Label("a")
			p.Label("a")
		}, `asm: undefined label "nowhere"`},
		{"dup-then-ref", func(p *RVProg) {
			p.Label("a")
			p.Label("a")
			p.InstRef(jmp, "nowhere")
		}, `asm: duplicate label "a"`},
		{"encode-then-ref", func(p *RVProg) {
			p.Inst(bad)
			p.InstRef(jmp, "nowhere")
		}, "asm: rv64 at 0x1000: "},
	}
	for _, c := range cases {
		p := NewRVProg(0x1000)
		c.build(p)
		_, err := p.Assemble(map[string]uint64{"far": 1 << 32})
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestRVProgAllocs pins the assembler's allocations below one object per
// emitted instruction, amortized: only buffer and map growth allocate, not
// each encoding or label reference.
func TestRVProgAllocs(t *testing.T) {
	const items = 4096
	labels := make([]string, items/8)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%d", i)
	}
	add := isa.Inst{Op: isa.OpAdd, Size: 8, A: isa.RegOp(isa.RVA0), B: isa.RegOp(isa.RVA0), C: isa.ImmOp(1)}
	emitted := 0
	allocs := testing.AllocsPerRun(5, func() {
		p := NewRVProg(0x10000)
		emitted = 0
		for i := 0; i < items; i++ {
			switch l := labels[i/8]; i % 8 {
			case 0:
				p.Label(l)
			case 1:
				p.InstRef(isa.Inst{Op: isa.OpJmp, A: isa.ImmOp(0)}, l)
				emitted++
			case 2:
				p.La(isa.RVA1, l)
				emitted += 2
			default:
				p.Inst(add)
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
