package asm

import (
	"encoding/binary"
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// x64Fixup is a label reference whose bytes were encoded with a
// placeholder and are re-encoded by Assemble.
type x64Fixup struct {
	off   int // byte offset of the encoded bytes in the code
	n     int // their length; 8 for a label slot
	quad  bool
	opB   bool     // the label is operand B's immediate, not operand A's
	inst  isa.Inst // the instruction to re-encode (unless quad)
	label string
	line  int // source line, for the text front end; 0 if none
}

// X64Prog assembles an x86-64 program in one pass, starting at a base
// address fixed at construction. Each instruction is encoded as it arrives.
// A label not yet defined is encoded with a placeholder address (the
// instruction's own) and patched by Assemble, which fails rather than
// shift bytes if the real address changes the instruction's length.
// Branches are always rel32 and every label the code generator uses lies
// below 2^31, so its lengths never change.
type X64Prog struct{ prog[x64Fixup] }

// NewX64Prog returns an empty program placed at base.
func NewX64Prog(base uint64) *X64Prog { return &X64Prog{newProg[x64Fixup](base)} }

// encodeErr wraps an encoder error with its source line or address.
func encodeErr(line int, addr uint64, err error) error {
	if line > 0 {
		return fmt.Errorf("asm: line %d: %w", line, err)
	}
	return fmt.Errorf("asm: x64 at %#x: %w", addr, err)
}

// Inst appends a fully-resolved instruction.
func (p *X64Prog) Inst(inst isa.Inst) {
	code, err := isa.Append(p.code, inst, p.pc())
	if err != nil {
		p.fail(encodeErr(p.line, p.pc(), err))
		return
	}
	p.code = code
}

// InstRef appends an instruction whose operand A immediate is the address
// of a label (jmp, jcc and call targets).
func (p *X64Prog) InstRef(inst isa.Inst, label string) { p.instRef(inst, label, false) }

// InstRefB appends an instruction whose operand B immediate is the address
// of a label (movabs reg, label).
func (p *X64Prog) InstRefB(inst isa.Inst, label string) { p.instRef(inst, label, true) }

func (p *X64Prog) instRef(inst isa.Inst, label string, opB bool) {
	imm := &inst.A.Imm
	if opB {
		imm = &inst.B.Imm
	}
	// A label defined earlier in the program is final: extern symbols
	// never shadow program labels.
	if addr, ok := p.labels[label]; ok {
		*imm = int64(addr)
		p.Inst(inst)
		return
	}
	*imm = int64(p.pc())
	off := len(p.code)
	p.Inst(inst)
	if len(p.code) > off {
		p.fixups = append(p.fixups, x64Fixup{off: off, n: len(p.code) - off,
			opB: opB, inst: inst, label: label, line: p.line})
	}
}

// QuadLabel appends an 8-byte slot holding a label's address (jump tables).
func (p *X64Prog) QuadLabel(label string) {
	p.fixups = append(p.fixups, x64Fixup{off: len(p.code), n: 8, quad: true, label: label, line: p.line})
	p.code = binary.LittleEndian.AppendUint64(p.code, 0)
}

// Align pads with nops to a power-of-two boundary.
func (p *X64Prog) Align(n int) {
	for pad := (uint64(n) - p.pc()%uint64(n)) % uint64(n); pad > 0; pad-- {
		p.code = append(p.code, 0x90)
	}
}

// Assemble patches every label reference and returns the code. extern
// supplies pre-defined symbols (data-section globals) usable as labels;
// program labels shadow them. The first error in program order is
// reported.
func (p *X64Prog) Assemble(extern map[string]uint64) (*Result, error) {
	return p.assemble(extern, p.patch)
}

// patch resolves one fixup's label and rewrites its bytes in place.
func (p *X64Prog) patch(f *x64Fixup) error {
	target, ok := p.labels[f.label]
	if !ok {
		return errorf(f.line, "undefined label %q", f.label)
	}
	dst := p.code[f.off : f.off+f.n]
	if f.quad {
		binary.LittleEndian.PutUint64(dst, target)
		return nil
	}
	inst := f.inst
	if f.opB {
		inst.B.Imm = int64(target)
	} else {
		inst.A.Imm = int64(target)
	}
	addr := p.base + uint64(f.off)
	var buf [16]byte
	enc, err := isa.Append(buf[:0], inst, addr)
	if err != nil {
		return encodeErr(f.line, addr, err)
	}
	if len(enc) != f.n {
		return errorf(f.line, "label %q at %#x changes the instruction at %#x from %d to %d bytes",
			f.label, target, addr, f.n, len(enc))
	}
	copy(dst, enc)
	return nil
}
