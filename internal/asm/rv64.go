// RV64 program assembly. Like X64Prog, RVProg encodes each instruction
// through the rv64 encoder as it arrives. Every emitted instruction is a
// fixed four bytes (no compressed forms), so every address is known at
// append time: label references reserve their bytes and record a fixup,
// and Assemble patches the fixups once every label is defined — rejecting
// out-of-range branches rather than relaxing them (the code generator
// emits branches in a range-safe form). RV64 keeps its own type for the
// la pair and the fixed word size.
package asm

import (
	"encoding/binary"
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// rvFixKind says what a fixup patches.
type rvFixKind uint8

const (
	fixInst rvFixKind = iota // an instruction whose operand A is a label
	fixLa                    // a lui+addi load-address pair
	fixQuad                  // an 8-byte label slot
)

// rvFixup is a label reference whose bytes are reserved in the code and
// patched by Assemble.
type rvFixup struct {
	off   int // byte offset of the reserved bytes in the code
	kind  rvFixKind
	reg   isa.Reg  // fixLa: the destination register
	inst  isa.Inst // fixInst: the instruction, operand A to be patched
	label string
}

// RVProg assembles an RV64 program in one pass, starting at a base address
// fixed at construction.
type RVProg struct{ prog[rvFixup] }

// NewRVProg returns an empty program placed at base.
func NewRVProg(base uint64) *RVProg { return &RVProg{newProg[rvFixup](base)} }

// Inst appends a fully-resolved instruction.
func (p *RVProg) Inst(inst isa.Inst) {
	w, err := isa.EncodeRV64(inst, p.pc())
	if err != nil {
		p.fail(fmt.Errorf("asm: rv64 at %#x: %w", p.pc(), err))
	}
	p.code = binary.LittleEndian.AppendUint32(p.code, w)
}

// reserve records a fixup at the current position and appends n
// placeholder bytes for it.
func (p *RVProg) reserve(n int, f rvFixup) {
	f.off = len(p.code)
	p.fixups = append(p.fixups, f)
	p.code = append(p.code, make([]byte, n)...)
}

// InstRef appends an instruction whose operand A immediate is the address
// of a label, resolved at assembly time (branch and jump targets).
func (p *RVProg) InstRef(inst isa.Inst, label string) {
	p.reserve(4, rvFixup{kind: fixInst, inst: inst, label: label})
}

// La appends a load-address macro: lui+addi materializing the label's
// absolute address into rd. Addresses must fit in signed 32 bits, which all
// SBF layouts do.
func (p *RVProg) La(rd isa.Reg, label string) {
	p.reserve(8, rvFixup{kind: fixLa, reg: rd, label: label})
}

// QuadLabel appends an 8-byte slot holding a label's address (jump tables).
func (p *RVProg) QuadLabel(label string) {
	p.reserve(8, rvFixup{kind: fixQuad, label: label})
}

// Align pads with canonical nops (addi x0,x0,0) to a power-of-two boundary.
func (p *RVProg) Align(n int) {
	pad := int((uint64(n) - p.pc()%uint64(n)) % uint64(n))
	if pad%4 != 0 {
		p.fail(fmt.Errorf("asm: rv64 .align %d not a multiple of 4 at %#x", n, p.pc()))
		return
	}
	nop, err := isa.EncodeRV64(isa.Inst{Op: isa.OpNop}, 0)
	if err != nil {
		panic(err)
	}
	for j := 0; j < pad; j += 4 {
		p.code = binary.LittleEndian.AppendUint32(p.code, nop)
	}
}

// Assemble patches every label reference and returns the code. extern
// supplies pre-defined symbols (data-section globals) usable as labels;
// program labels shadow them. The first error in program order is
// reported.
func (p *RVProg) Assemble(extern map[string]uint64) (*Result, error) {
	return p.assemble(extern, p.patch)
}

// patch resolves one fixup's label and writes its bytes.
func (p *RVProg) patch(f *rvFixup) error {
	target, ok := p.labels[f.label]
	if !ok {
		return fmt.Errorf("asm: undefined label %q", f.label)
	}
	addr := p.base + uint64(f.off)
	dst := p.code[f.off:]
	switch f.kind {
	case fixQuad:
		binary.LittleEndian.PutUint64(dst, target)
	case fixInst:
		inst := f.inst
		inst.A.Imm = int64(target)
		w, err := isa.EncodeRV64(inst, addr)
		if err != nil {
			return fmt.Errorf("asm: rv64 at %#x: %w", addr, err)
		}
		binary.LittleEndian.PutUint32(dst, w)
	case fixLa:
		v := int64(target)
		if v != int64(int32(v)) {
			return fmt.Errorf("asm: la %q: address %#x exceeds 32 bits", f.label, target)
		}
		lo := int64(int32(uint32(v)&0xFFF) << 20 >> 20)
		hi := v - lo
		if hi != int64(int32(hi)) {
			return fmt.Errorf("asm: la %q: address %#x exceeds the lui range", f.label, target)
		}
		lui, err := isa.EncodeRV64(isa.Inst{Op: isa.OpMov, Size: 8,
			A: isa.RegOp(f.reg), B: isa.ImmOp(hi)}, addr)
		if err != nil {
			return fmt.Errorf("asm: rv64 la at %#x: %w", addr, err)
		}
		addi, err := isa.EncodeRV64(isa.Inst{Op: isa.OpAdd, Size: 8,
			A: isa.RegOp(f.reg), B: isa.RegOp(f.reg), C: isa.ImmOp(lo)}, addr+4)
		if err != nil {
			return fmt.Errorf("asm: rv64 la at %#x: %w", addr, err)
		}
		binary.LittleEndian.PutUint32(dst, lui)
		binary.LittleEndian.PutUint32(dst[4:], addi)
	}
	return nil
}
