// RV64 program assembly. Unlike the textual x86-64 assembler, the RV64
// path is programmatic: the code generator appends isa.Inst values and
// label references to an RVProg, and Assemble lays them out and encodes
// them through the rv64 backend. Every emitted instruction is a fixed four
// bytes (no compressed forms), so layout is a single pass: addresses are
// assigned first, label references are patched into absolute-immediate
// operands, and the backend encoder turns each patched instruction into
// bytes — rejecting out-of-range branches rather than relaxing them (the
// code generator emits branches in a range-safe form).
package asm

import (
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// rvItem is one RV64 program element: an instruction, a label definition,
// literal data, or an alignment request.
type rvItem struct {
	inst    isa.Inst
	hasInst bool
	// refA names a label whose absolute address replaces the immediate of
	// operand A (branch/jump targets).
	refA string

	// la is a load-address macro: materialize refA's address into laReg as
	// a fixed lui+addi pair (8 bytes). Addresses must fit in signed 32 bits,
	// which all SBF layouts do.
	la    bool
	laReg isa.Reg

	label string
	quads []quadRef
	data  []byte
	align int
}

// RVProg accumulates an RV64 program for single-pass assembly.
type RVProg struct {
	items []rvItem
}

// Label defines a label at the current position.
func (p *RVProg) Label(name string) { p.items = append(p.items, rvItem{label: name}) }

// Inst appends a fully-resolved instruction.
func (p *RVProg) Inst(inst isa.Inst) { p.items = append(p.items, rvItem{inst: inst, hasInst: true}) }

// InstRef appends an instruction whose operand A immediate is the address
// of a label, resolved at assembly time (branch and jump targets).
func (p *RVProg) InstRef(inst isa.Inst, label string) {
	p.items = append(p.items, rvItem{inst: inst, hasInst: true, refA: label})
}

// La appends a load-address macro: lui+addi materializing the label's
// absolute address into rd.
func (p *RVProg) La(rd isa.Reg, label string) {
	p.items = append(p.items, rvItem{la: true, laReg: rd, refA: label})
}

// QuadLabel appends an 8-byte slot holding a label's address (jump tables).
func (p *RVProg) QuadLabel(label string) {
	p.items = append(p.items, rvItem{quads: []quadRef{{labelRef: label}}})
}

// Bytes appends literal data bytes.
func (p *RVProg) Bytes(b []byte) { p.items = append(p.items, rvItem{data: b}) }

// Align pads with canonical nops (addi x0,x0,0) to a power-of-two boundary.
func (p *RVProg) Align(n int) { p.items = append(p.items, rvItem{align: n}) }

// Assemble lays the program out at base and encodes it. extern supplies
// pre-defined symbols (data-section globals) usable as labels.
func (p *RVProg) Assemble(base uint64, extern map[string]uint64) (*Result, error) {
	labels := make(map[string]uint64, len(extern)+16)
	for name, addr := range extern {
		labels[name] = addr
	}

	// Pass 1: assign addresses. Instruction size is a fixed 4 bytes.
	sizes := make([]int, len(p.items))
	defined := make(map[string]bool, 16)
	addr := base
	for i := range p.items {
		it := &p.items[i]
		switch {
		case it.align > 0:
			pad := int((uint64(it.align) - addr%uint64(it.align)) % uint64(it.align))
			if pad%4 != 0 {
				return nil, fmt.Errorf("asm: rv64 .align %d not a multiple of 4 at %#x", it.align, addr)
			}
			sizes[i] = pad
		case it.label != "":
			if defined[it.label] {
				return nil, fmt.Errorf("asm: duplicate label %q", it.label)
			}
			defined[it.label] = true
			labels[it.label] = addr
		case it.la:
			sizes[i] = 8
		case it.hasInst:
			sizes[i] = 4
		case it.quads != nil:
			sizes[i] = 8 * len(it.quads)
		default:
			sizes[i] = len(it.data)
		}
		addr += uint64(sizes[i])
	}

	// Pass 2: patch label references and encode.
	var code []byte
	addr = base
	nop := mustEncodeNop()
	for i := range p.items {
		it := &p.items[i]
		switch {
		case it.align > 0:
			for j := 0; j < sizes[i]; j += 4 {
				code = append(code, nop...)
			}
		case it.la:
			target, ok := labels[it.refA]
			if !ok {
				return nil, fmt.Errorf("asm: undefined label %q", it.refA)
			}
			v := int64(target)
			if v != int64(int32(v)) {
				return nil, fmt.Errorf("asm: la %q: address %#x exceeds 32 bits", it.refA, target)
			}
			lo := int64(int32(uint32(v)&0xFFF) << 20 >> 20)
			hi := v - lo
			if hi != int64(int32(hi)) {
				return nil, fmt.Errorf("asm: la %q: address %#x exceeds the lui range", it.refA, target)
			}
			lui, err := isa.RV64.Encode(isa.Inst{Op: isa.OpMov, Size: 8,
				A: isa.RegOp(it.laReg), B: isa.ImmOp(hi)}, addr)
			if err != nil {
				return nil, fmt.Errorf("asm: rv64 la at %#x: %w", addr, err)
			}
			code = append(code, lui...)
			addi, err := isa.RV64.Encode(isa.Inst{Op: isa.OpAdd, Size: 8,
				A: isa.RegOp(it.laReg), B: isa.RegOp(it.laReg), C: isa.ImmOp(lo)}, addr+4)
			if err != nil {
				return nil, fmt.Errorf("asm: rv64 la at %#x: %w", addr, err)
			}
			code = append(code, addi...)
		case it.hasInst:
			inst := it.inst
			if it.refA != "" {
				target, ok := labels[it.refA]
				if !ok {
					return nil, fmt.Errorf("asm: undefined label %q", it.refA)
				}
				inst.A.Imm = int64(target)
			}
			enc, err := isa.RV64.Encode(inst, addr)
			if err != nil {
				return nil, fmt.Errorf("asm: rv64 at %#x: %w", addr, err)
			}
			code = append(code, enc...)
		case it.quads != nil:
			// RV programs only emit label slots (QuadLabel).
			for _, q := range it.quads {
				v, ok := labels[q.labelRef]
				if !ok {
					return nil, fmt.Errorf("asm: undefined label %q", q.labelRef)
				}
				for b := 0; b < 8; b++ {
					code = append(code, byte(v>>(8*b)))
				}
			}
		default:
			code = append(code, it.data...)
		}
		addr += uint64(sizes[i])
	}
	return &Result{Code: code, Labels: labels}, nil
}

func mustEncodeNop() []byte {
	enc, err := isa.RV64.Encode(isa.Inst{Op: isa.OpNop}, 0)
	if err != nil {
		panic(err)
	}
	return enc
}
