package codegen

// RV64 code generation: the same spill-everything strategy as the x86-64
// emitter (every virtual register and local lives in a frame slot), lowered
// onto the RV64 base ISA plus the M extension. Frames are s0-anchored —
// prologue saves ra/s0 above the frame, epilogue restores through sp — and
// every conditional branch is emitted in the range-safe inverted-skip form
// (bCC' +8; jal target), so layout never needs branch relaxation.
//
// Syscall numbers follow the x86-64 Linux numbering on this backend too:
// the emulated OS model is ISA-independent, so MiniC programs and attack
// goals mean the same thing on every backend.

import (
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/mir"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// RV64 register roles for the spill-everything generator.
var (
	rvArgRegs = []isa.Reg{isa.RVA0, isa.RVA1, isa.RVA2, isa.RVA3, isa.RVA4, isa.RVA5}
)

// compileRV64 lowers a MIR module onto RV64.
func compileRV64(m *mir.Module, isaName string) (*sbf.Binary, error) {
	extern := make(map[string]uint64, len(m.Globals))
	var data []byte
	for _, g := range m.Globals {
		addr := dataBase + uint64(len(data))
		extern[g.Name] = addr
		buf := make([]byte, (g.Size+7)&^7)
		copy(buf, g.Init)
		data = append(data, buf...)
	}
	if len(data) == 0 {
		data = make([]byte, 8)
	}

	p := asm.NewRVProg(textBase)
	rvEmitStart(p)
	rvEmitBuiltins(p)
	cg := &rvFuncGen{p: p}
	for _, f := range m.Funcs {
		if err := cg.emitFunc(f); err != nil {
			return nil, err
		}
	}

	res, err := p.Assemble(extern)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	entry, ok := res.Labels["_start"]
	if !ok {
		return nil, fmt.Errorf("codegen: no _start")
	}

	bin := sbf.New()
	bin.Entry = entry
	bin.ISA = isaName
	bin.AddSection(sbf.Section{
		Name: ".text", Addr: textBase,
		Flags: sbf.FlagRead | sbf.FlagExec, Data: res.Code,
	})
	bin.AddSection(sbf.Section{
		Name: ".data", Addr: dataBase,
		Flags: sbf.FlagRead | sbf.FlagWrite, Data: data,
	})
	for name, addr := range res.Labels {
		bin.Symbols[name] = addr
	}
	for name, addr := range extern {
		bin.Symbols[name] = addr
	}
	return bin, nil
}

// rvEmitStart writes the entry point: call main, exit(60) with its result.
func rvEmitStart(p *asm.RVProg) {
	p.Label("_start")
	p.InstRef(isa.Inst{Op: isa.OpCall, A: imm(0)}, "main") // jal ra, main
	p.Inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(isa.RVA7), B: imm(60)})
	p.Inst(isa.Inst{Op: isa.OpSyscall})
}

// rvEmitBuiltins writes the generic syscall wrapper: the MiniC-level
// __syscall(num, a, b, ...) arrives with the number in a0 and arguments in
// a1..a5; shift everything into the kernel convention (number in a7,
// arguments in a0..a4) and trap.
func rvEmitBuiltins(p *asm.RVProg) {
	p.Label("__syscall")
	mv := func(dst, src isa.Reg) {
		p.Inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(dst), B: reg(src)})
	}
	mv(isa.RVA7, isa.RVA0)
	mv(isa.RVA0, isa.RVA1)
	mv(isa.RVA1, isa.RVA2)
	mv(isa.RVA2, isa.RVA3)
	mv(isa.RVA3, isa.RVA4)
	mv(isa.RVA4, isa.RVA5)
	p.Inst(isa.Inst{Op: isa.OpSyscall})
	p.Inst(isa.Inst{Op: isa.OpRet})
}

// rvFuncGen emits one function onto the program.
type rvFuncGen struct {
	p *asm.RVProg
	f *mir.Func

	frameSize int
	localOff  []int // offset below s0 of each local slot
	vregBase  int
	nextTable int
	tables    []func() // jump-table emission deferred to after the body
}

func (cg *rvFuncGen) blockLabel(id int) string {
	return fmt.Sprintf("%s_b%d", cg.f.Name, id)
}

func (cg *rvFuncGen) vslot(v mir.VReg) int { return cg.vregBase + 8*(int(v)+1) }

func (cg *rvFuncGen) inst(i isa.Inst)   { cg.p.Inst(i) }
func (cg *rvFuncGen) jmp(label string)  { cg.p.InstRef(isa.Inst{Op: isa.OpJmp, A: imm(0)}, label) }
func (cg *rvFuncGen) call(label string) { cg.p.InstRef(isa.Inst{Op: isa.OpCall, A: imm(0)}, label) }

// li materializes an arbitrary 64-bit constant into rd.
func (cg *rvFuncGen) li(rd isa.Reg, v int64) {
	if v >= -2048 && v < 2048 {
		cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(rd), B: imm(v)})
		return
	}
	lo := int64(int32(uint32(v)&0xFFF) << 20 >> 20) // sign-extended low 12 bits
	hi := v - lo                                    // low 12 bits all zero
	if hi >= -1<<31 && hi < 1<<31 {
		cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(rd), B: imm(hi)}) // lui
	} else {
		// Wide constant: build the upper bits recursively and shift. hi's
		// low 12 bits are zero, so hi>>12 loses nothing.
		cg.li(rd, hi>>12)
		cg.inst(isa.Inst{Op: isa.OpShl, Size: 8, A: reg(rd), B: reg(rd), C: imm(12)})
	}
	if lo != 0 {
		cg.inst(isa.Inst{Op: isa.OpAdd, Size: 8, A: reg(rd), B: reg(rd), C: imm(lo)})
	}
}

// slotAddr leaves the address of a frame slot (s0 - off) in t6 when the
// offset is out of short range; it returns the memory operand to use.
func (cg *rvFuncGen) slotMem(off int) isa.Operand {
	if off <= 2048 {
		return isa.MemOp(isa.RVS0, int32(-off))
	}
	cg.li(isa.RVT6, int64(off))
	cg.inst(isa.Inst{Op: isa.OpSub, Size: 8, A: reg(isa.RVT6), B: reg(isa.RVS0), C: reg(isa.RVT6)})
	return isa.MemOp(isa.RVT6, 0)
}

// loadV loads a vreg slot into a machine register.
func (cg *rvFuncGen) loadV(rd isa.Reg, v mir.VReg) {
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(rd), B: cg.slotMem(cg.vslot(v))})
}

// storeV stores a machine register into a vreg slot.
func (cg *rvFuncGen) storeV(v mir.VReg, rs isa.Reg) {
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: cg.slotMem(cg.vslot(v)), B: reg(rs)})
}

func (cg *rvFuncGen) emitFunc(f *mir.Func) error {
	if err := mir.Verify(f); err != nil {
		return err
	}
	cg.f = f
	cg.tables = nil

	// Frame layout below s0: [locals][vreg slots]; ra and the caller's s0
	// are saved above s0.
	cg.localOff = make([]int, len(f.Locals))
	off := 0
	for i, l := range f.Locals {
		off += (l.Size + 7) &^ 7
		cg.localOff[i] = off
	}
	cg.vregBase = off
	cg.frameSize = (off + int(f.NumVRegs)*8 + 15) &^ 15

	p := cg.p
	p.Label(f.Name)
	// addi sp, sp, -16; sd ra, 8(sp); sd s0, 0(sp); mv s0, sp
	cg.inst(isa.Inst{Op: isa.OpAdd, Size: 8, A: reg(isa.RVSP), B: reg(isa.RVSP), C: imm(-16)})
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: isa.MemOp(isa.RVSP, 8), B: reg(isa.RVRA)})
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: isa.MemOp(isa.RVSP, 0), B: reg(isa.RVS0)})
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(isa.RVS0), B: reg(isa.RVSP)})
	if cg.frameSize > 0 {
		if cg.frameSize <= 2048 {
			cg.inst(isa.Inst{Op: isa.OpAdd, Size: 8, A: reg(isa.RVSP), B: reg(isa.RVSP), C: imm(int64(-cg.frameSize))})
		} else {
			cg.li(isa.RVT6, int64(cg.frameSize))
			cg.inst(isa.Inst{Op: isa.OpSub, Size: 8, A: reg(isa.RVSP), B: reg(isa.RVSP), C: reg(isa.RVT6)})
		}
	}
	for i := 0; i < f.NumParam; i++ {
		cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: cg.slotMem(cg.localOff[i]), B: reg(rvArgRegs[i])})
	}
	cg.jmp(cg.blockLabel(0))

	for _, b := range f.Blocks {
		p.Label(cg.blockLabel(b.ID))
		for _, ins := range b.Instrs {
			if err := cg.emitInstr(ins); err != nil {
				return err
			}
		}
		if err := cg.emitTerm(b.Term); err != nil {
			return err
		}
	}
	// Jump tables live in text after the body, as on x86-64.
	for _, emit := range cg.tables {
		emit()
	}
	return nil
}

// epilogue restores the caller frame and returns; the result is in a0.
func (cg *rvFuncGen) epilogue() {
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(isa.RVSP), B: reg(isa.RVS0)})
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(isa.RVS0), B: isa.MemOp(isa.RVSP, 0)})
	cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(isa.RVRA), B: isa.MemOp(isa.RVSP, 8)})
	cg.inst(isa.Inst{Op: isa.OpAdd, Size: 8, A: reg(isa.RVSP), B: reg(isa.RVSP), C: imm(16)})
	cg.inst(isa.Inst{Op: isa.OpRet})
}

func (cg *rvFuncGen) emitInstr(ins mir.Instr) error {
	t0, t1, t2 := isa.RVT0, isa.RVT1, isa.RVT2
	switch ins.Kind {
	case mir.InstConst:
		cg.li(t0, ins.Val)
		cg.storeV(ins.Dst, t0)

	case mir.InstCopy:
		cg.loadV(t0, ins.A)
		cg.storeV(ins.Dst, t0)

	case mir.InstNeg:
		cg.loadV(t0, ins.A)
		cg.inst(isa.Inst{Op: isa.OpSub, Size: 8, A: reg(t0), B: reg(isa.RVZero), C: reg(t0)})
		cg.storeV(ins.Dst, t0)

	case mir.InstNot:
		cg.loadV(t0, ins.A)
		cg.inst(isa.Inst{Op: isa.OpXor, Size: 8, A: reg(t0), B: reg(t0), C: imm(-1)})
		cg.storeV(ins.Dst, t0)

	case mir.InstBin:
		cg.loadV(t0, ins.A)
		cg.loadV(t1, ins.B)
		r3 := func(op isa.Op) {
			cg.inst(isa.Inst{Op: op, Size: 8, A: reg(t0), B: reg(t0), C: reg(t1)})
		}
		switch ins.Op {
		case mir.OpAdd:
			r3(isa.OpAdd)
		case mir.OpSub:
			r3(isa.OpSub)
		case mir.OpMul:
			r3(isa.OpImul)
		case mir.OpDiv:
			r3(isa.OpDiv)
		case mir.OpMod:
			r3(isa.OpRem)
		case mir.OpAnd:
			r3(isa.OpAnd)
		case mir.OpOr:
			r3(isa.OpOr)
		case mir.OpXor:
			r3(isa.OpXor)
		case mir.OpShl:
			r3(isa.OpShl)
		case mir.OpShr:
			r3(isa.OpSar) // MiniC >> is arithmetic, as on x86-64
		case mir.OpLT:
			r3(isa.OpSlt)
		case mir.OpULT:
			r3(isa.OpSltu)
		case mir.OpGT:
			cg.inst(isa.Inst{Op: isa.OpSlt, Size: 8, A: reg(t0), B: reg(t1), C: reg(t0)})
		case mir.OpLE: // !(a > b)
			cg.inst(isa.Inst{Op: isa.OpSlt, Size: 8, A: reg(t0), B: reg(t1), C: reg(t0)})
			cg.inst(isa.Inst{Op: isa.OpXor, Size: 8, A: reg(t0), B: reg(t0), C: imm(1)})
		case mir.OpGE: // !(a < b)
			r3(isa.OpSlt)
			cg.inst(isa.Inst{Op: isa.OpXor, Size: 8, A: reg(t0), B: reg(t0), C: imm(1)})
		case mir.OpEQ: // seqz(a - b)
			r3(isa.OpSub)
			cg.inst(isa.Inst{Op: isa.OpSltu, Size: 8, A: reg(t0), B: reg(t0), C: imm(1)})
		case mir.OpNE: // snez(a - b)
			r3(isa.OpSub)
			cg.inst(isa.Inst{Op: isa.OpSltu, Size: 8, A: reg(t0), B: reg(isa.RVZero), C: reg(t0)})
		default:
			return fmt.Errorf("codegen: unknown binop %v", ins.Op)
		}
		cg.storeV(ins.Dst, t0)

	case mir.InstLoad:
		cg.loadV(t0, ins.A)
		if ins.Size == 1 {
			cg.inst(isa.Inst{Op: isa.OpLoadU, Size: 1, A: reg(t0), B: isa.MemOp(t0, 0)})
		} else {
			cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(t0), B: isa.MemOp(t0, 0)})
		}
		cg.storeV(ins.Dst, t0)

	case mir.InstStore:
		cg.loadV(t2, ins.A)
		cg.loadV(t1, ins.B)
		size := uint8(8)
		if ins.Size == 1 {
			size = 1
		}
		cg.inst(isa.Inst{Op: isa.OpMov, Size: size, A: isa.MemOp(t2, 0), B: reg(t1)})

	case mir.InstAddrLocal:
		off := cg.localOff[ins.Local]
		if off <= 2048 {
			cg.inst(isa.Inst{Op: isa.OpAdd, Size: 8, A: reg(t0), B: reg(isa.RVS0), C: imm(int64(-off))})
		} else {
			cg.li(t0, int64(off))
			cg.inst(isa.Inst{Op: isa.OpSub, Size: 8, A: reg(t0), B: reg(isa.RVS0), C: reg(t0)})
		}
		cg.storeV(ins.Dst, t0)

	case mir.InstAddrGlobal:
		// Global addresses are link-time constants, resolved by the
		// assembler's load-address macro.
		cg.p.La(t0, ins.Name)
		cg.storeV(ins.Dst, t0)

	case mir.InstCall:
		if len(ins.Args) > len(rvArgRegs) {
			return fmt.Errorf("codegen: too many call arguments")
		}
		for i, a := range ins.Args {
			cg.loadV(rvArgRegs[i], a)
		}
		cg.call(ins.Name)
		if ins.HasDst {
			cg.storeV(ins.Dst, isa.RVA0)
		}

	default:
		return fmt.Errorf("codegen: unknown instruction kind %d", ins.Kind)
	}
	return nil
}

func (cg *rvFuncGen) emitTerm(t mir.Term) error {
	t0 := isa.RVT0
	switch t.Kind {
	case mir.TermRet:
		if t.HasVal {
			cg.loadV(isa.RVA0, t.Val)
		} else {
			cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(isa.RVA0), B: reg(isa.RVZero)})
		}
		cg.epilogue()

	case mir.TermBr:
		cg.jmp(cg.blockLabel(t.Target))

	case mir.TermCondBr:
		cg.loadV(t0, t.Cond)
		// bne t0, x0, target; j else  — emitted range-safe: the conditional
		// branch skips the following jal when NOT taken.
		skip := fmt.Sprintf("%s_s%d", cg.blockLabel(t.Target), cg.nextTable)
		cg.nextTable++
		cg.p.InstRef(isa.Inst{Op: isa.OpBcc, Cond: isa.CondE, Size: 8,
			A: imm(0), B: reg(t0), C: reg(isa.RVZero)}, skip)
		cg.jmp(cg.blockLabel(t.Target))
		cg.p.Label(skip)
		cg.jmp(cg.blockLabel(t.Else))

	case mir.TermJumpTable:
		table := fmt.Sprintf("%s_jt%d", cg.f.Name, cg.nextTable)
		cg.nextTable++
		cg.loadV(t0, t.Index)
		// Clamp out-of-range indices to 0, as the x86-64 generator does.
		cg.li(isa.RVT1, int64(len(t.Targets)))
		skip := table + "_ok"
		cg.p.InstRef(isa.Inst{Op: isa.OpBcc, Cond: isa.CondB, Size: 8,
			A: imm(0), B: reg(t0), C: reg(isa.RVT1)}, skip)
		cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(t0), B: reg(isa.RVZero)})
		cg.p.Label(skip)
		cg.p.La(isa.RVT1, table)
		cg.inst(isa.Inst{Op: isa.OpShl, Size: 8, A: reg(t0), B: reg(t0), C: imm(3)})
		cg.inst(isa.Inst{Op: isa.OpAdd, Size: 8, A: reg(t0), B: reg(t0), C: reg(isa.RVT1)})
		cg.inst(isa.Inst{Op: isa.OpMov, Size: 8, A: reg(t0), B: isa.MemOp(t0, 0)})
		cg.inst(isa.Inst{Op: isa.OpJmp, A: reg(t0), B: imm(0)})
		targets := append([]int(nil), t.Targets...)
		fname := cg.f.Name
		blockLabel := func(id int) string { return fmt.Sprintf("%s_b%d", fname, id) }
		cg.tables = append(cg.tables, func() {
			cg.p.Align(8)
			cg.p.Label(table)
			for _, tgt := range targets {
				cg.p.QuadLabel(blockLabel(tgt))
			}
		})

	default:
		return fmt.Errorf("codegen: unknown terminator kind %d", t.Kind)
	}
	return nil
}
