package symex

import (
	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// Write is one recorded stack store.
type Write struct {
	Val  *expr.Node // masked to the store size
	Size uint8      // bytes stored
}

// Effect is the symbolic summary of one executed gadget: the paper's
// Table II record content in expression form.
type Effect struct {
	// Regs holds the final symbolic value of every register in terms of the
	// initial register variables and stack-input variables, sized by the
	// backend's register file (16 on x64, 32 on RV64).
	Regs []*expr.Node
	// StackWrites are stores the gadget performed, keyed by byte offset
	// from the entry rsp.
	StackWrites map[int64]Write
	// Inputs are the stack offsets the gadget read without first writing:
	// the attacker-controlled payload cells, with their access size.
	Inputs map[int64]uint8
	// StackDelta is the net rsp displacement.
	StackDelta int64
	// NextRIP is where control goes after the gadget (nil for syscall).
	NextRIP *expr.Node
	// Conds is the path condition (pre-condition conjuncts).
	Conds []*expr.Node
	// MemReads are loads through attacker-determined pointers; each yields
	// an unconstrained dm_* variable.
	MemReads []MemAccess
	// MemWrites are stores through attacker-determined pointers.
	MemWrites []MemAccess
	// End classifies the terminal control transfer.
	End EndKind
}

// HasDerefs reports whether the gadget touches controlled memory.
func (e *Effect) HasDerefs() bool {
	return len(e.MemReads)+len(e.MemWrites) > 0
}

// effect summarizes the state after a path's final step into an Effect.
// The state's scratch (maps, condition and memory-access slices) is never
// referenced by the returned Effect — slices are copied and maps rebuilt —
// so a reusable state can be reset and run again without corrupting
// earlier results. Empty collections stay nil: most paths write nothing
// and read nothing, and downstream consumers only ever range over or index
// these fields.
func (s *State) effect() (*Effect, error) {
	if s.endKind == EndNone {
		return nil, errNoTerminal
	}
	delta, err := s.rspOffset()
	if err != nil {
		return nil, err
	}
	eff := &Effect{
		StackDelta: delta,
		NextRIP:    s.nextRIP,
		End:        s.endKind,
	}
	// Copy rather than alias: a reusable state's Regs slice is overwritten on
	// the next path.
	eff.Regs = append(make([]*expr.Node, 0, len(s.Regs)), s.Regs...)
	if len(s.conds) > 0 {
		eff.Conds = append(make([]*expr.Node, 0, len(s.conds)), s.conds...)
	}
	if len(s.memReads) > 0 {
		eff.MemReads = append(make([]MemAccess, 0, len(s.memReads)), s.memReads...)
	}
	if len(s.memWrites) > 0 {
		eff.MemWrites = append(make([]MemAccess, 0, len(s.memWrites)), s.memWrites...)
	}
	if len(s.writes) > 0 {
		eff.StackWrites = make(map[int64]Write, len(s.writes))
		for _, w := range s.writes {
			eff.StackWrites[w.off] = Write{
				Val:  s.B.And(w.val, s.B.Const(maskOf(w.size), 64)),
				Size: w.size,
			}
		}
	}
	if len(s.inputs) > 0 {
		eff.Inputs = make(map[int64]uint8, len(s.inputs))
		for _, in := range s.inputs {
			eff.Inputs[in.off] = in.size
		}
	}
	return eff, nil
}

// step executes one instruction. A conditional jump that is not last takes
// the path selected by taken and accumulates the corresponding condition;
// a conditional jump that is last terminates the gadget like a direct jump
// (with its condition as a pre-condition).
func (s *State) step(inst *isa.Inst, taken, last bool) error {
	next := inst.End()
	size := inst.Size
	if size == 0 {
		size = 8
	}

	// RISC-V three-operand ALU forms carry their second source in C. They
	// never touch flags; x86-64 instructions never populate C.
	if inst.C.Kind != isa.KindNone {
		switch inst.Op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
			isa.OpShl, isa.OpShr, isa.OpSar, isa.OpImul, isa.OpSlt, isa.OpSltu:
			return s.stepRV3(inst, next)
		}
	}

	switch inst.Op {
	case isa.OpNop:
		return nil

	case isa.OpMov:
		v, err := s.readOperand(inst.B, size, next)
		if err != nil {
			return err
		}
		return s.writeOperand(inst.A, size, v, next)

	case isa.OpLea:
		return s.writeOperand(inst.A, size, s.effAddr(inst.B.Mem, next), next)

	case isa.OpAdd, isa.OpSub, isa.OpCmp, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpTest:
		a, err := s.readOperand(inst.A, size, next)
		if err != nil {
			return err
		}
		bv, err := s.readOperand(inst.B, size, next)
		if err != nil {
			return err
		}
		var r *expr.Node
		mask := s.c(maskOf(size))
		switch inst.Op {
		case isa.OpAdd:
			sum := s.B.Add(a, bv)
			r = s.B.And(sum, mask)
			if size == 8 {
				s.CF = s.B.Ult(r, a)
			} else {
				s.CF = s.B.Ne(s.B.And(sum, s.c(maskOf(size)+1)), s.c(0))
			}
			s.OF = s.msb(s.B.And(s.B.Not(s.B.Xor(a, bv)), s.B.Xor(a, r)), size)
		case isa.OpSub, isa.OpCmp:
			r = s.B.And(s.B.Sub(a, bv), mask)
			s.CF = s.B.Ult(a, bv)
			s.OF = s.msb(s.B.And(s.B.Xor(a, bv), s.B.Xor(a, r)), size)
		case isa.OpAnd, isa.OpTest:
			r = s.B.And(a, bv)
			s.CF, s.OF = s.B.False(), s.B.False()
		case isa.OpOr:
			r = s.B.Or(a, bv)
			s.CF, s.OF = s.B.False(), s.B.False()
		case isa.OpXor:
			r = s.B.Xor(a, bv)
			s.CF, s.OF = s.B.False(), s.B.False()
		}
		s.setPZS(r, size)
		if inst.Op == isa.OpCmp || inst.Op == isa.OpTest {
			return nil
		}
		return s.writeOperand(inst.A, size, r, next)

	case isa.OpNot:
		a, err := s.readOperand(inst.A, size, next)
		if err != nil {
			return err
		}
		return s.writeOperand(inst.A, size, s.B.And(s.B.Not(a), s.c(maskOf(size))), next)

	case isa.OpNeg:
		a, err := s.readOperand(inst.A, size, next)
		if err != nil {
			return err
		}
		r := s.B.And(s.B.Neg(a), s.c(maskOf(size)))
		s.CF = s.B.Ne(a, s.c(0))
		s.OF = s.B.Eq(a, s.c(uint64(1)<<(uint(size)*8-1)))
		s.setPZS(r, size)
		return s.writeOperand(inst.A, size, r, next)

	case isa.OpInc, isa.OpDec:
		a, err := s.readOperand(inst.A, size, next)
		if err != nil {
			return err
		}
		var r *expr.Node
		signMask := uint64(1) << (uint(size)*8 - 1)
		if inst.Op == isa.OpInc {
			r = s.B.And(s.B.Add(a, s.c(1)), s.c(maskOf(size)))
			s.OF = s.B.Eq(r, s.c(signMask))
		} else {
			r = s.B.And(s.B.Sub(a, s.c(1)), s.c(maskOf(size)))
			s.OF = s.B.Eq(a, s.c(signMask))
		}
		s.setPZS(r, size) // CF preserved
		return s.writeOperand(inst.A, size, r, next)

	case isa.OpImul:
		a, err := s.readOperand(inst.A, size, next)
		if err != nil {
			return err
		}
		bv, err := s.readOperand(inst.B, size, next)
		if err != nil {
			return err
		}
		r := s.B.And(s.B.Mul(a, bv), s.c(maskOf(size)))
		overflow := s.opaqueFlag("imul")
		s.CF, s.OF = overflow, overflow
		s.setPZS(r, size)
		return s.writeOperand(inst.A, size, r, next)

	case isa.OpShl, isa.OpShr, isa.OpSar:
		a, err := s.readOperand(inst.A, size, next)
		if err != nil {
			return err
		}
		if inst.B.Kind == isa.KindImm {
			cnt := uint64(inst.B.Imm) & 0x3F
			if size == 4 {
				cnt &= 0x1F
			}
			if cnt == 0 {
				return nil
			}
			var r *expr.Node
			switch inst.Op {
			case isa.OpShl:
				r = s.B.And(s.B.Shl(a, s.c(cnt)), s.c(maskOf(size)))
				s.CF = s.B.Ne(s.B.And(a, s.c(uint64(1)<<(uint(size)*8-uint(cnt)))), s.c(0))
			case isa.OpShr:
				r = s.B.Lshr(a, s.c(cnt))
				s.CF = s.B.Ne(s.B.And(a, s.c(uint64(1)<<(cnt-1))), s.c(0))
			default: // Sar: sign-extend within the operand width first.
				wide := s.signExtendTo64(a, size)
				r = s.B.And(s.B.Ashr(wide, s.c(cnt)), s.c(maskOf(size)))
				s.CF = s.B.Ne(s.B.And(a, s.c(uint64(1)<<(cnt-1))), s.c(0))
			}
			s.OF = s.B.False()
			s.setPZS(r, size)
			return s.writeOperand(inst.A, size, r, next)
		}
		// Variable shift by cl: exact result, opaque flags; flags also keep
		// their old value when cl is zero, folded into the opaque var.
		cnt := s.B.And(s.Regs[isa.RCX], s.c(0x3F))
		if size == 4 {
			cnt = s.B.And(s.Regs[isa.RCX], s.c(0x1F))
		}
		var shifted *expr.Node
		switch inst.Op {
		case isa.OpShl:
			shifted = s.B.And(s.B.Shl(a, cnt), s.c(maskOf(size)))
		case isa.OpShr:
			shifted = s.B.Lshr(a, cnt)
		default:
			wide := s.signExtendTo64(a, size)
			shifted = s.B.And(s.B.Ashr(wide, cnt), s.c(maskOf(size)))
		}
		isZero := s.B.Eq(cnt, s.c(0))
		r := s.B.Ite(isZero, a, shifted)
		op := s.opaqueFlag("shift")
		s.CF, s.OF = op, op
		s.ZF = s.B.Ite(isZero, s.ZF, s.B.Eq(r, s.c(0)))
		s.SF = s.B.Ite(isZero, s.SF, s.msb(r, size))
		s.PF = s.B.Ite(isZero, s.PF, s.parity(r))
		return s.writeOperand(inst.A, size, r, next)

	case isa.OpPush:
		var v *expr.Node
		if inst.A.Kind == isa.KindImm {
			v = s.c(uint64(inst.A.Imm))
		} else {
			var err error
			v, err = s.readOperand(inst.A, 8, next)
			if err != nil {
				return err
			}
		}
		s.Regs[s.sp] = s.B.Sub(s.Regs[s.sp], s.c(8))
		off, err := s.rspOffset()
		if err != nil {
			return err
		}
		return s.writeStack(off, 8, v)

	case isa.OpPop:
		off, err := s.rspOffset()
		if err != nil {
			return err
		}
		v, err := s.readStack(off, 8)
		if err != nil {
			return err
		}
		s.Regs[s.sp] = s.B.Add(s.Regs[s.sp], s.c(8))
		return s.writeOperand(inst.A, 8, v, next)

	case isa.OpRet:
		off, err := s.rspOffset()
		if err != nil {
			return err
		}
		v, err := s.readStack(off, 8)
		if err != nil {
			return err
		}
		s.Regs[s.sp] = s.B.Add(s.Regs[s.sp], s.c(8))
		if inst.A.Kind == isa.KindImm {
			s.Regs[s.sp] = s.B.Add(s.Regs[s.sp], s.c(uint64(inst.A.Imm)))
		}
		s.nextRIP = v
		s.endKind = EndRet
		return nil

	case isa.OpJmp:
		if inst.A.Kind == isa.KindImm {
			if !last {
				// A followed (merged) direct jump: control simply continues
				// at the target, which is the next step in the path.
				return nil
			}
			s.nextRIP = s.c(uint64(inst.A.Imm))
			s.endKind = EndJmpDir
			return nil
		}
		v, err := s.readOperand(inst.A, 8, next)
		if err != nil {
			return err
		}
		// RISC-V register jumps (jalr x0) may carry a displacement in B;
		// x86-64 jmp reg/mem never populates B.
		if inst.B.Kind == isa.KindImm && inst.B.Imm != 0 {
			v = s.B.Add(v, s.c(uint64(inst.B.Imm)))
		}
		s.nextRIP = v
		s.endKind = EndJmpInd
		return nil

	case isa.OpJcc:
		c := s.cond(inst.Cond)
		if last {
			// Terminal conditional jump: require taken, target is the jump
			// destination (the not-taken variant is a different gadget
			// enumerated by the extractor).
			if taken {
				s.conds = append(s.conds, c)
				s.nextRIP = s.c(uint64(inst.A.Imm))
			} else {
				s.conds = append(s.conds, s.B.BNot(c))
				s.nextRIP = s.c(inst.End())
			}
			s.endKind = EndJmpDir
			return nil
		}
		if taken {
			s.conds = append(s.conds, c)
		} else {
			s.conds = append(s.conds, s.B.BNot(c))
		}
		return nil

	case isa.OpCall:
		if s.hasLink {
			// Link-register ISAs store the return address in a register, not
			// on the stack.
			if inst.A.Kind == isa.KindImm {
				if last {
					return errCallTerminal
				}
				// Followed (merged) direct call: control continues at the
				// callee (the next step on the path).
				s.Regs[s.link] = s.c(next)
				return nil
			}
			v, err := s.readOperand(inst.A, 8, next)
			if err != nil {
				return err
			}
			if inst.B.Kind == isa.KindImm && inst.B.Imm != 0 {
				v = s.B.Add(v, s.c(uint64(inst.B.Imm)))
			}
			s.Regs[s.link] = s.c(next)
			s.nextRIP = v
			s.endKind = EndCallInd
			return nil
		}
		if inst.A.Kind == isa.KindImm {
			if last {
				return errCallTerminal
			}
			// Followed (merged) direct call: push the return address and
			// continue at the callee (the next step on the path).
			s.Regs[s.sp] = s.B.Sub(s.Regs[s.sp], s.c(8))
			off, err := s.rspOffset()
			if err != nil {
				return err
			}
			return s.writeStack(off, 8, s.c(next))
		}
		v, err := s.readOperand(inst.A, 8, next)
		if err != nil {
			return err
		}
		s.Regs[s.sp] = s.B.Sub(s.Regs[s.sp], s.c(8))
		off, err := s.rspOffset()
		if err != nil {
			return err
		}
		if err := s.writeStack(off, 8, s.c(next)); err != nil {
			return err
		}
		s.nextRIP = v
		s.endKind = EndCallInd
		return nil

	case isa.OpSyscall:
		s.endKind = EndSyscall
		return nil

	case isa.OpLeave:
		s.Regs[s.sp] = s.Regs[isa.RBP]
		off, err := s.rspOffset()
		if err != nil {
			return err
		}
		v, err := s.readStack(off, 8)
		if err != nil {
			return err
		}
		s.Regs[s.sp] = s.B.Add(s.Regs[s.sp], s.c(8))
		s.Regs[isa.RBP] = v
		return nil

	case isa.OpXchg:
		a, err := s.readOperand(inst.A, size, next)
		if err != nil {
			return err
		}
		bv, err := s.readOperand(inst.B, size, next)
		if err != nil {
			return err
		}
		if err := s.writeOperand(inst.A, size, bv, next); err != nil {
			return err
		}
		return s.writeOperand(inst.B, size, a, next)

	case isa.OpMovzx:
		v, err := s.readOperand(inst.B, 1, next)
		if err != nil {
			return err
		}
		return s.writeOperand(inst.A, size, v, next)

	case isa.OpMovsxd:
		v, err := s.readOperand(inst.B, 4, next)
		if err != nil {
			return err
		}
		return s.writeOperand(inst.A, 8, s.signExtendTo64(v, 4), next)

	case isa.OpSetcc:
		v := s.B.Ite(s.cond(inst.Cond), s.c(1), s.c(0))
		return s.writeOperand(inst.A, 1, v, next)

	case isa.OpCqo:
		if size == 8 {
			s.Regs[isa.RDX] = s.B.Ashr(s.Regs[isa.RAX], s.c(63))
		} else {
			v := s.B.And(s.Regs[isa.RAX], s.c(0xFFFF_FFFF))
			s.Regs[isa.RDX] = s.B.And(s.B.Ashr(s.signExtendTo64(v, 4), s.c(31)), s.c(0xFFFF_FFFF))
		}
		return nil

	case isa.OpBcc:
		// RISC-V conditional branch: compares two registers directly, no flags.
		a, err := s.readOperand(inst.B, 8, next)
		if err != nil {
			return err
		}
		bv, err := s.readOperand(inst.C, 8, next)
		if err != nil {
			return err
		}
		var c *expr.Node
		switch inst.Cond {
		case isa.CondE:
			c = s.B.Eq(a, bv)
		case isa.CondNE:
			c = s.B.Ne(a, bv)
		case isa.CondL:
			c = s.B.Slt(a, bv)
		case isa.CondGE:
			c = s.B.BNot(s.B.Slt(a, bv))
		case isa.CondB:
			c = s.B.Ult(a, bv)
		case isa.CondAE:
			c = s.B.BNot(s.B.Ult(a, bv))
		default:
			return unsupported("branch condition %d", inst.Cond)
		}
		if last {
			if taken {
				s.conds = append(s.conds, c)
				s.nextRIP = s.c(uint64(inst.A.Imm))
			} else {
				s.conds = append(s.conds, s.B.BNot(c))
				s.nextRIP = s.c(inst.End())
			}
			s.endKind = EndJmpDir
			return nil
		}
		if taken {
			s.conds = append(s.conds, c)
		} else {
			s.conds = append(s.conds, s.B.BNot(c))
		}
		return nil

	case isa.OpJal:
		// jal rd, target with rd outside {x0, ra} (those decode to
		// OpJmp/OpCall): record the link value and continue at the target,
		// which is the next step on a followed path.
		if last {
			return errJALTerminal
		}
		return s.writeOperand(inst.B, 8, s.c(next), next)

	case isa.OpJalr:
		// jalr rd, off(rs1) with rd outside {x0, ra}: an indirect jump that
		// also records the link value.
		v, err := s.readOperand(inst.A, 8, next)
		if err != nil {
			return err
		}
		if inst.C.Kind == isa.KindImm && inst.C.Imm != 0 {
			v = s.B.Add(v, s.c(uint64(inst.C.Imm)))
		}
		if err := s.writeOperand(inst.B, 8, s.c(next), next); err != nil {
			return err
		}
		s.nextRIP = v
		s.endKind = EndJmpInd
		return nil

	case isa.OpLoad:
		// Sign-extending sub-width load (lb/lh/lw).
		v, err := s.readOperand(inst.B, size, next)
		if err != nil {
			return err
		}
		return s.writeOperand(inst.A, 8, s.signExtendTo64(v, size), next)

	case isa.OpLoadU:
		// Zero-extending sub-width load (lbu/lhu/lwu).
		v, err := s.readOperand(inst.B, size, next)
		if err != nil {
			return err
		}
		return s.writeOperand(inst.A, 8, v, next)

	case isa.OpAuipc:
		return s.writeOperand(inst.A, 8, s.c(inst.Addr+uint64(inst.B.Imm)), next)

	case isa.OpIdiv, isa.OpDiv, isa.OpDivU, isa.OpRem, isa.OpRemU:
		return unsupported("%s", inst.Op)
	case isa.OpHlt, isa.OpInt3:
		return unsupported("%s", inst.Op)
	}
	return unsupported("op %s", inst.Op)
}

// stepRV3 executes a RISC-V three-operand ALU instruction: A = B op C, all
// 64-bit, with no flag side effects.
func (s *State) stepRV3(inst *isa.Inst, next uint64) error {
	a, err := s.readOperand(inst.B, 8, next)
	if err != nil {
		return err
	}
	bv, err := s.readOperand(inst.C, 8, next)
	if err != nil {
		return err
	}
	b := s.B
	var r *expr.Node
	switch inst.Op {
	case isa.OpAdd:
		r = b.Add(a, bv)
	case isa.OpSub:
		r = b.Sub(a, bv)
	case isa.OpAnd:
		r = b.And(a, bv)
	case isa.OpOr:
		r = b.Or(a, bv)
	case isa.OpXor:
		r = b.Xor(a, bv)
	case isa.OpShl:
		r = b.Shl(a, b.And(bv, s.c(63)))
	case isa.OpShr:
		r = b.Lshr(a, b.And(bv, s.c(63)))
	case isa.OpSar:
		r = b.Ashr(a, b.And(bv, s.c(63)))
	case isa.OpImul:
		r = b.Mul(a, bv)
	case isa.OpSlt:
		r = b.Ite(b.Slt(a, bv), s.c(1), s.c(0))
	case isa.OpSltu:
		r = b.Ite(b.Ult(a, bv), s.c(1), s.c(0))
	}
	return s.writeOperand(inst.A, 8, r, next)
}

// signExtendTo64 sign-extends a value known to fit in the operand size.
func (s *State) signExtendTo64(v *expr.Node, size uint8) *expr.Node {
	if size == 8 {
		return v
	}
	shift := uint64(64 - uint(size)*8)
	return s.B.Ashr(s.B.Shl(v, s.c(shift)), s.c(shift))
}
