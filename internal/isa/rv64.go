package isa

import "fmt"

// RV64 is the RISC-V RV64IM backend with the base 4-byte-aligned encoding:
// gadget decodes can only start on instruction-width boundaries, which is
// the property that removes unaligned code-reuse gadgets ("No RISC No
// Reward"). RV64C additionally decodes the C (compressed) extension, whose
// 2-byte encodings reintroduce misaligned decode starts at halfword
// boundaries.
var (
	RV64  Backend = rv64Backend{compressed: false}
	RV64C Backend = rv64Backend{compressed: true}
)

// RV64 integer registers by ABI name. Values are the hardware register
// numbers x0..x31.
const (
	RVZero Reg = 0 // x0, hardwired zero
	RVRA   Reg = 1 // return address
	RVSP   Reg = 2 // stack pointer
	RVGP   Reg = 3 // global pointer
	RVTP   Reg = 4 // thread pointer
	RVT0   Reg = 5
	RVT1   Reg = 6
	RVT2   Reg = 7
	RVS0   Reg = 8 // frame pointer
	RVS1   Reg = 9
	RVA0   Reg = 10
	RVA1   Reg = 11
	RVA2   Reg = 12
	RVA3   Reg = 13
	RVA4   Reg = 14
	RVA5   Reg = 15
	RVA6   Reg = 16
	RVA7   Reg = 17 // syscall number
	RVS2   Reg = 18
	RVS3   Reg = 19
	RVS4   Reg = 20
	RVS5   Reg = 21
	RVS6   Reg = 22
	RVS7   Reg = 23
	RVS8   Reg = 24
	RVS9   Reg = 25
	RVS10  Reg = 26
	RVS11  Reg = 27
	RVT3   Reg = 28
	RVT4   Reg = 29
	RVT5   Reg = 30
	RVT6   Reg = 31

	// RVNumRegs is the RV64 integer register file size.
	RVNumRegs = 32
)

var _rvRegNames = [RVNumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// RVRegName names an RV64 register by ABI name.
func RVRegName(r Reg) string {
	if r < RVNumRegs {
		return _rvRegNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

type rv64Backend struct {
	compressed bool
}

func (b rv64Backend) Name() string {
	if b.compressed {
		return "rv64c"
	}
	return "rv64"
}

func (rv64Backend) PtrSize() int         { return 8 }
func (rv64Backend) NumRegs() int         { return RVNumRegs }
func (rv64Backend) SP() Reg              { return RVSP }
func (rv64Backend) ZeroReg() (Reg, bool) { return RVZero, true }
func (rv64Backend) LinkReg() (Reg, bool) { return RVRA, true }
func (rv64Backend) RegName(r Reg) string { return RVRegName(r) }

func (b rv64Backend) Stride() int {
	if b.compressed {
		return 2
	}
	return 4
}

func (rv64Backend) Syscall() SyscallABI {
	return SyscallABI{
		Num:  RVA7,
		Args: []Reg{RVA0, RVA1, RVA2, RVA3, RVA4, RVA5},
		Ret:  RVA0,
	}
}

func (rv64Backend) Classify(inst *Inst) Class {
	switch inst.Op {
	case OpRet:
		return ClassRet
	case OpSyscall:
		return ClassSyscall
	case OpBcc:
		return ClassCondBr
	case OpJmp:
		if inst.A.Kind == KindImm {
			return ClassJmpDir
		}
		// jalr x0: an RV64 "ret" is jr ra — an indirect jump through the
		// link register with no offset.
		if inst.A.Reg == RVRA && inst.B.Kind == KindImm && inst.B.Imm == 0 {
			return ClassRet
		}
		return ClassJmpInd
	case OpCall:
		if inst.A.Kind == KindImm {
			return ClassCallDir
		}
		return ClassCallInd
	case OpJal:
		return ClassCallDir
	case OpJalr:
		return ClassJmpInd
	case OpInt3, OpHlt:
		return ClassTrap
	}
	return ClassOther
}

// rvDecodeError reports bytes that do not decode: a *DecodeError, or the
// shared errUndecodable when the decode is quiet.
func rvDecodeError(quiet bool, addr uint64, b byte, reason string) error {
	if quiet {
		return errUndecodable
	}
	return &DecodeError{Addr: addr, Byte: b, Reason: reason}
}

func signExtend(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Decode decodes one RV64 instruction. Misaligned addresses (relative to
// the backend stride) fail, modeling the hardware's instruction-alignment
// fault: on RV64 without C there are no gadget starts inside instructions.
func (b rv64Backend) Decode(code []byte, addr uint64) (Inst, error) {
	return b.decode(code, addr, false)
}

func (b rv64Backend) TryDecode(code []byte, addr uint64) (Inst, bool) {
	inst, err := b.decode(code, addr, true)
	return inst, err == nil
}

// decode is Decode; quiet selects errUndecodable over a *DecodeError.
func (b rv64Backend) decode(code []byte, addr uint64, quiet bool) (Inst, error) {
	if addr%uint64(b.Stride()) != 0 {
		return Inst{}, rvDecodeError(quiet, addr, 0, "misaligned instruction address")
	}
	if len(code) < 2 {
		return Inst{}, ErrTruncated
	}
	lo := uint32(code[0]) | uint32(code[1])<<8
	if lo&3 != 3 {
		if !b.compressed {
			return Inst{}, rvDecodeError(quiet, addr, code[0], "compressed instruction without C extension")
		}
		inst, err := rvDecodeCompressed(uint16(lo), addr, quiet)
		if err != nil {
			return Inst{}, err
		}
		inst.Addr, inst.Len = addr, 2
		return inst, nil
	}
	if len(code) < 4 {
		return Inst{}, ErrTruncated
	}
	word := lo | uint32(code[2])<<16 | uint32(code[3])<<24
	inst, err := rvDecode32(word, addr, quiet)
	if err != nil {
		return Inst{}, err
	}
	inst.Addr, inst.Len = addr, 4
	return inst, nil
}

// rvDecode32 decodes one base 32-bit RV64IM instruction (without Addr/Len).
func rvDecode32(w uint32, addr uint64, quiet bool) (Inst, error) {
	opcode := w & 0x7F
	rd := Reg(w >> 7 & 0x1F)
	funct3 := w >> 12 & 7
	rs1 := Reg(w >> 15 & 0x1F)
	rs2 := Reg(w >> 20 & 0x1F)
	funct7 := w >> 25
	immI := signExtend(uint64(w>>20), 12)
	immS := signExtend(uint64(w>>25<<5|w>>7&0x1F), 12)

	bad := func(reason string) (Inst, error) { return Inst{}, rvDecodeError(quiet, addr, byte(w), reason) }

	switch opcode {
	case 0x37: // LUI
		if rd == RVZero {
			return Inst{Op: OpNop}, nil
		}
		return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: ImmOp(signExtend(uint64(w)&0xFFFFF000, 32))}, nil

	case 0x17: // AUIPC
		if rd == RVZero {
			return Inst{Op: OpNop}, nil
		}
		return Inst{Op: OpAuipc, Size: 8, A: RegOp(rd), B: ImmOp(signExtend(uint64(w)&0xFFFFF000, 32))}, nil

	case 0x6F: // JAL
		// imm bit layout in the word: [20|10:1|11|19:12].
		imm := signExtend(uint64(
			(w>>31&1)<<20|
				(w>>21&0x3FF)<<1|
				(w>>20&1)<<11|
				(w>>12&0xFF)<<12), 21)
		target := addr + uint64(imm)
		switch rd {
		case RVZero:
			return Inst{Op: OpJmp, Size: 8, A: ImmOp(int64(target))}, nil
		case RVRA:
			return Inst{Op: OpCall, Size: 8, A: ImmOp(int64(target))}, nil
		default:
			return Inst{Op: OpJal, Size: 8, A: ImmOp(int64(target)), B: RegOp(rd)}, nil
		}

	case 0x67: // JALR
		if funct3 != 0 {
			return bad("bad jalr funct3")
		}
		switch rd {
		case RVZero:
			return Inst{Op: OpJmp, Size: 8, A: RegOp(rs1), B: ImmOp(immI)}, nil
		case RVRA:
			return Inst{Op: OpCall, Size: 8, A: RegOp(rs1), B: ImmOp(immI)}, nil
		default:
			return Inst{Op: OpJalr, Size: 8, A: RegOp(rs1), B: RegOp(rd), C: ImmOp(immI)}, nil
		}

	case 0x63: // BRANCH
		imm := signExtend(uint64(
			(w>>31&1)<<12|
				(w>>25&0x3F)<<5|
				(w>>8&0xF)<<1|
				(w>>7&1)<<11), 13)
		target := addr + uint64(imm)
		var cond Cond
		switch funct3 {
		case 0:
			cond = CondE
		case 1:
			cond = CondNE
		case 4:
			cond = CondL
		case 5:
			cond = CondGE
		case 6:
			cond = CondB
		case 7:
			cond = CondAE
		default:
			return bad("bad branch funct3")
		}
		return Inst{Op: OpBcc, Cond: cond, Size: 8, A: ImmOp(int64(target)), B: RegOp(rs1), C: RegOp(rs2)}, nil

	case 0x03: // LOAD
		if rd == RVZero {
			return Inst{Op: OpNop}, nil
		}
		mem := MemOp(rs1, int32(immI))
		switch funct3 {
		case 0:
			return Inst{Op: OpLoad, Size: 1, A: RegOp(rd), B: mem}, nil
		case 1:
			return Inst{Op: OpLoad, Size: 2, A: RegOp(rd), B: mem}, nil
		case 2:
			return Inst{Op: OpLoad, Size: 4, A: RegOp(rd), B: mem}, nil
		case 3:
			return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: mem}, nil
		case 4:
			return Inst{Op: OpLoadU, Size: 1, A: RegOp(rd), B: mem}, nil
		case 5:
			return Inst{Op: OpLoadU, Size: 2, A: RegOp(rd), B: mem}, nil
		case 6:
			return Inst{Op: OpLoadU, Size: 4, A: RegOp(rd), B: mem}, nil
		default:
			return bad("bad load funct3")
		}

	case 0x23: // STORE
		mem := MemOp(rs1, int32(immS))
		switch funct3 {
		case 0:
			return Inst{Op: OpMov, Size: 1, A: mem, B: RegOp(rs2)}, nil
		case 1:
			return Inst{Op: OpMov, Size: 2, A: mem, B: RegOp(rs2)}, nil
		case 2:
			return Inst{Op: OpMov, Size: 4, A: mem, B: RegOp(rs2)}, nil
		case 3:
			return Inst{Op: OpMov, Size: 8, A: mem, B: RegOp(rs2)}, nil
		default:
			return bad("bad store funct3")
		}

	case 0x13: // OP-IMM
		if rd == RVZero {
			return Inst{Op: OpNop}, nil
		}
		switch funct3 {
		case 0: // addi
			if rs1 == RVZero {
				return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: ImmOp(immI)}, nil
			}
			if immI == 0 {
				return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: RegOp(rs1)}, nil
			}
			return Inst{Op: OpAdd, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(immI)}, nil
		case 1: // slli
			if funct7>>1 != 0 {
				return bad("bad slli funct6")
			}
			return Inst{Op: OpShl, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(int64(w >> 20 & 0x3F))}, nil
		case 2:
			return Inst{Op: OpSlt, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(immI)}, nil
		case 3:
			return Inst{Op: OpSltu, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(immI)}, nil
		case 4:
			return Inst{Op: OpXor, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(immI)}, nil
		case 5: // srli/srai
			switch funct7 >> 1 {
			case 0:
				return Inst{Op: OpShr, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(int64(w >> 20 & 0x3F))}, nil
			case 0x10:
				return Inst{Op: OpSar, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(int64(w >> 20 & 0x3F))}, nil
			default:
				return bad("bad shift funct6")
			}
		case 6:
			return Inst{Op: OpOr, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(immI)}, nil
		default:
			return Inst{Op: OpAnd, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: ImmOp(immI)}, nil
		}

	case 0x33: // OP
		if rd == RVZero {
			return Inst{Op: OpNop}, nil
		}
		mk := func(op Op) (Inst, error) {
			return Inst{Op: op, Size: 8, A: RegOp(rd), B: RegOp(rs1), C: RegOp(rs2)}, nil
		}
		switch funct7 {
		case 0:
			switch funct3 {
			case 0:
				return mk(OpAdd)
			case 1:
				return mk(OpShl)
			case 2:
				return mk(OpSlt)
			case 3:
				return mk(OpSltu)
			case 4:
				return mk(OpXor)
			case 5:
				return mk(OpShr)
			case 6:
				return mk(OpOr)
			default:
				return mk(OpAnd)
			}
		case 0x20:
			switch funct3 {
			case 0:
				return mk(OpSub)
			case 5:
				return mk(OpSar)
			default:
				return bad("bad funct3 for funct7=0x20")
			}
		case 1: // M extension
			switch funct3 {
			case 0:
				return mk(OpImul)
			case 4:
				return mk(OpDiv)
			case 5:
				return mk(OpDivU)
			case 6:
				return mk(OpRem)
			case 7:
				return mk(OpRemU)
			default:
				return bad("unsupported M-extension instruction")
			}
		default:
			return bad("bad OP funct7")
		}

	case 0x73: // SYSTEM
		switch w {
		case 0x00000073:
			return Inst{Op: OpSyscall}, nil
		case 0x00100073:
			return Inst{Op: OpInt3}, nil
		default:
			return bad("unsupported system instruction")
		}
	}
	return bad("unsupported opcode")
}

// creg maps a 3-bit compressed register field onto x8..x15.
func creg(f uint16) Reg { return Reg(f&7) + 8 }

// rvDecodeCompressed decodes one RVC (compressed) instruction as its base
// expansion (without Addr/Len). All re-encodes emit the 4-byte canonical
// form; round trips are encode-fixpoint stable, not length preserving.
func rvDecodeCompressed(h uint16, addr uint64, quiet bool) (Inst, error) {
	bad := func(reason string) (Inst, error) { return Inst{}, rvDecodeError(quiet, addr, byte(h), reason) }
	if h == 0 {
		return bad("illegal instruction (all zero)")
	}
	funct3 := h >> 13
	switch h & 3 {
	case 0:
		switch funct3 {
		case 0: // c.addi4spn
			imm := int64(h>>11&3)<<4 | int64(h>>7&0xF)<<6 | int64(h>>6&1)<<2 | int64(h>>5&1)<<3
			if imm == 0 {
				return bad("reserved c.addi4spn")
			}
			return Inst{Op: OpAdd, Size: 8, A: RegOp(creg(h >> 2)), B: RegOp(RVSP), C: ImmOp(imm)}, nil
		case 2: // c.lw
			imm := int64(h>>10&7)<<3 | int64(h>>6&1)<<2 | int64(h>>5&1)<<6
			return Inst{Op: OpLoad, Size: 4, A: RegOp(creg(h >> 2)), B: MemOp(creg(h>>7), int32(imm))}, nil
		case 3: // c.ld
			imm := int64(h>>10&7)<<3 | int64(h>>5&3)<<6
			return Inst{Op: OpMov, Size: 8, A: RegOp(creg(h >> 2)), B: MemOp(creg(h>>7), int32(imm))}, nil
		case 6: // c.sw
			imm := int64(h>>10&7)<<3 | int64(h>>6&1)<<2 | int64(h>>5&1)<<6
			return Inst{Op: OpMov, Size: 4, A: MemOp(creg(h>>7), int32(imm)), B: RegOp(creg(h >> 2))}, nil
		case 7: // c.sd
			imm := int64(h>>10&7)<<3 | int64(h>>5&3)<<6
			return Inst{Op: OpMov, Size: 8, A: MemOp(creg(h>>7), int32(imm)), B: RegOp(creg(h >> 2))}, nil
		default:
			return bad("unsupported compressed Q0 instruction")
		}

	case 1:
		switch funct3 {
		case 0: // c.nop / c.addi
			rd := Reg(h >> 7 & 0x1F)
			imm := signExtend(uint64(h>>12&1)<<5|uint64(h>>2&0x1F), 6)
			if rd == RVZero || imm == 0 {
				return Inst{Op: OpNop}, nil
			}
			return Inst{Op: OpAdd, Size: 8, A: RegOp(rd), B: RegOp(rd), C: ImmOp(imm)}, nil
		case 2: // c.li
			rd := Reg(h >> 7 & 0x1F)
			if rd == RVZero {
				return Inst{Op: OpNop}, nil
			}
			imm := signExtend(uint64(h>>12&1)<<5|uint64(h>>2&0x1F), 6)
			return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: ImmOp(imm)}, nil
		case 3:
			rd := Reg(h >> 7 & 0x1F)
			switch rd {
			case RVSP: // c.addi16sp
				imm := signExtend(uint64(h>>12&1)<<9|
					uint64(h>>6&1)<<4|uint64(h>>5&1)<<6|
					uint64(h>>3&3)<<7|uint64(h>>2&1)<<5, 10)
				if imm == 0 {
					return bad("reserved c.addi16sp")
				}
				return Inst{Op: OpAdd, Size: 8, A: RegOp(RVSP), B: RegOp(RVSP), C: ImmOp(imm)}, nil
			case RVZero:
				return Inst{Op: OpNop}, nil
			default: // c.lui
				imm := signExtend(uint64(h>>12&1)<<17|uint64(h>>2&0x1F)<<12, 18)
				if imm == 0 {
					return bad("reserved c.lui")
				}
				return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: ImmOp(imm)}, nil
			}
		case 4: // misc-alu
			rd := creg(h >> 7)
			switch h >> 10 & 3 {
			case 0: // c.srli
				shamt := int64(h>>12&1)<<5 | int64(h>>2&0x1F)
				return Inst{Op: OpShr, Size: 8, A: RegOp(rd), B: RegOp(rd), C: ImmOp(shamt)}, nil
			case 1: // c.srai
				shamt := int64(h>>12&1)<<5 | int64(h>>2&0x1F)
				return Inst{Op: OpSar, Size: 8, A: RegOp(rd), B: RegOp(rd), C: ImmOp(shamt)}, nil
			case 2: // c.andi
				imm := signExtend(uint64(h>>12&1)<<5|uint64(h>>2&0x1F), 6)
				return Inst{Op: OpAnd, Size: 8, A: RegOp(rd), B: RegOp(rd), C: ImmOp(imm)}, nil
			default:
				if h>>12&1 != 0 {
					return bad("unsupported compressed W-form")
				}
				rs2 := creg(h >> 2)
				var op Op
				switch h >> 5 & 3 {
				case 0:
					op = OpSub
				case 1:
					op = OpXor
				case 2:
					op = OpOr
				default:
					op = OpAnd
				}
				return Inst{Op: op, Size: 8, A: RegOp(rd), B: RegOp(rd), C: RegOp(rs2)}, nil
			}
		case 5: // c.j
			imm := signExtend(uint64(h>>12&1)<<11|
				uint64(h>>11&1)<<4|uint64(h>>9&3)<<8|uint64(h>>8&1)<<10|
				uint64(h>>7&1)<<6|uint64(h>>6&1)<<7|uint64(h>>3&7)<<1|
				uint64(h>>2&1)<<5, 12)
			return Inst{Op: OpJmp, Size: 8, A: ImmOp(int64(addr + uint64(imm)))}, nil
		case 6, 7: // c.beqz / c.bnez
			imm := signExtend(uint64(h>>12&1)<<8|
				uint64(h>>10&3)<<3|uint64(h>>5&3)<<6|
				uint64(h>>3&3)<<1|uint64(h>>2&1)<<5, 9)
			cond := CondE
			if funct3 == 7 {
				cond = CondNE
			}
			return Inst{Op: OpBcc, Cond: cond, Size: 8,
				A: ImmOp(int64(addr + uint64(imm))), B: RegOp(creg(h >> 7)), C: RegOp(RVZero)}, nil
		default:
			return bad("unsupported compressed Q1 instruction")
		}

	default: // quadrant 2
		rd := Reg(h >> 7 & 0x1F)
		switch funct3 {
		case 0: // c.slli
			if rd == RVZero {
				return Inst{Op: OpNop}, nil
			}
			shamt := int64(h>>12&1)<<5 | int64(h>>2&0x1F)
			return Inst{Op: OpShl, Size: 8, A: RegOp(rd), B: RegOp(rd), C: ImmOp(shamt)}, nil
		case 2: // c.lwsp
			if rd == RVZero {
				return bad("reserved c.lwsp")
			}
			imm := int64(h>>12&1)<<5 | int64(h>>4&7)<<2 | int64(h>>2&3)<<6
			return Inst{Op: OpLoad, Size: 4, A: RegOp(rd), B: MemOp(RVSP, int32(imm))}, nil
		case 3: // c.ldsp
			if rd == RVZero {
				return bad("reserved c.ldsp")
			}
			imm := int64(h>>12&1)<<5 | int64(h>>5&3)<<3 | int64(h>>2&7)<<6
			return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: MemOp(RVSP, int32(imm))}, nil
		case 4:
			rs2 := Reg(h >> 2 & 0x1F)
			if h>>12&1 == 0 {
				if rs2 == RVZero { // c.jr
					if rd == RVZero {
						return bad("reserved c.jr")
					}
					return Inst{Op: OpJmp, Size: 8, A: RegOp(rd), B: ImmOp(0)}, nil
				}
				if rd == RVZero { // hint
					return Inst{Op: OpNop}, nil
				}
				return Inst{Op: OpMov, Size: 8, A: RegOp(rd), B: RegOp(rs2)}, nil // c.mv
			}
			if rs2 == RVZero {
				if rd == RVZero { // c.ebreak
					return Inst{Op: OpInt3}, nil
				}
				return Inst{Op: OpCall, Size: 8, A: RegOp(rd), B: ImmOp(0)}, nil // c.jalr
			}
			if rd == RVZero { // hint
				return Inst{Op: OpNop}, nil
			}
			return Inst{Op: OpAdd, Size: 8, A: RegOp(rd), B: RegOp(rd), C: RegOp(rs2)}, nil // c.add
		case 6: // c.swsp
			imm := int64(h>>9&0xF)<<2 | int64(h>>7&3)<<6
			return Inst{Op: OpMov, Size: 4, A: MemOp(RVSP, int32(imm)), B: RegOp(Reg(h >> 2 & 0x1F))}, nil
		case 7: // c.sdsp
			imm := int64(h>>10&7)<<3 | int64(h>>7&7)<<6
			return Inst{Op: OpMov, Size: 8, A: MemOp(RVSP, int32(imm)), B: RegOp(Reg(h >> 2 & 0x1F))}, nil
		default:
			return bad("unsupported compressed Q2 instruction")
		}
	}
}

// fitsImm12 reports whether v fits a 12-bit signed immediate.
func fitsImm12(v int64) bool { return v >= -2048 && v < 2048 }

// Encode emits the canonical 4-byte encoding for an instruction placed at
// pc. Compressed decodes re-encode as their base expansions; the fuzz
// contract is encode-fixpoint stability, not byte preservation.
func (b rv64Backend) Encode(inst Inst, pc uint64) ([]byte, error) {
	w, err := EncodeRV64(inst, pc)
	if err != nil {
		return nil, err
	}
	return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}, nil
}

// EncodeError mirrors the x86 encoder's error reporting for RV64.
func rvEncodeError(format string, args ...any) error {
	return fmt.Errorf("isa: rv64 encode: "+format, args...)
}

func rvR(funct7, rs2, rs1, funct3, rd, opcode uint32) uint32 {
	return funct7<<25 | rs2<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

func rvI(imm int64, rs1, funct3, rd, opcode uint32) uint32 {
	return uint32(imm&0xFFF)<<20 | rs1<<15 | funct3<<12 | rd<<7 | opcode
}

func rvS(imm int64, rs2, rs1, funct3, opcode uint32) uint32 {
	return uint32(imm>>5&0x7F)<<25 | rs2<<20 | rs1<<15 | funct3<<12 | uint32(imm&0x1F)<<7 | opcode
}

func rvB(imm int64, rs2, rs1, funct3 uint32) uint32 {
	return uint32(imm>>12&1)<<31 | uint32(imm>>5&0x3F)<<25 | rs2<<20 | rs1<<15 |
		funct3<<12 | uint32(imm>>1&0xF)<<8 | uint32(imm>>11&1)<<7 | 0x63
}

func rvJ(imm int64, rd uint32) uint32 {
	return uint32(imm>>20&1)<<31 | uint32(imm>>1&0x3FF)<<21 | uint32(imm>>11&1)<<20 |
		uint32(imm>>12&0xFF)<<12 | rd<<7 | 0x6F
}

// rvALUFunct maps a three-operand ALU op onto (funct3, funct7 for the
// register form, whether an immediate form exists).
func rvALUFunct(op Op) (funct3, funct7 uint32, hasImm bool, ok bool) {
	switch op {
	case OpAdd:
		return 0, 0, true, true
	case OpShl:
		return 1, 0, true, true
	case OpSlt:
		return 2, 0, true, true
	case OpSltu:
		return 3, 0, true, true
	case OpXor:
		return 4, 0, true, true
	case OpShr:
		return 5, 0, true, true
	case OpOr:
		return 6, 0, true, true
	case OpAnd:
		return 7, 0, true, true
	case OpSub:
		return 0, 0x20, false, true
	case OpSar:
		return 5, 0x20, true, true
	case OpImul:
		return 0, 1, false, true
	case OpDiv:
		return 4, 1, false, true
	case OpDivU:
		return 5, 1, false, true
	case OpRem:
		return 6, 1, false, true
	case OpRemU:
		return 7, 1, false, true
	}
	return 0, 0, false, false
}

// EncodeRV64 is the RV64 encoder returning the instruction word itself, for
// callers that place words into a buffer they own (the RV64 assembler) and
// would otherwise pay a slice allocation per instruction.
func EncodeRV64(inst Inst, pc uint64) (uint32, error) {
	reg := func(o Operand) uint32 { return uint32(o.Reg) }
	branchRel := func(target int64) (int64, error) {
		rel := target - int64(pc)
		if rel < -4096 || rel >= 4096 || rel&1 != 0 {
			return 0, rvEncodeError("branch target out of range: %#x -> %#x", pc, target)
		}
		return rel, nil
	}

	switch inst.Op {
	case OpNop:
		return rvI(0, 0, 0, 0, 0x13), nil // addi x0, x0, 0

	case OpSyscall:
		return 0x00000073, nil

	case OpInt3:
		return 0x00100073, nil

	case OpMov:
		switch {
		case inst.A.Kind == KindReg && inst.B.Kind == KindReg:
			return rvI(0, reg(inst.B), 0, reg(inst.A), 0x13), nil // addi rd, rs, 0
		case inst.A.Kind == KindReg && inst.B.Kind == KindImm:
			v := inst.B.Imm
			if fitsImm12(v) {
				return rvI(v, 0, 0, reg(inst.A), 0x13), nil // addi rd, x0, imm
			}
			if v&0xFFF == 0 && v == signExtend(uint64(v)&0xFFFFFFFF, 32) {
				return uint32(v)&0xFFFFF000 | reg(inst.A)<<7 | 0x37, nil // lui
			}
			return 0, rvEncodeError("li immediate %#x needs a multi-instruction sequence", v)
		case inst.A.Kind == KindReg && inst.B.Kind == KindMem:
			m := inst.B.Mem
			if !m.HasBase || m.HasIndex || m.RIPRel {
				return 0, rvEncodeError("unsupported memory operand")
			}
			if inst.Size != 8 && inst.Size != 0 {
				return 0, rvEncodeError("register loads via mov must be 8 bytes (use OpLoad)")
			}
			return rvI(int64(m.Disp), uint32(m.Base), 3, reg(inst.A), 0x03), nil // ld
		case inst.A.Kind == KindMem && inst.B.Kind == KindReg:
			m := inst.A.Mem
			if !m.HasBase || m.HasIndex || m.RIPRel {
				return 0, rvEncodeError("unsupported memory operand")
			}
			var funct3 uint32
			switch inst.Size {
			case 1:
				funct3 = 0
			case 2:
				funct3 = 1
			case 4:
				funct3 = 2
			case 8, 0:
				funct3 = 3
			default:
				return 0, rvEncodeError("bad store size %d", inst.Size)
			}
			return rvS(int64(m.Disp), reg(inst.B), uint32(m.Base), funct3, 0x23), nil
		}
		return 0, rvEncodeError("unsupported mov form")

	case OpLoad, OpLoadU:
		if inst.A.Kind != KindReg || inst.B.Kind != KindMem {
			return 0, rvEncodeError("bad load operands")
		}
		m := inst.B.Mem
		if !m.HasBase || m.HasIndex || m.RIPRel {
			return 0, rvEncodeError("unsupported memory operand")
		}
		var funct3 uint32
		switch inst.Size {
		case 1:
			funct3 = 0
		case 2:
			funct3 = 1
		case 4:
			funct3 = 2
		default:
			return 0, rvEncodeError("bad load size %d", inst.Size)
		}
		if inst.Op == OpLoadU {
			funct3 |= 4
		}
		return rvI(int64(m.Disp), uint32(m.Base), funct3, reg(inst.A), 0x03), nil

	case OpAuipc:
		if inst.A.Kind != KindReg || inst.B.Kind != KindImm {
			return 0, rvEncodeError("bad auipc operands")
		}
		v := inst.B.Imm
		if v&0xFFF != 0 || v != signExtend(uint64(v)&0xFFFFFFFF, 32) {
			return 0, rvEncodeError("bad auipc immediate %#x", v)
		}
		return uint32(v)&0xFFFFF000 | reg(inst.A)<<7 | 0x17, nil

	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar,
		OpSlt, OpSltu, OpImul, OpDiv, OpDivU, OpRem, OpRemU:
		if inst.A.Kind != KindReg || inst.B.Kind != KindReg || inst.C.Kind == KindNone {
			return 0, rvEncodeError("%s needs the three-operand form", inst.Op)
		}
		funct3, funct7, hasImm, ok := rvALUFunct(inst.Op)
		if !ok {
			return 0, rvEncodeError("unsupported ALU op %s", inst.Op)
		}
		if inst.C.Kind == KindReg {
			return rvR(funct7, reg(inst.C), reg(inst.B), funct3, reg(inst.A), 0x33), nil
		}
		if !hasImm {
			return 0, rvEncodeError("%s has no immediate form", inst.Op)
		}
		v := inst.C.Imm
		switch inst.Op {
		case OpShl, OpShr, OpSar:
			if v < 0 || v > 63 {
				return 0, rvEncodeError("bad shift amount %d", v)
			}
			return rvI(v|int64(funct7)<<5, reg(inst.B), funct3, reg(inst.A), 0x13), nil
		default:
			if !fitsImm12(v) {
				return 0, rvEncodeError("immediate %#x out of range", v)
			}
			return rvI(v, reg(inst.B), funct3, reg(inst.A), 0x13), nil
		}

	case OpBcc:
		if inst.A.Kind != KindImm || inst.B.Kind != KindReg || inst.C.Kind != KindReg {
			return 0, rvEncodeError("bad branch operands")
		}
		var funct3 uint32
		switch inst.Cond {
		case CondE:
			funct3 = 0
		case CondNE:
			funct3 = 1
		case CondL:
			funct3 = 4
		case CondGE:
			funct3 = 5
		case CondB:
			funct3 = 6
		case CondAE:
			funct3 = 7
		default:
			return 0, rvEncodeError("unsupported branch condition %s", inst.Cond)
		}
		rel, err := branchRel(inst.A.Imm)
		if err != nil {
			return 0, err
		}
		return rvB(rel, reg(inst.C), reg(inst.B), funct3), nil

	case OpJmp, OpCall, OpJal:
		rd := uint32(0)
		if inst.Op == OpCall {
			rd = uint32(RVRA)
		} else if inst.Op == OpJal {
			rd = reg(inst.B)
		}
		if inst.A.Kind == KindImm { // jal
			rel := inst.A.Imm - int64(pc)
			if rel < -(1<<20) || rel >= 1<<20 || rel&1 != 0 {
				return 0, rvEncodeError("jump target out of range: %#x -> %#x", pc, inst.A.Imm)
			}
			return rvJ(rel, rd), nil
		}
		if inst.Op == OpJal {
			return 0, rvEncodeError("jal needs an immediate target")
		}
		if inst.A.Kind != KindReg {
			return 0, rvEncodeError("bad jump operand")
		}
		off := int64(0)
		if inst.B.Kind == KindImm {
			off = inst.B.Imm
		}
		if !fitsImm12(off) {
			return 0, rvEncodeError("jalr offset %#x out of range", off)
		}
		return rvI(off, reg(inst.A), 0, rd, 0x67), nil

	case OpJalr:
		if inst.A.Kind != KindReg || inst.B.Kind != KindReg {
			return 0, rvEncodeError("bad jalr operands")
		}
		off := int64(0)
		if inst.C.Kind == KindImm {
			off = inst.C.Imm
		}
		if !fitsImm12(off) {
			return 0, rvEncodeError("jalr offset %#x out of range", off)
		}
		return rvI(off, reg(inst.A), 0, reg(inst.B), 0x67), nil

	case OpRet:
		return rvI(0, uint32(RVRA), 0, 0, 0x67), nil // jalr x0, 0(ra)
	}
	return 0, rvEncodeError("unsupported op %s", inst.Op)
}

// rvCondName maps a condition onto the RISC-V branch mnemonic suffix.
func rvCondName(c Cond) string {
	switch c {
	case CondE:
		return "eq"
	case CondNE:
		return "ne"
	case CondL:
		return "lt"
	case CondGE:
		return "ge"
	case CondB:
		return "ltu"
	case CondAE:
		return "geu"
	}
	return c.String()
}

// FormatInst renders the instruction in RISC-V assembly syntax, preferring
// the standard pseudo-instruction forms (li, mv, j, jr, ret).
func (rv64Backend) FormatInst(inst *Inst) string {
	r := func(o Operand) string { return RVRegName(o.Reg) }
	mem := func(o Operand) string { return fmt.Sprintf("%d(%s)", o.Mem.Disp, RVRegName(o.Mem.Base)) }
	imm := func(v int64) string {
		if v >= -9 && v <= 9 {
			return fmt.Sprintf("%d", v)
		}
		if v < 0 {
			return fmt.Sprintf("-0x%x", uint64(-v))
		}
		return fmt.Sprintf("0x%x", uint64(v))
	}

	switch inst.Op {
	case OpNop:
		return "nop"
	case OpSyscall:
		return "ecall"
	case OpInt3:
		return "ebreak"
	case OpAuipc:
		return fmt.Sprintf("auipc %s, 0x%x", r(inst.A), uint32(inst.B.Imm)>>12)
	case OpMov:
		switch {
		case inst.A.Kind == KindReg && inst.B.Kind == KindImm:
			return fmt.Sprintf("li %s, %s", r(inst.A), imm(inst.B.Imm))
		case inst.A.Kind == KindReg && inst.B.Kind == KindReg:
			return fmt.Sprintf("mv %s, %s", r(inst.A), r(inst.B))
		case inst.A.Kind == KindReg && inst.B.Kind == KindMem:
			return fmt.Sprintf("ld %s, %s", r(inst.A), mem(inst.B))
		default:
			op := [9]string{1: "sb", 2: "sh", 4: "sw", 8: "sd"}[inst.opSize()]
			return fmt.Sprintf("%s %s, %s", op, r(inst.B), mem(inst.A))
		}
	case OpLoad, OpLoadU:
		op := [5]string{1: "lb", 2: "lh", 4: "lw"}[inst.Size]
		if inst.Op == OpLoadU {
			op += "u"
		}
		return fmt.Sprintf("%s %s, %s", op, r(inst.A), mem(inst.B))
	case OpBcc:
		return fmt.Sprintf("b%s %s, %s, %s", rvCondName(inst.Cond), r(inst.B), r(inst.C), imm(inst.A.Imm))
	case OpJmp:
		if inst.A.Kind == KindImm {
			return fmt.Sprintf("j %s", imm(inst.A.Imm))
		}
		off := int64(0)
		if inst.B.Kind == KindImm {
			off = inst.B.Imm
		}
		if inst.A.Reg == RVRA && off == 0 {
			return "ret"
		}
		if off == 0 {
			return fmt.Sprintf("jr %s", r(inst.A))
		}
		return fmt.Sprintf("jalr zero, %d(%s)", off, r(inst.A))
	case OpCall:
		if inst.A.Kind == KindImm {
			return fmt.Sprintf("call %s", imm(inst.A.Imm))
		}
		off := int64(0)
		if inst.B.Kind == KindImm {
			off = inst.B.Imm
		}
		return fmt.Sprintf("jalr ra, %d(%s)", off, r(inst.A))
	case OpJal:
		return fmt.Sprintf("jal %s, %s", r(inst.B), imm(inst.A.Imm))
	case OpJalr:
		off := int64(0)
		if inst.C.Kind == KindImm {
			off = inst.C.Imm
		}
		return fmt.Sprintf("jalr %s, %d(%s)", r(inst.B), off, r(inst.A))
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar,
		OpSlt, OpSltu, OpImul, OpDiv, OpDivU, OpRem, OpRemU:
		name := inst.Op.String()
		if inst.Op == OpImul {
			name = "mul"
		}
		if inst.Op == OpShl {
			name = "sll"
		}
		if inst.Op == OpShr {
			name = "srl"
		}
		if inst.Op == OpSar {
			name = "sra"
		}
		if inst.C.Kind == KindImm {
			switch inst.Op {
			case OpShl:
				name = "slli"
			case OpShr:
				name = "srli"
			case OpSar:
				name = "srai"
			case OpSlt:
				name = "slti"
			case OpSltu:
				name = "sltiu"
			default:
				name += "i"
			}
			return fmt.Sprintf("%s %s, %s, %s", name, r(inst.A), r(inst.B), imm(inst.C.Imm))
		}
		return fmt.Sprintf("%s %s, %s, %s", name, r(inst.A), r(inst.B), r(inst.C))
	}
	return inst.String()
}
