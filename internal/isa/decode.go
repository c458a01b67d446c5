package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when the byte buffer ends mid-instruction.
var ErrTruncated = errors.New("isa: truncated instruction")

// DecodeError describes bytes that do not form a supported instruction.
type DecodeError struct {
	Addr   uint64
	Byte   byte
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: undecodable byte %#02x at %#x: %s", e.Byte, e.Addr, e.Reason)
}

// errUndecodable is what a quiet decode returns for bytes that do not form
// a supported instruction: a shared value, so a scan that only tests for
// failure allocates nothing per undecodable address.
var errUndecodable = errors.New("isa: undecodable bytes")

// decoder walks a byte slice.
type decoder struct {
	code  []byte
	pos   int
	addr  uint64
	rex   uint8
	has   bool // rex prefix present
	quiet bool // fail with errUndecodable instead of a *DecodeError
}

// fail reports bytes that do not decode.
func (d *decoder) fail(b byte, reason string) error {
	if d.quiet {
		return errUndecodable
	}
	return &DecodeError{Addr: d.addr, Byte: b, Reason: reason}
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, ErrTruncated
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) i8() (int64, error) {
	b, err := d.u8()
	return int64(int8(b)), err
}

func (d *decoder) i16() (int64, error) {
	if d.pos+2 > len(d.code) {
		return 0, ErrTruncated
	}
	v := int64(int16(binary.LittleEndian.Uint16(d.code[d.pos:])))
	d.pos += 2
	return v, nil
}

func (d *decoder) i32() (int64, error) {
	if d.pos+4 > len(d.code) {
		return 0, ErrTruncated
	}
	v := int64(int32(binary.LittleEndian.Uint32(d.code[d.pos:])))
	d.pos += 4
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	if d.pos+8 > len(d.code) {
		return 0, ErrTruncated
	}
	v := int64(binary.LittleEndian.Uint64(d.code[d.pos:]))
	d.pos += 8
	return v, nil
}

// size returns the operand size selected by REX.W.
func (d *decoder) size() uint8 {
	if d.rex&rexW != 0 {
		return 8
	}
	return 4
}

// modRM parses a ModRM byte (plus SIB/displacement) and returns the reg
// field (extended by REX.R) and the r/m operand.
func (d *decoder) modRM() (uint8, Operand, error) {
	mb, err := d.u8()
	if err != nil {
		return 0, Operand{}, err
	}
	mod := mb >> 6
	reg := (mb >> 3) & 7
	rm := mb & 7
	if d.rex&rexR != 0 {
		reg |= 8
	}

	if mod == 3 {
		r := Reg(rm)
		if d.rex&rexB != 0 {
			r |= 8
		}
		return reg, RegOp(r), nil
	}

	var m Mem
	useSIB := rm == 4
	if useSIB {
		sib, err := d.u8()
		if err != nil {
			return 0, Operand{}, err
		}
		scale := uint8(1) << (sib >> 6)
		idx := (sib >> 3) & 7
		base := sib & 7
		if d.rex&rexX != 0 {
			idx |= 8
		}
		if idx != 4 { // index 100 (rsp) means "no index"
			m.HasIndex = true
			m.Index = Reg(idx)
			m.Scale = scale
		}
		if mod == 0 && base == 5 {
			// No base register, disp32 follows.
		} else {
			m.HasBase = true
			m.Base = Reg(base)
			if d.rex&rexB != 0 {
				m.Base |= 8
			}
		}
	} else if mod == 0 && rm == 5 {
		m.RIPRel = true
	} else {
		m.HasBase = true
		m.Base = Reg(rm)
		if d.rex&rexB != 0 {
			m.Base |= 8
		}
	}

	switch {
	case mod == 1:
		v, err := d.i8()
		if err != nil {
			return 0, Operand{}, err
		}
		m.Disp = int32(v)
	case mod == 2 || m.RIPRel || (useSIB && mod == 0 && !m.HasBase):
		v, err := d.i32()
		if err != nil {
			return 0, Operand{}, err
		}
		m.Disp = int32(v)
	}
	return reg, Operand{Kind: KindMem, Mem: m}, nil
}

// opcodeReg extracts the low-3-bit register from a "+r" opcode, extended by
// REX.B.
func (d *decoder) opcodeReg(op byte) Reg {
	r := Reg(op & 7)
	if d.rex&rexB != 0 {
		r |= 8
	}
	return r
}

// alu8 maps the 8-bit group-1 ALU opcodes to mnemonics. The bool reports
// whether the direction is r/m <- reg (true) or reg <- r/m (false).
func alu8(op byte) (Op, bool, bool) {
	switch op {
	case 0x00:
		return OpAdd, true, true
	case 0x02:
		return OpAdd, false, true
	case 0x08:
		return OpOr, true, true
	case 0x0A:
		return OpOr, false, true
	case 0x20:
		return OpAnd, true, true
	case 0x22:
		return OpAnd, false, true
	case 0x28:
		return OpSub, true, true
	case 0x2A:
		return OpSub, false, true
	case 0x30:
		return OpXor, true, true
	case 0x32:
		return OpXor, false, true
	case 0x38:
		return OpCmp, true, true
	case 0x3A:
		return OpCmp, false, true
	}
	return OpInvalid, false, false
}

// alu64 maps the 32/64-bit group-1 ALU opcodes.
func alu64(op byte) (Op, bool, bool) {
	switch op {
	case 0x01:
		return OpAdd, true, true
	case 0x03:
		return OpAdd, false, true
	case 0x09:
		return OpOr, true, true
	case 0x0B:
		return OpOr, false, true
	case 0x21:
		return OpAnd, true, true
	case 0x23:
		return OpAnd, false, true
	case 0x29:
		return OpSub, true, true
	case 0x2B:
		return OpSub, false, true
	case 0x31:
		return OpXor, true, true
	case 0x33:
		return OpXor, false, true
	case 0x39:
		return OpCmp, true, true
	case 0x3B:
		return OpCmp, false, true
	}
	return OpInvalid, false, false
}

var _group81 = map[uint8]Op{0: OpAdd, 1: OpOr, 4: OpAnd, 5: OpSub, 6: OpXor, 7: OpCmp}
var _shiftOps = map[uint8]Op{4: OpShl, 5: OpShr, 7: OpSar}

// Decode decodes the instruction starting at code[0], which is assumed to
// live at virtual address addr. Relative branch targets are resolved to
// absolute addresses. Unsupported or illegal byte sequences return a
// *DecodeError; buffers that end mid-instruction return ErrTruncated.
func Decode(code []byte, addr uint64) (Inst, error) {
	return decode(code, addr, false)
}

// decode is Decode; quiet selects errUndecodable over a *DecodeError.
func decode(code []byte, addr uint64, quiet bool) (Inst, error) {
	d := decoder{code: code, addr: addr, quiet: quiet}
	op, err := d.u8()
	if err != nil {
		return Inst{}, err
	}
	if op >= 0x40 && op <= 0x4F {
		d.rex = op & 0x0F
		d.has = true
		op, err = d.u8()
		if err != nil {
			return Inst{}, err
		}
	}

	inst, err := d.decodeOp(op)
	if err != nil {
		return Inst{}, err
	}
	inst.Addr = addr
	inst.Len = uint8(d.pos)
	return inst, nil
}

func (d *decoder) decodeOp(op byte) (Inst, error) {
	size := d.size()

	// Single-byte, operand-free opcodes.
	switch op {
	case 0x90:
		return Inst{Op: OpNop}, nil
	case 0xC3:
		return Inst{Op: OpRet}, nil
	case 0xC9:
		return Inst{Op: OpLeave}, nil
	case 0xCC:
		return Inst{Op: OpInt3}, nil
	case 0xF4:
		return Inst{Op: OpHlt}, nil
	case 0x99:
		return Inst{Op: OpCqo, Size: size}, nil
	}

	// push/pop reg.
	if op >= 0x50 && op <= 0x57 {
		return Inst{Op: OpPush, A: RegOp(d.opcodeReg(op))}, nil
	}
	if op >= 0x58 && op <= 0x5F {
		return Inst{Op: OpPop, A: RegOp(d.opcodeReg(op))}, nil
	}
	// mov reg, imm.
	if op >= 0xB8 && op <= 0xBF {
		r := d.opcodeReg(op)
		if d.rex&rexW != 0 {
			v, err := d.i64()
			if err != nil {
				return Inst{}, err
			}
			return Inst{Op: OpMov, Size: 8, A: RegOp(r), B: ImmOp(v)}, nil
		}
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMov, Size: 4, A: RegOp(r), B: ImmOp(v)}, nil
	}
	// jcc rel8.
	if op >= 0x70 && op <= 0x7F {
		rel, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(rel)
		return Inst{Op: OpJcc, Cond: Cond(op & 0x0F), A: ImmOp(int64(target))}, nil
	}

	// Group-1 ALU register forms.
	if mn, rmDst, ok := alu64(op); ok {
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		if rmDst {
			return Inst{Op: mn, Size: size, A: rm, B: RegOp(Reg(reg))}, nil
		}
		return Inst{Op: mn, Size: size, A: RegOp(Reg(reg)), B: rm}, nil
	}
	if mn, rmDst, ok := alu8(op); ok {
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		if rmDst {
			return Inst{Op: mn, Size: 1, A: rm, B: RegOp(Reg(reg))}, nil
		}
		return Inst{Op: mn, Size: 1, A: RegOp(Reg(reg)), B: rm}, nil
	}

	switch op {
	case 0x63: // movsxd
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMovsxd, Size: 8, A: RegOp(Reg(reg)), B: rm}, nil

	case 0x68:
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpPush, A: ImmOp(v)}, nil
	case 0x6A:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpPush, A: ImmOp(v)}, nil

	case 0x81, 0x83:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		mn, ok := _group81[uint8(reg&7)]
		if !ok {
			return Inst{}, d.fail(op, "unsupported group-1 digit")
		}
		var v int64
		if op == 0x81 {
			v, err = d.i32()
		} else {
			v, err = d.i8()
		}
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: mn, Size: size, A: rm, B: ImmOp(v)}, nil

	case 0x84, 0x85:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		sz := size
		if op == 0x84 {
			sz = 1
		}
		return Inst{Op: OpTest, Size: sz, A: rm, B: RegOp(Reg(reg))}, nil

	case 0x87:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpXchg, Size: size, A: rm, B: RegOp(Reg(reg))}, nil

	case 0x88, 0x89:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		sz := size
		if op == 0x88 {
			sz = 1
		}
		return Inst{Op: OpMov, Size: sz, A: rm, B: RegOp(Reg(reg))}, nil

	case 0x8A, 0x8B:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		sz := size
		if op == 0x8A {
			sz = 1
		}
		return Inst{Op: OpMov, Size: sz, A: RegOp(Reg(reg)), B: rm}, nil

	case 0x8D:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		if rm.Kind != KindMem {
			return Inst{}, d.fail(op, "lea with register source")
		}
		return Inst{Op: OpLea, Size: size, A: RegOp(Reg(reg)), B: rm}, nil

	case 0x8F:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		if reg&7 != 0 {
			return Inst{}, d.fail(op, "unsupported 8F digit")
		}
		return Inst{Op: OpPop, A: rm}, nil

	case 0xC0, 0xC1:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		mn, ok := _shiftOps[uint8(reg&7)]
		if !ok {
			return Inst{}, d.fail(op, "unsupported shift digit")
		}
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		sz := size
		if op == 0xC0 {
			sz = 1
		}
		return Inst{Op: mn, Size: sz, A: rm, B: ImmOp(v & 0x3F)}, nil

	case 0xD1, 0xD3:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		mn, ok := _shiftOps[uint8(reg&7)]
		if !ok {
			return Inst{}, d.fail(op, "unsupported shift digit")
		}
		if op == 0xD1 {
			return Inst{Op: mn, Size: size, A: rm, B: ImmOp(1)}, nil
		}
		return Inst{Op: mn, Size: size, A: rm, B: RegOp(RCX)}, nil

	case 0xC2:
		v, err := d.i16()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpRet, A: ImmOp(v)}, nil

	case 0xC6:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		if reg&7 != 0 {
			return Inst{}, d.fail(op, "unsupported C6 digit")
		}
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMov, Size: 1, A: rm, B: ImmOp(v)}, nil

	case 0xC7:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		if reg&7 != 0 {
			return Inst{}, d.fail(op, "unsupported C7 digit")
		}
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMov, Size: size, A: rm, B: ImmOp(v)}, nil

	case 0xE8, 0xE9:
		rel, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(rel)
		mn := OpCall
		if op == 0xE9 {
			mn = OpJmp
		}
		return Inst{Op: mn, A: ImmOp(int64(target))}, nil

	case 0xEB:
		rel, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(rel)
		return Inst{Op: OpJmp, A: ImmOp(int64(target))}, nil

	case 0xF7:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		switch reg & 7 {
		case 0:
			v, err := d.i32()
			if err != nil {
				return Inst{}, err
			}
			return Inst{Op: OpTest, Size: size, A: rm, B: ImmOp(v)}, nil
		case 2:
			return Inst{Op: OpNot, Size: size, A: rm}, nil
		case 3:
			return Inst{Op: OpNeg, Size: size, A: rm}, nil
		case 7:
			return Inst{Op: OpIdiv, Size: size, A: rm}, nil
		default:
			return Inst{}, d.fail(op, "unsupported F7 digit")
		}

	case 0xFF:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		switch reg & 7 {
		case 0:
			return Inst{Op: OpInc, Size: size, A: rm}, nil
		case 1:
			return Inst{Op: OpDec, Size: size, A: rm}, nil
		case 2:
			return Inst{Op: OpCall, A: rm}, nil
		case 4:
			return Inst{Op: OpJmp, A: rm}, nil
		case 6:
			return Inst{Op: OpPush, A: rm}, nil
		default:
			return Inst{}, d.fail(op, "unsupported FF digit")
		}

	case 0x0F:
		return d.decode0F()
	}

	return Inst{}, d.fail(op, "unknown opcode")
}

// decode0F decodes the two-byte (0F-prefixed) opcode space.
func (d *decoder) decode0F() (Inst, error) {
	op, err := d.u8()
	if err != nil {
		return Inst{}, err
	}
	size := d.size()

	switch {
	case op == 0x05:
		return Inst{Op: OpSyscall}, nil

	case op >= 0x80 && op <= 0x8F:
		rel, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(rel)
		return Inst{Op: OpJcc, Cond: Cond(op & 0x0F), A: ImmOp(int64(target))}, nil

	case op >= 0x90 && op <= 0x9F:
		_, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpSetcc, Cond: Cond(op & 0x0F), Size: 1, A: rm}, nil

	case op == 0xAF:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpImul, Size: size, A: RegOp(Reg(reg)), B: rm}, nil

	case op == 0xB6:
		reg, rm, err := d.modRM()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMovzx, Size: size, A: RegOp(Reg(reg)), B: rm}, nil
	}

	return Inst{}, d.fail(op, "unknown 0F opcode")
}
