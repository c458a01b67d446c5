package isa

import (
	"encoding/binary"
	"fmt"
)

// EncodeError describes an instruction the encoder cannot represent.
type EncodeError struct {
	Inst   Inst
	Reason string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %s: %s", e.Inst.Op, e.Reason)
}

func encErr(inst Inst, format string, args ...any) error {
	return &EncodeError{Inst: inst, Reason: fmt.Sprintf(format, args...)}
}

// rex prefix bit masks.
const (
	rexBase = 0x40
	rexW    = 0x08
	rexR    = 0x04
	rexX    = 0x02
	rexB    = 0x01
)

func fitsInt8(v int64) bool  { return v >= -128 && v <= 127 }
func fitsInt32(v int64) bool { return v >= -(1<<31) && v < (1<<31) }

// modRMTail is the ModRM byte plus optional SIB and displacement bytes,
// together with the REX bits (R, X, B) the addressing form requires. The
// bytes live in a fixed array (ModRM + SIB + disp32 is at most six), so
// encoding allocates nothing beyond the caller's buffer.
type modRMTail struct {
	rex uint8
	n   uint8
	b   [6]byte
}

// put appends bytes to the tail.
func (t *modRMTail) put(bs ...byte) {
	t.n += uint8(copy(t.b[t.n:], bs))
}

// putDisp32 appends a little-endian 32-bit displacement.
func (t *modRMTail) putDisp32(d int32) {
	binary.LittleEndian.PutUint32(t.b[t.n:], uint32(d))
	t.n += 4
}

// encodeModRM builds the ModRM/SIB/disp byte sequence for a register field
// (either a register operand number or an opcode extension digit) and an r/m
// operand (register or memory).
func encodeModRM(regField uint8, rm Operand) (modRMTail, error) {
	var t modRMTail
	if regField >= 8 {
		t.rex |= rexR
	}
	regBits := (regField & 7) << 3

	switch rm.Kind {
	case KindReg:
		if rm.Reg >= 8 {
			t.rex |= rexB
		}
		t.put(0xC0 | regBits | uint8(rm.Reg&7))
		return t, nil

	case KindMem:
		m := rm.Mem
		if m.RIPRel {
			t.put(0x00 | regBits | 0x05)
			t.putDisp32(m.Disp)
			return t, nil
		}
		needSIB := m.HasIndex || !m.HasBase || (m.Base&7) == 4
		if m.HasIndex && m.Index == RSP {
			return t, fmt.Errorf("isa: rsp cannot be an index register")
		}
		var sib byte
		hasSIB := false
		if needSIB {
			hasSIB = true
			var scaleBits byte
			switch m.Scale {
			case 0, 1:
				scaleBits = 0
			case 2:
				scaleBits = 1 << 6
			case 4:
				scaleBits = 2 << 6
			case 8:
				scaleBits = 3 << 6
			default:
				return t, fmt.Errorf("isa: invalid scale %d", m.Scale)
			}
			idxBits := byte(4) << 3 // none
			if m.HasIndex {
				idxBits = byte(m.Index&7) << 3
				if m.Index >= 8 {
					t.rex |= rexX
				}
			}
			baseBits := byte(5) // none (requires mod=00 + disp32)
			if m.HasBase {
				baseBits = byte(m.Base & 7)
				if m.Base >= 8 {
					t.rex |= rexB
				}
			}
			sib = scaleBits | idxBits | baseBits
		} else if m.Base >= 8 {
			t.rex |= rexB
		}

		rmBits := byte(4) // SIB follows
		if !needSIB {
			rmBits = byte(m.Base & 7)
		}

		// Choose mod and displacement width: 0, 1 or 4 bytes.
		var mod byte
		dispW := 0
		switch {
		case !m.HasBase:
			// Absolute [disp32] (via SIB with base=101, mod=00).
			mod, dispW = 0, 4
		case m.Disp == 0 && (m.Base&7) != 5:
			mod = 0
		case fitsInt8(int64(m.Disp)):
			mod, dispW = 1<<6, 1
		default:
			mod, dispW = 2<<6, 4
		}

		t.put(mod | regBits | rmBits)
		if hasSIB {
			t.put(sib)
		}
		switch dispW {
		case 1:
			t.put(byte(m.Disp))
		case 4:
			t.putDisp32(m.Disp)
		}
		return t, nil

	default:
		return t, fmt.Errorf("isa: operand kind %d is not an r/m operand", rm.Kind)
	}
}

// appendImm appends a little-endian immediate of the given byte width.
func appendImm(buf []byte, v int64, width int) []byte {
	switch width {
	case 1:
		return append(buf, byte(v))
	case 2:
		return binary.LittleEndian.AppendUint16(buf, uint16(v))
	case 4:
		return binary.LittleEndian.AppendUint32(buf, uint32(v))
	default:
		return binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
}

// emit assembles prefix + opcode(s) + ModRM tail + an immediate of immW
// bytes (0 for none) into buf. rexBits are the pre-computed W/R/X/B bits;
// forceREX emits a REX prefix even when no bits are set (required to
// address sil/dil/spl/bpl in byte ops).
func emit(buf []byte, rexBits uint8, forceREX bool, opcodes []byte, tail modRMTail, imm int64, immW int) []byte {
	rexBits |= tail.rex
	if rexBits != 0 || forceREX {
		buf = append(buf, rexBase|rexBits)
	}
	buf = append(buf, opcodes...)
	buf = append(buf, tail.b[:tail.n]...)
	if immW > 0 {
		buf = appendImm(buf, imm, immW)
	}
	return buf
}

// sizeREX returns the REX.W bit for an operand size and whether the size is
// supported for general ALU forms.
func sizeREX(size uint8) (uint8, bool) {
	switch size {
	case 8:
		return rexW, true
	case 4, 1:
		return 0, true
	default:
		return 0, false
	}
}

// arithInfo gives the opcode bases and the /digit for the group-1 ALU ops.
type arithInfo struct {
	rmReg byte // op r/m, reg
	regRM byte // op reg, r/m
	digit uint8
}

var _arith = map[Op]arithInfo{
	OpAdd: {0x01, 0x03, 0},
	OpOr:  {0x09, 0x0B, 1},
	OpAnd: {0x21, 0x23, 4},
	OpSub: {0x29, 0x2B, 5},
	OpXor: {0x31, 0x33, 6},
	OpCmp: {0x39, 0x3B, 7},
}

var _shiftDigit = map[Op]uint8{OpShl: 4, OpShr: 5, OpSar: 7}

// Append encodes inst at address pc and appends the machine code to buf.
// The pc is needed to turn absolute branch targets into relative
// displacements; non-branch instructions ignore it.
func Append(buf []byte, inst Inst, pc uint64) ([]byte, error) {
	size := inst.Size
	if size == 0 {
		size = 8
	}
	wBit, ok := sizeREX(size)
	if !ok {
		return nil, encErr(inst, "unsupported operand size %d", size)
	}
	// Byte-sized register operands always get a REX prefix so that registers
	// 4..7 select spl/bpl/sil/dil uniformly.
	forceREX := size == 1 && (inst.A.Kind == KindReg || inst.B.Kind == KindReg)

	switch inst.Op {
	case OpNop:
		return append(buf, 0x90), nil
	case OpRet:
		if inst.A.Kind == KindImm {
			buf = append(buf, 0xC2)
			return appendImm(buf, inst.A.Imm, 2), nil
		}
		return append(buf, 0xC3), nil
	case OpLeave:
		return append(buf, 0xC9), nil
	case OpInt3:
		return append(buf, 0xCC), nil
	case OpHlt:
		return append(buf, 0xF4), nil
	case OpSyscall:
		return append(buf, 0x0F, 0x05), nil
	case OpCqo:
		return append(buf, rexBase|rexW, 0x99), nil

	case OpPush:
		switch inst.A.Kind {
		case KindReg:
			if inst.A.Reg >= 8 {
				buf = append(buf, rexBase|rexB)
			}
			return append(buf, 0x50|byte(inst.A.Reg&7)), nil
		case KindImm:
			if fitsInt8(inst.A.Imm) {
				return append(buf, 0x6A, byte(inst.A.Imm)), nil
			}
			if !fitsInt32(inst.A.Imm) {
				return nil, encErr(inst, "push immediate out of range")
			}
			buf = append(buf, 0x68)
			return appendImm(buf, inst.A.Imm, 4), nil
		case KindMem:
			tail, err := encodeModRM(6, inst.A)
			if err != nil {
				return nil, err
			}
			return emit(buf, 0, false, []byte{0xFF}, tail, 0, 0), nil
		}
		return nil, encErr(inst, "bad push operand")

	case OpPop:
		switch inst.A.Kind {
		case KindReg:
			if inst.A.Reg >= 8 {
				buf = append(buf, rexBase|rexB)
			}
			return append(buf, 0x58|byte(inst.A.Reg&7)), nil
		case KindMem:
			tail, err := encodeModRM(0, inst.A)
			if err != nil {
				return nil, err
			}
			return emit(buf, 0, false, []byte{0x8F}, tail, 0, 0), nil
		}
		return nil, encErr(inst, "bad pop operand")

	case OpMov:
		return encodeMov(buf, inst, size, wBit, forceREX)

	case OpLea:
		if inst.A.Kind != KindReg || inst.B.Kind != KindMem {
			return nil, encErr(inst, "lea requires reg, mem operands")
		}
		tail, err := encodeModRM(uint8(inst.A.Reg), inst.B)
		if err != nil {
			return nil, err
		}
		return emit(buf, wBit, false, []byte{0x8D}, tail, 0, 0), nil

	case OpAdd, OpOr, OpAnd, OpSub, OpXor, OpCmp:
		info := _arith[inst.Op]
		switch {
		case inst.B.Kind == KindImm:
			if inst.A.Kind != KindReg && inst.A.Kind != KindMem {
				return nil, encErr(inst, "bad ALU destination")
			}
			tail, err := encodeModRM(info.digit, inst.A)
			if err != nil {
				return nil, err
			}
			if size == 1 {
				return nil, encErr(inst, "byte-size ALU immediates unsupported")
			}
			if fitsInt8(inst.B.Imm) {
				return emit(buf, wBit, false, []byte{0x83}, tail, inst.B.Imm, 1), nil
			}
			if !fitsInt32(inst.B.Imm) {
				return nil, encErr(inst, "ALU immediate out of range")
			}
			return emit(buf, wBit, false, []byte{0x81}, tail, inst.B.Imm, 4), nil
		case inst.B.Kind == KindReg:
			tail, err := encodeModRM(uint8(inst.B.Reg), inst.A)
			if err != nil {
				return nil, err
			}
			op := info.rmReg
			if size == 1 {
				op-- // 8-bit form is the even opcode just below
			}
			return emit(buf, wBit, forceREX, []byte{op}, tail, 0, 0), nil
		case inst.A.Kind == KindReg && inst.B.Kind == KindMem:
			tail, err := encodeModRM(uint8(inst.A.Reg), inst.B)
			if err != nil {
				return nil, err
			}
			op := info.regRM
			if size == 1 {
				op--
			}
			return emit(buf, wBit, forceREX, []byte{op}, tail, 0, 0), nil
		}
		return nil, encErr(inst, "bad ALU operands")

	case OpTest:
		if inst.B.Kind == KindImm {
			tail, err := encodeModRM(0, inst.A)
			if err != nil {
				return nil, err
			}
			if !fitsInt32(inst.B.Imm) {
				return nil, encErr(inst, "test immediate out of range")
			}
			return emit(buf, wBit, false, []byte{0xF7}, tail, inst.B.Imm, 4), nil
		}
		if inst.B.Kind != KindReg {
			return nil, encErr(inst, "test requires a register source")
		}
		tail, err := encodeModRM(uint8(inst.B.Reg), inst.A)
		if err != nil {
			return nil, err
		}
		op := byte(0x85)
		if size == 1 {
			op = 0x84
		}
		return emit(buf, wBit, forceREX, []byte{op}, tail, 0, 0), nil

	case OpNot, OpNeg, OpIdiv:
		digit := uint8(2) // not
		switch inst.Op {
		case OpNeg:
			digit = 3
		case OpIdiv:
			digit = 7
		}
		tail, err := encodeModRM(digit, inst.A)
		if err != nil {
			return nil, err
		}
		if size == 1 {
			return nil, encErr(inst, "byte-size unary group unsupported")
		}
		return emit(buf, wBit, false, []byte{0xF7}, tail, 0, 0), nil

	case OpImul:
		if inst.A.Kind != KindReg {
			return nil, encErr(inst, "imul destination must be a register")
		}
		tail, err := encodeModRM(uint8(inst.A.Reg), inst.B)
		if err != nil {
			return nil, err
		}
		return emit(buf, wBit, false, []byte{0x0F, 0xAF}, tail, 0, 0), nil

	case OpShl, OpShr, OpSar:
		digit := _shiftDigit[inst.Op]
		tail, err := encodeModRM(digit, inst.A)
		if err != nil {
			return nil, err
		}
		switch {
		case inst.B.Kind == KindImm:
			return emit(buf, wBit, false, []byte{0xC1}, tail, inst.B.Imm, 1), nil
		case inst.B.Kind == KindReg && inst.B.Reg == RCX:
			return emit(buf, wBit, false, []byte{0xD3}, tail, 0, 0), nil
		}
		return nil, encErr(inst, "shift count must be an immediate or cl")

	case OpInc, OpDec:
		digit := uint8(0)
		if inst.Op == OpDec {
			digit = 1
		}
		tail, err := encodeModRM(digit, inst.A)
		if err != nil {
			return nil, err
		}
		return emit(buf, wBit, false, []byte{0xFF}, tail, 0, 0), nil

	case OpXchg:
		if inst.B.Kind != KindReg {
			return nil, encErr(inst, "xchg source must be a register")
		}
		tail, err := encodeModRM(uint8(inst.B.Reg), inst.A)
		if err != nil {
			return nil, err
		}
		return emit(buf, wBit, false, []byte{0x87}, tail, 0, 0), nil

	case OpMovzx:
		if inst.A.Kind != KindReg {
			return nil, encErr(inst, "movzx destination must be a register")
		}
		tail, err := encodeModRM(uint8(inst.A.Reg), inst.B)
		if err != nil {
			return nil, err
		}
		return emit(buf, wBit, false, []byte{0x0F, 0xB6}, tail, 0, 0), nil

	case OpMovsxd:
		if inst.A.Kind != KindReg {
			return nil, encErr(inst, "movsxd destination must be a register")
		}
		tail, err := encodeModRM(uint8(inst.A.Reg), inst.B)
		if err != nil {
			return nil, err
		}
		return emit(buf, rexW, false, []byte{0x63}, tail, 0, 0), nil

	case OpSetcc:
		tail, err := encodeModRM(0, inst.A)
		if err != nil {
			return nil, err
		}
		force := inst.A.Kind == KindReg
		return emit(buf, 0, force, []byte{0x0F, 0x90 | byte(inst.Cond)}, tail, 0, 0), nil

	case OpJmp:
		switch inst.A.Kind {
		case KindImm:
			rel := int64(uint64(inst.A.Imm) - (pc + 5))
			if !fitsInt32(rel) {
				return nil, encErr(inst, "jump displacement out of range")
			}
			buf = append(buf, 0xE9)
			return appendImm(buf, rel, 4), nil
		case KindReg, KindMem:
			tail, err := encodeModRM(4, inst.A)
			if err != nil {
				return nil, err
			}
			return emit(buf, 0, false, []byte{0xFF}, tail, 0, 0), nil
		}
		return nil, encErr(inst, "bad jmp operand")

	case OpCall:
		switch inst.A.Kind {
		case KindImm:
			rel := int64(uint64(inst.A.Imm) - (pc + 5))
			if !fitsInt32(rel) {
				return nil, encErr(inst, "call displacement out of range")
			}
			buf = append(buf, 0xE8)
			return appendImm(buf, rel, 4), nil
		case KindReg, KindMem:
			tail, err := encodeModRM(2, inst.A)
			if err != nil {
				return nil, err
			}
			return emit(buf, 0, false, []byte{0xFF}, tail, 0, 0), nil
		}
		return nil, encErr(inst, "bad call operand")

	case OpJcc:
		if inst.A.Kind != KindImm {
			return nil, encErr(inst, "conditional jump target must be immediate")
		}
		rel := int64(uint64(inst.A.Imm) - (pc + 6))
		if !fitsInt32(rel) {
			return nil, encErr(inst, "jcc displacement out of range")
		}
		buf = append(buf, 0x0F, 0x80|byte(inst.Cond))
		return appendImm(buf, rel, 4), nil
	}

	return nil, encErr(inst, "unsupported mnemonic")
}

// encodeMov handles the mov instruction forms.
func encodeMov(buf []byte, inst Inst, size, wBit uint8, forceREX bool) ([]byte, error) {
	switch {
	case inst.A.Kind == KindReg && inst.B.Kind == KindImm:
		v := inst.B.Imm
		r := inst.A.Reg
		switch {
		case size == 8 && fitsInt32(v):
			// mov r/m64, imm32 (sign-extended): C7 /0.
			tail, err := encodeModRM(0, inst.A)
			if err != nil {
				return nil, err
			}
			return emit(buf, rexW, false, []byte{0xC7}, tail, v, 4), nil
		case size == 8 && v >= 0 && v <= 0xFFFFFFFF:
			// 32-bit mov zero-extends: B8+r imm32.
			if r >= 8 {
				buf = append(buf, rexBase|rexB)
			}
			buf = append(buf, 0xB8|byte(r&7))
			return appendImm(buf, v, 4), nil
		case size == 8:
			// movabs: REX.W B8+r imm64.
			rex := byte(rexBase | rexW)
			if r >= 8 {
				rex |= rexB
			}
			buf = append(buf, rex, 0xB8|byte(r&7))
			return appendImm(buf, v, 8), nil
		case size == 4:
			if r >= 8 {
				buf = append(buf, rexBase|rexB)
			}
			buf = append(buf, 0xB8|byte(r&7))
			return appendImm(buf, v, 4), nil
		default:
			return nil, encErr(inst, "byte-size mov immediate unsupported")
		}

	case inst.A.Kind == KindMem && inst.B.Kind == KindImm:
		if size == 1 {
			tail, err := encodeModRM(0, inst.A)
			if err != nil {
				return nil, err
			}
			return emit(buf, 0, false, []byte{0xC6}, tail, inst.B.Imm, 1), nil
		}
		if !fitsInt32(inst.B.Imm) {
			return nil, encErr(inst, "mov memory immediate out of range")
		}
		tail, err := encodeModRM(0, inst.A)
		if err != nil {
			return nil, err
		}
		return emit(buf, wBit, false, []byte{0xC7}, tail, inst.B.Imm, 4), nil

	case inst.B.Kind == KindReg:
		tail, err := encodeModRM(uint8(inst.B.Reg), inst.A)
		if err != nil {
			return nil, err
		}
		op := byte(0x89)
		if size == 1 {
			op = 0x88
		}
		return emit(buf, wBit, forceREX, []byte{op}, tail, 0, 0), nil

	case inst.A.Kind == KindReg && inst.B.Kind == KindMem:
		tail, err := encodeModRM(uint8(inst.A.Reg), inst.B)
		if err != nil {
			return nil, err
		}
		op := byte(0x8B)
		if size == 1 {
			op = 0x8A
		}
		return emit(buf, wBit, forceREX, []byte{op}, tail, 0, 0), nil
	}
	return nil, encErr(inst, "bad mov operands")
}

// Encode encodes a single instruction at address pc.
func Encode(inst Inst, pc uint64) ([]byte, error) {
	return Append(nil, inst, pc)
}
