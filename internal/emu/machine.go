package emu

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"

	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// Run-time errors.
var (
	ErrHalted      = errors.New("emu: hlt executed")
	ErrBreakpoint  = errors.New("emu: int3 executed")
	ErrDivByZero   = errors.New("emu: integer division by zero")
	ErrDivOverflow = errors.New("emu: idiv quotient overflow")
	ErrStepLimit   = errors.New("emu: step limit exceeded")
)

// Machine is one emulated hart: registers, flags and an address space. The
// register file is sized for the largest supported ISA; the active backend
// determines how many slots are live and which of them is the stack pointer.
type Machine struct {
	Regs [isa.MaxRegs]uint64
	RIP  uint64

	// Flags (x86-64 backend only; RISC-V has no flags register).
	ZF, SF, OF, CF, PF bool

	Mem   *Memory
	OS    *OS
	Steps uint64

	// Backend register model, cached at construction.
	be      isa.Backend
	sp      isa.Reg
	abi     isa.SyscallABI
	zero    isa.Reg
	hasZero bool
	link    isa.Reg
	hasLink bool

	// icache is a direct-mapped decoded-instruction cache, invalidated
	// when executable memory is written (self-modifying code). It is sized
	// by use: it starts at icacheMin entries and doubles, up to icacheMax,
	// whenever the fills since the last resize exceed its size, so a
	// payload verification of a few dozen instructions never pays for the
	// table a long program run needs. Results never depend on the cache.
	icache    []icEntry
	icacheGen uint64
	icFills   int

	// fetchBuf holds the bytes fetch decodes on an icache miss; a decoded
	// isa.Inst keeps none of them, so one buffer serves every miss.
	fetchBuf [16]byte
}

// icEntry is one decoded instruction. permGen is the memory's permGen when
// the entry's page was last seen executable.
type icEntry struct {
	addr    uint64
	permGen uint64
	inst    isa.Inst
	valid   bool
}

// icacheMin holds every instruction of a short payload run: a netperf
// payload verification fills 14 to 36 entries, unless its chain runs
// through an obfuscated function body (217 to 2250 fills), which doubles
// the cache as it goes.
const (
	icacheMin = 1 << 6
	icacheMax = 1 << 14
)

// Load boots a binary: a machine of the binary's ISA whose OS model reads
// stdin, with every section mapped under its flag permissions and the PC at
// the entry point. The stack is the caller's to map (SetupStack), since its
// size depends on what the run is for. Load is the only way to build a
// machine outside this package.
//
// The sections' pages are built once per binary (loadImage) and shared by
// every machine booted from it; a machine copies a page only when it
// changes it, so the binary must not change once it has been loaded.
func Load(bin *sbf.Binary, stdin []byte) (*Machine, error) {
	be, ok := isa.ByName(bin.ISA)
	if !ok {
		return nil, fmt.Errorf("emu: unknown binary ISA %q", bin.ISA)
	}
	m := newMachine(be)
	m.OS.Stdin.Reset(stdin)
	m.Mem.pages = maps.Clone(bin.Image(loadImage).(map[uint64]*page))
	m.RIP = bin.Entry
	return m, nil
}

// loadImage maps every section of bin under its flag permissions and
// returns the pages, each marked shared.
func loadImage(bin *sbf.Binary) any {
	img := NewMemory()
	for _, s := range bin.Sections {
		// Perm shares sbf.SectionFlags' bit meanings.
		img.Map(s.Addr, uint64(len(s.Data)), Perm(s.Flags))
		img.poke(s.Addr, s.Data)
	}
	for _, pg := range img.pages {
		if !pg.shared { // the zero pages are shared already, and read by all
			pg.shared = true
		}
	}
	return img.pages
}

// newMachine returns a machine executing the given backend's ISA, with an
// empty address space and a fresh OS model.
func newMachine(be isa.Backend) *Machine {
	m := &Machine{Mem: NewMemory(), OS: &OS{mmapNext: 0x7000_0000}, icache: make([]icEntry, icacheMin), be: be}
	m.sp = be.SP()
	m.abi = be.Syscall()
	m.zero, m.hasZero = be.ZeroReg()
	m.link, m.hasLink = be.LinkReg()
	return m
}

// ISA returns the machine's backend.
func (m *Machine) ISA() isa.Backend { return m.be }

// SetupStack maps a stack region and points the stack pointer at its top
// (minus a small red zone). It returns the initial stack pointer.
func (m *Machine) SetupStack(base, size uint64) uint64 {
	m.Mem.Map(base, size, PermRead|PermWrite)
	top := base + size - 64
	m.Regs[m.sp] = top
	return top
}

// SP returns the backend's stack pointer register.
func (m *Machine) SP() isa.Reg { return m.sp }

func maskFor(size uint8) uint64 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	case 4:
		return 0xFFFF_FFFF
	default:
		return ^uint64(0)
	}
}

func opBits(size uint8) uint { return uint(size) * 8 }

func signBit(v uint64, size uint8) bool {
	return v>>(opBits(size)-1)&1 == 1
}

// effAddr computes the effective address of a memory operand.
func (m *Machine) effAddr(mem isa.Mem, instEnd uint64) uint64 {
	if mem.RIPRel {
		return instEnd + uint64(int64(mem.Disp))
	}
	var a uint64
	if mem.HasBase {
		a = m.Regs[mem.Base]
	}
	if mem.HasIndex {
		a += m.Regs[mem.Index] * uint64(mem.Scale)
	}
	return a + uint64(int64(mem.Disp))
}

func (m *Machine) readOperand(op isa.Operand, size uint8, instEnd uint64) (uint64, error) {
	switch op.Kind {
	case isa.KindReg:
		return m.Regs[op.Reg] & maskFor(size), nil
	case isa.KindImm:
		return uint64(op.Imm) & maskFor(size), nil
	case isa.KindMem:
		return m.Mem.Read(m.effAddr(op.Mem, instEnd), int(size))
	}
	return 0, fmt.Errorf("emu: read of empty operand")
}

func (m *Machine) writeOperand(op isa.Operand, size uint8, v uint64, instEnd uint64) error {
	switch op.Kind {
	case isa.KindReg:
		if m.hasZero && op.Reg == m.zero {
			return nil // writes to the hardwired zero register vanish
		}
		switch size {
		case 8:
			m.Regs[op.Reg] = v
		case 4:
			m.Regs[op.Reg] = v & 0xFFFF_FFFF // 32-bit writes zero-extend
		case 2:
			m.Regs[op.Reg] = m.Regs[op.Reg]&^uint64(0xFFFF) | v&0xFFFF
		case 1:
			m.Regs[op.Reg] = m.Regs[op.Reg]&^uint64(0xFF) | v&0xFF
		}
		return nil
	case isa.KindMem:
		return m.Mem.Write(m.effAddr(op.Mem, instEnd), v, int(size))
	}
	return fmt.Errorf("emu: write to non-lvalue operand")
}

// setPZS sets the parity, zero, and sign flags from a result.
func (m *Machine) setPZS(r uint64, size uint8) {
	r &= maskFor(size)
	m.ZF = r == 0
	m.SF = signBit(r, size)
	m.PF = bits.OnesCount8(uint8(r))%2 == 0
}

// condHolds evaluates an x86 condition code against the current flags.
func (m *Machine) condHolds(c isa.Cond) bool {
	switch c {
	case isa.CondO:
		return m.OF
	case isa.CondNO:
		return !m.OF
	case isa.CondB:
		return m.CF
	case isa.CondAE:
		return !m.CF
	case isa.CondE:
		return m.ZF
	case isa.CondNE:
		return !m.ZF
	case isa.CondBE:
		return m.CF || m.ZF
	case isa.CondA:
		return !m.CF && !m.ZF
	case isa.CondS:
		return m.SF
	case isa.CondNS:
		return !m.SF
	case isa.CondP:
		return m.PF
	case isa.CondNP:
		return !m.PF
	case isa.CondL:
		return m.SF != m.OF
	case isa.CondGE:
		return m.SF == m.OF
	case isa.CondLE:
		return m.ZF || m.SF != m.OF
	default: // CondG
		return !m.ZF && m.SF == m.OF
	}
}

func (m *Machine) push(v uint64) error {
	m.Regs[m.sp] -= 8
	return m.Mem.Write(m.Regs[m.sp], v, 8)
}

func (m *Machine) pop() (uint64, error) {
	v, err := m.Mem.Read(m.Regs[m.sp], 8)
	if err != nil {
		return 0, err
	}
	m.Regs[m.sp] += 8
	return v, nil
}

// fetch decodes the instruction at RIP, using the decode cache.
func (m *Machine) fetch() (isa.Inst, error) {
	if gen := m.Mem.codeGen; gen != m.icacheGen {
		m.icacheGen = gen
		for i := range m.icache {
			m.icache[i].valid = false
		}
	}
	slot := &m.icache[(m.RIP^m.RIP>>7)&uint64(len(m.icache)-1)]
	if slot.valid && slot.addr == m.RIP {
		if slot.permGen != m.Mem.permGen {
			// A permission changed since (mprotect); re-check executability.
			if m.Mem.PermAt(m.RIP)&PermExec == 0 {
				return isa.Inst{}, &MemFault{Addr: m.RIP, Op: "exec"}
			}
			slot.permGen = m.Mem.permGen
		}
		return slot.inst, nil
	}
	n, err := m.Mem.fetchInto(m.fetchBuf[:], m.RIP)
	if err != nil {
		return isa.Inst{}, err
	}
	inst, err := m.be.Decode(m.fetchBuf[:n], m.RIP)
	if err != nil {
		return isa.Inst{}, fmt.Errorf("emu: decode at %#x: %w", m.RIP, err)
	}
	if m.icFills++; m.icFills > len(m.icache) && len(m.icache) < icacheMax {
		// Grow rather than thrash; the new table starts empty.
		m.icache = make([]icEntry, 2*len(m.icache))
		m.icFills = 0
		slot = &m.icache[(m.RIP^m.RIP>>7)&uint64(len(m.icache)-1)]
	}
	*slot = icEntry{addr: m.RIP, permGen: m.Mem.permGen, inst: inst, valid: true}
	return inst, nil
}

// Step executes one instruction. It returns exit=true when the syscall
// handler requests a clean stop.
func (m *Machine) Step() (exit bool, err error) {
	inst, err := m.fetch()
	if err != nil {
		return false, err
	}
	m.Steps++
	next := inst.End()
	size := inst.Size
	if size == 0 {
		size = 8
	}

	// RISC-V three-operand ALU forms (A = B op C) dispatch before the
	// two-operand x86 cases so OpAdd et al. keep their x86 semantics when C
	// is absent.
	if inst.C.Kind != isa.KindNone {
		switch inst.Op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
			isa.OpShl, isa.OpShr, isa.OpSar, isa.OpImul, isa.OpSlt, isa.OpSltu,
			isa.OpDiv, isa.OpDivU, isa.OpRem, isa.OpRemU:
			if err := m.stepRV3(&inst, next); err != nil {
				return false, err
			}
			m.RIP = next
			return false, nil
		}
	}

	switch inst.Op {
	case isa.OpNop:

	case isa.OpMov:
		v, err := m.readOperand(inst.B, size, next)
		if err != nil {
			return false, err
		}
		if err := m.writeOperand(inst.A, size, v, next); err != nil {
			return false, err
		}

	case isa.OpLea:
		if err := m.writeOperand(inst.A, size, m.effAddr(inst.B.Mem, next), next); err != nil {
			return false, err
		}

	case isa.OpAdd, isa.OpSub, isa.OpCmp, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpTest:
		a, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		b, err := m.readOperand(inst.B, size, next)
		if err != nil {
			return false, err
		}
		var r uint64
		switch inst.Op {
		case isa.OpAdd:
			r = (a + b) & maskFor(size)
			m.CF = r < a
			m.OF = signBit(^(a^b)&(a^r), size)
		case isa.OpSub, isa.OpCmp:
			r = (a - b) & maskFor(size)
			m.CF = a < b
			m.OF = signBit((a^b)&(a^r), size)
		case isa.OpAnd, isa.OpTest:
			r = a & b
			m.CF, m.OF = false, false
		case isa.OpOr:
			r = a | b
			m.CF, m.OF = false, false
		case isa.OpXor:
			r = a ^ b
			m.CF, m.OF = false, false
		}
		m.setPZS(r, size)
		if inst.Op != isa.OpCmp && inst.Op != isa.OpTest {
			if err := m.writeOperand(inst.A, size, r, next); err != nil {
				return false, err
			}
		}

	case isa.OpNot:
		a, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		if err := m.writeOperand(inst.A, size, ^a&maskFor(size), next); err != nil {
			return false, err
		}

	case isa.OpNeg:
		a, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		r := (-a) & maskFor(size)
		m.CF = a != 0
		m.OF = a != 0 && a == (uint64(1)<<(opBits(size)-1))
		m.setPZS(r, size)
		if err := m.writeOperand(inst.A, size, r, next); err != nil {
			return false, err
		}

	case isa.OpInc, isa.OpDec:
		a, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		var r uint64
		if inst.Op == isa.OpInc {
			r = (a + 1) & maskFor(size)
			m.OF = r == uint64(1)<<(opBits(size)-1)
		} else {
			r = (a - 1) & maskFor(size)
			m.OF = a == uint64(1)<<(opBits(size)-1)
		}
		m.setPZS(r, size) // CF is preserved by inc/dec
		if err := m.writeOperand(inst.A, size, r, next); err != nil {
			return false, err
		}

	case isa.OpImul:
		a, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		b, err := m.readOperand(inst.B, size, next)
		if err != nil {
			return false, err
		}
		r := (a * b) & maskFor(size)
		// CF/OF set when the full signed product does not fit.
		hi, lo := bits.Mul64(a, b)
		_ = hi
		if size == 8 {
			sHi, _ := mulS128(int64(a), int64(b))
			full := sHi != int64(r)>>63
			m.CF, m.OF = full, full
		} else {
			sa := int64(int32(uint32(a)))
			sb := int64(int32(uint32(b)))
			p := sa * sb
			full := p != int64(int32(p))
			m.CF, m.OF = full, full
		}
		_ = lo
		m.setPZS(r, size)
		if err := m.writeOperand(inst.A, size, r, next); err != nil {
			return false, err
		}

	case isa.OpShl, isa.OpShr, isa.OpSar:
		a, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		cnt, err := m.readOperand(inst.B, 1, next)
		if err != nil {
			return false, err
		}
		cnt &= 0x3F
		if size == 4 {
			cnt &= 0x1F
		}
		if cnt != 0 {
			var r uint64
			switch inst.Op {
			case isa.OpShl:
				m.CF = cnt <= uint64(opBits(size)) && (a>>(uint64(opBits(size))-cnt))&1 == 1
				r = (a << cnt) & maskFor(size)
			case isa.OpShr:
				m.CF = (a>>(cnt-1))&1 == 1
				r = a >> cnt
			case isa.OpSar:
				m.CF = (a>>(cnt-1))&1 == 1
				sv := int64(a << (64 - opBits(size)))
				r = uint64(sv>>(64-opBits(size))>>cnt) & maskFor(size)
			}
			m.OF = false
			m.setPZS(r, size)
			if err := m.writeOperand(inst.A, size, r, next); err != nil {
				return false, err
			}
		}

	case isa.OpPush:
		v, err := m.readOperand(inst.A, 8, next)
		if err != nil {
			return false, err
		}
		if inst.A.Kind == isa.KindImm {
			v = uint64(inst.A.Imm) // push imm sign-extends to 64 bits
		}
		if err := m.push(v); err != nil {
			return false, err
		}

	case isa.OpPop:
		v, err := m.pop()
		if err != nil {
			return false, err
		}
		if err := m.writeOperand(inst.A, 8, v, next); err != nil {
			return false, err
		}

	case isa.OpRet:
		v, err := m.pop()
		if err != nil {
			return false, err
		}
		if inst.A.Kind == isa.KindImm {
			m.Regs[isa.RSP] += uint64(inst.A.Imm)
		}
		m.RIP = v
		return false, nil

	case isa.OpJmp:
		if inst.A.Kind == isa.KindImm {
			m.RIP = uint64(inst.A.Imm)
			return false, nil
		}
		v, err := m.readOperand(inst.A, 8, next)
		if err != nil {
			return false, err
		}
		if inst.B.Kind == isa.KindImm {
			v += uint64(inst.B.Imm) // RISC-V jr rs1, offset
		}
		if m.hasLink {
			v &^= 1 // RISC-V jalr clears the target's low bit
		}
		m.RIP = v
		return false, nil

	case isa.OpJcc:
		if m.condHolds(inst.Cond) {
			m.RIP = uint64(inst.A.Imm)
			return false, nil
		}

	case isa.OpBcc:
		a, err := m.readOperand(inst.B, 8, next)
		if err != nil {
			return false, err
		}
		b, err := m.readOperand(inst.C, 8, next)
		if err != nil {
			return false, err
		}
		var taken bool
		switch inst.Cond {
		case isa.CondE:
			taken = a == b
		case isa.CondNE:
			taken = a != b
		case isa.CondL:
			taken = int64(a) < int64(b)
		case isa.CondGE:
			taken = int64(a) >= int64(b)
		case isa.CondB:
			taken = a < b
		case isa.CondAE:
			taken = a >= b
		default:
			return false, fmt.Errorf("emu: bad branch condition %v at %#x", inst.Cond, inst.Addr)
		}
		if taken {
			m.RIP = uint64(inst.A.Imm)
			return false, nil
		}

	case isa.OpJal:
		if err := m.writeOperand(inst.B, 8, next, next); err != nil {
			return false, err
		}
		m.RIP = uint64(inst.A.Imm)
		return false, nil

	case isa.OpJalr:
		v, err := m.readOperand(inst.A, 8, next)
		if err != nil {
			return false, err
		}
		if inst.C.Kind == isa.KindImm {
			v += uint64(inst.C.Imm)
		}
		if err := m.writeOperand(inst.B, 8, next, next); err != nil {
			return false, err
		}
		m.RIP = v &^ 1
		return false, nil

	case isa.OpCall:
		var target uint64
		if inst.A.Kind == isa.KindImm {
			target = uint64(inst.A.Imm)
		} else {
			v, err := m.readOperand(inst.A, 8, next)
			if err != nil {
				return false, err
			}
			if inst.B.Kind == isa.KindImm {
				v += uint64(inst.B.Imm) // RISC-V jalr ra, rs1, offset
			}
			if m.hasLink {
				v &^= 1
			}
			target = v
		}
		if m.hasLink {
			m.Regs[m.link] = next
		} else if err := m.push(next); err != nil {
			return false, err
		}
		m.RIP = target
		return false, nil

	case isa.OpLoad, isa.OpLoadU:
		v, err := m.readOperand(inst.B, size, next)
		if err != nil {
			return false, err
		}
		if inst.Op == isa.OpLoad && size < 8 {
			sh := 64 - opBits(size)
			v = uint64(int64(v<<sh) >> sh)
		}
		if err := m.writeOperand(inst.A, 8, v, next); err != nil {
			return false, err
		}

	case isa.OpAuipc:
		if err := m.writeOperand(inst.A, 8, inst.Addr+uint64(inst.B.Imm), next); err != nil {
			return false, err
		}

	case isa.OpLeave:
		m.Regs[isa.RSP] = m.Regs[isa.RBP]
		v, err := m.pop()
		if err != nil {
			return false, err
		}
		m.Regs[isa.RBP] = v

	case isa.OpXchg:
		a, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		b, err := m.readOperand(inst.B, size, next)
		if err != nil {
			return false, err
		}
		if err := m.writeOperand(inst.A, size, b, next); err != nil {
			return false, err
		}
		if err := m.writeOperand(inst.B, size, a, next); err != nil {
			return false, err
		}

	case isa.OpMovzx:
		v, err := m.readOperand(inst.B, 1, next)
		if err != nil {
			return false, err
		}
		if err := m.writeOperand(inst.A, size, v, next); err != nil {
			return false, err
		}

	case isa.OpMovsxd:
		v, err := m.readOperand(inst.B, 4, next)
		if err != nil {
			return false, err
		}
		if err := m.writeOperand(inst.A, 8, uint64(int64(int32(uint32(v)))), next); err != nil {
			return false, err
		}

	case isa.OpSetcc:
		var v uint64
		if m.condHolds(inst.Cond) {
			v = 1
		}
		if err := m.writeOperand(inst.A, 1, v, next); err != nil {
			return false, err
		}

	case isa.OpCqo:
		if size == 8 {
			m.Regs[isa.RDX] = uint64(int64(m.Regs[isa.RAX]) >> 63)
		} else {
			m.Regs[isa.RDX] = uint64(uint32(int32(uint32(m.Regs[isa.RAX])) >> 31))
		}

	case isa.OpIdiv:
		d, err := m.readOperand(inst.A, size, next)
		if err != nil {
			return false, err
		}
		if d == 0 {
			return false, ErrDivByZero
		}
		if size == 8 {
			lo := int64(m.Regs[isa.RAX])
			hi := int64(m.Regs[isa.RDX])
			if hi != lo>>63 {
				return false, ErrDivOverflow
			}
			q := lo / int64(d)
			r := lo % int64(d)
			m.Regs[isa.RAX] = uint64(q)
			m.Regs[isa.RDX] = uint64(r)
		} else {
			lo := int64(int32(uint32(m.Regs[isa.RAX])))
			q := lo / int64(int32(uint32(d)))
			r := lo % int64(int32(uint32(d)))
			m.Regs[isa.RAX] = uint64(uint32(int32(q)))
			m.Regs[isa.RDX] = uint64(uint32(int32(r)))
		}

	case isa.OpSyscall:
		if !m.hasLink {
			// x86-64 syscall clobbers rcx (return rip) and r11 (rflags);
			// RISC-V ecall clobbers nothing.
			m.Regs[isa.RCX] = next
			m.Regs[isa.R11] = 0x202
		}
		if m.OS.syscall(m) {
			return true, nil
		}

	case isa.OpHlt:
		return false, ErrHalted
	case isa.OpInt3:
		return false, ErrBreakpoint

	default:
		return false, fmt.Errorf("emu: unimplemented op %s at %#x", inst.Op, inst.Addr)
	}

	m.RIP = next
	return false, nil
}

// stepRV3 executes a RISC-V three-operand ALU instruction: A = B op C, full
// 64-bit width, no flag effects.
func (m *Machine) stepRV3(inst *isa.Inst, next uint64) error {
	a, err := m.readOperand(inst.B, 8, next)
	if err != nil {
		return err
	}
	b, err := m.readOperand(inst.C, 8, next)
	if err != nil {
		return err
	}
	var r uint64
	switch inst.Op {
	case isa.OpAdd:
		r = a + b
	case isa.OpSub:
		r = a - b
	case isa.OpAnd:
		r = a & b
	case isa.OpOr:
		r = a | b
	case isa.OpXor:
		r = a ^ b
	case isa.OpShl:
		r = a << (b & 63)
	case isa.OpShr:
		r = a >> (b & 63)
	case isa.OpSar:
		r = uint64(int64(a) >> (b & 63))
	case isa.OpImul:
		r = a * b
	case isa.OpSlt:
		if int64(a) < int64(b) {
			r = 1
		}
	case isa.OpSltu:
		if a < b {
			r = 1
		}
	case isa.OpDiv:
		switch {
		case b == 0:
			r = ^uint64(0) // RISC-V: division by zero yields -1
		case int64(a) == -1<<63 && int64(b) == -1:
			r = a // signed overflow yields the dividend
		default:
			r = uint64(int64(a) / int64(b))
		}
	case isa.OpDivU:
		if b == 0 {
			r = ^uint64(0)
		} else {
			r = a / b
		}
	case isa.OpRem:
		switch {
		case b == 0:
			r = a // remainder of division by zero is the dividend
		case int64(a) == -1<<63 && int64(b) == -1:
			r = 0
		default:
			r = uint64(int64(a) % int64(b))
		}
	case isa.OpRemU:
		if b == 0 {
			r = a
		} else {
			r = a % b
		}
	}
	return m.writeOperand(inst.A, 8, r, next)
}

// mulS128 returns the high and low halves of the full 128-bit signed product.
func mulS128(a, b int64) (hi, lo int64) {
	uhi, ulo := bits.Mul64(uint64(a), uint64(b))
	shi := int64(uhi)
	if a < 0 {
		shi -= b
	}
	if b < 0 {
		shi -= a
	}
	return shi, int64(ulo)
}

// Run steps the machine until the syscall handler requests exit, an error
// occurs, or maxSteps instructions have executed.
func (m *Machine) Run(maxSteps uint64) error {
	for i := uint64(0); i < maxSteps; i++ {
		exit, err := m.Step()
		if err != nil {
			return err
		}
		if exit {
			return nil
		}
	}
	return ErrStepLimit
}
