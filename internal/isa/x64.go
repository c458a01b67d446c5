package isa

// X64 is the original x86-64 backend and the default everywhere a backend
// is not named. It wraps the package-level Decode/Encode and register
// tables, so its behavior is byte-identical to the pre-multi-ISA engine.
var X64 Backend = x64Backend{}

type x64Backend struct{}

func (x64Backend) Name() string                 { return "x64" }
func (x64Backend) PtrSize() int                 { return 8 }
func (x64Backend) NumRegs() int                 { return NumRegs }
func (x64Backend) SP() Reg                      { return RSP }
func (x64Backend) ZeroReg() (Reg, bool)         { return 0, false }
func (x64Backend) LinkReg() (Reg, bool)         { return 0, false }
func (x64Backend) RegName(r Reg) string         { return r.String() }
func (x64Backend) Stride() int                  { return 1 }
func (x64Backend) FormatInst(inst *Inst) string { return inst.String() }

func (x64Backend) Decode(code []byte, addr uint64) (Inst, error) {
	return Decode(code, addr)
}

func (x64Backend) TryDecode(code []byte, addr uint64) (Inst, bool) {
	inst, err := decode(code, addr, true)
	return inst, err == nil
}

func (x64Backend) Encode(inst Inst, pc uint64) ([]byte, error) {
	return Encode(inst, pc)
}

func (x64Backend) Classify(inst *Inst) Class {
	switch inst.Op {
	case OpRet:
		return ClassRet
	case OpSyscall:
		return ClassSyscall
	case OpJcc:
		return ClassCondBr
	case OpJmp:
		if inst.A.Kind == KindImm {
			return ClassJmpDir
		}
		return ClassJmpInd
	case OpCall:
		if inst.A.Kind == KindImm {
			return ClassCallDir
		}
		return ClassCallInd
	case OpHlt, OpInt3:
		return ClassTrap
	}
	return ClassOther
}

func (x64Backend) Syscall() SyscallABI {
	return SyscallABI{
		Num:  RAX,
		Args: []Reg{RDI, RSI, RDX, R10, R8, R9},
		Ret:  RAX,
	}
}
