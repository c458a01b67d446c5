package isa

import "fmt"

// Class is a backend-independent gadget-boundary classification of one
// instruction. The gadget walker and the Table I counters consume classes
// instead of switching on backend-private mnemonics, which is what lets one
// extraction engine serve several ISAs.
type Class uint8

// Instruction classes, from the gadget walker's point of view.
const (
	// ClassOther is a plain sequential instruction.
	ClassOther Class = iota
	// ClassRet is a return: the canonical gadget terminator. On x86-64 this
	// is ret (target popped from the stack); on RV64 it is jalr x0, 0(ra)
	// (target taken from the link register).
	ClassRet
	// ClassJmpDir is an unconditional direct jump (immediate target in A).
	ClassJmpDir
	// ClassJmpInd is an unconditional indirect jump (register/memory target).
	ClassJmpInd
	// ClassCallDir is a direct call (immediate target in A).
	ClassCallDir
	// ClassCallInd is an indirect call.
	ClassCallInd
	// ClassCondBr is a conditional branch (taken target is an immediate in A).
	ClassCondBr
	// ClassSyscall is a system-call instruction.
	ClassSyscall
	// ClassTrap is a walk-stopping trap (hlt, int3, ebreak).
	ClassTrap
)

var _classNames = [...]string{
	"other", "ret", "jmp-dir", "jmp-ind", "call-dir", "call-ind",
	"cond-br", "syscall", "trap",
}

// String names the class.
func (c Class) String() string {
	if int(c) < len(_classNames) {
		return _classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// SyscallABI describes where the emulated OS reads a system call's number
// and arguments and writes its result. Syscall numbers themselves are
// canonical (x86-64 Linux numbering) on every backend; only the register
// binding differs.
type SyscallABI struct {
	// Num holds the syscall number.
	Num Reg
	// Args holds the argument registers in order.
	Args []Reg
	// Ret receives the result.
	Ret Reg
}

// Backend is one instruction-set architecture as the analysis engine sees
// it: a decoder/encoder pair, the register file and stack model, decode
// stride/alignment rules, and the gadget-boundary classification. Everything
// above this interface (symbolic effects, subsumption, planning) is
// ISA-agnostic.
type Backend interface {
	// Name is the canonical backend identifier ("x64", "rv64", "rv64c") as
	// used in cache keys, CLI flags and experiment arms.
	Name() string
	// PtrSize is the pointer width in bytes.
	PtrSize() int
	// NumRegs is the size of the general-purpose register file.
	NumRegs() int
	// SP is the stack pointer register.
	SP() Reg
	// ZeroReg returns the hardwired-zero register, if the ISA has one.
	ZeroReg() (Reg, bool)
	// LinkReg returns the call return-address register, if calls link to a
	// register rather than pushing to the stack.
	LinkReg() (Reg, bool)
	// RegName names a register.
	RegName(r Reg) string
	// Stride is the decode-start granularity in bytes: 1 on x86-64 (any
	// byte offset may start a gadget), 4 on RV64, 2 with the C extension.
	Stride() int
	// Decode decodes one instruction at addr. Backends with alignment rules
	// fail on misaligned addresses.
	Decode(code []byte, addr uint64) (Inst, error)
	// TryDecode is Decode for callers that only test whether the bytes
	// decode: it reports failure as false without building an error, so a
	// scan over mostly undecodable bytes allocates nothing per address.
	TryDecode(code []byte, addr uint64) (Inst, bool)
	// Encode encodes one instruction placed at pc.
	Encode(inst Inst, pc uint64) ([]byte, error)
	// Classify maps an instruction onto its gadget-boundary class.
	Classify(inst *Inst) Class
	// Syscall describes the system-call register binding.
	Syscall() SyscallABI
	// FormatInst renders an instruction in the backend's assembly syntax.
	FormatInst(inst *Inst) string
}

// DefaultISA is the backend every entry point assumes when none is named:
// the original x86-64 engine. Cache keys, fingerprints and request
// canonicalization all treat it as the empty/default value so that
// pre-multi-ISA artifacts stay valid.
const DefaultISA = "x64"

// ByName resolves a backend identifier. The empty string means the default
// x64 backend.
func ByName(name string) (Backend, bool) {
	switch name {
	case "", "x64":
		return X64, true
	case "rv64":
		return RV64, true
	case "rv64c":
		return RV64C, true
	}
	return nil, false
}

// CanonicalISA normalizes a backend identifier: "" becomes DefaultISA.
func CanonicalISA(name string) string {
	if name == "" {
		return DefaultISA
	}
	return name
}
