// Package codegen translates MIR modules into executable SBF binaries:
// spill-everything code generators for x86-64 and RV64 (each virtual
// register and local lives in a frame slot), a small runtime (_start and
// the syscall primitives), and a linker that lays out text and data
// sections. Each generator builds isa.Inst values and appends them to its
// backend's one-pass assembler (asm.X64Prog, asm.RVProg), which encodes
// them as they arrive; no assembly text is formatted or parsed.
//
// Jump tables (for the TermJumpTable terminator that flattening and
// virtualization emit) are placed inside the text section, as compilers
// often do — their pointer bytes are themselves a source of unaligned
// gadgets, which is faithful to the phenomenon under study.
package codegen

import (
	"fmt"
	"strconv"

	"github.com/nofreelunch/gadget-planner/internal/asm"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/mir"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// The fixed section layout of every binary.
const (
	// textBase is the executable section's base address.
	textBase uint64 = 0x401000
	// dataBase is the writable data section's base address.
	dataBase uint64 = 0x601000
)

// Options configure code generation.
type Options struct {
	// ISA selects the target instruction set: "x64" (default) or "rv64".
	// ("rv64c" builds the same uncompressed code as "rv64"; the C extension
	// matters on the decode side, where it halves the legal gadget stride.)
	ISA string
}

// RuntimePrelude is MiniC source prepended to every program: the I/O and
// conversion routines built on the __write/__read/__exit primitives. Being
// ordinary MiniC, it is obfuscated together with user code.
const RuntimePrelude = `
char __iob[64];

int __write(int fd, char *buf, int n) {
    return __syscall(1, fd, buf, n);
}

int __read(int fd, char *buf, int n) {
    return __syscall(0, fd, buf, n);
}

void print_char(int c) {
    __iob[0] = c;
    __write(1, &__iob[0], 1);
}

void print_str(char *s) {
    int n = 0;
    while (s[n] != 0) n++;
    __write(1, s, n);
}

void print_int(int x) {
    char buf[32];
    int i = 31;
    int neg = 0;
    if (x < 0) { neg = 1; x = -x; }
    if (x == 0) { buf[i] = '0'; i--; }
    while (x > 0) {
        buf[i] = '0' + x % 10;
        i--;
        x = x / 10;
    }
    if (neg) { buf[i] = '-'; i--; }
    __write(1, &buf[i + 1], 31 - i);
}

void exit(int code) {
    __syscall(60, code, 0, 0);
}
`

// Compile lowers a MIR module to an SBF binary.
func Compile(m *mir.Module, opts Options) (*sbf.Binary, error) {
	switch isa.CanonicalISA(opts.ISA) {
	case isa.DefaultISA:
	case "rv64", "rv64c":
		return compileRV64(m, isa.CanonicalISA(opts.ISA))
	default:
		return nil, fmt.Errorf("codegen: unknown ISA %q", opts.ISA)
	}

	// Lay out globals in the data section.
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
		data = make([]byte, 8) // keep the section non-empty
	}

	p := asm.NewX64Prog(textBase)
	emitStart(p)
	emitBuiltins(p)
	cg := &funcGen{p: p}
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

// Operand shorthands shared by both emitters.
func reg(r isa.Reg) isa.Operand { return isa.RegOp(r) }
func imm(v int64) isa.Operand   { return isa.ImmOp(v) }

// Operand and instruction shorthands for the x86-64 emitter.

// frame is the rbp-relative memory operand [rbp-off].
func frame(off int) isa.Operand { return isa.MemOp(isa.RBP, int32(-off)) }

// at is the memory operand [r].
func at(r isa.Reg) isa.Operand { return isa.MemOp(r, 0) }

// op2 is a two-operand instruction of the given size.
func op2(op isa.Op, size uint8, a, b isa.Operand) isa.Inst {
	return isa.Inst{Op: op, Size: size, A: a, B: b}
}

// op1 is a one-operand 64-bit instruction.
func op1(op isa.Op, a isa.Operand) isa.Inst { return isa.Inst{Op: op, Size: 8, A: a} }

// op0 is an operandless instruction.
func op0(op isa.Op) isa.Inst { return isa.Inst{Op: op, Size: 8} }

// mov64 is mov dst, src at 64 bits.
func mov64(dst, src isa.Operand) isa.Inst { return op2(isa.OpMov, 8, dst, src) }

// branch is a jmp, call or jcc whose target operand Assemble fills in.
func branch(op isa.Op, cc isa.Cond) isa.Inst {
	return isa.Inst{Op: op, Cond: cc, Size: 8, A: imm(0)}
}

// emitStart writes the process entry point: call main, exit with its result.
func emitStart(p *asm.X64Prog) {
	p.Label("_start")
	p.InstRef(branch(isa.OpCall, 0), "main")
	p.Inst(mov64(reg(isa.RDI), reg(isa.RAX)))
	p.Inst(mov64(reg(isa.RAX), imm(60)))
	p.Inst(op0(isa.OpSyscall))
}

// emitBuiltins writes the generic syscall wrapper with the same argument
// shuffle glibc's syscall(2) uses: the syscall number arrives in rdi and
// every argument shifts down one register.
func emitBuiltins(p *asm.X64Prog) {
	p.Label("__syscall")
	for _, mv := range [][2]isa.Reg{
		{isa.RAX, isa.RDI}, {isa.RDI, isa.RSI}, {isa.RSI, isa.RDX},
		{isa.RDX, isa.RCX}, {isa.R10, isa.R8}, {isa.R8, isa.R9},
	} {
		p.Inst(mov64(reg(mv[0]), reg(mv[1])))
	}
	p.Inst(op0(isa.OpSyscall))
	p.Inst(op0(isa.OpRet))
}

// jumpTable is a jump table emitted after the function body.
type jumpTable struct {
	label   string
	targets []int
}

// funcGen emits one function.
type funcGen struct {
	p *asm.X64Prog
	f *mir.Func
	// frameSize is the full frame below the saved registers.
	frameSize int
	localOff  []int // offset below rbp of each local slot
	vregBase  int
	tables    []jumpTable // jump tables appended after the body
	nextTable int
	// regB is the function's second scratch register. Like a real compiler,
	// the generator draws it from the callee-saved set (plus rcx) per
	// function and saves/restores it in the prologue/epilogue — which is
	// what gives optimized binaries their characteristic pop-sequence
	// function tails.
	regB  isa.Reg
	saved bool // regB is callee-saved and pushed in the prologue
	// regC is the store-address scratch register, drawn per function from
	// the caller-saved set (as real register allocators do).
	regC isa.Reg
}

var _argRegs = []isa.Reg{isa.RDI, isa.RSI, isa.RDX, isa.RCX, isa.R8, isa.R9}

// scratch register rotation: rcx plus the callee-saved registers.
var _scratchRegs = []isa.Reg{isa.RCX, isa.RBX, isa.R12, isa.R13, isa.R14, isa.R15}

// address scratch rotation: caller-saved registers.
var _addrRegs = []isa.Reg{isa.RDX, isa.RSI, isa.RDI, isa.R10, isa.R11}

// pickScratch deterministically assigns scratch registers per function.
func pickScratch(name string) (regB isa.Reg, saved bool, regC isa.Reg) {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	r := _scratchRegs[h%len(_scratchRegs)]
	return r, r != isa.RCX, _addrRegs[(h/7)%len(_addrRegs)]
}

func (cg *funcGen) emitFunc(f *mir.Func) error {
	if err := mir.Verify(f); err != nil {
		return err
	}
	cg.f = f
	cg.tables = cg.tables[:0]
	cg.regB, cg.saved, cg.regC = pickScratch(f.Name)

	// Frame layout below rbp: [saved regB][locals][vreg slots].
	base := 0
	if cg.saved {
		base = 8
	}
	cg.localOff = make([]int, len(f.Locals))
	off := base
	for i, l := range f.Locals {
		off += (l.Size + 7) &^ 7
		cg.localOff[i] = off
	}
	cg.vregBase = off
	cg.frameSize = (off - base + int(f.NumVRegs)*8 + 15) &^ 15

	p := cg.p
	p.Label(f.Name)
	p.Inst(op1(isa.OpPush, reg(isa.RBP)))
	p.Inst(mov64(reg(isa.RBP), reg(isa.RSP)))
	if cg.saved {
		p.Inst(op1(isa.OpPush, reg(cg.regB)))
	}
	if cg.frameSize > 0 {
		p.Inst(op2(isa.OpSub, 8, reg(isa.RSP), imm(int64(cg.frameSize))))
	}
	for i := 0; i < f.NumParam; i++ {
		p.Inst(mov64(frame(cg.localOff[i]), reg(_argRegs[i])))
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
	for _, jt := range cg.tables {
		p.Label(jt.label)
		for _, tgt := range jt.targets {
			p.QuadLabel(cg.blockLabel(tgt))
		}
	}
	return nil
}

func (cg *funcGen) blockLabel(id int) string {
	return cg.f.Name + "_b" + strconv.Itoa(id)
}

func (cg *funcGen) inst(i isa.Inst)   { cg.p.Inst(i) }
func (cg *funcGen) jmp(label string)  { cg.p.InstRef(branch(isa.OpJmp, 0), label) }
func (cg *funcGen) call(label string) { cg.p.InstRef(branch(isa.OpCall, 0), label) }

// vslot returns the rbp-relative offset of a virtual register slot.
func (cg *funcGen) vslot(v mir.VReg) int { return cg.vregBase + 8*(int(v)+1) }

// loadV emits a load of a vreg into a machine register.
func (cg *funcGen) loadV(r isa.Reg, v mir.VReg) {
	cg.inst(mov64(reg(r), frame(cg.vslot(v))))
}

// storeV emits a store of a machine register into a vreg slot.
func (cg *funcGen) storeV(v mir.VReg, r isa.Reg) {
	cg.inst(mov64(frame(cg.vslot(v)), reg(r)))
}

// _binOps maps the MIR binary operators that are one two-operand x86
// instruction on rax to their opcode.
var _binOps = map[mir.BinOp]isa.Op{
	mir.OpAdd: isa.OpAdd, mir.OpSub: isa.OpSub, mir.OpMul: isa.OpImul,
	mir.OpAnd: isa.OpAnd, mir.OpOr: isa.OpOr, mir.OpXor: isa.OpXor,
}

func (cg *funcGen) emitInstr(ins mir.Instr) error {
	rax := reg(isa.RAX)
	switch ins.Kind {
	case mir.InstConst:
		cg.inst(mov64(rax, imm(ins.Val)))
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstCopy:
		cg.loadV(isa.RAX, ins.A)
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstNeg:
		cg.loadV(isa.RAX, ins.A)
		cg.inst(op1(isa.OpNeg, rax))
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstNot:
		cg.loadV(isa.RAX, ins.A)
		cg.inst(op1(isa.OpNot, rax))
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstBin:
		cg.loadV(isa.RAX, ins.A)
		cg.loadV(cg.regB, ins.B)
		b := reg(cg.regB)
		if op, ok := _binOps[ins.Op]; ok {
			cg.inst(op2(op, 8, rax, b))
			cg.storeV(ins.Dst, isa.RAX)
			return nil
		}
		switch ins.Op {
		case mir.OpDiv, mir.OpMod:
			cg.inst(op0(isa.OpCqo))
			cg.inst(op1(isa.OpIdiv, b))
			if ins.Op == mir.OpMod {
				cg.inst(mov64(rax, reg(isa.RDX)))
			}
		case mir.OpShl, mir.OpShr:
			if cg.regB != isa.RCX {
				cg.inst(mov64(reg(isa.RCX), b))
			}
			op := isa.OpShl
			if ins.Op == mir.OpShr {
				op = isa.OpSar
			}
			cg.inst(op2(op, 8, rax, reg(isa.RCX)))
		case mir.OpLT, mir.OpLE, mir.OpGT, mir.OpGE, mir.OpEQ, mir.OpNE, mir.OpULT:
			cg.inst(op2(isa.OpCmp, 8, rax, b))
			cg.inst(isa.Inst{Op: isa.OpSetcc, Cond: _setccOf[ins.Op], Size: 1, A: rax})
			cg.inst(op2(isa.OpMovzx, 4, rax, rax))
		default:
			return fmt.Errorf("codegen: unknown binop %v", ins.Op)
		}
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstLoad:
		cg.loadV(isa.RAX, ins.A)
		if ins.Size == 1 {
			cg.inst(op2(isa.OpMovzx, 4, rax, at(isa.RAX)))
		} else {
			cg.inst(mov64(rax, at(isa.RAX)))
		}
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstStore:
		cg.loadV(cg.regC, ins.A)
		cg.loadV(cg.regB, ins.B)
		size := uint8(8)
		if ins.Size == 1 {
			size = 1
		}
		cg.inst(op2(isa.OpMov, size, at(cg.regC), reg(cg.regB)))

	case mir.InstAddrLocal:
		cg.inst(op2(isa.OpLea, 8, rax, frame(cg.localOff[ins.Local])))
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstAddrGlobal:
		cg.p.InstRefB(mov64(rax, imm(0)), ins.Name)
		cg.storeV(ins.Dst, isa.RAX)

	case mir.InstCall:
		if len(ins.Args) > len(_argRegs) {
			return fmt.Errorf("codegen: too many call arguments")
		}
		for i, a := range ins.Args {
			cg.loadV(_argRegs[i], a)
		}
		cg.call(ins.Name)
		if ins.HasDst {
			cg.storeV(ins.Dst, isa.RAX)
		}

	default:
		return fmt.Errorf("codegen: unknown instruction kind %d", ins.Kind)
	}
	return nil
}

var _setccOf = map[mir.BinOp]isa.Cond{
	mir.OpLT: isa.CondL, mir.OpLE: isa.CondLE, mir.OpGT: isa.CondG, mir.OpGE: isa.CondGE,
	mir.OpEQ: isa.CondE, mir.OpNE: isa.CondNE, mir.OpULT: isa.CondB,
}

func (cg *funcGen) emitTerm(t mir.Term) error {
	rax := reg(isa.RAX)
	xorEAX := op2(isa.OpXor, 4, rax, rax)
	switch t.Kind {
	case mir.TermRet:
		if t.HasVal {
			cg.loadV(isa.RAX, t.Val)
		} else {
			cg.inst(xorEAX)
		}
		if cg.saved {
			cg.inst(op2(isa.OpLea, 8, reg(isa.RSP), frame(8)))
			cg.inst(op1(isa.OpPop, reg(cg.regB)))
			cg.inst(op1(isa.OpPop, reg(isa.RBP)))
		} else {
			cg.inst(op0(isa.OpLeave))
		}
		cg.inst(op0(isa.OpRet))

	case mir.TermBr:
		cg.jmp(cg.blockLabel(t.Target))

	case mir.TermCondBr:
		cg.loadV(isa.RAX, t.Cond)
		cg.inst(op2(isa.OpTest, 8, rax, rax))
		cg.p.InstRef(branch(isa.OpJcc, isa.CondNE), cg.blockLabel(t.Target))
		cg.jmp(cg.blockLabel(t.Else))

	case mir.TermJumpTable:
		table := cg.f.Name + "_jt" + strconv.Itoa(cg.nextTable)
		cg.nextTable++
		cg.loadV(isa.RAX, t.Index)
		// Clamp out-of-range indices to 0 (defensive; flattening always
		// produces in-range states).
		cg.inst(op2(isa.OpCmp, 8, rax, imm(int64(len(t.Targets)))))
		cg.p.InstRef(branch(isa.OpJcc, isa.CondB), table+"_ok")
		cg.inst(xorEAX)
		cg.p.Label(table + "_ok")
		cg.p.InstRefB(mov64(reg(isa.RCX), imm(0)), table)
		cg.inst(mov64(rax, isa.MemOpIdx(isa.RCX, isa.RAX, 8, 0)))
		cg.inst(op1(isa.OpJmp, rax))
		// The table itself lives in text, after the function body.
		cg.tables = append(cg.tables, jumpTable{label: table, targets: t.Targets})

	default:
		return fmt.Errorf("codegen: unknown terminator kind %d", t.Kind)
	}
	return nil
}
