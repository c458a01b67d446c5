// Package codegen translates MIR modules into executable SBF binaries: a
// simple spill-everything x86-64 code generator (each virtual register and
// local lives in a frame slot), a small assembly runtime (_start and the
// syscall primitives), and a linker that lays out text and data sections.
//
// Jump tables (for the TermJumpTable terminator that flattening and
// virtualization emit) are placed inside the text section, as compilers
// often do — their pointer bytes are themselves a source of unaligned
// gadgets, which is faithful to the phenomenon under study.
package codegen

import (
	"fmt"
	"strings"

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

	// Emit assembly text.
	var sb strings.Builder
	emitStart(&sb)
	emitBuiltins(&sb)
	cg := &funcGen{out: &sb}
	for _, f := range m.Funcs {
		if err := cg.emitFunc(f); err != nil {
			return nil, err
		}
	}

	res, err := asm.AssembleWithSymbols(sb.String(), textBase, extern)
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

// emitStart writes the process entry point: call main, exit with its result.
func emitStart(sb *strings.Builder) {
	sb.WriteString(`
_start:
    call main
    mov rdi, rax
    mov rax, 60
    syscall
`)
}

// emitBuiltins writes the generic syscall wrapper with the same argument
// shuffle glibc's syscall(2) uses: the syscall number arrives in rdi and
// every argument shifts down one register.
func emitBuiltins(sb *strings.Builder) {
	sb.WriteString(`
__syscall:
    mov rax, rdi
    mov rdi, rsi
    mov rsi, rdx
    mov rdx, rcx
    mov r10, r8
    mov r8, r9
    syscall
    ret
`)
}

// funcGen emits one function.
type funcGen struct {
	out *strings.Builder
	f   *mir.Func
	// frameSize is the full frame below the saved registers.
	frameSize int
	localOff  []int // offset below rbp of each local slot
	vregBase  int
	tables    strings.Builder // jump tables appended after the body
	nextTable int
	// regB is the function's second scratch register. Like a real compiler,
	// the generator draws it from the callee-saved set (plus rcx) per
	// function and saves/restores it in the prologue/epilogue — which is
	// what gives optimized binaries their characteristic pop-sequence
	// function tails.
	regB  string
	regB8 string // low-byte name
	saved bool   // regB is callee-saved and pushed in the prologue
	// regC is the store-address scratch register, drawn per function from
	// the caller-saved set (as real register allocators do).
	regC string
}

var _argRegs = []string{"rdi", "rsi", "rdx", "rcx", "r8", "r9"}

// scratch register rotation: rcx plus the callee-saved registers.
var _scratchRegs = []struct{ name, low string }{
	{"rcx", "cl"},
	{"rbx", "bl"},
	{"r12", "r12b"},
	{"r13", "r13b"},
	{"r14", "r14b"},
	{"r15", "r15b"},
}

// address scratch rotation: caller-saved registers.
var _addrRegs = []string{"rdx", "rsi", "rdi", "r10", "r11"}

// pickScratch deterministically assigns scratch registers per function.
func pickScratch(name string) (regB, regB8 string, saved bool, regC string) {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	r := _scratchRegs[h%len(_scratchRegs)]
	return r.name, r.low, r.name != "rcx", _addrRegs[(h/7)%len(_addrRegs)]
}

func (cg *funcGen) emitFunc(f *mir.Func) error {
	if err := mir.Verify(f); err != nil {
		return err
	}
	cg.f = f
	cg.tables.Reset()
	cg.regB, cg.regB8, cg.saved, cg.regC = pickScratch(f.Name)

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

	p := cg.printf
	p("%s:", f.Name)
	p("    push rbp")
	p("    mov rbp, rsp")
	if cg.saved {
		p("    push %s", cg.regB)
	}
	if cg.frameSize > 0 {
		p("    sub rsp, %d", cg.frameSize)
	}
	for i := 0; i < f.NumParam; i++ {
		p("    mov qword [rbp-%d], %s", cg.localOff[i], _argRegs[i])
	}
	p("    jmp %s", cg.blockLabel(0))

	for _, b := range f.Blocks {
		p("%s:", cg.blockLabel(b.ID))
		for _, ins := range b.Instrs {
			if err := cg.emitInstr(ins); err != nil {
				return err
			}
		}
		if err := cg.emitTerm(b.Term); err != nil {
			return err
		}
	}
	cg.out.WriteString(cg.tables.String())
	return nil
}

func (cg *funcGen) printf(format string, args ...any) {
	fmt.Fprintf(cg.out, format+"\n", args...)
}

func (cg *funcGen) blockLabel(id int) string {
	return fmt.Sprintf("%s_b%d", cg.f.Name, id)
}

// vslot returns the rbp-relative offset of a virtual register slot.
func (cg *funcGen) vslot(v mir.VReg) int { return cg.vregBase + 8*(int(v)+1) }

// loadV emits a load of a vreg into a machine register.
func (cg *funcGen) loadV(reg string, v mir.VReg) {
	cg.printf("    mov %s, qword [rbp-%d]", reg, cg.vslot(v))
}

// storeV emits a store of a machine register into a vreg slot.
func (cg *funcGen) storeV(v mir.VReg, reg string) {
	cg.printf("    mov qword [rbp-%d], %s", cg.vslot(v), reg)
}

func (cg *funcGen) emitInstr(ins mir.Instr) error {
	p := cg.printf
	switch ins.Kind {
	case mir.InstConst:
		p("    movabs rax, %d", ins.Val)
		cg.storeV(ins.Dst, "rax")

	case mir.InstCopy:
		cg.loadV("rax", ins.A)
		cg.storeV(ins.Dst, "rax")

	case mir.InstNeg:
		cg.loadV("rax", ins.A)
		p("    neg rax")
		cg.storeV(ins.Dst, "rax")

	case mir.InstNot:
		cg.loadV("rax", ins.A)
		p("    not rax")
		cg.storeV(ins.Dst, "rax")

	case mir.InstBin:
		cg.loadV("rax", ins.A)
		cg.loadV(cg.regB, ins.B)
		switch ins.Op {
		case mir.OpAdd:
			p("    add rax, %s", cg.regB)
		case mir.OpSub:
			p("    sub rax, %s", cg.regB)
		case mir.OpMul:
			p("    imul rax, %s", cg.regB)
		case mir.OpDiv:
			p("    cqo")
			p("    idiv %s", cg.regB)
		case mir.OpMod:
			p("    cqo")
			p("    idiv %s", cg.regB)
			p("    mov rax, rdx")
		case mir.OpAnd:
			p("    and rax, %s", cg.regB)
		case mir.OpOr:
			p("    or rax, %s", cg.regB)
		case mir.OpXor:
			p("    xor rax, %s", cg.regB)
		case mir.OpShl:
			if cg.regB != "rcx" {
				p("    mov rcx, %s", cg.regB)
			}
			p("    shl rax, cl")
		case mir.OpShr:
			if cg.regB != "rcx" {
				p("    mov rcx, %s", cg.regB)
			}
			p("    sar rax, cl")
		case mir.OpLT, mir.OpLE, mir.OpGT, mir.OpGE, mir.OpEQ, mir.OpNE, mir.OpULT:
			p("    cmp rax, %s", cg.regB)
			p("    set%s al", _setccOf[ins.Op])
			p("    movzx eax, al")
		default:
			return fmt.Errorf("codegen: unknown binop %v", ins.Op)
		}
		cg.storeV(ins.Dst, "rax")

	case mir.InstLoad:
		cg.loadV("rax", ins.A)
		if ins.Size == 1 {
			p("    movzx eax, byte [rax]")
		} else {
			p("    mov rax, qword [rax]")
		}
		cg.storeV(ins.Dst, "rax")

	case mir.InstStore:
		cg.loadV(cg.regC, ins.A)
		cg.loadV(cg.regB, ins.B)
		if ins.Size == 1 {
			p("    mov byte [%s], %s", cg.regC, cg.regB8)
		} else {
			p("    mov qword [%s], %s", cg.regC, cg.regB)
		}

	case mir.InstAddrLocal:
		p("    lea rax, [rbp-%d]", cg.localOff[ins.Local])
		cg.storeV(ins.Dst, "rax")

	case mir.InstAddrGlobal:
		p("    movabs rax, %s", ins.Name)
		cg.storeV(ins.Dst, "rax")

	case mir.InstCall:
		if len(ins.Args) > len(_argRegs) {
			return fmt.Errorf("codegen: too many call arguments")
		}
		for i, a := range ins.Args {
			cg.loadV(_argRegs[i], a)
		}
		p("    call %s", ins.Name)
		if ins.HasDst {
			cg.storeV(ins.Dst, "rax")
		}

	default:
		return fmt.Errorf("codegen: unknown instruction kind %d", ins.Kind)
	}
	return nil
}

var _setccOf = map[mir.BinOp]string{
	mir.OpLT: "l", mir.OpLE: "le", mir.OpGT: "g", mir.OpGE: "ge",
	mir.OpEQ: "e", mir.OpNE: "ne", mir.OpULT: "b",
}

func (cg *funcGen) emitTerm(t mir.Term) error {
	p := cg.printf
	switch t.Kind {
	case mir.TermRet:
		if t.HasVal {
			cg.loadV("rax", t.Val)
		} else {
			p("    xor eax, eax")
		}
		if cg.saved {
			p("    lea rsp, [rbp-8]")
			p("    pop %s", cg.regB)
			p("    pop rbp")
			p("    ret")
		} else {
			p("    leave")
			p("    ret")
		}

	case mir.TermBr:
		p("    jmp %s", cg.blockLabel(t.Target))

	case mir.TermCondBr:
		cg.loadV("rax", t.Cond)
		p("    test rax, rax")
		p("    jnz %s", cg.blockLabel(t.Target))
		p("    jmp %s", cg.blockLabel(t.Else))

	case mir.TermJumpTable:
		table := fmt.Sprintf("%s_jt%d", cg.f.Name, cg.nextTable)
		cg.nextTable++
		cg.loadV("rax", t.Index)
		// Clamp out-of-range indices to 0 (defensive; flattening always
		// produces in-range states).
		p("    cmp rax, %d", len(t.Targets))
		p("    jb %s_ok", table)
		p("    xor eax, eax")
		p("%s_ok:", table)
		p("    movabs rcx, %s", table)
		p("    mov rax, qword [rcx+rax*8]")
		p("    jmp rax")
		// The table itself lives in text, after the function body.
		fmt.Fprintf(&cg.tables, "%s:\n", table)
		for _, tgt := range t.Targets {
			fmt.Fprintf(&cg.tables, "    .quad %s\n", cg.blockLabel(tgt))
		}

	default:
		return fmt.Errorf("codegen: unknown terminator kind %d", t.Kind)
	}
	return nil
}
