// Package mir defines the MiniC intermediate representation: three-address
// instructions over virtual registers, basic blocks, and per-function frames
// of addressable local slots. It is the level at which the obfuscation
// passes operate (mirroring Obfuscator-LLVM working on LLVM IR) and the
// input to the x86-64 code generator.
//
// Invariant: virtual registers never cross basic-block boundaries; all
// cross-block data flow goes through local slots or memory. This makes
// block-level transformations (flattening, bogus control flow) trivially
// sound and lets the code generator treat registers as block-local
// temporaries.
package mir

import (
	"fmt"
	"strings"
)

// VReg is a virtual register id (block-local temporary).
type VReg int32

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators. Comparisons yield 0 or 1. Div/Mod/Shr/comparisons are
// signed (MiniC int is a signed 64-bit type).
const (
	OpAdd BinOp = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpULT // unsigned compare (used by generated code, not surface MiniC)
)

var _binOpNames = map[BinOp]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpLT: "lt", OpLE: "le", OpGT: "gt", OpGE: "ge", OpEQ: "eq", OpNE: "ne",
	OpULT: "ult",
}

// String names the operator.
func (o BinOp) String() string { return _binOpNames[o] }

// InstrKind enumerates instruction kinds.
type InstrKind uint8

// Instruction kinds.
const (
	InstConst      InstrKind = iota + 1 // Dst = Val
	InstBin                             // Dst = A op B
	InstNeg                             // Dst = -A
	InstNot                             // Dst = ^A (bitwise)
	InstCopy                            // Dst = A
	InstLoad                            // Dst = *(A) (Size bytes, zero-extended)
	InstStore                           // *(A) = B (Size bytes)
	InstAddrLocal                       // Dst = &local[Local]
	InstAddrGlobal                      // Dst = &global(Name)
	InstCall                            // Dst = Name(Args...) (Dst unused when HasDst false)
)

// Instr is one MIR instruction.
type Instr struct {
	Kind   InstrKind
	Dst    VReg
	HasDst bool
	A, B   VReg
	Op     BinOp
	Val    int64
	Name   string
	Args   []VReg
	Size   uint8 // Load/Store access width (1 or 8)
	Local  int
}

// TermKind enumerates block terminators.
type TermKind uint8

// Terminators.
const (
	TermRet       TermKind = iota + 1 // return [Val]
	TermBr                            // goto Target
	TermCondBr                        // if Cond != 0 goto Target else Else
	TermJumpTable                     // goto Targets[Index] (Index in range)
)

// Term is a block terminator.
type Term struct {
	Kind    TermKind
	Val     VReg
	HasVal  bool
	Cond    VReg
	Target  int
	Else    int
	Index   VReg
	Targets []int
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Term
}

// LocalSlot is an addressable stack slot.
type LocalSlot struct {
	Name string
	Size int
}

// Func is one function: entry block is Blocks[0].
type Func struct {
	Name     string
	NumParam int
	HasRet   bool
	Locals   []LocalSlot
	NumVRegs int32
	Blocks   []*Block
}

// NewVReg allocates a fresh virtual register.
func (f *Func) NewVReg() VReg {
	f.NumVRegs++
	return VReg(f.NumVRegs - 1)
}

// AddLocal allocates a local slot and returns its index.
func (f *Func) AddLocal(name string, size int) int {
	f.Locals = append(f.Locals, LocalSlot{Name: name, Size: size})
	return len(f.Locals) - 1
}

// NewBlock appends an empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Block returns the block with the given ID.
func (f *Func) Block(id int) *Block { return f.Blocks[id] }

// GlobalData is one data-section object.
type GlobalData struct {
	Name string
	Size int
	Init []byte // zero-padded to Size
}

// Module is a compilation unit.
type Module struct {
	Funcs   []*Func
	Globals []GlobalData
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddGlobal appends a global, returning its name for convenience.
func (m *Module) AddGlobal(g GlobalData) string {
	m.Globals = append(m.Globals, g)
	return g.Name
}

// HasGlobal reports whether a global exists.
func (m *Module) HasGlobal(name string) bool {
	for _, g := range m.Globals {
		if g.Name == name {
			return true
		}
	}
	return false
}

// Verify checks structural invariants: terminator presence, target validity,
// and block-local virtual register discipline (defined before use within the
// same block).
func Verify(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("mir: %s: no blocks", f.Name)
	}
	// defined holds the vregs defined so far in the current block; one map
	// serves every block and is cleared between them.
	defined := make(map[VReg]bool)
	for _, b := range f.Blocks {
		if b.Term.Kind == 0 {
			return fmt.Errorf("mir: %s: block %d missing terminator", f.Name, b.ID)
		}
		clear(defined)
		// The error context is formatted only when a check fails.
		undefined := func(what string, v VReg) error {
			return fmt.Errorf("mir: %s: block %d: %s uses undefined v%d", f.Name, b.ID, what, v)
		}
		use := func(v VReg, what string) error {
			if !defined[v] {
				return undefined(what, v)
			}
			return nil
		}
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if v, ok := firstUndefined(defined, ins); ok {
				return undefined(fmt.Sprintf("instr %d (%v)", i, ins.Kind), v)
			}
			if ins.Kind != InstStore && (ins.Kind != InstCall || ins.HasDst) {
				defined[ins.Dst] = true
			}
		}
		checkTarget := func(t int) error {
			if t < 0 || t >= len(f.Blocks) {
				return fmt.Errorf("mir: %s: block %d branches to invalid block %d", f.Name, b.ID, t)
			}
			return nil
		}
		switch b.Term.Kind {
		case TermRet:
			if b.Term.HasVal {
				if err := use(b.Term.Val, "ret"); err != nil {
					return err
				}
			}
		case TermBr:
			if err := checkTarget(b.Term.Target); err != nil {
				return err
			}
		case TermCondBr:
			if err := use(b.Term.Cond, "condbr"); err != nil {
				return err
			}
			if err := checkTarget(b.Term.Target); err != nil {
				return err
			}
			if err := checkTarget(b.Term.Else); err != nil {
				return err
			}
		case TermJumpTable:
			if err := use(b.Term.Index, "jumptable"); err != nil {
				return err
			}
			if len(b.Term.Targets) == 0 {
				return fmt.Errorf("mir: %s: empty jump table", f.Name)
			}
			for _, t := range b.Term.Targets {
				if err := checkTarget(t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// firstUndefined returns the first vreg ins reads, in operand order, that
// defined lacks.
func firstUndefined(defined map[VReg]bool, ins *Instr) (VReg, bool) {
	var pair [2]VReg
	var reads []VReg
	switch ins.Kind {
	case InstBin, InstStore:
		pair = [2]VReg{ins.A, ins.B}
		reads = pair[:]
	case InstNeg, InstNot, InstCopy, InstLoad:
		pair[0] = ins.A
		reads = pair[:1]
	case InstCall:
		reads = ins.Args
	}
	for _, v := range reads {
		if !defined[v] {
			return v, true
		}
	}
	return 0, false
}

// String renders the function for debugging.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (params=%d, locals=%d)\n", f.Name, f.NumParam, len(f.Locals))
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for _, ins := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(ins.String())
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "  %s\n", b.Term)
	}
	return sb.String()
}

// String renders one instruction.
func (i Instr) String() string {
	switch i.Kind {
	case InstConst:
		return fmt.Sprintf("v%d = %d", i.Dst, i.Val)
	case InstBin:
		return fmt.Sprintf("v%d = %s v%d, v%d", i.Dst, i.Op, i.A, i.B)
	case InstNeg:
		return fmt.Sprintf("v%d = neg v%d", i.Dst, i.A)
	case InstNot:
		return fmt.Sprintf("v%d = not v%d", i.Dst, i.A)
	case InstCopy:
		return fmt.Sprintf("v%d = v%d", i.Dst, i.A)
	case InstLoad:
		return fmt.Sprintf("v%d = load%d [v%d]", i.Dst, i.Size, i.A)
	case InstStore:
		return fmt.Sprintf("store%d [v%d] = v%d", i.Size, i.A, i.B)
	case InstAddrLocal:
		return fmt.Sprintf("v%d = &local%d", i.Dst, i.Local)
	case InstAddrGlobal:
		return fmt.Sprintf("v%d = &%s", i.Dst, i.Name)
	case InstCall:
		if i.HasDst {
			return fmt.Sprintf("v%d = call %s(%v)", i.Dst, i.Name, i.Args)
		}
		return fmt.Sprintf("call %s(%v)", i.Name, i.Args)
	}
	return "?"
}

// String renders a terminator.
func (t Term) String() string {
	switch t.Kind {
	case TermRet:
		if t.HasVal {
			return fmt.Sprintf("ret v%d", t.Val)
		}
		return "ret"
	case TermBr:
		return fmt.Sprintf("br b%d", t.Target)
	case TermCondBr:
		return fmt.Sprintf("condbr v%d, b%d, b%d", t.Cond, t.Target, t.Else)
	case TermJumpTable:
		return fmt.Sprintf("jumptable v%d, %v", t.Index, t.Targets)
	}
	return "?"
}
