// Package asm assembles machine code in one pass for both backends.
//
// The code generator drives a program builder per ISA: X64Prog for x86-64
// and RVProg for RV64. Each encodes every instruction through the isa
// encoder as it arrives; a reference to a label not yet defined records a
// fixup that Assemble patches once every label is known, rejecting any
// patch that would change an instruction's length rather than relaxing
// it.
//
// Assemble is a textual front end for x86-64 (used by the self-modifying
// decoder stub and by tests). Syntax is Intel-flavoured, one instruction
// per line or per ';'-separated field ("pop rdi; ret"). '#' starts a
// comment. Labels are "name:" definitions; a label may be used as a branch
// target or as an immediate. Supported directives: .byte, .quad, .asciz,
// .align. Each statement is parsed and handed to an X64Prog at once.
package asm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"github.com/nofreelunch/gadget-planner/internal/isa"
)

// SyntaxError reports a problem in the assembly source.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

func synErr(line int, format string, args ...any) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Result is the output of assembling a program.
type Result struct {
	Code   []byte
	Labels map[string]uint64
}

// Assemble translates x86-64 source into machine code based at the given
// address.
func Assemble(src string, base uint64) (*Result, error) {
	p := NewX64Prog(base)
	for lineNo, rawLine := range strings.Split(src, "\n") {
		line := rawLine
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		p.line = lineNo + 1
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := parseStmt(p, stmt); err != nil {
				return nil, err
			}
		}
	}
	return p.Assemble(nil)
}

// MustAssemble is a test/example helper that panics on error.
func MustAssemble(src string, base uint64) *Result {
	r, err := Assemble(src, base)
	if err != nil {
		panic(err)
	}
	return r
}

// parseStmt parses one statement and appends it to p.
func parseStmt(p *X64Prog, stmt string) error {
	// Label definition, possibly followed by a statement.
	if i := strings.IndexByte(stmt, ':'); i >= 0 && !strings.ContainsAny(stmt[:i], " \t[") {
		p.Label(strings.TrimSpace(stmt[:i]))
		if rest := strings.TrimSpace(stmt[i+1:]); rest != "" {
			return parseStmt(p, rest)
		}
		return nil
	}
	if strings.HasPrefix(stmt, ".") {
		return parseDirective(p, stmt)
	}
	inst, refA, refB, err := parseInst(stmt, p.line)
	if err != nil {
		return err
	}
	switch {
	case refA != "" && refB != "":
		return synErr(p.line, "more than one label operand in %q", stmt)
	case refA != "":
		p.InstRef(inst, refA)
	case refB != "":
		p.InstRefB(inst, refB)
	default:
		p.Inst(inst)
	}
	return nil
}

func parseDirective(p *X64Prog, stmt string) error {
	line := p.line
	fields := strings.SplitN(stmt, " ", 2)
	dir := fields[0]
	arg := ""
	if len(fields) == 2 {
		arg = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".byte":
		var data []byte
		for _, f := range strings.Split(arg, ",") {
			v, err := parseInt(strings.TrimSpace(f))
			if err != nil {
				return synErr(line, "bad .byte value %q", f)
			}
			data = append(data, byte(v))
		}
		p.Bytes(data)
		return nil
	case ".quad":
		for _, f := range strings.Split(arg, ",") {
			f = strings.TrimSpace(f)
			if v, err := parseInt(f); err == nil {
				p.code = binary.LittleEndian.AppendUint64(p.code, uint64(v))
			} else {
				p.QuadLabel(f)
			}
		}
		return nil
	case ".asciz":
		s, err := strconv.Unquote(arg)
		if err != nil {
			return synErr(line, "bad .asciz string %s", arg)
		}
		p.Bytes(append([]byte(s), 0))
		return nil
	case ".align":
		n, err := parseInt(arg)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return synErr(line, "bad .align value %q", arg)
		}
		p.Align(int(n))
		return nil
	}
	return synErr(line, "unknown directive %s", dir)
}

func parseInt(s string) (int64, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, err
	}
	iv := int64(v)
	if neg {
		iv = -iv
	}
	return iv, nil
}

// operand is a parsed operand that may carry an unresolved label.
type operand struct {
	op       isa.Operand
	size     uint8 // size implied by the operand's syntax (0 if unknown)
	labelRef string
}

func parseOperand(s string, line int) (operand, error) {
	s = strings.TrimSpace(s)
	// Optional size keyword before a memory operand.
	var size uint8
	for kw, sz := range map[string]uint8{"byte": 1, "dword": 4, "qword": 8} {
		if strings.HasPrefix(s, kw+" ") || strings.HasPrefix(s, kw+"[") {
			size = sz
			s = strings.TrimSpace(strings.TrimPrefix(s, kw))
			break
		}
	}

	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return operand{}, synErr(line, "unterminated memory operand %q", s)
		}
		m, err := parseMem(s[1:len(s)-1], line)
		if err != nil {
			return operand{}, err
		}
		return operand{op: isa.Operand{Kind: isa.KindMem, Mem: m}, size: size}, nil
	}

	if r, ok := isa.RegByName(s); ok {
		switch {
		case strings.HasPrefix(s, "e") || strings.HasSuffix(s, "d") && strings.HasPrefix(s, "r") && len(s) > 2 && s[1] >= '0' && s[1] <= '9':
			size = 4
		case r.Name(1) == s:
			size = 1
		case r.Name(4) == s:
			size = 4
		default:
			size = 8
		}
		return operand{op: isa.RegOp(r), size: size}, nil
	}

	if v, err := parseInt(s); err == nil {
		return operand{op: isa.ImmOp(v)}, nil
	}

	// Otherwise a label reference, resolved by the X64Prog.
	if strings.ContainsAny(s, " \t,[]") {
		return operand{}, synErr(line, "bad operand %q", s)
	}
	return operand{op: isa.ImmOp(0), labelRef: s}, nil
}

// parseMem parses the inside of a bracketed memory operand:
// base [+ index[*scale]] [+/- disp] or rip+disp or a bare displacement.
func parseMem(s string, line int) (isa.Mem, error) {
	var m isa.Mem
	s = strings.ReplaceAll(s, " ", "")
	s = strings.ReplaceAll(s, "-", "+-")
	for _, part := range strings.Split(s, "+") {
		if part == "" {
			continue
		}
		if part == "rip" {
			m.RIPRel = true
			continue
		}
		if star := strings.IndexByte(part, '*'); star >= 0 {
			r, ok := isa.RegByName(part[:star])
			if !ok {
				return m, synErr(line, "bad index register %q", part[:star])
			}
			sc, err := parseInt(part[star+1:])
			if err != nil {
				return m, synErr(line, "bad scale %q", part[star+1:])
			}
			m.Index, m.HasIndex, m.Scale = r, true, uint8(sc)
			continue
		}
		if r, ok := isa.RegByName(part); ok {
			if m.HasBase {
				m.Index, m.HasIndex, m.Scale = r, true, 1
			} else {
				m.Base, m.HasBase = r, true
			}
			continue
		}
		v, err := parseInt(part)
		if err != nil {
			return m, synErr(line, "bad memory component %q", part)
		}
		m.Disp += int32(v)
	}
	return m, nil
}

var _mnemonics = map[string]isa.Op{
	"mov": isa.OpMov, "lea": isa.OpLea, "add": isa.OpAdd, "sub": isa.OpSub,
	"and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor, "cmp": isa.OpCmp,
	"test": isa.OpTest, "not": isa.OpNot, "neg": isa.OpNeg, "imul": isa.OpImul,
	"shl": isa.OpShl, "shr": isa.OpShr, "sar": isa.OpSar, "inc": isa.OpInc,
	"dec": isa.OpDec, "push": isa.OpPush, "pop": isa.OpPop, "ret": isa.OpRet,
	"jmp": isa.OpJmp, "call": isa.OpCall, "syscall": isa.OpSyscall,
	"nop": isa.OpNop, "leave": isa.OpLeave, "int3": isa.OpInt3, "hlt": isa.OpHlt,
	"xchg": isa.OpXchg, "movzx": isa.OpMovzx, "movsxd": isa.OpMovsxd,
	"cqo": isa.OpCqo, "idiv": isa.OpIdiv,
}

var _condByName = map[string]isa.Cond{
	"o": isa.CondO, "no": isa.CondNO, "b": isa.CondB, "c": isa.CondB,
	"ae": isa.CondAE, "nc": isa.CondAE, "e": isa.CondE, "z": isa.CondE,
	"ne": isa.CondNE, "nz": isa.CondNE, "be": isa.CondBE, "a": isa.CondA,
	"s": isa.CondS, "ns": isa.CondNS, "p": isa.CondP, "np": isa.CondNP,
	"l": isa.CondL, "ge": isa.CondGE, "le": isa.CondLE, "g": isa.CondG,
}

// parseInst parses an instruction statement. refA and refB name the labels
// whose addresses operands A and B take, if any.
func parseInst(stmt string, line int) (inst isa.Inst, refA, refB string, err error) {
	mn := stmt
	rest := ""
	if i := strings.IndexAny(stmt, " \t"); i >= 0 {
		mn, rest = stmt[:i], strings.TrimSpace(stmt[i+1:])
	}
	mn = strings.ToLower(mn)

	switch {
	case mn == "movabs":
		inst.Op = isa.OpMov
	case strings.HasPrefix(mn, "j") && mn != "jmp":
		cc, ok := _condByName[mn[1:]]
		if !ok {
			return inst, "", "", synErr(line, "unknown mnemonic %q", mn)
		}
		inst.Op, inst.Cond = isa.OpJcc, cc
	case strings.HasPrefix(mn, "set"):
		cc, ok := _condByName[mn[3:]]
		if !ok {
			return inst, "", "", synErr(line, "unknown mnemonic %q", mn)
		}
		inst.Op, inst.Cond, inst.Size = isa.OpSetcc, cc, 1
	default:
		op, ok := _mnemonics[mn]
		if !ok {
			return inst, "", "", synErr(line, "unknown mnemonic %q", mn)
		}
		inst.Op = op
	}

	if rest != "" {
		ops := splitOperands(rest)
		if len(ops) > 2 {
			return inst, "", "", synErr(line, "too many operands in %q", stmt)
		}
		a, err := parseOperand(ops[0], line)
		if err != nil {
			return inst, "", "", err
		}
		inst.A = a.op
		refA = a.labelRef
		sz := a.size
		if len(ops) == 2 {
			b, err := parseOperand(ops[1], line)
			if err != nil {
				return inst, "", "", err
			}
			inst.B = b.op
			refB = b.labelRef
			// For movzx/movsxd the destination size rules; otherwise take
			// any explicit size from either operand.
			if sz == 0 || (b.size != 0 && inst.Op != isa.OpMovzx && inst.Op != isa.OpMovsxd &&
				!(inst.Op >= isa.OpShl && inst.Op <= isa.OpSar) && b.size > sz && a.op.Kind == isa.KindMem) {
				if b.size != 0 && sz == 0 {
					sz = b.size
				}
			}
		}
		if inst.Size == 0 {
			inst.Size = sz
		}
	}
	if inst.Size == 0 {
		inst.Size = 8
	}
	return inst, refA, refB, nil
}

// splitOperands splits on commas not inside brackets.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}
