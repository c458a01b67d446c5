// Package expr implements a hash-consed bitvector and boolean expression DAG
// with algebraic simplification. It is the term language shared by the
// symbolic executor (pre/post-conditions of gadgets), the subsumption tester,
// the partial-order planner, and the SMT solver.
//
// Widths are in bits; width 1 denotes a boolean. All bitvector operators
// require equal operand widths. Width mismatches are programming errors and
// panic; they cannot arise from analyzing binaries, only from bugs in the
// analysis itself.
package expr

import (
	"fmt"
	"strings"
)

// Kind enumerates node kinds.
type Kind uint8

// Node kinds. BoolWidth-1 kinds produce booleans.
const (
	KindInvalid Kind = iota
	KindConst        // Val, Width
	KindVar          // Name, Width, Role, Val (the role's index)

	// Bitvector operations.
	KindAdd
	KindSub
	KindMul
	KindAnd
	KindOr
	KindXor
	KindShl
	KindLshr
	KindAshr
	KindNot
	KindNeg
	KindZext  // zero-extend Args[0] to Width
	KindSext  // sign-extend Args[0] to Width
	KindTrunc // truncate Args[0] to Width
	KindIte   // Args[0] bool ? Args[1] : Args[2]

	// Boolean-valued comparisons over bitvectors.
	KindEq
	KindUlt
	KindSlt

	// Boolean connectives.
	KindBAnd
	KindBOr
	KindBNot
)

// BoolWidth is the width used for boolean nodes.
const BoolWidth = 1

// Role is what a variable stands for in the gadget model (paper Section
// IV-B). Only the roles some consumer switches on are distinguished; each
// gives the variable's Val an index.
type Role uint8

// Variable roles.
const (
	RoleOther Role = iota // flags, opaque values, payload bookkeeping; index 0
	RoleReg               // a register's entry value; index = register number
	RoleSP                // the entry stack pointer; index = its register number
	RoleStack             // an attacker stack cell; index = int64 offset from entry SP
	RoleDeref             // a read through a controlled pointer; index = read ordinal
	RoleCell              // a payload cell; index = int64 offset in the payload
)

// Roles is a set of roles: bit r holds Role r.
type Roles uint8

// Node is one immutable, hash-consed expression node. Nodes must be created
// through a Builder; nodes from the same Builder can be compared by pointer.
type Node struct {
	Kind  Kind
	Width uint8 // result width in bits (1 = bool)
	Role  Role  // variables only
	roles Roles // the roles of the variables below the node, itself included
	Val   uint64
	Name  string
	Args  []*Node
	id    uint32
}

// ID returns a builder-unique identifier, usable as a map key.
func (n *Node) ID() uint32 { return n.id }

// Roles returns the set of roles of the variables in n.
func (n *Node) Roles() Roles { return n.roles }

// IsConst reports whether the node is a bitvector constant.
func (n *Node) IsConst() bool { return n.Kind == KindConst && n.Width > 1 }

// IsBoolConst reports whether the node is a boolean constant, and its value.
func (n *Node) IsBoolConst() (value, ok bool) {
	if n.Kind == KindConst && n.Width == BoolWidth {
		return n.Val == 1, true
	}
	return false, false
}

// opKey keys every operator node: its kind and width and the ids of its
// arguments (each plus one, so 0 means no argument). Only variables carry
// a name and only constants a value, and both are interned apart, so the
// hot operator lookups hash 16 bytes and no string.
type opKey struct {
	kind       Kind
	width      uint8
	a0, a1, a2 uint32
}

// varKey keys a variable node.
type varKey struct {
	name  string
	width uint8
}

// constKey keys a constant node.
type constKey struct {
	val   uint64
	width uint8
}

// Builder interns nodes. The zero value is not usable; call NewBuilder.
type Builder struct {
	ops    map[opKey]*Node
	vars   map[varKey]*Node
	consts map[constKey]*Node
	next   uint32

	// constFast is a direct-mapped cache in front of consts: the same few
	// constants (operand masks, small immediates) are requested millions of
	// times during extraction, and a verified array probe beats even the
	// cheap constKey map lookup. Purely a cache — a collision evicts and
	// falls through to the map, never changing which node is returned.
	constFast [128]*Node
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		ops:    make(map[opKey]*Node),
		vars:   make(map[varKey]*Node),
		consts: make(map[constKey]*Node),
	}
}

// node allocates the builder's next node; every kind's table calls it
// exactly once per new key, so ids follow first-request order.
func (b *Builder) node(kind Kind, width uint8, val uint64, name string) *Node {
	b.next++
	return &Node{Kind: kind, Width: width, Val: val, Name: name, id: b.next}
}

// intern returns the operator node of the given kind, width and
// arguments, creating it on first request.
func (b *Builder) intern(kind Kind, width uint8, args ...*Node) *Node {
	key := opKey{kind: kind, width: width}
	switch len(args) {
	case 3:
		key.a2 = args[2].id + 1
		fallthrough
	case 2:
		key.a1 = args[1].id + 1
		fallthrough
	case 1:
		key.a0 = args[0].id + 1
	}
	if n, ok := b.ops[key]; ok {
		return n
	}
	n := b.node(kind, width, 0, "")
	n.Args = append([]*Node(nil), args...)
	for _, a := range args {
		n.roles |= a.roles
	}
	b.ops[key] = n
	return n
}

func maskWidth(v uint64, w uint8) uint64 {
	if w >= 64 {
		return v
	}
	return v & (1<<w - 1)
}

func signExtend(v uint64, from uint8) uint64 {
	shift := 64 - from
	return uint64(int64(v<<shift) >> shift)
}

// Const returns a bitvector constant of the given width, interned in the
// consts table behind a direct-mapped cache.
func (b *Builder) Const(v uint64, w uint8) *Node {
	val := maskWidth(v, w)
	slot := ((val ^ uint64(w)<<56) * 0x9E3779B97F4A7C15) >> (64 - 7)
	if n := b.constFast[slot]; n != nil && n.Val == val && n.Width == w {
		return n
	}
	key := constKey{val: val, width: w}
	n, ok := b.consts[key]
	if !ok {
		n = b.node(KindConst, w, val, "")
		b.consts[key] = n
	}
	b.constFast[slot] = n
	return n
}

// Bool returns a boolean constant.
func (b *Builder) Bool(v bool) *Node {
	var x uint64
	if v {
		x = 1
	}
	return b.Const(x, BoolWidth)
}

// True and False return the boolean constants.
func (b *Builder) True() *Node  { return b.Bool(true) }
func (b *Builder) False() *Node { return b.Bool(false) }

// Var returns the named bitvector variable with the given role and index.
// A name has one role and index per builder: asking for an existing name
// with another is a bug, and panics.
func (b *Builder) Var(name string, w uint8, role Role, idx uint64) *Node {
	key := varKey{name: name, width: w}
	n, ok := b.vars[key]
	if !ok {
		n = b.node(KindVar, w, idx, name)
		n.Role, n.roles = role, 1<<role
		b.vars[key] = n
	} else if n.Role != role || n.Val != idx {
		panic(fmt.Sprintf("expr: variable %q interned as role %d index %d, requested as role %d index %d",
			name, n.Role, n.Val, role, idx))
	}
	return n
}

func checkSameWidth(op string, x, y *Node) {
	if x.Width != y.Width {
		panic(fmt.Sprintf("expr: %s width mismatch: %d vs %d", op, x.Width, y.Width))
	}
}

// orderCommutative puts a canonical order on commutative operands: constants
// last, otherwise by node identity.
func orderCommutative(x, y *Node) (*Node, *Node) {
	if x.Kind == KindConst && y.Kind != KindConst {
		return y, x
	}
	if x.Kind != KindConst && y.Kind != KindConst && x.id > y.id {
		return y, x
	}
	return x, y
}

// Add returns x + y.
func (b *Builder) Add(x, y *Node) *Node {
	checkSameWidth("add", x, y)
	x, y = orderCommutative(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val+y.Val, x.Width)
	}
	if y.IsConst() && y.Val == 0 {
		return x
	}
	// (x + c1) + c2 => x + (c1+c2)
	if y.IsConst() && x.Kind == KindAdd && x.Args[1].IsConst() {
		return b.Add(x.Args[0], b.Const(x.Args[1].Val+y.Val, x.Width))
	}
	return b.intern(KindAdd, x.Width, x, y)
}

// Sub returns x - y.
func (b *Builder) Sub(x, y *Node) *Node {
	checkSameWidth("sub", x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val-y.Val, x.Width)
	}
	if y.IsConst() && y.Val == 0 {
		return x
	}
	if x == y {
		return b.Const(0, x.Width)
	}
	if y.IsConst() {
		return b.Add(x, b.Const(-y.Val, x.Width))
	}
	// (a + c) - a => c, and (a + c1) - (a + c2) => c1 - c2. These arise
	// constantly when tracking rsp as "entry rsp plus constant".
	if x.Kind == KindAdd && x.Args[1].IsConst() {
		if x.Args[0] == y {
			return x.Args[1]
		}
		if y.Kind == KindAdd && y.Args[1].IsConst() && x.Args[0] == y.Args[0] {
			return b.Const(x.Args[1].Val-y.Args[1].Val, x.Width)
		}
	}
	// a - (a + c) => -c.
	if y.Kind == KindAdd && y.Args[1].IsConst() && y.Args[0] == x {
		return b.Const(-y.Args[1].Val, x.Width)
	}
	return b.intern(KindSub, x.Width, x, y)
}

// Mul returns x * y.
func (b *Builder) Mul(x, y *Node) *Node {
	checkSameWidth("mul", x, y)
	x, y = orderCommutative(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val*y.Val, x.Width)
	}
	if y.IsConst() {
		switch y.Val {
		case 0:
			return b.Const(0, x.Width)
		case 1:
			return x
		}
	}
	return b.intern(KindMul, x.Width, x, y)
}

// And returns x & y.
func (b *Builder) And(x, y *Node) *Node {
	checkSameWidth("and", x, y)
	x, y = orderCommutative(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val&y.Val, x.Width)
	}
	if y.IsConst() {
		if y.Val == 0 {
			return b.Const(0, x.Width)
		}
		if y.Val == maskWidth(^uint64(0), x.Width) {
			return x
		}
	}
	if x == y {
		return x
	}
	return b.intern(KindAnd, x.Width, x, y)
}

// Or returns x | y.
func (b *Builder) Or(x, y *Node) *Node {
	checkSameWidth("or", x, y)
	x, y = orderCommutative(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val|y.Val, x.Width)
	}
	if y.IsConst() {
		if y.Val == 0 {
			return x
		}
		if y.Val == maskWidth(^uint64(0), x.Width) {
			return y
		}
	}
	if x == y {
		return x
	}
	return b.intern(KindOr, x.Width, x, y)
}

// Xor returns x ^ y.
func (b *Builder) Xor(x, y *Node) *Node {
	checkSameWidth("xor", x, y)
	x, y = orderCommutative(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val^y.Val, x.Width)
	}
	if y.IsConst() && y.Val == 0 {
		return x
	}
	if x == y {
		return b.Const(0, x.Width)
	}
	return b.intern(KindXor, x.Width, x, y)
}

// Shl returns x << y (shift amount taken modulo width, as on x86).
func (b *Builder) Shl(x, y *Node) *Node {
	checkSameWidth("shl", x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val<<(y.Val%uint64(x.Width)), x.Width)
	}
	if y.IsConst() && y.Val%uint64(x.Width) == 0 {
		return x
	}
	return b.intern(KindShl, x.Width, x, y)
}

// Lshr returns x >> y logically.
func (b *Builder) Lshr(x, y *Node) *Node {
	checkSameWidth("lshr", x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.Val>>(y.Val%uint64(x.Width)), x.Width)
	}
	if y.IsConst() && y.Val%uint64(x.Width) == 0 {
		return x
	}
	return b.intern(KindLshr, x.Width, x, y)
}

// Ashr returns x >> y arithmetically.
func (b *Builder) Ashr(x, y *Node) *Node {
	checkSameWidth("ashr", x, y)
	if x.IsConst() && y.IsConst() {
		sv := signExtend(x.Val, x.Width)
		return b.Const(uint64(int64(sv)>>(y.Val%uint64(x.Width))), x.Width)
	}
	if y.IsConst() && y.Val%uint64(x.Width) == 0 {
		return x
	}
	return b.intern(KindAshr, x.Width, x, y)
}

// Not returns ^x.
func (b *Builder) Not(x *Node) *Node {
	if x.IsConst() {
		return b.Const(^x.Val, x.Width)
	}
	if x.Kind == KindNot {
		return x.Args[0]
	}
	return b.intern(KindNot, x.Width, x)
}

// Neg returns -x.
func (b *Builder) Neg(x *Node) *Node {
	if x.IsConst() {
		return b.Const(-x.Val, x.Width)
	}
	if x.Kind == KindNeg {
		return x.Args[0]
	}
	return b.intern(KindNeg, x.Width, x)
}

// Zext zero-extends x to width w.
func (b *Builder) Zext(x *Node, w uint8) *Node {
	if w == x.Width {
		return x
	}
	if w < x.Width {
		panic(fmt.Sprintf("expr: zext narrows %d to %d", x.Width, w))
	}
	if x.IsConst() {
		return b.Const(x.Val, w)
	}
	return b.intern(KindZext, w, x)
}

// Sext sign-extends x to width w.
func (b *Builder) Sext(x *Node, w uint8) *Node {
	if w == x.Width {
		return x
	}
	if w < x.Width {
		panic(fmt.Sprintf("expr: sext narrows %d to %d", x.Width, w))
	}
	if x.IsConst() {
		return b.Const(maskWidth(signExtend(x.Val, x.Width), w), w)
	}
	return b.intern(KindSext, w, x)
}

// Trunc truncates x to width w.
func (b *Builder) Trunc(x *Node, w uint8) *Node {
	if w == x.Width {
		return x
	}
	if w > x.Width {
		panic(fmt.Sprintf("expr: trunc widens %d to %d", x.Width, w))
	}
	if x.IsConst() {
		return b.Const(x.Val, w)
	}
	if x.Kind == KindZext || x.Kind == KindSext {
		inner := x.Args[0]
		if inner.Width == w {
			return inner
		}
		if inner.Width > w {
			return b.Trunc(inner, w)
		}
	}
	return b.intern(KindTrunc, w, x)
}

// Ite returns cond ? x : y.
func (b *Builder) Ite(cond, x, y *Node) *Node {
	if cond.Width != BoolWidth {
		panic("expr: ite condition must be boolean")
	}
	checkSameWidth("ite", x, y)
	if v, ok := cond.IsBoolConst(); ok {
		if v {
			return x
		}
		return y
	}
	if x == y {
		return x
	}
	return b.intern(KindIte, x.Width, cond, x, y)
}

// Eq returns the boolean x == y.
func (b *Builder) Eq(x, y *Node) *Node {
	checkSameWidth("eq", x, y)
	x, y = orderCommutative(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(x.Val == y.Val)
	}
	if x == y {
		return b.True()
	}
	// (a + c1) == c2  =>  a == c2 - c1
	if y.IsConst() && x.Kind == KindAdd && x.Args[1].IsConst() {
		return b.Eq(x.Args[0], b.Const(y.Val-x.Args[1].Val, x.Width))
	}
	return b.intern(KindEq, BoolWidth, x, y)
}

// Ne returns the boolean x != y.
func (b *Builder) Ne(x, y *Node) *Node { return b.BNot(b.Eq(x, y)) }

// Ult returns the boolean x < y, unsigned.
func (b *Builder) Ult(x, y *Node) *Node {
	checkSameWidth("ult", x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(x.Val < y.Val)
	}
	if x == y {
		return b.False()
	}
	if y.IsConst() && y.Val == 0 {
		return b.False()
	}
	return b.intern(KindUlt, BoolWidth, x, y)
}

// Slt returns the boolean x < y, signed.
func (b *Builder) Slt(x, y *Node) *Node {
	checkSameWidth("slt", x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(int64(signExtend(x.Val, x.Width)) < int64(signExtend(y.Val, y.Width)))
	}
	if x == y {
		return b.False()
	}
	return b.intern(KindSlt, BoolWidth, x, y)
}

// BAnd returns the boolean conjunction.
func (b *Builder) BAnd(x, y *Node) *Node {
	x, y = orderCommutative(x, y)
	if v, ok := x.IsBoolConst(); ok {
		if v {
			return y
		}
		return b.False()
	}
	if v, ok := y.IsBoolConst(); ok {
		if v {
			return x
		}
		return b.False()
	}
	if x == y {
		return x
	}
	return b.intern(KindBAnd, BoolWidth, x, y)
}

// BOr returns the boolean disjunction.
func (b *Builder) BOr(x, y *Node) *Node {
	x, y = orderCommutative(x, y)
	if v, ok := x.IsBoolConst(); ok {
		if v {
			return b.True()
		}
		return y
	}
	if v, ok := y.IsBoolConst(); ok {
		if v {
			return b.True()
		}
		return x
	}
	if x == y {
		return x
	}
	return b.intern(KindBOr, BoolWidth, x, y)
}

// BNot returns the boolean negation.
func (b *Builder) BNot(x *Node) *Node {
	if v, ok := x.IsBoolConst(); ok {
		return b.Bool(!v)
	}
	if x.Kind == KindBNot {
		return x.Args[0]
	}
	return b.intern(KindBNot, BoolWidth, x)
}

// AndAll conjoins a slice of booleans (true for the empty slice).
func (b *Builder) AndAll(xs []*Node) *Node {
	out := b.True()
	for _, x := range xs {
		out = b.BAnd(out, x)
	}
	return out
}

// String renders the node as an s-expression for diagnostics.
func (n *Node) String() string {
	var sb strings.Builder
	n.format(&sb)
	return sb.String()
}

var _kindNames = map[Kind]string{
	KindAdd: "add", KindSub: "sub", KindMul: "mul", KindAnd: "and",
	KindOr: "or", KindXor: "xor", KindShl: "shl", KindLshr: "lshr",
	KindAshr: "ashr", KindNot: "not", KindNeg: "neg", KindZext: "zext",
	KindSext: "sext", KindTrunc: "trunc", KindIte: "ite", KindEq: "=",
	KindUlt: "u<", KindSlt: "s<", KindBAnd: "&&", KindBOr: "||", KindBNot: "!",
}

func (n *Node) format(sb *strings.Builder) {
	switch n.Kind {
	case KindConst:
		if n.Width == BoolWidth {
			if n.Val == 1 {
				sb.WriteString("true")
			} else {
				sb.WriteString("false")
			}
			return
		}
		fmt.Fprintf(sb, "%#x", n.Val)
	case KindVar:
		sb.WriteString(n.Name)
	default:
		sb.WriteByte('(')
		sb.WriteString(_kindNames[n.Kind])
		for _, a := range n.Args {
			sb.WriteByte(' ')
			a.format(sb)
		}
		sb.WriteByte(')')
	}
}

// Size returns the number of distinct nodes reachable from n.
func Size(n *Node) int {
	visited := make(map[uint32]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if visited[n.id] {
			return
		}
		visited[n.id] = true
		for _, a := range n.Args {
			visit(a)
		}
	}
	visit(n)
	return len(visited)
}
