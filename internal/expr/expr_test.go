package expr

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64, RoleOther, 0)
	y := b.Var("y", 64, RoleOther, 0)
	if x != b.Var("x", 64, RoleOther, 0) {
		t.Error("same var interned twice")
	}
	a1 := b.Add(x, y)
	a2 := b.Add(x, y)
	if a1 != a2 {
		t.Error("identical expressions not pointer-equal")
	}
	// Commutative canonicalization.
	if b.Add(y, x) != a1 {
		t.Error("add not canonicalized")
	}
	if b.Mul(y, x) != b.Mul(x, y) {
		t.Error("mul not canonicalized")
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	c := func(v uint64) *Node { return b.Const(v, 64) }
	tests := []struct {
		got  *Node
		want uint64
	}{
		{b.Add(c(2), c(40)), 42},
		{b.Sub(c(50), c(8)), 42},
		{b.Mul(c(6), c(7)), 42},
		{b.And(c(0xFF), c(0x2A)), 42},
		{b.Or(c(0x20), c(0x0A)), 42},
		{b.Xor(c(0x6A), c(0x40)), 42},
		{b.Shl(c(21), c(1)), 42},
		{b.Lshr(c(84), c(1)), 42},
		{b.Ashr(c(^uint64(0)-83), c(1)), ^uint64(0) - 41},
		{b.Not(c(^uint64(42))), 42},
		{b.Neg(c(^uint64(0) - 41)), 42},
	}
	for i, tt := range tests {
		if !tt.got.IsConst() || tt.got.Val != tt.want {
			t.Errorf("case %d: got %s, want %#x", i, tt.got, tt.want)
		}
	}
}

func TestIdentities(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64, RoleOther, 0)
	zero := b.Const(0, 64)
	one := b.Const(1, 64)
	ones := b.Const(^uint64(0), 64)

	if b.Add(x, zero) != x {
		t.Error("x+0 != x")
	}
	if b.Sub(x, x) != zero {
		t.Error("x-x != 0")
	}
	if b.Mul(x, one) != x {
		t.Error("x*1 != x")
	}
	if b.Mul(x, zero) != zero {
		t.Error("x*0 != 0")
	}
	if b.And(x, ones) != x {
		t.Error("x&~0 != x")
	}
	if b.And(x, zero) != zero {
		t.Error("x&0 != 0")
	}
	if b.Or(x, zero) != x {
		t.Error("x|0 != x")
	}
	if b.Xor(x, x) != zero {
		t.Error("x^x != 0")
	}
	if b.Not(b.Not(x)) != x {
		t.Error("~~x != x")
	}
	if b.Neg(b.Neg(x)) != x {
		t.Error("--x != x")
	}
	if got, ok := b.Eq(x, x).IsBoolConst(); !ok || !got {
		t.Error("x==x not true")
	}
	if got, ok := b.Ult(x, x).IsBoolConst(); !ok || got {
		t.Error("x<x not false")
	}
	// Nested constant accumulation: (x+1)+2 => x+3.
	sum := b.Add(b.Add(x, one), b.Const(2, 64))
	if sum != b.Add(x, b.Const(3, 64)) {
		t.Errorf("nested add constant fold failed: %s", sum)
	}
	// Equation normalization: (x+5) == 7 => x == 2.
	eq := b.Eq(b.Add(x, b.Const(5, 64)), b.Const(7, 64))
	if eq != b.Eq(x, b.Const(2, 64)) {
		t.Errorf("eq normalization failed: %s", eq)
	}
}

func TestBooleanSimplify(t *testing.T) {
	b := NewBuilder()
	p := b.Eq(b.Var("x", 64, RoleOther, 0), b.Const(1, 64))
	if b.BAnd(b.True(), p) != p {
		t.Error("true && p != p")
	}
	if got, _ := b.BAnd(b.False(), p).IsBoolConst(); got {
		t.Error("false && p != false")
	}
	if got, ok := b.BOr(b.True(), p).IsBoolConst(); !ok || !got {
		t.Error("true || p != true")
	}
	if b.BOr(b.False(), p) != p {
		t.Error("false || p != p")
	}
	if b.BNot(b.BNot(p)) != p {
		t.Error("!!p != p")
	}
	if b.Ite(b.True(), b.Const(1, 64), b.Const(2, 64)).Val != 1 {
		t.Error("ite(true) wrong")
	}
}

// Property: evaluation of the operators matches Go's semantics.
func TestQuickEvalMatchesGo(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64, RoleOther, 0)
	y := b.Var("y", 64, RoleOther, 0)
	env := func(xv, yv uint64) Env { return Env{"x": xv, "y": yv} }

	cases := []struct {
		node *Node
		ref  func(a, c uint64) uint64
	}{
		{b.Add(x, y), func(a, c uint64) uint64 { return a + c }},
		{b.Sub(x, y), func(a, c uint64) uint64 { return a - c }},
		{b.Mul(x, y), func(a, c uint64) uint64 { return a * c }},
		{b.And(x, y), func(a, c uint64) uint64 { return a & c }},
		{b.Or(x, y), func(a, c uint64) uint64 { return a | c }},
		{b.Xor(x, y), func(a, c uint64) uint64 { return a ^ c }},
		{b.Shl(x, y), func(a, c uint64) uint64 { return a << (c % 64) }},
		{b.Lshr(x, y), func(a, c uint64) uint64 { return a >> (c % 64) }},
		{b.Ashr(x, y), func(a, c uint64) uint64 { return uint64(int64(a) >> (c % 64)) }},
		{b.Not(x), func(a, _ uint64) uint64 { return ^a }},
		{b.Neg(x), func(a, _ uint64) uint64 { return -a }},
	}
	f := func(a, c uint64) bool {
		for _, tc := range cases {
			got, err := Eval(tc.node, env(a, c))
			if err != nil || got != tc.ref(a, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the instruction-substitution identity used by the obfuscator,
// x^y == (~x&y)|(x&~y), holds under evaluation.
func TestQuickObfuscationIdentity(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64, RoleOther, 0)
	y := b.Var("y", 64, RoleOther, 0)
	lhs := b.Xor(x, y)
	rhs := b.Or(b.And(b.Not(x), y), b.And(x, b.Not(y)))
	f := func(a, c uint64) bool {
		e := Env{"x": a, "y": c}
		l, err1 := Eval(lhs, e)
		r, err2 := Eval(rhs, e)
		return err1 == nil && err2 == nil && l == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNarrowWidths(t *testing.T) {
	b := NewBuilder()
	x := b.Var("b", 8, RoleOther, 0)
	got, err := Eval(b.Add(x, b.Const(0xFF, 8)), Env{"b": 2})
	if err != nil || got != 1 {
		t.Errorf("8-bit wraparound: %d, %v", got, err)
	}
	s := b.Sext(b.Const(0x80, 8), 64)
	if !s.IsConst() || s.Val != 0xFFFF_FFFF_FFFF_FF80 {
		t.Errorf("sext const = %s", s)
	}
	z := b.Zext(b.Const(0x80, 8), 64)
	if !z.IsConst() || z.Val != 0x80 {
		t.Errorf("zext const = %s", z)
	}
	tr := b.Trunc(b.Const(0x1234, 64), 8)
	if !tr.IsConst() || tr.Val != 0x34 {
		t.Errorf("trunc const = %s", tr)
	}
	// trunc(zext(x)) == x when widths line up.
	if b.Trunc(b.Zext(x, 64), 8) != x {
		t.Error("trunc(zext(x)) != x")
	}
	// Signed comparison at width 8: 0x80 (-128) < 0.
	lt := b.Slt(b.Const(0x80, 8), b.Const(0, 8))
	if v, ok := lt.IsBoolConst(); !ok || !v {
		t.Errorf("slt 8-bit = %s", lt)
	}
}

func TestSubst(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64, RoleOther, 0)
	y := b.Var("y", 64, RoleOther, 0)
	sum := b.Add(x, y)
	got := Subst(b, sum, map[*Node]*Node{x: b.Const(40, 64)})
	v, err := Eval(got, Env{"y": 2})
	if err != nil || v != 42 {
		t.Errorf("subst eval = %d, %v", v, err)
	}
	// Substitution triggers simplification: x - x via binding y -> x.
	diff := b.Sub(x, y)
	got = Subst(b, diff, map[*Node]*Node{y: x})
	if !got.IsConst() || got.Val != 0 {
		t.Errorf("subst simplify = %s", got)
	}
}

func TestVarsAndSize(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64, RoleOther, 0)
	y := b.Var("y", 64, RoleOther, 0)
	n := b.Add(b.Mul(x, y), x)
	if s := Size(n); s != 4 { // x, y, mul, add
		t.Errorf("Size = %d, want 4", s)
	}
	nodes := VarNodes(n)
	if len(nodes) != 2 || nodes[0] != x || nodes[1] != y {
		t.Errorf("VarNodes = %v", nodes)
	}
}

// TestVarRoles pins how a variable's role travels: a node's role set is the
// union of its variables' roles, Import and Subst carry role and index into
// the destination, and re-interning a name under another role or index
// panics.
func TestVarRoles(t *testing.T) {
	b := NewBuilder()
	reg := b.Var("rax0", 64, RoleReg, 0)
	stk := b.Var("stk_m8", 64, RoleStack, uint64(1<<64-8))
	flag := b.Var("zf0", BoolWidth, RoleOther, 0)
	sum := b.Add(reg, stk)
	if got, want := sum.Roles(), Roles(1<<RoleReg|1<<RoleStack); got != want {
		t.Errorf("roles of %s = %08b, want %08b", sum, got, want)
	}
	ite := b.Ite(flag, sum, b.Const(0, 64))
	if got, want := ite.Roles(), Roles(1<<RoleReg|1<<RoleStack|1<<RoleOther); got != want {
		t.Errorf("roles of %s = %08b, want %08b", ite, got, want)
	}
	if b.Const(3, 64).Roles() != 0 {
		t.Error("a constant has roles")
	}

	dst := NewBuilder()
	imp := Import(dst, ite)
	sub := Subst(dst, imp, map[*Node]*Node{})
	for _, n := range []*Node{imp, sub} {
		if n.Roles() != ite.Roles() {
			t.Errorf("carried roles %08b, want %08b", n.Roles(), ite.Roles())
		}
	}
	if v := dst.Var("stk_m8", 64, RoleStack, uint64(1<<64-8)); v.Role != RoleStack || int64(v.Val) != -8 {
		t.Errorf("imported stk_m8 role %d index %d", v.Role, int64(v.Val))
	}

	for _, c := range []struct {
		role Role
		idx  uint64
	}{{RoleOther, 0}, {RoleReg, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-interning rax0 as role %d index %d did not panic", c.role, c.idx)
				}
			}()
			b.Var("rax0", 64, c.role, c.idx)
		}()
	}
}

// TestNodeSize pins expr.Node at 64 bytes on 64-bit platforms: every
// expression DAG of a pool is made of them, so a field that grew the node
// would grow every pool.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 64 {
		t.Errorf("expr.Node is %d bytes, want at most 64", got)
	}
}

func TestEvalUnboundVar(t *testing.T) {
	b := NewBuilder()
	if _, err := Eval(b.Var("ghost", 64, RoleOther, 0), Env{}); err == nil {
		t.Error("unbound variable evaluated")
	}
}

func TestImportAcrossBuilders(t *testing.T) {
	b1 := NewBuilder()
	n := b1.Add(b1.Var("x", 64, RoleOther, 0), b1.Const(1, 64))
	b2 := NewBuilder()
	m := Import(b2, n)
	if m == n {
		t.Error("import returned foreign node")
	}
	v, err := Eval(m, Env{"x": 41})
	if err != nil || v != 42 {
		t.Errorf("imported eval = %d, %v", v, err)
	}
}

// TestSimplificationIdempotent: re-importing an already-simplified tree
// through a fresh builder must be a fixpoint.
func TestSimplificationIdempotent(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64, RoleOther, 0)
	y := b.Var("y", 64, RoleOther, 0)
	trees := []*Node{
		b.Add(b.Mul(x, y), b.Sub(x, b.Const(3, 64))),
		b.Ite(b.Ult(x, y), b.Xor(x, y), b.And(x, b.Not(y))),
		b.BOr(b.Eq(x, y), b.Slt(b.Ashr(x, b.Const(3, 64)), y)),
	}
	for _, n := range trees {
		b2 := NewBuilder()
		once := Import(b2, n)
		twice := Import(b2, once)
		if once != twice {
			t.Errorf("simplification not idempotent: %s vs %s", once, twice)
		}
		if once.String() != n.String() {
			t.Errorf("import changed structure: %s vs %s", once, n)
		}
	}
}

// TestIteOnBooleans covers width-1 ite muxing (used for flag updates).
func TestIteOnBooleans(t *testing.T) {
	b := NewBuilder()
	c := b.Eq(b.Var("x", 64, RoleOther, 0), b.Const(0, 64))
	p := b.Var("zf0", BoolWidth, RoleOther, 0)
	q := b.Ult(b.Var("x", 64, RoleOther, 0), b.Const(5, 64))
	ite := b.Ite(c, p, q)
	v, err := EvalBool(ite, Env{"x": 0, "zf0": 1})
	if err != nil || !v {
		t.Errorf("ite(true, true, _) = %v %v", v, err)
	}
	v, err = EvalBool(ite, Env{"x": 3, "zf0": 0})
	if err != nil || !v {
		t.Errorf("ite(false, _, 3<5) = %v %v", v, err)
	}
}
