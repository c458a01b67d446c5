package expr

import "testing"

// An imported DAG must be pointer-equal to the same expression built
// natively in the destination builder — Import re-interns through the
// destination's constructors, so hash-consing and canonical commutative
// ordering are re-established there.
func TestImportPointerEquality(t *testing.T) {
	src, dst := NewBuilder(), NewBuilder()

	x := src.Var("x", 64, RoleOther, 0)
	y := src.Var("y", 64, RoleOther, 0)
	sum := src.Add(x, src.Mul(y, src.Const(3, 64)))
	cond := src.BAnd(src.Ult(x, y), src.Eq(sum, src.Const(10, 64)))

	got := Import(dst, cond)
	want := dst.BAnd(
		dst.Ult(dst.Var("x", 64, RoleOther, 0), dst.Var("y", 64, RoleOther, 0)),
		dst.Eq(dst.Add(dst.Var("x", 64, RoleOther, 0), dst.Mul(dst.Var("y", 64, RoleOther, 0), dst.Const(3, 64))),
			dst.Const(10, 64)))
	if got != want {
		t.Fatalf("imported node not pointer-equal: %s vs %s", got, want)
	}
}

// Shared subterms in the source DAG must stay shared after import: one
// Importer memoizes per source node, so a diamond imports as a diamond.
func TestImportSharedSubterms(t *testing.T) {
	src, dst := NewBuilder(), NewBuilder()

	x := src.Var("x", 64, RoleOther, 0)
	shared := src.Add(x, src.Const(1, 64))
	top := src.Mul(shared, src.Xor(shared, src.Const(7, 64)))

	im := NewImporter(dst)
	got := im.Import(top)

	sharedDst := dst.Add(dst.Var("x", 64, RoleOther, 0), dst.Const(1, 64))
	want := dst.Mul(sharedDst, dst.Xor(sharedDst, dst.Const(7, 64)))
	if got != want {
		t.Fatalf("shared-subterm DAG not pointer-equal: %s vs %s", got, want)
	}
	// Importing the shared node directly hits the memo.
	if im.Import(shared) != sharedDst {
		t.Fatal("memoized subterm importer disagrees with native build")
	}
}

// Commutative operands are ordered by builder-local interning ids, so two
// builders that interned the variables in opposite orders hold structurally
// different (but equivalent) DAGs. Importing both into one destination must
// converge on a single canonical node.
func TestImportCanonicalizesCommutativeOrder(t *testing.T) {
	srcAB, srcBA, dst := NewBuilder(), NewBuilder(), NewBuilder()

	a1, b1 := srcAB.Var("a", 64, RoleOther, 0), srcAB.Var("b", 64, RoleOther, 0)
	sumAB := srcAB.Add(a1, b1)

	b2, a2 := srcBA.Var("b", 64, RoleOther, 0), srcBA.Var("a", 64, RoleOther, 0)
	sumBA := srcBA.Add(a2, b2)

	got1 := Import(dst, sumAB)
	got2 := Import(dst, sumBA)
	if got1 != got2 {
		t.Fatalf("same sum imported to distinct nodes: %s vs %s", got1, got2)
	}
}

// Import must preserve evaluation semantics across every node kind,
// including the ones simplification may rewrite.
func TestImportPreservesSemantics(t *testing.T) {
	src, dst := NewBuilder(), NewBuilder()

	x := src.Var("x", 32, RoleOther, 0)
	y := src.Var("y", 32, RoleOther, 0)
	nodes := []*Node{
		src.Sub(src.Shl(x, src.Const(2, 32)), src.Lshr(y, src.Const(1, 32))),
		src.Ashr(src.Neg(x), src.Const(3, 32)),
		src.Ite(src.Slt(x, y), src.Not(x), src.Or(x, y)),
		src.Zext(src.Trunc(x, 8), 64),
		src.Sext(src.Trunc(y, 16), 64),
		src.BOr(src.BNot(src.Eq(x, y)), src.Ult(x, y)),
		src.And(x, src.Xor(y, src.Const(0xF0F0, 32))),
	}
	env := Env{"x": 0x12345678, "y": 0x9ABCDEF0}
	for _, n := range nodes {
		want, err := Eval(n, env)
		if err != nil {
			t.Fatalf("eval source %s: %v", n, err)
		}
		imp := Import(dst, n)
		if imp.Width != n.Width {
			t.Errorf("width changed on import: %d vs %d (%s)", imp.Width, n.Width, n)
		}
		got, err := Eval(imp, env)
		if err != nil {
			t.Fatalf("eval imported %s: %v", imp, err)
		}
		if got != want {
			t.Errorf("import changed semantics: %s = %#x, imported %s = %#x",
				n, want, imp, got)
		}
	}
}

// ImportAll maps node-by-node and shares one memo across the slice.
func TestImportAll(t *testing.T) {
	src, dst := NewBuilder(), NewBuilder()
	x := src.Var("x", 64, RoleOther, 0)
	shared := src.Add(x, src.Const(5, 64))
	in := []*Node{shared, src.Mul(shared, shared), src.Const(5, 64)}

	out := NewImporter(dst).ImportAll(in)
	if len(out) != len(in) {
		t.Fatalf("ImportAll returned %d nodes, want %d", len(out), len(in))
	}
	sharedDst := dst.Add(dst.Var("x", 64, RoleOther, 0), dst.Const(5, 64))
	if out[0] != sharedDst || out[1] != dst.Mul(sharedDst, sharedDst) || out[2] != dst.Const(5, 64) {
		t.Fatal("ImportAll results not pointer-equal to native builds")
	}
	if ImportAllNil := NewImporter(dst).ImportAll(nil); ImportAllNil != nil {
		t.Fatal("ImportAll(nil) should be nil")
	}
}
