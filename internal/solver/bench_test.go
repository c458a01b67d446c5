package solver

import (
	"testing"

	"github.com/nofreelunch/gadget-planner/internal/expr"
)

// BenchmarkLinearQuery measures the chain-link/goal-constraint query shape
// (linear 64-bit equations), the dominant query class during payload
// concretization.
func BenchmarkLinearQuery(b *testing.B) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 64, expr.RoleOther, 0)
	y := eb.Var("y", 64, expr.RoleOther, 0)
	f := eb.BAnd(
		eb.Eq(eb.Add(x, eb.Const(0x1234, 64)), eb.Const(0x401000, 64)),
		eb.Eq(eb.Xor(y, eb.Const(0xFF, 64)), eb.Const(59, 64)),
	)
	s := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, _ := s.Check(f); r != Sat {
			b.Fatal(r)
		}
	}
}

// BenchmarkEquivalence64 measures the subsumption-style equality proof on a
// nonlinear 64-bit identity (the expensive query class).
func BenchmarkEquivalence64(b *testing.B) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 64, expr.RoleOther, 0)
	y := eb.Var("y", 64, expr.RoleOther, 0)
	lhs := eb.Add(x, y)
	rhs := eb.Add(eb.Xor(x, y), eb.Shl(eb.And(x, y), eb.Const(1, 64)))
	s := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.EquivalentBV(eb, lhs, rhs) {
			b.Fatal("identity failed")
		}
	}
}

// BenchmarkImplication measures the subsumption pre-condition check.
func BenchmarkImplication(b *testing.B) {
	eb := expr.NewBuilder()
	x := eb.Var("rdx0", 64, expr.RoleOther, 0)
	y := eb.Var("rbx0", 64, expr.RoleOther, 0)
	p := eb.Eq(x, y)
	q := eb.BNot(eb.Ult(eb.Sub(x, y), eb.Const(1, 64)))
	s := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Implies(eb, p, q)
	}
}
