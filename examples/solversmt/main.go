// Using the embedded SMT solver directly: the bitvector term language,
// satisfiability with models, implication, and the subsumption-style
// equivalence queries Gadget-Planner issues (the repository's Z3 stand-in).
package main

import (
	"fmt"
	"log"

	"github.com/nofreelunch/gadget-planner/internal/expr"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/solver"
	"github.com/nofreelunch/gadget-planner/internal/symex"
)

func main() {
	b := expr.NewBuilder()
	s := solver.Default()

	// 1. Find x, y with x + y == 10 and x * y == 21 (8-bit).
	x := b.Var("x", 8, expr.RoleOther, 0)
	y := b.Var("y", 8, expr.RoleOther, 0)
	sys := b.BAnd(
		b.Eq(b.Add(x, y), b.Const(10, 8)),
		b.Eq(b.Mul(x, y), b.Const(21, 8)),
	)
	res, model := s.Check(sys)
	fmt.Printf("x+y=10 && x*y=21: %v, model x=%d y=%d\n", res, model["x"], model["y"])

	// 2. Prove an obfuscator identity: a ^ b == (~a & b) | (a & ~b), 64-bit.
	a64 := b.Var("a", 64, expr.RoleOther, 0)
	b64 := b.Var("b", 64, expr.RoleOther, 0)
	lhs := b.Xor(a64, b64)
	rhs := b.Or(b.And(b.Not(a64), b64), b.And(a64, b.Not(b64)))
	fmt.Printf("xor identity valid: %v\n", s.EquivalentBV(b, lhs, rhs))

	// 3. The paper's subsumption check (eq. 1): pre2 -> pre1 with
	//    pre1 = true (unconditional gadget) and pre2 = (rdx == rbx).
	pre1 := b.True()
	pre2 := b.Eq(symex.RegVar(b, isa.X64, isa.RDX), symex.RegVar(b, isa.X64, isa.RBX))
	fmt.Printf("conditional gadget subsumed by unconditional: %v\n",
		s.Implies(b, pre2, pre1))
	fmt.Printf("converse (must be false): %v\n", s.Implies(b, pre1, pre2))

	// 4. A payload-style slot equation: find the stack cell value that makes
	//    rdi == address of "/bin/sh" after rdi = slot ^ 0xFFFF.
	slot := b.Var("cell_16", 64, expr.RoleCell, 16)
	rdi := b.Xor(slot, b.Const(0xFFFF, 64))
	target := uint64(0x7FFF8230)
	res, model = s.Check(b.Eq(rdi, b.Const(target, 64)))
	if res != solver.Sat {
		log.Fatal("slot equation unsat?")
	}
	fmt.Printf("slot value: %#x (check: %#x)\n", model["cell_16"], model["cell_16"]^0xFFFF)

	fmt.Printf("\nsolver issued %d queries, %d conflicts\n", s.Queries.Load(), s.Conflicts.Load())
}
